"""The shipped default cost model: a committed artifact, never retrained.

``pretrained_default()`` loads ``repro/core/default_costmodel.json``
instead of replaying the training corpus. These tests pin that the
committed artifact is exactly what :func:`fit_default_model` produces
(so a change to the corpus, the generators or the SGD that makes it
stale fails here), that the default path never trains, and that runs
under it still record the labels they did when it was trained
in-process.
"""

import json
from importlib import resources

import numpy as np

import repro
from repro.core import GumConfig, PolynomialSGDModel
from repro.core import costmodel
from repro.core.costmodel import (
    DEFAULT_ARTIFACT,
    fit_default_model,
    pretrained_default,
)
from repro.core.costmodel_v2 import (
    COSTMODEL_SCHEMA,
    model_to_params,
    save_artifact,
)
from repro.replay.simulator import resolve_replay_model

REGENERATE = (
    'PYTHONPATH=src python -c "from repro.core.costmodel import '
    "fit_default_model; from repro.core.costmodel_v2 import save_artifact; "
    "save_artifact(fit_default_model(), "
    "'src/repro/core/default_costmodel.json', "
    "provenance={'trainer': 'repro.core.costmodel.fit_default_model'})\""
)


def _committed() -> dict:
    resource = resources.files("repro.core").joinpath(DEFAULT_ARTIFACT)
    return json.loads(resource.read_text())


def test_fit_default_model_matches_committed_artifact(tmp_path):
    committed = _committed()
    fresh = save_artifact(fit_default_model(), tmp_path / "fresh.json")
    stale = (
        "the committed default model is stale; regenerate it:\n"
        + REGENERATE
    )
    params, shipped = fresh["parameters"], committed["parameters"]
    assert fresh["family"] == committed["family"], stale
    assert params.keys() == shipped.keys(), stale
    for key, value in params.items():
        assert np.array_equal(
            np.asarray(value), np.asarray(shipped[key])
        ), f"{key}: {stale}"
    assert fresh["digest"] == committed["digest"], stale


def test_default_path_never_trains(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the default cost model must not train")

    monkeypatch.setattr(costmodel, "_PRETRAINED", None)
    monkeypatch.setattr(costmodel, "collect_training_data", refuse)
    monkeypatch.setattr(PolynomialSGDModel, "fit", refuse)
    model = GumConfig().resolve_cost_model()
    assert isinstance(model, PolynomialSGDModel)
    assert model.name == "polynomial"
    assert not hasattr(model, "artifact_label")
    assert pretrained_default() is model
    family, params = model_to_params(model)
    assert family == "polynomial"
    assert params == _committed()["parameters"]


def test_default_run_keeps_its_labels(skewed_graph, source):
    # the ledger names the configured spec and replays name the model
    # family, exactly as when the default was trained in-process; the
    # loaded model carries no ``artifact:`` label to leak into either
    result = repro.run(skewed_graph, "bfs", num_gpus=4, source=source)
    assert result.ledger.model == "default"
    assert resolve_replay_model("default").name == "polynomial"


def test_artifact_resolves_as_package_data():
    resource = resources.files("repro.core").joinpath(DEFAULT_ARTIFACT)
    assert resource.is_file()
    artifact = _committed()
    assert artifact["schema"] == COSTMODEL_SCHEMA
    assert artifact["family"] == "polynomial"
    assert artifact["parameters"]["degree"] == 4
    assert len(artifact["parameters"]["weights"]) == 210
