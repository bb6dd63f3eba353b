"""The paper's contribution: FSteal, OSteal, cost model, GUM engine."""

from repro.core.decision_cache import (
    LruDict,
    PlanCache,
    plan_fingerprint,
    quantize,
    repair_assignment,
)
from repro.core.milp import (
    FStealProblem,
    FStealSolution,
    FStealSolver,
    GreedySolver,
    HiGHSSolver,
    SOLVERS,
    make_solver,
)
from repro.core.costmodel import (
    CostModel,
    DecisionTreeModel,
    FitReport,
    KernelRidgeModel,
    LinearSGDModel,
    MODEL_FAMILIES,
    OnlineRMSRE,
    OracleCostModel,
    PolynomialSGDModel,
    UniformCostModel,
    collect_training_data,
    default_training_corpus,
    pretrained_default,
    rmsre,
)
from repro.core.costmodel_v2 import (
    COSTMODEL_SCHEMA,
    FitOutcome,
    HarvestedCorpus,
    fit_candidates,
    harvest,
    load_artifact,
    save_artifact,
)
from repro.core.fsteal import (
    VertexAssignment,
    build_cost_matrix,
    plan_fsteal,
    select_vertices,
)
from repro.core.reduction_tree import ReductionTree
from repro.core.osteal import OStealDecision, plan_osteal
from repro.core.hubcache import HubCache
from repro.core.arbitrator import GumConfig, GumScheduler
from repro.core.gum import GumEngine

__all__ = [
    "FStealProblem",
    "FStealSolution",
    "FStealSolver",
    "GreedySolver",
    "HiGHSSolver",
    "SOLVERS",
    "make_solver",
    "PlanCache",
    "LruDict",
    "plan_fingerprint",
    "quantize",
    "repair_assignment",
    "CostModel",
    "LinearSGDModel",
    "PolynomialSGDModel",
    "DecisionTreeModel",
    "KernelRidgeModel",
    "UniformCostModel",
    "OracleCostModel",
    "MODEL_FAMILIES",
    "FitReport",
    "rmsre",
    "OnlineRMSRE",
    "collect_training_data",
    "default_training_corpus",
    "pretrained_default",
    "COSTMODEL_SCHEMA",
    "HarvestedCorpus",
    "FitOutcome",
    "harvest",
    "fit_candidates",
    "save_artifact",
    "load_artifact",
    "VertexAssignment",
    "build_cost_matrix",
    "select_vertices",
    "plan_fsteal",
    "ReductionTree",
    "OStealDecision",
    "plan_osteal",
    "HubCache",
    "GumConfig",
    "GumScheduler",
    "GumEngine",
]
