"""KAISA: the adaptable distributed K-FAC preconditioner (the paper's core contribution)."""

from .analysis import (
    CommSchedule,
    IterationBreakdown,
    IterationTimeModel,
    KFACWorkloadSpec,
    model_comm_schedule,
)
from .assignment import AssignmentResult, greedy_lpt_assignment, makespan, round_robin_assignment
from .base import CHECKPOINT_FORMAT
from .config import KFACConfig
from .factors import FactorRepr
from .kernels import KernelBackend, make_kernel_backend
from .kmath import (
    EigenDecomposition,
    apply_eigenbasis_left,
    apply_eigenbasis_right,
    eigenvalue_outer_product,
    eigenvalue_pi,
    expand_triangle,
    kl_clip_scale,
    kl_clip_scale_from_total,
    pack_triangle,
    precondition_with_eigen,
    precondition_with_inverse,
    structured_precondition,
    symmetric_eigen,
    tikhonov_pi,
)
from .layers import (
    KFACConv2dLayer,
    KFACLayer,
    KFACLayerNormLayer,
    KFACLinearLayer,
    LAYER_HANDLERS,
    make_kfac_layer,
)
from .preconditioner import KFAC
from .scheduling import (
    AdaptiveDampingController,
    EigenSolveStrategy,
    InverseSolveStrategy,
    SolveStrategy,
    available_solve_strategies,
)
from .scheduling.solvers import pack_eigen, unpack_eigen_repr
from .strategy import (
    DistributionPlan,
    LayerShapeInfo,
    LayerWorkGroups,
    StepActions,
    assign_workers,
)

__all__ = [
    "KFAC",
    "KFACConfig",
    "CHECKPOINT_FORMAT",
    "DistributionPlan",
    "StepActions",
    "assign_workers",
    "pack_eigen",
    "unpack_eigen_repr",
    "FactorRepr",
    "LayerShapeInfo",
    "LayerWorkGroups",
    "KFACLayer",
    "KFACLinearLayer",
    "KFACConv2dLayer",
    "KFACLayerNormLayer",
    "LAYER_HANDLERS",
    "make_kfac_layer",
    "EigenDecomposition",
    "symmetric_eigen",
    "precondition_with_eigen",
    "precondition_with_inverse",
    "structured_precondition",
    "apply_eigenbasis_left",
    "apply_eigenbasis_right",
    "kl_clip_scale",
    "kl_clip_scale_from_total",
    "KernelBackend",
    "make_kernel_backend",
    "greedy_lpt_assignment",
    "round_robin_assignment",
    "makespan",
    "AssignmentResult",
    "pack_triangle",
    "expand_triangle",
    "IterationTimeModel",
    "IterationBreakdown",
    "KFACWorkloadSpec",
    "CommSchedule",
    "model_comm_schedule",
    "eigenvalue_outer_product",
    "eigenvalue_pi",
    "tikhonov_pi",
    "AdaptiveDampingController",
    "SolveStrategy",
    "EigenSolveStrategy",
    "InverseSolveStrategy",
    "available_solve_strategies",
]
