"""repro - a NumPy reproduction of KAISA, the adaptive distributed K-FAC optimizer framework.

The package is organised as the paper's system is:

* :mod:`repro.tensor`, :mod:`repro.nn`, :mod:`repro.models`, :mod:`repro.optim`
  - the deep-learning framework substrate (autograd, layers, models,
  first-order optimizers, AMP loss scaling),
* :mod:`repro.kfac` - KAISA itself: the K-FAC preconditioner, the MEM-OPT /
  COMM-OPT / HYBRID-OPT distribution strategies controlled by
  ``grad_worker_frac``, the greedy factor assignment and the analytic
  iteration-time model,
* :mod:`repro.distributed` - data-parallel training on a simulated cluster
  (in-process multi-rank backend + alpha-beta performance model),
* :mod:`repro.memory` - per-rank memory accounting,
* :mod:`repro.data`, :mod:`repro.training`, :mod:`repro.experiments` -
  synthetic workloads, training loops and the experiment harness used by
  ``benchmarks/``,
* :mod:`repro.analysis` - SPMD correctness tooling: the collective-order
  lint (``python -m repro.analysis.lint``) and the ``REPRO_SANITIZE=1``
  runtime sanitizer/race detector for the async comm stack.
"""

from . import analysis, data, distributed, experiments, kfac, memory, models, nn, optim, tensor, training
from .kfac import KFAC, KFACConfig
from .tensor import Tensor, no_grad

__version__ = "1.0.0"

__all__ = [
    "Tensor",
    "no_grad",
    "KFAC",
    "KFACConfig",
    "tensor",
    "nn",
    "models",
    "optim",
    "kfac",
    "distributed",
    "memory",
    "data",
    "training",
    "experiments",
    "analysis",
    "__version__",
]
