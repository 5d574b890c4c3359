"""The preconditioner protocol consumed by the trainer and experiment harness.

Any gradient preconditioner usable with :class:`repro.training.Trainer` must
subclass :class:`Preconditioner`.  The contract is intentionally small:

* :meth:`step` preconditions the model's gradients in place (called between
  the data-parallel gradient allreduce and ``optimizer.step()``),
* :meth:`state_dict` / :meth:`load_state_dict` round-trip all mutable state
  (running factors, eigen decompositions, step counters) so training can be
  checkpointed and resumed with bit-identical behaviour,
* :data:`CHECKPOINT_FORMAT` numbers the one layout ``KFAC.state_dict()`` and
  ``Trainer.state_dict()`` write; :func:`check_checkpoint_format` refuses any
  other before a load reads anything,
* :meth:`memory_usage` reports the per-rank state bytes (the paper's
  "K-FAC memory overhead", Table 5).

Keeping the protocol explicit — rather than duck-typing on ``step`` — lets a
new preconditioner (e.g. Shampoo-style or a diagonal Fisher approximation)
plug into the trainer, the checkpointing path and the memory reporting
without touching any of them.

Optional loss feedback: a preconditioner that exposes a truthy
``accepts_loss_feedback`` attribute is called as ``step(lr=..., loss=...)``
by the trainer — :class:`repro.kfac.KFAC` uses this to drive its
Levenberg-Marquardt adaptive damping controller
(:mod:`repro.kfac.scheduling`).  Implementations without the attribute keep
the plain ``step(lr=...)`` signature.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional

__all__ = ["CHECKPOINT_FORMAT", "Preconditioner", "check_checkpoint_format"]

#: The checkpoint layout this version writes and the only one it reads back.
CHECKPOINT_FORMAT = 1


def check_checkpoint_format(state: Dict[str, Any], owner: str) -> None:
    """Raise ``ValueError`` unless ``state`` is in :data:`CHECKPOINT_FORMAT` (a dict without the number is format 0)."""
    found = state.get("format", 0)
    if found != CHECKPOINT_FORMAT:
        raise ValueError(
            f"{owner} checkpoint is in format {found}, but this version reads only format {CHECKPOINT_FORMAT}; "
            "restore it with the version that wrote it"
        )


class Preconditioner(abc.ABC):
    """Abstract base class for gradient preconditioners."""

    @abc.abstractmethod
    def step(self, lr: Optional[float] = None) -> None:
        """Precondition the registered gradients in place."""

    @abc.abstractmethod
    def state_dict(self) -> Dict[str, Any]:
        """All mutable state needed to resume preconditioning after a restart."""

    @abc.abstractmethod
    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore state produced by :meth:`state_dict`."""

    @abc.abstractmethod
    def memory_usage(self) -> Dict[str, int]:
        """Bytes of preconditioner state held on this rank, by category."""
