"""The one K-FAC checkpoint format.

:data:`CHECKPOINT_FORMAT` numbers the one layout ``KFAC.state_dict()`` and
``Trainer.state_dict()`` write; :func:`check_checkpoint_format` refuses any
other before a load reads anything.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["CHECKPOINT_FORMAT", "check_checkpoint_format"]

#: The checkpoint layout this version writes and the only one it reads back.  Every layer's second-order
#: state is under ``"solvers"``, as the layer's solve strategy writes it (since format 4); format 5 keeps a
#: damped inverse in its packed form, whichever inverse shares its buffer, where format 4 kept squares.
CHECKPOINT_FORMAT = 5


def check_checkpoint_format(state: Dict[str, Any], owner: str) -> None:
    """Raise ``ValueError`` unless ``state`` is in :data:`CHECKPOINT_FORMAT` (a dict without the number is format 0)."""
    found = state.get("format", 0)
    if found != CHECKPOINT_FORMAT:
        raise ValueError(
            f"{owner} checkpoint is in format {found}, but this version reads only format {CHECKPOINT_FORMAT}; "
            "restore it with the version that wrote it"
        )
