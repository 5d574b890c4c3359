"""The one K-FAC checkpoint format.

:data:`CHECKPOINT_FORMAT` numbers the one layout ``KFAC.state_dict()`` and
``Trainer.state_dict()`` write; :func:`check_checkpoint_format` refuses any
other before a load reads anything, and :func:`refuse_removed_entries` a dict
in that format that carries the state of a feature this version no longer has.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["CHECKPOINT_FORMAT", "REMOVED_ENTRIES", "check_checkpoint_format", "refuse_removed_entries"]

#: The checkpoint layout this version writes and the only one it reads back.  Every layer's second-order
#: state is under ``"solvers"``, as the layer's solve strategy writes it (since format 4); format 5 keeps a
#: damped inverse in its packed form, whichever inverse shares its buffer, where format 4 kept squares.  The
#: ``"config"`` entry is bookkeeping no load reads, so a config field's removal needs no new number.
CHECKPOINT_FORMAT = 5


def check_checkpoint_format(state: Dict[str, Any], owner: str) -> None:
    """Raise ``ValueError`` unless ``state`` is in :data:`CHECKPOINT_FORMAT` (a dict without the number is format 0)."""
    found = state.get("format", 0)
    if found != CHECKPOINT_FORMAT:
        raise ValueError(
            f"{owner} checkpoint is in format {found}, but this version reads only format {CHECKPOINT_FORMAT}; "
            "restore it with the version that wrote it"
        )


#: Entries that only a removed feature wrote into a format-5 checkpoint, and that feature.  The rest of such a
#: dict is in the one layout, but the run it resumes followed a schedule or solver this version does not have.
REMOVED_ENTRIES = {
    "scheduler": "the drift-driven refresh schedule",
    "last_solution": "the conjugate-gradient solve strategy ('cg')",
}


def refuse_removed_entries(state: Dict[str, Any]) -> None:
    """Raise ``ValueError`` naming the first entry of ``state``, or of a layer's ``"solvers"`` state, in :data:`REMOVED_ENTRIES`."""
    places = {"": state, **{f"solvers/{name}/": entries for name, entries in state.get("solvers", {}).items()}}
    for prefix, entries in places.items():
        for key in entries:
            if key in REMOVED_ENTRIES:
                raise ValueError(
                    f"checkpoint entry {prefix + key!r} was written by {REMOVED_ENTRIES[key]}, which this version "
                    "does not have; restore it with the version that wrote it"
                )
