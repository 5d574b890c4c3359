"""Optimizer base class: parameter groups, per-parameter state and the block iterator.

Every optimizer here is *fused* over blocks of parameters (what NVIDIA's
multi-tensor Fused LAMB / apex optimizers do on a GPU): the parameters of a
group are laid out, once, in **blocks** -- runs of consecutive whole
parameters totalling at most :data:`BLOCK_ELEMENTS` elements, a larger
parameter being a block of its own -- and a step gathers a block's data and
gradients into flat float32 buffers, runs each elementwise pass once over the
block and rebinds every ``param.data`` to a view of the block's fresh result.
The arithmetic per element is the per-parameter loop's, bit for bit
(``tests/optimizer_oracle.py`` holds those loops); what changes is the number
of NumPy calls, which is what a step costs when several ranks share one
interpreter lock.

Optimizer moments live in flat float32 buffers private to the optimizer, one
per block and state name; :meth:`Optimizer.state_for` holds views of them, so
the per-parameter state format (and :meth:`Optimizer.state_dict`) is what it
always was.  Nothing is cached about ``param.data`` or ``param.grad`` between
steps: both are read where they are bound *at the step*, and a state entry
that is not the optimizer's own view (a restored checkpoint, an array bound by
hand) is copied in and re-bound before it is used.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn.module import Parameter

__all__ = ["Optimizer", "BLOCK_ELEMENTS"]

ParamsLike = Union[Iterable[Parameter], Iterable[Dict]]

#: Most elements a block of several parameters holds.  A constant, not an
#: option: swept on the BERT workload (``optimizer.step()`` inside a K-FAC
#: step, median of 80, alone | per rank beside a second rank): 32 K 2.7 |
#: 10.8 / 11.6 ms, 64 K 2.5 | 8.2 / 10.6, 128 K 2.3 | 5.6 / 8.0, 256 K 2.5 |
#: 5.5 / 4.8, everything in one block 2.6 | 4.2 / 6.8; the per-parameter loop
#: 2.4-2.6 | 10.2-11.1.  Beside a second rank the step costs by the call, not
#: by the element, so larger blocks win there; alone, 128 K reads best.
BLOCK_ELEMENTS = 128 * 1024


class _Block:
    """Consecutive whole parameters of one group and the flat state buffers behind them."""

    __slots__ = ("params", "bounds", "states")

    def __init__(self, params: List[Parameter]) -> None:
        self.params = params
        self.bounds = [0]  # element offsets: parameter i is [bounds[i], bounds[i + 1])
        for param in params:
            self.bounds.append(self.bounds[-1] + param.data.size)
        # state name -> (flat float32 buffer of the whole block, each parameter's view of it)
        self.states: Dict[str, Tuple[np.ndarray, List[np.ndarray]]] = {}

    def state(self, name: str) -> Tuple[np.ndarray, List[np.ndarray]]:
        if name not in self.states:
            flat = np.zeros(self.bounds[-1], dtype=np.float32)
            spans = zip(self.params, self.bounds, self.bounds[1:])
            self.states[name] = flat, [flat[lo:hi].reshape(param.data.shape) for param, lo, hi in spans]
        return self.states[name]


class ParamRun:
    """Members ``[first, last)`` of a block that step together: what one fused pass covers.

    Every member has a gradient, and they agree on the parameter dtype and on
    every scalar of their optimizer state (which entries exist, the step
    count), so one bias correction and one output cast serve the run.  A
    block whose parameters all trained alike is one run; a parameter that sat
    a step out (``grad is None``) splits it and stays a step behind.
    """

    __slots__ = ("block", "first", "last", "params", "states", "size")

    def __init__(self, block: _Block, first: int, last: int, states: List[Dict]) -> None:
        self.block = block
        self.first = first
        self.last = last
        self.params = block.params[first:last]
        self.states = states
        self.size = block.bounds[last] - block.bounds[first]

    def gather(self, arrays: Sequence[np.ndarray], dtype=np.float32) -> np.ndarray:
        """``arrays`` (one per member) end to end in a fresh flat array; the one copy is also the cast to ``dtype``."""
        flat = np.empty(self.size, dtype=dtype)
        np.concatenate([array.reshape(-1) for array in arrays], out=flat)
        return flat

    def grads(self, dtype=np.float32) -> np.ndarray:
        return self.gather([param.grad for param in self.params], dtype)

    def data(self) -> np.ndarray:
        return self.gather([param.data for param in self.params])

    def split(self, flat: np.ndarray) -> List[np.ndarray]:
        """Each member's stretch of ``flat`` (``size`` elements laid out as :meth:`gather` does): 1-D views."""
        bounds, base = self.block.bounds, self.block.bounds[self.first]
        return [flat[bounds[index] - base : bounds[index + 1] - base] for index in range(self.first, self.last)]

    def shaped(self, flat: np.ndarray) -> List[np.ndarray]:
        """:meth:`split`, each view in its member's shape."""
        return [view.reshape(param.data.shape) for view, param in zip(self.split(flat), self.params)]

    def state(self, name: str) -> np.ndarray:
        """The run's stretch of the block's flat ``name`` buffer, every member's state entry a view of it.

        An entry that is missing starts at zero; one that is not the block's
        own view (a restored checkpoint, an array bound from outside) is
        copied in.  Either way the member's state then holds the view.
        """
        flat, views = self.block.state(name)
        for view, state in zip(views[self.first : self.last], self.states):
            held = state.get(name)
            if held is not view:
                view[...] = 0.0 if held is None else held
                state[name] = view
        bounds = self.block.bounds
        return flat[bounds[self.first] : bounds[self.last]]

    def advance(self, name: str = "step") -> int:
        """Count one more step on every member (they agree on the count) and return it."""
        count = self.states[0].get(name, 0) + 1
        for state in self.states:
            state[name] = count
        return count

    def assign(self, result: np.ndarray) -> None:
        """Rebind every member's ``data`` to its view of ``result`` (float32), cast once to the run's dtype."""
        result = result.astype(self.params[0].data.dtype, copy=False)
        for param, view in zip(self.params, self.shaped(result)):
            param.data = view


class Optimizer:
    """Base optimizer: holds parameter groups and per-parameter state.

    KAISA is *not* an optimizer itself — it is a preconditioner whose
    ``step()`` is called right before the optimizer's ``step()`` (Listing 1 in
    the paper), so any optimizer defined here composes with K-FAC unchanged.
    """

    def __init__(self, params: ParamsLike, defaults: Dict) -> None:
        self.defaults = dict(defaults)
        self.param_groups: List[Dict] = []
        self.state: Dict[int, Dict] = {}
        self._blocks: List[List[_Block]] = []  # per param group
        params = list(params)
        if not params:
            raise ValueError("optimizer received an empty parameter list")
        if isinstance(params[0], dict):
            for group in params:
                self.add_param_group(dict(group))
        else:
            self.add_param_group({"params": params})

    def add_param_group(self, group: Dict) -> None:
        if "params" not in group:
            raise ValueError("param group must contain a 'params' key")
        group["params"] = list(group["params"])
        for key, value in self.defaults.items():
            group.setdefault(key, value)
        self.param_groups.append(group)
        blocks: List[_Block] = []
        members: List[Parameter] = []
        elements = 0
        for param in group["params"]:
            if members and elements + param.data.size > BLOCK_ELEMENTS:
                blocks.append(_Block(members))
                members, elements = [], 0
            members.append(param)
            elements += param.data.size
        if members:
            blocks.append(_Block(members))
        self._blocks.append(blocks)

    def parameters(self) -> Iterable[Parameter]:
        for group in self.param_groups:
            yield from group["params"]

    # ---------------------------------------------------------------- blocks
    def runs(self, group: Optional[Dict] = None) -> Iterator[ParamRun]:
        """The :class:`ParamRun` s of ``group`` (default: of every group) for the gradients bound right now.

        The one iterator under every fused pass: the optimizers' ``step``,
        :meth:`grad_norm` and :meth:`GradScaler.unscale_
        <repro.optim.grad_scaler.GradScaler.unscale_>`.  Parameters without a
        gradient belong to no run.
        """
        for candidate, blocks in zip(self.param_groups, self._blocks):
            if group is not None and candidate is not group:
                continue
            for block in blocks:
                for key, members in itertools.groupby(enumerate(block.params), lambda member: self._run_key(member[1])):
                    if key is not None:
                        members = list(members)
                        states = [self.state_for(param) for _, param in members]
                        yield ParamRun(block, members[0][0], members[-1][0] + 1, states)

    def _run_key(self, param: Parameter):
        """What neighbours must share to step in one run; ``None`` for a parameter that sits this step out."""
        if param.grad is None:
            return None
        state = self.state_for(param)
        return param.data.dtype, frozenset((k, None if isinstance(v, np.ndarray) else v) for k, v in state.items())

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for param in self.parameters():
            param.grad = None

    def state_for(self, param: Parameter) -> Dict:
        """Per-parameter optimizer state (lazily created); its arrays are views of the block's flat buffers."""
        return self.state.setdefault(id(param), {})

    # ------------------------------------------------------------ checkpoint
    def state_dict(self) -> Dict:
        """Serializable optimizer state: per-parameter buffers and group hyperparameters.

        Parameters are identified by their position across the parameter
        groups (the PyTorch convention), so a checkpoint can be restored into
        a freshly constructed optimizer over an equivalent model.  Array
        buffers (momentum, Adam/LAMB moments) are copied; scalar state (step
        counters) is stored as-is.
        """
        index: Dict[int, int] = {}
        groups_out: List[Dict] = []
        for group in self.param_groups:
            param_indices = []
            for param in group["params"]:
                if id(param) not in index:
                    index[id(param)] = len(index)
                param_indices.append(index[id(param)])
            entry = {key: value for key, value in group.items() if key != "params"}
            entry["params"] = param_indices
            groups_out.append(entry)
        state_out: Dict[int, Dict] = {}
        for group in self.param_groups:
            for param in group["params"]:
                entry = self.state.get(id(param))
                if not entry:
                    continue
                state_out[index[id(param)]] = {
                    key: value.copy() if isinstance(value, np.ndarray) else value
                    for key, value in entry.items()
                }
        return {"state": state_out, "param_groups": groups_out}

    def load_state_dict(self, state: Dict) -> None:
        """Restore state saved by :meth:`state_dict`.

        The optimizer must have been constructed with the same parameter
        -group structure (same group count and sizes); group hyperparameters
        (lr, momentum, betas, ...) are restored from the checkpoint so the
        resumed schedule matches the saved one.  The arrays are copied here
        and copied into the flat buffers by the next step, so the caller's
        arrays are never written.
        """
        saved_groups = state["param_groups"]
        if len(saved_groups) != len(self.param_groups):
            raise ValueError(
                f"checkpoint has {len(saved_groups)} param groups, optimizer has {len(self.param_groups)}"
            )
        params_by_index: Dict[int, Parameter] = {}
        for group, saved in zip(self.param_groups, saved_groups):
            if len(saved["params"]) != len(group["params"]):
                raise ValueError(
                    f"checkpoint group has {len(saved['params'])} parameters, "
                    f"optimizer group has {len(group['params'])}"
                )
            for param, param_index in zip(group["params"], saved["params"]):
                existing = params_by_index.setdefault(param_index, param)
                if existing is not param:
                    raise ValueError("checkpoint parameter indices are inconsistent across groups")
            for key, value in saved.items():
                if key != "params":
                    group[key] = value
        self.state.clear()
        for param_index, entry in state["state"].items():
            param = params_by_index.get(int(param_index))
            if param is None:
                raise ValueError(f"checkpoint references unknown parameter index {param_index}")
            restored = {}
            for key, value in entry.items():
                if isinstance(value, np.ndarray):
                    if value.shape != param.data.shape:
                        raise ValueError(
                            f"optimizer buffer {key!r} for parameter {param_index} has shape "
                            f"{value.shape}, expected {param.data.shape}"
                        )
                    restored[key] = value.copy()
                else:
                    restored[key] = value
            self.state[id(param)] = restored

    def state_bytes(self) -> int:
        """Total bytes of optimizer state (momentum buffers etc.), for the memory model."""
        total = 0
        for entry in self.state.values():
            for value in entry.values():
                if isinstance(value, np.ndarray):
                    total += value.nbytes
        return total

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def grad_norm(self) -> float:
        """Global L2 norm of all gradients (useful for clipping / logging)."""
        total = 0.0
        for run in self.runs():
            flat = run.grads(np.float64)
            total += float(flat @ flat)
        return float(np.sqrt(total))
