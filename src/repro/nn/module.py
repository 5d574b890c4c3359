"""Module and Parameter base classes (PyTorch-like) for the KAISA substrate."""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, Tuple

import numpy as np

from ..tensor import RemovableHandle, Tensor
from ..tensor.tensor import _register_hook

__all__ = ["Parameter", "Module", "RemovableHandle"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable model parameter."""

    def __init__(self, data, requires_grad: bool = True, dtype=None):
        super().__init__(data, requires_grad=requires_grad, dtype=dtype)


class Module:
    """Base class for neural network modules.

    Provides parameter/submodule registration, recursive traversal,
    train/eval mode, state dict save/load, and forward hooks.  A forward hook
    receives ``(module, inputs, output)`` after every forward call and
    returns nothing; it is the mechanism the K-FAC preconditioner uses to
    capture layer inputs and, on a step that accumulates, to put a tensor
    hook (:meth:`Tensor.register_hook <repro.tensor.Tensor.register_hook>`)
    on the call's output for its gradient.  A module has no backward hooks of
    its own: the output's tensor hook is the one way to see a call's output
    gradient.  Registration returns a :class:`~repro.tensor.RemovableHandle`.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._forward_hooks: Dict[int, Callable] = {}
        self.training = True

    # -------------------------------------------------------------- registry
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable persistent array (e.g. BatchNorm statistics)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def register_forward_hook(self, hook: Callable) -> RemovableHandle:
        """Register ``hook(module, inputs, output)`` run after every forward call.

        Each registration is distinct — registering the same callable twice
        installs it twice, and each returned :class:`RemovableHandle` removes
        only its own registration (idempotently).
        """
        return _register_hook(self._forward_hooks, hook)

    # ------------------------------------------------------------- traversal
    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (prefix + name, param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------ mode
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # ------------------------------------------------------------ state dict
    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        return {key: array.copy() for key, _, _, array in self._state_entries(prefix)}

    def load_state_dict(self, state: Dict[str, np.ndarray], prefix: str = "") -> None:
        """Load every parameter and buffer from ``state``: all of them, or none.

        Every key is checked first: a missing parameter or buffer raises
        ``KeyError`` and an array of another shape ``ValueError``, before
        anything is assigned.
        """
        loads = []
        for key, module, name, current in self._state_entries(prefix):
            if key not in state:
                kind = "parameter" if name in module._parameters else "buffer"
                raise KeyError(f"missing {kind} {key!r} in state dict")
            value = np.asarray(state[key])
            if value.shape != current.shape:
                raise ValueError(f"{key!r} has shape {value.shape} in the state dict, {current.shape} in the module")
            loads.append((module, name, value))
        for module, name, value in loads:
            param = module._parameters.get(name)
            if param is not None:
                param.data = value.astype(param.data.dtype)  # a copy: a parameter never aliases the state dict
            else:
                module._buffers[name] = value
                object.__setattr__(module, name, value)

    def _state_entries(self, prefix: str) -> Iterator[Tuple[str, "Module", str, np.ndarray]]:
        """``(key, module, name, array)`` of every parameter and buffer, in :meth:`state_dict`'s order."""
        for name, param in self._parameters.items():
            yield prefix + name, self, name, param.data
        for name, buf in self._buffers.items():
            yield prefix + name, self, name, np.asarray(buf)
        for mod_name, module in self._modules.items():
            yield from module._state_entries(f"{prefix}{mod_name}.")

    # --------------------------------------------------------------- forward
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        output = self.forward(*args, **kwargs)
        for hook in tuple(self._forward_hooks.values()):
            hook(self, args, output)
        return output

    def __repr__(self) -> str:
        lines = [self.__class__.__name__ + "("]
        for name, module in self._modules.items():
            child = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child}")
        lines.append(")")
        return "\n".join(lines) if len(lines) > 2 else f"{self.__class__.__name__}()"
