"""Module and Parameter base classes (PyTorch-like) for the KAISA substrate."""

from __future__ import annotations

from collections import OrderedDict
import weakref
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from ..tensor import RemovableHandle, Tensor, is_grad_enabled
from ..tensor.tensor import _register_hook

__all__ = ["Parameter", "Module", "RemovableHandle"]


def _remove_handles(handles) -> None:
    """weakref.finalize callback: detach a dead call's input-tensor hooks."""
    for handle in handles:
        handle.remove()


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable model parameter."""

    def __init__(self, data, requires_grad: bool = True, dtype=None):
        super().__init__(data, requires_grad=requires_grad, dtype=dtype)


class Module:
    """Base class for neural network modules.

    Provides parameter/submodule registration, recursive traversal,
    train/eval mode, state dict save/load, and hooks.  Forward hooks receive
    ``(module, inputs, output)`` after every forward call and are the
    mechanism the K-FAC preconditioner uses to capture layer inputs (and, on a
    step that accumulates, to hook the call's output tensor for its gradient);
    full backward hooks receive ``(module, grad_input, grad_output)`` during
    the backward pass.  All registrations return a
    :class:`~repro.tensor.RemovableHandle`.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._forward_hooks: Dict[int, Callable] = {}
        self._backward_hooks: Dict[int, Callable] = {}
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

    def register_full_backward_hook(self, hook: Callable) -> RemovableHandle:
        """Register ``hook(module, grad_input, grad_output)`` fired during backward.

        The hook runs once per forward call whose output participates in a
        ``backward()`` pass, after the module's local backward has completed.
        ``grad_output`` is a one-element tuple holding the gradient w.r.t.
        the module output.  ``grad_input`` is a tuple with one entry per
        positional tensor input (``None`` for inputs that do not require
        grad); each entry is that input tensor's *total finalized* gradient —
        summed over every consumer in the graph, not just this module — and
        the hook waits for those totals, so when an input also feeds other
        branches (e.g. a residual skip) the event fires only once the shared
        gradient is complete.  This differs from PyTorch's per-module
        ``grad_input``; K-FAC only consumes ``grad_output``.  Hooks fire in
        registration order.
        """
        return _register_hook(self._backward_hooks, hook)

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
        state: Dict[str, np.ndarray] = {}
        for name, param in self._parameters.items():
            state[prefix + name] = param.data.copy()
        for name, buf in self._buffers.items():
            state[prefix + name] = np.array(buf)
        for mod_name, module in self._modules.items():
            state.update(module.state_dict(prefix=f"{prefix}{mod_name}."))
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], prefix: str = "") -> None:
        for name, param in self._parameters.items():
            key = prefix + name
            if key not in state:
                raise KeyError(f"missing parameter {key!r} in state dict")
            param.data = np.asarray(state[key], dtype=param.data.dtype).reshape(param.data.shape).copy()
        for name in self._buffers:
            key = prefix + name
            if key in state:
                buf = np.asarray(state[key])
                self._buffers[name] = buf
                object.__setattr__(self, name, buf)
        for mod_name, module in self._modules.items():
            module.load_state_dict(state, prefix=f"{prefix}{mod_name}.")

    # --------------------------------------------------------------- forward
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        output = self.forward(*args, **kwargs)
        for hook in tuple(self._forward_hooks.values()):
            hook(self, args, output)
        if self._backward_hooks and isinstance(output, Tensor) and output.requires_grad and is_grad_enabled():
            self._attach_backward_event(args, output)
        return output

    def _attach_backward_event(self, args: tuple, output: Tensor) -> None:
        """Arrange for this call's full backward hooks to fire during backprop.

        One closure per forward call: the output's incoming gradient and the
        gradients of every grad-requiring positional tensor input are
        collected from tape hooks; when the last of them arrives the module
        hooks run with ``(module, grad_input, grad_output)``.  The tape walks
        the graph in reverse topological order, so across a network the
        events fire in reverse-layer order.  State resets after firing so
        a second ``backward()`` over the same graph fires the hooks again.
        """
        tensor_inputs = tuple(a for a in args if isinstance(a, Tensor))
        watched = [(index, t) for index, t in enumerate(tensor_inputs) if t.requires_grad]
        state = {
            "grad_output": None,
            "grad_input": [None] * len(tensor_inputs),
            "remaining": len(watched),
        }

        def fire() -> None:
            grad_input = tuple(state["grad_input"])
            grad_output = (state["grad_output"],)
            # Reset for a potential repeat backward over the same graph.
            state["grad_output"] = None
            state["grad_input"] = [None] * len(tensor_inputs)
            state["remaining"] = len(watched)
            for hook in tuple(self._backward_hooks.values()):
                hook(self, grad_input, grad_output)

        def on_output_grad(grad: np.ndarray) -> None:
            state["grad_output"] = grad
            if state["remaining"] == 0:
                fire()

        output.register_hook(on_output_grad)

        def on_input_grad(grad: np.ndarray, index: int) -> None:
            state["grad_input"][index] = grad
            state["remaining"] -= 1
            if state["remaining"] == 0 and state["grad_output"] is not None:
                fire()

        input_handles = [
            tensor.register_hook(lambda grad, index=index: on_input_grad(grad, index))
            for index, tensor in watched
        ]
        if input_handles:
            # The output hook dies with the per-call output tensor, but the
            # inputs may be long-lived (an embedding being optimized, an
            # adversarial-example loop): drop their per-call closures once
            # this call's graph is collected, so repeated forwards through a
            # persistent tensor do not accumulate stale hooks.
            weakref.finalize(output, _remove_handles, input_handles)

    def __repr__(self) -> str:
        lines = [self.__class__.__name__ + "("]
        for name, module in self._modules.items():
            child = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child}")
        lines.append(")")
        return "\n".join(lines) if len(lines) > 2 else f"{self.__class__.__name__}()"
