"""Per-layer K-FAC handlers: factor computation and gradient preconditioning.

Each supported module type gets a handler (``Linear``, ``Conv2d`` per paper
section 3.4, plus ``Embedding`` as a registered extension) that:

* observes the forward call (module forward hook) and the gradient w.r.t. the
  layer output during the backward pass (module full backward hook, fired by
  the autograd tape in reverse-layer order),
* accumulates the Kronecker factor statistics ``A = a aᵀ`` and ``G = g gᵀ``
  across the mini-batches of a gradient-accumulation window (section 4.2),
  reading, never rebuilding: the activation is the buffer the call's fused
  autograd node already holds (``output._ctx``: the flattened input of a
  ``Linear``, the patch matrix of a ``Conv2d``, ``x_hat`` of a norm layer), it
  is cast to float32 at most once, and each dense factor is one product of
  that buffer with its own transpose -- which NumPy hands to BLAS ``syrk``,
  half a GEMM's flops and an exactly symmetric result -- with the bias
  coordinate filled in from sums instead of an appended column of ones; that
  product is the only square array of a factor's life: its upper triangle is
  packed (``?trttp``) as it enters the accumulator, and the window, the
  allreduce, the running factor and the checkpoint all hold the triangle,
* maintains exponential running averages of the factors (section 2.1.2),
* exposes the bias-folded gradient matrix and writes the preconditioned
  gradient back into the module's parameter ``.grad`` fields.

Handler classes are looked up in an open registry keyed by module type:
decorate a :class:`KFACLayer` subclass with
``@register_kfac_layer(MyModuleType)`` and :class:`~repro.kfac.KFAC` will
precondition instances of that module type with no change to the core.
Dispatch walks the module's MRO, so a handler registered for a base module
class also covers its subclasses unless a more specific handler exists.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Type

import numpy as np

from ..nn.conv import Conv2d
from ..nn.embedding import Embedding
from ..nn.functional import (
    BatchNorm2dFunction,
    Conv2dFunction,
    LayerNormFunction,
    LinearFunction,
    batch_normalize,
    conv_patch_matrix,
    layer_normalize,
)
from ..nn.linear import Linear
from ..nn.module import Module
from ..nn.norm import BatchNorm2d, LayerNorm
from ..tensor import PrecisionPolicy, Tensor
from .factors import FactorRepr
from .kernels import KernelBackend
from .kmath import EigenDecomposition, pack_triangle
from .strategy import LayerShapeInfo

__all__ = [
    "KFACLayer",
    "KFACLinearLayer",
    "KFACConv2dLayer",
    "KFACEmbeddingLayer",
    "KFACLayerNormLayer",
    "KFACBatchNorm2dLayer",
    "make_kfac_layer",
    "register_kfac_layer",
    "resolve_kfac_layer",
    "registered_kfac_layers",
]

#: Module type -> handler class.  Mutated only through :func:`register_kfac_layer`.
_LAYER_REGISTRY: Dict[Type[Module], Type["KFACLayer"]] = {}


def register_kfac_layer(*module_types: Type[Module]):
    """Class decorator registering a :class:`KFACLayer` handler for ``module_types``.

    Registering a type that already has a handler replaces it (latest wins),
    so a downstream package can override the built-in handlers.
    """
    if not module_types:
        raise ValueError("register_kfac_layer requires at least one module type")

    def decorator(handler_cls: Type["KFACLayer"]) -> Type["KFACLayer"]:
        if not (isinstance(handler_cls, type) and issubclass(handler_cls, KFACLayer)):
            raise TypeError("registered handler must be a KFACLayer subclass")
        for module_type in module_types:
            if not (isinstance(module_type, type) and issubclass(module_type, Module)):
                raise TypeError(f"{module_type!r} is not a Module subclass")
            _LAYER_REGISTRY[module_type] = handler_cls
        return handler_cls

    return decorator


def resolve_kfac_layer(module: Module) -> Optional[Type["KFACLayer"]]:
    """Most specific registered handler class for ``module``, or ``None``."""
    for klass in type(module).__mro__:
        handler = _LAYER_REGISTRY.get(klass)
        if handler is not None:
            return handler
    return None


def registered_kfac_layers() -> Dict[Type[Module], Type["KFACLayer"]]:
    """Snapshot of the current module-type -> handler registry."""
    return dict(_LAYER_REGISTRY)


def _write_gradient(param, values: np.ndarray, scale: float) -> None:
    """Make ``param.grad`` hold ``scale * values`` (any layout, the gradient's element count), in the gradient's dtype.

    Written into the buffer the gradient already occupies when that is
    C-contiguous and writable: no temporary, and what the optimizer gathers
    next is contiguous.  Otherwise a fresh contiguous array is bound.
    """
    grad = param.grad
    if not (grad.flags.c_contiguous and grad.flags.writeable):
        grad = param.grad = np.empty(grad.shape, dtype=grad.dtype)
    np.multiply(values, scale, out=grad.reshape(values.shape))


def _forward_node(output, node_type):
    """The autograd node of the observed forward call, if it recorded a ``node_type`` (else ``None``)."""
    ctx = getattr(output, "_ctx", None)
    return ctx if isinstance(ctx, node_type) else None


class KFACLayer:
    """Base class holding K-FAC state for a single preconditioned module."""

    @classmethod
    def supports(cls, module: Module) -> bool:
        """Whether this handler should actually be built for ``module``.

        Registry dispatch finds the handler class by module type; this hook
        lets a handler decline specific instances (e.g. embeddings whose
        factor would be too large), in which case the module is skipped
        exactly as an unregistered type would be.
        """
        return True

    def __init__(
        self,
        name: str,
        module: Module,
        precision: PrecisionPolicy,
        should_accumulate: Callable[[], bool],
        grad_scale: Callable[[], float],
        kernels: Optional[KernelBackend] = None,
    ) -> None:
        self.name = name
        self.module = module
        self.precision = precision
        self._should_accumulate = should_accumulate
        self._grad_scale = grad_scale
        # Kernel backend for the hot math (eigen solve, decay blend, Eq. 15-17
        # contraction).  The owning preconditioner passes its per-instance
        # backend; a standalone layer builds its own, because a backend holds
        # scratch buffers that two threads must not share.
        self.kernels = kernels if kernels is not None else KernelBackend()
        self.has_bias = getattr(module, "bias", None) is not None

        # Accumulated raw statistics for the current factor-update window.
        self._a_accum: Optional[np.ndarray] = None
        self._g_accum: Optional[np.ndarray] = None
        self._a_count = 0
        self._g_count = 0

        # Running-average Kronecker factors (stored in the factor dtype).
        self.factor_a: Optional[np.ndarray] = None
        self.factor_g: Optional[np.ndarray] = None

        # Eigen decompositions and cached eigenvalue outer product.
        self.eigen_a: Optional[EigenDecomposition] = None
        self.eigen_g: Optional[EigenDecomposition] = None
        self.inverse_outer: Optional[np.ndarray] = None

        self._forward_handle = module.register_forward_hook(self._forward_hook)
        self._backward_handle = module.register_full_backward_hook(self._backward_hook)

    # --------------------------------------------------------------- shapes
    @property
    def a_dim(self) -> int:
        raise NotImplementedError

    @property
    def g_dim(self) -> int:
        raise NotImplementedError

    # --------------------------------------------------------- representation
    def _a_repr_impl(self) -> FactorRepr:
        """Subclass hook: natural representation of the A factor (default dense)."""
        return FactorRepr.dense(self.a_dim)

    def _g_repr_impl(self) -> FactorRepr:
        """Subclass hook: natural representation of the G factor (default dense)."""
        return FactorRepr.dense(self.g_dim)

    @property
    def a_repr(self) -> FactorRepr:
        return self._a_repr_impl()

    @property
    def g_repr(self) -> FactorRepr:
        return self._g_repr_impl()

    def factor_repr(self, which: str) -> FactorRepr:
        """Representation of factor ``"a"`` or ``"g"``."""
        return self.a_repr if which == "a" else self.g_repr

    def shape_info(self) -> LayerShapeInfo:
        return LayerShapeInfo(
            name=self.name,
            a_dim=self.a_dim,
            g_dim=self.g_dim,
            grad_numel=self.g_dim * self.a_dim,
            a_repr=self.a_repr,
            g_repr=self.g_repr,
        )

    # ---------------------------------------------------------------- hooks
    def _forward_hook(self, module: Module, inputs, output) -> None:
        if not module.training or not self._should_accumulate():
            return
        x = inputs[0]
        self._accumulate_a(x.data if isinstance(x, Tensor) else np.asarray(x), output)

    def _backward_hook(self, module: Module, grad_input, grad_output) -> None:
        """Full backward hook: accumulate G statistics from the output gradient.

        Fired by the autograd tape once per backward pass through the module,
        in reverse-layer order — the same event the gradient pipeline keys
        its factor buckets on (pipeline triggers are registered after this
        hook, so the statistics are final when a bucket is posted).
        """
        if not module.training or not self._should_accumulate():
            return
        grad = grad_output[0]
        if grad is None:
            return
        scale = self._grad_scale()
        if scale != 1.0:
            grad = grad / scale
        self._accumulate_g(grad)

    def _accumulate_a(self, x: np.ndarray, output) -> None:
        """Fold one forward call into the A statistics.

        ``x`` is the module input; ``output`` is what the call returned, for
        handlers that reuse what the call's autograd node already computed.
        """
        raise NotImplementedError

    def _accumulate_g(self, grad_output: np.ndarray) -> None:
        """Default G statistics: flatten leading dims to rows of size ``g_dim``.

        Shared by handlers whose output last dimension is the G factor
        dimension (Linear, Embedding); spatial handlers (Conv2d) override.
        """
        rows = grad_output.reshape(-1, grad_output.shape[-1])
        # Undo the 1/N averaging of the loss so G estimates E[g gᵀ] per sample.
        self._add_g_stat(rows, rows.shape[0])

    @staticmethod
    def _row_outer_contribution(rows: np.ndarray, repr: FactorRepr) -> np.ndarray:
        """``Σ rowᵀ row`` projected onto ``repr``, computed in packed form (float32).

        Dense is one product of the (once-cast) buffer with its own transpose,
        i.e. ``syrk``, packed to its triangle; diagonal keeps only
        per-coordinate squares; block-diagonal keeps per-block outer products
        — no dense temporary is ever built for a structured factor.
        """
        rows32 = rows.astype(np.float32, copy=False)
        if repr.kind == "dense":
            return pack_triangle(rows32.T @ rows32)
        if repr.kind == "diagonal":
            return np.sum(rows32 * rows32, axis=0)
        blocks = rows32.reshape(rows32.shape[0], repr.num_blocks, repr.block_size)
        return np.einsum("rnb,rnc->nbc", blocks, blocks)

    def _add_a_contribution(self, contribution: np.ndarray, count: int) -> None:
        """Accumulate an already formed float32 ``Σ rowᵀ row`` over ``count`` rows, in packed form (adopts the array)."""
        if self._a_accum is None:
            self._a_accum = contribution
        else:
            self._a_accum += contribution
        self._a_count += count

    def _add_bias_folded_a(self, cols: np.ndarray) -> None:
        """Fold activations ``cols`` (features x samples) into a dense A with the bias coordinate.

        ``A[:k, :k]`` is ``cols @ colsᵀ``; the homogeneous coordinate's
        column is the feature sums and its corner the sample count, so the
        column of ones is never materialised.  Only the upper triangle is
        kept, so the mirror-image row is never written.
        """
        cols = cols.astype(np.float32, copy=False)
        k, count = cols.shape
        contribution = np.empty((self.a_dim, self.a_dim), dtype=np.float32)
        np.matmul(cols, cols.T, out=contribution[:k, :k])
        if self.has_bias:
            contribution[:k, k] = cols.sum(axis=1)
            contribution[k, k] = count
        self._add_a_contribution(pack_triangle(contribution), count)

    def _add_g_stat(self, rows: np.ndarray, row_scale: float = 1.0) -> None:
        """Accumulate ``Σ (s·row)ᵀ (s·row)`` for ``s = row_scale``: the product first, then ``s²`` on its small result."""
        contribution = self._row_outer_contribution(rows, self.g_repr)
        if row_scale != 1.0:
            contribution *= float(row_scale) ** 2
        if self._g_accum is None:
            self._g_accum = contribution
        else:
            self._g_accum += contribution
        self._g_count += rows.shape[0]

    def _add_diagonal_g_stat(self, squares: np.ndarray, count: int) -> None:
        """Accumulate per-feature G second moments (normalization handlers).

        Structured storage adds straight into the packed vector; the forced
        ``dense`` oracle adds to the diagonal of a dense factor's triangle.
        """
        self._g_accum = self._add_to_diagonal(self._g_accum, self.g_repr, squares)
        self._g_count += count

    @staticmethod
    def _add_to_diagonal(accum: Optional[np.ndarray], repr: FactorRepr, values: np.ndarray) -> np.ndarray:
        """``accum`` (zeros if ``None``) with ``values`` added on the diagonal: no cross terms, no dense temporary."""
        if accum is None:
            accum = np.zeros(repr.packed_shape, dtype=np.float32)
        if repr.is_dense:
            accum[repr.diagonal_positions()] += values
        else:
            accum += values
        return accum

    # -------------------------------------------------------------- factors
    @property
    def has_accumulated_data(self) -> bool:
        return self._a_accum is not None and self._g_accum is not None

    def compute_batch_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Average the accumulated statistics into per-window factors and reset.

        The accumulators are averaged in place and handed over: the caller
        owns the returned arrays.
        """
        if not self.has_accumulated_data:
            raise RuntimeError(f"layer {self.name!r} has no accumulated forward/backward data")
        a_new, g_new = self._a_accum, self._g_accum
        a_new /= max(self._a_count, 1)
        g_new /= max(self._g_count, 1)
        self.reset_accumulators()
        return a_new, g_new

    def reset_accumulators(self) -> None:
        self._a_accum = None
        self._g_accum = None
        self._a_count = 0
        self._g_count = 0

    def fold_factor(self, which: str, window: np.ndarray, factor_decay: float) -> None:
        """Fold one window average into the running ``"a"`` / ``"g"`` factor (Eq. 9 running estimate).

        The first window is adopted as a copy (``window`` may be a view of a
        received bucket, which a kept view would pin); later ones go through
        the kernel backend's decay blend, which may scale ``window`` in place
        -- pass a copy to keep it.
        """
        dtype = self.precision.factor_dtype
        attr = "factor_a" if which == "a" else "factor_g"
        running = getattr(self, attr)
        if running is None:
            setattr(self, attr, window.astype(dtype))
        else:
            setattr(self, attr, self.kernels.fused_decay_update(running, window, float(factor_decay), dtype))

    # ---------------------------------------------------------------- eigen
    def clear_eigen(self) -> None:
        """Drop locally cached eigen decompositions (gradient receivers in MEM/HYBRID-OPT)."""
        self.eigen_a = None
        self.eigen_g = None
        self.inverse_outer = None

    @property
    def has_eigen(self) -> bool:
        return self.eigen_a is not None and self.eigen_g is not None

    # --------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """All mutable per-layer K-FAC state, as plain numpy arrays.

        Includes the in-window accumulators so a checkpoint taken between two
        factor updates resumes with the exact same statistics.
        """

        def pack_eigen(eigen: Optional[EigenDecomposition]):
            if eigen is None:
                return None
            # order="K": ``syevd`` hands back a column-major basis, and BLAS rounds by layout, so a
            # row-major copy would make the resumed run's preconditioned gradients differ in the last bits.
            eigenvectors = None if eigen.eigenvectors is None else eigen.eigenvectors.copy(order="K")
            return {"eigenvalues": eigen.eigenvalues.copy(), "eigenvectors": eigenvectors}

        def copy(array: Optional[np.ndarray]):
            return None if array is None else array.copy()

        return {
            "a_repr": self.a_repr.to_state(),
            "g_repr": self.g_repr.to_state(),
            "factor_a": copy(self.factor_a),
            "factor_g": copy(self.factor_g),
            "eigen_a": pack_eigen(self.eigen_a),
            "eigen_g": pack_eigen(self.eigen_g),
            "inverse_outer": copy(self.inverse_outer),
            "a_accum": copy(self._a_accum),
            "g_accum": copy(self._g_accum),
            "a_count": self._a_count,
            "g_count": self._g_count,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state from :meth:`state_dict`, honoring the precision policy.

        The checkpoint's representation tags must match the layer's current
        representations — a checkpoint taken with structured factors cannot be
        silently reinterpreted by a forced-dense layer (or vice versa).  Under
        a ``dense`` tag a factor or accumulator may be the packed triangle or
        the square matrix earlier versions stored, which is packed here.
        """
        factor_dtype = self.precision.factor_dtype
        inverse_dtype = self.precision.inverse_dtype

        for which, repr in (("a", self.a_repr), ("g", self.g_repr)):
            tag = state.get(f"{which}_repr")
            if tag is not None and FactorRepr.from_state(tag) != repr:
                raise ValueError(
                    f"layer {self.name!r}: checkpoint stores the {which.upper()} factor as "
                    f"{FactorRepr.from_state(tag).describe()}, but the layer uses {repr.describe()}"
                )

        def load_factor(value: Optional[np.ndarray], repr: FactorRepr, what: str, dtype) -> Optional[np.ndarray]:
            if value is None:
                return None
            try:
                value = repr.as_packed(value, what)
            except ValueError as error:
                raise ValueError(f"layer {self.name!r}: {error}") from None
            return value.astype(dtype)  # a copy: factors and accumulators are updated in place

        def load_eigen(value, repr: FactorRepr, what: str) -> Optional[EigenDecomposition]:
            if value is None:
                return None
            eigenvalues = np.asarray(value["eigenvalues"])
            if eigenvalues.shape != (repr.dim,):
                raise ValueError(
                    f"layer {self.name!r}: {what} eigenvalues have shape {eigenvalues.shape}, "
                    f"expected {(repr.dim,)}"
                )
            raw_vectors = value["eigenvectors"]
            if repr.kind == "diagonal":
                if raw_vectors is not None:
                    raise ValueError(
                        f"layer {self.name!r}: {what} eigenvectors must be None for a diagonal factor"
                    )
                eigenvectors = None
            else:
                eigenvectors = np.asarray(raw_vectors)
                expected = (repr.dim, repr.dim) if repr.is_dense else repr.packed_shape
                if eigenvectors.shape != expected:
                    raise ValueError(
                        f"layer {self.name!r}: {what} eigenvectors have shape {eigenvectors.shape}, "
                        f"expected {expected}"
                    )
                eigenvectors = eigenvectors.astype(inverse_dtype)
            return EigenDecomposition(
                eigenvectors=eigenvectors, eigenvalues=eigenvalues.astype(inverse_dtype)
            )

        self.factor_a = load_factor(state["factor_a"], self.a_repr, "A factor", factor_dtype)
        self.factor_g = load_factor(state["factor_g"], self.g_repr, "G factor", factor_dtype)
        self.eigen_a = load_eigen(state["eigen_a"], self.a_repr, "A")
        self.eigen_g = load_eigen(state["eigen_g"], self.g_repr, "G")
        outer = state["inverse_outer"]
        if outer is None:
            self.inverse_outer = None
        else:
            outer = np.asarray(outer)
            if outer.shape != (self.g_dim, self.a_dim):
                raise ValueError(
                    f"layer {self.name!r}: inverse_outer has shape {outer.shape}, "
                    f"expected {(self.g_dim, self.a_dim)}"
                )
            self.inverse_outer = outer.astype(inverse_dtype)
        self._a_accum = load_factor(state["a_accum"], self.a_repr, "A accumulator", np.float32)
        self._g_accum = load_factor(state["g_accum"], self.g_repr, "G accumulator", np.float32)
        self._a_count = int(state["a_count"])
        self._g_count = int(state["g_count"])

    # ------------------------------------------------------------- gradient
    def get_gradient(self) -> np.ndarray:
        """Return the bias-folded gradient matrix of shape ``(g_dim, a_dim)``."""
        raise NotImplementedError

    def set_gradient(self, matrix: np.ndarray, scale: float = 1.0) -> None:
        """Write ``scale * matrix`` (a preconditioned gradient matrix) back into the module parameters' gradients.

        Each gradient is written where it already lies and keeps its dtype
        (see :func:`_write_gradient`), so a matrix :meth:`get_gradient`
        returned earlier may read the new values afterwards.
        """
        raise NotImplementedError

    def precondition(self, damping: float, pi: Optional[float] = None, grad: Optional[np.ndarray] = None) -> np.ndarray:
        """Precondition ``grad`` (default: the current gradient) with the cached eigen decompositions.

        ``pi`` is only consulted when no outer product is cached (a cached
        ``inverse_outer`` already embeds the π in force at eigen time).
        """
        if not self.has_eigen:
            raise RuntimeError(f"layer {self.name!r} has no eigen decompositions")
        if grad is None:
            grad = self.get_gradient()
        return self.kernels.precondition_contract(
            grad, self.eigen_a, self.eigen_g, damping, self.inverse_outer, pi=pi
        )

    # --------------------------------------------------------------- memory
    def factor_bytes(self) -> int:
        """Bytes used by the running-average factors on this process."""
        total = 0
        for factor in (self.factor_a, self.factor_g):
            if factor is not None:
                total += factor.nbytes
        return total

    def eigen_bytes(self) -> int:
        """Bytes used by locally cached eigen decompositions and the outer product."""
        total = 0
        for eig in (self.eigen_a, self.eigen_g):
            if eig is not None:
                total += eig.nbytes
        if self.inverse_outer is not None:
            total += self.inverse_outer.nbytes
        return total

    def remove(self) -> None:
        """Detach the forward and backward hooks from the wrapped module."""
        self._forward_handle.remove()
        self._backward_handle.remove()


@register_kfac_layer(Linear)
class KFACLinearLayer(KFACLayer):
    """K-FAC handler for :class:`~repro.nn.linear.Linear` modules.

    Inputs of shape ``(..., in_features)`` are flattened to rows; the bias is
    a homogeneous coordinate of 1 on every row (making ``A`` of size
    ``in_features+1``).  The rows are the flattened activation the forward
    call's node already holds (``output._ctx.x2``, read in place and never
    retained here); a call that recorded no graph flattens its input itself.
    """

    @property
    def a_dim(self) -> int:
        return self.module.in_features + (1 if self.has_bias else 0)

    @property
    def g_dim(self) -> int:
        return self.module.out_features

    def _accumulate_a(self, x: np.ndarray, output) -> None:
        node = _forward_node(output, LinearFunction)
        rows = node.x2 if node is not None else x.reshape(-1, x.shape[-1])
        self._add_bias_folded_a(rows.T)

    def get_gradient(self) -> np.ndarray:
        weight_grad = self.module.weight.grad
        if weight_grad is None:
            raise RuntimeError(f"layer {self.name!r} has no weight gradient")
        grad = weight_grad.astype(np.float32, copy=False)
        if self.has_bias:
            bias_grad = self.module.bias.grad.astype(np.float32, copy=False).reshape(-1, 1)
            grad = np.concatenate([grad, bias_grad], axis=1)
        return grad

    def set_gradient(self, matrix: np.ndarray, scale: float = 1.0) -> None:
        if self.has_bias:
            _write_gradient(self.module.bias, matrix[:, -1], scale)
            matrix = matrix[:, :-1]
        _write_gradient(self.module.weight, matrix, scale)


@register_kfac_layer(Conv2d)
class KFACConv2dLayer(KFACLayer):
    """K-FAC handler for :class:`~repro.nn.conv.Conv2d` modules.

    Following Grosse & Martens (2016), the activation factor is built from the
    patches of the layer input (each spatial location of each example is one
    sample) and the gradient factor from the per-location gradients of the
    layer output.  The patch matrix is the one the forward call already built
    (``output._ctx.cols``, read in place and never retained here); a call that
    recorded no graph gets it from the same kernel.
    """

    @property
    def a_dim(self) -> int:
        kh, kw = self.module.kernel_size
        return self.module.in_channels * kh * kw + (1 if self.has_bias else 0)

    @property
    def g_dim(self) -> int:
        return self.module.out_channels

    def _accumulate_a(self, x: np.ndarray, output) -> None:
        node = _forward_node(output, Conv2dFunction)
        if node is not None:
            cols = node.cols
        else:
            cols = conv_patch_matrix(x, self.module.kernel_size, self.module.stride, self.module.padding)
        # (C*kh*kw, L*N): one column per output location of each sample.
        self._add_bias_folded_a(cols)

    def _accumulate_g(self, grad_output: np.ndarray) -> None:
        n, out_c, oh, ow = grad_output.shape
        rows = grad_output.transpose(0, 2, 3, 1).reshape(-1, out_c)
        # Undo the 1/N batch averaging of the loss.
        self._add_g_stat(rows, n)

    def get_gradient(self) -> np.ndarray:
        weight_grad = self.module.weight.grad
        if weight_grad is None:
            raise RuntimeError(f"layer {self.name!r} has no weight gradient")
        grad = weight_grad.reshape(self.module.out_channels, -1).astype(np.float32, copy=False)
        if self.has_bias:
            bias_grad = self.module.bias.grad.astype(np.float32, copy=False).reshape(-1, 1)
            grad = np.concatenate([grad, bias_grad], axis=1)
        return grad

    def set_gradient(self, matrix: np.ndarray, scale: float = 1.0) -> None:
        if self.has_bias:
            _write_gradient(self.module.bias, matrix[:, -1], scale)
            matrix = matrix[:, :-1]
        _write_gradient(self.module.weight, matrix, scale)


@register_kfac_layer(Embedding)
class KFACEmbeddingLayer(KFACLayer):
    """K-FAC handler for :class:`~repro.nn.embedding.Embedding` modules.

    An embedding lookup is a linear layer applied to one-hot inputs, so its
    activation factor is ``A = E[one_hot one_hotᵀ]`` — a diagonal matrix of
    token frequencies of size ``num_embeddings`` — and its gradient factor is
    built from the per-position gradients of the looked-up vectors.  The A
    factor is stored in its natural diagonal representation (a length-V
    vector of counts via bincount), so storage, allreduce bytes and the
    "eigen" stage are all O(V) and production vocabularies (paper section
    5.2 excluded them at V² cost) precondition end-to-end without a guard.

    Set :attr:`g_block_size` (a class attribute, or on an instance before the
    first accumulation) to approximate the ``embedding_dim x embedding_dim``
    G factor as block-diagonal — the DeepFormer ``diag_blocks`` trick for
    very wide embeddings.  ``None`` (default) keeps G dense.
    """

    #: Optional block size for a block-diagonal G approximation; must divide
    #: ``embedding_dim``.  ``None`` keeps the exact dense G.
    g_block_size: Optional[int] = None

    @property
    def a_dim(self) -> int:
        return self.module.num_embeddings

    @property
    def g_dim(self) -> int:
        return self.module.embedding_dim

    def _a_repr_impl(self) -> FactorRepr:
        return FactorRepr.diagonal(self.a_dim)

    def _g_repr_impl(self) -> FactorRepr:
        if self.g_block_size is None:
            return FactorRepr.dense(self.g_dim)
        return FactorRepr.block_diagonal(self.g_dim, int(self.g_block_size))

    def _accumulate_a(self, x: np.ndarray, output) -> None:
        ids = np.asarray(x).reshape(-1).astype(np.int64)
        counts = np.bincount(ids, minlength=self.module.num_embeddings).astype(np.float32)
        self._a_accum = self._add_to_diagonal(self._a_accum, self.a_repr, counts)
        self._a_count += ids.size

    def get_gradient(self) -> np.ndarray:
        weight_grad = self.module.weight.grad
        if weight_grad is None:
            raise RuntimeError(f"layer {self.name!r} has no weight gradient")
        # The handler convention is (g_dim, a_dim); the weight is (vocab, dim).
        return weight_grad.astype(np.float32, copy=False).T

    def set_gradient(self, matrix: np.ndarray, scale: float = 1.0) -> None:
        _write_gradient(self.module.weight, matrix.T, scale)


class _KFACScaleShiftLayer(KFACLayer):
    """Shared by the normalization handlers: the affine part ``y = w * x̂ + b`` per feature.

    An elementwise scale-and-shift has a Fisher block that is diagonal per
    feature.  It is folded into the Kronecker template the same way
    convolution folds its spatial positions: every element of ``x̂``
    contributes one activation row ``[x̂, 1]`` — giving a dense 2x2 ``A``
    factor (the weight/bias homogeneous coordinate; three stored elements),
    filled in from ``Σx̂²``, ``Σx̂`` and the element count — while the ``G`` statistics are accumulated
    *only on the diagonal* (per-feature second moments of the output
    gradient), so no feature-feature cross terms are estimated and the eigen
    basis of ``G`` stays axis-aligned.  G is therefore *stored* as its
    diagonal (a length-``g_dim`` vector): O(F) allreduce bytes and an O(F)
    "eigen" stage instead of F²/F³.  The gradient matrix is the ``(g_dim, 2)``
    stack of ``[dL/dw, dL/db]`` columns, preconditioned by the standard eigen
    machinery (the dense oracle of the tests restores the historical
    dense-diagonal storage bitwise).
    """

    @property
    def a_dim(self) -> int:
        return 1 + (1 if self.has_bias else 0)

    def _g_repr_impl(self) -> FactorRepr:
        return FactorRepr.diagonal(self.g_dim)

    def _add_x_hat_stat(self, x_hat: np.ndarray) -> None:
        """Fold the normalized activations into A: ``Σ [x̂, 1]ᵀ [x̂, 1]`` over every element."""
        flat = x_hat.astype(np.float32, copy=False).reshape(-1)
        # The packed triangle of the 2x2 (or 1x1) matrix, written directly: [Σx̂², Σx̂, count].
        contribution = np.empty(self.a_repr.packed_numel, dtype=np.float32)
        contribution[0] = flat @ flat
        if self.has_bias:
            contribution[1] = flat.sum()
            contribution[2] = flat.size
        self._add_a_contribution(contribution, flat.size)

    def get_gradient(self) -> np.ndarray:
        weight_grad = self.module.weight.grad
        if weight_grad is None:
            raise RuntimeError(f"layer {self.name!r} has no weight gradient")
        columns = [weight_grad.astype(np.float32, copy=False).reshape(-1, 1)]
        if self.has_bias:
            columns.append(self.module.bias.grad.astype(np.float32, copy=False).reshape(-1, 1))
        return np.concatenate(columns, axis=1)

    def set_gradient(self, matrix: np.ndarray, scale: float = 1.0) -> None:
        _write_gradient(self.module.weight, matrix[:, 0], scale)
        if self.has_bias:
            _write_gradient(self.module.bias, matrix[:, 1], scale)


@register_kfac_layer(LayerNorm)
class KFACLayerNormLayer(_KFACScaleShiftLayer):
    """K-FAC handler for :class:`~repro.nn.norm.LayerNorm` modules (2x2 A, diagonal G).

    ``x̂`` is the one the forward call's node computed (``output._ctx.x_hat``,
    read in place and never retained here); a call that recorded no graph gets
    it from the kernel the node itself calls.
    """

    @property
    def g_dim(self) -> int:
        return self.module.normalized_shape

    def _accumulate_a(self, x: np.ndarray, output) -> None:
        node = _forward_node(output, LayerNormFunction)
        self._add_x_hat_stat(node.x_hat if node is not None else layer_normalize(x, self.module.eps)[0])

    def _accumulate_g(self, grad_output: np.ndarray) -> None:
        rows = grad_output.reshape(-1, grad_output.shape[-1]).astype(np.float32, copy=False)
        squares = np.einsum("nf,nf->f", rows, rows)
        # Undo the 1/N loss averaging, matching the dense handlers.
        squares *= float(rows.shape[0]) ** 2
        self._add_diagonal_g_stat(squares, rows.shape[0])


@register_kfac_layer(BatchNorm2d)
class KFACBatchNorm2dLayer(_KFACScaleShiftLayer):
    """K-FAC handler for :class:`~repro.nn.norm.BatchNorm2d` modules (2x2 A, diagonal G).

    Every ``(sample, channel, spatial)`` element is one activation row and the
    G statistics are per-channel second moments.  The handler is
    *running-stat aware*: the Kronecker statistics use the batch-normalized
    activations the training-mode forward produced (``output._ctx.x_hat``; a
    call that recorded no graph gets them from the same kernel), and the
    module's ``running_mean``/``running_var`` buffers are never read or
    written here, so preconditioning leaves the inference statistics
    untouched.
    """

    @classmethod
    def supports(cls, module: Module) -> bool:
        # Without the affine transform there are no parameters to precondition.
        return bool(getattr(module, "affine", False))

    @property
    def g_dim(self) -> int:
        return self.module.num_features

    def _accumulate_a(self, x: np.ndarray, output) -> None:
        node = _forward_node(output, BatchNorm2dFunction)
        self._add_x_hat_stat(node.x_hat if node is not None else batch_normalize(x, self.module.eps)[0])

    def _accumulate_g(self, grad_output: np.ndarray) -> None:
        grad = grad_output.astype(np.float32, copy=False)
        squares = np.einsum("nchw,nchw->c", grad, grad)
        # Undo the 1/N batch averaging of the loss (Conv2d convention).
        squares *= float(grad.shape[0]) ** 2
        self._add_diagonal_g_stat(squares, grad.size // self.g_dim)


def make_kfac_layer(
    name: str,
    module: Module,
    precision: PrecisionPolicy,
    should_accumulate: Callable[[], bool],
    grad_scale: Callable[[], float],
    kernels: Optional[KernelBackend] = None,
) -> Optional[KFACLayer]:
    """Create the registered handler for ``module`` or ``None`` if unsupported."""
    handler_cls = resolve_kfac_layer(module)
    if handler_cls is None or not handler_cls.supports(module):
        return None
    return handler_cls(name, module, precision, should_accumulate, grad_scale, kernels=kernels)
