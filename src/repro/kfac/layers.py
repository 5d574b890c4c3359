"""Per-layer K-FAC handlers: factor computation and gradient preconditioning.

Each supported module type gets a handler (``Linear``, ``Conv2d`` per paper
section 3.4, plus ``LayerNorm``) that:

* observes the forward call (module forward hook) and, on a step that
  accumulates, the gradient w.r.t. that call's output during the backward pass
  (a tensor hook the forward hook registers on the output only then, so a
  step that folds nothing adds no hook to the graph),
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
  allreduce, the running factor and the checkpoint all hold the triangle;
  under :class:`~repro.kfac.KFAC`, with a core spare, the rank's worker forms
  it, not the hook, for a factor at least
  :data:`~repro.kfac.refresh.MIN_DEFERRED_BLOCK` wide, and the fold takes it
  (:meth:`KFACLayer.accumulators`),
* maintains exponential running averages of the factors (section 2.1.2),
* exposes the bias-folded gradient matrix and writes the preconditioned
  gradient back into the module's parameter ``.grad`` fields.

A handler's factor representations are fixed when it is built (its
:attr:`~KFACLayer.a_repr` / :attr:`~KFACLayer.g_repr`): dense, except the
``LayerNorm`` handler's diagonal G.  A handler's second-order state lives in
its solve strategy (``KFAC.solvers``).

:data:`LAYER_HANDLERS`, a fixed module-type -> handler table, is the one
statement of which modules K-FAC preconditions: :class:`~repro.kfac.KFAC`
builds its layers from it and the shape models
(:func:`~repro.experiments.collect_layer_shapes`) read their shapes off the
same handlers.  :func:`make_kfac_layer` walks the module's MRO over the
table, so a subclass of a listed module type gets its base's handler.  A new
module type is one handler class plus one table row; an unlisted one, such as
``BatchNorm2d`` or ``Embedding``, is left to the optimizer as it is.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Type

import numpy as np

from ..nn.conv import Conv2d
from ..nn.functional import Conv2dFunction, LayerNormFunction, LinearFunction, conv_patch_matrix, layer_normalize
from ..nn.linear import Linear
from ..nn.module import Module
from ..nn.norm import LayerNorm
from ..tensor import PrecisionPolicy, Tensor
from .factors import FactorRepr
from .kernels import KernelBackend
from .kmath import pack_triangle
from .refresh import RefreshQueue
from .strategy import LayerShapeInfo

__all__ = [
    "KFACLayer",
    "KFACLinearLayer",
    "KFACConv2dLayer",
    "KFACLayerNormLayer",
    "LAYER_HANDLERS",
    "make_kfac_layer",
]

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

    #: Whose worker forms the wide factors' statistics products (:meth:`RefreshQueue.takes`): the owning
    #: ``KFAC.refresh``, or None (every product in the hook).
    queue: Optional[RefreshQueue] = None

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
        # Kernel backend for the hot math (decay blend; the solve strategies'
        # Eq. 15-17 contraction and inverse GEMMs).  The owning preconditioner passes its per-instance
        # backend; a standalone layer builds its own, because a backend holds
        # scratch buffers that two threads must not share.
        self.kernels = kernels if kernels is not None else KernelBackend()
        self.has_bias = getattr(module, "bias", None) is not None
        # How each factor is stored, reduced and solved (dense; a handler with a structured factor replaces it).
        self.a_repr = FactorRepr.dense(self.a_dim)
        self.g_repr = FactorRepr.dense(self.g_dim)

        # Accumulated raw statistics for the current factor-update window.
        self._a_accum: Optional[np.ndarray] = None
        self._g_accum: Optional[np.ndarray] = None
        self._a_count = 0
        self._g_count = 0
        self._products: List[Tuple[str, object]] = []  # (factor, task) deferred to the queue, in submission order
        self._wide: Dict[str, bool] = {}  # per factor, decided at its first product: whether a queue may take it

        # Running-average Kronecker factors (stored in the factor dtype).
        self.factor_a: Optional[np.ndarray] = None
        self.factor_g: Optional[np.ndarray] = None

        self._forward_handle = module.register_forward_hook(self._forward_hook)

    # --------------------------------------------------------------- shapes
    @property
    def a_dim(self) -> int:
        raise NotImplementedError

    @property
    def g_dim(self) -> int:
        raise NotImplementedError

    # --------------------------------------------------------- representation
    def factor_repr(self, which: str) -> FactorRepr:
        """Representation of factor ``"a"`` or ``"g"``."""
        return self.a_repr if which == "a" else self.g_repr

    def shape_info(self) -> LayerShapeInfo:
        return LayerShapeInfo(self.name, self.a_repr, self.g_repr)

    # ---------------------------------------------------------------- hooks
    def _forward_hook(self, module: Module, inputs, output) -> None:
        """Accumulate A from the call and, if its output is differentiated, arm G capture on that output.

        The decision is the step's, taken here once per call: a step that
        folds nothing registers no tensor hook at all.
        """
        if not module.training or not self._should_accumulate():
            return
        x = inputs[0]
        self._accumulate_a(x.data if isinstance(x, Tensor) else np.asarray(x), output)
        if isinstance(output, Tensor) and output.requires_grad:
            output.register_hook(self._output_grad_hook)

    def _output_grad_hook(self, grad: np.ndarray) -> None:
        """Accumulate G statistics from the gradient w.r.t. one armed call's output.

        Fired by the autograd tape once per backward pass through that output,
        when its incoming gradient is complete (before the call's own node
        runs, which never writes the gradient it receives).  A layer removed
        since the forward call ignores it.
        """
        if self._forward_handle is None:
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
        dimension (Linear); spatial handlers (Conv2d) override.
        """
        # Undo the 1/N averaging of the loss so G estimates E[g gᵀ] per sample.
        self._add_g_stat(grad_output, grad_output.size // grad_output.shape[-1])

    @staticmethod
    def _row_outer_contribution(rows: np.ndarray, repr: FactorRepr) -> np.ndarray:
        """``Σ rowᵀ row`` projected onto ``repr``, computed in packed form (float32).

        Each block is one product of its (once-cast) columns with their own
        transpose, i.e. ``syrk``, packed to its triangle -- one block is the
        whole buffer.  No square beyond one block is ever built.
        """
        rows32 = rows.astype(np.float32, copy=False)
        packed, b = np.empty(repr.packed_numel, dtype=np.float32), repr.block_size
        for start, triangle in zip(range(0, repr.dim, b), repr.blocks(packed)):
            columns = rows32[:, start : start + b]
            pack_triangle(columns.T @ columns, out=triangle)
        return packed

    def _accumulate(self, which: str, contribution: np.ndarray) -> None:
        """Add a float32 packed contribution to factor ``which``'s accumulator: the window's first is adopted."""
        accum = getattr(self, f"_{which}_accum")
        setattr(self, f"_{which}_accum", contribution if accum is None else np.add(accum, contribution, out=accum))

    def _add_product(self, which: str, product: Callable[[], np.ndarray], count: int) -> None:
        """Accumulate ``product()``, factor ``which``'s contribution of ``count`` rows: on the :attr:`queue`'s worker if any.

        Whether a queue takes the factor (:meth:`RefreshQueue.takes`) is decided once per factor, so all of its
        products run on one side and are added in the order of the calls either way.

        It reads its buffers uncopied, as nothing writes them after the hook: the node's ``x2`` / ``cols``
        (``LinearFunction`` adds its bias into ``out``) and the output gradient (the tape sums into a fresh
        array, ``grads[pid] + pgrad``; ``grad / scale`` is fresh; no node's ``backward`` writes the gradient
        it receives, which ``tests/test_backward_precision.py`` checks on every workload).
        """
        wide = self._wide.get(which)
        if wide is None:
            wide = self._wide[which] = RefreshQueue.takes(self.factor_repr(which))
        if wide and self.queue is not None:
            self._products.append((which, self.queue.defer((self.name, which), product)))
        else:
            self._accumulate(which, product())
        setattr(self, f"_{which}_count", getattr(self, f"_{which}_count") + count)

    def _add_bias_folded_a(self, cols: np.ndarray) -> None:
        """Fold activations ``cols`` (features x samples) into a dense A with the bias coordinate.

        ``A[:k, :k]`` is ``cols @ colsᵀ``; the homogeneous coordinate's
        column is the feature sums and its corner the sample count, so the
        column of ones is never materialised.  Only the upper triangle is
        kept, so the mirror-image row is never written.
        """

        def product() -> np.ndarray:
            cols32 = cols.astype(np.float32, copy=False)
            (k, count), contribution = cols32.shape, np.empty((self.a_dim, self.a_dim), dtype=np.float32)
            np.matmul(cols32, cols32.T, out=contribution[:k, :k])
            if self.has_bias:
                contribution[:k, k] = cols32.sum(axis=1)
                contribution[k, k] = count
            return pack_triangle(contribution)

        self._add_product("a", product, cols.shape[1])

    def _add_g_stat(self, grad: np.ndarray, row_scale: float = 1.0) -> None:
        """Accumulate ``Σ (s·row)ᵀ (s·row)`` over ``grad``'s rows for ``s = row_scale``: the product, then ``s²`` on its result."""
        repr_ = self.g_repr

        def product() -> np.ndarray:
            contribution = self._row_outer_contribution(grad.reshape(-1, grad.shape[-1]), repr_)
            if row_scale != 1.0:
                contribution *= float(row_scale) ** 2
            return contribution

        self._add_product("g", product, grad.size // grad.shape[-1])

    # -------------------------------------------------------------- factors
    def accumulators(self) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """The packed ``(A, G)`` accumulators, every deferred product taken and added in submission order (or re-raised)."""
        if self._products:
            products, self._products = self._products, []
            results = self.queue.collect([task for _, task in products])
            for (which, _), contribution in zip(products, results):
                self._accumulate(which, contribution)
        return self._a_accum, self._g_accum

    @property
    def has_accumulated_data(self) -> bool:
        return all(part is not None for part in self.accumulators())

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
        products, self._products = self._products, []
        if products:
            self.queue.drop([task for _, task in products])
        self._a_accum = None
        self._g_accum = None
        self._a_count = 0
        self._g_count = 0

    def fold_factor(self, which: str, window: np.ndarray, factor_decay: float) -> None:
        """Fold one window average into the running ``"a"`` / ``"g"`` factor (Eq. 9 running estimate).

        The first window is adopted as a copy (``window`` may be a view of a
        received bucket, which a kept view would pin); later ones go through
        the kernel backend's decay blend, which may scale ``window`` in place
        -- pass a copy to keep it.  Either way the running factor becomes a
        new array and the one it replaces is left as it was, so a refresh
        task that holds the old one still solves it.
        """
        dtype = self.precision.factor_dtype
        attr = "factor_a" if which == "a" else "factor_g"
        running = getattr(self, attr)
        if running is None:
            setattr(self, attr, window.astype(dtype))
        else:
            setattr(self, attr, self.kernels.fused_decay_update(running, window, float(factor_decay), dtype))

    # --------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """The layer's factors and window statistics, as plain numpy arrays.

        Includes the in-window accumulators so a checkpoint taken between two
        factor updates resumes with the exact same statistics.
        """

        def copy(array: Optional[np.ndarray]):
            return None if array is None else array.copy()

        a_accum, g_accum = self.accumulators()
        return {
            "a_repr": self.a_repr.to_state(),
            "g_repr": self.g_repr.to_state(),
            "factor_a": copy(self.factor_a),
            "factor_g": copy(self.factor_g),
            "a_accum": copy(a_accum),
            "g_accum": copy(g_accum),
            "a_count": self._a_count,
            "g_count": self._g_count,
        }

    def state_loader(self, state: dict) -> Callable[[], None]:
        """Check ``state`` (a :meth:`state_dict`) against this layer; return the function that restores it.

        Arrays are cast to the layer's precision policy (factors) or float32
        (accumulators).

        The checkpoint's representation tags must match the layer's current
        representations — a checkpoint taken with structured factors cannot be
        silently reinterpreted by a forced-dense layer (or vice versa) — and
        every factor and accumulator must be a float array in its repr's
        storage form; anything else raises naming the layer, here, before
        anything is restored.  The returned function cannot fail, so a caller
        restoring many layers checks them all before it changes any.
        """
        factor_dtype = self.precision.factor_dtype

        for which, repr in (("a", self.a_repr), ("g", self.g_repr)):
            try:
                stored = FactorRepr.from_state(state[f"{which}_repr"])
            except (KeyError, ValueError) as error:
                raise ValueError(f"layer {self.name!r}: malformed {which.upper()} factor repr tag: {error}") from None
            if stored != repr:
                raise ValueError(
                    f"layer {self.name!r}: checkpoint stores the {which.upper()} factor as "
                    f"{stored.describe()}, but the layer uses {repr.describe()}"
                )

        def load_factor(value: Optional[np.ndarray], repr: FactorRepr, what: str, dtype) -> Optional[np.ndarray]:
            if value is None:
                return None
            value = np.asarray(value)
            if value.dtype.kind != "f":
                raise ValueError(f"layer {self.name!r}: checkpoint {what} is a {value.dtype} array, expected floats")
            try:
                repr.check_packed(value, what)
            except ValueError as error:
                raise ValueError(f"layer {self.name!r}: {error}") from None
            return value.astype(dtype)  # a copy: the accumulators are updated in place

        factor_a = load_factor(state["factor_a"], self.a_repr, "A factor", factor_dtype)
        factor_g = load_factor(state["factor_g"], self.g_repr, "G factor", factor_dtype)
        a_accum = load_factor(state["a_accum"], self.a_repr, "A accumulator", np.float32)
        g_accum = load_factor(state["g_accum"], self.g_repr, "G accumulator", np.float32)
        a_count, g_count = int(state["a_count"]), int(state["g_count"])

        def restore() -> None:
            self.factor_a, self.factor_g = factor_a, factor_g
            self.reset_accumulators()
            self._a_accum, self._g_accum = a_accum, g_accum
            self._a_count, self._g_count = a_count, g_count

        return restore

    # ------------------------------------------------------------- gradient
    def get_gradient(self) -> np.ndarray:
        """Return the bias-folded gradient matrix of shape ``(g_dim, a_dim)``.

        The weight gradient as one row per output feature (a conv kernel's
        ``(in_channels, kh, kw)`` flattened), the bias gradient as the last column.
        """
        weight_grad = self.module.weight.grad
        if weight_grad is None:
            raise RuntimeError(f"layer {self.name!r} has no weight gradient")
        grad = weight_grad.reshape(len(weight_grad), -1).astype(np.float32, copy=False)
        if self.has_bias:
            bias_grad = self.module.bias.grad.astype(np.float32, copy=False).reshape(-1, 1)
            grad = np.concatenate([grad, bias_grad], axis=1)
        return grad

    def set_gradient(self, matrix: np.ndarray, scale: float = 1.0) -> None:
        """Write ``scale * matrix`` (a preconditioned gradient matrix) back into the module parameters' gradients.

        Each gradient is written where it already lies and keeps its dtype
        (see :func:`_write_gradient`), so a matrix :meth:`get_gradient`
        returned earlier may read the new values afterwards.
        """
        if self.has_bias:
            _write_gradient(self.module.bias, matrix[:, -1], scale)
            matrix = matrix[:, :-1]
        _write_gradient(self.module.weight, matrix, scale)

    # --------------------------------------------------------------- memory
    def factor_bytes(self) -> int:
        """Bytes used by the running-average factors on this process."""
        total = 0
        for factor in (self.factor_a, self.factor_g):
            if factor is not None:
                total += factor.nbytes
        return total

    def remove(self) -> None:
        """Detach the forward hook from the wrapped module (outputs armed earlier stop capturing) and drop the window."""
        if self._forward_handle is not None:
            self._forward_handle.remove()
            self._forward_handle = None
        self.reset_accumulators()


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
        # One row per output location of each sample: the rows of g2ᵀ, where g2 is the (out_c, L*N) matrix
        # of the gradient in the conv output's own channel-major layout (a view then, a copy otherwise), so
        # G = g2 g2ᵀ is one syrk.  Undo the 1/N batch averaging of the loss.
        g2 = grad_output.transpose(1, 2, 3, 0).reshape(self.g_dim, -1)
        self._add_g_stat(g2.T, grad_output.shape[0])


class KFACLayerNormLayer(KFACLayer):
    """K-FAC handler for :class:`~repro.nn.norm.LayerNorm` modules: the affine part ``y = w * x̂ + b`` per feature.

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

    ``x̂`` is the one the forward call's node computed (``output._ctx.x_hat``,
    read in place and never retained here); a call that recorded no graph gets
    it from the kernel the node itself calls.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.g_repr = FactorRepr.diagonal(self.g_dim)

    @property
    def a_dim(self) -> int:
        return 1 + (1 if self.has_bias else 0)

    @property
    def g_dim(self) -> int:
        return self.module.normalized_shape

    def _accumulate_a(self, x: np.ndarray, output) -> None:
        """Fold the normalized activations into A: ``Σ [x̂, 1]ᵀ [x̂, 1]`` over every element."""
        node = _forward_node(output, LayerNormFunction)
        x_hat = node.x_hat if node is not None else layer_normalize(x, self.module.eps)[0]
        flat = x_hat.astype(np.float32, copy=False).ravel(order="K")  # a view in whatever order x̂ is laid out
        # The packed triangle of the 2x2 (or 1x1) matrix, written directly: [Σx̂², Σx̂, count].
        contribution = np.empty(self.a_repr.packed_numel, dtype=np.float32)
        contribution[0] = flat @ flat
        if self.has_bias:
            contribution[1] = flat.sum()
            contribution[2] = flat.size
        self._add_product("a", lambda: contribution, flat.size)

    def _accumulate_g(self, grad_output: np.ndarray) -> None:
        """Add the per-feature second moments to the diagonal positions of the packed G accumulator.

        The whole vector of the natural diagonal storage; the diagonal of the
        forced-dense oracle's triangle.  No cross terms, no dense temporary.
        """
        rows = grad_output.reshape(-1, grad_output.shape[-1]).astype(np.float32, copy=False)
        squares = np.einsum("nf,nf->f", rows, rows)
        # Undo the 1/N loss averaging, matching the dense handlers.
        squares *= float(rows.shape[0]) ** 2
        if self._g_accum is None:
            self._g_accum = np.zeros(self.g_repr.packed_shape, dtype=np.float32)
        self._g_accum[self.g_repr.diagonal_positions()] += squares
        self._g_count += rows.shape[0]

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


#: Module type -> handler class: the modules K-FAC preconditions, read-only.
LAYER_HANDLERS: Mapping[Type[Module], Type[KFACLayer]] = MappingProxyType(
    {
        Linear: KFACLinearLayer,
        Conv2d: KFACConv2dLayer,
        LayerNorm: KFACLayerNormLayer,
    }
)


def make_kfac_layer(
    name: str,
    module: Module,
    precision: PrecisionPolicy,
    should_accumulate: Callable[[], bool],
    grad_scale: Callable[[], float],
    kernels: Optional[KernelBackend] = None,
) -> Optional[KFACLayer]:
    """The :data:`LAYER_HANDLERS` handler of ``module``'s most specific listed type, or ``None`` if none is listed."""
    handler_cls = next((LAYER_HANDLERS[klass] for klass in type(module).__mro__ if klass in LAYER_HANDLERS), None)
    if handler_cls is None:
        return None
    return handler_cls(name, module, precision, should_accumulate, grad_scale, kernels=kernels)
