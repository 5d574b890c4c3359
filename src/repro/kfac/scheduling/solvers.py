"""Per-layer solve strategies: damped inverse and eigen.

KAISA's paper path eigen-decomposes both Kronecker factors -- O(F³) work that
pays off when the decomposition is reused over many steps and many
gradients.  Two strategies sit behind one interface, each the one home of
the second-order state its path keeps on a layer's gradient workers:

* :class:`InverseSolveStrategy` -- the default: the layer's decomposer
  inverts ``(A + π√γ I)`` and ``(G + √γ/π I)`` by Cholesky once per
  second-order refresh (Eq. 12 with factored Tikhonov damping), ships each
  inverse in its factor's packed form, and every gradient worker holds a
  dense one as one triangle, two inverses to a square
  (:func:`~repro.kfac.kmath.hold_triangles`), and preconditions with one
  ``?symm`` per side;
* :class:`EigenSolveStrategy` -- the eigen path of Eqs. 15-17, damped by
  the same split with π from the eigenvalues the holder received.

A refreshed factor goes from the decomposer's task to its holders by one
path, and each holder installs it once: in a group of one the decomposer
installs the task's result (``install``); otherwise that result, in its wire
form (``pack``), is the eigen round's payload and every member, the
decomposer included, installs what the round delivers (``receive``).

``KFACConfig.solve_strategy`` names one of the two
(:func:`solve_strategy_class`), the distribution plan carries the class
(``plan.solver``) and each rank builds one instance per layer.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..factors import FactorRepr
from ..kmath import (
    EigenDecomposition,
    TriangleView,
    eigenvalue_outer_product,
    hold_triangles,
    pack_triangle,
    pair_triangles,
    split_damping,
    tikhonov_pi,
    triangle_buffer_shape,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ...tensor import PrecisionPolicy
    from ..layers import KFACLayer
    from ..strategy import LayerShapeInfo

__all__ = [
    "SolveStrategy",
    "EigenSolveStrategy",
    "InverseSolveStrategy",
    "solve_strategy_class",
    "available_solve_strategies",
    "pack_eigen",
    "unpack_eigen_repr",
]


def available_solve_strategies() -> List[str]:
    """Sorted names of the solve strategies."""
    return sorted(_SOLVERS)


def solve_strategy_class(name: str) -> type:
    """The :class:`SolveStrategy` subclass named ``name``."""
    try:
        return _SOLVERS[name]
    except KeyError:
        raise ValueError(
            f"unknown solve strategy {name!r}; available: {available_solve_strategies()}"
        ) from None


def pack_eigen(eigen: EigenDecomposition, dtype=np.float32) -> np.ndarray:
    """Pack an eigen decomposition into one flat buffer in ``dtype``: the eigen path's wire form.

    The buffer is the eigenvalues followed by the stored eigenvectors:
    ``n + k·b²`` elements (an eigenbasis is not symmetric, so its blocks stay
    square; ``n + n²`` for a dense factor), and ``n`` for a diagonal one (the
    identity eigenbasis is implicit and never hits the wire).
    """
    parts = [eigen.eigenvalues.astype(dtype).reshape(-1)]
    if eigen.eigenvectors is not None:
        parts.append(eigen.eigenvectors.astype(dtype).reshape(-1))
    return np.concatenate(parts)


def unpack_eigen_repr(packed: np.ndarray, repr: FactorRepr, dtype=np.float32) -> EigenDecomposition:
    """Inverse of :func:`pack_eigen` for a factor in representation ``repr``."""
    expected = repr.packed_eigen_numel
    if packed.size != expected:
        raise ValueError(
            f"packed eigen buffer has {packed.size} elements, expected {expected} for {repr.describe()}"
        )
    eigenvalues, shape = packed[: repr.dim].astype(dtype), repr.eigenvector_shape
    eigenvectors = None if shape is None else packed[repr.dim :].reshape(shape).astype(dtype)
    return EigenDecomposition(eigenvectors=eigenvectors, eigenvalues=eigenvalues)


class SolveStrategy:
    """How one layer's gradient is preconditioned, and the one home of the state that takes.

    ``solve`` runs on the layer's gradient workers every iteration and
    returns the preconditioned gradient matrix.  Whatever a strategy holds
    lives on those gradient workers and nowhere else, so one rule places,
    prices and checkpoints it on every path: :meth:`state_bytes` of the layers
    a gradient worker holds (per rank, by ``DistributionPlan.state_bytes_per_rank``),
    :meth:`held_bytes` as measured, :meth:`state_dict` /
    :meth:`state_loader` under the checkpoint's ``"solvers"``.  A strategy
    takes factor ``which``'s refresh result (what the
    decomposer's task returned) to each gradient worker, to be installed
    once: ``install(which, result, layer)`` in a group of one, else
    ``pack(result, layer)`` (a pure function of it, shaped
    ``wire_shape(repr_)``) as the eigen round's payload and
    ``receive(which, packed, layer)`` on every member, the source included.
    """

    #: What a second-order refresh computes for the layer on its decomposer:
    #: ``"eigen"`` (the decompositions of Eqs. 15-17) or ``"inverse"`` (the
    #: damped inverses of Eq. 12); it names the eigen round's messages.
    name: str = "?"
    #: Whether the refresh reads both of a layer's factors on one rank (π from both traces): the plan pairs them.
    pairs_factors: bool = False
    #: The :meth:`KFAC.memory_usage` key (and :class:`~repro.memory.MemoryBreakdown` category) the state counts under.
    memory_key: str = "solver"

    def solve(self, layer: "KFACLayer", grad: np.ndarray, damping: float) -> np.ndarray:
        """Precondition ``grad``, the layer's current bias-folded gradient matrix (:meth:`KFACLayer.get_gradient`)."""
        raise NotImplementedError

    @classmethod
    def state_bytes(cls, layers: Sequence["LayerShapeInfo"], precision: "PrecisionPolicy") -> int:
        """Bytes a gradient worker of all of ``layers`` (each solved by this strategy) holds under ``precision``, once solved."""
        return 0

    def refresh_dampings(self, layer: "KFACLayer", damping: float) -> Optional[Tuple[float, float]]:
        """``(γ_a, γ_g)`` a refresh of ``layer`` applies on its decomposer under ``damping``, or None (undamped)."""
        return None

    def held_bytes(self) -> int:
        """Bytes of state held on this rank."""
        return 0

    def state_dict(self) -> Dict[str, Any]:
        return {}

    def state_loader(self, state: Dict[str, Any], layer: "KFACLayer") -> Callable[[], None]:
        """Check what :meth:`state_dict` wrote against ``layer``'s shapes; return the function that restores it.

        Whatever is wrong raises here, naming the layer; the returned function
        cannot fail, so a caller restoring many layers checks them all first.
        """
        return lambda: None


class EigenSolveStrategy(SolveStrategy):
    """The eigen path of Eqs. 15-17: each gradient worker holds both decompositions and Eq. 16's damped spectrum.

    Each decomposition travels packed (:func:`pack_eigen`) to every gradient
    worker, the source included, so all precondition from one layout.  The
    first solve after a refresh caches the eigenvalue outer product under that
    step's ``γ``, split by the eigenvalues' π (section 4.4,
    :func:`~repro.kfac.kmath.eigenvalue_outer_product`), so it never travels.
    """

    name = "eigen"
    memory_key = "eigen"

    def __init__(self) -> None:
        self.eigen_a: Optional[EigenDecomposition] = None
        self.eigen_g: Optional[EigenDecomposition] = None
        self.inverse_outer: Optional[np.ndarray] = None

    @classmethod
    def state_bytes(cls, layers: Sequence["LayerShapeInfo"], precision: "PrecisionPolicy") -> int:
        """Per layer: both factors' eigenvalues and stored eigenvectors, and the ``g × a`` outer product."""
        numel = sum(
            layer.a_repr.packed_eigen_numel + layer.g_repr.packed_eigen_numel + layer.grad_numel for layer in layers
        )
        return numel * np.dtype(precision.inverse_dtype).itemsize

    @classmethod
    def wire_shape(cls, repr_: FactorRepr) -> Tuple[int, ...]:
        return (repr_.packed_eigen_numel,)

    def _set(self, which: str, eigen: EigenDecomposition) -> None:
        setattr(self, f"eigen_{which}", eigen)
        self.inverse_outer = None  # formed afresh by the next solve

    def install(self, which: str, result: EigenDecomposition, layer: "KFACLayer") -> None:
        """A group of one's result as its task returned it, in the inverse dtype: a column-major basis stays so."""
        self._set(which, result.astype(layer.precision.inverse_dtype))

    @staticmethod
    def pack(result: EigenDecomposition, layer: "KFACLayer") -> np.ndarray:
        """The eigen round's payload for ``result``: :func:`pack_eigen` in the inverse dtype."""
        return pack_eigen(result, layer.precision.inverse_dtype)

    def receive(self, which: str, packed: np.ndarray, layer: "KFACLayer") -> None:
        self._set(which, unpack_eigen_repr(packed, layer.factor_repr(which), layer.precision.inverse_dtype))

    def solve(self, layer: "KFACLayer", grad: np.ndarray, damping: float) -> np.ndarray:
        if self.eigen_a is None or self.eigen_g is None:
            raise RuntimeError(f"layer {layer.name!r} has no eigen decompositions")
        if self.inverse_outer is None:
            dtype = layer.precision.inverse_dtype
            self.inverse_outer = eigenvalue_outer_product(self.eigen_a, self.eigen_g, damping, dtype)
        return layer.kernels.precondition_contract(grad, self.eigen_a, self.eigen_g, damping, self.inverse_outer)

    def held_bytes(self) -> int:
        held = [part for part in (self.eigen_a, self.eigen_g, self.inverse_outer) if part is not None]
        return sum(part.nbytes for part in held)

    def state_dict(self) -> Dict[str, Any]:
        def decomposition(eigen: Optional[EigenDecomposition]):
            if eigen is None:
                return None
            # order="K": ``syevd`` hands back a column-major basis, and BLAS rounds by layout, so a
            # row-major copy would make the resumed run's preconditioned gradients differ in the last bits.
            eigenvectors = None if eigen.eigenvectors is None else eigen.eigenvectors.copy(order="K")
            return {"eigenvalues": eigen.eigenvalues.copy(), "eigenvectors": eigenvectors}

        return {
            "eigen_a": decomposition(self.eigen_a),
            "eigen_g": decomposition(self.eigen_g),
            "inverse_outer": None if self.inverse_outer is None else self.inverse_outer.copy(),
        }

    def state_loader(self, state: Dict[str, Any], layer: "KFACLayer") -> Callable[[], None]:
        """Both decompositions and the outer product, in the inverse dtype.

        A shape the layer's reprs do not hold, or a non-float array, raises
        naming the layer before anything is restored.
        """
        dtype = layer.precision.inverse_dtype

        def floats(array, what: str) -> np.ndarray:
            array = np.asarray(array)
            if array.dtype.kind != "f":
                raise ValueError(f"layer {layer.name!r}: checkpoint {what} is a {array.dtype} array, expected floats")
            return array

        def load(value, which: str) -> Optional[EigenDecomposition]:
            if value is None:
                return None
            repr_, values, vectors = layer.factor_repr(which), value["eigenvalues"], value["eigenvectors"]
            values, vectors = floats(values, "eigenvalues"), None if vectors is None else floats(vectors, "eigenvectors")
            found = (values.shape, None if vectors is None else vectors.shape)
            if found != ((repr_.dim,), repr_.eigenvector_shape):
                raise ValueError(
                    f"layer {layer.name!r}: {which.upper()} eigenvalues and eigenvectors have shapes {found}, expected "
                    f"{((repr_.dim,), repr_.eigenvector_shape)} for {repr_.describe()} (None: the implicit identity basis)"
                )
            # astype keeps the layout: a column-major basis stays column-major.
            return EigenDecomposition(None if vectors is None else vectors.astype(dtype), values.astype(dtype))

        eigen_a, eigen_g, outer = load(state["eigen_a"], "a"), load(state["eigen_g"], "g"), state["inverse_outer"]
        if outer is not None:
            outer = floats(outer, "inverse_outer")
            if outer.shape != (layer.g_dim, layer.a_dim):
                raise ValueError(
                    f"layer {layer.name!r}: inverse_outer has shape {outer.shape}, expected {(layer.g_dim, layer.a_dim)}"
                )
            outer = outer.astype(dtype)

        def restore() -> None:
            self.eigen_a, self.eigen_g, self.inverse_outer = eigen_a, eigen_g, outer

        return restore


class InverseSolveStrategy(SolveStrategy):
    """Damped inverses (Eq. 12), computed on the layer's decomposer and installed on each gradient worker.

    The inverses carry the damping of their refresh; ``damping`` of
    :meth:`solve` is not read.  Both factors are inverted on one rank, which
    holds both traces for π.  A dense inverse is held as one triangle
    (:class:`~repro.kfac.kmath.TriangleView`) of a buffer it shares with
    another the rank holds: :meth:`hold` places them as
    :func:`~repro.kfac.kmath.pair_triangles` pairs them, and
    :meth:`state_bytes` prices them by the same rule.  A diagonal factor's is
    its ``(n,)`` reciprocals, a block-diagonal one's its ``(k, b, b)`` squares.
    """

    name = "inverse"
    pairs_factors = True

    def __init__(self) -> None:
        self.inv_a: Optional[Any] = None
        self.inv_g: Optional[Any] = None
        self.triangles: Dict[str, TriangleView] = {}  # "a" / "g" -> where a dense inverse goes (:meth:`hold`)

    @staticmethod
    def _dense(layers) -> List[Tuple[Any, str, int]]:
        """``(layer, "a" | "g", dim)`` of every dense (one-block) factor of ``layers``, in order: the triangles."""
        return [
            (layer, which, repr_.dim)
            for layer in layers
            for which, repr_ in (("a", layer.a_repr), ("g", layer.g_repr))
            if repr_.num_blocks == 1
        ]

    @classmethod
    def state_bytes(cls, layers: Sequence["LayerShapeInfo"], precision: "PrecisionPolicy") -> int:
        """The dense inverses in the buffers :meth:`hold` shares them in, the structured ones as held.

        Each group :func:`~repro.kfac.kmath.pair_triangles` makes of the dense
        inverses' dimensions takes its
        :func:`~repro.kfac.kmath.triangle_buffer_shape`.
        """
        dims = [dim for _, _, dim in cls._dense(layers)]
        numel = sum(math.prod(triangle_buffer_shape([dims[i] for i in group])) for group in pair_triangles(dims))
        numel += sum(
            math.prod(r.held_shape) for layer in layers for r in (layer.a_repr, layer.g_repr) if r.num_blocks > 1
        )
        return numel * np.dtype(precision.inverse_dtype).itemsize

    @classmethod
    def hold(cls, solved: Dict["KFACLayer", "InverseSolveStrategy"], dtype) -> None:
        """Give the dense inverses of the layers ``solved`` maps to their strategies their triangles, in ``dtype``.

        :func:`~repro.kfac.kmath.hold_triangles` pairs them, so a gradient
        worker's inverses take the bytes :meth:`state_bytes` prices.
        """
        dense = cls._dense(solved)
        for (layer, which, _), view in zip(dense, hold_triangles([dim for _, _, dim in dense], dtype)):
            solved[layer].triangles[which] = view

    @classmethod
    def wire_shape(cls, repr_: FactorRepr) -> Tuple[int, ...]:
        """The factor's packed form (:attr:`FactorRepr.packed_shape`): its blocks' triangles, ``n`` for a diagonal one."""
        return repr_.packed_shape

    def refresh_dampings(self, layer: "KFACLayer", damping: float) -> Tuple[float, float]:
        """``damping`` split by π of the layer's two factors (:func:`~repro.kfac.kmath.tikhonov_pi`), both on the decomposer."""
        return split_damping(damping, tikhonov_pi(layer.factor_a, layer.factor_g, layer.a_repr, layer.g_repr))

    def install(self, which: str, packed: np.ndarray, layer: "KFACLayer") -> None:
        """Install the ``"a"`` / ``"g"`` inverse from its packed form, in the inverse dtype: every holder's one path.

        A group of one's decomposer installs its refresh task's result, every
        member of a larger group (the source included) what the eigen round
        carries, a restore what the checkpoint kept: the same packed bits,
        once each.  A dense inverse goes into its triangle
        (:meth:`~repro.kfac.kmath.TriangleView.install`),
        a block-diagonal one is expanded into its squares
        (:meth:`FactorRepr.expand`), a diagonal one kept as its reciprocals.
        """
        repr_ = layer.factor_repr(which)
        if repr_.num_blocks == 1:
            held = self.triangles[which]
            held.install(packed)
        else:
            held = repr_.expand(packed.astype(layer.precision.inverse_dtype, copy=False))
        setattr(self, f"inv_{which}", held)

    @staticmethod
    def pack(result: np.ndarray, layer: "KFACLayer") -> np.ndarray:
        """The eigen round's payload for ``result``: the task's packed inverse is already the wire form."""
        return result

    def receive(self, which: str, packed: np.ndarray, layer: "KFACLayer") -> None:
        self.install(which, packed, layer)

    def solve(self, layer: "KFACLayer", grad: np.ndarray, damping: float) -> np.ndarray:
        if self.inv_a is None or self.inv_g is None:
            raise RuntimeError(
                f"layer {layer.name!r} has no installed inverses; a second-order refresh must install them before solve()"
            )
        return layer.kernels.precondition_inverse(grad, self.inv_a, self.inv_g)

    def held_bytes(self) -> int:
        return sum(inv.nbytes for inv in (self.inv_a, self.inv_g) if inv is not None)

    def state_dict(self) -> Dict[str, Any]:
        """Each inverse in its packed form, the one :meth:`install` takes, whichever partner shares its buffer."""
        held = {"inv_a": self.inv_a, "inv_g": self.inv_g}
        return {key: None if inverse is None else _packed(inverse) for key, inverse in held.items()}

    def state_loader(self, state: Dict[str, Any], layer: "KFACLayer") -> Callable[[], None]:
        """Install ``inv_a`` / ``inv_g`` from their packed forms, each checked against its factor's repr.

        A shape that is not the factor's packed form
        (:attr:`FactorRepr.packed_shape`), or a non-float array, raises naming
        the layer and factor before anything is installed.
        """
        for which in ("a", "g"):
            value, expected = state[f"inv_{which}"], layer.factor_repr(which).packed_shape
            if value is not None and (np.shape(value) != expected or np.asarray(value).dtype.kind != "f"):
                value = np.asarray(value)
                raise ValueError(
                    f"layer {layer.name!r}: checkpoint inverse of the {which.upper()} factor is a {value.dtype} "
                    f"array of shape {value.shape}, expected floats of shape {expected} (its packed form)"
                )

        def restore() -> None:
            for which in ("a", "g"):
                value = state[f"inv_{which}"]
                if value is None:
                    setattr(self, f"inv_{which}", None)
                else:
                    self.install(which, np.asarray(value), layer)

        return restore


def _packed(held) -> np.ndarray:
    """A held inverse in its packed form, as a fresh array: a triangle's, the blocks' triangles, the reciprocals."""
    if isinstance(held, TriangleView):
        return held.packed()
    return held.copy() if held.ndim == 1 else np.concatenate([pack_triangle(square) for square in held])


#: Strategy name -> class.
_SOLVERS: Dict[str, type] = {cls.name: cls for cls in (EigenSolveStrategy, InverseSolveStrategy)}
