"""Dtype utilities and precision policies.

KAISA adapts to the training precision (fp32 vs AMP/fp16, paper section 3.3):
factors may be stored in half precision while eigen decompositions are always
computed in single precision.  This module centralizes the small amount of
dtype logic so that the rest of the code can talk about precision policies by
name instead of passing numpy dtypes around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

float16 = np.float16
float32 = np.float32
float64 = np.float64

#: The dtype of new tensors built from Python data: a constant, since threaded ranks share the process.
_DEFAULT_DTYPE = np.dtype(np.float32)

_NAME_TO_DTYPE = {
    "float16": np.float16,
    "fp16": np.float16,
    "half": np.float16,
    "float32": np.float32,
    "fp32": np.float32,
    "single": np.float32,
    "float64": np.float64,
    "fp64": np.float64,
    "double": np.float64,
}


def get_default_dtype() -> np.dtype:
    """Return the default floating point dtype used for new tensors."""
    return _DEFAULT_DTYPE


def resolve_dtype(dtype) -> np.dtype:
    """Resolve a dtype-like object (string, np.dtype, python type) to np.dtype.

    Raises ``ValueError`` for non-floating dtypes since the library only
    trains in floating point.
    """
    if dtype is None:
        return get_default_dtype()
    if isinstance(dtype, str):
        if dtype not in _NAME_TO_DTYPE:
            raise ValueError(f"unknown dtype name: {dtype!r}")
        return np.dtype(_NAME_TO_DTYPE[dtype])
    resolved = np.dtype(dtype)
    if resolved.kind != "f":
        raise ValueError(f"only floating dtypes are supported, got {resolved}")
    return resolved


@dataclass(frozen=True)
class PrecisionPolicy:
    """Precision policy for K-FAC state (paper section 3.3).

    Attributes
    ----------
    factor_dtype:
        dtype used to *store* the running-average Kronecker factors.
    inverse_dtype:
        dtype used to *store* the eigen decompositions / inverses.
    compute_dtype:
        dtype used for the eigen decomposition itself.  Eigen decompositions
        are unstable in half precision, so this is at least float32.
    """

    factor_dtype: np.dtype
    inverse_dtype: np.dtype
    compute_dtype: np.dtype

    @staticmethod
    def fp32() -> "PrecisionPolicy":
        """Full single-precision policy (FP32 training)."""
        return PrecisionPolicy(np.dtype(np.float32), np.dtype(np.float32), np.dtype(np.float32))

    @staticmethod
    def fp64() -> "PrecisionPolicy":
        """Full double-precision policy (numerical-reference runs)."""
        return PrecisionPolicy(np.dtype(np.float64), np.dtype(np.float64), np.dtype(np.float64))

    @staticmethod
    def amp(store_inverses_fp16: bool = True) -> "PrecisionPolicy":
        """Mixed-precision policy: fp16 storage, fp32 eigen decomposition."""
        inv = np.float16 if store_inverses_fp16 else np.float32
        return PrecisionPolicy(np.dtype(np.float16), np.dtype(inv), np.dtype(np.float32))

    @staticmethod
    def from_name(name: str) -> "PrecisionPolicy":
        """Build a policy from ``"fp32"`` / ``"fp16"`` / ``"amp"`` / ``"fp64"``."""
        lowered = name.lower()
        if lowered in ("fp32", "float32", "single"):
            return PrecisionPolicy.fp32()
        if lowered in ("fp16", "float16", "half", "amp"):
            return PrecisionPolicy.amp()
        if lowered in ("fp64", "float64", "double"):
            return PrecisionPolicy.fp64()
        raise ValueError(f"unknown precision policy: {name!r}")

    @property
    def name(self) -> "str | None":
        """Canonical name accepted by :meth:`from_name`, or ``None`` for custom policies."""
        for candidate in ("fp32", "fp16", "fp64"):
            if self == PrecisionPolicy.from_name(candidate):
                return candidate
        return None
