"""Tensor and autograd substrate for the KAISA reproduction."""

from .dtypes import (
    PrecisionPolicy,
    float16,
    float32,
    float64,
    get_default_dtype,
    resolve_dtype,
)
from .tensor import Function, RemovableHandle, Tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "Function",
    "RemovableHandle",
    "no_grad",
    "is_grad_enabled",
    "PrecisionPolicy",
    "float16",
    "float32",
    "float64",
    "get_default_dtype",
    "resolve_dtype",
]
