"""The gate-application kernel.

There is one: the numpy 2x2 update in `_kernels_py`. A compiled Cython
kernel was measured against it end to end and removed: 1.4-1.7x faster on
small states, 3.1x slower on 16-qubit states, and unable to take a block of
stimuli. Callers resolve `kernels.apply_2x2` at call time, so tracing
tools can wrap it here.
"""
from __future__ import annotations

from ._kernels_py import BACKEND, apply_2x2, scratch_bytes

__all__ = ["apply_2x2", "available_backends", "backend_name", "scratch_bytes"]


def available_backends() -> tuple[str, ...]:
    return (BACKEND,)


def backend_name() -> str:
    return BACKEND
