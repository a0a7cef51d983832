"""The gate-application kernel: an in-place numpy 2x2 update.

It is the only kernel. A compiled Cython kernel was measured against it end
to end and removed: 1.4-1.7x faster on small states, 3.1x slower on
16-qubit states, and unable to take a block of stimuli. Callers resolve
`kernels.apply_2x2` at call time, so tracing tools can wrap it here.

It takes one state of shape (2^n,) or a block of states of shape (B, 2^n),
one state per row, and applies the same 2x2 to every row in one call. A
block is stored column-major (Fortran order), so that the rows are
innermost: amplitude i of every row lies in one contiguous run of B, and
the amplitudes below bit q of all rows in one run of 2^q * B. Each update
views `amps.T` with the run of free qubits between two gate qubits merged
into one axis, at most 2 (controls + 1) + 1 axes, so numpy's inner loops
run over whole runs rather than over the one or two amplitudes a
(B, 2, ..., 2) view of a row-major block would leave them. A state or
block laid out otherwise raises a ValueError rather than updating a copy.
Blocks amortize the per-call cost that dominates at small n; from n = 16 on
the verifier runs one row per block, because wider blocks measured slower
per stimulus there.

The anti-diagonal and dense updates write their temporaries into a pair of
half-state scratch buffers instead of allocating per gate. Each thread has
its own pair, grown on demand and kept, so it holds one state's worth of
memory for the largest n that thread simulated. Views of the pair are cached
per half shape, because at small n building them costs as much as the update.
The pair is private to `apply_2x2`.
"""
from __future__ import annotations

import functools
import threading

import numpy as np

__all__ = ["apply_2x2", "available_backends", "backend_name"]

BACKEND = "python"


def available_backends() -> tuple[str, ...]:
    return (BACKEND,)


def backend_name() -> str:
    return BACKEND


class _Scratch(threading.local):
    def __init__(self):
        self.buffer = np.empty(0, dtype=complex)
        # half shape -> the buffer's two halves viewed in that shape
        self.views: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}


_scratch = _Scratch()


def _scratch_like(x):
    """Two non-overlapping scratch arrays of `x`'s shape."""
    scratch = _scratch
    views = scratch.views.get(x.shape)
    if views is None:
        size = x.size
        if scratch.buffer.size < 2 * size:
            scratch.buffer = np.empty(2 * size, dtype=complex)
            scratch.views.clear()
        buffer = scratch.buffer
        views = buffer[:size].reshape(x.shape), buffer[size:2 * size].reshape(x.shape)
        scratch.views[x.shape] = views
    return views


@functools.lru_cache(maxsize=4096)
def _plan(num_qubits, target, control_mask):
    """(shape, index of x0, index of x1): the shape that `amps.T` is viewed
    in for an update, from the most significant qubit down, each run of
    free qubits as one axis, each gate qubit as an axis of 2, and last,
    with extent -1, the qubits below the lowest gate qubit times the rows,
    so that it does not depend on the row count; and the indices of the
    halves whose target bit is 0 and 1 and whose control bits are all 1."""
    gate_mask = control_mask | 1 << target
    shape, index0, index1 = [], [], []
    top = num_qubits
    for q in reversed(range(num_qubits)):
        if not gate_mask >> q & 1:
            continue
        if top - q > 1:
            shape.append(1 << (top - q - 1))
            index0.append(slice(None))
            index1.append(slice(None))
        shape.append(2)
        index0.append(0 if q == target else 1)
        index1.append(1)
        top = q
    shape.append(-1)
    return tuple(shape), tuple(index0), tuple(index1)


def _halves(amps, num_qubits, target, control_mask):
    """Views of the amplitudes whose target bit is 0 and 1, restricted to
    indices where all control bits are set, across every row."""
    if not amps.flags.f_contiguous:
        raise ValueError("a state must be contiguous and a block of states column-major, "
                         "with its rows innermost")
    shape, index0, index1 = _plan(num_qubits, target, control_mask)
    view = amps.T.reshape(shape)
    return view[index0], view[index1]


def apply_2x2(amps, num_qubits, target, control_mask, m00, m01, m10, m11):
    """Apply a 2x2 matrix to `target` of one state or of every row of a
    block, restricted to indices where all control bits are set. Mutates
    `amps` in place.

    The update is the cheapest one the matrix's exact zeros allow: a
    diagonal matrix scales each half, an anti-diagonal one swaps them, and
    only a dense one mixes them."""
    x0, x1 = _halves(amps, num_qubits, target, control_mask)
    if m01 == 0 and m10 == 0:
        if m00 != 1:
            x0 *= m00
        if m11 != 1:
            x1 *= m11
    elif m00 == 0 and m11 == 0:
        s0, _ = _scratch_like(x0)
        np.multiply(x0, m10, out=s0)
        # A ufunc with `out` resolves the halves' interleaved overlap exactly;
        # `x0[...] = x1` would copy x1 to a temporary first.
        np.multiply(x1, m01, out=x0)
        x1[...] = s0
    else:
        s0, s1 = _scratch_like(x0)
        np.multiply(x0, m10, out=s0)
        x0 *= m00
        x0 += np.multiply(x1, m01, out=s1)
        x1 *= m11
        x1 += s0

