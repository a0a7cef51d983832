"""Pure-numpy gate-application kernel, used when the compiled extension is absent."""
from __future__ import annotations

import numpy as np


def _halves(amps, num_qubits, target, control_mask):
    """Views of the amplitudes whose target bit is 0 and 1, restricted to
    indices where all control bits are set."""
    if not control_mask:
        view = amps.reshape(-1, 2, 1 << target)
        return view[:, 0], view[:, 1]
    n = num_qubits
    view = amps.reshape((2,) * n)
    # axis of qubit q in the reshaped tensor is n - 1 - q
    index = [slice(None)] * n
    removed_before_target = 0
    q = 0
    mask = control_mask
    while mask:
        if mask & 1:
            index[n - 1 - q] = 1
            if q > target:
                removed_before_target += 1
        mask >>= 1
        q += 1
    t_axis = (n - 1 - target) - removed_before_target
    sub = np.moveaxis(view[tuple(index)], t_axis, 0)
    # `...` keeps a view even when every other qubit is a control
    return sub[0, ...], sub[1, ...]


def apply_2x2(amps, num_qubits, target, control_mask, m00, m01, m10, m11):
    """Apply a 2x2 matrix to `target`, restricted to indices where all
    control bits are set. Mutates `amps` in place.

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
        scratch = x0 * m10
        # A ufunc with `out` resolves the halves' interleaved overlap exactly;
        # `x0[...] = x1` would copy x1 to a temporary first.
        np.multiply(x1, m01, out=x0)
        x1[...] = scratch
    else:
        scratch = x0 * m10
        x0 *= m00
        x0 += x1 * m01
        x1 *= m11
        x1 += scratch


BACKEND = "python"
