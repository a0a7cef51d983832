"""Stabilizer tableaux: global stimuli prepared without applying their
gates to the state vector one by one.

A global stimulus is an H, S, CNOT circuit applied to |0...0>, so it
prepares a stabilizer state, the joint +1 eigenstate of n commuting Paulis,
its generators. `_evolve` holds them in a tableau packed by column, as Stim
does (Gidney, Stim: a fast stabilizer circuit simulator, Quantum 5:497,
2021): X[q] and Z[q] are Python ints whose bit g is the X and Z bit of
generator g on qubit q, with Y as both, and bit g of one int r is its sign.
|0...0> is the tableau whose generator g is Z_g. The updates are those of
Aaronson and Gottesman (Improved simulation of stabilizer circuits, Phys.
Rev. A 70:052328, 2004), a few big-int operations each, with no branch on
the state:

- a single-qubit Clifford maps X, Y and Z to signed Paulis, so on qubit q
  it is a fixed symplectic 2x2 on (X[q], Z[q]) plus a sign flip on the
  generators whose Pauli on q it negates. `conjugation` reads both off the
  Clifford's matrix, so the 24 words of a global stimulus come from
  `base_matrix` like every other gate;
- a CX(c, t) is r ^= X[c] & Z[t] & ~(X[t] ^ Z[c]), X[t] ^= X[c] and
  Z[c] ^= Z[t].

A tableau fixes its state up to a global phase, which `verify`'s |<.|.>|^2
does not see. To write the amplitudes, `_reduce` transposes it to rows,
generator g as i^ph X(x) Z(z), and brings the X parts to reduced echelon
form: pivot rows (x_i, z_i, ph_i), each alone in having its pivot bit, and
generators with no X part, i^ph Z(z). The state is supported on s0 + the
span of the x_i, where s0, zero at the pivots, solves z.s0 = ph / 2 for
every such Z(z), found by a second reduced elimination (Dehaene and De
Moor, Phys. Rev. A 68:042318, 2003). Pivot row i maps the amplitude at t
to the one at t ^ x_i with the factor i^ph_i (-1)^(z_i.t), so with pivots
taken in bit order, up to a global phase, the amplitude at
s0 ^ sum_i c_i x_i is 2^(-rank/2) i^theta with

    theta = sum_i c_i (ph_i + 2 z_i.s0) + 2 sum_{j<i} c_i c_j z_i.x_j.

`write_states` is the whole preparation of a block of rows: every row's
tableau is taken through its sub-rounds, one Clifford on every qubit and
then CNOTs, and reduced; then the 2^n amplitudes of every row are written
in one pass, so that its numpy calls are paid once per block, not once
per row.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .circuit import GateKind, base_matrix

_R = math.sqrt(0.5)
# i^k for k = 0..3
_POWERS_OF_I = (1, 1j, -1, -1j)
_TAKE_CHUNK = 1 << 13
# X, Z and Y as their (x, z) bits
_PAULIS = {(1, 0): base_matrix(GateKind.X), (0, 1): base_matrix(GateKind.Z),
           (1, 1): base_matrix(GateKind.Y)}


def conjugation(u: np.ndarray) -> tuple[int, ...]:
    """What the single-qubit Clifford `u` does to qubit q's columns
    x = X[q] and z = Z[q] of a tableau, as the masks
    (xx, xz, zx, zz, fx, fz, fy), each 0 or -1, that `_evolve` applies:

        r ^= (x & fx) ^ (z & fz) ^ (x & z & fy)
        X[q], Z[q] = (x & xx) ^ (z & zx), (x & xz) ^ (z & zz)

    u X u^-1 is the Pauli with bits (-xx, -xz), negated if fx is set, and
    u Z u^-1 the one with bits (-zx, -zz), negated if fz is set; fy is set
    if u Y u^-1 has the other sign than the product of those two."""
    images = {}
    for bits, pauli in _PAULIS.items():
        image = u @ pauli @ u.conj().T
        # image is +-1 times one Pauli Q, so tr(Q image) is +-2 and the
        # trace with either other Pauli is 0
        image_bits, trace = max(((other_bits, np.vdot(other, image).real)
                                 for other_bits, other in _PAULIS.items()),
                                key=lambda item: abs(item[1]))
        images[bits] = image_bits, int(trace < 0)
    (xx, xz), fx = images[1, 0]
    (zx, zz), fz = images[0, 1]
    return tuple(-bit for bit in (xx, xz, zx, zz, fx, fz, fx ^ fz ^ images[1, 1][1]))


def _evolve(n: int, table: Sequence[tuple[int, ...]],
            rounds: Iterable[tuple[Sequence[int], Iterable[Sequence[int]]]]):
    """The tableau (X, Z, r) of |0...0> after `rounds`: in each, the update
    `table[words[q]]` on each qubit q, then a CX for each (control, target)
    of `cnots`, in order."""
    X = [0] * n
    Z = [1 << q for q in range(n)]
    r = 0
    for words, cnots in rounds:
        for q, w in enumerate(words):
            xx, xz, zx, zz, fx, fz, fy = table[w]
            x, z = X[q], Z[q]
            r ^= (x & fx) ^ (z & fz) ^ (x & z & fy)
            X[q] = (x & xx) ^ (z & zx)
            Z[q] = (x & xz) ^ (z & zz)
        for c, t in cnots:
            xc, zt = X[c], Z[t]
            r ^= xc & zt & ~(X[t] ^ Z[c])
            X[t] ^= xc
            Z[c] ^= zt
    return X, Z, r


def _reduce(n: int, X: list[int], Z: list[int], r: int):
    """The state of the tableau (X, Z, r), up to a global phase, as the
    three tables that `_write` writes its amplitudes from:

    - e_p, or e_p ^ x_i for the pivot row i with pivot bit p, for
      p = 0..n-1, then s0;
    - c_p, then 2 w_p[j] mod 4 for j = 0..p-1, for each p in turn, the
      order in which the doubling pass adds them to theta: for pivot row i,
      c_p = ph_i + 2 z_i.s0 and w_p[j] = z_i.x_k for the pivot row k of bit
      j, and 0 at every bit that is no pivot;
    - 2^(-rank/2) i^t for t = 0..3, then 0, the amplitude of each value of
      theta and of an x off the support."""
    # the generators as rows, g = i^ph X(x) Z(z): Y = i X Z
    xs, zs = [0] * n, [0] * n
    for q in range(n):
        bit = 1 << q
        for column, rows in ((X[q], xs), (Z[q], zs)):
            while column:
                low = column & -column
                rows[low.bit_length() - 1] |= bit
                column ^= low
    # Reduced echelon form of the X parts, a row at a time: the pivots so
    # far clear the row's bits at their pivots, and a row left with an X
    # part clears its lowest bit from them. Generators commute, so a
    # product g g' = i^(ph + ph') (-1)^(z.x') X(x ^ x') Z(z ^ z') in either
    # order.
    pivots: dict[int, tuple[int, int, int]] = {}  # pivot bit -> (x, z, ph)
    z_only = []
    for g in range(n):
        x, z = xs[g], zs[g]
        ph = 2 * (r >> g) + (x & z).bit_count()
        for low in [p for p in pivots if x & p]:
            px, pz, pph = pivots[low]
            ph += pph + 2 * (pz & x).bit_count()
            x ^= px
            z ^= pz
        ph &= 3
        if not x:
            z_only.append((z, ph >> 1))
            continue
        low = x & -x
        for p, (px, pz, pph) in pivots.items():
            if px & low:
                pivots[p] = (px ^ x, pz ^ z, (pph + ph + 2 * (z & px).bit_count()) & 3)
        pivots[low] = (x, z, ph)
    # s0, zero at the pivots, with z.s0 = b for every (z, b) of z_only: a
    # reduced elimination of the z restricted to the other bits, whose
    # pivots s0 then holds where b is 1
    free = ((1 << n) - 1) & ~sum(pivots)
    solved: dict[int, tuple[int, int]] = {}  # pivot bit -> (z, b)
    for z, b in z_only:
        z &= free
        for low in [p for p in solved if z & p]:
            pz, pb = solved[low]
            z ^= pz
            b ^= pb
        low = z & -z
        for p, (pz, pb) in solved.items():
            if pz & low:
                solved[p] = (pz ^ z, pb ^ b)
        solved[low] = (z, b)
    s0 = sum(p for p, (_, b) in solved.items() if b)

    off_v = [1 << p for p in range(n)]
    steps = []
    x_at = [0] * n  # x of the pivot row with pivot bit j, else 0
    for p in range(n):
        row = pivots.get(1 << p)
        if row is None:
            steps += [0] * (p + 1)
            continue
        x, z, ph = row
        off_v[p] ^= x
        steps.append((ph + 2 * (z & s0).bit_count()) & 3)
        steps += [((z & x_j).bit_count() & 1) << 1 for x_j in x_at[:p]]
        x_at[p] = x
    off_v.append(s0)
    scale = _R ** len(pivots)
    return off_v, steps, [scale * z for z in _POWERS_OF_I] + [0]


def write_states(n: int, table: Sequence[tuple[int, ...]],
                 rows: Iterable[Iterable[tuple[Sequence[int], Iterable[Sequence[int]]]]],
                 out: np.ndarray) -> None:
    """Write into row r of the (rows, 2^n) block `out`, best column-major,
    the amplitudes, qubit 0 the least significant bit of the index, of
    |0...0> after the r-th rounds of `rows`, up to a global phase per row.
    Each round is (words, cnots): the Clifford whose `conjugation` is
    `table[words[q]]` on each qubit q, then a CX for each (control, target)
    of `cnots`, in order. Every row's tableau is evolved and reduced first, and `rows`
    is used up before the write allocates anything of the block's size."""
    _write(n, (_reduce(n, *_evolve(n, table, rounds)) for rounds in rows), out)


def _write(n: int, rows: Iterable[tuple[list, list, list]], out: np.ndarray) -> None:
    """Write row r of `out` from the r-th tables of `rows`, as `_reduce`
    gives them, used up before anything of the block's size is allocated.
    The amplitude at x is the phase table's entry theta(x), where
    L(x) = sum_p x_p off_v[p] equals s0 and 0 elsewhere: L(x) = x ^ sum_i
    x_(p_i) x_i is s0 exactly on the support, because s0 and every x_k
    with k != i are 0 at x_i's pivot p_i, and there theta(x) is the sum of
    x_p c_p + 2 x_p x_j w_p[j] over p and j < p. Setting bit p of an x below
    2^p adds off_v[p] to L(x) and c_p + 2 x.w_p to theta. Both are built
    for all rows at once by doubling over p, L in uint32 and theta mod 4 in
    uint8, so the numpy calls of the pass are paid once per block: 6 bytes
    per amplitude of arrays of its own, freed when it returns, before the
    verifier copies the block for spec and impl. A table lookup then writes
    `out`, column-major as `Draws.prepare` allocates it, by chunks of
    amplitudes of all rows at once and with clipped indices, so that
    `np.take` copies only a chunk of theta at a time and never buffers
    `out`.
    """
    tables = list(rows)
    phases = np.array([table[2] for table in tables], dtype=complex)  # (rows, 5)
    count, size = len(tables), 1 << n
    if count == 1:
        # one row: 1-D arrays and its tables' Python ints, the operands on
        # which a numpy call costs least
        off_v, steps, _ = tables[0]
        shape = (size,)
    else:
        # A column per row, amplitude-major, so that a slice of amplitudes
        # is a slice of the first axis, and entry i of a table is a (rows,)
        # view that broadcasts over it: (n + 1, rows), (n (n + 1) / 2, rows).
        off_v = np.array([table[0] for table in tables], dtype=np.uint32).T
        steps = np.array([table[1] for table in tables], dtype=np.uint8).T
        shape = (size, count)
    del tables
    xf = np.empty(shape, dtype=np.uint32)  # L(x)
    theta = np.empty(shape, dtype=np.uint8)
    step = np.empty(shape, dtype=np.uint8)  # theta's increment, later the support mask
    xf[0] = theta[0] = 0
    t = 0  # index in `steps` of c_p
    for p in range(n):
        half = 1 << p
        np.bitwise_xor(xf[:half], off_v[p], out=xf[half:2 * half])
        step[0] = steps[t]
        for j in range(p):
            width = 1 << j
            np.bitwise_xor(step[:width], steps[t + 1 + j], out=step[width:2 * width])
        t += p + 1
        np.add(theta[:half], step[:half], out=theta[half:2 * half])
    theta &= 3
    mask = step.view(bool)
    np.not_equal(xf, off_v[n], out=mask)
    np.putmask(theta, mask, 4)  # off the support
    # Entry 5 r + theta of the flat phase tables is row r's amplitude, and
    # `out.T` is amplitude-major like theta, so one `take` writes a chunk of
    # amplitudes of every row. `take` copies its indices to intp, and in its
    # default "raise" mode it also writes through a copy of `out`; chunks of
    # about 8192 indices bound the first copy to 64 KB, and "clip", a no-op
    # on valid indices, avoids the second. One row takes theta's uint8
    # entries as they are.
    flat = phases.ravel()
    columns = out.T.reshape(shape)
    chunk = max(1, _TAKE_CHUNK // count)
    if count > 1:
        offsets = 5 * np.arange(count)
        shifted = np.empty((chunk, count), dtype=np.intp)
    for start in range(0, size, chunk):
        indices = theta[start:start + chunk]
        if count > 1:
            indices = np.add(indices, offsets, out=shifted[:len(indices)])
        np.take(flat, indices, out=columns[start:start + chunk], mode="clip")
