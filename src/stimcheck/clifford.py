"""Stabilizer states in CH-form: global stimuli prepared without applying
their gates to the state vector one by one.

A global stimulus is an H, S, CNOT circuit applied to |0...0>, so it
prepares a stabilizer state. The CH-form of Bravyi et al. (Simulation of
quantum circuits by low-rank stabilizer decompositions, Quantum 3:181,
2019, Sec. 4.1 and Prop. 4) writes such a state, global phase included, as

    |phi> = omega U_C U_H |s>,

where U_H = prod_j H_j^v_j, s is a basis state and U_C is a product of S,
CZ and CX gates. Such a U_C fixes |0...0>, and it is stored as the Paulis
it conjugates X_p and Z_p into:

    U_C^-1 Z_p U_C = prod_j Z_j^G[p, j]
    U_C^-1 X_p U_C = i^gamma_p prod_j X_j^F[p, j] Z_j^M[p, j]

A left S or CX is a few row operations on F, G, M and gamma. A left X_p
changes only s and omega: U_C^-1 X_p U_C = i^gamma_p X(F_p) Z(M_p), U_H
swaps X and Z on the qubits in v, and X(F_p) Z(M_p) reordered as X then Z
after that swap, applied to |s>, gives

    X_p |phi> = omega i^gamma_p (-1)^beta U_C U_H |s ^ (F_p & ~v) ^ (M_p & v)>,
    beta = parity((M_p & ~v & s) ^ (F_p & v & (s ^ M_p))),

so s ^= (F_p & ~v) ^ (M_p & v) and omega += 2 gamma_p + 4 beta, both from
the old s. It is the X half of the H update in `_evolve`. A left H turns
the state into a sum of two basis states under U_C U_H, which right CX, CZ
and S (column operations) fold back into one.

A global stimulus is built in sub-rounds: one of the 24 single-qubit
Cliffords on every qubit, then CNOTs. Each Clifford is written once as
exp(i pi k / 4) S^c H^b S^a X^x (`WordForm`, X applied first, b at most 1):
8 of the 24 need no H and 16 need one, where their shortest H, S words
need 1.25 on average. `write_states` is the whole preparation of a block
of rows. For each row, `_evolve` starts the form at |0...0> and applies
every sub-round, its words and then its CNOTs, holding the form in local
variables throughout. Then the 2^n amplitudes of every row are written in
one pass, so that its numpy calls are paid once per block, not once per
row. The H update is written once, inside `_evolve`'s word loop, on the
form's local ints; it ends with one of the eight cases of `_h_decompose`,
read from two tables built from that function at import.

Each bit matrix is a single Python int with row p in bits p*n .. p*n + n - 1,
so a row or a column operation is a few big-int operations; gamma is two
bit planes in the same layout, its bits at p*n. omega stays exact, an int
whose residue mod 8 indexes an eighth root of unity, until the amplitudes
are written, when it and the power of sqrt(2) that U_H contributes become
one complex.
"""
from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# exp(i pi k / 4) for k = 0..7, and i^k for k = 0..3
_R = math.sqrt(0.5)
_EIGHTH_ROOTS = (1, _R + _R * 1j, 1j, -_R + _R * 1j, -1, -_R - _R * 1j, -1j, _R - _R * 1j)
_POWERS_OF_I = (1, 1j, -1, -1j)
_TAKE_CHUNK = 1 << 13


class WordForm(NamedTuple):
    """A single-qubit Clifford as exp(i pi k / 4) S^c H^b S^a X^x: X^x is
    applied first, b is 0 or 1, a and c are 0..3 and k is 0..7."""
    x: int
    a: int
    b: int
    c: int
    k: int


def _h_decompose(h: int, delta: int) -> tuple[int, int, int, int]:
    """(a, b, c, k) with H^h (|0> + i^delta |1>) = sqrt(2) exp(i pi k / 4)
    S^a H^b |c>, for h in {0, 1} (nonzero counts as 1) and delta in 0..3."""
    if not h:
        return delta & 1, 1, delta >> 1, 0
    if not delta & 1:
        return 0, 0, delta >> 1, 0
    # H (|0> + i |1>) = (1 + i) S H |1>, H (|0> - i |1>) = (1 - i) S H |0>
    return (1, 1, 1, 1) if delta == 1 else (1, 1, 0, -1)


# _h_decompose's eight cases, indexed by 4 h + delta, as the H update in
# `_evolve` reads them: whether it ends with a right S, and the v bit, the
# s bit and the omega step it ends with.
_H_RIGHT_S = tuple(_h_decompose(case >> 2, case & 3)[0] for case in range(8))
_H_ENDS = tuple(_h_decompose(case >> 2, case & 3)[1:] for case in range(8))


def _evolve(n: int, forms: Sequence[WordForm],
            rounds: Iterable[tuple[Sequence[int], Iterable[Sequence[int]]]]):
    """The CH-form of |0...0> after `rounds`, as the three tables that
    `write_states` writes its amplitudes from:

    - F_p & ~v for p = 0..n-1, then s & ~v;
    - c_p, then 2 w_p[j] mod 4 for j = 0..p-1, for each p in turn, the
      order in which the doubling pass adds them to theta;
    - omega 2^(-|v|/2) i^t for t = 0..3, then 0, the amplitude of each
      value of theta and of an x off the support."""
    row = (1 << n) - 1  # row 0 of a matrix
    col = sum(1 << (p * n) for p in range(n))  # column 0 of a matrix
    # |0...0>: U_C = U_H = 1, so F = G = identity, M = gamma = 0 and s = 0;
    # gamma_p = g0 bit p*n + 2 * g1 bit p*n, the phase is exp(i pi omega / 4)
    F = G = sum(1 << (p * n + p) for p in range(n))
    M = g0 = g1 = v = s = omega = 0
    right_s, ends = _H_RIGHT_S, _H_ENDS
    for words, cnots in rounds:
        for q, w in enumerate(words):
            x, a, b, c, k = forms[w]
            shift = q * n
            bit = 1 << shift
            if x:
                # X_q -> i^gamma_q X(F_q) Z(M_q) under U_C^-1 ... U_C; U_H
                # swaps X and Z on v, and the Z part is read off the old s.
                f, m = (F >> shift) & row, (M >> shift) & row
                omega += 2 * ((g0 >> shift) & 1) + 4 * (
                    ((g1 >> shift) ^ ((m & ~v & s) ^ (f & v & (s ^ m))).bit_count()) & 1)
                s ^= (f & ~v) ^ (m & v)
            if a & 1:
                # S_q: X_q -> i^-1 X_q Z_q, so M_q ^= G_q and gamma_q -= 1
                M ^= G & (row << shift)
                g1 ^= bit & ~g0
                g0 ^= bit
            if a & 2:
                g1 ^= bit  # S_q^2 = Z_q: gamma_q -= 2
            if b:
                # Left H_q, by Prop. 4 of Bravyi et al.: H_q = (X_q + Z_q) / sqrt(2),
                # and pushing U_C^-1 X_q U_C and U_C^-1 Z_q U_C through U_H
                # onto |s> gives
                # H_q |phi> = omega (-1)^alpha U_C U_H (|t> + i^delta |u>) / sqrt(2).
                g, f, m = (G >> shift) & row, (F >> shift) & row, (M >> shift) & row
                nv = v ^ row
                t = s ^ (g & v)
                u = s ^ (f & nv) ^ (m & v)
                alpha = (g & nv & s).bit_count() & 1
                beta = ((m & nv & s) ^ (f & v & (m ^ s))).bit_count() & 1
                delta = (((g0 >> shift) & 1) + 2 * (((g1 >> shift) & 1) + alpha + beta)) & 3
                omega += 4 * alpha
                if t == u:
                    # The two Paulis anticommute, so delta is odd and
                    # (1 + i^delta) / sqrt(2) is exp(+-i pi / 4).
                    s = t
                    omega += 1 if delta == 1 else -1
                else:
                    # Right CX and CZ on qubit p leave |t> and |u> differing in
                    # bit p only. These gates commute, so their column
                    # operations are done together.
                    differ = t ^ u
                    set0, set1 = differ & nv, differ & v
                    if set0:
                        # U_C <- U_C prod_i CX(p -> i) prod_j CZ(p, j), i over
                        # the rest of set0, j over set1
                        p = (set0 & -set0).bit_length() - 1
                        cx_targets = set0 ^ (1 << p)
                        f_p = (F >> p) & col
                        g_sum = m_sum = f_sum = 0
                        rest = cx_targets
                        while rest:
                            i = (rest & -rest).bit_length() - 1
                            g_sum ^= G >> i
                            m_sum ^= M >> i
                            rest &= rest - 1
                        rest = set1
                        while rest:
                            f_sum ^= F >> ((rest & -rest).bit_length() - 1)
                            rest &= rest - 1
                        f_sum &= col
                        # CX(p -> i): G[:, p] ^= G[:, i], F[:, i] ^= F[:, p], M[:, p] ^= M[:, i]
                        G ^= (g_sum & col) << p
                        F ^= f_p * cx_targets
                        # CZ(p, j): M[:, p] ^= F[:, j], M[:, j] ^= F[:, p],
                        # gamma += 2 F[:, p] F[:, j]
                        M ^= (((m_sum & col) ^ f_sum) << p) ^ (f_p * set1)
                        g1 ^= f_p & f_sum
                    else:
                        # U_C <- U_C prod_i CX(i -> p), i over the rest of set1
                        p = (set1 & -set1).bit_length() - 1
                        controls = set1 ^ (1 << p)
                        f_sum = 0
                        rest = controls
                        while rest:
                            f_sum ^= F >> ((rest & -rest).bit_length() - 1)
                            rest &= rest - 1
                        # CX(i -> p): G[:, i] ^= G[:, p], F[:, p] ^= F[:, i], M[:, i] ^= M[:, p]
                        G ^= ((G >> p) & col) * controls
                        F ^= (f_sum & col) << p
                        M ^= ((M >> p) & col) * controls
                    p_bit = 1 << p
                    if t & p_bit:
                        # |u + e_p> + i^delta |u> = i^delta (|u> + i^-delta |u + e_p>)
                        y = u
                        omega += 2 * delta
                        delta = -delta & 3
                    else:
                        y = t
                    # S^a H^b |c> from _h_decompose(v_p, delta)
                    case = ((v >> p) & 1) << 2 | delta
                    if right_s[case]:
                        # U_C <- U_C S_p: M[:, p] ^= F[:, p], gamma -= F[:, p] (mod 4)
                        f = (F >> p) & col
                        M ^= f << p
                        g1 ^= f & ~g0
                        g0 ^= f
                    set_v, set_s, step = ends[case]
                    v = v | p_bit if set_v else v & ~p_bit
                    s = y | p_bit if set_s else y
                    omega += step
            if c & 1:
                M ^= G & (row << shift)
                g1 ^= bit & ~g0
                g0 ^= bit
            if c & 2:
                g1 ^= bit
            omega += k
        for control, target in cnots:
            # X_c -> X_c X_t, Z_t -> Z_c Z_t: gamma_c += gamma_t + 2 M_c.F_t,
            # the low bits adding with a carry into the high one
            ctl, tgt = control * n, target * n
            f_t = (F >> tgt) & row
            low = (g0 >> tgt) & 1
            g1 ^= (((g1 >> tgt) ^ (low & (g0 >> ctl)) ^ ((M >> ctl) & f_t).bit_count())
                   & 1) << ctl
            g0 ^= low << ctl
            G ^= ((G >> ctl) & row) << tgt
            F ^= f_t << ctl
            M ^= ((M >> tgt) & row) << ctl

    nv = v ^ row
    sv = s & v
    off_v, steps, rows_f = [], [], []
    for shift in range(0, n * n, n):
        f, m = (F >> shift) & row, (M >> shift) & row  # F_p and M_p
        off_v.append(f & nv)
        # c_p = gamma_p + 2 F_p.(M_p ^ (s & v)), then 2 w_p[j] for j < p
        steps.append((((g0 >> shift) & 1) + 2 * (((g1 >> shift) & 1) + (f & (m ^ sv)).bit_count()))
                     & 3)
        for f_j in rows_f:
            steps.append(((f_j & m).bit_count() & 1) << 1)
        rows_f.append(f)
    off_v.append(s & nv)
    scale = _EIGHTH_ROOTS[omega & 7] * _R ** v.bit_count()
    return off_v, steps, [scale * z for z in _POWERS_OF_I] + [0]


def write_states(n: int, forms: Sequence[WordForm],
                 rows: Iterable[Iterable[tuple[Sequence[int], Iterable[Sequence[int]]]]],
                 out: np.ndarray) -> None:
    """Write into row r of the (rows, 2^n) block `out` the amplitudes,
    qubit 0 the least significant bit of the index, of |0...0> after the
    r-th rounds of `rows`. Each round is (words, cnots): the Clifford
    `forms[words[q]]` on each qubit q, then a CX for each
    (control, target) of `cnots`, in order.

    Every row's form is taken through its rounds first, and `rows` is
    used up before the write allocates anything of the block's size. A
    row's last form is written out as
    <x|phi> = omega <0| U_C^-1 X(x) U_C U_H |s>, because U_C fixes <0|,
    and U_C^-1 X(x) U_C = i^mu X(a) Z(b) with a = xF and b = xM. So the
    amplitude is omega 2^(-|v|/2) i^theta(x) where a agrees with s off
    v, and 0 elsewhere, with theta = mu + 2 a.b + 2 a.(s & v). Setting
    bit p of an x below 2^p adds F_p to a and c_p + 2 x.w_p to theta,
    with c_p = gamma_p + 2 F_p.(M_p ^ (s & v)) and w_p[j] = F_j.M_p.
    Both are built for all rows at once by doubling over p, a (its bits
    off v only) in uint32 and theta mod 4 in uint8, so the numpy calls
    of the pass are paid once per block: 6 bytes per amplitude of arrays
    of its own, freed when it returns, before the verifier copies the
    block for spec and impl. A table lookup then writes each row of
    `out`, by chunks and with clipped indices, so that `np.take` copies
    only a chunk of theta at a time and never buffers `out`.
    """
    tables = [_evolve(n, forms, rounds) for rounds in rows]
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
    xf = np.empty(shape, dtype=np.uint32)  # a = xF, its bits off v
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
    # `take` copies its uint8 indices to intp, and in its default "raise"
    # mode it also writes through a copy of `out`; chunks bound the first
    # copy to 64 KB, and "clip", a no-op on indices 0..4, avoids the second.
    columns = theta.reshape(size, count)
    for r, table in enumerate(phases):
        for start in range(0, size, _TAKE_CHUNK):
            stop = start + _TAKE_CHUNK
            np.take(table, columns[start:stop, r], out=out[r, start:stop], mode="clip")
