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

A left S or CX is a few row operations on F, G, M and gamma. A left H turns
the state into a sum of two basis states under U_C U_H, which right CX, CZ
and S (column operations) fold back into one. Each bit matrix is a single
Python int with row p in bits p*n .. p*n + n - 1, so a row or a column
operation is a few big-int operations; gamma is two bit planes in the
same layout, its bits at p*n. omega stays exact, as the index of an eighth
root of unity, until `write` turns it and the power of sqrt(2) that U_H
contributes into one complex.
"""
from __future__ import annotations

import math

import numpy as np

# exp(i pi k / 4) for k = 0..7, and i^k for k = 0..3
_R = math.sqrt(0.5)
_EIGHTH_ROOTS = (1, _R + _R * 1j, 1j, -_R + _R * 1j, -1, -_R - _R * 1j, -1j, _R - _R * 1j)
_POWERS_OF_I = (1, 1j, -1, -1j)
_TAKE_CHUNK = 1 << 13


def _parity(x: int) -> int:
    return x.bit_count() & 1


def _bits(x: int):
    """Indices of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _lowest(x: int) -> int:
    return (x & -x).bit_length() - 1


def _h_decompose(h: int, delta: int) -> tuple[int, int, int, int]:
    """(a, b, c, k) with H^h (|0> + i^delta |1>) = sqrt(2) exp(i pi k / 4)
    S^a H^b |c>, for h in {0, 1} (nonzero counts as 1) and delta in 0..3."""
    if not h:
        return delta & 1, 1, delta >> 1, 0
    if not delta & 1:
        return 0, 0, delta >> 1, 0
    # H (|0> + i |1>) = (1 + i) S H |1>, H (|0> - i |1>) = (1 - i) S H |0>
    return (1, 1, 1, 1) if delta == 1 else (1, 1, 0, -1)


class CHForm:
    """A stabilizer state in CH-form, starting as |0...0>. `apply_h`,
    `apply_s` and `apply_cx` multiply it by a gate from the left; `write`
    puts its amplitudes into an array."""

    __slots__ = ("n", "F", "G", "M", "g0", "g1", "v", "s", "omega", "_row", "_col")

    def __init__(self, num_qubits: int):
        n = self.n = num_qubits
        self._row = (1 << n) - 1  # row 0 of a matrix
        self._col = sum(1 << (p * n) for p in range(n))  # column 0 of a matrix
        self.F = self.G = sum(1 << (p * n + p) for p in range(n))  # identity
        self.M = 0
        self.g0 = self.g1 = 0  # gamma_p = g0 bit p*n + 2 * g1 bit p*n
        self.v = self.s = 0
        self.omega = 0  # the global phase is exp(i pi omega / 4)

    def _gamma(self, p: int) -> int:
        shift = p * self.n
        return ((self.g0 >> shift) & 1) | ((self.g1 >> shift) & 1) << 1

    def _set_gamma(self, p: int, value: int) -> None:
        bit = 1 << (p * self.n)
        self.g0 = (self.g0 & ~bit) | (bit if value & 1 else 0)
        self.g1 = (self.g1 & ~bit) | (bit if value & 2 else 0)

    def apply_s(self, q: int) -> None:
        """Left S_q: X_q -> -Y_q = i^-1 X_q Z_q under U_C^-1 ... U_C."""
        bit = 1 << (q * self.n)
        self.M ^= self.G & (self._row << (q * self.n))
        # gamma_q -= 1 (mod 4)
        self.g1 ^= bit & ~self.g0
        self.g0 ^= bit

    def apply_cx(self, control: int, target: int) -> None:
        """Left CX: X_c -> X_c X_t and Z_t -> Z_c Z_t under U_C^-1 ... U_C."""
        n, row = self.n, self._row
        c, t = control * n, target * n
        f_t, m_c = (self.F >> t) & row, (self.M >> c) & row
        self._set_gamma(control, self._gamma(control) + self._gamma(target)
                        + 2 * _parity(m_c & f_t))
        self.G ^= ((self.G >> c) & row) << t
        self.F ^= f_t << c
        self.M ^= ((self.M >> t) & row) << c

    def _right_s(self, q: int) -> None:
        """U_C <- U_C S_q."""
        f = (self.F >> q) & self._col
        self.M ^= f << q
        # gamma -= F[:, q] (mod 4)
        self.g1 ^= f & ~self.g0
        self.g0 ^= f

    def _right_cx_cz(self, q: int, cx_targets: int, cz_partners: int) -> None:
        """U_C <- U_C prod_i CX(q -> i) prod_j CZ(q, j), over the set bits i
        of `cx_targets` and j of `cz_partners` (disjoint, without q). These
        gates commute, so their column operations are done together."""
        col = self._col
        f_q = (self.F >> q) & col
        g_sum = m_sum = f_sum = 0
        for i in _bits(cx_targets):
            g_sum ^= self.G >> i
            m_sum ^= self.M >> i
        for j in _bits(cz_partners):
            f_sum ^= self.F >> j
        f_sum &= col
        # CX(q -> i): G[:, q] ^= G[:, i], F[:, i] ^= F[:, q], M[:, q] ^= M[:, i]
        self.G ^= (g_sum & col) << q
        self.F ^= f_q * cx_targets
        # CZ(q, j): M[:, q] ^= F[:, j], M[:, j] ^= F[:, q], gamma += 2 F[:, q] F[:, j]
        self.M ^= (((m_sum & col) ^ f_sum) << q) ^ (f_q * cz_partners)
        self.g1 ^= f_q & f_sum

    def _right_cx_into(self, controls: int, q: int) -> None:
        """U_C <- U_C prod_i CX(i -> q) over the set bits i of `controls`."""
        col = self._col
        f_sum = 0
        for i in _bits(controls):
            f_sum ^= self.F >> i
        # CX(i -> q): G[:, i] ^= G[:, q], F[:, q] ^= F[:, i], M[:, i] ^= M[:, q]
        self.G ^= ((self.G >> q) & col) * controls
        self.F ^= (f_sum & col) << q
        self.M ^= ((self.M >> q) & col) * controls

    def apply_h(self, p: int) -> None:
        """Left H_p, by Prop. 4 of Bravyi et al.

        H_p = (X_p + Z_p) / sqrt(2), and pushing U_C^-1 X_p U_C and
        U_C^-1 Z_p U_C through U_H onto |s> gives
        H_p |phi> = omega (-1)^alpha U_C U_H (|t> + i^delta |u>) / sqrt(2).
        """
        n, row = self.n, self._row
        shift = p * n
        g, f, m = (self.G >> shift) & row, (self.F >> shift) & row, (self.M >> shift) & row
        v, s = self.v, self.s
        nv = v ^ row
        t = s ^ (g & v)
        u = s ^ (f & nv) ^ (m & v)
        alpha = _parity(g & nv & s)
        beta = _parity((m & nv & s) ^ (f & v & (m ^ s)))
        delta = (self._gamma(p) + 2 * (alpha + beta)) & 3
        omega = self.omega + 4 * alpha
        if t == u:
            # The two Paulis anticommute, so delta is odd and
            # (1 + i^delta) / sqrt(2) is exp(+-i pi / 4).
            self.s = t
            self.omega = (omega + (1 if delta == 1 else -1)) & 7
            return
        # Right CX and CZ on qubit q leave |t> and |u> differing in bit q only.
        differ = t ^ u
        set0, set1 = differ & nv, differ & v
        if set0:
            q = _lowest(set0)
            self._right_cx_cz(q, set0 ^ (1 << q), set1)
        else:
            q = _lowest(set1)
            self._right_cx_into(set1 ^ (1 << q), q)
        bit = 1 << q
        if t & bit:
            # |u + e_q> + i^delta |u> = i^delta (|u> + i^-delta |u + e_q>)
            y = u
            omega += 2 * delta
            delta = -delta & 3
        else:
            y = t
        a, b, c, k = _h_decompose(v & bit, delta)
        omega += k
        if a:
            self._right_s(q)
        self.v = v | bit if b else v & ~bit
        self.s = y | bit if c else y
        self.omega = omega & 7

    def write(self, out: np.ndarray) -> None:
        """Write the 2^n amplitudes into `out`, qubit 0 the least
        significant bit of the index.

        <x|phi> = omega <0| U_C^-1 X(x) U_C U_H |s>, because U_C fixes <0|,
        and U_C^-1 X(x) U_C = i^mu X(a) Z(b) with a = xF and b = xM. So the
        amplitude is omega 2^(-|v|/2) i^theta(x) where a agrees with s off
        v, and 0 elsewhere, with theta = mu + 2 a.b + 2 a.(s & v). Setting
        bit p of an x below 2^p adds F_p to a and c_p + 2 x.w_p to theta,
        with c_p = gamma_p + 2 F_p.(M_p ^ (s & v)) and w_p[j] = F_j.M_p.
        Both are built by doubling over p, a (its bits off v only) in uint32
        and theta mod 4 in uint8: 6 bytes per amplitude of arrays of its
        own, freed when it returns, before the verifier copies the block for
        spec and impl. A table lookup then writes `out`, by chunks and with
        clipped indices, so that `np.take` copies only a chunk of theta at a
        time and never buffers `out`.
        """
        n, row = self.n, self._row
        size = 1 << n
        rows_f = [(self.F >> (p * n)) & row for p in range(n)]
        rows_m = [(self.M >> (p * n)) & row for p in range(n)]
        nv = self.v ^ row
        sv = self.s & self.v
        a = np.empty(size, dtype=np.uint32)
        theta = np.empty(size, dtype=np.uint8)
        step = np.empty(size, dtype=np.uint8)  # theta's increment, later the support mask
        a[0] = theta[0] = 0
        for p in range(n):
            half = 1 << p
            np.bitwise_xor(a[:half], rows_f[p] & nv, out=a[half:2 * half])
            step[0] = (self._gamma(p) + 2 * _parity(rows_f[p] & (rows_m[p] ^ sv))) & 3
            for j in range(p):
                low = 1 << j
                np.bitwise_xor(step[:low], 2 * _parity(rows_f[j] & rows_m[p]),
                               out=step[low:2 * low])
            np.add(theta[:half], step[:half], out=theta[half:2 * half])
        theta &= 3
        mask = step.view(bool)
        np.not_equal(a, self.s & nv, out=mask)
        np.putmask(theta, mask, 4)  # off the support
        scale = _EIGHTH_ROOTS[self.omega] * _R ** self.v.bit_count()
        table = np.array([scale * z for z in _POWERS_OF_I] + [0], dtype=complex)
        # `take` copies its uint8 indices to intp, and in its default "raise"
        # mode it also writes through a copy of `out`; chunks bound the first
        # copy to 64 KB, and "clip", a no-op on indices 0..4, avoids the second.
        for start in range(0, size, _TAKE_CHUNK):
            stop = start + _TAKE_CHUNK
            np.take(table, theta[start:stop], out=out[start:stop], mode="clip")
