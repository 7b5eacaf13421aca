"""The p-adic Jordan splitting of an even Gram matrix G, and the sums over it:
the Gauss sums of `expsums` and the unit sums behind the counts of `repcounts`.

`mod_p_node(gram, p)`, cached per (gram, p), splits G once over Z_(p):
B^t G B = J block-diagonal, exactly, with B in GL_n(Z_(p)) held in Fractions,
1x1 blocks and, at p = 2, 2x2 blocks (Conway-Sloane, SPLAG, ch. 15).  With
lambda = B mu the quadratic Gauss sum S(U, h; p^e) is the product over the
blocks of one- and two-dimensional sums in closed form, at t = B^t h
(`gauss_sum(e)`, its integers reduced mod p^e once per e).  At h = U g it is
an amplitude that reads U only through (U/p), or U mod 8, times a phase
linear in U, so T_f = sum_U e(U n/p^f) S(U, U g; p^f) is a Ramanujan sum or
its twist (`numbertheory.ramanujan_sum`) at odd p, or a Gauss sum over the
classes U mod 8, in closed form and an exact int (`unit_sum`; T. Yang,
J. Number Theory 72 (1998) and 108 (2004)).  No point is listed.
Only the series modules import this one, so `info` and `rep` never execute it.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import count
from operator import mul
from types import SimpleNamespace

from .numbertheory import kronecker, ramanujan_sum
from .rationals import phase_table


def _val(x, p):
    """The p-adic valuation of a nonzero Fraction whose denominator is prime to p."""
    return next(v for v in count() if x.numerator % p ** (v + 1))


def _mod(x, m):
    """A Fraction with denominator prime to m, reduced mod m."""
    return x.numerator * pow(x.denominator, -1, m) % m


def jordan_splitting(gram, p):
    """(basis, blocks) with B^t G B = J block-diagonal, B = (b_i) = basis in GL_n(Z_(p)).

    A block is (indices, its entries of J, v): v is the valuation of J_ii / 2
    (1x1) or J_ij (2x2), inf on the kernel of a degenerate G.  On indices t..
    not yet split, v is the least valuation of an entry of A = B^t G B.  A
    diagonal entry of valuation v is swapped to t and b_r -= (A_rt / A_tt) b_t
    clears its row and column: a 1x1 block.  Else at odd p, b_i += b_j for an
    A_ij of valuation v makes A_ii + 2 A_ij + A_jj one.  At p = 2 the pair
    (i, j) is a 2x2 block M = 2^v M0, M0 unimodular (even diagonal, odd
    off-diagonal), and b_r -= x b_i + y b_j, (x, y) = M^-1 (A_ri, A_rj)
    2-integral, clears the rest.
    """
    n = len(gram)
    a = [[Fraction(v) for v in row] for row in gram]
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def add(i, j, f):  # b_i -> b_i + f b_j
        a[i] = [x + f * y for x, y in zip(a[i], a[j])]
        for row in a:
            row[i] += f * row[j]
        basis[i] = [x + f * y for x, y in zip(basis[i], basis[j])]

    def swap(t, i):
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[i] = row[i], row[t]
        basis[t], basis[i] = basis[i], basis[t]

    blocks, t = [], 0
    while t < n:  # on a degenerate G the b_t.. left at v = inf span its kernel
        entries = ((_val(a[i][j], p), i != j, i, j) for i in range(t, n) for j in range(i, n) if a[i][j])
        v, off, i, j = min(entries, default=(math.inf, False, t, t))
        if off and p == 2:
            swap(t, i)
            swap(t + 1, j)
            (m00, m01), (_, m11) = a[t][t:t + 2], a[t + 1][t:t + 2]
            det = m00 * m11 - m01 * m01
            for r in range(t + 2, n):
                x, y = (m11 * a[r][t] - m01 * a[r][t + 1]) / det, (m00 * a[r][t + 1] - m01 * a[r][t]) / det
                add(r, t, -x)
                add(r, t + 1, -y)
            blocks.append(((t, t + 1), (m00, m01, m11), v))
        else:
            if off:  # odd p: A_ii + 2 A_ij + A_jj has valuation v
                add(i, j, 1)
            swap(t, i)
            for r in range(t + 1, n):
                if a[r][t]:
                    add(r, t, -a[r][t] / a[t][t])
            blocks.append(((t,), (a[t][t],), v - (p == 2)))  # v of J_tt / 2
        t += len(blocks[-1][0])
    return basis, blocks


def _rotate(x, k):
    """zeta^k x for x in Z[zeta], zeta = e(1/8), in the basis 1, zeta, zeta^2, zeta^3."""
    out = [0] * 4
    for j, c in enumerate(x):
        r = (j + k) % 8
        out[r % 4] += c if r < 4 else -c
    return out


@lru_cache(maxsize=256)
def mod_p_node(gram, p):
    """The sums over the splitting of G at a prime p, built once per (gram, p).

    gauss_sum(e) is S(U, h) = S(U, h; p^e), the sum over lambda mod p^e of
    e((U beta(lambda) + h.lambda)/p^e), U a unit and h mod p^e.  With
    lambda = B mu it is the product over the blocks of J of their sums at
    t = B^t h mod p^e.  A block of valuation v >= e gives p^(e dim) if p^e | t,
    one of v < e p^(v dim) times its unit block's sum mod p^f, f = e - v, at
    t' = t / p^v if p^v | t; else 0.  With a = U J_ii / (2 p^v):
      odd p: e(-t'^2 (4a)^-1 / p^f) (a/p)^f eps p^(f/2), eps = 1 or i as
        p^f = 1 or 3 mod 4;
      p = 2, 1x1: 2 at f = 1 and odd t'; e(-a s^2 / 2^f) (1 + i^a) (2/a)^f
        2^(f/2) at f >= 2 and even t', s = (t'/2) a^-1; else 0;
      p = 2, 2x2, M = 2^v M0: e(-U beta0(z) / 2^f) 2^f (-1)^(f arf) with
        z = U^-1 M0^-1 t' and arf = (M0_11/2)(M0_22/2) mod 2.
    Each phase is e(-U^-1 (1/2) t'.M0^-1 t' / p^f), M0 = J_b / p^v, so the
    exponents add into one entry of `phase_table(p^e)`, their sum memoized per
    h (a tuple) before the factor U^-1; the rest is the amplitude
    whole z_U sqrt(p)^roots, z_U a Gaussian integer that reads U as (U/p) or
    U mod 8, exact in floats, and these integers are formed once per e (`parts`).

    unit_sum(f, g, n) is T_f = sum_{U in (Z/p^f)*} e(U n/p^f) S(U, U g; p^f),
    g and n integral, as an exact int.  At h = U g, t is U times its value at
    g, so the block tests pass for every U or for none (T_f = 0), and the
    exponent is U^2 X, X its value at g: S(U, U g) = A(U) e(-U X/p^f).  With
    m = n - X mod p^f:
      odd p: z_-1 = (-1)^roots z_1, so T_f is A(1) times the Ramanujan sum
        c_{p^f}(m) at even roots and its twist sum_U (U/p) e(U m/p^f) at odd
        roots (`numbertheory.ramanujan_sum`), whose eps_p sqrt(p) pairs with
        the odd power of sqrt(p) and the i factors into +-p^j;
      p = 2: sum_U A(U) e(U m/2^f) over the classes r mod 2^min(f, 3), each
        2^d [2^d | m] zeta^(r (m/2^d) 2^(3 - min(f, 3))), d = max(f - 3, 0),
        in Z[zeta], zeta = e(1/8) and sqrt(2) = zeta - zeta^3.
    T_f = sum_lambda c_{p^f}(Q(lambda)) is a rational integer, which is asserted.
    """
    splitting, blocks = jordan_splitting(gram, p)

    @lru_cache(maxsize=64)
    def parts(e):  # the exponent X(h) or None, and the amplitude: whole, roots, z_U by class of U
        q = p**e
        rows = [[_mod(x, q) for x in vec] for vec in splitting]
        quads = []  # per block: its indices, p^v, the parity t' must have, (1/2) M0^-1
        whole, roots = 1, 0  # the integer factor and the power of sqrt(p) of |S|
        units = dict.fromkeys((1, -1) if p > 2 else (1, 3, 5, 7), 1)  # by (U/p), or U mod 8
        for idx, m, v in blocks:
            f, pv = max(e - v, 0), p ** min(v, e)  # v >= e reads as v = e, f = 0
            if len(idx) == 2:  # (1/2) t'.M0^-1 t' = ((m11/2) x^2 - m01 x y + (m00/2) y^2) / det M0
                m00, m01, m11 = (x / p**v for x in m)
                det = m00 * m11 - m01 * m01
                quads.append((*idx, pv, None, *(_mod(c / det, q) for c in (m11 / 2, -m01, m00 / 2))))
                whole *= pv * pv * 2**f * (-1) ** (f * (m00 / 2 * m11 / 2).numerator % 2)
                continue
            a0 = m[0] / 2 / pv
            # no phase at f = 0, nor at p = 2 and f = 1
            c = _mod(1 / (4 * a0 if p > 2 else a0), q) if f > (p == 2) else 0
            quads.append((idx[0], idx[0], pv, f == 1 if p == 2 else None, c, 0, 0))
            whole *= pv * (2 if p == 2 and f == 1 else 1)
            roots += f if p > 2 or f > 1 else 0
            for u in units:
                if p > 2:
                    units[u] *= (u * kronecker(_mod(a0, p), p)) ** f * (1j if p**f % 4 == 3 else 1)
                elif f > 1:
                    a = u * _mod(a0, 8) % 8
                    units[u] *= (1 + 1j if a % 4 == 1 else 1 - 1j) * (1 if a in (1, 7) else -1) ** f

        @lru_cache(maxsize=1 << 12)
        def exponent(h):  # sum of p^v (1/2) t'.M0^-1 t' over the blocks, or None where S = 0
            t = [sum(map(mul, row, h)) % q for row in rows]
            num = 0
            for i, j, pv, parity, c0, c1, c2 in quads:
                (x, r), (y, r2) = divmod(t[i], pv), divmod(t[j], pv)
                if r or r2:
                    return None
                if parity is not None:  # p = 2, 1x1: t' odd at f = 1, even at f >= 2, or S = 0
                    if x % 2 != parity:
                        return None
                    x //= 2
                num += pv * (c0 * x * x + c1 * x * y + c2 * y * y)
            return num

        # z_U as complex for S, and as the pair of ints it is exactly for T_f
        return exponent, whole, roots, units, {u: (int(z.real), int(z.imag)) for u, z in units.items()}

    @lru_cache(maxsize=64)
    def gauss_sum(e):
        q = p**e
        exponent, whole, roots, units, _ = parts(e)
        root = p ** (roots // 2) * (math.sqrt(p) if roots % 2 else 1)
        amps = {(u % 8 if p == 2 else u % p): whole * z * root for u, z in units.items()}
        phases = phase_table(q)

        def S(U, h):
            num = exponent(h)
            if num is None:
                return 0
            amp = amps[U % 8 if p == 2 else pow(U, p // 2, p)]
            num = -num * pow(U, -1, q) % q
            return amp if num == 0 else -amp if 2 * num == q else amp * phases[num]

        return S

    def unit_sum(f, g, n):
        q = p**f
        exponent, whole, roots, _, gauss = parts(f)
        x = exponent(tuple([v % q for v in g]))
        if x is None:
            return 0
        m = (n - x) % q
        if p > 2:  # at odd roots eps_p sqrt(p) of the twisted sum meets the odd power of sqrt(p)
            a, b = (-gauss[1][1], gauss[1][0]) if roots % 2 and p % 4 == 3 else gauss[1]
            assert b == 0, f"T_{f} at p={p} is not a rational integer"
            return whole * a * p ** ((roots + 1) // 2) * ramanujan_sum(p, f, m, roots % 2)
        d = max(f - 3, 0)
        if m % 2**d:
            return 0
        total = [0] * 4
        for r in range(1, 2 ** min(f, 3), 2):
            a, b = gauss[r]
            total = [x + y for x, y in zip(total, _rotate([a, 0, b, 0], r * (m >> d) << 3 - min(f, 3)))]
        if roots % 2:
            total = [x - y for x, y in zip(_rotate(total, 1), _rotate(total, 3))]
        assert not any(total[1:]), f"T_{f} at p=2 is not a rational integer"
        return whole * 2 ** (d + roots // 2) * total[0]

    return SimpleNamespace(gauss_sum=gauss_sum, unit_sum=unit_sum)
