"""The p-adic Jordan splitting of an even Gram matrix G, and what the Gauss sums
of `expsums` and the Hensel counts of `repcounts` read off it.

`mod_p_node(gram, p)`, cached per (gram, p), splits G once over Z_(p):
B^t G B = J block-diagonal, exactly, with B in GL_n(Z_(p)) held in Fractions,
1x1 blocks and, at p = 2, 2x2 blocks (Conway-Sloane, SPLAG, ch. 15).  With
lambda = B mu the quadratic Gauss sum S(U, h; p^e) is the product over the
blocks of one- and two-dimensional sums in closed form, at t = B^t h
(`gauss_sum(e)`, its integers reduced mod p^e once per e).  Reduced mod p the
splitting is the node of the Hensel counts: the blocks that are units mod p
are the pivots (at p = 2, the pairs), the other basis vectors span the radical
of G mod p, and from them come the coset solving G lambda + h = 0 and the
number of zeros of beta(lambda) + g.lambda + n.  Each listing of a coset is
checked against NODE_POINT_LIMIT before it starts.
Only the series modules import this one, so `info` and `rep` never execute it.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from operator import mul
from types import SimpleNamespace

from .errors import ResourceLimitError
from .numbertheory import kronecker
from .rationals import phase_table


def _int_beta(gram, vec):
    """beta of an integer vector, as a Python int."""
    total = 0
    n = len(vec)
    for i in range(n):
        total += gram[i][i] // 2 * vec[i] * vec[i]
        for j in range(i + 1, n):
            total += gram[i][j] * vec[i] * vec[j]
    return total


# The node lists a coset of the radical of G mod p where a recursion asks for
# one, and refuses one of over NODE_POINT_LIMIT points before anything is
# allocated, so a request that cannot finish fails at once with its cost named;
# it is a constant, not a setting.
NODE_POINT_LIMIT = 10**7


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


def _form_count(coeffs, m, p):
    """N_s(m) = #{y in (Z/p)^s : sum c_i y_i^2 = m} for nonzero c_i mod an odd prime p."""
    s = len(coeffs)
    if s == 0:
        return int(m % p == 0)
    disc = (-1) ** (s // 2) * math.prod(coeffs)
    if s % 2 == 0:
        return p ** (s - 1) + (p - 1 if m % p == 0 else -1) * p ** (s // 2 - 1) * kronecker(disc, p)
    return p ** (s - 1) + p ** ((s - 1) // 2) * kronecker(disc * m, p)


@lru_cache(maxsize=256)
def mod_p_node(gram, p):
    """The splitting of G at a prime p and its node mod p, built once per (gram, p).

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
    h (a tuple) before the factor U^-1; the rest reads U as (U/p) or U mod 8.

    k is the dimension of the radical R of G mod p.  solve(h) lists the lambda
    with G lambda + h = 0 mod p, one per class, as (lambda, beta(lambda),
    G lambda): none, or a coset of R of p^k points.  base(h) is one of them
    (None if there is none), and zeros(g, n) the number of zeros of
    Q = beta(lambda) + g.lambda + n; neither lists.  h, g, n are reduced mod p.
    With lambda = sum y_i b_i over the pivots and then R, G lambda + h = 0
    asks b_i.h = 0 on R and pivot_i y_i = -b_j.h below it, j = i at odd p and
    j the other vector of i's pair at p = 2.  At odd p, Q has p^(rank-1) zeros
    if g is outside im G = R^perp (Q is linear along R), else p^k N_s(m),
    m = -Q(base(g)) (`_form_count`); at p = 2 it has
    (2^rank + (-1)^n S(1, g; 2)) / 2, S an int there.
    """
    rank = len(gram)
    splitting, blocks = jordan_splitting(gram, p)
    paired, pivots, radical = [], [], []
    for idx, m, v in blocks:
        if v or p == 2 and len(idx) == 1:
            radical += [splitting[i] for i in idx]
        else:
            paired += [splitting[i] for i in idx]
            pivots += [_mod(m[0], p)] if p > 2 else [1, 1]
    basis = [[_mod(x, p) for x in vec] for vec in paired + radical]
    s, k = len(pivots), rank - len(pivots)
    partner = [i ^ (p == 2) for i in range(s)]  # b_i.G b_j = pivot_i at j = partner[i]

    def base(h):
        t = [sum(map(mul, vec, h)) % p for vec in basis]  # b_i.h mod p
        if any(t[s:]):  # h is not orthogonal to R
            return None
        y = [-t[j] * pow(piv, -1, p) % p for j, piv in zip(partner, pivots)]
        return [sum(yi * vec[j] for yi, vec in zip(y, basis)) for j in range(rank)]

    @lru_cache(maxsize=1 << 12)
    def solve(h):
        lam0 = base(h)
        if lam0 is None:
            return ()
        if p**k > NODE_POINT_LIMIT:
            raise ResourceLimitError(f"a Hensel node at p={p} lists p^k = {p}^{k} = {p**k} singular zeros, "
                                     f"over the limit of {NODE_POINT_LIMIT}")
        points = (tuple(l0 + sum(z * vec[j] for z, vec in zip(zs, basis[s:])) for j, l0 in enumerate(lam0))
                  for zs in product(range(p), repeat=k))
        return [(lam, _int_beta(gram, lam), [sum(map(mul, row, lam)) for row in gram]) for lam in points]

    @lru_cache(maxsize=64)
    def gauss_sum(e):
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
        root = p ** (roots // 2) * (math.sqrt(p) if roots % 2 else 1)
        amps = {(u % 8 if p == 2 else u % p): whole * z * root for u, z in units.items()}
        phases = phase_table(q)

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

        def S(U, h):
            num = exponent(h)
            if num is None:
                return 0
            amp = amps[U % 8 if p == 2 else pow(U, p // 2, p)]
            num = -num * pow(U, -1, q) % q
            return amp if num == 0 else -amp if 2 * num == q else amp * phases[num]

        return S

    def zeros(g, n):
        if p == 2:
            return (2**rank + (-1) ** n * gauss_sum(1)(1, g)) // 2
        lam0 = base(g)
        if lam0 is None:
            return p ** (rank - 1)
        m = -(_int_beta(gram, lam0) + sum(map(mul, g, lam0)) + n) % p
        return p**k * _form_count([piv * (p + 1) // 2 % p for piv in pivots], m, p)

    return SimpleNamespace(k=k, base=base, solve=solve, gauss_sum=gauss_sum, zeros=zeros)
