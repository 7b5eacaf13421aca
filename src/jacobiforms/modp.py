"""The node mod p of an even Gram matrix G: the one step that both the Gauss
sums of `expsums` and the Hensel counts of `repcounts` reduce to.

`mod_p_node(gram, p)`, cached per (gram, p), gives the dimension k of the
radical of G mod p, the coset solving G lambda + h = 0, the Gauss leaf and the
number of zeros of beta(lambda) + g.lambda + n, all from one symmetric
elimination of G mod p: diagonal Gauss sums at odd p, the Arf invariant of
beta mod 2 at p = 2.  Each listing of a coset is checked against
NODE_POINT_LIMIT before it starts.
Only the series modules import this one, so `info` and `rep` never execute it.
Everything here runs in Python ints, and the leaf in Python complexes.
"""

import math
from functools import lru_cache
from itertools import product
from operator import mul
from types import SimpleNamespace

from .errors import ResourceLimitError
from .numbertheory import kronecker
from .rationals import unit_phase_ratio


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


def _diagonalize_mod_p(gram, p):
    """Symmetric elimination of G mod a prime p.

    Returns (pivots, basis): the vectors b_i of `basis` after the first
    len(pivots) span the radical of G mod p, and the ones before them span
    blocks orthogonal mod p to each other and to the radical.  At odd p each block is
    one b_i, with b_i^t G b_i the i-th pivot (nonzero).  At p = 2, G mod 2 is
    alternating, so each block is a pair (b_i, b_i+1) at even i with
    b_i^t G b_i+1 = 1 mod 2, and both pivots read 1.
    """
    n = len(gram)
    a = [[v % p for v in row] for row in gram]
    basis = [[int(i == j) for j in range(n)] for i in range(n)]

    def add(i, j, f):  # b_i -> b_i + f b_j, as a congruence on a
        a[i] = [(x + f * y) % p for x, y in zip(a[i], a[j])]
        for row in a:
            row[i] = (row[i] + f * row[j]) % p
        basis[i] = [(x + f * y) % p for x, y in zip(basis[i], basis[j])]

    def swap(t, i):
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[i] = row[i], row[t]
        basis[t], basis[i] = basis[i], basis[t]

    pivots = []
    while len(pivots) < n:
        t = len(pivots)
        i = next((i for i in range(t, n) if a[i][i]), None)
        if i is None:
            pair = next(((i, j) for i in range(t, n) for j in range(i + 1, n) if a[i][j]), None)
            if pair is None:
                break
            i, j = pair
            if p == 2:  # e = b_t, f = b_t+1; clear v -> v + (v.G f) e + (v.G e) f
                swap(t, i)
                swap(t + 1, j)
                for r in range(t + 2, n):
                    fe, ff = a[r][t], a[r][t + 1]
                    add(r, t, ff)
                    add(r, t + 1, fe)
                pivots += [1, 1]
                continue
            add(i, j, 1)  # the new diagonal entry is 2 a_ij, nonzero at odd p
        swap(t, i)
        inv = pow(a[t][t], -1, p)
        for r in range(t + 1, n):
            if a[r][t]:
                add(r, t, -a[r][t] * inv % p)
        pivots.append(a[t][t])
    return pivots, basis


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
    """The node of G at a prime p, built once per (gram, p).

    k is the dimension of the radical R of G mod p.  solve(h) lists the lambda
    with G lambda + h = 0 mod p, one per class, as (lambda, beta(lambda),
    G lambda): none, or a coset of R of p^k points.  base(h) is one of its
    points (None if there is none) and lists nothing, nor do
    leaf(U, h) = S(U, h; p), the sum of e((U beta(lambda) + h.lambda)/p) over
    (Z/p)^rank, and zeros(g, n), the number of zeros of
    Q = beta(lambda) + g.lambda + n.  U is a unit; h, g and n are reduced mod
    p.  With lambda = sum y_i b_i over `_diagonalize_mod_p`, G lambda + h = 0
    asks b_i.h = 0 on R and pivot_i y_i = -b_j.h below it, j = i at odd p and
    j the other vector of i's pair at p = 2.  At odd p the leaf is p^k times
    one-dimensional sums (a/p) g_p e(-t^2 (4a)^-1 / p), g_p = sqrt(p) or
    i sqrt(p) as p = 1 or 3 mod 4.  Q has p^(rank-1) zeros if g is outside
    im G = R^perp (Q is linear along R), else p^k N_s(m) with
    m = -Q(base(g)) (`_form_count`).  At p = 2, U drops out of the leaf:
    q(v) = beta(v) + h.v mod 2 is linear on R, and each pair (e, f) sums to
    2 (-1)^(q(e) q(f)), so the leaf is 0 if q is not 0 on R and else
    (-1)^c 2^(k+d), with d pairs and c = sum q(e) q(f) over them, the Arf
    invariant; zeros(g, n) = (2^rank + (-1)^n leaf(1, g)) / 2.  Each listing
    is checked against NODE_POINT_LIMIT before it starts.
    """
    rank = len(gram)
    pivots, basis = _diagonalize_mod_p(gram, p)
    s, k, radical = len(pivots), rank - len(pivots), basis[len(pivots):]
    partner = [i ^ (p == 2) for i in range(s)]  # b_i.G b_j = pivot_i at j = partner[i]
    half, g_p = (p + 1) // 2, (1j if p % 4 == 3 else 1) * math.sqrt(p)  # half = 2^-1 mod an odd p

    def coords(h):  # b_i.h mod p, and whether h is orthogonal to R
        t = [sum(map(mul, vec, h)) % p for vec in basis]
        return t[:s], not any(t[s:])

    def base(h):
        t, solvable = coords(h)
        if not solvable:
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
        points = (tuple(l0 + sum(z * vec[j] for z, vec in zip(zs, radical)) for j, l0 in enumerate(lam0))
                  for zs in product(range(p), repeat=k))
        if p == 2:  # reduced and in lexicographic order, the order the Gauss sums add in
            points = sorted(tuple(v % 2 for v in lam) for lam in points)
        return [(lam, _int_beta(gram, lam), [sum(map(mul, row, lam)) for row in gram]) for lam in points]

    @lru_cache(maxsize=1 << 12)
    def leaf(U, h):
        if p == 2:
            q = [(_int_beta(gram, vec) + sum(map(mul, vec, h))) % 2 for vec in basis]
            return 0 if any(q[s:]) else (-1) ** sum(map(mul, q[:s:2], q[1:s:2])) * 2 ** (k + s // 2)
        t, solvable = coords(h)
        if not solvable:
            return 0
        sign, num = 1, 0
        for ti, piv in zip(t, pivots):
            a = U * piv * half % p
            sign *= kronecker(a, p)
            num -= ti * ti * pow(4 * a, -1, p)
        return p**k * sign * g_p**s * unit_phase_ratio(num, p)

    def zeros(g, n):
        if p == 2:
            return (2**rank + (-1) ** n * leaf(1, g)) // 2
        lam0 = base(g)
        if lam0 is None:
            return p ** (rank - 1)
        m = -(_int_beta(gram, lam0) + sum(map(mul, g, lam0)) + n) % p
        return p**k * _form_count([piv * half % p for piv in pivots], m, p)

    return SimpleNamespace(k=k, base=base, solve=solve, leaf=leaf, zeros=zeros)
