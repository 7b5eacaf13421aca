"""The node mod p of an even Gram matrix G: the one step that both the Gauss
sums of `expsums` and the Hensel counts of `repcounts` reduce to.

`mod_p_node(gram, p)`, cached per (gram, p), gives the dimension k of the
radical of G mod p, the coset solving G lambda + h = 0, the Gauss leaf and the
number of zeros of beta(lambda) + g.lambda + n: from the symmetric elimination
of G mod p at odd p, and from one walk of (Z/2)^rank at p = 2.  Each walk and
each listing of a coset is checked against NODE_POINT_LIMIT before it starts.
Only the series modules import this one, so `info` and `rep` never execute it.
Everything here runs in Python ints, and the leaf in Python complexes.
"""

import math
from array import array
from functools import cache, lru_cache
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


# The node walks (Z/2)^rank once at p = 2 and lists a coset of the radical of
# G mod p where a recursion asks for one.  Either is refused over
# NODE_POINT_LIMIT points before anything is allocated, so a request that cannot
# finish fails at once with its cost named; it is a constant, not a setting.
NODE_POINT_LIMIT = 10**7


def _check_node(p, what, size, noun):
    if size > NODE_POINT_LIMIT:
        raise ResourceLimitError(
            f"a Hensel node at p={p} {what} = {size} {noun}, over the limit of {NODE_POINT_LIMIT}"
        )


def _diagonalize_mod_p(gram, p):
    """Symmetric elimination of G mod an odd prime p.

    Returns (pivots, basis): with b_i the vectors of `basis`, b_i^t G b_j = 0
    mod p for i != j, b_i^t G b_i is the i-th pivot (nonzero) for i < len(pivots),
    and the vectors after the pivots span the radical of G mod p.
    """
    n = len(gram)
    a = [[v % p for v in row] for row in gram]
    basis = [[int(i == j) for j in range(n)] for i in range(n)]

    def add(i, j, f):  # b_i -> b_i + f b_j, as a congruence on a
        a[i] = [(x + f * y) % p for x, y in zip(a[i], a[j])]
        for row in a:
            row[i] = (row[i] + f * row[j]) % p
        basis[i] = [(x + f * y) % p for x, y in zip(basis[i], basis[j])]

    pivots = []
    for t in range(n):
        i = next((i for i in range(t, n) if a[i][i]), None)
        if i is None:
            pair = next(((i, j) for i in range(t, n) for j in range(i + 1, n) if a[i][j]), None)
            if pair is None:
                break
            i = pair[0]
            add(i, pair[1], 1)  # the new diagonal entry is 2 a_ij, nonzero at odd p
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[i] = row[i], row[t]
        basis[t], basis[i] = basis[i], basis[t]
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


def _walk_mod_2(gram):
    """G lambda mod 2 and beta(lambda) mod 2 at every lambda of (Z/2)^rank, read as an
    int with lambda_j at bit rank - 1 - j (int order is lexicographic order): with
    j the last nonzero coordinate of lambda = mu + e_j, G lambda = G mu + G e_j and
    beta(lambda) = beta(mu) + G_jj / 2 + (G mu)_j."""
    rank = len(gram)
    columns = [sum((gram[i][j] & 1) << (rank - 1 - i) for i in range(rank)) for j in range(rank)]
    image, parity = array("L", [0]) * 2**rank, bytearray(2**rank)
    for lam in range(1, 2**rank):
        low = lam & -lam
        j = rank - low.bit_length()
        mu = lam ^ low
        image[lam] = image[mu] ^ columns[j]
        parity[lam] = parity[mu] ^ (gram[j][j] // 2 & 1) ^ (image[mu] & low > 0)
    return image, parity


@lru_cache(maxsize=256)
def mod_p_node(gram, p):
    """The node of G at a prime p, built once per (gram, p).

    k is the dimension of the radical R of G mod p.  solve(h) lists the lambda
    with G lambda + h = 0 mod p, one per class, as (lambda, beta(lambda),
    G lambda): none, or a coset of R of p^k points.  base(h) is its first point
    (None if there is none) and lists nothing, nor do leaf(U, h) = S(U, h; p),
    the sum of e((U beta(lambda) + h.lambda)/p) over (Z/p)^rank, and
    zeros(g, n), the number of zeros of Q = beta(lambda) + g.lambda + n.  U is a
    unit; h, g and n are reduced mod p.  At p = 2 all read `_walk_mod_2`: U
    drops out of the leaf, and zeros(g, n) = (2^rank + (-1)^n leaf(1, g)) / 2.
    At odd p, with lambda = sum y_i b_i over `_diagonalize_mod_p`,
    G lambda + h = 0 asks pivot_i y_i = -b_i.h below the pivots and b_i.h = 0
    on R.  The leaf is p^k times one-dimensional sums (a/p) g_p e(-t^2 (4a)^-1 / p),
    g_p = sqrt(p) or i sqrt(p) as p = 1 or 3 mod 4.  Q has p^(rank-1) zeros if
    g is outside im G = R^perp (Q is linear along R), else p^k N_s(m) with
    m = -Q(base(g)) (`_form_count`).  The walk and each listing are checked
    against NODE_POINT_LIMIT before they start.
    """
    rank = len(gram)
    if p == 2:
        _check_node(p, f"walks 2^rank = 2^{rank}", 2**rank, "points")
        image, parity = _walk_mod_2(gram)

        def bits(h):
            return sum(v << (rank - 1 - j) for j, v in enumerate(h))

        @cache
        def solve(h):
            target = bits(h)
            points = [tuple(lam >> (rank - 1 - j) & 1 for j in range(rank))
                      for lam, v in enumerate(image) if v == target]
            return [(lam, _int_beta(gram, lam), [sum(map(mul, row, lam)) for row in gram]) for lam in points]

        @cache
        def leaf2(h):
            target = bits(h)
            return sum(1 - 2 * (b ^ (target & lam).bit_count() & 1) for lam, b in enumerate(parity))

        return SimpleNamespace(k=image.count(0).bit_length() - 1,
                               base=lambda h: solve(h)[0][0] if solve(h) else None,
                               solve=solve,
                               leaf=lambda U, h: leaf2(h),
                               zeros=lambda g, n: (2**rank + (-1) ** n * leaf2(g)) // 2)

    pivots, basis = _diagonalize_mod_p(gram, p)
    s, k, radical = len(pivots), rank - len(pivots), basis[len(pivots):]
    half, g_p = pow(2, -1, p), (1j if p % 4 == 3 else 1) * math.sqrt(p)

    def coords(h):  # b_i.h mod p, and whether h is orthogonal to R
        t = [sum(map(mul, vec, h)) % p for vec in basis]
        return t[:s], not any(t[s:])

    def base(h):
        t, solvable = coords(h)
        if not solvable:
            return None
        y = [-ti * pow(piv, -1, p) % p for ti, piv in zip(t, pivots)]
        return [sum(yi * vec[j] for yi, vec in zip(y, basis)) for j in range(rank)]

    @lru_cache(maxsize=1 << 12)
    def solve(h):
        lam0 = base(h)
        if lam0 is None:
            return ()
        _check_node(p, f"lists p^k = {p}^{k}", p**k, "singular zeros")
        points = (tuple(l0 + sum(z * vec[j] for z, vec in zip(zs, radical)) for j, l0 in enumerate(lam0))
                  for zs in product(range(p), repeat=k))
        return [(lam, _int_beta(gram, lam), [sum(map(mul, row, lam)) for row in gram]) for lam in points]

    @lru_cache(maxsize=1 << 12)
    def leaf(U, h):
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
        lam0 = base(g)
        if lam0 is None:
            return p ** (rank - 1)
        m = -(_int_beta(gram, lam0) + sum(map(mul, g, lam0)) + n) % p
        return p**k * _form_count([piv * half % p for piv in pivots], m, p)

    return SimpleNamespace(k=k, base=base, solve=solve, leaf=leaf, zeros=zeros)
