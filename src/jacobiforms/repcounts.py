"""Representation numbers R_b, local Euler factors and the truncated
Dirichlet series: the counts behind the exact trivial Eisenstein coefficients.

R_b counts the zeros mod b of the integral polynomial
Q(lambda) = beta(lambda + x) - D.  Composite b splits by CRT into prime powers,
and R_{p^e} comes from a Hensel recursion over the zeros of Q mod p: a
nonsingular zero lifts to p^((e-1)(rank-1)) zeros mod p^e (this holds at p = 2
too), and a singular zero recurses on the form reduced by p.  Each node is
counted in closed form at odd p, from the symmetric elimination of G mod p
(`lattice._diagonalize_mod_p`) and the classical count of a nondegenerate
form's values, and by a walk of (Z/2)^rank at p = 2; its singular zeros are
listed only where they recurse, at e >= 2, and e = 1 takes the count alone.
This recursion is the one route to R_{p^e}, at good and bad primes alike, and
the LRU cache on it the one memo of R_b across calls: `rep_count`, the stable
profiles behind the local factors and the prime powers of the Dirichlet series
all read through it.  A node that would list more than
`lattice.NODE_POINT_LIMIT` points raises ResourceLimitError before allocating.
The brute-force count over (Z/b)^rank and the walk of (Z/p)^rank at every node
stay in the tests as oracles, and the closed form of a good prime's factor in
`oracles`.  Everything here runs in Python ints.
"""

import math
from fractions import Fraction
from functools import cache, lru_cache
from itertools import product

from ._record import Frozen
from .errors import StabilizationFailureError
from .lattice import _check_node, _diagonalize_mod_p, _int_beta
from .numbertheory import factorize, kronecker
from .rationals import is_integral

_STABILIZATION_CAP = 4


class RepCountKey(Frozen):
    """Arguments of R_b = #{lambda in (Z_b)^rank : beta(lambda + x) - D = 0 mod b}."""

    _fields = ("lattice", "x", "D", "b")

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("modulus b must be positive")
        if self.D > 0 or not is_integral(self.x.beta_mod1 - self.D):
            raise ValueError("(D, x) must lie in supp(L)")


def _form_count(coeffs, m, p):
    """N_s(m) = #{y in (Z/p)^s : sum c_i y_i^2 = m} for nonzero c_i mod an odd prime p."""
    s = len(coeffs)
    if s == 0:
        return int(m % p == 0)
    disc = (-1) ** (s // 2) * math.prod(coeffs)
    if s % 2 == 0:
        return p ** (s - 1) + (p - 1 if m % p == 0 else -1) * p ** (s // 2 - 1) * kronecker(disc, p)
    return p ** (s - 1) + p ** ((s - 1) // 2) * kronecker(disc * m, p)


def _odd_node(gram, p, g, n):
    """(number of zeros of Q mod an odd prime p, singular zeros) for Q(lambda) =
    beta(lambda) + g.lambda + n, g and n reduced mod p; the singular zeros are
    lambda0 + R, given as (lambda0, basis of R), or None when there are none.

    In closed form from a symmetric elimination of G mod p with radical R of
    dimension k.  If g is not in im G = R^perp, Q is a nonconstant linear
    function along some v in R, so each line in that direction holds one zero
    and none is singular: p^(rank-1).  Otherwise G lambda0 = -g and
    Q(lambda0 + mu) = beta(mu) - m with m = -Q(lambda0); beta is the form
    sum (pivot_i / 2) y_i^2 of rank s = rank - k plus zero on R, so there are
    p^k N_s(m) zeros, and the singular ones, grad Q = G mu = 0, are
    lambda0 + R when m = 0 and none otherwise.
    """
    rank = len(gram)
    pivots, basis = _diagonalize_mod_p(gram, p)
    s = len(pivots)
    h = [sum(a * b for a, b in zip(vec, g)) % p for vec in basis]
    if any(h[s:]):
        return p ** (rank - 1), None
    y = [-hi * pow(piv, -1, p) % p for hi, piv in zip(h, pivots)]
    lam0 = [sum(yi * vec[j] for yi, vec in zip(y, basis)) % p for j in range(rank)]
    m = -(_int_beta(gram, lam0) + sum(a * b for a, b in zip(g, lam0)) + n) % p
    half = pow(2, -1, p)
    total = p ** (rank - s) * _form_count([piv * half % p for piv in pivots], m, p)
    return total, None if m else (lam0, basis[s:])


@lru_cache(maxsize=4096)
def _zeros_mod_p(gram, p, g, n):
    """Zeros of Q(lambda) = beta(lambda) + g.lambda + n on (Z/p)^rank.

    g and n are reduced mod p.  Returns (number of nonsingular zeros, tuple of
    the singular ones in lexicographic order), a zero being singular when
    grad Q = G lambda + g = 0 mod p.  At odd p from `_odd_node`; at p = 2,
    where beta does not diagonalise, the node walks (Z/2)^rank.
    """
    rank = len(gram)
    if p == 2:
        _check_node(p, f"walks 2^rank = 2^{rank}", 2**rank, "points")
        nonsingular, singular = 0, []
        for lam in product((0, 1), repeat=rank):
            if (_int_beta(gram, lam) + sum(a * b for a, b in zip(g, lam)) + n) % 2:
                continue
            if any((sum(gij * v for gij, v in zip(row, lam)) + gi) % 2 for row, gi in zip(gram, g)):
                nonsingular += 1
            else:
                singular.append(lam)
        return nonsingular, tuple(singular)
    total, coset = _odd_node(gram, p, g, n)
    if coset is None:
        return total, ()
    lam0, radical = coset
    _check_node(p, f"lists p^k = {p}^{len(radical)}", p ** len(radical), "singular zeros")
    singular = sorted(
        tuple((l0 + sum(t * vec[j] for t, vec in zip(ts, radical))) % p for j, l0 in enumerate(lam0))
        for ts in product(range(p), repeat=len(radical))
    )
    return total - len(singular), tuple(singular)


def _zero_count_mod_p(gram, p, g, n):
    """#{lambda mod p : Q(lambda) = 0}, singular zeros included but never listed at odd p."""
    if p == 2:
        nonsingular, singular = _zeros_mod_p(gram, p, g, n)
        return nonsingular + len(singular)
    return _odd_node(gram, p, g, n)[0]


@lru_cache(maxsize=1 << 16)
def _hensel_count(gram, p, g, n, e):
    """#{lambda mod p^e : beta(lambda) + g.lambda + n = 0 mod p^e}, g and n reduced mod p^e.

    With Q(lambda0 + p mu) = Q(lambda0) + p grad Q(lambda0).mu + p^2 beta(mu)
    (exact, beta integral on L), a zero lambda0 mod p is counted as:
    nonsingular -> p^((e-1)(rank-1)) lifts; singular at e = 1 -> 1, so e = 1
    is the count of zeros mod p and lists none; singular with p^2 | Q(lambda0)
    -> p^rank times the count of the reduced form (grad/p, Q/p^2) mod p^(e-2);
    any other singular zero -> none.
    """
    if e == 0:
        return 1
    if e == 1:
        return _zero_count_mod_p(gram, p, tuple(v % p for v in g), n % p)
    rank = len(gram)
    nonsingular, singular = _zeros_mod_p(gram, p, tuple(v % p for v in g), n % p)
    total = nonsingular * p ** ((e - 1) * (rank - 1))
    sub = p ** (e - 2)
    for lam in singular:
        value = _int_beta(gram, lam) + sum(a * b for a, b in zip(g, lam)) + n
        if value % (p * p):
            continue
        grad = (sum(gij * v for gij, v in zip(row, lam)) + gi for row, gi in zip(gram, g))
        total += p**rank * _hensel_count(
            gram, p, tuple(v // p % sub for v in grad), value // (p * p) % sub, e - 2
        )
    return total


def _prime_power_counts(lattice, x, D):
    """(p, e) -> R_{p^e} for Q(lambda) = beta(lambda + x) - D, by `_hensel_count`."""
    # Q(lambda) = beta(lambda) + (G x).lambda + beta(x) - D
    gx = tuple(int(v) for v in lattice.gram_times(x.rep))
    n = int(lattice.beta(x.rep) - D)

    def count(p, e):
        q = p**e
        return _hensel_count(lattice.gram, p, tuple(v % q for v in gx), n % q, e)

    return count


def rep_count(key):
    """R_b: the CRT product over p^e || b of Hensel counts, memoized per prime power."""
    count = _prime_power_counts(key.lattice, key.x, key.D)
    return math.prod(count(p, e) for p, e in factorize(key.b))


def _d_tilde(x, D):
    dt = Fraction(D) * x.order**2
    assert is_integral(dt)
    return int(dt)


def _ord_p(n, p):
    n = abs(int(n))
    e = 0
    while n and n % p == 0:
        n //= p
        e += 1
    return e


@lru_cache(maxsize=4096)
def _stable_profile(lattice, x, D, p):
    """(w_p, [R_{p^0}, ..., R_{p^{w_p}}]) with the stabilization check enforced.

    w_p starts at max(1, 1 + 2 ord_p(2 * Dtilde)) and is raised until
    R_{p^{w+1}} = p^{rank-1} R_{p^w}, by at most 4 steps.
    """
    dt = _d_tilde(x, D)
    w = max(1, 1 + 2 * _ord_p(2 * dt, p))
    cap = w + _STABILIZATION_CAP
    counts = [rep_count(RepCountKey(lattice, x, Fraction(D), p**l)) for l in range(w + 2)]
    while counts[w + 1] != p ** (lattice.rank - 1) * counts[w]:
        w += 1
        if w > cap:
            raise StabilizationFailureError(
                f"representation numbers at p={p} fail to stabilize by w={cap}"
            )
        counts.append(rep_count(RepCountKey(lattice, x, Fraction(D), p ** (w + 1))))
    return w, tuple(counts[: w + 1])


def local_factor(lattice, x, D, p, s):
    """Local Euler factor L~_p(s) of the representation-number Dirichlet series.

    L~_p(s) = p^{-w s} R_{p^w} + (1 - p^{-(s - rank + 1)}) sum_{l < w} p^{-l s} R_{p^l},
    as an exact rational.
    """
    if s < 1:
        raise ValueError("s must be a positive integer")
    if Fraction(D) >= 0:
        raise ValueError("local_factor needs D < 0")
    w, counts = _stable_profile(lattice, x, D, p)
    total = Fraction(p) ** (-w * s) * counts[w]
    partial = sum(Fraction(p) ** (-l * s) * counts[l] for l in range(w))
    total += (1 - Fraction(p) ** (lattice.rank - 1 - s)) * partial
    return total


@lru_cache(maxsize=64)
def _spf_sieve(limit):
    """Smallest prime factor of each 2 <= n <= limit, as a list indexed by n."""
    spf = list(range(limit + 1))
    root = math.isqrt(limit)
    small = [p for p in range(2, root + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for p in reversed(small):  # a smaller prime overwrites a larger one
        spf[p * p::p] = [p] * len(range(p * p, limit + 1, p))
    return spf


def dirichlet_series_partial(lattice, x, D, s, B):
    """Truncated Dirichlet series sum_{b <= B} R_b / b^s (float).

    R_b is assembled multiplicatively from the prime-power counts of
    `rep_count` (CRT), each taken once per call.
    """
    if s <= lattice.rank + 0.5:
        raise ValueError(f"s = {s} is too close to the abscissa rank = {lattice.rank}")
    B = int(B)
    if B < 1:
        raise ValueError("B must be positive")
    spf = _spf_sieve(max(B, 2))
    prime_power = cache(_prime_power_counts(lattice, x, Fraction(D)))

    total = 1.0  # b = 1 term
    for b in range(2, B + 1):
        rb = 1
        n = b
        while n > 1:
            p = spf[n]
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            rb *= prime_power(p, e)
            if rb == 0:
                break
        if rb:
            total += rb * float(b) ** (-s)
    return total


def bad_primes(lattice, x, D):
    """Primes dividing 2 * Dtilde * det, ascending."""
    dt = _d_tilde(x, D)
    return [p for p, _ in factorize(abs(2 * dt * lattice.det))]
