"""Representation numbers R_b, local Euler factors and the truncated
Dirichlet series: the counts behind the exact trivial Eisenstein coefficients.

R_b counts the zeros mod b of the integral polynomial
Q(lambda) = beta(lambda + x) - D.  Composite b splits by CRT into prime powers,
and R_{p^e} comes from a Hensel recursion over the zeros of Q mod p: a
nonsingular zero lifts to p^((e-1)(rank-1)) zeros mod p^e (this holds at p = 2
too), and a singular zero recurses on the form reduced by p.  Each node is
counted and its singular zeros listed by `modp.mod_p_node`, the node mod p
that the Gauss sums of `expsums` read too, in closed form at every p (by the
Arf invariant of beta mod 2 at p = 2).  Its singular zeros are listed only
where they recurse, at e >= 2, and e = 1 takes the count alone.
This recursion is the one route to R_{p^e}, at good and bad primes alike, and
the LRU cache on it the one memo of R_b across calls: `rep_count`, the stable
profiles behind the local factors and the prime powers of the Dirichlet series
all read through it, by the one count(p, e) of each (x, D)
(`_prime_power_counts`), which derives G x and beta(x) - D once.  A node that
would list more than `modp.NODE_POINT_LIMIT` points raises ResourceLimitError
before allocating.
The brute-force count over (Z/b)^rank and the walk of (Z/p)^rank at every node
stay in the tests as oracles, and the closed form of a good prime's factor in
`oracles`.  Everything here runs in Python ints.
"""

import math
from fractions import Fraction
from functools import cache, lru_cache
from operator import mul

from ._record import Frozen
from .errors import StabilizationFailureError
from .modp import _int_beta, mod_p_node
from .numbertheory import factorize
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


@lru_cache(maxsize=4096)
def _zeros_mod_p(gram, p, g, n):
    """(number of nonsingular zeros, the singular ones in lexicographic order) of
    Q(lambda) = beta(lambda) + g.lambda + n mod p, g and n reduced mod p: the
    singular zeros, grad Q = G lambda + g = 0, are the points of solve(g) where
    Q = 0.  At odd p, Q is constant on that coset, listed only if Q(base) = 0."""
    node = mod_p_node(gram, p)
    lam0 = node.base(g)
    if lam0 is None or p > 2 and (_int_beta(gram, lam0) + sum(map(mul, g, lam0)) + n) % p:
        return node.zeros(g, n), ()
    singular = sorted(tuple(v % p for v in lam) for lam, beta, _ in node.solve(g)
                      if (beta + sum(map(mul, g, lam)) + n) % p == 0)
    return node.zeros(g, n) - len(singular), tuple(singular)


def _zero_count_mod_p(gram, p, g, n):
    """#{lambda mod p : Q(lambda) = 0}, g and n reduced mod p, listing no zero."""
    return mod_p_node(gram, p).zeros(g, n)


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


@lru_cache(maxsize=4096)
def _prime_power_counts(lattice, x, D):
    """(p, e) -> R_{p^e} for Q(lambda) = beta(lambda + x) - D, by `_hensel_count`.

    The integer data G x and beta(x) - D are derived once per (lattice, x, D).
    """
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
    R_{p^{w+1}} = p^{rank-1} R_{p^w}, by at most 4 steps.  Every R_{p^l} is
    read through the one `_prime_power_counts` closure of (x, D).
    """
    if not is_integral(x.beta_mod1 - D):
        raise ValueError("(D, x) must lie in supp(L)")
    dt = _d_tilde(x, D)
    w = max(1, 1 + 2 * _ord_p(2 * dt, p))
    cap = w + _STABILIZATION_CAP
    count = _prime_power_counts(lattice, x, Fraction(D))
    counts = [count(p, l) for l in range(w + 2)]
    while counts[w + 1] != p ** (lattice.rank - 1) * counts[w]:
        w += 1
        if w > cap:
            raise StabilizationFailureError(
                f"representation numbers at p={p} fail to stabilize by w={cap}"
            )
        counts.append(count(p, w + 1))
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
