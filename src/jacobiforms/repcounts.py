"""Representation numbers R_b, local Euler factors and the truncated
Dirichlet series: the counts behind the exact trivial Eisenstein coefficients.

R_b counts the zeros mod b of the integral polynomial
Q(lambda) = beta(lambda + x) - D.  Composite b splits by CRT into prime powers,
and R_{p^e} comes from a Hensel recursion over the zeros of Q mod p: a
nonsingular zero lifts to p^((e-1)(rank-1)) zeros mod p^e (this holds at p = 2
too), and a singular zero recurses on the form reduced by p.  Each node is
counted and its singular zeros listed by `modp.mod_p_node`, the node mod p
that the Gauss sums of `expsums` read too, in closed form at every p (by the
Arf invariant of beta mod 2 at p = 2).  Its coset is listed only where the
singular zeros recurse, at e >= 2, and e = 1 takes the count alone.
This recursion is the one route to R_{p^e}, at good and bad primes alike, and
the LRU cache on it the one memo of R_b across calls: `rep_count`, the stable
profiles behind the local factors and the R_b of the Dirichlet series
(`representation_numbers`, over `factorize` as `rep_count`) all read through
it, by the one count(p, e) of each (x, D) (`_prime_power_counts`).  That
closure takes G x and beta(x) - D from `lattice.support_data`, the one test
that (D, x) lies in supp(L), so every count route refuses the same pairs.  A
node that would list more than `modp.NODE_POINT_LIMIT` points raises
ResourceLimitError before allocating.
The brute-force count over (Z/b)^rank and the walk of (Z/p)^rank at every node
stay in the tests as oracles, and the closed form of a good prime's factor in
`oracles`.  Everything here runs in Python ints.
"""

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from ._record import Frozen
from .errors import StabilizationFailureError
from .lattice import support_data
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
        support_data(self.lattice, self.D, self.x)


@lru_cache(maxsize=1 << 16)
def _hensel_count(gram, p, g, n, e):
    """#{lambda mod p^e : Q(lambda) = beta(lambda) + g.lambda + n = 0 mod p^e}, g, n mod p^e.

    With Q(lambda0 + p mu) = Q(lambda0) + p grad Q(lambda0).mu + p^2 beta(mu)
    (exact, beta integral on L), a zero lambda0 mod p is counted as:
    nonsingular -> p^((e-1)(rank-1)) lifts; singular at e = 1 -> 1, so e = 1
    is the count of zeros mod p and lists none; singular with p^2 | Q(lambda0)
    -> p^rank times the count of the reduced form (grad/p, Q/p^2) mod p^(e-2);
    any other singular zero -> none.  The singular zeros (grad Q = G lambda + g
    = 0 mod p) are the points of the node's coset solve(g) where Q = 0, with
    Q mod p^2 the same at each representative; at odd p, Q is constant mod p
    on that coset, which is listed only if Q(base) = 0.
    """
    if e == 0:
        return 1
    node = mod_p_node(gram, p)
    g1, n1 = tuple(v % p for v in g), n % p
    if e == 1:
        return node.zeros(g1, n1)
    lift = p ** ((e - 1) * (len(gram) - 1))
    total = node.zeros(g1, n1) * lift  # every zero counted as nonsingular, then corrected
    lam0 = node.base(g1)
    if lam0 is None or p > 2 and (_int_beta(gram, lam0) + sum(map(mul, g1, lam0)) + n1) % p:
        return total
    sub = p ** (e - 2)
    for lam, beta, glam in node.solve(g1):
        value = beta + sum(map(mul, g, lam)) + n
        if value % p == 0:
            total -= lift
            if value % (p * p) == 0:
                grad = tuple((a + b) // p % sub for a, b in zip(glam, g))
                total += p ** len(gram) * _hensel_count(gram, p, grad, value // p**2 % sub, e - 2)
    return total


@lru_cache(maxsize=4096)
def _prime_power_counts(lattice, x, D):
    """(p, e) -> R_{p^e} for Q(lambda) = beta(lambda + x) - D, by `_hensel_count`.

    The integer data G x and beta(x) - D come once per (lattice, x, D) from
    `support_data`, which raises ValueError unless (D, x) lies in supp(L).
    """
    # Q(lambda) = beta(lambda) + (G x).lambda + beta(x) - D
    _, n, gx = support_data(lattice, D, x)

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
    if not is_integral(dt):
        raise ValueError(f"(D={D}, x={x}) is not in supp(L): D ord(x)^2 = {dt} is not an integer")
    return int(dt)


def _stable_profile(lattice, x, D, p):
    """(w_p, [R_{p^0}, ..., R_{p^{w_p}}]) with the stabilization check enforced.

    w_p starts at max(1, 1 + 2 ord_p(2 * Dtilde)) and is raised until
    R_{p^{w+1}} = p^{rank-1} R_{p^w}, by at most 4 steps.  Every R_{p^l} is
    read through the one `_prime_power_counts` closure of (x, D), which checks
    that (D, x) lies in supp(L).
    """
    count = _prime_power_counts(lattice, x, Fraction(D))
    w = max(1, 1 + 2 * dict(factorize(abs(2 * _d_tilde(x, D)))).get(p, 0))
    cap = w + _STABILIZATION_CAP
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


def representation_numbers(lattice, x, D, B):
    """[R_1, ..., R_B], each the CRT product of the prime-power counts, as `rep_count`
    takes it; raises ValueError unless (D, x) lies in supp(L)."""
    B = int(B)
    if B < 1:
        raise ValueError("B must be positive")
    count = _prime_power_counts(lattice, x, Fraction(D))
    return [math.prod(count(p, e) for p, e in factorize(b)) for b in range(1, B + 1)]


def dirichlet_series_partial(lattice, x, D, s, B):
    """Truncated Dirichlet series sum_{b <= B} R_b / b^s (float), R_b from
    `representation_numbers`."""
    if s <= lattice.rank + 0.5:
        raise ValueError(f"s = {s} is too close to the abscissa rank = {lattice.rank}")
    total = 0.0
    for b, rb in enumerate(representation_numbers(lattice, x, D, B), start=1):
        if rb:
            total += rb * float(b) ** (-s)
    return total


def bad_primes(lattice, x, D):
    """Primes dividing 2 * Dtilde * det, ascending."""
    dt = _d_tilde(x, D)
    return [p for p, _ in factorize(abs(2 * dt * lattice.det))]
