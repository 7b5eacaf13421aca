"""Representation numbers R_b, local Euler factors and the truncated
Dirichlet series: the counts behind the exact trivial Eisenstein coefficients.

R_b counts the zeros mod b of the integral polynomial
Q(lambda) = beta(lambda + x) - D.  Composite b splits by CRT into prime powers,
and R_{p^e} is read off the unit sums T_f = sum_U e(U n/p^f) S(U, U g; p^f),
f <= e, of `modp.mod_p_node`: exact ints in closed form over the p-adic Jordan
splitting of G, whose blocks give the Gauss sums of `expsums` too.  With
R_{p^f} = p^(rank-1) R_{p^(f-1)} + T_f / p^f (`_extend_counts`) no point is
listed and no count refused, at good and bad primes alike.  The counts of one
(x, D) live in one closure (`_prime_power_counts`, LRU-cached), the one memo of
R_b across calls, each R_{p^f} formed once per p: `rep_count`, the stable
profiles behind the local factors and the R_b of the Dirichlet series
(`representation_numbers`, over `factorize` as `rep_count`) all read through
it.  It takes G x and beta(x) - D from `lattice.support_data`, the one test
that (D, x) lies in supp(L), so every count route refuses the same pairs.
The brute-force count over (Z/b)^rank and the Hensel recursion over the zeros
mod p stay in the tests as oracles, and the closed form of a good prime's
factor in `oracles`.  Everything here runs in Python ints.
"""

import math
from fractions import Fraction
from functools import lru_cache

from ._record import Frozen
from .errors import StabilizationFailureError
from .lattice import support_data
from .modp import mod_p_node
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


def _extend_counts(gram, p, g, n, counts, e):
    """counts = [R_{p^0}, ...] of Q(lambda) = beta(lambda) + g.lambda + n, extended
    in place up to R_{p^e} by R_{p^f} = p^(rank-1) R_{p^(f-1)} + T_f / p^f.

    p^f R_{p^f} = sum_{lambda mod p^f} sum_{a mod p^f} e(a Q(lambda)/p^f), and the
    a of order p^j give p^((f - j) rank) T_j, T_j the unit sum of `modp`; so
    p^f R_{p^f} - p^rank p^(f-1) R_{p^(f-1)} = T_f, exactly, in ints.
    """
    unit_sum = mod_p_node(gram, p).unit_sum
    while len(counts) <= e:
        f = len(counts)
        t = unit_sum(f, g, n)
        assert t % p**f == 0, f"T_{f} at p={p} is not divisible by p^{f}"
        counts.append(p ** (len(gram) - 1) * counts[-1] + t // p**f)
    return counts


@lru_cache(maxsize=4096)
def _prime_power_counts(lattice, x, D):
    """(p, e) -> R_{p^e} for Q(lambda) = beta(lambda + x) - D, by `_extend_counts`,
    each R_{p^f} formed once per (lattice, x, D, p) and read by every e >= f.

    The integer data G x and beta(x) - D come once per (lattice, x, D) from
    `support_data`, which raises ValueError unless (D, x) lies in supp(L).
    """
    # Q(lambda) = beta(lambda) + (G x).lambda + beta(x) - D
    _, n, gx = support_data(lattice, D, x)
    known = {}

    def count(p, e):
        return _extend_counts(lattice.gram, p, gx, n, known.setdefault(p, [1]), e)[e]

    return count


def rep_count(key):
    """R_b: the CRT product over p^e || b of the prime-power counts."""
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
