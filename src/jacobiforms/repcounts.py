"""Representation numbers R_b, local Euler factors and the truncated
Dirichlet series: the counts behind the exact trivial Eisenstein coefficients.

R_b counts the zeros mod b of the integral polynomial
Q(lambda) = beta(lambda + x) - D.  Composite b splits by CRT into prime powers,
and R_{p^e} is read off the unit sums T_f = sum_U e(U n/p^f) S(U, U g; p^f),
f <= e, of `modp.mod_p_node`: exact ints in closed form over the p-adic Jordan
splitting of G, whose blocks give the Gauss sums of `expsums` too, so no point
is listed and no count refused.  The T_f of one (x, D), and the R_{p^f} formed
from them, live in one closure (`_prime_power_counts`, LRU-cached), each formed
once per p: `rep_count` and `representation_numbers` read the counts, and
`local_factor` is one Fraction over the unit sums (T. Yang, J. Number Theory
72 (1998)).  The closure takes G x and beta(x) - D from `lattice.support_data`,
the one test that (D, x) lies in supp(L), so every count route refuses the
same pairs.  The brute-force count over (Z/b)^rank and the Hensel recursion
over the zeros mod p stay in the tests as oracles, and the closed form of a
good prime's factor in `oracles`.  Everything here runs in Python ints.
"""

import math
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

from ._record import Frozen
from .errors import StabilizationFailureError
from .lattice import support_data
from .modp import mod_p_node
from .numbertheory import factorize
from .rationals import is_integral

_STABILIZATION_CAP = 4


def _positive_int(value, name):
    """value as an int if it is a positive int or Fraction with denominator 1, else a ValueError naming it."""
    if isinstance(value, Rational) and value.denominator == 1 and value >= 1:
        return int(value)
    raise ValueError(f"{name} must be a positive integer, got {value!r}")


class RepCountKey(Frozen):
    """Arguments of R_b = #{lambda in (Z_b)^rank : beta(lambda + x) - D = 0 mod b}."""

    _fields = ("lattice", "x", "D", "b")

    def __post_init__(self):
        _positive_int(self.b, "modulus b")
        support_data(self.lattice, self.D, self.x)


@lru_cache(maxsize=4096)
def _prime_power_counts(lattice, x, D):
    """(p, e) -> the lists [T_0, ..., T_e, ...] and [R_{p^0}, ..., R_{p^e}, ...] of
    Q(lambda) = beta(lambda) + g.lambda + n = beta(lambda + x) - D, each entry
    formed once per (lattice, x, D, p), with T_0 = R_{p^0} = 1, T_f = `modp` unit_sum(f, g, n)
    and R_{p^f} = p^(rank-1) R_{p^(f-1)} + T_f / p^f:
    p^f R_{p^f} = sum_{lambda mod p^f} sum_{a mod p^f} e(a Q(lambda)/p^f), and the
    a of order p^j give p^((f - j) rank) T_j, so p^f R_{p^f} - p^rank p^(f-1) R_{p^(f-1)} = T_f.

    g = G x and n = beta(x) - D come once per (lattice, x, D) from
    `support_data`, which raises ValueError unless (D, x) lies in supp(L).
    """
    _, n, g = support_data(lattice, D, x)
    known = {}

    def local(p, e):
        sums, counts = known.setdefault(p, ([1], [1]))
        while len(sums) <= e:
            f = len(sums)
            t = mod_p_node(lattice.gram, p).unit_sum(f, g, n)
            assert t % p**f == 0, f"T_{f} at p={p} is not divisible by p^{f}"
            sums.append(t)
            counts.append(p ** (lattice.rank - 1) * counts[-1] + t // p**f)
        return sums, counts

    return local


def rep_count(key):
    """R_b: the CRT product over p^e || b of the prime-power counts."""
    local = _prime_power_counts(key.lattice, key.x, key.D)
    return math.prod(local(p, e)[1][e] for p, e in factorize(key.b))


def _d_tilde(x, D):
    dt = Fraction(D) * x.order**2
    if not is_integral(dt):
        raise ValueError(f"(D={D}, x={x}) is not in supp(L): D ord(x)^2 = {dt} is not an integer")
    return int(dt)


def local_factor(lattice, x, D, p, s):
    """Local Euler factor L~_p(s) of the representation-number Dirichlet series, one
    exact Fraction over p^(w (s+1)) from the unit sums T_f of `_prime_power_counts`:
      L~_p(s) = sum_{f <= w} T_f p^(-f (s+1)),   T_0 = 1.
    As R_{p^l} = sum_{f <= l} p^((rank-1)(l-f)) T_f / p^f, it equals
    p^(-w s) R_{p^w} + (1 - p^(rank-1-s)) sum_{l < w} p^(-l s) R_{p^l} at every
    w, and R_{p^(w+1)} = p^(rank-1) R_{p^w} exactly where T_{w+1} = 0.  So w
    starts at max(1, 1 + 2 ord_p(2 * Dtilde)) and is raised while T_{w+1} != 0,
    by at most 4 steps.  s is an int or a Fraction with denominator 1.
    """
    s = _positive_int(s, "s")
    if Fraction(D) >= 0:
        raise ValueError("local_factor needs D < 0")
    local = _prime_power_counts(lattice, x, Fraction(D))
    w = max(1, 1 + 2 * dict(factorize(abs(2 * _d_tilde(x, D)))).get(p, 0))
    cap = w + _STABILIZATION_CAP
    while local(p, w + 1)[0][w + 1]:
        w += 1
        if w > cap:
            raise StabilizationFailureError(f"representation numbers at p={p} fail to stabilize by w={cap}")
    q = p ** (s + 1)
    return Fraction(sum(t * q ** (w - f) for f, t in enumerate(local(p, w)[0][:w + 1])), q**w)


def representation_numbers(lattice, x, D, B):
    """[R_1, ..., R_B], each the CRT product of the prime-power counts, as `rep_count`
    takes it; raises ValueError unless (D, x) lies in supp(L)."""
    B = _positive_int(B, "B")
    local = _prime_power_counts(lattice, x, Fraction(D))
    return [math.prod(local(p, e)[1][e] for p, e in factorize(b)) for b in range(1, B + 1)]


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
