"""Jacobi-Poincare series: Petersson normalization constant, numeric Fourier
coefficients (delta terms plus the Bessel-weighted c-series) and truncated
expansions.  Poincare series are cusp forms: expansions carry no D' = 0 part.

The c-sum, its guards and the expansion loop are Eisenstein's
(`_series_coefficient`, `_series_expansion`, which shares one H_c table across
the expansion: one local factor per prime power q of c, since D != 0 a
Kloosterman or Salie sum mod q where q is prime to 2 det, and Gauss sums by
recursion per class of keys (q, (c/q)^-1 mod q) at the primes of 2 det, all in
Python ints and complexes, so no Poincare request loads numpy); this module
supplies the prefactor, the Bessel weight and the tail bound.  The weight is
one `bessel_j` call per (coefficient, c), memoized per argument inside it; at
x <= 64 it never imports mpmath, at integer order (even rank) as at
half-integer order.
"""

import math
from fractions import Fraction

from ._record import Frozen
from .errors import ConvergenceDomainError
from .eisenstein import (
    CoefficientValue,
    _check_supp,
    _float_or_refuse,
    _series_coefficient,
    _series_expansion,
)
from .numbertheory import bessel_j, gamma_half


class PoincareSpec(Frozen):
    """Weight k > rank + 2, negative D and class r with D = beta(r) mod Z."""

    _fields = ("lattice", "k", "D", "r")

    def __post_init__(self):
        object.__setattr__(self, "D", Fraction(self.D))
        if self.k < 1:
            raise ValueError("weight must be a positive integer")
        _check_supp(self.lattice, self.D, self.r)


class PeterssonConstant(Frozen):
    """lambda_{k,L,D} = mantissa * pi^pi_power * sqrt(sqrt_arg), all exact."""

    _fields = ("mantissa", "pi_power", "sqrt_arg")

    @property
    def value(self):
        return float(self.mantissa) * math.pi**self.pi_power * math.sqrt(float(self.sqrt_arg))


def _check_poincare_domain(lattice, k):
    if k <= lattice.rank + 2:
        raise ConvergenceDomainError(
            f"Poincare series need k > rank + 2; got k={k}, rank={lattice.rank}"
        )


def petersson_constant(spec):
    """2^(-2k + rank/2 + 2) Gamma(k - rank/2 - 1) det^(-1/2) (-pi D)^(-k + rank/2 + 1).

    Exact representation: even rank gives an integer pi-power and sqrt(1/det);
    odd rank folds the half powers of 2, pi and (-D) into pi^(t+1) sqrt(2(-D)/det).
    """
    lattice, k, D = spec.lattice, spec.k, spec.D
    _check_poincare_domain(lattice, k)
    rank, det = lattice.rank, lattice.det
    gam_rat, gam_pi = gamma_half(2 * k - rank - 2)  # Gamma(k - rank/2 - 1)
    if rank % 2 == 0:
        e = -k + rank // 2 + 1
        mantissa = Fraction(2) ** (-2 * k + rank // 2 + 2) * gam_rat * (-D) ** e
        return PeterssonConstant(mantissa=mantissa, pi_power=e, sqrt_arg=Fraction(1, det))
    t = -k + (rank + 1) // 2  # (-pi D) exponent is t + 1/2
    assert gam_pi == Fraction(1, 2)
    mantissa = Fraction(2) ** (-2 * k + (rank - 1) // 2 + 2) * gam_rat * (-D) ** t
    return PeterssonConstant(mantissa=mantissa, pi_power=t + 1, sqrt_arg=2 * (-D) / det)


def poincare_coefficient(spec, Dp, xp, c_max):
    """Numeric coefficient G_{D,r}(D', x') of the Poincare series.

    Delta terms plus the truncated sum over c of
    J_{k - rank/2 - 1}(4 pi sqrt(D D') / c) c^(-rank/2 - 1) (H_c + (-1)^k H_c(-r)),
    times 2 pi i^k det^(-1/2) (D'/D)^(k/2 - rank/4 - 1/2).  At c_max = 0 only
    the delta terms remain, with tail estimate None.
    """
    lattice, k, D, r = spec.lattice, spec.k, spec.D, spec.r
    Dp = _check_supp(lattice, Dp, xp)
    _check_poincare_domain(lattice, k)
    if c_max < 0:
        raise ValueError("c_max must be non-negative")
    rank, det = lattice.rank, lattice.det
    value = 0.0
    if Dp == D and xp == r:
        value += 1.0
    if Dp == D and xp == lattice.disc_group.neg(r):
        value += (-1) ** k
    if c_max == 0:
        return CoefficientValue(value=value, tail_estimate=None)
    bessel_arg = 4 * math.pi * math.sqrt(float(D * Dp))
    alpha = Fraction(2 * k - rank - 2, 2)  # k - rank/2 - 1
    # the Bessel power series and the tail bound both divide by Gamma(alpha + 1)
    _float_or_refuse(k, f"Gamma({alpha + 1})", lambda: math.gamma(alpha + 1))
    pref = _float_or_refuse(k, "the series prefactor", lambda: (
        2 * math.pi * (1j) ** k / math.sqrt(det) * float(Dp / D) ** (k / 2 - rank / 4 - 1 / 2)))
    return _series_coefficient(
        lattice, k, D, r, Dp, xp, c_max, pref,
        lambda c: bessel_j(alpha, bessel_arg / c) * float(c) ** (-rank / 2 - 1),
        lambda: _tail_estimate(lattice, k, D, Dp, c_max), value,
    )


def _tail_estimate(lattice, k, D, Dp, c_max):
    """Bessel-bounded tail: |J_a(x)| <= (x/2)^a / Gamma(a+1), |H_c| <= c^(rank+1)."""
    rank, det = lattice.rank, lattice.det
    alpha = k - rank / 2 - 1
    lead = (
        4 * math.pi / math.sqrt(det)
        * float(Dp / D) ** (alpha / 2)
        * (2 * math.pi * math.sqrt(float(D * Dp))) ** alpha
        / math.gamma(alpha + 1)
    )
    return lead * float(c_max) ** (rank + 2 - k) / (k - rank - 2)


def poincare_expansion(spec, n_max, c_max):
    """Truncated expansion of P_{D,r}: entries at every (D' < 0, x') in supp."""
    return _series_expansion(
        spec, n_max, lambda Dp, xp: poincare_coefficient(spec, Dp, xp, c_max),
        mode="numeric", series="poincare", D=spec.D,
    )
