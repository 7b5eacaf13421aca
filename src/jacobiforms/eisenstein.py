"""Eisenstein series coefficients: exact rationals for the trivial series,
truncated series for everything else, singular terms and full expansions.

The exact route evaluates the closed formula for the trivial series with the
primitive quadratic character throughout the bad-prime product (see the test
suite for the dual-route pins: the Dirichlet series of the same coefficient,
truncated with its tail estimated, the index-one reduction, and the numeric
c-sum all agree).

The numeric route is the guarded c-sum `_series_coefficient`, shared with the
Poincare series: prefactor * sum_{c <= c_max} weight(c) (H_c + (-1)^k H_c(-r)).
Eisenstein weighs by c^(-k), the D -> 0 limit of the Poincare Bessel weight.
Every expansion, exact or numeric, is assembled by `_series_expansion`; a
numeric one hands its support down to `expsums.shared_targets`: the H_c of
every coefficient come from one table for the whole expansion, while each
coefficient keeps its own c-sum.  H_c is a product of one local factor per
prime power q of c.  At D = 0 the factor is a Ramanujan sum or its twist by
(d/p) in closed form where q is prime to 2 det, and quadratic Gauss sums by
recursion once per class of keys (q, (c/q)^-1 mod q) at the primes of 2 det
(one per q on the trivial series), so a numeric Eisenstein request runs in
Python ints and complexes and never loads numpy.
A prefactor that leaves the float range is refused while it is built, and an
infinite tail bound as soon as it is known, both before the first H_c.
`repcounts` and `expsums` are bound lazily (see `_lazy`): an exact request
executes only the counts, and a numeric one only the sums.
"""

import math
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction

from . import expsums, repcounts
from ._record import Frozen
from .errors import (
    ConvergenceDomainError,
    NotIsotropicError,
    OddWeightError,
    OutOfRangeError,
    TailTooLargeError,
)
from .lattice import FourierExpansion, FourierIndex, coset_points, enumerate_supp
from .numbertheory import (
    QuadChar,
    bernoulli,
    dirichlet_L_nonpositive,
    factorize,
    fundamental_decomposition,
    gamma_half,
    zeta_float,
)
from .rationals import is_integral

_IM_TOLERANCE = 1e-9


class EisensteinSpec(Frozen):
    """Weight, lattice and isotropic class indexing an Eisenstein series."""

    _fields = ("lattice", "k", "r")

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("weight must be a positive integer")
        if self.r.beta_mod1 != 0:
            raise NotIsotropicError(f"beta({self.r}) = {self.r.beta_mod1} is not integral")


class CoefficientValue(Frozen):
    """A coefficient together with its series tail estimate (None: no series was summed)."""

    _fields = ("value", "tail_estimate")

    def __float__(self):
        return self.value


def _check_supp(lattice, D, x):
    D = Fraction(D)
    if D >= 0:
        raise ValueError("D must be negative")
    if not is_integral(x.beta_mod1 - D):
        raise ValueError(f"(D={D}, x={x}) is not in supp(L)")
    return D


def _check_convergence(lattice, k):
    if 2 * k <= lattice.rank + 4:
        raise ConvergenceDomainError(
            f"weight {k} is not above the convergence bound rank/2 + 2 = {lattice.rank / 2 + 2}"
        )


def theta_coefficients(lattice, x, n_max):
    """q-exponent -> #{r = x mod L : beta(r) = n}, for n <= n_max."""
    n_max = Fraction(n_max)
    counts = Counter(lattice.beta(pt) for pt in coset_points(lattice, x, n_max))
    return dict(sorted(counts.items()))


def singular_term(spec, n_max):
    """D = 0 part of the Eisenstein expansion: (delta(r,x) + (-1)^k delta(-r,x)) / 2."""
    n_max = Fraction(n_max)
    sign = (-1) ** spec.k
    group = spec.lattice.disc_group
    neg_r = group.neg(spec.r)
    entries = {}
    if n_max >= 0:
        for x in sorted({spec.r, neg_r}, key=group.index):
            val = Fraction(int(x == spec.r) + sign * int(x == neg_r), 2)
            if val:
                entries[FourierIndex(D=Fraction(0), x=x)] = val
    return FourierExpansion(
        weight=spec.k,
        lattice=spec.lattice,
        entries=entries,
        n_max=n_max,
        mode="exact",
        series="eisenstein",
        r_coords=spec.r.coords,
    )


def _coprime_square_split(D, det):
    """D = D0 * f^2 with gcd(f, 2 det) = 1 and ord_p(D0) in {0, 1} off 2 det."""
    D = Fraction(D)
    f = math.prod(p ** (e // 2) for p, e in factorize(abs(D.numerator)) if (2 * det) % p)
    return D / (f * f), f


def trivial_coefficient_exact(lattice, k, D, x):
    """Exact rational Fourier coefficient G_0(D, x) of the trivial Eisenstein series.

    Even rank:
        2 (-1)^ceil(rank/4) (-D |f1|)^(k - rank/2 - 1)
        / (d1 * L(1 - k + rank/2, chi_f1))
        * prod_{p | 2 Dt det} L~_p(k-1) / (1 - chi_f1(p) p^(rank/2 - k))
    with Delta = f1 d1^2, f1 the field discriminant.  Odd rank analogously via
    Dt0 * Delta = f2 d2^2, Bernoulli number B_{2k - rank - 1} and the extra
    (1 - p^(1 - 2k + rank)) denominators.  Odd weights give 0.
    """
    D = _check_supp(lattice, D, x)
    _check_convergence(lattice, k)
    if k % 2 == 1:
        return Fraction(0)
    rank, det = lattice.rank, lattice.det
    bad = repcounts.bad_primes(lattice, x, D)
    if rank % 2 == 0:
        f1, d1 = fundamental_decomposition(lattice.delta)
        chi = QuadChar(f1)
        n1 = k - rank // 2 - 1
        lval = dirichlet_L_nonpositive(n1, chi)
        result = 2 * Fraction(-1) ** ((rank + 3) // 4) * (-D * abs(f1)) ** n1 / (d1 * lval)
        for p in bad:
            result *= repcounts.local_factor(lattice, x, D, p, k - 1)
            result /= 1 - chi(p) * Fraction(p) ** (rank // 2 - k)
        return result
    # odd rank
    half_up = (rank + 1) // 2
    d0, f = _coprime_square_split(D, det)
    dt0 = d0 * x.order**2
    assert is_integral(dt0)
    dt0 = int(dt0)
    f2, d2 = fundamental_decomposition(dt0 * lattice.delta)
    chi = QuadChar(f2)
    n2 = k - half_up - 1
    sqrt_part = -D * x.order / f  # exact value of (D * Dt0)^(1/2)
    numerator = Fraction(2) ** (2 * k - rank) * (k - half_up) * sqrt_part * (-D) ** n2
    # B_{2k - rank - 1} before L(-n2, chi), which reads B_0..B_{n2 + 1}: the
    # Bernoulli table grows once to the larger index, not twice
    denominator = (
        Fraction(-1) ** (half_up + rank // 4)
        * bernoulli(2 * k - rank - 1)
        * d2
        * Fraction(abs(f2)) ** (k - half_up)
    )
    result = numerator / denominator * dirichlet_L_nonpositive(n2, chi)
    for p in bad:
        result *= 1 - chi(p) * Fraction(p) ** (half_up - k)
        result /= 1 - Fraction(p) ** (1 - 2 * k + rank)
        result *= repcounts.local_factor(lattice, x, D, p, k - 1)
    return result


def trivial_coefficient_series(lattice, k, D, x, B):
    """G_0(D, x) by the representation-number Dirichlet series, truncated at B
    with its tail estimated.

    (2 pi)^(k - rank/2) i^k (-D)^(k - rank/2 - 1)
    / (2 det^(1/2) Gamma(k - rank/2) zeta(k - rank)) * sum_b 2 R_b / b^(k-1).
    The terms b <= B are summed; R_b / b^(rank-1) has a mean, so the tail b > B
    is taken as M zeta(k - rank, B + 1) (Hurwitz zeta), M the mean of
    R_b / b^(rank-1) over B/2 < b <= B.  Only the R_b, b <= B, are read, never
    the local factors, so the route stays independent of the closed formula;
    float result.
    """
    D = _check_supp(lattice, D, x)
    if k % 2 == 1:
        raise OddWeightError("the series normalization assumes even weight")
    rank, det = lattice.rank, lattice.det
    if k - 1 <= rank:
        raise ConvergenceDomainError(f"need k - 1 > rank, got k={k}, rank={rank}")
    gam_rat, gam_pi = gamma_half(2 * k - rank)
    gamma_val = float(gam_rat) * math.pi ** float(gam_pi)
    pref = (
        (2 * math.pi) ** (k - rank / 2)
        * (-1) ** (k // 2)
        * float(-D) ** (k - rank / 2 - 1)
        / (2 * math.sqrt(det) * gamma_val * zeta_float(k - rank))
    )
    counts = repcounts.representation_numbers(lattice, x, D, B)
    partial = math.fsum(rb * float(b) ** (1 - k) for b, rb in enumerate(counts, start=1))
    half = len(counts) // 2
    mean = math.fsum(rb / float(b) ** (rank - 1)
                     for b, rb in enumerate(counts[half:], start=half + 1)) / (len(counts) - half)
    return pref * 2 * (partial + mean * zeta_float(k - rank, len(counts) + 1))


def _float_or_refuse(k, what, build):
    """build(), refused with OutOfRangeError naming k and `what` when it overflows a float."""
    try:
        value = build()
    except OverflowError:
        value = math.inf
    if not math.isfinite(abs(value)):
        raise OutOfRangeError(f"weight k={k}: {what} overflows a float")
    return value


def _series_coefficient(lattice, k, D, r, Dp, xp, c_max, pref, weight, tail, value=-0.0):
    """value + Re(pref * sum_{c <= c_max} weight(c) (H_c + (-1)^k H_c(-r))), guarded.

    The sum is real for either parity, so an imaginary residue is a bug.  The
    a-priori bound tail() (0 when k is odd and r = -r: every term vanishes) must
    be <= 1e-3 (1 + |value|), else TailTooLargeError; the singular term sets the
    scale 1.  tail() does not depend on the value, so an infinite one is
    refused before the first H_c.  The default start -0.0 is the additive identity.
    """
    tail = 0.0 if k % 2 == 1 and lattice.disc_group.neg(r) == r else tail()
    if math.isinf(tail):
        raise TailTooLargeError(f"tail estimate inf at k={k}, rank {lattice.rank}: no c_max "
                                f"bounds the tail of this c-sum, so it is not summed")
    total = 0j
    for c, z in expsums.h_series_terms(lattice, D, r, Dp, xp, k, c_max):
        total += weight(c) * z
    raw = pref * total
    if abs(raw.imag) > _IM_TOLERANCE * max(1.0, abs(raw.real)):
        raise AssertionError(f"imaginary residue {raw.imag} exceeds tolerance")
    value += raw.real
    if tail > 1e-3 * (1.0 + abs(value)):
        raise TailTooLargeError(
            f"tail estimate {tail} exceeds 1e-3 * (1 + |value|) = {1e-3 * (1 + abs(value))}"
        )
    return CoefficientValue(value=value, tail_estimate=tail)


def _series_expansion(spec, n_max, coefficient, entries=(), reads_h=True, **fields):
    """Expansion of `spec`: `entries` plus coefficient(D', x') at every D' < 0 in
    supp up to n_max, reporting the largest tail estimate among them (None if
    no coefficient summed a series).  Coefficients that read H_c (`reads_h`)
    share one table of it.  `fields` go to FourierExpansion."""
    n_max = Fraction(n_max)
    entries = dict(entries)
    tail = None
    support = [idx for idx in enumerate_supp(spec.lattice, n_max) if idx.D < 0]
    targets = [(idx.D, idx.x) for idx in support]
    with expsums.shared_targets(targets) if reads_h else nullcontext():
        for idx in support:
            coeff = coefficient(idx.D, idx.x)
            entries[idx] = coeff.value
            if coeff.tail_estimate is not None:
                tail = coeff.tail_estimate if tail is None else max(tail, coeff.tail_estimate)
    return FourierExpansion(weight=spec.k, lattice=spec.lattice, entries=entries, n_max=n_max,
                            r_coords=spec.r.coords, tail_estimate=tail, **fields)


def eisenstein_coefficient_numeric(spec, Dp, xp, c_max):
    """Numeric coefficient of E_r at (D', x') by the truncated c-sum.

    Weight c^(-k); tail estimate |prefactor| * 2 det c_max^(rank + 1 - k) / (k - rank - 1).
    """
    lattice, k, r = spec.lattice, spec.k, spec.r
    Dp = _check_supp(lattice, Dp, xp)
    _check_convergence(lattice, k)
    if c_max < 1:
        raise ValueError("c_max must be positive")
    rank, det = lattice.rank, lattice.det
    gam_rat, gam_pi = gamma_half(2 * k - rank)
    pref = _float_or_refuse(k, "the series prefactor", lambda: (
        (2 * math.pi) ** (k - rank / 2)
        * (1j) ** k
        * float(-Dp) ** (k - rank / 2 - 1)
        / (2 * math.sqrt(det) * (float(gam_rat) * math.pi ** float(gam_pi)))
    ))

    def tail():
        if k - rank - 1 <= 0:
            return math.inf
        return abs(pref) * 2 * det * float(c_max) ** (rank + 1 - k) / (k - rank - 1)

    return _series_coefficient(lattice, k, Fraction(0), r, Dp, xp, c_max, pref,
                               lambda c: float(c) ** (-k), tail)


def eisenstein_expansion(spec, n_max, mode, c_max=1000):
    """Full truncated expansion of E_r: singular term plus D' < 0 coefficients.

    mode 'exact' (trivial series only: r = 0; odd weights give the all-zero
    expansion) or 'numeric' (any isotropic r).
    """
    if mode not in ("exact", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    lattice, k, r = spec.lattice, spec.k, spec.r
    if mode == "exact" and r != lattice.disc_group.zero:
        raise ValueError("exact mode covers only the trivial series (r = 0); "
                         "use the averaging relations for other classes")

    def coefficient(D, x):
        if mode == "exact":
            return CoefficientValue(trivial_coefficient_exact(lattice, k, D, x), None)
        return eisenstein_coefficient_numeric(spec, D, x, c_max)

    return _series_expansion(spec, n_max, coefficient, singular_term(spec, n_max).entries,
                             reads_h=mode == "numeric", mode=mode, series="eisenstein")
