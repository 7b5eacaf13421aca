"""Scalar number theory: Kronecker symbol, Bernoulli machinery, Dirichlet
L-values at non-positive integers, discriminant decompositions, divisor sums,
Gamma at half-integers and J-Bessel evaluation.

All arithmetic that feeds exact coefficient formulas returns
`fractions.Fraction`; only the Bessel/zeta helpers are floating point.  Those
take small-argument Bessel values from the float power series and everything
else from mpmath, imported on first use, memoized per (alpha, x).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NotADiscriminantError, NotFundamentalError

_BESSEL_FLOAT_CUTOFF = 1.5


def kronecker(a, n):
    """Kronecker symbol (a/n), defined for all integer pairs.

    Completely multiplicative in both arguments; (a/2) follows the mod-8 rule
    and (a/-1) = sign(a) (with (0/-1) = 1).
    """
    a = int(a)
    n = int(n)
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if a % 8 in (3, 5):
                result = -result
    # Jacobi-symbol reciprocity loop for odd n.
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@lru_cache(maxsize=None)
def factorize(n):
    """Prime factorization of n >= 1 by trial division, as a tuple of (p, e)."""
    n = int(n)
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    p = 5
    step = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += step
        step = 6 - step  # 5, 7, 11, 13, ... wheel
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors(n):
    """All positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


def moebius(n):
    """Moebius function of n >= 1."""
    if n < 1:
        raise ValueError("moebius expects a positive integer")
    result = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        result = -result
    return result


def _is_squarefree(n):
    return all(e == 1 for _, e in factorize(n))


def is_fundamental_discriminant(f):
    """True for the discriminant of a quadratic field (f != 1)."""
    f = int(f)
    if f == 0 or f == 1:
        return False
    if f % 4 == 1:
        return _is_squarefree(abs(f))
    if f % 4 == 0:
        m = f // 4
        return m % 4 in (2, 3) and _is_squarefree(abs(m))
    return False


@dataclass(frozen=True)
class QuadChar:
    """Quadratic Dirichlet character a -> (f/a) attached to a discriminant f.

    f = 1 encodes the trivial character (so L(s, chi_1) is the Riemann zeta).
    """

    f: int

    def __post_init__(self):
        if self.f != 1 and self.f % 4 not in (0, 1):
            raise NotADiscriminantError(f"{self.f} is not 0 or 1 mod 4")

    def __call__(self, a):
        return kronecker(self.f, a)

    @property
    def modulus(self):
        return abs(self.f)


def sigma_twisted(chi, t, n):
    """Twisted divisor sum sigma_t^chi(n) = sum_{d | n} chi(d) d^t.

    t may be negative; the result is an exact rational.
    """
    if n < 1:
        raise ValueError("sigma_twisted expects a positive integer")
    total = Fraction(0)
    for d in divisors(n):
        c = chi(d)
        if c:
            total += c * Fraction(d) ** t
    return total


@lru_cache(maxsize=None)
def bernoulli(n):
    """n-th Bernoulli number as an exact rational (B_1 = -1/2)."""
    if n < 0:
        raise ValueError("bernoulli expects n >= 0")
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2 == 1:
        return Fraction(0)
    total = Fraction(0)
    for j in range(n):
        total += math.comb(n + 1, j) * bernoulli(j)
    return -total / (n + 1)


def bernoulli_poly(n, x):
    """Bernoulli polynomial B_n(x) = sum_j C(n, j) B_{n-j} x^j, exactly."""
    x = Fraction(x)
    total = Fraction(0)
    for j in range(n + 1):
        total += math.comb(n, j) * bernoulli(n - j) * x**j
    return total


def dirichlet_L_nonpositive(n, chi):
    """L(-n, chi_f) as an exact rational, for n >= 0.

    With m = |f|, the Bernoulli-polynomial expression
    L(-n, chi_f) = -(m^n / (n+1)) * sum_{j=1..m} chi_f(j) B_{n+1}(j / m),
    expanded by B_{n+1}(x) = sum_i C(n+1, i) B_{n+1-i} x^i, becomes
    L(-n, chi_f) = -(1/(n+1)) * sum_{i=0..n+1} C(n+1, i) B_{n+1-i} S_i m^(n-i)
    with the power sums S_i = sum_{j=1..m} chi_f(j) j^i taken in Python ints.
    For f = 1 this is zeta(-n), with zeta(0) = -1/2.
    """
    if n < 0:
        raise ValueError("dirichlet_L_nonpositive expects n >= 0")
    if chi.f != 1 and not is_fundamental_discriminant(chi.f):
        raise NotFundamentalError(f"{chi.f} is not 1 or a fundamental discriminant")
    m = chi.modulus
    sums = [0] * (n + 2)
    for j in range(1, m + 1):
        power = chi(j)
        if power:
            for i in range(n + 2):
                sums[i] += power
                power *= j
    # every term carries one factor m more than the formula, taken out at the end
    total = sum(
        math.comb(n + 1, i) * bernoulli(n + 1 - i) * sums[i] * m ** (n + 1 - i)
        for i in range(n + 2)
    )
    return -total / (m * (n + 1))


def fundamental_decomposition(delta):
    """Write a discriminant delta as f * d^2 with f the discriminant of Q(sqrt(delta)).

    Returns (f, d) with d a positive integer; f = 1 when delta is a perfect square.
    """
    delta = int(delta)
    if delta == 0 or delta % 4 not in (0, 1):
        raise NotADiscriminantError(f"{delta} is not a discriminant")
    sign = 1 if delta > 0 else -1
    squarefree = sign
    d = 1
    for p, e in factorize(abs(delta)):
        if e % 2:
            squarefree *= p
        d *= p ** (e // 2)
    if squarefree % 4 == 1:
        return squarefree, d
    # squarefree = 2, 3 mod 4 forces delta = 0 mod 4 and d even
    assert d % 2 == 0
    return 4 * squarefree, d // 2


def gamma_half(two_s):
    """Gamma(two_s / 2) as (rational, pi_exponent) with pi_exponent in {0, 1/2}.

    Examples: Gamma(3) = (2, 0); Gamma(7/2) = (15/8, 1/2).
    """
    two_s = int(two_s)
    if two_s < 1:
        raise ValueError("gamma_half expects a positive integer 2s")
    if two_s % 2 == 0:
        return Fraction(math.factorial(two_s // 2 - 1)), Fraction(0)
    m = (two_s - 1) // 2  # Gamma(m + 1/2)
    return Fraction(math.factorial(2 * m), 4**m * math.factorial(m)), Fraction(1, 2)


def zeta_float(s):
    """Riemann zeta for real s >= 2 as a float (mpmath)."""
    if s < 2:
        raise ValueError("zeta_float expects s >= 2")
    import mpmath
    return float(mpmath.zeta(s))


def _bessel_series_float(alpha, x):
    half = 0.5 * x
    term = half**alpha / math.gamma(alpha + 1.0)
    total = term
    ratio = -half * half
    n = 0
    while True:
        n += 1
        term *= ratio / (n * (n + alpha))
        total += term
        if abs(term) <= 1e-18 * abs(total) and n > half:  # <=: the sum may underflow to 0
            return total


@lru_cache(maxsize=1 << 16)
def bessel_j(alpha, x):
    """J-Bessel function of integer or half-integer index alpha >= 0.

    Up to x = 1.5 the defining power series is summed in floats with
    term-ratio stopping; past that, where the series cancels, the value is
    mpmath.besselj, which serves every x > 0.  Against 50-digit mpmath the
    absolute error stays below 1e-15 and, where |J| > 1e-6, the relative error
    below 1e-14 (measured on x up to 10^6 and alpha up to 30).  Memoized on
    (alpha, x): a Poincare expansion meets each J_alpha(4 pi sqrt(D D') / c)
    once per target sharing D D', and every repeat returns the same float.
    """
    alpha = Fraction(alpha)
    if alpha < 0 or (2 * alpha).denominator != 1:
        raise ValueError("alpha must be a non-negative integer or half-integer")
    x = float(x)
    if not x > 0:
        raise ValueError("x must be positive")
    a = float(alpha)
    if x <= _BESSEL_FLOAT_CUTOFF:
        return _bessel_series_float(a, x)
    import mpmath
    return float(mpmath.besselj(a, x))
