"""Scalar number theory: Kronecker symbol, Ramanujan sums, Bernoulli machinery,
Dirichlet L-values at non-positive integers, discriminant decompositions,
divisor sums, Gamma at half-integers and J-Bessel evaluation.

The Bernoulli numbers come from one table of tangent numbers in Python ints,
grown on demand, and each L-value L(-n, chi) is memoized per (n, chi).

All arithmetic that feeds exact coefficient formulas returns
`fractions.Fraction`; only the Bessel/zeta helpers are floating point.  Those
take small-argument Bessel values from the float power series, half-integer
orders past it from the spherical Bessel recurrences, integer orders up to
x = 64 from the power series in Python ints rounded once, and everything
else from mpmath, imported on first use; the float core is memoized per
(2 alpha, x), and `bessel_j` checks the order on its integer ratio.
"""

import math
from fractions import Fraction
from functools import lru_cache

from ._record import Frozen
from .errors import NotADiscriminantError, NotFundamentalError

_BESSEL_FLOAT_CUTOFF = 1.5
_BESSEL_EXACT_CUTOFF = 64.0


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


def sqrt_mod(n, p, e):
    """A square root of n mod q = p^e for an odd prime p not dividing n, or None if n is no square.

    Tonelli-Shanks in the cyclic group (Z/q)*, of order 2^s odd; a unit is a
    square mod q iff it is one mod p, so z, the least non-square mod p, is a
    non-square there.
    """
    if kronecker(n, p) != 1:
        return None
    q, s, odd = p**e, 0, p ** (e - 1) * (p - 1)
    while odd % 2 == 0:
        s, odd = s + 1, odd // 2
    z = next(z for z in range(2, p) if kronecker(z, p) == -1)
    c, t, r = pow(z, odd, q), pow(n, odd, q), pow(n, (odd + 1) // 2, q)
    while t != 1:  # r^2 = n t mod q, and t has order 2^i for some i < s
        i, t2 = 0, t
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % q
        b = pow(c, 1 << (s - i - 1), q)
        s, c, t, r = i, b * b % q, t * b * b % q, r * b % q
    return r


def ramanujan_sum(p, f, m, twisted):
    """sum_{d in (Z/p^f)*} chi(d) e(d m/p^f), f >= 1, as an exact int: at chi = 1 the
    Ramanujan sum c_{p^f}(m), phi(p^f) if p^f | m, -p^(f-1) if p^(f-1) || m, else 0;
    twisted, chi = (d/p) at odd p, divided by eps_p sqrt(p) (eps_p = 1 or i as p = 1
    or 3 mod 4): p^(f-1) ((m/p^(f-1))/p) if p^(f-1) | m (0 if p^f | m), else 0."""
    low = p ** (f - 1)
    if m % low:
        return 0
    if twisted:
        return low * kronecker(m // low, p)
    return p * low - low if m % (p * low) == 0 else -low


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


class QuadChar(Frozen):
    """Quadratic Dirichlet character a -> (f/a) attached to a discriminant f.

    f = 1 encodes the trivial character (so L(s, chi_1) is the Riemann zeta).
    """

    _fields = ("f",)

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


_BERNOULLI_EVEN = [Fraction(1)]  # B_0, B_2, ..., grown by `_grow_bernoulli`


def _grow_bernoulli(m):
    """Extend the table to B_0, B_2, ..., B_2m from the tangent numbers T_1..T_m.

    Brent and Harvey's recurrence builds T_k in Python ints in O(m^2) steps, and
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).
    """
    t = [0, 1] + [0] * (m - 1)
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    _BERNOULLI_EVEN[len(_BERNOULLI_EVEN):] = [
        Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1))
        for k in range(len(_BERNOULLI_EVEN), m + 1)]


def bernoulli(n):
    """n-th Bernoulli number as an exact rational (B_1 = -1/2), from one table that
    grows, at least twofold, only when a larger index is asked for."""
    if n < 0:
        raise ValueError("bernoulli expects n >= 0")
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    if n // 2 >= len(_BERNOULLI_EVEN):
        _grow_bernoulli(max(n // 2, 2 * len(_BERNOULLI_EVEN)))
    return _BERNOULLI_EVEN[n // 2]


def bernoulli_poly(n, x):
    """Bernoulli polynomial B_n(x) = sum_j C(n, j) B_{n-j} x^j, exactly."""
    x = Fraction(x)
    total = Fraction(0)
    for j in range(n + 1):
        total += math.comb(n, j) * bernoulli(n - j) * x**j
    return total


@lru_cache(maxsize=4096)
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


def zeta_float(s, a=1):
    """Hurwitz zeta sum_{n >= 0} (n + a)^(-s) for real s >= 2 as a float (mpmath);
    a = 1 is Riemann's."""
    if s < 2:
        raise ValueError("zeta_float expects s >= 2")
    import mpmath
    return float(mpmath.zeta(s, a))


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


def _spherical_bessel(n, x):
    """j_n(x) = sqrt(pi / (2x)) J_{n+1/2}(x) for x > 0, from j_0 = sin x / x and
    j_1 = (sin x / x - cos x) / x by j_{k-1} + j_{k+1} = (2k + 1) j_k / x.

    Upward from j_0, j_1 where x >= n, where the recurrence is stable.  Below
    that, j_k decays with k and the upward recurrence loses it, so Miller's
    downward recurrence runs from 0 at an index well past n, rescaled before it
    overflows, and is normalized by whichever of j_0, j_1 is larger in size.
    """
    sin_x, cos_x = math.sin(x), math.cos(x)
    j0, j1 = sin_x / x, (sin_x / x - cos_x) / x
    if n == 0:
        return j0
    if x >= n:
        for k in range(1, n):
            j0, j1 = j1, (2 * k + 1) / x * j1 - j0
        return j1
    above, here, jn = 0.0, 1e-300, 0.0  # j_{k+1} and j_k up to one scale
    for k in range(n + 20 + math.isqrt(40 * n), 0, -1):
        above, here = here, (2 * k + 1) / x * here - above
        if k - 1 == n:
            jn = here
        if abs(here) > 1e250:
            above, here, jn = above * 1e-250, here * 1e-250, jn * 1e-250
    return jn * (j0 / here if abs(j0) >= abs(j1) else j1 / above)


def _bessel_int_series(n, x):
    """J_n(x) for an integer n >= 0 and 1.5 < x <= 64 from its power series in
    Python ints, rounded once.

    With x/2 = m / (2d) exactly (x a float) and z = (x/2)^2 = a / b,
      J_n(x) = m^n / ((2d)^n n!) sum_k (-1)^k t_k,   t_k = z^k / (k! (n + 1)_k),
    and each t_k is carried in fixed point, in units of 2^-P, as
    t_k = t_(k-1) a // (b k (n + k)).  Every t_k is below I_0(x) <= e^x < 2^E,
    E = floor(1.45 x) + 1, and the floor at step j loses under one unit, which
    later steps scale by t_k / t_j < 2^E, so t_k is off by under k 2^E units.
    The sum stops where t_K reaches 0 past K (K + n) > z: the terms alternate
    and shrink there, so the tail is under K 2^E units too.  The error is then
    under 2 K^2 2^E units, and once that is below 2^-96 of the sum, one int
    division rounds it to the nearest float; otherwise, next to a zero of J,
    P grows and the sum is redone.
    """
    m, d = x.as_integer_ratio()
    a, b = m * m, 4 * d * d
    big = int(1.45 * x) + 1  # E
    extra = 64
    while True:
        bits = big + 96 + extra  # P
        t = total = 1 << bits
        k, shrinking = 0, False
        while t or not shrinking:
            k += 1
            step = b * k * (n + k)
            t = t * a // step
            total += -t if k % 2 else t
            shrinking = shrinking or step > a
        if k * k << (big + 97) < abs(total):
            return m**n * total / (math.factorial(n) * (2 * d) ** n << bits)
        extra *= 2


@lru_cache(maxsize=1 << 16)
def _bessel_float(two_alpha, x):
    """J_{two_alpha / 2}(x) for an integer two_alpha >= 0 and a float x > 0; see `bessel_j`."""
    if x <= _BESSEL_FLOAT_CUTOFF:
        return _bessel_series_float(two_alpha / 2, x)
    if two_alpha % 2:
        return math.sqrt(2 * x / math.pi) * _spherical_bessel(two_alpha // 2, x)
    if x <= _BESSEL_EXACT_CUTOFF:
        return _bessel_int_series(two_alpha // 2, x)
    import mpmath
    return float(mpmath.besselj(two_alpha // 2, x))


def bessel_j(alpha, x):
    """J-Bessel function of integer or half-integer index alpha >= 0.

    Up to x = 1.5 the defining power series is summed in floats with
    term-ratio stopping.  Past that, where the series cancels, a half-integer
    alpha = n + 1/2 gives sqrt(2x / pi) j_n(x) (`_spherical_bessel`).  An
    integer alpha up to x = 64 sums the same series in Python ints, within
    2^-96 of its value, and rounds once (`_bessel_int_series`), so there it is
    the correctly rounded J, which mpmath.besselj at its default 53 bits is
    not everywhere: on three seeded grids of 6000 points (alpha <= 30,
    1.5 < x <= 64) it was 1 ulp off at one point each, all at alpha >= 20 and
    |J| < 1e-18, where this route matched 50-digit mpmath at every point.
    Past x = 64 it is mpmath.besselj.  Against 50-digit mpmath the absolute
    error stays below 5e-16 and, where |J| > 1e-6, the relative error below
    1e-11 (measured on x up to 10^6 and alpha up to 30; the relative error
    peaks next to a zero of J, where sin and cos cancel).  The order is
    checked on its integer ratio, and the float core is memoized on
    (2 alpha, x): a Poincare expansion meets each J_alpha(4 pi sqrt(D D') / c)
    once per target sharing D D', and every repeat returns the same float.
    """
    num, den = alpha.as_integer_ratio()
    if num < 0 or den > 2:
        raise ValueError("alpha must be a non-negative integer or half-integer")
    x = float(x)
    if not x > 0:
        raise ValueError("x must be positive")
    return _bessel_float(num * 2 // den, x)
