"""Small exact-arithmetic helpers shared across modules.

Everything here works on `fractions.Fraction` so that phases, q-exponents and
coefficient formulas stay exact until the final complex/float rendering.
"""

import cmath
import math
from fractions import Fraction

from .errors import ValidationError

TWO_PI = 2.0 * math.pi


def parse_rational(text):
    """Parse 'p/q' or a plain integer string into a Fraction; anything else,
    a zero denominator included, raises ValidationError naming the form."""
    num, slash, den = text.strip().partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"expected a rational 'p/q' or an integer, got {text!r}") from exc


def format_rational(q):
    """Canonical 'p/q' string with positive denominator."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def frac1(q):
    """Reduce a rational modulo 1 into [0, 1)."""
    q = Fraction(q)
    return q - (q.numerator // q.denominator)


def is_integral(q):
    return Fraction(q).denominator == 1


def unit_phase(q):
    """e(q) = exp(2*pi*i*q) for rational q, reduced mod 1 first.

    Denominators 1, 2 and 4 are returned exactly so that identities such as
    rho(T) = diag(1, i) hold to the last bit.
    """
    q = Fraction(q)
    return unit_phase_ratio(q.numerator, q.denominator)


def unit_phase_ratio(num, den):
    """e(num/den) for integers num and den > 0, as `unit_phase` gives it, with num/den
    reduced mod 1 by one gcd in Python ints rather than through a Fraction."""
    g = math.gcd(num, den)
    den //= g
    num = num // g % den
    if den == 1:
        return 1 + 0j
    if den == 2:
        return -1 + 0j
    if den == 4:
        return (1j) if num == 1 else (-1j)
    return cmath.exp(1j * TWO_PI * (num / den))


def floor_plus_sqrt(a, t):
    """floor(a + sqrt(t)) for rationals a and t >= 0, computed exactly.

    A float estimate seeds the answer and exact comparisons fix it up; the
    loops move by at most a couple of steps.
    """
    a = Fraction(a)
    t = Fraction(t)
    if t < 0:
        raise ValueError("t must be non-negative")
    n = math.floor(float(a) + math.sqrt(float(t)))

    def le(k):  # k <= a + sqrt(t)
        diff = k - a
        return diff <= 0 or diff * diff <= t

    while not le(n):
        n -= 1
    while le(n + 1):
        n += 1
    return n


def ceil_minus_sqrt(a, t):
    """ceil(a - sqrt(t)) for rationals a and t >= 0, computed exactly."""
    return -floor_plus_sqrt(-Fraction(a), t)
