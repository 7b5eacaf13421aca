import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiforms import (
    QuadChar,
    bernoulli,
    bernoulli_poly,
    bessel_j,
    dirichlet_L_nonpositive,
    fundamental_decomposition,
    gamma_half,
    kronecker,
    moebius,
    sigma_twisted,
)
from jacobiforms import numbertheory
from jacobiforms.eisenstein import trivial_coefficient_exact
from jacobiforms.errors import NotADiscriminantError, NotFundamentalError
from jacobiforms.numbertheory import is_fundamental_discriminant, sqrt_mod, zeta_float

from childenv import child_env
from oracles import bernoulli_by_recurrence, dirichlet_L_by_bernoulli_poly, eichler_zagier_coefficient


class TestKronecker:
    def test_trivial_numerator(self):
        assert all(kronecker(1, n) == 1 for n in range(-20, 21))

    def test_examples(self):
        assert kronecker(-4, 3) == -1
        assert kronecker(12, 5) == -1

    def test_sign_at_minus_one(self):
        for n in (-7, -2, 2, 9):
            assert kronecker(n, -1) == (1 if n > 0 else -1)

    def test_mod_eight_rule(self):
        for a in range(-20, 21):
            expected = 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
            assert kronecker(a, 2) == expected

    @given(a=st.integers(-50, 50), m=st.integers(1, 40), n=st.integers(1, 40))
    @settings(max_examples=120, deadline=None)
    def test_bottom_multiplicative(self, a, m, n):
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)

    @given(a=st.integers(-40, 40), b=st.integers(-40, 40), n=st.integers(1, 50))
    @settings(max_examples=120, deadline=None)
    def test_top_multiplicative(self, a, b, n):
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41, 97, 113, 257])
@pytest.mark.parametrize("e", [1, 2, 3])
def test_sqrt_mod_finds_a_root_of_every_square_unit(p, e):
    # p - 1 = 2^s odd with s up to 8 drives the Tonelli-Shanks loop, e >= 2 the
    # lift; a unit is a square mod p^e iff it is one mod p (Euler's criterion)
    q = p**e
    for n in range(1, min(q, 3000)):
        if n % p:
            root = sqrt_mod(n, p, e)
            assert (root is not None) == (pow(n, (p - 1) // 2, p) == 1), n
            assert root is None or root * root % q == n, n


class TestBernoulli:
    def test_numbers(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(6) == Fraction(1, 42)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_tangent_numbers_match_recurrence(self):
        assert all(bernoulli(n) == bernoulli_by_recurrence(n) for n in range(301))

    def test_odd_rank_coefficient_grows_the_table_once(self, a1, monkeypatch):
        # a1 at k = 100 reads B_198 and, through L(-98, chi), B_0..B_99: from an
        # empty table, asking for the larger index first grows it once
        grows = []
        grow = numbertheory._grow_bernoulli

        def counted(m):
            grows.append(m)
            grow(m)

        monkeypatch.setattr(numbertheory, "_BERNOULLI_EVEN", [Fraction(1)])
        monkeypatch.setattr(numbertheory, "_grow_bernoulli", counted)
        dirichlet_L_nonpositive.cache_clear()
        value = trivial_coefficient_exact(a1, 100, Fraction(-1), a1.disc_group.zero)
        dirichlet_L_nonpositive.cache_clear()
        assert grows == [99]
        assert value == eichler_zagier_coefficient(100, 1, 0)

    def test_polynomial_value(self):
        assert bernoulli_poly(2, Fraction(1, 4)) == Fraction(-1, 48)

    @given(n=st.integers(1, 8), num=st.integers(-6, 6), den=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_difference_identity(self, n, num, den):
        x = Fraction(num, den)
        assert bernoulli_poly(n, x + 1) - bernoulli_poly(n, x) == n * x ** (n - 1)


class TestDirichletL:
    def test_zeta_values(self):
        chi1 = QuadChar(1)
        assert dirichlet_L_nonpositive(1, chi1) == Fraction(-1, 12)
        assert dirichlet_L_nonpositive(0, chi1) == Fraction(-1, 2)
        assert dirichlet_L_nonpositive(5, chi1) == Fraction(-1, 252)

    def test_examples(self):
        assert dirichlet_L_nonpositive(0, QuadChar(-4)) == Fraction(1, 2)
        assert dirichlet_L_nonpositive(2, QuadChar(-4)) == Fraction(-1, 2)
        assert dirichlet_L_nonpositive(2, QuadChar(-3)) == Fraction(-2, 9)

    def test_not_fundamental(self):
        with pytest.raises(NotFundamentalError):
            dirichlet_L_nonpositive(1, QuadChar(-12))

    def test_parity_vanishing(self):
        # L(-n, chi_f) = 0 exactly when chi_f(-1) = (-1)^n (n >= 1; and n = 0
        # vanishes for even quadratic characters too)
        for f in (-4, -3, 5, 8):
            chi = QuadChar(f)
            for n in range(0, 7):
                val = dirichlet_L_nonpositive(n, chi)
                obstructed = chi(-1) == (-1) ** n
                assert (val == 0) == obstructed, (f, n, val)

    def test_power_sums_match_bernoulli_polynomials(self):
        discs = [1] + [f for f in range(-399, 400) if is_fundamental_discriminant(f)]
        for f in discs:
            chi = QuadChar(f)
            for n in range(13):
                assert dirichlet_L_nonpositive(n, chi) == dirichlet_L_by_bernoulli_poly(n, chi), (f, n)


class TestFundamentalDecomposition:
    def test_examples(self):
        assert fundamental_decomposition(4) == (1, 2)
        assert fundamental_decomposition(-4) == (-4, 1)
        assert fundamental_decomposition(-12) == (-3, 2)
        assert fundamental_decomposition(8) == (8, 1)
        assert fundamental_decomposition(-16) == (-4, 2)

    def test_rejects_non_discriminant(self):
        for bad in (2, 3, -5, 6, 0):
            with pytest.raises(NotADiscriminantError):
                fundamental_decomposition(bad)

    @given(delta=st.integers(-400, 400))
    @settings(max_examples=120, deadline=None)
    def test_reconstructs(self, delta):
        if delta == 0 or delta % 4 not in (0, 1):
            return
        f, d = fundamental_decomposition(delta)
        assert f * d * d == delta
        assert f == 1 or is_fundamental_discriminant(f)


class TestDivisorSums:
    def test_moebius(self):
        assert moebius(1) == 1
        assert moebius(12) == 0
        assert [moebius(n) for n in (2, 3, 5, 6, 30)] == [-1, -1, -1, 1, -1]

    def test_twisted_sigma(self):
        chi1 = QuadChar(1)
        assert sigma_twisted(chi1, 1, 6) == 12
        assert sigma_twisted(chi1, -5, 2) == 1 + Fraction(1, 32)
        assert sigma_twisted(QuadChar(-3), 0, 6) == 0  # 1 + chi(2) + chi(3) + chi(6)

    @given(m=st.integers(1, 30), n=st.integers(1, 30), t=st.integers(-2, 3))
    @settings(max_examples=60, deadline=None)
    def test_multiplicative(self, m, n, t):
        if math.gcd(m, n) != 1:
            return
        chi = QuadChar(1)
        assert sigma_twisted(chi, t, m * n) == sigma_twisted(chi, t, m) * sigma_twisted(chi, t, n)


class TestGammaHalf:
    def test_examples(self):
        assert gamma_half(6) == (Fraction(2), Fraction(0))
        assert gamma_half(1) == (Fraction(1), Fraction(1, 2))
        assert gamma_half(7) == (Fraction(15, 8), Fraction(1, 2))

    def test_matches_float_gamma(self):
        for two_s in range(1, 20):
            rat, pi_pow = gamma_half(two_s)
            assert float(rat) * math.pi ** float(pi_pow) == pytest.approx(
                math.gamma(two_s / 2), rel=1e-14
            )


class TestZetaFloat:
    def test_known_values(self):
        assert zeta_float(2) == pytest.approx(math.pi**2 / 6, rel=1e-13)
        assert zeta_float(4) == pytest.approx(math.pi**4 / 90, rel=1e-13)
        assert zeta_float(9) == pytest.approx(float(mpmath.zeta(9)), rel=1e-13)

    def test_mpmath_is_imported_on_first_use(self):
        # loading a lattice, as every command does, must not pay for importing mpmath
        root = Path(__file__).resolve().parent.parent
        code = ("import sys, jacobiforms; jacobiforms.load_lattice_json(sys.argv[1]); "
                "print('mpmath' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(root / "lattices" / "a1.json")],
            capture_output=True, text=True, timeout=60,
            env=child_env(),
        )
        assert proc.stdout.strip() == "False", proc.stderr


class TestBesselJ:
    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2 / (pi x)) sin x
        x = math.pi / 2
        assert bessel_j(Fraction(1, 2), x) == pytest.approx(2 / math.pi, rel=1e-12)

    def test_small_argument_leading_term(self):
        for alpha in (Fraction(1, 2), 1, Fraction(7, 2), 5):
            x = 1e-8
            lead = (x / 2) ** float(alpha) / math.gamma(float(alpha) + 1)
            assert bessel_j(alpha, x) == pytest.approx(lead, rel=1e-10)

    def test_value_example(self):
        assert bessel_j(1, 0.1) == pytest.approx(0.049937526036242, rel=1e-12)

    def test_against_mpmath(self):
        for alpha in (0, 1, Fraction(3, 2), Fraction(7, 2), 6, Fraction(17, 2)):
            for x in (0.3, 1.2, 4.0, 9.5, 21.0, 44.0, 59.0):
                ref = float(mpmath.besselj(float(alpha), x))
                assert bessel_j(alpha, x) == pytest.approx(ref, rel=1e-12, abs=1e-290)

    def test_half_integer_closed_forms_past_float_cutoff(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x, J_{3/2}(x) = sqrt(2/(pi x)) (sin x / x - cos x)
        for x in (2.0, 9.5, 30.0, 59.0):
            scale = math.sqrt(2 / (math.pi * x))
            half = scale * math.sin(x)
            three_half = scale * (math.sin(x) / x - math.cos(x))
            assert bessel_j(Fraction(1, 2), x) == pytest.approx(half, rel=1e-12)
            assert bessel_j(Fraction(3, 2), x) == pytest.approx(three_half, rel=1e-12)

    def test_recurrence(self):
        # J_{a-1}(x) + J_{a+1}(x) = (2a/x) J_a(x)
        for alpha in (1, Fraction(3, 2), 4):
            for x in (0.5, 2.0, 7.5, 18.0, 40.0):
                lhs = bessel_j(alpha - 1, x) + bessel_j(alpha + 1, x)
                rhs = 2 * float(alpha) / x * bessel_j(alpha, x)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_series_that_underflows_to_zero_returns(self):
        # J_{337/2}(1.25) ~ 10^-338 is below the smallest float: the series is 0.0 from its
        # first term and must stop there (Poincare at k = 170 on a1 reaches it)
        assert bessel_j(Fraction(337, 2), 1.25) == 0.0

    def test_memo_evaluates_each_argument_once_bit_identically(self):
        # the Poincare weights J_a(4 pi sqrt(D D') / c): equal D D' repeat their
        # arguments, and the float core is memoized on (2 alpha, x)
        args = [(Fraction(19, 2), 4 * math.pi * math.sqrt(15 / 16 * d) / c)
                for d in (7 / 4, 7 / 4, 3 / 4) for c in (1, 2, 3, 40)]
        core = numbertheory._bessel_float
        core.cache_clear()
        got = [bessel_j(*a) for a in args]
        info = core.cache_info()
        assert (info.misses, info.hits) == (len(set(args)), len(args) - len(set(args))) == (8, 4)
        assert got == [core.__wrapped__(19, x) for _, x in args]

    def test_integer_order_to_sixty_four_is_correctly_rounded(self):
        # 1.5 < x <= 64 at integer order: the series in Python ints, rounded once,
        # equals 50-digit mpmath rounded to a float, bit for bit, on a seeded grid
        # and at the first zeros of J_0 and J_1, where the sum is redone at a finer
        # scale
        rng = random.Random(20)
        grid = [(rng.randint(0, 30), rng.uniform(1.5, 64.0)) for _ in range(400)]
        grid += [(0, 2.404825557695773), (1, 3.8317059702075125), (0, 64.0), (30, 1.5000000000000002)]
        for n, x in grid:
            with mpmath.workdps(50):
                ref = float(mpmath.besselj(n, x))
            assert bessel_j(n, x) == ref, (n, x)

    def test_integer_order_past_sixty_four_calls_mpmath(self, monkeypatch):
        calls = []

        def besselj(n, x):
            calls.append((n, x))
            return 0.25

        monkeypatch.setattr(mpmath, "besselj", besselj)
        numbertheory._bessel_float.cache_clear()
        x = math.nextafter(64.0, math.inf)
        assert bessel_j(3, x) == 0.25 and calls == [(3, x)]
        assert bessel_j(3, 64.0) != 0.25 and calls == [(3, x)]
        numbertheory._bessel_float.cache_clear()

    def test_past_sixty_matches_mpmath(self):
        # no range cap: x in (60, 1000] against 50-digit mpmath, where the
        # envelope sqrt(2 / (pi x)) of J is still >= 0.025
        for alpha in (0, 1, Fraction(3, 2), Fraction(7, 2), 6, Fraction(17, 2), Fraction(37, 2)):
            alpha = Fraction(alpha)
            for x in (60.5, 61.0, 113.1, 250.0, 517.3, 999.9, 1000.0):
                with mpmath.workdps(50):
                    ref = mpmath.besselj(mpmath.mpf(alpha.numerator) / alpha.denominator, x)
                assert abs(bessel_j(alpha, x) - ref) <= 1e-16, (alpha, x)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            bessel_j(Fraction(1, 3), 1.0)
