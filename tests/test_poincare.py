import math
from fractions import Fraction

import pytest

from jacobiforms import (
    PoincareSpec,
    petersson_constant,
    poincare_coefficient,
    poincare_expansion,
)
from jacobiforms import expsums
from jacobiforms.errors import ConvergenceDomainError, TailTooLargeError
from jacobiforms.lattice import enumerate_supp
from jacobiforms.numbertheory import bessel_j, gamma_half

from oracles import walk_keys


class TestPeterssonConstant:
    def test_rank_one_example(self, a1):
        spec = PoincareSpec(lattice=a1, k=5, D=Fraction(-1), r=a1.disc_group.zero)
        lam = petersson_constant(spec)
        assert lam.mantissa == Fraction(15, 2048)
        assert lam.pi_power == -3
        assert lam.sqrt_arg == 1
        assert lam.value == pytest.approx(15 / (2048 * math.pi**3), rel=1e-15)

    def test_scaling_law_exact(self, a1):
        # lambda(D) / lambda(D') = (D / D')^(-k + rank/2 + 1), checked exactly
        k = 7
        group = a1.disc_group
        d1, d2 = Fraction(-1), Fraction(-3)
        l1 = petersson_constant(PoincareSpec(lattice=a1, k=k, D=d1, r=group.zero))
        l2 = petersson_constant(PoincareSpec(lattice=a1, k=k, D=d2, r=group.zero))
        exponent = 2 * (-k + Fraction(a1.rank, 2) + 1)
        assert exponent.denominator == 1
        lhs = (l1.mantissa / l2.mantissa) ** 2 * (l1.sqrt_arg / l2.sqrt_arg)
        assert lhs == (d1 / d2) ** int(exponent)

    def test_positive(self, test_lattices):
        for lat in test_lattices:
            group = lat.disc_group
            spec = PoincareSpec(lattice=lat, k=lat.rank + 4, D=Fraction(-1), r=group.zero)
            assert petersson_constant(spec).value > 0

    def test_even_rank_structure(self, square2):
        spec = PoincareSpec(lattice=square2, k=6, D=Fraction(-1), r=square2.disc_group.zero)
        lam = petersson_constant(spec)
        assert lam.sqrt_arg == Fraction(1, 4)
        expected = (
            2.0 ** (-2 * 6 + 1 + 2) * math.gamma(6 - 2) / 2.0 * math.pi ** (-4)
        )
        assert lam.value == pytest.approx(expected, rel=1e-14)

    def test_convergence_guard(self, square2):
        spec = PoincareSpec(lattice=square2, k=4, D=Fraction(-1), r=square2.disc_group.zero)
        with pytest.raises(ConvergenceDomainError):
            petersson_constant(spec)


class TestPoincareCoefficient:
    def test_delta_only_off_orbit(self, a1):
        # (D', x') different from (D, +-r): the c_max=0 evaluation is exactly 0
        group = a1.disc_group
        spec = PoincareSpec(lattice=a1, k=10, D=Fraction(-1), r=group.zero)
        val = poincare_coefficient(spec, Fraction(-2), group.zero, 0)
        assert val.value == 0.0

    def test_delta_double(self, a1):
        group = a1.disc_group
        spec = PoincareSpec(lattice=a1, k=10, D=Fraction(-1), r=group.zero)
        assert poincare_coefficient(spec, Fraction(-1), group.zero, 0).value == 2.0

    def test_delta_single(self, a2):
        group = a2.disc_group
        r = group.element((1,))
        D = r.beta_mod1 - 1
        spec = PoincareSpec(lattice=a2, k=10, D=D, r=r)
        assert poincare_coefficient(spec, D, r, 0).value == 1.0

    def test_stable_under_cmax(self, a1):
        group = a1.disc_group
        xh = group.element((1,))
        spec = PoincareSpec(lattice=a1, k=10, D=Fraction(-3, 4), r=xh)
        v1 = poincare_coefficient(spec, Fraction(-3, 4), xh, 500)
        v2 = poincare_coefficient(spec, Fraction(-3, 4), xh, 1000)
        assert abs(v1.value - v2.value) <= 1e-8

    def test_past_the_old_bessel_cap(self, a1):
        # 4 pi sqrt(D D') = 20 pi > 60 at c = 1: the c-sum converges, and at c_max 10
        # it is refused by its tail guard (tail ~5e6), not by a range on the argument
        group = a1.disc_group
        spec = PoincareSpec(lattice=a1, k=10, D=Fraction(-25), r=group.zero)
        v500 = poincare_coefficient(spec, Fraction(-25), group.zero, 500)
        v1000 = poincare_coefficient(spec, Fraction(-25), group.zero, 1000)
        assert abs(v500.value - v1000.value) <= 1e-8
        with pytest.raises(TailTooLargeError):
            poincare_coefficient(spec, Fraction(-25), group.zero, 10)

    def test_convergence_guard(self, square2):
        spec = PoincareSpec(lattice=square2, k=4, D=Fraction(-1), r=square2.disc_group.zero)
        with pytest.raises(ConvergenceDomainError):
            poincare_coefficient(spec, Fraction(-1), square2.disc_group.zero, 10)


class TestPoincareExpansion:
    def test_cusp_support(self, a1):
        spec = PoincareSpec(lattice=a1, k=10, D=Fraction(-1), r=a1.disc_group.zero)
        expansion = poincare_expansion(spec, 2, 50)
        assert expansion.entries
        assert all(idx.D < 0 for idx in expansion.entries)
        assert all(idx in enumerate_supp(a1, 2) for idx in expansion.entries)

    def test_sign_symmetry(self, a1):
        group = a1.disc_group
        xh = group.element((1,))
        for k in (9, 10):
            pos = poincare_expansion(
                PoincareSpec(lattice=a1, k=k, D=Fraction(-3, 4), r=xh), 2, 80
            )
            neg = poincare_expansion(
                PoincareSpec(lattice=a1, k=k, D=Fraction(-3, 4), r=group.neg(xh)), 2, 80
            )
            for idx, val in pos.entries.items():
                assert neg.entries[idx] == pytest.approx((-1) ** k * val, abs=1e-9)

    def test_odd_weight_two_torsion_vanishes(self, a1_scaled4):
        group = a1_scaled4.disc_group
        x4 = group.element((4,))  # x = -x
        D = Fraction(-1)
        spec = PoincareSpec(lattice=a1_scaled4, k=13, D=D, r=x4)
        expansion = poincare_expansion(spec, 1, 60)
        assert all(abs(v) <= 1e-9 for v in expansion.entries.values())


class TestBridgeToEisenstein:
    def test_small_D_limit(self, a1):
        # Poincare c-term tends to the Eisenstein prefactor * c^{-k} as D -> 0-
        k, rank, det = 10, a1.rank, a1.det
        Dp = Fraction(-1)
        gam_rat, gam_pi = gamma_half(2 * k - rank)
        gamma_val = float(gam_rat) * math.pi ** float(gam_pi)
        for D, tol in ((Fraction(-1, 1000), 0.01), (Fraction(-1, 10000), 0.001)):
            for c in (1, 2, 5):
                alpha = Fraction(2 * k - rank - 2, 2)
                arg = 4 * math.pi * math.sqrt(float(D * Dp)) / c
                lhs = (
                    2 * math.pi / math.sqrt(det)
                    * float(Dp / D) ** ((k - rank / 2 - 1) / 2)
                    * bessel_j(alpha, arg)
                    * c ** (-rank / 2 - 1)
                )
                rhs = (
                    (2 * math.pi) ** (k - rank / 2)
                    * float(-Dp) ** (k - rank / 2 - 1)
                    / (math.sqrt(det) * gamma_val)
                    * c ** (-k)
                )
                assert abs(lhs - rhs) <= tol * abs(rhs)


# (lattice fixture, k, D, r, n_max, c_max): a1 and a2 at n_max 2, a1_scaled4 at
# r = 4 (16 entries over 8 classes), A3 at n_max 1 (4 classes)
POINCARE_EXPANSIONS = [
    ("a1", 10, Fraction(-1), (0,), 2, 40),
    ("a1_scaled4", 10, Fraction(-1), (4,), 2, 40),
    ("a2", 10, Fraction(-2, 3), (1,), 2, 40),
    ("a3", 10, Fraction(-5, 8), (1,), 1, 20),
]


class TestSharedWalk:
    @pytest.mark.parametrize("name, k, D, r, n_max, c_max", POINCARE_EXPANSIONS)
    def test_entries_equal_lone_coefficients(self, request, name, k, D, r, n_max, c_max):
        lattice = request.getfixturevalue(name)
        spec = PoincareSpec(lattice=lattice, k=k, D=D, r=lattice.disc_group.element(r))
        expansion = poincare_expansion(spec, n_max, c_max)
        assert len(expansion.entries) >= 4
        for idx, value in expansion.entries.items():
            assert value == poincare_coefficient(spec, idx.D, idx.x, c_max).value, idx

    def test_expansion_walks_once_per_c(self, a2, monkeypatch):
        # one Gauss-sum recursion per key (c_b, c_g^-1 mod c_b) for all 6
        # coefficients, at the c_b > 1 made of 2 and 3 only, and none at a c prime
        # to 2 det = 6
        walks = []
        bad_part = expsums._bad_part

        def counted(data, c_b, a):
            walks.append(c_b)
            return bad_part(data, c_b, a)

        monkeypatch.setattr(expsums, "_bad_part", counted)
        spec = PoincareSpec(lattice=a2, k=10, D=Fraction(-2, 3), r=a2.disc_group.element((1,)))
        expansion = poincare_expansion(spec, 2, 30)
        assert len(expansion.entries) == 6
        assert walks == [c_b for c_b, _ in walk_keys(3, 30)]
        assert len(walks) == 14 and all(c > 1 and 6**10 % c == 0 for c in walks)
