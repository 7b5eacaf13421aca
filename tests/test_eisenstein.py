import json
from fractions import Fraction

import pytest

from jacobiforms import (
    EisensteinSpec,
    eisenstein_coefficient_numeric,
    eisenstein_expansion,
    singular_term,
    theta_coefficients,
    trivial_coefficient_exact,
    trivial_coefficient_series,
)
from jacobiforms.errors import (
    ConvergenceDomainError,
    NotIsotropicError,
    OddWeightError,
    TailTooLargeError,
)
from jacobiforms import expsums
from jacobiforms.lattice import FourierIndex
from jacobiforms.rationals import parse_rational

from oracles import (
    brute_coset_counts,
    e8_trivial_coefficient,
    eichler_zagier_coefficient,
    walk_keys,
)


class TestThetaCoefficients:
    def test_a1_zero_class(self, a1):
        counts = theta_coefficients(a1, a1.disc_group.zero, 2)
        assert counts[Fraction(0)] == 1
        assert counts[Fraction(1)] == 2

    def test_a1_half_class(self, a1):
        counts = theta_coefficients(a1, a1.disc_group.element((1,)), 1)
        assert counts[Fraction(1, 4)] == 2

    def test_nonzero_class_has_no_constant(self, test_lattices):
        for lat in test_lattices:
            for x in lat.disc_group:
                if x.coords == lat.disc_group.zero.coords:
                    continue
                assert Fraction(0) not in theta_coefficients(lat, x, 1)

    def test_matches_bruteforce(self, a2):
        for x in a2.disc_group:
            expected = {
                n: c for n, c in brute_coset_counts(a2.gram, x.rep, 2).items()
            }
            assert theta_coefficients(a2, x, 2) == expected


class TestSingularTerm:
    def test_trivial_even(self, a1):
        spec = EisensteinSpec(lattice=a1, k=4, r=a1.disc_group.zero)
        entries = singular_term(spec, 1).entries
        assert entries == {FourierIndex(Fraction(0), a1.disc_group.zero): Fraction(1)}

    def test_trivial_odd_empty(self, a1):
        spec = EisensteinSpec(lattice=a1, k=5, r=a1.disc_group.zero)
        assert singular_term(spec, 1).entries == {}

    def test_two_torsion_class(self, a1_scaled4):
        group = a1_scaled4.disc_group
        x4 = group.element((4,))
        spec = EisensteinSpec(lattice=a1_scaled4, k=4, r=x4)
        entries = singular_term(spec, 1).entries
        assert entries == {FourierIndex(Fraction(0), x4): Fraction(1)}

    def test_order_three_half_weights(self):
        from jacobiforms import make_lattice

        lat = make_lattice([[18]])
        group = lat.disc_group
        x6 = group.element((6,))
        assert x6.order == 3 and x6.beta_mod1 == 0
        spec = EisensteinSpec(lattice=lat, k=4, r=x6)
        entries = singular_term(spec, 0).entries
        assert entries[FourierIndex(Fraction(0), x6)] == Fraction(1, 2)
        assert entries[FourierIndex(Fraction(0), group.neg(x6))] == Fraction(1, 2)


class TestTrivialExact:
    def test_index_one_values(self, a1):
        group = a1.disc_group
        assert trivial_coefficient_exact(a1, 4, Fraction(-1), group.zero) == 126
        assert trivial_coefficient_exact(a1, 4, Fraction(-3, 4), group.element((1,))) == 56

    def test_matches_index_one_oracle(self, a1):
        group = a1.disc_group
        for k in (4, 6, 8, 10):
            for n in (1, 2, 3):
                # class 0 corresponds to even r in the classical indexing
                assert trivial_coefficient_exact(
                    a1, k, Fraction(-n), group.zero
                ) == eichler_zagier_coefficient(k, n, 0)
                assert trivial_coefficient_exact(
                    a1, k, Fraction(1, 4) - n, group.element((1,))
                ) == eichler_zagier_coefficient(k, n, 1)

    def test_matches_e8_oracle(self, e8):
        # J_{k,E8} = M_{k-4}: the theta series of E8 at k = 8
        assert [e8_trivial_coefficient(8, -n) for n in (1, 2, 3, 4)] == [240, 2160, 6720, 17520]
        x0 = e8.disc_group.zero
        for k in (8, 10, 12):
            for D in (-1, -2, -3, -4):
                assert trivial_coefficient_exact(e8, k, Fraction(D), x0) == e8_trivial_coefficient(k, D)

    def test_odd_weight_zero(self, a1, square2):
        assert trivial_coefficient_exact(a1, 5, Fraction(-1), a1.disc_group.zero) == 0
        assert trivial_coefficient_exact(square2, 7, Fraction(-1), square2.disc_group.zero) == 0

    def test_convergence_guard(self, square2):
        with pytest.raises(ConvergenceDomainError):
            trivial_coefficient_exact(square2, 3, Fraction(-1), square2.disc_group.zero)

    def test_supp_validation(self, a1):
        with pytest.raises(ValueError):
            trivial_coefficient_exact(a1, 4, Fraction(-1, 2), a1.disc_group.zero)

    def test_rationality(self, test_lattices):
        for lat in test_lattices:
            from jacobiforms.lattice import enumerate_supp

            for idx in enumerate_supp(lat, 2):
                if idx.D >= 0:
                    continue
                val = trivial_coefficient_exact(lat, 6, idx.D, idx.x)
                assert isinstance(val, Fraction)


class TestTrivialSeries:
    def test_index_one_agreement(self, a1):
        val = trivial_coefficient_series(a1, 4, Fraction(-1), a1.disc_group.zero, 5000)
        assert val == pytest.approx(126, abs=1e-2)

    def test_dual_path_square2(self, square2):
        x0 = square2.disc_group.zero
        exact = trivial_coefficient_exact(square2, 6, Fraction(-1), x0)
        series = trivial_coefficient_series(square2, 6, Fraction(-1), x0, 5000)
        assert abs(float(exact) - series) <= max(1e-6, 1e-4 * abs(float(exact)))

    def test_scaled_even_rank_fix(self):
        # Delta = -16 = (-4) * 2^2 exercises the non-fundamental even-rank branch
        from jacobiforms import make_lattice

        lat = make_lattice([[2, 0], [0, 8]])
        x0 = lat.disc_group.zero
        for k, D in ((6, Fraction(-1)), (8, Fraction(-2))):
            exact = trivial_coefficient_exact(lat, k, D, x0)
            series = trivial_coefficient_series(lat, k, D, x0, 5000)
            assert abs(float(exact) - series) <= max(1e-6, 1e-4 * abs(float(exact)))

    def test_square_part_split(self, a1):
        # D = -9 and D = -27/4 carry f = 3 in the odd-rank D = D0 f^2 split
        group = a1.disc_group
        for D, x in ((Fraction(-9), group.zero), (Fraction(-27, 4), group.element((1,)))):
            exact = trivial_coefficient_exact(a1, 6, D, x)
            series = trivial_coefficient_series(a1, 6, D, x, 5000)
            assert abs(float(exact) - series) <= max(1e-6, 1e-4 * abs(float(exact)))

    def test_partial_sum_monotone(self, a1):
        x0 = a1.disc_group.zero
        vals = [
            trivial_coefficient_series(a1, 4, Fraction(-1), x0, B)
            for B in (100, 1000, 5000)
        ]
        assert vals[0] <= vals[1] <= vals[2]

    def test_odd_weight_rejected(self, a1):
        with pytest.raises(OddWeightError):
            trivial_coefficient_series(a1, 5, Fraction(-1), a1.disc_group.zero, 100)

    def test_convergence_guard(self, square2):
        with pytest.raises(ConvergenceDomainError):
            trivial_coefficient_series(square2, 2, Fraction(-1), square2.disc_group.zero, 100)


class TestNumericCoefficient:
    def test_matches_exact_trivial(self, a1):
        spec = EisensteinSpec(lattice=a1, k=8, r=a1.disc_group.zero)
        num = eisenstein_coefficient_numeric(spec, Fraction(-1), a1.disc_group.zero, 2000)
        exact = float(trivial_coefficient_exact(a1, 8, Fraction(-1), a1.disc_group.zero))
        assert num.value == pytest.approx(exact, rel=1e-6)

    def test_odd_weight_vanishes(self, a1):
        spec = EisensteinSpec(lattice=a1, k=5, r=a1.disc_group.zero)
        num = eisenstein_coefficient_numeric(spec, Fraction(-1), a1.disc_group.zero, 300)
        assert abs(num.value) <= 1e-9

    def test_single_term_prefactor(self, a1):
        # (2 pi)^(k - 1/2) i^k / (2 sqrt(2) Gamma(k - 1/2)) times sum_c z_c c^(-k),
        # with the c = 1 term z_1 = 1 + (-1)^k
        import math

        from jacobiforms.expsums import h_series_terms
        from jacobiforms.numbertheory import gamma_half

        k, c_max = 8, 400
        x0 = a1.disc_group.zero
        terms = list(h_series_terms(a1, 0, x0, -1, x0, k, c_max))
        assert terms[0] == (1, 1 + (-1) ** k)
        g, gp = gamma_half(2 * k - 1)
        pref = (2 * math.pi) ** (k - 0.5) * (-1) ** (k // 2) / (
            2 * math.sqrt(2) * float(g) * math.pi ** float(gp)
        )
        series = sum(z.real * c ** (-k) for c, z in terms)
        spec = EisensteinSpec(lattice=a1, k=k, r=x0)
        num = eisenstein_coefficient_numeric(spec, Fraction(-1), x0, c_max)
        assert num.value == pytest.approx(pref * series, rel=1e-13)

    def test_tail_guard_fires_at_tiny_cmax(self, a1):
        spec = EisensteinSpec(lattice=a1, k=8, r=a1.disc_group.zero)
        with pytest.raises(TailTooLargeError):
            eisenstein_coefficient_numeric(spec, Fraction(-1), a1.disc_group.zero, 1)

    @pytest.mark.parametrize("name, k", [("d4", 8), ("e8", 12)])
    def test_rank_four_and_eight_match_exact_within_tail(self, request, name, k):
        # c_b = 2^j up to 512 goes through the Gauss-sum recursion (the radical
        # of G mod 2 has dimension 2 on D4, 0 on E8), and the odd c through the
        # Ramanujan sums; the exact route shares neither
        lattice = request.getfixturevalue(name)
        spec = EisensteinSpec(lattice=lattice, k=k, r=lattice.disc_group.zero)
        expansion = eisenstein_expansion(spec, 1, "numeric", c_max=1000)
        numeric = {idx: value for idx, value in expansion.entries.items() if idx.D < 0}
        assert numeric and expansion.tail_estimate < 1e-6
        for idx, value in numeric.items():
            exact = trivial_coefficient_exact(lattice, k, idx.D, idx.x)
            assert abs(value - float(exact)) <= expansion.tail_estimate, (idx, value, exact)

    def test_anisotropic_class_rejected(self, a1):
        with pytest.raises(NotIsotropicError):
            EisensteinSpec(lattice=a1, k=8, r=a1.disc_group.element((1,)))


class TestExpansion:
    def test_exact_index_one(self, a1):
        spec = EisensteinSpec(lattice=a1, k=4, r=a1.disc_group.zero)
        expansion = eisenstein_expansion(spec, 1, "exact")
        values = {
            (idx.x.coords, idx.D): val for idx, val in expansion.entries.items()
        }
        assert values == {
            ((0,), Fraction(0)): 1,
            ((0,), Fraction(-1)): 126,
            ((1,), Fraction(-3, 4)): 56,
        }

    def test_exact_odd_weight_all_zero(self, a1):
        spec = EisensteinSpec(lattice=a1, k=5, r=a1.disc_group.zero)
        expansion = eisenstein_expansion(spec, 2, "exact")
        assert expansion.entries and all(v == 0 for v in expansion.entries.values())

    def test_exact_mode_requires_trivial_class(self, a1_scaled4):
        spec = EisensteinSpec(lattice=a1_scaled4, k=4, r=a1_scaled4.disc_group.element((4,)))
        with pytest.raises(ValueError):
            eisenstein_expansion(spec, 1, "exact")

    def test_numeric_symmetry_invariant(self, a1_scaled4):
        group = a1_scaled4.disc_group
        spec = EisensteinSpec(lattice=a1_scaled4, k=4, r=group.element((4,)))
        expansion = eisenstein_expansion(spec, 2, "numeric", c_max=300)
        assert expansion.symmetry_defect() <= 1e-9

    def test_json_roundtrip(self, a1):
        spec = EisensteinSpec(lattice=a1, k=4, r=a1.disc_group.zero)
        expansion = eisenstein_expansion(spec, 1, "exact")
        expansion.lattice_name = "a1"
        doc = expansion.to_json_dict()
        text = json.dumps(doc)
        parsed = json.loads(text)
        assert parsed["mode"] == "exact"
        values = {tuple(e["x"]): parse_rational(e["value"]) for e in parsed["entries"] if e["n"] == "1/1"}
        assert values == {(0,): 126, (1,): 56}
        assert all("/" in e["value"] for e in parsed["entries"])


# (lattice fixture, k, r, n_max, c_max): a1 and a2 at n_max 2, a1_scaled4 at
# r = 4 (16 entries over 8 classes), A3 at n_max 1 (4 classes)
NUMERIC_EXPANSIONS = [
    ("a1", 12, (0,), 2, 40),
    ("a1_scaled4", 10, (4,), 2, 40),
    ("a2", 12, (0,), 2, 40),
    ("a3", 14, (0,), 1, 20),
]


class TestSharedWalk:
    @pytest.mark.parametrize("name, k, r, n_max, c_max", NUMERIC_EXPANSIONS)
    def test_entries_equal_lone_coefficients(self, request, name, k, r, n_max, c_max):
        lattice = request.getfixturevalue(name)
        spec = EisensteinSpec(lattice=lattice, k=k, r=lattice.disc_group.element(r))
        expansion = eisenstein_expansion(spec, n_max, "numeric", c_max=c_max)
        numeric = [idx for idx in expansion.entries if idx.D < 0]
        assert len(numeric) >= 4
        for idx in numeric:
            lone = eisenstein_coefficient_numeric(spec, idx.D, idx.x, c_max).value
            assert expansion.entries[idx] == lone, idx

    def test_expansion_walks_once_per_c(self, a1_scaled4, monkeypatch):
        # one Gauss-sum recursion per key (c_b, c_g^-1 mod c_b) for all 16
        # coefficients, and none at a c prime to 2 det = 16: the odd c are all closed form
        walks = []
        bad_part = expsums._bad_part

        def counted(data, c_b, a):
            walks.append(c_b)
            return bad_part(data, c_b, a)

        monkeypatch.setattr(expsums, "_bad_part", counted)
        spec = EisensteinSpec(lattice=a1_scaled4, k=10, r=a1_scaled4.disc_group.element((4,)))
        expansion = eisenstein_expansion(spec, 2, "numeric", c_max=40)
        assert sum(idx.D < 0 for idx in expansion.entries) == 16
        assert walks == [c_b for c_b, _ in walk_keys(8, 40)] == [2, 4, 8, 4, 16, 8, 32, 8]
