import cmath
from fractions import Fraction

import numpy as np
import pytest

from jacobiforms import (
    EisensteinSpec,
    averaging_matrix,
    conjugation_check,
    eisenstein_coefficient_numeric,
    make_lattice,
    nontrivial_from_trivial,
    orbit_relation,
    rho_generator,
    rho_word,
    schrodinger_matrix,
    trivial_coefficient_exact,
)
from jacobiforms.errors import NotIsotropicError, OddWeightError, UnsupportedOrderError
from jacobiforms.lattice import enumerate_supp, isotropy_set
from jacobiforms.rationals import unit_phase

from oracles import averaging_dense, nontrivial_case_formulas, rho_generator_loop, schrodinger_loop

BASIS_TRIPLES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _bits(mat):
    """The float64 bit patterns of a complex matrix, so that signed zeros count."""
    return np.ascontiguousarray(mat).view(np.int64)


class TestRhoGenerators:
    def test_a1_T(self, a1):
        mat = rho_generator(a1, "T").matrix
        assert np.allclose(mat, np.diag([1, 1j]), atol=1e-15)

    def test_a1_S(self, a1):
        mat = rho_generator(a1, "S").matrix
        scalar = cmath.exp(-1j * cmath.pi / 4) / np.sqrt(2)
        assert np.allclose(mat, scalar * np.array([[1, 1], [1, -1]]), atol=1e-14)

    def test_unitarity(self, test_lattices):
        for lat in test_lattices:
            for g in ("T", "S"):
                assert rho_generator(lat, g).unitarity_defect() <= 1e-12

    def test_s_squared_is_signed_involution(self, test_lattices):
        # rho(S)^2 e_x = i^{-rank} e_{-x}
        for lat in test_lattices:
            group = lat.disc_group
            s2 = rho_word(lat, ["S", "S"]).matrix
            kappa = unit_phase(Fraction(-lat.rank, 4))
            expected = np.zeros_like(s2)
            for j, x in enumerate(group):
                expected[group.index(group.neg(x)), j] = kappa
            assert np.max(np.abs(s2 - expected)) <= 1e-12


class TestMatchesLoopOracles:
    def test_generators_bit_equal(self, model_lattices):
        for lat in model_lattices:
            for g in ("T", "S"):
                got = rho_generator(lat, g).matrix
                assert np.array_equal(_bits(got), _bits(rho_generator_loop(lat, g))), (lat, g)

    def test_schrodinger_bit_equal(self, model_lattices):
        triples = BASIS_TRIPLES + ((2, 3, 5), (-1, 4, -3), (7, -2, 1))
        for lat in model_lattices:
            group = lat.disc_group
            for x in list(group)[:: max(1, len(group) // 8)]:
                for triple in triples:
                    got = schrodinger_matrix(lat, x, *triple).matrix
                    want = schrodinger_loop(lat, x, *triple)
                    assert np.array_equal(_bits(got), _bits(want)), (lat, x, triple)

    def test_averaging_bit_equal(self, model_lattices):
        # every isotropic class of order 2 to 4, and order 6 on [[72]], where a
        # quotient by 36 and a product with 1/36 differ in the last bit
        cases = [(lat, x) for lat in model_lattices for x in isotropy_set(lat) if 1 < x.order <= 4]
        order_six = make_lattice([[72]])
        cases.append((order_six, order_six.disc_group.element((12,))))
        for lat, x in cases:
            got = averaging_matrix(lat, x).matrix
            assert np.array_equal(_bits(got), _bits(averaging_dense(lat, x))), (lat, x)


class TestRhoWord:
    def test_one_letter_word_is_the_gathered_generator(self, model_lattices):
        # the product starts from the first letter's matrix: no identity product
        # whose BLAS kernel could set the sign of a zero part
        for lat in model_lattices:
            for g in ("T", "S"):
                got = rho_word(lat, [g]).matrix
                assert np.array_equal(_bits(got), _bits(rho_generator(lat, g).matrix)), (lat, g)

    def test_inverse_cancels(self, a1):
        for word in (["T", "T^-1"], ["S", "S^-1"], ["T^-1", "T"]):
            assert np.max(np.abs(rho_word(a1, word).matrix - np.eye(2))) <= 1e-12

    def test_s_fourth_power(self, test_lattices):
        # rho(S)^4 = (-1)^rank I (rho(S)^2 is the signed involution squared)
        for lat in test_lattices:
            n = lat.det
            s4 = rho_word(lat, ["S"] * 4).matrix
            assert np.max(np.abs(s4 - (-1) ** lat.rank * np.eye(n))) <= 1e-12

    def test_s_eighth_power_identity(self, a1):
        assert np.max(np.abs(rho_word(a1, ["S"] * 8).matrix - np.eye(2))) <= 1e-12

    def test_braid_relation(self, test_lattices):
        # (S T)^3 = S^2 for the standard metaplectic lifts
        for lat in test_lattices:
            st3 = rho_word(lat, ["S", "T"] * 3).matrix
            s2 = rho_word(lat, ["S", "S"]).matrix
            assert np.max(np.abs(st3 - s2)) <= 1e-12

    def test_dual_is_conjugate(self, a1):
        word = ["T", "S", "T"]
        rep = rho_word(a1, word)
        assert np.array_equal(rep.dual().matrix, rep.matrix.conj())

    def test_rejects_unknown_token(self, a1):
        with pytest.raises(ValueError):
            rho_word(a1, ["T", "X"])


class TestSchrodinger:
    def test_time_translation_is_scalar(self, a1):
        group = a1.disc_group
        xh = group.element((1,))
        mat = schrodinger_matrix(a1, xh, 0, 0, 1).matrix
        assert np.allclose(mat, unit_phase(xh.beta_mod1) * np.eye(2), atol=1e-15)

    def test_translation_permutes(self, a1):
        xh = a1.disc_group.element((1,))
        mat = schrodinger_matrix(a1, xh, 1, 0, 0).matrix
        assert np.allclose(mat, np.array([[0, 1], [1, 0]]), atol=1e-15)

    def test_trivial_twist(self, a1):
        mat = schrodinger_matrix(a1, a1.disc_group.zero, 3, 5, 7).matrix
        assert np.allclose(mat, np.eye(2), atol=1e-15)

    def test_unitarity(self, test_lattices):
        for lat in test_lattices:
            for x in lat.disc_group:
                for triple in BASIS_TRIPLES:
                    assert schrodinger_matrix(lat, x, *triple).unitarity_defect() <= 1e-12

    def test_representative_shift_invariance(self, a1_scaled4):
        group = a1_scaled4.disc_group
        x = group.element((2,))
        n2 = x.order**2
        base = schrodinger_matrix(a1_scaled4, x, 1, 2, 0).matrix
        shifted = schrodinger_matrix(a1_scaled4, x, 1 + n2, 2, 0).matrix
        assert np.array_equal(base, shifted)
        shifted_mu = schrodinger_matrix(a1_scaled4, x, 1, 2 + n2, 0).matrix
        assert np.array_equal(base, shifted_mu)


class TestConjugation:
    def test_zero_twist_exact(self, a1):
        for g in ("T", "S"):
            assert conjugation_check(a1, a1.disc_group.zero, 1, 0, 0, g) <= 1e-14

    def test_all_generators_and_triples(self, test_lattices):
        for lat in test_lattices:
            for x in lat.disc_group:
                for triple in BASIS_TRIPLES:
                    for g in ("T", "S"):
                        assert conjugation_check(lat, x, *triple, g) <= 1e-10


class TestAveraging:
    def test_zero_class_is_identity(self, a1):
        mat = averaging_matrix(a1, a1.disc_group.zero).matrix
        assert np.allclose(mat, np.eye(2), atol=1e-14)

    def test_projection_after_rescaling(self, a1_scaled4):
        x4 = a1_scaled4.disc_group.element((4,))
        av = averaging_matrix(a1_scaled4, x4).matrix
        proj = av / x4.order**2
        assert np.max(np.abs(proj @ proj - proj)) <= 1e-10

    def test_self_adjoint(self, a1_scaled4):
        for coords in ((2,), (4,)):
            av = averaging_matrix(a1_scaled4, a1_scaled4.disc_group.element(coords)).matrix
            assert np.max(np.abs(av - av.conj().T)) <= 1e-10

    def test_row_support(self, a1_scaled4):
        group = a1_scaled4.disc_group
        x4 = group.element((4,))
        av = averaging_matrix(a1_scaled4, x4).matrix
        for i, y in enumerate(group):
            has_support = np.max(np.abs(av[i])) > 1e-12
            assert has_support == (group.pairing_mod1(x4, y) == 0)

    def test_vector_identity(self, a1_scaled4):
        # Av_x applied to the trivial-series coefficient vector equals
        # sum over lam in Z_{N^2} with lam beta(x) integral of the E_{lam x} vectors
        group = a1_scaled4.disc_group
        x4 = group.element((4,))
        k = 4
        av = averaging_matrix(a1_scaled4, x4).matrix.real
        spec0 = EisensteinSpec(lattice=a1_scaled4, k=k, r=group.zero)
        spec4 = EisensteinSpec(lattice=a1_scaled4, k=k, r=x4)
        for D in (Fraction(-1), Fraction(-2)):
            v0 = np.zeros(len(group))
            vx = np.zeros(len(group))
            for i, y in enumerate(group):
                if (y.beta_mod1 - D).denominator != 1:
                    continue
                v0[i] = eisenstein_coefficient_numeric(spec0, D, y, 600).value
                vx[i] = eisenstein_coefficient_numeric(spec4, D, y, 600).value
            assert np.max(np.abs(av @ v0 - 2 * (v0 + vx))) <= 1e-3

    def test_phase_table_built_once(self, monkeypatch):
        # the N^2 x N^2 sigma calls share one table of e(q/N)
        from jacobiforms import weilrep

        lat = make_lattice([[72]])
        x12 = lat.disc_group.element((12,))
        assert x12.order == 6
        calls = []

        def counting_phase(q):
            calls.append(q)
            return unit_phase(q)

        monkeypatch.setattr(weilrep, "unit_phase", counting_phase)
        weilrep._phase_table.cache_clear()
        try:
            averaging_matrix(lat, x12)
        finally:
            weilrep._phase_table.cache_clear()
        assert 0 < len(calls) <= lat.level


class TestOrbitRelation:
    def test_order_two_record(self, a1_scaled4):
        group = a1_scaled4.disc_group
        x4 = group.element((4,))
        rel = orbit_relation(a1_scaled4, 4, x4)
        assert [e.coords for e in rel.orbit] == [(0,), (4,)]
        assert sorted(y.coords for y in rel.components) == [(0,), (2,), (4,), (6,)]
        assert [e.coords for e in rel.components[group.element((2,))]] == [(2,), (6,)]

    def test_odd_weight_rejected(self, a1_scaled4):
        with pytest.raises(OddWeightError):
            orbit_relation(a1_scaled4, 5, a1_scaled4.disc_group.element((4,)))

    def test_anisotropic_rejected(self, a1_scaled4):
        with pytest.raises(NotIsotropicError):
            orbit_relation(a1_scaled4, 4, a1_scaled4.disc_group.element((1,)))


class TestNontrivialFromTrivial:
    def test_case_selection_order_two(self, a1_scaled4):
        group = a1_scaled4.disc_group
        x4 = group.element((4,))
        k = 4
        for idx in enumerate_supp(a1_scaled4, 2):
            if idx.D >= 0:
                continue
            val = nontrivial_from_trivial(a1_scaled4, k, x4, idx.D, idx.x)
            if group.pairing_mod1(x4, idx.x) == 0:
                expected = trivial_coefficient_exact(
                    a1_scaled4, k, idx.D, group.add(idx.x, x4)
                )
            else:
                expected = -trivial_coefficient_exact(a1_scaled4, k, idx.D, idx.x)
            assert val == expected

    def test_matches_numeric_order_two(self, a1_scaled4):
        group = a1_scaled4.disc_group
        x4 = group.element((4,))
        spec = EisensteinSpec(lattice=a1_scaled4, k=4, r=x4)
        y = group.element((3,))
        D = y.beta_mod1 - 1
        exact = float(nontrivial_from_trivial(a1_scaled4, 4, x4, D, y))
        num = eisenstein_coefficient_numeric(spec, D, y, 1500)
        assert num.value == pytest.approx(exact, rel=1e-6)

    def test_order_three(self):
        lat = make_lattice([[18]])
        group = lat.disc_group
        x6 = group.element((6,))
        assert x6.order == 3 and x6.beta_mod1 == 0
        spec = EisensteinSpec(lattice=lat, k=6, r=x6)
        for y_coords in ((0,), (1,), (3,)):
            y = group.element(y_coords)
            D = y.beta_mod1 - 1
            exact = float(nontrivial_from_trivial(lat, 6, x6, D, y))
            num = eisenstein_coefficient_numeric(spec, D, y, 800)
            assert num.value == pytest.approx(exact, rel=1e-5, abs=1e-6)

    def test_order_four_including_zero_branch(self):
        lat = make_lattice([[32]])
        group = lat.disc_group
        x8 = group.element((8,))
        assert x8.order == 4 and x8.beta_mod1 == 0
        spec = EisensteinSpec(lattice=lat, k=6, r=x8)
        zero_seen = False
        for y_coords in ((0,), (1,), (2,), (4,)):
            y = group.element(y_coords)
            D = y.beta_mod1 - 1
            exact = nontrivial_from_trivial(lat, 6, x8, D, y)
            if (
                group.pairing_mod1(x8, y) != 0
                and group.pairing_mod1(group.scale(2, x8), y) != 0
            ):
                assert exact == 0
                zero_seen = True
            num = eisenstein_coefficient_numeric(spec, D, y, 800)
            assert num.value == pytest.approx(float(exact), rel=1e-5, abs=1e-6)
        assert zero_seen

    def test_order_six(self):
        lat = make_lattice([[72]])
        group = lat.disc_group
        x12 = group.element((12,))
        assert x12.order == 6 and x12.beta_mod1 == 0
        spec = EisensteinSpec(lattice=lat, k=6, r=x12)
        for y_coords in ((0,), (2,), (3,), (6,), (1,)):
            y = group.element(y_coords)
            D = y.beta_mod1 - 1
            exact = float(nontrivial_from_trivial(lat, 6, x12, D, y))
            num = eisenstein_coefficient_numeric(spec, D, y, 800)
            assert num.value == pytest.approx(exact, rel=1e-5, abs=1e-6)

    def test_moebius_relation_equals_case_formulas(self, model_lattices):
        lattices = model_lattices + [make_lattice([[32]]), make_lattice([[72]])]
        orders = set()
        for lat in lattices:
            group = lat.disc_group
            for x in isotropy_set(lat):
                if x.order not in (2, 3, 4, 6):
                    continue
                orders.add(x.order)
                for y in group:
                    D = y.beta_mod1 - 1
                    got = nontrivial_from_trivial(lat, 6, x, D, y)
                    assert got == nontrivial_case_formulas(lat, 6, x, D, y), (lat, x, y)
        assert orders == {2, 3, 4, 6}

    def test_unsupported_order(self):
        lat = make_lattice([[50]])
        group = lat.disc_group
        x10 = group.element((10,))
        assert x10.order == 5 and x10.beta_mod1 == 0
        with pytest.raises(UnsupportedOrderError):
            nontrivial_from_trivial(lat, 4, x10, Fraction(-1), group.zero)

    def test_odd_weight_rejected(self, a1_scaled4):
        group = a1_scaled4.disc_group
        with pytest.raises(OddWeightError):
            nontrivial_from_trivial(a1_scaled4, 5, group.element((4,)), Fraction(-1), group.zero)
