import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobiforms import (
    beta_values,
    coset_points,
    discriminant_group,
    enumerate_supp,
    isotropy_set,
    lattice_character,
    load_lattice_json,
    make_lattice,
)
from jacobiforms.errors import (
    DegenerateError,
    ValidationError,
    NonIntegralArgumentError,
    NotInDualLatticeError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    OddDiagonalError,
)
from jacobiforms.rationals import frac1

from oracles import brute_coset_counts, lattice_invariants_oracle


@st.composite
def even_symmetric_matrices(draw):
    """Symmetric integer matrices of even diagonal, rank 1-8: any entries (mostly
    indefinite), diagonally dominant (positive definite), or 2 A^t A with A of
    n - 1 rows (singular)."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("any", "dominant", "singular")))
    if kind == "singular":
        a = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n - 1)]
        return [[2 * sum(row[i] * row[j] for row in a) for j in range(n)] for i in range(n)]
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(st.integers(-2, 4))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    if kind == "dominant":
        for i in range(n):
            off = sum(abs(x) for j, x in enumerate(g[i]) if j != i)
            g[i][i] = 2 * (off // 2 + 1 + draw(st.integers(0, 2)))
    return g


def _e8_cubed():
    e8 = [[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0], [0, -1, 2, -1, 0, 0, 0, -1],
          [0, 0, -1, 2, -1, 0, 0, 0], [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
          [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 0, 2]]
    return [[e8[i % 8][j % 8] if i // 8 == j // 8 else 0 for j in range(24)] for i in range(24)]


class TestMakeLattice:
    def test_a1_invariants(self, a1):
        assert (a1.rank, a1.det, a1.delta, a1.level) == (1, 2, 4, 4)

    def test_rank2_delta(self, square2):
        assert (square2.rank, square2.det, square2.delta) == (2, 4, -4)

    def test_a2_invariants(self, a2):
        assert (a2.det, a2.delta) == (3, -3)

    def test_odd_diagonal_rejected(self):
        with pytest.raises(OddDiagonalError):
            make_lattice([[2, 1], [1, 1]])

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            make_lattice([[2, 1], [0, 2]])

    def test_not_positive_definite_reports_minor(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            make_lattice([[2, 3], [3, 2]])
        assert err.value.minor_index == 2
        assert err.value.minor_value == -5

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateError):
            make_lattice([[2, 2], [2, 2]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            make_lattice([[2, 0]])

    def test_zero_first_minor_with_nonzero_det(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            make_lattice([[0, 1], [1, 0]])
        assert (err.value.minor_index, err.value.minor_value) == (1, 0)

    def test_degenerate_wins_over_zero_minor(self):
        with pytest.raises(DegenerateError):
            make_lattice([[0, 0], [0, 2]])
        # the third leading minor is 0 before the last row, and det = 0
        with pytest.raises(DegenerateError):
            make_lattice([[2, -1, -1, 0], [-1, 2, -1, 0], [-1, -1, 2, 0], [0, 0, 0, 2]])

    @pytest.mark.parametrize("gram, minor", [
        ([[2, 1, 0, 0], [1, 2, 2, 0], [0, 2, 2, 0], [0, 0, 0, 2]], -2),
        ([[2, -1, -1, 1], [-1, 2, -1, 0], [-1, -1, 2, 0], [1, 0, 0, 2]], 0),
    ])
    def test_third_minor_first_non_positive(self, gram, minor):
        with pytest.raises(NotPositiveDefiniteError) as err:
            make_lattice(gram)
        assert (err.value.minor_index, err.value.minor_value) == (3, minor)

    def test_dense_rank_ten(self):
        # I + J: every leading minor k + 1 is positive, det = 11
        lat = make_lattice([[1 + (i == j) for j in range(10)] for i in range(10)])
        assert (lat.rank, lat.det) == (10, 11)

    @given(even_symmetric_matrices())
    @settings(max_examples=300, deadline=None)
    def test_invariants_match_oracle(self, gram):
        try:
            want = lattice_invariants_oracle(gram)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as err:
                make_lattice(gram)
            assert type(err.value) is type(exc) and str(err.value) == str(exc)
            assert (getattr(err.value, "minor_index", None), getattr(err.value, "minor_value", None)) \
                == (getattr(exc, "minor_index", None), getattr(exc, "minor_value", None))
            return
        lat = make_lattice(gram)
        assert (lat.det, lat.level, lat.delta) == want

    @pytest.mark.parametrize("gram, det, level, orders", [
        # beta(g_i) alone gives 15: the level 30 needs the cross pairing beta(g_1, g_2)
        ([[8, -2], [-2, 8]], 60, 30, (2, 30)),
        (_e8_cubed(), 1, 1, ()),
        ([[118 * (i == j) for j in range(4)] for i in range(4)], 118**4, 236, (118,) * 4),
    ])
    def test_invariants_pinned(self, gram, det, level, orders):
        lat = make_lattice(gram)
        assert (lat.det, lat.level, lat.disc_group.orders) == (det, level, orders)
        assert lattice_invariants_oracle(gram) == (det, level, lat.delta)

    def test_level_is_lcm_of_beta_denominators(self, test_lattices, a3, d4, e8):
        extra = [make_lattice([[200]]), make_lattice([[20, 0], [0, 20]]),
                 make_lattice([[8, -2], [-2, 8]])]
        for lat in [*test_lattices, a3, d4, e8, *extra]:
            want = math.lcm(*(x.beta_mod1.denominator for x in discriminant_group(lat)))
            assert lat.level == want, lat

    def test_delta_is_discriminant(self, test_lattices):
        for lat in test_lattices:
            assert lat.delta % 4 in (0, 1)
            if lat.rank % 2 == 1:
                assert lat.delta % 4 == 0


class TestDiscriminantGroup:
    def test_a1_group(self, a1):
        group = discriminant_group(a1)
        assert group.orders == (2,)
        assert [x.beta_mod1 for x in group] == [0, Fraction(1, 4)]

    def test_scaled_group_beta_pattern(self, a1_scaled4):
        group = discriminant_group(a1_scaled4)
        assert group.orders == (8,)
        for j, x in enumerate(group):
            assert x.beta_mod1 == Fraction(j * j, 16) % 1

    def test_a2_group(self, a2):
        assert discriminant_group(a2).orders == (3,)

    def test_order_matches_det(self, test_lattices):
        for lat in test_lattices:
            assert len(discriminant_group(lat)) == lat.det

    def test_coords_roundtrip(self, test_lattices):
        for lat in test_lattices:
            group = discriminant_group(lat)
            for x in group:
                assert group.from_dual_vector(x.rep) == x

    def test_group_arithmetic(self, a1_scaled4):
        group = discriminant_group(a1_scaled4)
        x, y = group.element((3,)), group.element((7,))
        assert group.add(x, y) == group.element((2,))
        assert group.neg(x) == group.element((5,))
        assert group.scale(5, x) == group.element((7,))

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_group_size_equals_det_random(self, a, b, c, d):
        # G = 2 A^t A is even and positive definite whenever A is invertible
        det_a = a * d - b * c
        if det_a == 0:
            return
        gram = [
            [2 * (a * a + c * c), 2 * (a * b + c * d)],
            [2 * (a * b + c * d), 2 * (b * b + d * d)],
        ]
        lat = make_lattice(gram)
        assert len(discriminant_group(lat)) == lat.det == 4 * det_a * det_a

    def test_integer_model_matches_fraction_forms(self, model_lattices):
        for lat in model_lattices:
            group = discriminant_group(lat)
            elements = list(group)
            assert [x.coords for x in elements] == [tuple(c) for c in group.coords.tolist()]
            for x in elements:
                assert x.beta_mod1 == frac1(lat.beta(x.rep)), (lat, x)
            for x in elements[:: max(1, len(group) // 12)]:
                for y in elements:
                    assert group.pairing_mod1(x, y) == frac1(lat.pairing(x.rep, y.rep)), (lat, x, y)


class TestBetaValues:
    def test_a1_half(self, a1):
        beta, pair = beta_values(a1, (Fraction(1, 2),))
        assert beta == Fraction(1, 4)
        assert pair((1,)) == 1

    def test_a2_corner(self, a2):
        beta, _ = beta_values(a2, (1, 0))
        assert beta == 1

    def test_not_in_dual(self, a1):
        with pytest.raises(NotInDualLatticeError):
            beta_values(a1, (Fraction(1, 3),))


class TestIsotropy:
    def test_a1(self, a1):
        assert [x.coords for x in isotropy_set(a1)] == [(0,)]

    def test_scaled(self, a1_scaled4):
        assert [x.coords for x in isotropy_set(a1_scaled4)] == [(0,), (4,)]

    def test_square2(self, square2):
        assert [x.coords for x in isotropy_set(square2)] == [(0, 0)]

    def test_contains_zero(self, test_lattices):
        for lat in test_lattices:
            assert discriminant_group(lat).zero in isotropy_set(lat)

    def test_large_cyclic_group_stays_small(self):
        # |G| = 200000, of which 100 classes are isotropic: c = 0 mod 2000
        tracemalloc.start()
        try:
            iso = isotropy_set(make_lattice([[200000]]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [x.coords for x in iso] == [(c,) for c in range(0, 200000, 2000)]
        assert peak < 20 * 2**20, peak


class TestLatticeCharacter:
    def test_examples(self, a1, square2):
        assert lattice_character(a1, 1, 3) == 1
        assert lattice_character(square2, 1, 3) == -1
        assert lattice_character(a1, 1, 1) == 1

    def test_non_integral(self, a1):
        with pytest.raises(NonIntegralArgumentError):
            lattice_character(a1, Fraction(1, 3), 5)


class TestEnumerateSupp:
    def test_a1_nmax1(self, a1):
        entries = [(idx.x.coords, idx.D) for idx in enumerate_supp(a1, 1)]
        assert entries == [((0,), 0), ((0,), -1), ((1,), Fraction(-3, 4))]

    def test_a1_nmax0(self, a1):
        assert [(i.x.coords, i.D) for i in enumerate_supp(a1, 0)] == [((0,), 0)]

    def test_scaled_includes_isotropic_pair(self, a1_scaled4):
        entries = {(i.x.coords, i.D) for i in enumerate_supp(a1_scaled4, 1)}
        assert ((0,), -1) in entries
        assert ((4,), 0) in entries

    def test_all_indices_consistent(self, test_lattices):
        for lat in test_lattices:
            for idx in enumerate_supp(lat, 3):
                assert idx.D <= 0
                assert (idx.x.beta_mod1 - idx.D).denominator == 1
                assert idx.qexp <= 3

    @given(n1=st.integers(0, 3), n2=st.integers(0, 3))
    @settings(max_examples=16, deadline=None)
    def test_monotone(self, a2, n1, n2):
        lo, hi = sorted((n1, n2))
        small = set((i.x.coords, i.D) for i in enumerate_supp(a2, lo))
        large = set((i.x.coords, i.D) for i in enumerate_supp(a2, hi))
        assert small <= large


class TestCosetPoints:
    def test_a1_zero(self, a1):
        pts = coset_points(a1, discriminant_group(a1).zero, 1)
        assert pts == [(-1,), (0,), (1,)]

    def test_a1_half(self, a1):
        pts = coset_points(a1, discriminant_group(a1).element((1,)), Fraction(1, 4))
        assert pts == [(Fraction(-1, 2),), (Fraction(1, 2),)]

    def test_zero_bound(self, test_lattices):
        for lat in test_lattices:
            assert coset_points(lat, discriminant_group(lat).zero, 0) == [
                tuple(Fraction(0) for _ in range(lat.rank))
            ]

    def test_counts_match_bruteforce(self, a2):
        group = discriminant_group(a2)
        for x in group:
            counts = {}
            for pt in coset_points(a2, x, 3):
                counts[a2.beta(pt)] = counts.get(a2.beta(pt), 0) + 1
            assert counts == brute_coset_counts(a2.gram, x.rep, 3)

    def test_negation_symmetry(self, test_lattices):
        for lat in test_lattices:
            group = discriminant_group(lat)
            for x in group:
                bound = Fraction(2)
                assert len(coset_points(lat, x, bound)) == len(
                    coset_points(lat, group.neg(x), bound)
                )


class TestLatticeJson:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "lat.json"
        path.write_text(json.dumps({"name": "a1", "gram": [[2]]}))
        name, lat = load_lattice_json(path)
        assert name == "a1" and lat.det == 2

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "gram": [[2, 0]]}))
        with pytest.raises(ValueError):
            load_lattice_json(path)
