import random
import tracemalloc
from fractions import Fraction
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jacobiforms import (
    EisensteinSpec,
    RepCountKey,
    dirichlet_series_partial,
    eisenstein_coefficient_numeric,
    eisenstein_expansion,
    eisenstein_lattice_sum,
    kloosterman,
    kloosterman_decomposition,
    local_factor,
    make_lattice,
    poincare_lattice_sum,
    rep_count,
)
from jacobiforms.errors import (
    NotIsotropicError,
    ResourceLimitError,
    StabilizationFailureError,
    ValidationError,
)
from jacobiforms import expsums
from jacobiforms.expsums import (
    _ord_p,
    H_LEAF_LIMIT,
    H_POINT_LIMIT,
    bad_primes,
    good_prime_factor,
    h_series_terms,
    lattice_sum_fft,
)
from jacobiforms.lattice import enumerate_supp, load_lattice_json
from jacobiforms.numbertheory import factorize, zeta_float
from jacobiforms.rationals import unit_phase, unit_phase_ratio

from oracles import rep_count_enumerate, walk_keys, zeros_mod_p_walk

_SHIPPED = sorted((Path(__file__).resolve().parent.parent / "lattices").glob("*.json"))
_A3 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
_D4 = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))
# Hensel nodes (G, p) of ranks 1-4: first with p prime to det, then with p | det,
# where G mod p has a radical and g can lie outside im G.  The two with a zero
# diagonal mod p make the elimination pivot on an off-diagonal entry.
_NODE_FORMS = (
    (((2,),), 3), (((8,),), 5), (((2, 1), (1, 2)), 5), (_A3, 7), (_D4, 5),
    (((6, 1), (1, 6)), 3), (((2, 1), (1, 2)), 2), (_D4, 2),
    (((6,),), 3), (((2, 1), (1, 2)), 3), (((20, 0), (0, 20)), 5), (((4, 1), (1, 6)), 23),
    (((2, 0, 0), (0, 2, 0), (0, 0, 118)), 59), (((10, 1, 0), (1, 10, 5), (0, 5, 10)), 5),
    (_A3, 2), (_D4, 3), (((6, 0, 0, 0), (0, 6, 0, 0), (0, 0, 6, 0), (0, 0, 0, 6)), 3),
)


def _int_beta(gram, lam):
    return sum(gram[i][j] * lam[i] * lam[j] for i in range(len(lam)) for j in range(len(lam))) // 2


def _negative_supp(lattice, n_max=2):
    return [i for i in enumerate_supp(lattice, n_max) if i.D < 0]


class TestKloosterman:
    def test_trivial_modulus(self):
        assert kloosterman(5, -7, 1) == 1

    def test_unit_count(self):
        assert kloosterman(0, 0, 4) == pytest.approx(2)
        assert kloosterman(0, 0, 12) == pytest.approx(4)

    def test_small_example(self):
        assert kloosterman(1, 1, 2) == pytest.approx(1)

    def test_real_valued(self):
        for c in range(1, 31):
            for m, n in ((1, 1), (2, 5), (0, 3), (7, 11)):
                assert abs(kloosterman(m, n, c).imag) <= 1e-12

    def test_modulus_five(self):
        # d = 1..4 pair up as e_5(2), 1, 1, e_5(3): K(1,1;5) = 2 + 2cos(4 pi/5)
        assert kloosterman(1, 1, 5).real == pytest.approx((3 - 5**0.5) / 2, abs=1e-12)


class TestLatticeSums:
    def test_c1_with_trivial_pairing(self, a1):
        group = a1.disc_group
        val = poincare_lattice_sum(a1, -1, group.zero, -1, group.zero, 1)
        assert val == pytest.approx(1)

    def test_c1_pairing_phase(self, a1):
        # H_{L,1} = e(beta(r', r)); pairing of the half class with itself is 1/2
        xh = a1.disc_group.element((1,))
        D = Fraction(-3, 4)
        assert poincare_lattice_sum(a1, D, xh, D, xh, 1) == pytest.approx(-1)

    def test_c2_cancellation(self, a1):
        x0 = a1.disc_group.zero
        assert abs(poincare_lattice_sum(a1, -1, x0, -1, x0, 2)) <= 1e-15

    def test_rminus_symmetry(self, a1, a2):
        rng = random.Random(3)
        for lat in (a1, a2):
            group = lat.disc_group
            sup = _negative_supp(lat)
            for _ in range(10):
                i1, i2 = rng.choice(sup), rng.choice(sup)
                c = rng.randint(1, 9)
                lhs = poincare_lattice_sum(lat, i1.D, i1.x, i2.D, group.neg(i2.x), c)
                rhs = poincare_lattice_sum(lat, i1.D, group.neg(i1.x), i2.D, i2.x, c)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_conjugate_is_negated_class(self, a1_scaled4):
        group = a1_scaled4.disc_group
        sup = _negative_supp(a1_scaled4, 1)
        i1, i2 = sup[0], sup[-1]
        for c in (3, 5, 8):
            h = poincare_lattice_sum(a1_scaled4, i1.D, i1.x, i2.D, i2.x, c)
            hneg = poincare_lattice_sum(a1_scaled4, i1.D, group.neg(i1.x), i2.D, i2.x, c)
            assert h.conjugate() == pytest.approx(hneg, abs=1e-12)

    def test_eisenstein_equals_poincare_at_zero(self, a1, a1_scaled4):
        rng = random.Random(5)
        for lat in (a1, a1_scaled4):
            iso = [x for x in lat.disc_group if x.beta_mod1 == 0]
            sup = _negative_supp(lat)
            for _ in range(25):
                r = rng.choice(iso)
                idx = rng.choice(sup)
                c = rng.randint(1, 10)
                eis = eisenstein_lattice_sum(lat, r, idx.D, idx.x, c)
                poi = poincare_lattice_sum(lat, Fraction(0), r, idx.D, idx.x, c)
                assert eis == poi  # same code path, exact equality

    def test_eisenstein_example_c2(self, a1):
        x0 = a1.disc_group.zero
        assert abs(eisenstein_lattice_sum(a1, x0, -1, x0, 2)) <= 1e-15

    def test_eisenstein_rejects_anisotropic(self, a1):
        xh = a1.disc_group.element((1,))
        with pytest.raises(NotIsotropicError):
            eisenstein_lattice_sum(a1, xh, -1, a1.disc_group.zero, 3)


class TestKloostermanDecomposition:
    def test_agreement_small_lattices(self, a1, a2):
        rng = random.Random(17)
        for lat in (a1, a2):
            sup = _negative_supp(lat)
            for _ in range(25):
                i1, i2 = rng.choice(sup), rng.choice(sup)
                for c in range(1, 21):
                    h = poincare_lattice_sum(lat, i1.D, i1.x, i2.D, i2.x, c)
                    kd = kloosterman_decomposition(lat, i1.D, i1.x, i2.D, i2.x, c)
                    assert h == pytest.approx(kd, abs=1e-9)
                    break  # full c-sweep lives in the acceptance suite

    def test_fft_route_matches_naive(self, a1, a2):
        rng = random.Random(23)
        for lat, cmax in ((a1, 50), (a2, 20)):
            sup = _negative_supp(lat)
            for _ in range(6):
                i1, i2 = rng.choice(sup), rng.choice(sup)
                for c in range(1, cmax + 1):
                    naive = poincare_lattice_sum(lat, i1.D, i1.x, i2.D, i2.x, c)
                    fast = lattice_sum_fft(lat, i1.D, i1.x, i2.D, i2.x, c)
                    assert naive == pytest.approx(fast, abs=1e-10)

    def test_fft_route_matches_naive_beyond_rank_two(self, a1_scaled4, square2, a3, d4):
        # Poincare pairs with D != 0 and r != 0 where the lattice has such classes,
        # one Eisenstein pair (D = 0, r = 0), and both parities of k
        rng = random.Random(29)
        for lat, cmax in ((a1_scaled4, 12), (square2, 12), (a3, 12), (d4, 6)):
            group = lat.disc_group
            sup = _negative_supp(lat, 1)
            left = [i for i in sup if i.x != group.zero] or sup
            pairs = [(rng.choice(left), rng.choice(sup)) for _ in range(2)]
            pairs = [(i.D, i.x, j.D, j.x) for i, j in pairs]
            pairs.append((Fraction(0), group.zero, sup[-1].D, sup[-1].x))
            for (D, r, Dp, rp), k in zip(pairs, (9, 10, 10)):
                terms = dict(h_series_terms(lat, D, r, Dp, rp, k, cmax))
                for c in range(1, cmax + 1):
                    naive = poincare_lattice_sum(lat, D, r, Dp, rp, c)
                    naive_neg = poincare_lattice_sum(lat, D, group.neg(r), Dp, rp, c)
                    assert lattice_sum_fft(lat, D, r, Dp, rp, c) == pytest.approx(naive, abs=1e-10)
                    assert terms[c] == pytest.approx(naive + (-1) ** k * naive_neg, abs=1e-10)


class TestSeriesGuard:
    def test_rank_four_h64_memory_is_bounded(self, d4):
        idx = _negative_supp(d4, 1)[0]
        tracemalloc.start()
        try:
            lattice_sum_fft(d4, idx.D, idx.x, idx.D, idx.x, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20, peak

    def test_shared_walk_keeps_one_chunk_live(self, square2):
        # an expansion over 4 classes r' forms the Gauss sums of each key once per
        # unit and G r', memoizing only their subsums, so beside the one packed
        # row of H_c (16 bytes per c) that each extra target adds to the table it
        # peaks about where one coefficient does; each run starts from an empty
        # memo, which is the route's working memory
        spec = EisensteinSpec(lattice=square2, k=10, r=square2.disc_group.zero)
        first = _negative_supp(square2, 1)[0]
        eisenstein_expansion(spec, 1, "numeric", c_max=400)  # imports and one-off tables

        def peak(run):
            expsums._subsum.cache_clear()
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(lambda: eisenstein_coefficient_numeric(spec, first.D, first.x, 400))
        expansion = peak(lambda: eisenstein_expansion(spec, 1, "numeric", c_max=400))
        assert len({idx.x for idx in _negative_supp(square2, 1)}) == 4
        assert expansion - 3 * 16 * 400 <= 1.25 * one, (expansion, one)

    def test_over_limit_expansion_fails_before_the_first_term(self, a3, d4, e8, monkeypatch):
        class FirstRecursion(Exception):
            pass

        def no_terms(data, c_b, a):
            raise FirstRecursion

        monkeypatch.setattr(expsums, "_bad_part", no_terms)
        # at c_b = 2^j the recursion branches into the 2^k points of the radical of
        # G mod 2 at each of floor(j/2) levels, for each of the phi(c_b) units: 2 E8
        # (G = 0 mod 2, k = 8) at c <= 1000 is refused before its first recursion
        def leaves(lattice, k):
            return sum(c_b // 2 * 2 ** (k * ((c_b.bit_length() - 1) // 2))
                       for c_b, _ in walk_keys(lattice.det, 1000))

        two_e8 = make_lattice([[2 * v for v in row] for row in e8.gram])
        assert leaves(two_e8, 8) > H_LEAF_LIMIT
        with pytest.raises(ResourceLimitError, match=f" {leaves(two_e8, 8)} leaves"):
            eisenstein_expansion(EisensteinSpec(lattice=two_e8, k=8, r=two_e8.disc_group.zero), 1,
                                 "numeric", c_max=1000)
        # D4 (k = 2) and A3 (k = 1), 2 det = 8, are admitted and reach their first recursion
        for lattice, k in ((d4, 2), (a3, 1)):
            assert leaves(lattice, k) <= H_LEAF_LIMIT
            with pytest.raises(FirstRecursion):
                eisenstein_expansion(EisensteinSpec(lattice=lattice, k=10, r=lattice.disc_group.zero),
                                     1, "numeric", c_max=1000)
        # the walk oracle keeps the point limit on its c-sum
        points = sum(c**3 for c in range(1, 2001))
        assert points > H_POINT_LIMIT
        with pytest.raises(ResourceLimitError, match=str(points)):
            lattice_sum_fft(a3, -1, a3.disc_group.zero, -1, a3.disc_group.zero, 2000)


# the lattices of the closed-form checks, with the c they run to: every c <= 60
# at ranks 1-2 and <= 30 at ranks 3-4, c = 12, 24, 36 mixed wherever they occur
_CLOSED_FORM_LATTICES = (
    ([[2]], 60), ([[6]], 60), ([[8]], 60), ([[2, 1], [1, 2]], 60), ([[2, 0], [0, 2]], 60),
    ([[4, 1], [1, 6]], 60), (_A3, 30), (_D4, 30),
)


class TestClosedForm:
    @pytest.mark.parametrize("gram, c_max", _CLOSED_FORM_LATTICES)
    def test_table_matches_walk_and_definition(self, gram, c_max):
        # H_c = e(beta(r', r)/c) K W: K in closed form on the part of c prime to
        # 2 det, W walked on the rest; against the whole walk of lattice_sum_fft
        # at every c and the (d, lambda) double sum where it is small
        lat = make_lattice(gram)
        rng = random.Random(len(gram) * 100 + c_max)
        supp = _negative_supp(lat, 2)
        nonzero = [idx for idx in supp if idx.x != lat.disc_group.zero]
        sources = [(Fraction(0), lat.disc_group.zero), (supp[0].D, supp[0].x),
                   (nonzero[0].D, nonzero[0].x)]
        targets = [(idx.D, idx.x) for idx in [nonzero[-1]] + rng.sample(supp, 2)]
        assert any(D != 0 for D, _ in sources) and any(r != lat.disc_group.zero for _, r in sources)
        for D, r in sources:
            table = expsums._h_table(lat, D, r, targets, c_max)
            for row, (Dp, rp) in enumerate(targets):
                for c in range(1, c_max + 1):
                    want = lattice_sum_fft(lat, D, r, Dp, rp, c)
                    assert table[row, c - 1] == pytest.approx(want, rel=1e-10, abs=1e-10), (D, r, Dp, rp, c)
        # the double sum costs phi(c) c^rank phases: one pair, the small c and c = 12
        (D, r), (Dp, rp) = sources[2], targets[0]
        table = expsums._h_table(lat, D, r, [(Dp, rp)], c_max)
        for c in {c for c in range(1, c_max + 1) if c ** (lat.rank + 1) <= 3 * 10**4} | {12}:
            want = poincare_lattice_sum(lat, D, r, Dp, rp, c)
            assert table[0, c - 1] == pytest.approx(want, rel=1e-10, abs=1e-10), c

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_table_matches_walk_on_random_lattices(self, data):
        # random even forms of rank 1-3 with det <= 64: radicals of G mod 2 of
        # every dimension from 0 to rank, and the odd primes of det, against the
        # whole walk at every c <= 48 (c_b = 16 and 32 included)
        rank = data.draw(st.integers(1, 3))
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            gram[i][i] = 2 * data.draw(st.integers(1, 5))
            for j in range(i):
                gram[i][j] = gram[j][i] = data.draw(st.integers(-3, 3))
        try:
            lat = make_lattice(gram)
        except ValidationError:
            assume(False)
        assume(lat.det <= 64)
        supp = [(idx.D, idx.x) for idx in _negative_supp(lat, 2)]
        D, r = data.draw(st.sampled_from([(Fraction(0), lat.disc_group.zero)] + supp))
        Dp, rp = data.draw(st.sampled_from(supp))
        table = expsums._h_table(lat, D, r, [(Dp, rp)], 48)
        for c in range(1, 49):
            want = lattice_sum_fft(lat, D, r, Dp, rp, c)
            assert table[0, c - 1] == pytest.approx(want, rel=1e-10, abs=1e-10), (gram, D, r, Dp, rp, c)

    @pytest.mark.parametrize("path", _SHIPPED, ids=[p.stem for p in _SHIPPED])
    def test_phase_in_ints_is_unit_phase_bit_for_bit(self, path):
        # e(p0/c) with p0 = beta(r', r) as the H_c routes take it, reduced in ints
        _, lat = load_lattice_json(str(path))
        group = lat.disc_group
        p0s = {lat.pairing(x.rep, y.rep) for x in group for y in group}
        for p0 in p0s:
            for c in range(1, 1001):
                got = unit_phase_ratio(p0.numerator, p0.denominator * c)
                want = unit_phase(p0 / c)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (p0, c)

    def test_mixed_c_split(self):
        # c_b collects the primes of 2 det, c_g the rest
        assert expsums._split(12, 6) == (1, 12)
        assert expsums._split(24, 4) == (3, 8)
        assert expsums._split(36, 16) == (9, 4)
        assert expsums._split(35, 6) == (35, 1)
        assert expsums._split(1, 6) == (1, 1)


class TestRepCount:
    def test_unit_modulus(self, a1):
        key = RepCountKey(lattice=a1, x=a1.disc_group.zero, D=Fraction(-1), b=1)
        assert rep_count(key) == 1

    def test_a1_example(self, a1):
        key = RepCountKey(lattice=a1, x=a1.disc_group.zero, D=Fraction(-1), b=2)
        assert rep_count(key) == 1

    def test_square2_example(self, square2):
        key = RepCountKey(lattice=square2, x=square2.disc_group.zero, D=Fraction(-1), b=3)
        assert rep_count(key) == 4

    def test_multiplicativity(self, a1, square2):
        for lat in (a1, square2):
            x0 = lat.disc_group.zero

            def r(b):
                return rep_count(RepCountKey(lattice=lat, x=x0, D=Fraction(-1), b=b))

            def enum(b):
                return rep_count_enumerate(lat, x0, -1, b)

            for b in range(2, 31):
                for c in range(2, 31):
                    if b * c <= 900 and __import__("math").gcd(b, c) == 1:
                        assert r(b * c) == enum(b) * enum(c), (b, c)

    def test_prime_powers_match_enumeration_oracle(self, test_lattices, a3, d4):
        checked = 0
        for lat in test_lattices + [a3, d4]:
            for idx in _negative_supp(lat):
                for p in (2, 3, 5, 7, 11, 13):
                    e = 1
                    while p ** (e * lat.rank) <= 10**6:
                        key = RepCountKey(lattice=lat, x=idx.x, D=idx.D, b=p**e)
                        expected = rep_count_enumerate(lat, idx.x, idx.D, p**e)
                        assert rep_count(key) == expected, (lat.gram, idx, p, e)
                        checked += 1
                        e += 1
        assert checked > 1000

    def test_composite_moduli_match_enumeration_oracle(self, a1, square2):
        # rep_count is multiplicative by construction (CRT over prime powers);
        # the oracle keeps an independent check of that
        for lat in (a1, square2):
            x0 = lat.disc_group.zero
            for b in range(6, 901):
                if len(factorize(b)) < 2:
                    continue
                key = RepCountKey(lattice=lat, x=x0, D=Fraction(-1), b=b)
                assert rep_count(key) == rep_count_enumerate(lat, x0, Fraction(-1), b), (lat.gram, b)

    def test_large_composite_modulus(self, square2):
        # 5 is a good prime: R_{5^6} = 5^5 R_5 with R_5 = 5 - chi_{-4}(5) = 4
        x0 = square2.disc_group.zero
        key = RepCountKey(lattice=square2, x=x0, D=Fraction(-1), b=10**6)
        assert rep_count(key) == rep_count_enumerate(square2, x0, Fraction(-1), 2**6) * 5**5 * 4

    def test_resource_limit(self, square2, e8):
        # large primes cost nothing: at p = 1009 beta = 0 on E8 (unimodular, so
        # chi = 1) has p^7 + (p - 1) p^3 zeros mod p, and at p = 3163 = 3 mod 4
        # x^2 + y^2 = 0 has only the zero
        for lat, p, expected in ((e8, 1009, 1009**7 + 1008 * 1009**3), (square2, 3163, 1)):
            key = RepCountKey(lattice=lat, x=lat.disc_group.zero, D=Fraction(-p), b=p)
            assert rep_count(key) == expected
        # the guard counts listed singular zeros: diag(118, ..., 118) = 0 mod 59, so
        # at x = 0, D = -59 every point of (Z/59)^4 is one; b = 59 only counts
        # them, b = 59^2 lifts them one by one and is refused
        lat = make_lattice([[118 * (i == j) for j in range(4)] for i in range(4)])
        assert rep_count(RepCountKey(lattice=lat, x=lat.disc_group.zero, D=Fraction(-59), b=59)) == 59**4
        key = RepCountKey(lattice=lat, x=lat.disc_group.zero, D=Fraction(-59), b=59**2)
        with pytest.raises(ResourceLimitError, match=r"p\^k = 59\^4 = 12117361 singular zeros"):
            rep_count(key)

    def test_prime_power_closed_forms_match_enumeration(self, a1, square2, a2):
        # rep_count at good and bad prime powers (the closed-form Hensel nodes at
        # odd p) against the count over (Z/p^e)^rank
        for lat in (a1, square2, a2):
            x0 = lat.disc_group.zero
            for D in (Fraction(-1), Fraction(-2)):
                for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
                    for e in (1, 2):
                        if p ** (e * lat.rank) > 10**7:
                            continue
                        via_form = rep_count(RepCountKey(lattice=lat, x=x0, D=D, b=p**e))
                        via_enum = rep_count_enumerate(lat, x0, D, p**e)
                        assert via_form == via_enum, (lat.gram, D, p, e)


class TestHenselNodes:
    def test_closed_form_matches_walk_oracle(self):
        rng = random.Random(20)
        seen = {"outside im G": 0, "m = 0": 0, "m != 0": 0}
        for gram, p in _NODE_FORMS:
            rank = len(gram)
            points = [tuple(v) for v in product(range(p), repeat=rank)]
            image = {tuple(sum(a * b for a, b in zip(row, lam)) % p for row in gram)
                     for lam in points}
            nodes = []
            for lam1 in rng.sample(points, min(len(points), 6)):
                # g = G lam1: lambda0 = -lam1 solves G lambda0 = -g, and m = 0 exactly
                # when n = beta(lam1) mod p
                g = tuple(sum(a * b for a, b in zip(row, lam1)) % p for row in gram)
                beta1 = _int_beta(gram, lam1)
                nodes += [(g, beta1 % p), (g, (beta1 + rng.randrange(1, p)) % p)]
            nodes += [(rng.choice(points), rng.randrange(p)) for _ in range(6)]
            for g, n in nodes:
                got = expsums._zeros_mod_p(gram, p, g, n)
                assert got == zeros_mod_p_walk(gram, p, g, n), (gram, p, g, n)
                if p > 2:
                    seen["outside im G" if g not in image else "m = 0" if got[1] else "m != 0"] += 1
        assert min(seen.values()) >= 10, seen

    def test_count_lists_no_zero(self):
        # e = 1 needs only the number of zeros mod p: the closed form counts the
        # p^k singular zeros lambda0 + R without building them
        for gram, p in _NODE_FORMS:
            rank = len(gram)
            for g in islice(product(range(p), repeat=rank), 8):
                for n in range(min(p, 4)):
                    nonsingular, singular = zeros_mod_p_walk(gram, p, g, n)
                    assert expsums._zero_count_mod_p(gram, p, g, n) == nonsingular + len(singular)

    def test_rank_four_radical_counts_match_enumeration(self):
        # diag(6,6,6,6) at p = 3: G = 0 mod 3, so every zero mod 3 is singular
        lat = make_lattice([[6, 0, 0, 0], [0, 6, 0, 0], [0, 0, 6, 0], [0, 0, 0, 6]])
        for x in list(lat.disc_group)[::7]:
            for D in (x.beta_mod1 - 1, x.beta_mod1 - 3):
                for b in (3, 6, 9):
                    key = RepCountKey(lattice=lat, x=x, D=D, b=b)
                    assert rep_count(key) == rep_count_enumerate(lat, x, D, b), (x, D, b)


class TestLocalFactor:
    def test_square2_example(self, square2):
        x0 = square2.disc_group.zero
        assert local_factor(square2, x0, Fraction(-1), 3, 3) == Fraction(28, 27)

    def test_good_prime_closed_form_even_rank(self, square2):
        x0 = square2.disc_group.zero
        assert good_prime_factor(square2, x0, Fraction(-1), 3, 3) == Fraction(28, 27)

    def test_good_prime_closed_form_odd_rank(self, a1):
        x0 = a1.disc_group.zero
        assert local_factor(a1, x0, Fraction(-1), 5, 4) == Fraction(626, 625)
        assert good_prime_factor(a1, x0, Fraction(-1), 5, 4) == Fraction(626, 625)

    def test_good_prime_grid(self, test_lattices):
        # acceptance-5 style sweep: exact rational identities at good primes
        for lat in test_lattices:
            x0 = lat.disc_group.zero
            D = Fraction(-1)
            for p in (3, 5, 7, 11):
                if p in bad_primes(lat, x0, D):
                    continue
                for s in range(3, 10):
                    assert local_factor(lat, x0, D, p, s) == good_prime_factor(
                        lat, x0, D, p, s
                    )

    def test_stabilization_failure_guard(self, a1, monkeypatch):
        # counts that never stabilize: R_{p^l} = l + 2 is never geometric
        x0 = a1.disc_group.zero
        D = Fraction(-7)
        p = 9973
        monkeypatch.setattr(expsums, "rep_count", lambda key: _ord_p(key.b, p) + 2)
        expsums._stable_profile.cache_clear()
        try:
            with pytest.raises(StabilizationFailureError):
                local_factor(a1, x0, D, p, 3)
        finally:
            expsums._stable_profile.cache_clear()


class TestDirichletSeries:
    def test_b_one(self, a1):
        assert dirichlet_series_partial(a1, a1.disc_group.zero, Fraction(-1), 3.0, 1) == 1.0

    def test_monotone_in_B(self, a1):
        x0 = a1.disc_group.zero
        v100 = dirichlet_series_partial(a1, x0, Fraction(-1), 3.0, 100)
        v1000 = dirichlet_series_partial(a1, x0, Fraction(-1), 3.0, 1000)
        assert v100 <= v1000

    def test_matches_euler_product(self, a1):
        # partial sum vs zeta(s - rank + 1) * prod L~_p over the same primes
        x0 = a1.disc_group.zero
        D = Fraction(-1)
        s = 3
        partial = dirichlet_series_partial(a1, x0, D, float(s), 5000)
        product = zeta_float(s - a1.rank + 1)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
            product *= float(local_factor(a1, x0, D, p, s))
        assert partial == pytest.approx(product, rel=1e-4)

    def test_sieve_gives_smallest_prime_factors(self):
        spf = expsums._spf_sieve(5000)
        assert all(spf[n] == factorize(n)[0][0] for n in range(2, 5001))

    def test_domain_guard(self, a1):
        with pytest.raises(ValueError):
            dirichlet_series_partial(a1, a1.disc_group.zero, Fraction(-1), 1.2, 100)
