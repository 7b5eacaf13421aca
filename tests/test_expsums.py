import math
import random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import islice, product
from operator import mul
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
from jacobiforms import expsums, repcounts
from jacobiforms.expsums import h_series_terms
from jacobiforms.lattice import enumerate_supp, load_lattice_json, support_data
from jacobiforms.modp import jordan_splitting, mod_p_node
from jacobiforms.numbertheory import factorize, kronecker, zeta_float
from jacobiforms.oracles import H_POINT_LIMIT, good_prime_factor, lattice_sum_fft
from jacobiforms.rationals import unit_phase, unit_phase_ratio
from jacobiforms.repcounts import bad_primes

from oracles import (
    gauss_sum_recursion,
    hensel_count,
    local_factor_sum,
    mod_p_coset,
    node_walk,
    rep_count_enumerate,
    zeros_mod_p_walk,
)

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
# the forms of the counts against the recursion oracle, at p = 2, 3, 5, 7: a1, [[8]],
# a2, A3, D4, 2 D4, [[4, 1], [1, 4]], diag(6)^4, diag(2, 2, 6), [[14]] and an odd rank-3 form
_COUNT_FORMS = (
    ((2,),), ((8,),), ((2, 1), (1, 2)), _A3, _D4, tuple(tuple(2 * v for v in row) for row in _D4),
    ((4, 1), (1, 4)), tuple(tuple(6 * (i == j) for j in range(4)) for i in range(4)),
    ((2, 0, 0), (0, 2, 0), (0, 0, 6)), ((14,),), ((10, 1, 0), (1, 10, 5), (0, 5, 10)),
)


def _int_beta(gram, lam):
    return sum(gram[i][j] * lam[i] * lam[j] for i in range(len(lam)) for j in range(len(lam))) // 2


def _hensel_square_walk(gram, p, g, n):
    """(R_{p^2} of Q(lambda) = beta(lambda) + g.lambda + n, its singular zeros mod p) from
    the walk of (Z/p)^rank: a nonsingular zero lifts to p^(rank-1) zeros mod p^2, a
    singular one to p^rank if p^2 | Q there (Q mod p^2 is the same at each of its
    representatives) and to none otherwise."""
    rank = len(gram)
    nonsingular, singular = zeros_mod_p_walk(gram, p, g, n)
    lifted = sum((_int_beta(gram, lam) + sum(a * b for a, b in zip(g, lam)) + n) % (p * p) == 0
                 for lam in singular)
    return nonsingular * p ** (rank - 1) + p**rank * lifted, singular


def _counts(gram, p, g, n, e):
    """[R_{p^0}, ..., R_{p^e}] of Q(lambda) = beta(lambda) + g.lambda + n, from the unit sums
    of `modp` by R_{p^f} = p^(rank-1) R_{p^(f-1)} + T_f / p^f, as `repcounts` forms them."""
    counts, unit_sum = [1], mod_p_node(gram, p).unit_sum
    for f in range(1, e + 1):
        t = unit_sum(f, g, n)
        assert t % p**f == 0, (gram, p, g, n, f)
        counts.append(p ** (len(gram) - 1) * counts[-1] + t // p**f)
    return counts


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
        # unit and G r', in closed form and unmemoized, so beside the one packed
        # row of H_c (16 bytes per c) that each extra target adds to the table it
        # peaks about where one coefficient does
        spec = EisensteinSpec(lattice=square2, k=10, r=square2.disc_group.zero)
        first = _negative_supp(square2, 1)[0]
        eisenstein_expansion(spec, 1, "numeric", c_max=400)  # imports and one-off tables

        def peak(run):
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

    def test_two_e8_table_finishes_and_the_walk_keeps_its_limit(self, a3, e8):
        # 2 E8 (G = 0 mod 2) at c <= 1000, which the Gauss-sum recursion refused
        # by its leaf count, is a finished table of closed forms; it agrees with
        # the walk of (Z/c)^8 where that is small
        two_e8 = make_lattice([[2 * v for v in row] for row in e8.gram])
        zero = two_e8.disc_group.zero
        targets = [(idx.D, idx.x) for idx in enumerate_supp(two_e8, 1) if idx.D < 0]
        table = expsums._h_table(two_e8, 0, zero, targets, 1000)
        for i, (Dp, rp) in list(enumerate(targets))[::max(1, len(targets) // 4)]:
            row = list(table.row(i))
            assert len(row) == 1000 and all(math.isfinite(abs(h)) for h in row)
            for c in (1, 2, 3, 4):
                assert row[c - 1] == pytest.approx(lattice_sum_fft(two_e8, 0, zero, Dp, rp, c), abs=1e-6)
        # the walk oracle keeps the point limit on its c-sum
        points = sum(c**3 for c in range(1, 2001))
        assert points > H_POINT_LIMIT
        with pytest.raises(ResourceLimitError, match=str(points)):
            lattice_sum_fft(a3, -1, a3.disc_group.zero, -1, a3.disc_group.zero, 2000)


# the lattices of the closed-form checks, with the c they run to: every c <= 60
# at ranks 1-2 and <= 30 at ranks 3-4.  Every c made of good and bad primes
# occurs, and on [[6]] (2 det = 12), [[10]] (20) and [[4, 1], [1, 4]] (30) the
# part of c at the primes of 2 det has two or three prime powers
_CLOSED_FORM_LATTICES = (
    ([[2]], 60), ([[6]], 60), ([[8]], 60), ([[2, 1], [1, 2]], 60), ([[2, 0], [0, 2]], 60),
    ([[4, 1], [1, 6]], 60), (_A3, 30), (_D4, 30), ([[10]], 60), ([[4, 1], [1, 4]], 60),
)


class TestClosedForm:
    @pytest.mark.parametrize("gram, c_max", _CLOSED_FORM_LATTICES)
    def test_table_matches_walk_and_definition(self, gram, c_max):
        # H_c = e(beta(r', r)/c) prod_q F_q(b_q): F_q in closed form at the q prime
        # to 2 det, by the Gauss-sum recursion at the rest; against the whole walk
        # of lattice_sum_fft at every c and the (d, lambda) double sum where it is small
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

    def test_walk_counts_pairs_before_the_float_sum(self):
        # H_45 is exactly 0 here; the walk once summed 45^3 float roots and read 1.3e-10
        lat = make_lattice([[6, -2, 3], [-2, 2, -3], [3, -3, 10]])
        group = lat.disc_group
        D, r, Dp, rp = Fraction(-53, 88), group.element((1,)), Fraction(-15, 8), group.element((11,))
        assert expsums._h_table(lat, D, r, [(Dp, rp)], 45)[0, 44] == 0
        assert lattice_sum_fft(lat, D, r, Dp, rp, 45) == pytest.approx(0, abs=1e-11)

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

    @pytest.mark.parametrize("p, e", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (11, 1), (13, 1)])
    @pytest.mark.parametrize("odd", [0, 1])
    def test_prime_power_sum_matches_definition(self, p, e, odd):
        # S_q(x, t) at every (x, t) mod q against its defining sum over the units
        # with exact Fraction phases: the Ramanujan sums and their twists, the
        # Salie form, the x <-> t swap, p | x with p not dividing t, and the
        # direct sums all occur
        q = p**e
        seen = set()
        for x, t in product(range(q), repeat=2):
            want = sum((kronecker(d, p) ** e if odd else 1) * unit_phase(Fraction(x * d + t * pow(d, -1, q), q))
                       for d in range(1, q) if d % p)
            got = expsums._prime_power_sum(p, e, x, t, odd)
            assert got == pytest.approx(want, abs=1e-11 * q), (x, t)
            closed = bool(odd or e % 2 == 0) and bool(t % p or x % p)
            seen.add("ramanujan" if x % q == 0 or t % q == 0 else "direct" if not closed
                     else "swap" if t % p == 0 else "p | x" if x % p == 0 else "salie")
        # at e = 1, p | x means q | x: the Ramanujan sums take every such case
        if not (odd or e % 2 == 0):
            assert seen == {"ramanujan", "direct"}
        else:
            assert seen == {"ramanujan", "salie"} | ({"swap", "p | x", "direct"} if e > 1 else set())

    @pytest.mark.parametrize("gram", [[[2]], [[6]], [[2, 1], [1, 2]], [[4, 1], [1, 4]], _A3])
    def test_local_factors_match_double_sum(self, gram):
        # F_q(b) at the q = p^e, e <= 3, prime to 2 det (the closed form) and at
        # the rest (the Gauss-sum recursion), against the double sum over V and
        # lambda mod q, at D = 0 and D != 0 and a few units b.  D' runs to -3, so
        # D' = 0 mod 3 (a Ramanujan sum at D != 0) and p | D at q = 9 occur
        lat = make_lattice(gram)
        supp = _negative_supp(lat, 3)
        sources = [(Fraction(0), lat.disc_group.zero), (supp[0].D, supp[0].x), (supp[-1].D, supp[-1].x)]
        targets = [(idx.D, idx.x) for idx in supp[::max(1, len(supp) // 4)]]
        seen = set()
        for p, e in product((2, 3, 5, 7), (1, 2, 3)):
            q = p**e
            if q ** (lat.rank + 1) > 10**5:
                continue
            good = 2 * lat.det % p != 0
            seen.add(good)
            for D, r in sources:
                data = expsums._sum_data(lat, D, r, targets)
                constants = expsums._good_constants(data, lat.det, p, e) if good else None
                for b in sorted({b for b in (1, 2, q - 1) if b % p}):
                    got = expsums._good_part(data, p, e, b, constants) if good else expsums._bad_part(data, q, b)
                    for (Dp, rp), z in zip(targets, got):
                        want = local_factor_sum(lat, D, r, Dp, rp, q, b)
                        assert z == pytest.approx(want, abs=1e-9 * q ** (lat.rank / 2 + 1)), (q, b, D, r, Dp, rp)
        assert seen == {True, False}


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

    def test_modulus_must_be_integral(self, a1):
        x0 = a1.disc_group.zero
        for b in (5.5, Fraction(11, 2), 5.0, 0, Fraction(0)):
            with pytest.raises(ValueError, match="modulus b must be a positive integer, got"):
                RepCountKey(lattice=a1, x=x0, D=Fraction(-1), b=b)
        assert rep_count(RepCountKey(lattice=a1, x=x0, D=Fraction(-1), b=Fraction(5))) == rep_count(
            RepCountKey(lattice=a1, x=x0, D=Fraction(-1), b=5))
        for B in (5.5, Fraction(11, 2), 0):
            with pytest.raises(ValueError, match="B must be a positive integer, got"):
                repcounts.representation_numbers(a1, x0, Fraction(-1), B)

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
        # nor do singular zeros: diag(118, ..., 118) = 0 mod 59, so at x = 0, D = -59
        # every point of (Z/59)^4 is a singular zero, and mod 59^2 Q = 59 (sum y_i^2 + 1)
        # vanishes at 59^4 lifts of each of the 59^3 - 59 zeros of sum y_i^2 = -1 mod 59;
        # the unit sums list none of them
        lat = make_lattice([[118 * (i == j) for j in range(4)] for i in range(4)])
        assert rep_count(RepCountKey(lattice=lat, x=lat.disc_group.zero, D=Fraction(-59), b=59)) == 59**4
        key = RepCountKey(lattice=lat, x=lat.disc_group.zero, D=Fraction(-59), b=59**2)
        start = time.perf_counter()
        assert rep_count(key) == 2_487_936_560_520 == 59**4 * (59**3 - 59)
        assert time.perf_counter() - start < 1

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
                want, singular = _hensel_square_walk(gram, p, g, n)
                assert _counts(gram, p, g, n, 2)[2] == want, (gram, p, g, n)
                if p > 2:
                    seen["outside im G" if g not in image else "m = 0" if singular else "m != 0"] += 1
        assert min(seen.values()) >= 10, seen

    def test_count_lists_no_zero(self):
        # e = 1 is the number of zeros mod p: T_1 counts the p^k singular zeros
        # lambda0 + R without building them
        for gram, p in _NODE_FORMS:
            rank = len(gram)
            for g in islice(product(range(p), repeat=rank), 8):
                for n in range(min(p, 4)):
                    nonsingular, singular = zeros_mod_p_walk(gram, p, g, n)
                    assert _counts(gram, p, g, n, 1)[1] == nonsingular + len(singular)

    def test_counts_match_recursion_oracle(self):
        # R_{p^l}, l <= e, from the unit sums T_f against the Hensel recursion (whose
        # zeros mod p come from the walk of (Z/p)^rank), as exact ints, on random
        # (g, n): half of them g = p^j G lambda and n = p^i y, where singular zeros
        # recurse and the counts leave p^(rank-1) R_{p^(l-1)}
        rng = random.Random(23)
        seen = {"zero": 0, "stable": 0, "unstable": 0}
        for gram in _COUNT_FORMS:
            rank = len(gram)
            for p in (2, 3, 5, 7):
                e = 5 if p == 2 else 3
                q = p**e
                for _ in range(10):
                    if rng.random() < 0.5:
                        g, n = tuple(rng.randrange(q) for _ in gram), rng.randrange(q)
                    else:
                        lam = [rng.randrange(q) for _ in gram]
                        g = tuple(p ** rng.randint(0, e) * sum(map(mul, row, lam)) % q for row in gram)
                        n = p ** rng.randint(0, e) * rng.randrange(p) % q
                    got = _counts(gram, p, g, n, e)
                    for l in range(1, e + 1):
                        want = hensel_count(gram, p, tuple(v % p**l for v in g), n % p**l, l)
                        assert type(got[l]) is int and got[l] == want, (gram, p, g, n, l, got[l], want)
                        seen["zero" if want == 0 else "stable" if want == p ** (rank - 1) * got[l - 1]
                             else "unstable"] += 1
        assert sum(seen.values()) >= 1500 and min(seen.values()) >= 100, seen

    def test_node_solve_and_leaf_match_walk_oracle(self):
        # the node that the recursion oracles read: its coset solve(h) and the base
        # it starts from, and the Gauss sum S(U, h; p) of the splitting, against
        # the walk of (Z/p)^rank
        rng = random.Random(21)
        seen = {"solvable": 0, "unsolvable": 0}
        for gram, p in _NODE_FORMS:
            rank = len(gram)
            coset = mod_p_coset(gram, p)
            points = [tuple(v) for v in product(range(p), repeat=rank)]
            hs = [tuple(-sum(a * b for a, b in zip(row, lam)) % p for row in gram)
                  for lam in rng.sample(points, min(len(points), 4))]
            hs += [(0,) * rank] + [rng.choice(points) for _ in range(4)]
            for h in hs:
                U = rng.randrange(1, p)
                solutions, leaf = node_walk(gram, p, U, h)
                listed = coset.solve(h)
                assert {tuple(v % p for v in lam) for lam, _, _ in listed} == solutions, (gram, p, h)
                assert len(listed) == len(solutions) in (0, p**coset.k)
                for lam, beta, glam in listed:
                    assert beta == _int_beta(gram, lam)
                    assert list(glam) == [sum(a * b for a, b in zip(row, lam)) for row in gram]
                base = coset.base(h)
                assert base is None if not solutions else tuple(v % p for v in base) in solutions
                assert abs(mod_p_node(gram, p).gauss_sum(1)(U, h) - leaf) <= 1e-9 * p**rank, (gram, p, U, h)
                seen["solvable" if solutions else "unsolvable"] += 1
        assert min(seen.values()) >= 10, seen

    def test_node_at_two_matches_walk_on_random_forms(self):
        # the node at p = 2 from the pairs and the radical of G mod 2: k, the coset
        # solve(h) and its base (of the oracles), the Arf-invariant sum S(1, h; 2)
        # and the counts mod 2 and 4, against the walk of (Z/2)^rank on random even
        # forms of rank 1-8
        rng = random.Random(22)
        seen = {"leaf 0, h in im G": 0, "Arf 0": 0, "Arf 1": 0, "k = 0": 0, "k >= 2": 0}
        for _ in range(300):
            rank = rng.randint(1, 8)
            g = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                g[i][i] = 2 * rng.randint(-3, 3)
                for j in range(i + 1, rank):
                    g[i][j] = g[j][i] = rng.randint(-3, 3)
            gram = tuple(map(tuple, g))
            coset = mod_p_coset(gram, 2)
            assert 2**coset.k == len(node_walk(gram, 2, 1, (0,) * rank)[0]), gram
            if coset.k != 1:
                seen["k = 0" if coset.k == 0 else "k >= 2"] += 1
            points = list(product(range(2), repeat=rank))
            for h in rng.sample(points, min(len(points), 4)):
                solutions, walked = node_walk(gram, 2, 1, h)
                listed = coset.solve(h)
                assert {tuple(v % 2 for v in lam) for lam, _, _ in listed} == solutions, (gram, h)
                assert len(listed) == len(solutions)
                assert (coset.base(h) is None) == (not solutions)
                leaf = mod_p_node(gram, 2).gauss_sum(1)(1, h)
                assert type(leaf) is int and leaf == round(walked.real), (gram, h)
                for n in (0, 1):
                    nonsingular, singular = zeros_mod_p_walk(gram, 2, h, n)
                    counts = _counts(gram, 2, h, n, 2)
                    assert counts == [1, nonsingular + len(singular), _hensel_square_walk(gram, 2, h, n)[0]]
                if solutions:
                    seen["leaf 0, h in im G" if leaf == 0 else "Arf 0" if leaf > 0 else "Arf 1"] += 1
        assert min(seen.values()) >= 10, seen

    def test_rank_24_node_runs(self, e8):
        # E8^3 is unimodular of rank 24: G mod 2 has no radical, 12 pairs and Arf
        # invariant 0, so S(1, 0; 2) = 2^12 and beta takes the value 1 mod 2 at
        # (2^24 - 2^12) / 2 points, from the splitting and its unit sum T_1
        lat = make_lattice([[e8.gram[i % 8][j % 8] if i // 8 == j // 8 else 0 for j in range(24)]
                            for i in range(24)])
        assert mod_p_coset(lat.gram, 2).k == 0
        assert mod_p_node(lat.gram, 2).gauss_sum(1)(1, (0,) * 24) == 4096
        key = RepCountKey(lattice=lat, x=lat.disc_group.zero, D=Fraction(-1), b=2)
        assert rep_count(key) == (2**24 - 2**12) // 2

    def test_leaf_lists_no_point(self):
        # diag(118, ..., 118) = 0 mod 59, so the radical is all of (Z/59)^4: the
        # Gauss sums read the splitting, four blocks 118 = 2 * 59, and list none
        # of the 59^4 points.  Mod 59^2 each block is 59 times the Gauss sum
        # (3/59) i sqrt(59) of 3 y^2 mod 59, so S(3, 0; 59^2) = 59^4 59^2
        gram = tuple(tuple(118 * (i == j) for j in range(4)) for i in range(4))
        node = mod_p_node(gram, 59)
        assert node.gauss_sum(1)(3, (0, 0, 0, 0)) == 59**4
        assert node.gauss_sum(1)(3, (1, 0, 0, 0)) == 0
        assert node.gauss_sum(2)(3, (0, 0, 0, 0)) == pytest.approx(59**6, rel=1e-12)
        # t' = 1 in the first block: the phase e(-(4 * 3)^-1 / 59)
        phase = unit_phase_ratio(-pow(12, -1, 59), 59)
        assert node.gauss_sum(2)(3, (59, 0, 0, 0)) == pytest.approx(59**6 * phase, rel=1e-12)
        assert node.gauss_sum(2)(3, (1, 0, 0, 0)) == 0

    def test_rank_four_radical_counts_match_enumeration(self):
        # diag(6,6,6,6) at p = 3: G = 0 mod 3, so every zero mod 3 is singular
        lat = make_lattice([[6, 0, 0, 0], [0, 6, 0, 0], [0, 0, 6, 0], [0, 0, 0, 6]])
        for x in list(lat.disc_group)[::7]:
            for D in (x.beta_mod1 - 1, x.beta_mod1 - 3):
                for b in (3, 6, 9):
                    key = RepCountKey(lattice=lat, x=x, D=D, b=b)
                    assert rep_count(key) == rep_count_enumerate(lat, x, D, b), (x, D, b)


def _fraction_det(rows):
    a, det = [list(map(Fraction, row)) for row in rows], Fraction(1)
    for t in range(len(a)):
        i = next((i for i in range(t, len(a)) if a[i][t]), None)
        if i is None:
            return Fraction(0)
        if i != t:
            a[t], a[i], det = a[i], a[t], -det
        det *= a[t][t]
        for r in range(t + 1, len(a)):
            f = a[r][t] / a[t][t]
            a[r] = [x - f * y for x, y in zip(a[r], a[t])]
    return det


# the forms of the closed-form Gauss sums, checked at every p | 2 det with the
# recursion as oracle: a1, [[8]], a2, square2, A3, D4, 2 D4, E8, 2 E8,
# [[4, 1], [1, 4]], [[10]], A1^3, [[14]], [[2, 1], [1, 4]], [[118, 59], [59, 118]]
# and diag(118)^4
_E8 = ((2, -1, 0, 0, 0, 0, 0, 0), (-1, 2, -1, 0, 0, 0, 0, 0), (0, -1, 2, -1, 0, 0, 0, -1),
       (0, 0, -1, 2, -1, 0, 0, 0), (0, 0, 0, -1, 2, -1, 0, 0), (0, 0, 0, 0, -1, 2, -1, 0),
       (0, 0, 0, 0, 0, -1, 2, 0), (0, 0, -1, 0, 0, 0, 0, 2))
_GAUSS_FORMS = (
    ((2,),), ((8,),), ((2, 1), (1, 2)), ((2, 0), (0, 2)), _A3, _D4,
    tuple(tuple(2 * v for v in row) for row in _D4), _E8, tuple(tuple(2 * v for v in row) for row in _E8),
    ((4, 1), (1, 4)), ((10,),), ((2, 0, 0), (0, 2, 0), (0, 0, 2)), ((14,),), ((2, 1), (1, 4)),
    ((118, 59), (59, 118)), tuple(tuple(118 * (i == j) for j in range(4)) for i in range(4)),
)


class TestJordanSplitting:
    def test_gauss_sum_matches_recursion(self):
        # S(U, h; p^e) as a product over the blocks of the splitting, against the
        # recursion two powers of p at a time (down to the walk of (Z/p)^rank), at
        # every p | 2 det and e <= 5 (e <= 3 at rank 8 or p = 59).  h is random, or
        # p^j G lambda, where the sum is often nonzero.  diag(118)^4 at p = 59 is
        # left to test_leaf_lists_no_point: the recursion lists 59^4 points there
        rng = random.Random(31)
        seen = {"zero": 0, "nonzero": 0}
        for gram in _GAUSS_FORMS:
            rank = len(gram)
            for p, _ in factorize(2 * make_lattice(gram).det):
                if p == 59 and rank == 4:
                    continue
                node = mod_p_node(gram, p)
                for e in range(1, 4 if rank == 8 or p > 7 else 6):
                    q = p**e
                    for _ in range(6):
                        U = rng.choice([u for u in range(1, q) if u % p])
                        lam = [rng.randrange(q) for _ in range(rank)]
                        h = tuple(rng.randrange(q) for _ in range(rank)) if rng.random() < 0.3 else tuple(
                            p ** rng.randint(0, e) * sum(map(mul, row, lam)) % q for row in gram)
                        want = gauss_sum_recursion(gram, p, e, U, h)
                        got = node.gauss_sum(e)(U, h)
                        assert abs(got - want) <= 1e-9 * max(1, abs(want)), (gram, p, e, U, h, got, want)
                        seen["zero" if abs(want) < 0.5 else "nonzero"] += 1
        assert min(seen.values()) >= 50, seen

    def test_splitting_is_exact_on_random_forms(self):
        # B^t G B = J exactly, J block-diagonal with the blocks and valuations the
        # splitting names, B p-integral with det B a p-unit, on 300 random even
        # forms of rank 1-8 at p = 2, 3, 5 whose entries carry powers of p; on a
        # degenerate form the kernel is a zero block
        rng = random.Random(32)
        seen = {"2x2": 0, "v >= 1": 0, "degenerate": 0}
        for _ in range(300):
            p, rank = rng.choice((2, 3, 5)), rng.randint(1, 8)
            g = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                g[i][i] = 2 * rng.randint(-3, 3) * rng.choice((1, 1, p, p * p))
                for j in range(i + 1, rank):
                    g[i][j] = g[j][i] = rng.randint(-3, 3) * rng.choice((1, 1, p, p * p))
            basis, blocks = jordan_splitting(tuple(map(tuple, g)), p)
            assert all(x.denominator % p for vec in basis for x in vec)
            assert _fraction_det(basis).numerator % p
            want = [[Fraction(0)] * rank for _ in range(rank)]
            for idx, m, v in blocks:
                if len(idx) == 1:
                    want[idx[0]][idx[0]] = m[0]
                    assert m[0] == 0 if v == math.inf else (m[0] / 2 / Fraction(p) ** v).numerator % p
                else:
                    i, j = idx
                    want[i][i], want[i][j], want[j][i], want[j][j] = m[0], m[1], m[1], m[2]
                    assert p == 2 and (m[1] / 2**v).numerator % 2 and not (m[0] / 2**v).numerator % 2
                    seen["2x2"] += 1
                seen["v >= 1"] += 1 <= v < math.inf
                seen["degenerate"] += v == math.inf
            got = [[sum(x * gij * y for x, row in zip(bi, g) for gij, y in zip(row, bj)) for bj in basis]
                   for bi in basis]
            assert got == want, (g, p)
        assert min(seen.values()) >= 10, seen


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

    def test_s_must_be_integral(self, a1):
        x0 = a1.disc_group.zero
        for s in (2.5, 3.0, Fraction(5, 2), 0):
            with pytest.raises(ValueError, match=re.escape(f"s must be a positive integer, got {s!r}")):
                local_factor(a1, x0, Fraction(-1), 2, s)
        assert local_factor(a1, x0, Fraction(-1), 2, Fraction(3)) == local_factor(a1, x0, Fraction(-1), 2, 3)

    def test_bad_primes_match_the_hensel_profile(self):
        # the R-profile formula p^(-w s) R_w + (1 - p^(rank-1-s)) sum_{l<w} p^(-l s) R_l on the
        # counts of the Hensel recursion, w raised from max(1, 1 + 2 ord_p(2 Dtilde)) while
        # R_{w+1} != p^(rank-1) R_w, against `local_factor` at every bad prime
        checks = 0
        for gram in (((2,),), ((8,),), ((2, 1), (1, 2)), ((2, 0), (0, 2)), _A3, ((4, 1), (1, 4)), _D4):
            lat = make_lattice(gram)
            for idx in _negative_supp(lat):
                _, n, g = support_data(lat, idx.D, idx.x)
                for p in bad_primes(lat, idx.x, idx.D):
                    def count(l):
                        return hensel_count(lat.gram, p, tuple(v % p**l for v in g), n % p**l, l)

                    w = max(1, 1 + 2 * dict(factorize(abs(int(2 * idx.D * idx.x.order**2)))).get(p, 0))
                    while count(w + 1) != p ** (lat.rank - 1) * count(w):
                        w += 1
                        assert w < 20, (gram, idx, p)
                    for s in (3, 5, 7):
                        partial = sum(Fraction(p) ** (-l * s) * count(l) for l in range(w))
                        want = Fraction(p) ** (-w * s) * count(w) + (1 - Fraction(p) ** (lat.rank - 1 - s)) * partial
                        assert local_factor(lat, idx.x, idx.D, p, s) == want, (gram, idx, p, s)
                        checks += 1
        assert checks >= 500, checks

    def test_stabilization_failure_guard(self, a1, monkeypatch):
        # unit sums that never vanish: T_f = p^f, so R_{p^l} = l + 1 is never geometric
        x0 = a1.disc_group.zero
        D = Fraction(-7)
        p = 9973
        monkeypatch.setattr(repcounts, "_prime_power_counts", lambda lattice, x, D: lambda q, l: (
            [q**f for f in range(l + 1)], [f + 1 for f in range(l + 1)]))
        with pytest.raises(StabilizationFailureError):
            local_factor(a1, x0, D, p, 3)


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

    def test_domain_guard(self, a1):
        with pytest.raises(ValueError):
            dirichlet_series_partial(a1, a1.disc_group.zero, Fraction(-1), 1.2, 100)


class TestSupportPairs:
    """`lattice.support_data` is the one test of (D, r) in supp(L) behind every
    count and every c-sum: each route refuses the same pairs."""

    @staticmethod
    def _off_support(lat):
        x0 = lat.disc_group.zero
        return [(Fraction(-1, 2), x0), (Fraction(1), x0)]  # D != beta(x) mod 1; D > 0

    def test_counts_refuse_pairs_off_support(self, a1):
        for D, x in self._off_support(a1):
            with pytest.raises(ValueError, match="supp"):
                RepCountKey(lattice=a1, x=x, D=D, b=3)
            with pytest.raises(ValueError, match="supp|D < 0"):
                local_factor(a1, x, D, 2, 3)
            with pytest.raises(ValueError, match="supp"):
                repcounts.representation_numbers(a1, x, D, 10)
            with pytest.raises(ValueError, match="supp"):
                dirichlet_series_partial(a1, x, D, 3.0, 100)
        # D ord(x)^2 = -1/2 is not an integer: refused by name, not by an assert
        with pytest.raises(ValueError, match=r"\(D=-1/2, x=.*\) is not in supp"):
            bad_primes(a1, a1.disc_group.zero, Fraction(-1, 2))

    def test_sums_refuse_pairs_off_support(self, a1):
        good = (Fraction(-1), a1.disc_group.zero)
        for bad in self._off_support(a1):
            for pair, target in ((bad, good), (good, bad)):
                with pytest.raises(ValueError, match="supp"):
                    poincare_lattice_sum(a1, *pair, *target, 3)
                with pytest.raises(ValueError, match="supp"):
                    expsums._h_table(a1, *pair, [target], 5)

    def test_representation_numbers_match_rep_count_and_enumeration(self, a1, a1_scaled4, a2, a3):
        bs = range(1, 61)
        for lat in (a1, a1_scaled4, a2, a3):
            for x in lat.disc_group:
                for D in (x.beta_mod1 - 1, x.beta_mod1 - 6):
                    counts = repcounts.representation_numbers(lat, x, D, len(bs))
                    assert counts == [rep_count(RepCountKey(lattice=lat, x=x, D=D, b=b)) for b in bs]
                    assert counts == [rep_count_enumerate(lat, x, D, b) for b in bs], (lat, x, D)

    def test_sum_data_indexes_each_g_r_once(self, a1_scaled4):
        # x1 at two D' and as its dual vector share G r' = (1,); x3 has G r' = (3,)
        group = a1_scaled4.disc_group
        x1, x3 = group.element((1,)), group.element((3,))
        targets = [(x1.beta_mod1 - 1, x1), (x3.beta_mod1 - 1, x3), (x1.beta_mod1 - 2, x1),
                   (x1.beta_mod1 - 1, x1.rep)]
        data = expsums._sum_data(a1_scaled4, x1.beta_mod1 - 1, x1, targets)
        assert data.gps == ((1,), (3,))
        assert [(g, m) for g, m, _ in data.targets] == [(0, 1), (1, 1), (0, 2), (0, 1)]
        # beta(r', r) = 8 r' r with r = 1/8
        assert [p0 for _, _, p0 in data.targets] == [Fraction(1, 8), Fraction(3, 8), Fraction(1, 8), Fraction(1, 8)]
