"""Self-verification suites behind the `verify` CLI subcommand.

Each check returns quickly (the pytest suite is the exhaustive one); a check
is a (name, callable) pair where the callable raises AssertionError on
failure.  Suites: exp_sums, eisenstein, poincare, weil, all.
"""

import math
import random
import time
from fractions import Fraction

from ._lazy import np
from .eisenstein import (
    EisensteinSpec,
    eisenstein_coefficient_numeric,
    trivial_coefficient_exact,
    trivial_coefficient_series,
)
from .expsums import (
    RepCountKey,
    _h_table,
    good_prime_factor,
    kloosterman_decomposition,
    lattice_sum_fft,
    local_factor,
    poincare_lattice_sum,
    rep_count,
)
from .lattice import enumerate_supp, make_lattice
from .numbertheory import QuadChar, bessel_j, dirichlet_L_nonpositive
from .poincare import PoincareSpec, poincare_coefficient, poincare_expansion
from .weilrep import (
    averaging_matrix,
    conjugation_check,
    nontrivial_from_trivial,
    rho_generator,
    schrodinger_matrix,
)

_TEST_GRAMS = ([[2]], [[8]], [[2, 1], [1, 2]], [[2, 0], [0, 2]])


def _lattices():
    return [make_lattice(g) for g in _TEST_GRAMS]


def _check_kloosterman_decomposition():
    rng = random.Random(11)
    for lat in (_lattices()[0], _lattices()[2]):
        sup = [i for i in enumerate_supp(lat, 2) if i.D < 0]
        # c <= 40, with c = 16 and 32 (c_b = 16 and 32 on both lattices) always among them
        for c in [rng.randint(1, 40) for _ in range(10)] + [16, 32]:
            i1, i2 = rng.choice(sup), rng.choice(sup)
            h = poincare_lattice_sum(lat, i1.D, i1.x, i2.D, i2.x, c)
            kd = kloosterman_decomposition(lat, i1.D, i1.x, i2.D, i2.x, c)
            ff = lattice_sum_fft(lat, i1.D, i1.x, i2.D, i2.x, c)
            # the series table: closed form on the part of c prime to 2 det, Gauss
            # sums on the rest
            tab = _h_table(lat, i1.D, i1.x, [(i2.D, i2.x)], c)[0, c - 1]
            assert abs(h - kd) < 1e-9, (i1, i2, c, h, kd)
            assert abs(h - ff) < 1e-9, (i1, i2, c, h, ff)
            assert abs(h - tab) < 1e-9, (i1, i2, c, h, tab)


def _check_multiplicativity():
    # rep_count builds composite b from prime powers by CRT, so compare it with
    # a direct count of lambda mod b with beta(lambda + x) - D = 0 mod b
    lat = _lattices()[0]
    group = lat.disc_group
    # moduli with non-zero counts: lambda^2 + 1 and lambda^2 + lambda + 1 have roots
    cases = ((group.zero, Fraction(-1), (10, 26, 50, 65, 130)),
             (group.element((1,)), Fraction(-3, 4), (21, 39, 91, 147, 273)))
    for x, D, moduli in cases:
        for b in moduli:
            direct = sum(1 for lam in range(b) if (lat.beta((lam + x.rep[0],)) - D) % b == 0)
            assert rep_count(RepCountKey(lattice=lat, x=x, D=D, b=b)) == direct, (x, b)


def _check_good_primes():
    for lat in _lattices():
        x0 = lat.disc_group.zero
        D = Fraction(-1)
        for p in (3, 5, 7):
            dt = int(D * x0.order**2)
            if (2 * dt * lat.det) % p == 0:
                continue
            for s in (3, 5):
                assert local_factor(lat, x0, D, p, s) == good_prime_factor(lat, x0, D, p, s)


def _check_eichler_zagier():
    lat = make_lattice([[2]])
    group = lat.disc_group
    assert trivial_coefficient_exact(lat, 4, Fraction(-1), group.zero) == 126
    assert trivial_coefficient_exact(lat, 4, Fraction(-3, 4), group.element((1,))) == 56
    assert dirichlet_L_nonpositive(2, QuadChar(-4)) == Fraction(-1, 2)


def _check_dual_path():
    lat = make_lattice([[2, 0], [0, 2]])
    x0 = lat.disc_group.zero
    exact = trivial_coefficient_exact(lat, 6, Fraction(-1), x0)
    approx = trivial_coefficient_series(lat, 6, Fraction(-1), x0, 2000)
    assert abs(float(exact) - approx) <= max(1e-6, 1e-4 * abs(float(exact)))


def _check_odd_weight():
    lat = make_lattice([[2]])
    x0 = lat.disc_group.zero
    assert trivial_coefficient_exact(lat, 5, Fraction(-1), x0) == 0
    spec = EisensteinSpec(lattice=lat, k=5, r=x0)
    val = eisenstein_coefficient_numeric(spec, Fraction(-1), x0, 200)
    assert abs(val.value) <= 1e-9


def _check_numeric_vs_exact():
    lat = make_lattice([[2]])
    x0 = lat.disc_group.zero
    spec = EisensteinSpec(lattice=lat, k=8, r=x0)
    num = eisenstein_coefficient_numeric(spec, Fraction(-1), x0, 500)
    exact = float(trivial_coefficient_exact(lat, 8, Fraction(-1), x0))
    assert abs(num.value - exact) < 1e-4 * abs(exact)


def _check_poincare_props():
    lat = make_lattice([[2]])
    group = lat.disc_group
    xh = group.element((1,))
    spec = PoincareSpec(lattice=lat, k=9, D=Fraction(-3, 4), r=xh)
    exp_pos = poincare_expansion(spec, 2, 60)
    assert all(i.D < 0 for i in exp_pos.entries), "cusp support violated"
    spec_neg = PoincareSpec(lattice=lat, k=9, D=Fraction(-3, 4), r=group.neg(xh))
    exp_neg = poincare_expansion(spec_neg, 2, 60)
    for idx, val in exp_pos.entries.items():
        assert abs(exp_neg.entries[idx] - (-1) ** 9 * val) <= 1e-9


def _check_delta_terms():
    lat = make_lattice([[2]])
    x0 = lat.disc_group.zero
    spec = PoincareSpec(lattice=lat, k=10, D=Fraction(-1), r=x0)
    assert poincare_coefficient(spec, Fraction(-1), x0, 0).value == 2.0


def _check_bessel_past_sixty():
    # the Poincare weights J(4 pi sqrt(D D') / c) reach past x = 60 at large |D D'|
    import mpmath
    for alpha in (Fraction(17, 2), Fraction(9), Fraction(35, 2)):
        for x in (60.5, 125.7, 400.0, 1000.0):
            with mpmath.workdps(30):
                err = abs(bessel_j(alpha, x) - mpmath.besselj(float(alpha), x))
            assert err <= 1e-16, (alpha, x, err)


def _check_unitarity():
    for lat in _lattices():
        for g in ("T", "S"):
            assert rho_generator(lat, g).unitarity_defect() <= 1e-12
        for x in lat.disc_group:
            mat = schrodinger_matrix(lat, x, 1, 1, 1)
            assert mat.unitarity_defect() <= 1e-12


def _check_conjugation():
    for lat in _lattices():
        for x in lat.disc_group:
            for triple in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                for g in ("T", "S"):
                    assert conjugation_check(lat, x, *triple, g) <= 1e-10


def _check_averaging():
    lat = make_lattice([[8]])
    x4 = lat.disc_group.element((4,))
    av = averaging_matrix(lat, x4).matrix
    proj = av / x4.order**2
    assert np.max(np.abs(proj @ proj - proj)) <= 1e-10
    assert np.max(np.abs(av - av.conj().T)) <= 1e-10
    # the relation against the numeric route at orders 2 and 6; at order 6,
    # y = (1,) pairs non-integrally with every multiple of x, y = (2,) with 3x only
    for gram, k, x_coord, y_coords in (([[8]], 4, 4, (2,)), ([[72]], 6, 12, (1, 2))):
        lat = make_lattice(gram)
        group = lat.disc_group
        x = group.element((x_coord,))
        spec = EisensteinSpec(lattice=lat, k=k, r=x)
        for y in (group.element((c,)) for c in y_coords):
            D = y.beta_mod1 - 1
            exact = float(nontrivial_from_trivial(lat, k, x, D, y))
            num = eisenstein_coefficient_numeric(spec, D, y, 800)
            assert abs(exact - num.value) <= max(1e-3, 1e-3 * abs(exact)), (gram, y)


SUITES = {
    "exp_sums": [
        ("kloosterman decomposition", _check_kloosterman_decomposition),
        ("rep-count multiplicativity", _check_multiplicativity),
        ("good-prime closed forms", _check_good_primes),
    ],
    "eisenstein": [
        ("index-one oracle values", _check_eichler_zagier),
        ("exact/series dual path", _check_dual_path),
        ("odd-weight vanishing", _check_odd_weight),
        ("numeric r=0 vs exact", _check_numeric_vs_exact),
    ],
    "poincare": [
        ("cusp support and symmetry", _check_poincare_props),
        ("delta terms", _check_delta_terms),
        ("Bessel J past x = 60", _check_bessel_past_sixty),
    ],
    "weil": [
        ("unitarity", _check_unitarity),
        ("conjugation identity", _check_conjugation),
        ("averaging relations", _check_averaging),
    ],
}


def run_suites(selection):
    """Run the named suite ('all' or a key of SUITES); returns (report, ok)."""
    names = list(SUITES) if selection == "all" else [selection]
    if any(n not in SUITES for n in names):
        raise ValueError(f"unknown suite {selection!r}; choose from all, {', '.join(SUITES)}")
    lines = []
    passed = failed = 0
    for suite in names:
        for label, fn in SUITES[suite]:
            start = time.perf_counter()
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 - report any failure
                failed += 1
                status = f"FAIL ({exc})"
            else:
                passed += 1
                status = "ok"
            elapsed = time.perf_counter() - start
            lines.append(f"[{suite}] {label}: {status} ({elapsed:.2f}s)")
    lines.append(f"{passed} passed, {failed} failed")
    return "\n".join(lines), failed == 0
