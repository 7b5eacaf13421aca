"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 2 is implemented exactly as stated (B = 5000, tolerance
max(1e-6, 1e-4 |exact|), every even weight from rank+2 to 10).  The truncated
Dirichlet series has a C/B tail, which at k = 4 on the rank-2 lattices comes
out at 1.0e-4..1.3e-4 relative -- marginally but genuinely outside the stated
tolerance; those pairs are reported and the assertion is left honest (see the
decisions ledger for the measurements).
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from jacobiforms import (
    EisensteinSpec,
    PoincareSpec,
    QuadChar,
    averaging_matrix,
    conjugation_check,
    dirichlet_L_nonpositive,
    eisenstein_coefficient_numeric,
    eisenstein_expansion,
    kloosterman_decomposition,
    local_factor,
    make_lattice,
    nontrivial_from_trivial,
    poincare_coefficient,
    poincare_expansion,
    rho_generator,
    schrodinger_matrix,
    trivial_coefficient_exact,
    trivial_coefficient_series,
)
from jacobiforms.expsums import (
    RepCountKey,
    bad_primes,
    good_prime_factor,
    poincare_lattice_sum,
    rep_count,
)
from jacobiforms.lattice import enumerate_supp
from jacobiforms.numbertheory import bessel_j, factorize, gamma_half, sigma_twisted
from jacobiforms.rationals import is_integral

from oracles import eichler_zagier_coefficient, poincare_series_oracle, rep_count_enumerate


def _report(number, label, detail=""):
    print(f"ACCEPTANCE {number} ({label}): PASS {detail}")


def test_criterion_01_eichler_zagier_reduction(a1):
    group = a1.disc_group
    # independent oracle: Cohen H(k-1, 4n - r^2) / zeta(3 - 2k) via L-values
    assert eichler_zagier_coefficient(4, 1, 0) == 126
    assert eichler_zagier_coefficient(4, 1, 1) == 56
    assert dirichlet_L_nonpositive(2, QuadChar(-4)) == Fraction(-1, 2)
    assert dirichlet_L_nonpositive(5, QuadChar(1)) == Fraction(-1, 252)
    c0 = trivial_coefficient_exact(a1, 4, Fraction(-1), group.zero)
    c1 = trivial_coefficient_exact(a1, 4, Fraction(-3, 4), group.element((1,)))
    assert (c0, c1) == (126, 56)
    assert isinstance(c0, Fraction) and isinstance(c1, Fraction)
    _report(1, "Eichler-Zagier reduction", "exact 126 and 56")


def test_criterion_02_dual_path_agreement(test_lattices):
    results = []
    for lat in test_lattices:
        weights = [k for k in (4, 6, 8, 10) if k >= lat.rank + 2 and k % 2 == 0]
        for k in weights:
            for idx in enumerate_supp(lat, 3):
                if idx.D >= 0:
                    continue
                exact = trivial_coefficient_exact(lat, k, idx.D, idx.x)
                series = trivial_coefficient_series(lat, k, idx.D, idx.x, 5000)
                diff = abs(float(exact) - series)
                tol = max(1e-6, 1e-4 * abs(float(exact)))
                results.append((lat.gram, k, idx.D, idx.x.coords, diff, tol))
    failing = [r for r in results if r[4] > r[5]]
    detail = f"{len(results) - len(failing)}/{len(results)} pairs within tolerance"
    if failing:
        lines = "\n".join(
            f"  gram={g} k={k} D={D} x={x}: |diff|={d:.3e} > tol={t:.3e} (ratio {d / t:.3f})"
            for g, k, D, x, d, t in failing
        )
        print(f"ACCEPTANCE 2 (dual-path agreement): FAIL {detail}; knife-edge pairs:\n{lines}")
        print("  (C/B series tail at B=5000; see decisions ledger - every k >= 6 pair passes)")
    else:
        _report(2, "dual-path agreement", detail)
    assert not failing, f"{len(failing)} pairs exceed the stated tolerance"


def test_criterion_03_odd_weight_vanishing(test_lattices):
    for lat in test_lattices:
        group = lat.disc_group
        c_max = 200 if lat.rank == 1 else 60
        spec_cache = {}
        for k in (5, 7, 9):
            for idx in enumerate_supp(lat, 1):
                if idx.D >= 0:
                    continue
                assert trivial_coefficient_exact(lat, k, idx.D, idx.x) == 0
                spec = spec_cache.setdefault(k, EisensteinSpec(lattice=lat, k=k, r=group.zero))
                num = eisenstein_coefficient_numeric(spec, idx.D, idx.x, c_max)
                assert abs(num.value) <= 1e-9
    _report(3, "odd-weight vanishing", "exact 0 and numeric <= 1e-9 for k in {5,7,9}")


def test_criterion_04_kloosterman_decomposition(a1, a2):
    rng = random.Random(2024)
    checked = 0
    for lat, count in ((a1, 50), (a2, 50)):
        sup = [i for i in enumerate_supp(lat, 2) if i.D < 0]
        for _ in range(count):
            i1, i2 = rng.choice(sup), rng.choice(sup)
            for c in range(1, 21):
                h = poincare_lattice_sum(lat, i1.D, i1.x, i2.D, i2.x, c)
                kd = kloosterman_decomposition(lat, i1.D, i1.x, i2.D, i2.x, c)
                assert abs(h - kd) <= 1e-9, (lat.gram, i1, i2, c)
            checked += 1
    _report(4, "Kloosterman decomposition", f"{checked} instances, all c <= 20")


def test_criterion_05_representation_number_laws(a1, square2, test_lattices):
    # multiplicativity over coprime pairs up to 30, against brute-force counts
    for lat in (a1, square2):
        x0 = lat.disc_group.zero

        def r(b):
            return rep_count(RepCountKey(lattice=lat, x=x0, D=Fraction(-1), b=b))

        def enum(b):
            return rep_count_enumerate(lat, x0, -1, b)

        for b in range(2, 31):
            for c in range(b + 1, 31):
                if math.gcd(b, c) == 1:
                    assert r(b * c) == enum(b) * enum(c)
    # good-prime closed forms as exact rational identities
    pairs = 0
    for lat in test_lattices:
        for x in lat.disc_group:
            for n in (1, 2):
                D = x.beta_mod1 - n
                if D >= 0:
                    continue
                bad = set(bad_primes(lat, x, D))
                for p in (3, 5, 7, 11):
                    if p in bad:
                        continue
                    for s in range(3, 10):
                        assert local_factor(lat, x, D, p, s) == good_prime_factor(
                            lat, x, D, p, s
                        )
                        pairs += 1
    _report(5, "representation-number laws", f"multiplicativity + {pairs} closed-form identities")


def test_criterion_06_igusa_product_identity(square2):
    lattices = [square2, make_lattice([[2, 0], [0, 8]])]
    instances = [
        (lattices[0], Fraction(-9)),
        (lattices[0], Fraction(-18)),
        (lattices[0], Fraction(-45)),
        (lattices[0], Fraction(-63)),
        (lattices[1], Fraction(-9)),
    ]
    k = 6
    for lat, D in instances:
        x0 = lat.disc_group.zero
        from jacobiforms.numbertheory import fundamental_decomposition

        f1, _ = fundamental_decomposition(lat.delta)
        chi = QuadChar(f1)
        dt = int(D * x0.order**2)
        good_part = 1
        for p, e in factorize(abs(dt)):
            if (2 * lat.det) % p != 0:
                good_part *= p**e
        assert good_part > 1 and any(e >= 2 for p, e in factorize(good_part))
        lhs = Fraction(1)
        for p, _ in factorize(good_part):
            lhs *= local_factor(lat, x0, D, p, k - 1)
            lhs /= 1 - chi(p) * Fraction(p) ** (-(k - lat.rank // 2))
        expo = k - lat.rank // 2 - 1
        rhs = chi(good_part) * Fraction(good_part) ** (-expo) * sigma_twisted(chi, expo, good_part)
        assert lhs == rhs, (lat.gram, D)
    _report(6, "Igusa product identity", f"{len(instances)} exact instances")


def test_criterion_07_weil_schrodinger_structure(test_lattices):
    triples = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    worst_unitary = 0.0
    worst_conj = 0.0
    for lat in test_lattices:
        for g in ("T", "S"):
            worst_unitary = max(worst_unitary, rho_generator(lat, g).unitarity_defect())
        for x in lat.disc_group:
            for triple in triples:
                worst_unitary = max(
                    worst_unitary, schrodinger_matrix(lat, x, *triple).unitarity_defect()
                )
                for g in ("T", "S"):
                    worst_conj = max(worst_conj, conjugation_check(lat, x, *triple, g))
    assert worst_unitary <= 1e-12
    assert worst_conj <= 1e-10
    _report(7, "Weil/Schrodinger structure",
            f"unitarity defect {worst_unitary:.1e}, conjugation defect {worst_conj:.1e}")


def test_criterion_08_averaging_consistency(a1_scaled4):
    group = a1_scaled4.disc_group
    x4 = group.element((4,))
    worst = 0.0
    for k in (4, 6):
        spec = EisensteinSpec(lattice=a1_scaled4, k=k, r=x4)
        for idx in enumerate_supp(a1_scaled4, 2):
            if idx.D >= 0:
                continue
            exact = float(nontrivial_from_trivial(a1_scaled4, k, x4, idx.D, idx.x))
            num = eisenstein_coefficient_numeric(spec, idx.D, idx.x, 2000)
            err = abs(exact - num.value)
            assert err <= max(1e-3, 1e-3 * abs(exact)), (k, idx, exact, num.value)
            worst = max(worst, err / max(1.0, abs(exact)))
        # Prop 6.2 vector identity
        av = averaging_matrix(a1_scaled4, x4).matrix.real
        spec0 = EisensteinSpec(lattice=a1_scaled4, k=k, r=group.zero)
        for D in (Fraction(-1), Fraction(-2)):
            v0 = np.zeros(len(group))
            vx = np.zeros(len(group))
            for i, y in enumerate(group):
                if not is_integral(y.beta_mod1 - D):
                    continue
                v0[i] = eisenstein_coefficient_numeric(spec0, D, y, 800).value
                vx[i] = eisenstein_coefficient_numeric(spec, D, y, 800).value
            defect = float(np.max(np.abs(av @ v0 - 2 * (v0 + vx))))
            assert defect <= 1e-3, (k, D, defect)
    _report(8, "averaging consistency", f"k in {{4,6}}, worst relative error {worst:.1e}")


def test_criterion_09_poincare_properties(a1):
    group = a1.disc_group
    xh = group.element((1,))
    # (a) cusp support
    spec = PoincareSpec(lattice=a1, k=10, D=Fraction(-3, 4), r=xh)
    expansion = poincare_expansion(spec, 2, 200)
    assert expansion.entries and all(idx.D < 0 for idx in expansion.entries)
    # (b) sign symmetry under r -> -r
    for k in (9, 10):
        pos = poincare_expansion(
            PoincareSpec(lattice=a1, k=k, D=Fraction(-3, 4), r=xh), 2, 100
        )
        neg = poincare_expansion(
            PoincareSpec(lattice=a1, k=k, D=Fraction(-3, 4), r=group.neg(xh)), 2, 100
        )
        for idx, val in pos.entries.items():
            assert abs(neg.entries[idx] - (-1) ** k * val) <= 1e-9
    # (c) D -> 0 bridge within 1% at D = -1e-3
    k, rank, det = 10, a1.rank, a1.det
    D_small, Dp = Fraction(-1, 1000), Fraction(-1)
    gam_rat, gam_pi = gamma_half(2 * k - rank)
    gamma_val = float(gam_rat) * math.pi ** float(gam_pi)
    for c in (1, 2, 5):
        alpha = Fraction(2 * k - rank - 2, 2)
        arg = 4 * math.pi * math.sqrt(float(D_small * Dp)) / c
        lhs = (
            2 * math.pi / math.sqrt(det)
            * float(Dp / D_small) ** ((k - rank / 2 - 1) / 2)
            * bessel_j(alpha, arg) * c ** (-rank / 2 - 1)
        )
        rhs = (
            (2 * math.pi) ** (k - rank / 2) * float(-Dp) ** (k - rank / 2 - 1)
            / (math.sqrt(det) * gamma_val) * c ** (-k)
        )
        assert abs(lhs - rhs) <= 0.01 * abs(rhs)
    # (d) full coefficient vs the defining-series Fourier-inversion oracle
    oracle = poincare_series_oracle(10, Fraction(-3, 4), Fraction(1, 2),
                                    Fraction(-3, 4), Fraction(1, 2))
    direct = poincare_coefficient(spec, Fraction(-3, 4), xh, 1000)
    rel = abs(oracle.real - direct.value) / abs(direct.value)
    assert rel <= 1e-3, (oracle, direct.value)  # 3 significant digits
    assert abs(oracle.imag) <= 1e-9
    _report(9, "Poincare properties", f"oracle relative deviation {rel:.1e}")


def test_criterion_10_rationality(test_lattices):
    checked = 0
    for lat in test_lattices:
        spec = EisensteinSpec(lattice=lat, k=6, r=lat.disc_group.zero)
        expansion = eisenstein_expansion(spec, 2, "exact")
        for idx, val in expansion.entries.items():
            assert isinstance(val, Fraction), (lat.gram, idx)
            checked += 1
        doc = expansion.to_json_dict()
        for entry in doc["entries"]:
            assert isinstance(entry["value"], str) and "/" in entry["value"]
    _report(10, "rationality", f"{checked} exact entries serialized as p/q")
