"""Modularity as the oracle at every rank.

A Jacobi form of weight k and lattice index L with coefficients c(D, x) is the
vector-valued modular form h_x(tau) = sum_D c(D, x) e(-D tau) of weight
kappa = k - rank/2 for the dual Weil representation, so
  h(-1/tau) = tau^kappa rho*(S) h(tau),
tau^kappa on the principal branch and rho*(S) = rho_generator(L, "S").dual().
The check needs no second formula for the coefficients and its cost does not
grow with c^rank, so it reaches the Gauss sums of the c-sums at ranks where
the walk of (Z/c)^rank is too slow.  The residual is
||h(-1/tau) - tau^kappa rho*(S) h(tau)|| / ||h(-1/tau)|| at tau = 1.1i and
0.3 + 1.05i; the truncation in n sets its floor, 1e-16 at n <= 8 on the
exact series (E8 at n <= 6 reads 9.3e-13, at n <= 7 6.4e-15).  It tests membership in M_kappa(rho*) only, so an error that
adds or rescales a cusp form is invisible to it.
"""

import cmath
import math
from fractions import Fraction

import pytest

from jacobiforms import (
    EisensteinSpec,
    PoincareSpec,
    eisenstein_expansion,
    make_lattice,
    poincare_expansion,
    rho_generator,
)

TAUS = (1.1j, 0.3 + 1.05j)
_A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
_D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
_E8 = [[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0], [0, -1, 2, -1, 0, 0, 0, -1],
       [0, 0, -1, 2, -1, 0, 0, 0], [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
       [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 0, 2]]
_A1_CUBED = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]


def _vector(expansion, tau):
    group = expansion.lattice.disc_group
    h = [0j] * len(group)
    for idx, value in expansion.entries.items():
        h[group.index(idx.x)] += complex(value) * cmath.exp(-2j * math.pi * float(idx.D) * tau)
    return h


def residual(expansion, tau):
    """||h(-1/tau) - tau^kappa rho*(S) h(tau)|| / ||h(-1/tau)||."""
    lattice = expansion.lattice
    rho = rho_generator(lattice, "S").dual().rows
    left, right = _vector(expansion, -1 / tau), _vector(expansion, tau)
    scale = tau ** (expansion.weight - Fraction(lattice.rank, 2))
    diff = [a - scale * sum(r * v for r, v in zip(row, right)) for a, row in zip(left, rho)]
    return math.sqrt(sum(abs(z) ** 2 for z in diff) / sum(abs(z) ** 2 for z in left))


def _trivial(gram, k, n_max, mode="exact", **kwargs):
    lattice = make_lattice(gram)
    spec = EisensteinSpec(lattice=lattice, k=k, r=lattice.disc_group.zero)
    return eisenstein_expansion(spec, n_max, mode, **kwargs)


@pytest.mark.parametrize("gram, k, n_max", [
    ([[2]], 4, 8), ([[2, 1], [1, 2]], 4, 8), ([[2, 0], [0, 2]], 6, 8), (_A3, 4, 8), (_D4, 6, 8),
    (_A1_CUBED, 4, 8), (_E8, 8, 7),
], ids=["a1", "a2", "square2", "A3", "D4", "A1^3", "E8"])
def test_exact_trivial_series_is_modular(gram, k, n_max):
    expansion = _trivial(gram, k, n_max)
    for tau in TAUS:
        assert residual(expansion, tau) <= 1e-12, (gram, k, tau)


@pytest.mark.parametrize("gram, n_max, bound", [
    ([[4, -2, 0, 0], [-2, 4, -2, -2], [0, -2, 4, 0], [0, -2, 0, 4]], 6, 1e-8),
    (_A1_CUBED, 8, 1e-9),
], ids=["2D4", "A1^3"])
def test_numeric_trivial_series_is_modular(gram, n_max, bound):
    # 2 D4, whose Gauss sums at q = 2^j the Jordan splitting admits at the
    # default c-max, and A1^3 at k = 8: the c-sums are numeric, and the
    # truncation in n sets the bound
    expansion = _trivial(gram, 8, n_max, "numeric")
    for tau in TAUS:
        assert residual(expansion, tau) <= bound, (gram, tau)


@pytest.mark.parametrize("gram, D, r, c_max", [([[2]], Fraction(-3, 4), (1,), 600),
                                               ([[2, 1], [1, 2]], Fraction(-2, 3), (1,), 300)],
                         ids=["a1", "a2"])
def test_poincare_expansion_is_modular(gram, D, r, c_max):
    # r != 0 makes the Gauss sums at p = 2 read their phases: on a1 those of a
    # 1x1 block, on a2 those of a 2x2 block (the trivial series above meet only
    # phases that vanish, or t' = 0)
    lattice = make_lattice(gram)
    spec = PoincareSpec(lattice=lattice, k=10, D=D, r=lattice.disc_group.element(r))
    expansion = poincare_expansion(spec, 8, c_max)
    for tau in TAUS:
        assert residual(expansion, tau) <= 1e-12, (gram, tau)


def test_numeric_nontrivial_series_is_modular():
    # the Eisenstein series of the isotropic class r = 4 of a1_scaled4 ([[8]],
    # beta(r) = 1): a non-trivial series, whose c-sums read the Gauss sums at
    # G r != 0, each with its phases; the c-sum sets the floor near 1e-12, and
    # a flipped 1x1 block phase in `modp` lifts it past 2e-11
    lattice = make_lattice([[8]])
    spec = EisensteinSpec(lattice=lattice, k=6, r=lattice.disc_group.element((4,)))
    expansion = eisenstein_expansion(spec, 8, "numeric", c_max=250)
    for tau in TAUS:
        assert residual(expansion, tau) <= 1e-11, tau
