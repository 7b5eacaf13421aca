"""Weil and Schroedinger representation matrices on C[L#/L], the averaging
operator, and the relation expressing non-trivial Eisenstein coefficients
through trivial ones.

Every matrix is read off the integer model of the discriminant form (see
`DiscriminantGroup`): each phase e(q/N), N the level, is gathered from one
table of `unit_phase(q/N)`, at N beta(x) for rho(T), at -N beta(x, y) mod N
for rho(S) and along the permutation y -> y - lam x for sigma_x.  The gathers
run in Python ints and the entries are Python complexes, so only a product of
matrices (`rho_word`) or the complex128 `RepMatrix.matrix` loads numpy.
Unitarity and the conjugation identity hold to ~1e-15.

The relation.  For isotropic x of order N, even weight and each class y, the
averaging identity reads S(x) := sum_{lam mod N} G_{lam x}(D, y)
= [beta(x, y) in Z] sum_{lam mod N} G_0(D, y + lam x).  Moebius inversion over
the divisors of N gives the unit-orbit sum sum_{u in (Z/N)^*} G_{ux}(D, y)
= sum_{d | N} mu(d) S(dx).  For even weight G_{-x} = G_x, so when phi(N) <= 2
(N in {1, 2, 3, 4, 6}) that sum is phi(N) G_x(D, y).
"""

import math
from fractions import Fraction
from functools import cached_property, lru_cache

from ._lazy import np
from ._record import Frozen
from .errors import NotIsotropicError, OddWeightError, UnsupportedOrderError
from .numbertheory import divisors, moebius
from .rationals import is_integral, unit_phase

_GENERATOR_MATRICES = {
    "T": (1, 1, 0, 1),
    "S": (0, -1, 1, 0),
}


class RepMatrix:
    """Complex matrix over the canonical DiscElement ordering.

    `rows` holds the entries as lists of Python complexes.  A monomial matrix
    (one nonzero entry per column, as rho(T) and sigma_x) may be given instead
    as `monomial` = (targets, values), with entry (targets[j], j) = values[j];
    its rows are then built on first use.  `matrix` is the complex128 array,
    built on first use.
    """

    def __init__(self, label, rows=None, monomial=None):
        self.label = label
        self.monomial = monomial
        if rows is not None:
            self.rows = rows

    @cached_property
    def rows(self):
        targets, values = self.monomial
        rows = [[0j] * len(values) for _ in values]
        for j, (i, z) in enumerate(zip(targets, values)):
            rows[i][j] = z
        return rows

    @cached_property
    def matrix(self):
        return np.array(self.rows, dtype=np.complex128)

    def dual(self):
        """Entrywise conjugate; for a unitary representation this is rho*."""
        label = self.label + "*"
        if self.monomial is not None:
            targets, values = self.monomial
            return RepMatrix(label, monomial=(targets, [z.conjugate() for z in values]))
        return RepMatrix(label, rows=[[z.conjugate() for z in row] for row in self.rows])

    def unitarity_defect(self):
        n = self.matrix.shape[0]
        return float(np.max(np.abs(self.matrix @ self.matrix.conj().T - np.eye(n))))


@lru_cache(maxsize=64)
def _phase_table(level):
    """e(q/N) for q = 0..N-1 as Python complexes, with the exact values of `unit_phase`."""
    return tuple(unit_phase(Fraction(q, level)) for q in range(level))


def rho_generator(lattice, g):
    """Weil representation of the standard generators.

    rho(T) e_x = e(beta(x)) e_x;
    rho(S) e_x = i^(-rank/2) det^(-1/2) sum_y e(-beta(x, y)) e_y,
    with the principal branch i^(-rank/2) = e(-rank/8).  Both are gathers from
    a table of e(q/N) at N beta(x) and at -N beta(x, y) mod N.
    """
    group = lattice.disc_group
    level = lattice.level
    table = _phase_table(level)
    if g == "T":
        values = [table[q] for q in group.beta_numerators()]
        return RepMatrix("T", monomial=(range(len(values)), values))
    if g == "S":
        scalar = unit_phase(Fraction(-lattice.rank, 8)) / math.sqrt(lattice.det)
        table = [scalar * z for z in table]
        return RepMatrix("S", rows=[[table[-q % level] for q in row]
                                    for row in group.pairing_matrix()])
    raise ValueError(f"unknown generator {g!r}")


def rho_word(lattice, word):
    """Ordered product of generator matrices; inverses via conjugate transpose.

    The product starts from the first letter's matrix, so a one-letter word is
    that letter's matrix bit for bit.
    """
    word = tuple(word)
    if not word:
        raise ValueError("word must be non-empty")
    mat = None
    for token in word:
        if token in ("T", "S"):
            factor = rho_generator(lattice, token).matrix
        elif token in ("T^-1", "S^-1"):
            factor = rho_generator(lattice, token[0]).matrix.conj().T
        else:
            raise ValueError(f"unknown token {token!r}; expected T, S, T^-1 or S^-1")
        mat = factor if mat is None else mat @ factor
    return RepMatrix("".join(word), rows=mat.tolist())


def schrodinger_matrix(lattice, x, lam, mu, t):
    """sigma_x(lam, mu, t) e_y = e(mu beta(x,y) + (t - lam mu) beta(x)) e_{y - lam x}."""
    group = lattice.disc_group
    level = lattice.level
    table = _phase_table(level)
    twist = (t - lam * mu) % level * int(level * x.beta_mod1)
    values = [table[(mu * q + twist) % level] for q in group.pairings(x)]
    targets = group.translation([-lam * c for c in x.coords])
    return RepMatrix(f"sigma_{x}({lam},{mu},{t})", monomial=(targets, values))


def conjugation_check(lattice, x, lam, mu, t, g):
    """Max-norm defect of sigma*_x(h) = rho*(A) sigma*_x(h^A) rho*(A)^{-1}.

    h^A = (lam a + mu c, lam b + mu d, t) for the generator's matrix A.
    """
    if g not in _GENERATOR_MATRICES:
        raise ValueError(f"unknown generator {g!r}")
    a, b, c, d = _GENERATOR_MATRICES[g]
    lhs = schrodinger_matrix(lattice, x, lam, mu, t).dual().matrix
    transformed = schrodinger_matrix(lattice, x, lam * a + mu * c, lam * b + mu * d, t)
    rho = rho_generator(lattice, g).matrix
    # rho*(A) = conj(rho); rho*(A)^{-1} = conj(rho)^{-1} = rho^T by unitarity
    rhs = rho.conj() @ transformed.dual().matrix @ rho.T
    return float(np.max(np.abs(lhs - rhs)))


def averaging_matrix(lattice, x):
    """Av_x = N_x^{-2} sum over (lam, mu) in (Z_{N_x^2})^2 of sigma*_x(lam, mu, 0).

    Representative-independent: sigma*_x(lam + a N_x^2, mu, 0) = sigma*_x(lam, mu, 0).
    For isotropic x, Av_x / N_x^2 is an orthogonal projection.  Each entry adds
    its nonzero terms in (lam, mu) order and is then multiplied by the float
    1/N_x^2, which gives the bits of a dense complex128 sum divided by N_x^2
    (kept as a test oracle).
    """
    n = len(lattice.disc_group)
    n2 = x.order**2
    total = [[0j] * n for _ in range(n)]
    for lam in range(n2):
        for mu in range(n2):
            targets, values = schrodinger_matrix(lattice, x, lam, mu, 0).dual().monomial
            for j, (i, z) in enumerate(zip(targets, values)):
                total[i][j] += z
    scale = 1.0 / n2
    return RepMatrix(f"Av_{x}", rows=[[complex(z.real * scale, z.imag * scale) for z in row]
                                       for row in total])


class OrbitRelation(Frozen):
    """Averaging relation data for an isotropic class x of order N.

    `orbit` lists the classes lambda*x (lambda = 0..N-1) whose Eisenstein
    series sum to the averaged trivial one; `components` maps each class y
    with beta(x, y) integral to the classes y + lambda*x whose trivial
    h-components add up to the y-component of that sum.
    """

    _fields = ("x", "orbit", "components")


def _check_relation(k, x):
    if k % 2 == 1:
        raise OddWeightError("the averaging relation needs even weight")
    if x.beta_mod1 != 0:
        raise NotIsotropicError(f"beta({x}) is not integral")


def orbit_relation(lattice, k, x):
    _check_relation(k, x)
    group = lattice.disc_group
    n = x.order
    orbit = tuple(group.scale(lam, x) for lam in range(n))
    components = {}
    for y in group:
        if is_integral(group.pairing_mod1(x, y)):
            components[y] = tuple(group.add(y, group.scale(lam, x)) for lam in range(n))
    return OrbitRelation(x=x, orbit=orbit, components=components)


def nontrivial_from_trivial(lattice, k, x, D, y):
    """Exact coefficient G_x(D, y) of a non-trivial Eisenstein series.

    For x of order N with phi(N) <= 2,
    phi(N) G_x(D, y) = sum_{d | N} mu(d) [beta(dx, y) in Z] sum_{lam mod N/d} G_0(D, y + lam dx)
    (see the module docstring); other orders raise UnsupportedOrderError.
    """
    from .eisenstein import trivial_coefficient_exact  # here: no `rep` request runs eisenstein

    _check_relation(k, x)
    order = x.order
    units = sum(1 for u in range(order) if math.gcd(u, order) == 1)
    if units > 2:
        raise UnsupportedOrderError(f"order {order}: the relation fixes only the orbit sum")
    group = lattice.disc_group
    total = Fraction(0)
    for d in divisors(order):
        dx = group.scale(d, x)
        if moebius(d) and is_integral(group.pairing_mod1(dx, y)):
            total += moebius(d) * sum(
                trivial_coefficient_exact(lattice, k, D, group.add(y, group.scale(lam, dx)))
                for lam in range(order // d)
            )
    return total / units
