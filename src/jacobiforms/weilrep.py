"""Weil and Schroedinger representation matrices on C[L#/L], the averaging
operator, and the relation expressing non-trivial Eisenstein coefficients
through trivial ones.

Every matrix is read off the integer model of the discriminant form (see
`DiscriminantGroup`): each phase e(q/N), N the level, is gathered from one
table of `unit_phase(q/N)`, at N beta(x) for rho(T), at -N beta(x, y) mod N
for rho(S) and along the permutation y -> y - lam x for sigma_x.  The gathers
run in Python ints and the entries are Python complexes.  A `RepMatrix` holds
rho(T), sigma_x and the averaging operator as sparse rows, the (column, value)
pairs of their possibly nonzero entries, and rho(S) and word products as
dense rows.  A word multiplies by the diagonal rho(T)^{+-1} as a row or column
scaling, so only a product of two dense factors (`rho_word`) or the complex128
`RepMatrix.matrix` loads numpy.  Unitarity and the conjugation identity hold
to ~1e-15.

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
from .rationals import is_integral, unit_phase

_GENERATOR_MATRICES = {
    "T": (1, 1, 0, 1),
    "S": (0, -1, 1, 0),
}


class RepMatrix:
    """Complex square matrix over the canonical DiscElement ordering, held by rows.

    A sparse matrix gives `entries`: for each row, the (column, value) pairs
    of the entries that may be nonzero, by increasing column; every other
    entry is exactly 0j.  rho(T) and sigma_x have one pair per row, the
    averaging operator at most N_x.  A dense matrix (rho(S), a word product)
    gives `rows`, the list of each row's values.  For a sparse matrix `rows`
    is built on first use; `matrix`, the complex128 array, is built on first
    use for either.
    """

    def __init__(self, label, rows=None, entries=None):
        self.label = label
        self.entries = entries
        if rows is not None:
            self.rows = rows

    @cached_property
    def rows(self):
        rows = [[0j] * len(self.entries) for _ in self.entries]
        for row, pairs in zip(rows, self.entries):
            for j, z in pairs:
                row[j] = z
        return rows

    @cached_property
    def matrix(self):
        return np.array(self.rows, dtype=np.complex128)

    def dual(self):
        """Entrywise conjugate; for a unitary representation this is rho*."""
        label = self.label + "*"
        if self.entries is not None:
            return RepMatrix(label, entries=[[(j, z.conjugate()) for j, z in pairs]
                                             for pairs in self.entries])
        return RepMatrix(label, rows=[[z.conjugate() for z in row] for row in self.rows])

    def unitarity_defect(self):
        n = self.matrix.shape[0]
        return float(np.max(np.abs(self.matrix @ self.matrix.conj().T - np.eye(n))))


def _diagonal(values):
    return [[(i, z)] for i, z in enumerate(values)]


@lru_cache(maxsize=64)
def _phase_table(level):
    """e(q/N) for q = 0..N-1 as Python complexes, with the exact values of `unit_phase`."""
    return tuple(unit_phase(Fraction(q, level)) for q in range(level))


def rho_generator(lattice, g):
    """Weil representation of the standard generators.

    rho(T) e_x = e(beta(x)) e_x;
    rho(S) e_x = i^(-rank/2) det^(-1/2) sum_y e(-beta(x, y)) e_y,
    with the principal branch i^(-rank/2) = e(-rank/8).  Both are gathers from
    a table of e(q/N) at N beta(x) and at -N beta(x, y) mod N; rho(T) is
    sparse, rho(S) dense.
    """
    group = lattice.disc_group
    level = lattice.level
    table = _phase_table(level)
    if g == "T":
        return RepMatrix("T", entries=_diagonal(table[q] for q in group.beta_numerators()))
    if g == "S":
        scalar = unit_phase(Fraction(-lattice.rank, 8)) / math.sqrt(lattice.det)
        table = [scalar * z for z in table]
        return RepMatrix("S", rows=[[table[-q % level] for q in row]
                                    for row in group.pairing_matrix()])
    raise ValueError(f"unknown generator {g!r}")


def _letter(lattice, token):
    """(diagonal values, None) of T^{+-1}, or (None, rows) of S^{+-1}."""
    if token not in ("T", "S", "T^-1", "S^-1"):
        raise ValueError(f"unknown token {token!r}; expected T, S, T^-1 or S^-1")
    gen = rho_generator(lattice, token[0])
    if token == "T":
        return [pairs[0][1] for pairs in gen.entries], None
    if token == "T^-1":
        return [pairs[0][1].conjugate() for pairs in gen.entries], None
    if token == "S":
        return None, gen.rows
    return None, [[z.conjugate() for z in column] for column in zip(*gen.rows)]


def rho_word(lattice, word):
    """Ordered product of generator matrices; inverses via conjugate transpose.

    The product starts from the first letter's matrix, so a one-letter word is
    that letter's matrix bit for bit.  rho(T)^{+-1} is diagonal: a product
    with it scales the other factor's rows or columns in Python complexes,
    each entry plus 0j, so that a zero part reads +0.0 as a BLAS product
    writes it (bit for bit in OpenBLAS's full blocks; its edge columns use
    fused multiply-adds and may differ in the last bit).  Only a product of
    two dense factors runs numpy's matmul.
    """
    word = tuple(word)
    if not word:
        raise ValueError("word must be non-empty")
    diag = rows = None  # the product so far: its diagonal, or its dense rows
    for token in word:
        d, dense = _letter(lattice, token)
        if d is not None and rows is not None:
            rows = [[z * t + 0j for z, t in zip(row, d)] for row in rows]
        elif d is not None:
            diag = d if diag is None else [a * t + 0j for a, t in zip(diag, d)]
        elif rows is not None:
            rows = (np.array(rows) @ np.array(dense)).tolist()
        elif diag is not None:
            rows = [[t * z + 0j for z in row] for t, row in zip(diag, dense)]
        else:
            rows = dense
    label = "".join(word)
    if rows is None:
        return RepMatrix(label, entries=_diagonal(diag))
    return RepMatrix(label, rows=rows)


def schrodinger_matrix(lattice, x, lam, mu, t):
    """sigma_x(lam, mu, t) e_y = e(mu beta(x,y) + (t - lam mu) beta(x)) e_{y - lam x}.

    Sparse: row y - lam x holds the one entry from column y.
    """
    group = lattice.disc_group
    level = lattice.level
    table = _phase_table(level)
    twist = (t - lam * mu) % level * int(level * x.beta_mod1)
    values = [table[(mu * q + twist) % level] for q in group.pairings(x)]
    sources = group.translation([lam * c for c in x.coords])
    return RepMatrix(f"sigma_{x}({lam},{mu},{t})", entries=[[(j, values[j])] for j in sources])


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
    For isotropic x, Av_x / N_x^2 is an orthogonal projection.  Each row
    accumulates in a dict by column: an entry adds its nonzero terms in
    (lam, mu) order to 0j and is then multiplied by the float 1/N_x^2, which
    gives the bits of a dense complex128 sum divided by N_x^2 (kept as a test
    oracle).
    """
    n2 = x.order**2
    total = [{} for _ in range(len(lattice.disc_group))]
    for lam in range(n2):
        for mu in range(n2):
            sigma = schrodinger_matrix(lattice, x, lam, mu, 0)
            for row, pairs in zip(total, sigma.entries):
                for j, z in pairs:
                    row[j] = row.get(j, 0j) + z.conjugate()
    scale = 1.0 / n2
    return RepMatrix(f"Av_{x}", entries=[[(j, complex(z.real * scale, z.imag * scale))
                                          for j, z in sorted(row.items())] for row in total])


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
    # here: no `rep` request runs eisenstein or numbertheory
    from .eisenstein import trivial_coefficient_exact
    from .numbertheory import divisors, moebius

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
