"""Weil and Schroedinger representation matrices on C[L#/L], the averaging
operator, and the relation expressing non-trivial Eisenstein coefficients
through trivial ones.

Every matrix is a gather, in Python ints over the integer model of the
discriminant form (see `DiscriminantGroup`), from the one table
`rationals.phase_table(N)` of e(q/N), N the level: rho(T) at N beta(x), rho(S)
at -N beta(x, y) mod N, sigma_x along y -> y - lam x, and a word from its
column at e_0 (`rho_word`).  The entries are Python complexes; only the
complex128 `RepMatrix.matrix` loads numpy.  Unitarity and the conjugation
identity hold to ~1e-15.

The relation.  For isotropic x of order N, even weight and each class y, the
averaging identity reads S(x) := sum_{lam mod N} G_{lam x}(D, y)
= [beta(x, y) in Z] sum_{lam mod N} G_0(D, y + lam x).  Moebius inversion over
the divisors of N gives the unit-orbit sum sum_{u in (Z/N)^*} G_{ux}(D, y)
= sum_{d | N} mu(d) S(dx).  For even weight G_{-x} = G_x, so when phi(N) <= 2
(N in {1, 2, 3, 4, 6}) that sum is phi(N) G_x(D, y).
"""

import math
from fractions import Fraction
from functools import cached_property
from operator import mul

from ._lazy import np
from ._record import Frozen
from .errors import NotIsotropicError, OddWeightError, UnsupportedOrderError
from .rationals import is_integral, phase_table, unit_phase

_GENERATOR_MATRICES = {"T": (1, 1, 0, 1), "S": (0, -1, 1, 0)}
_LETTERS = {**_GENERATOR_MATRICES, "T^-1": (1, -1, 0, 1), "S^-1": (0, 1, -1, 0)}


class RepMatrix:
    """Complex square matrix over the canonical DiscElement ordering, held by rows.

    A sparse matrix gives `entries`: for each row, the (column, value) pairs
    of the entries that may be nonzero, by increasing column; every other
    entry is exactly 0j.  rho(T) and sigma_x have one pair per row, the
    averaging operator at most N_x.  A dense matrix (rho(S), a word with c != 0)
    gives `rows`, the list of each row's values.  `rows` is built on first use
    for a sparse matrix, and `matrix`, the complex128 array, for either.
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


def _s_phases(lattice, sign=1):
    """rho(S)^sign at N beta(x, y) = q for q mod N: e(-sign rank/8) det^(-1/2) e(-sign q/N)."""
    level, table = lattice.level, phase_table(lattice.level)
    scalar = unit_phase(Fraction(-sign * lattice.rank, 8)) / math.sqrt(lattice.det)
    return [scalar * table[-sign * q % level] for q in range(level)]


def rho_generator(lattice, g):
    """Weil representation of the standard generators, gathered from `phase_table`.

    rho(T) e_x = e(beta(x)) e_x, sparse; rho(S) e_x = i^(-rank/2) det^(-1/2)
    sum_y e(-beta(x, y)) e_y, dense, with i^(-rank/2) = e(-rank/8).
    """
    group = lattice.disc_group
    table = phase_table(lattice.level)
    if g == "T":
        return RepMatrix("T", entries=[[(i, table[q])] for i, q in enumerate(group.beta_numerators())])
    if g == "S":
        phases = _s_phases(lattice)
        return RepMatrix("S", rows=[[phases[q] for q in row] for row in group.pairing_matrix()])
    raise ValueError(f"unknown generator {g!r}")


def rho_word(lattice, word):
    """Ordered product rho(A_1) ... rho(A_k) of the letters' matrices, read off one column.

    With W = (a b; c d) = A_1 ... A_k, v = rho(W) e_0 is e_0 with the letters
    applied right to left: rho(T)^{+-1} scales v_x by e(+-beta(x)) and rho(S)^{+-1}
    (symmetric, so its inverse is its conjugate) is one product, a constant
    vector on e_0.  The identity rho(A) sigma_x(h^A) rho(A)^{-1} = sigma_x(h) of
    `conjugation_check` composes over words; at x = delta, h = (-d, b, 0) it takes
    h^W = (-1, 0, 0), and sigma_delta(-1, 0, 0) e_0 = e_delta, so
        rho(W)_{z, delta} = e(b beta(delta, z) - b d beta(delta)) v_{z - d delta}.
    At c = 0, v = v_0 e_0 and rho(W) e_delta = v_0 e(b d beta(delta)) e_{d delta} is
    held as sparse rows.  A one-letter word T or S is `rho_generator`'s matrix.
    """
    word = tuple(word)
    if not word or not set(word) <= _LETTERS.keys():
        raise ValueError(f"expected a non-empty word over T, S, T^-1 and S^-1, got {word!r}")
    if word in (("T",), ("S",)):
        return rho_generator(lattice, word[0])
    group, level, table = lattice.disc_group, lattice.level, phase_table(lattice.level)
    betas = group.beta_numerators()
    pairing = group.pairing_matrix() if any(token[0] == "S" for token in word) else None
    # W and v = rho(W) e_0 for the letters read so far; v is None while it is e_0
    (a, b, c, d), v = (1, 0, 0, 1), None
    for token in reversed(word):
        e, f, g, h = _LETTERS[token]
        a, b, c, d = e * a + f * c, e * b + f * d, g * a + h * c, g * b + h * d
        sign = -1 if token.endswith("^-1") else 1
        if token[0] == "S":
            phases = _s_phases(lattice, sign)
            v = ([phases[0]] * len(betas) if v is None
                 else [sum(map(mul, map(phases.__getitem__, row), v)) for row in pairing])
        elif v is not None:
            v = [z * table[sign * q % level] for z, q in zip(v, betas)]
    if c == 0:  # d = +-1; -y for the i-th class y is the (n - 1 - i)-th class plus (1, ..., 1)
        v0 = 1 if v is None else v[0]
        sources = range(len(betas)) if d == 1 else group.translation([1] * len(group.orders))[::-1]
        return RepMatrix("".join(word), entries=[[(j, v0 * table[b * d * q % level])]
                                                 for j, q in zip(sources, betas)])
    stepped = [table[b * k % level] for k in range(level)]  # e(b k/N)
    columns = []
    for coords, row, q in zip(group.classes(), pairing, betas):
        shift = level - d * q % level
        phases = stepped[shift:] + stepped[:shift]  # e(b (p - d q)/N) at p
        values = map(v.__getitem__, group.translation([-d * x for x in coords])) if d else v
        columns.append(list(map(mul, map(phases.__getitem__, row), values)))
    return RepMatrix("".join(word), rows=[list(row) for row in zip(*columns)])


def schrodinger_matrix(lattice, x, lam, mu, t):
    """sigma_x(lam, mu, t) e_y = e(mu beta(x,y) + (t - lam mu) beta(x)) e_{y - lam x}.

    Sparse: row y - lam x holds the one entry from column y.
    """
    group = lattice.disc_group
    level = lattice.level
    table = phase_table(level)
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
