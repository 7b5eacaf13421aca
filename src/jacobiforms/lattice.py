"""Even positive-definite lattices, their discriminant groups and Fourier-index
bookkeeping.

An `EvenLattice` is a validated integer Gram matrix together with its cached
invariants (rank, determinant, level, discriminant Delta).  They come from one
Smith normal form U G V = diag(d) of the Gram matrix: the determinant is the
product of the d_i, and the level is read off the pairings of the cyclic
generators of L#/L, the columns of V over d_i.  One swap-free Bareiss pass
gives the leading principal minors and, kept, the LDL^t of `coset_points`.  L#/L is built
on first use from the same Smith data, in canonical cyclic coordinates, and
kept as the generators' pairing matrix and norms mod the level, in Python ints
(see `DiscriminantGroup`), from which elements, pairings and indices are
computed without numpy, and so are the per-class data behind the Weil
matrices, the isotropy set and supp(L).  A `DiscElement` (equality is coordinate
equality) is built only when asked for.  `support_data` tests a support
pair (D, r) and reduces it to the integers beta(r) - D and G r, for the
counts of `repcounts` and the sums of `expsums` alike; the p-adic Jordan
splitting of G that both read is in `modp`.  Nothing here needs
`numbertheory` but `lattice_character`, which imports it where it runs.
"""

import json
import math
import numbers
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import mul

from ._record import Frozen, Record
from .errors import (
    DegenerateError,
    NonIntegralArgumentError,
    NotInDualLatticeError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    OddDiagonalError,
)
from .rationals import (
    ceil_minus_sqrt,
    floor_plus_sqrt,
    format_rational,
    frac1,
    is_integral,
)

# -- integer linear algebra ----------------------------------------------------

def _bareiss_rows(mat):
    """Pivot rows of Bareiss's fraction-free elimination without row swaps, up to the
    first pivot <= 0, the one a positive-definiteness check reports.  Pivot a_kk is
    the leading principal minor M_k of size k + 1, and the rows give the LDL^t
    d_k = M_k / M_{k-1}, u_kj = a_kj / M_k (j > k)."""
    a = [list(row) for row in mat]
    n = len(a)
    prev = 1
    for k in range(n):
        if a[k][k] <= 0:
            return a[:k + 1]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a


def _matmul(a, b):
    """Product of two integer matrices given as nested sequences, as lists."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def smith_normal_form(mat):
    """Smith normal form U @ A @ V = diag(d) over the integers.

    Returns (diag, U, V) with d_i >= 0 and d_i | d_{i+1}; U, V unimodular.
    """
    a = [[int(x) for x in row] for row in mat]
    n = len(a)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_sub(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q):
        for r in range(n):
            a[r][i] -= q * a[r][j]
            v[r][i] -= q * v[r][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
            v[r][i], v[r][j] = v[r][j], v[r][i]

    for t in range(n):
        while True:
            pivot = None
            for i in range(t, n):
                for j in range(t, n):
                    if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            row_swap(t, pivot[0])
            col_swap(t, pivot[1])
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    row_sub(i, t, a[i][t] // a[t][t])
                    dirty = dirty or a[i][t] != 0
            for j in range(t + 1, n):
                if a[t][j]:
                    col_sub(j, t, a[t][j] // a[t][t])
                    dirty = dirty or a[t][j] != 0
            if dirty:
                continue
            offender = None
            for i in range(t + 1, n):
                if any(a[i][j] % a[t][t] for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            row_sub(t, offender, -1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    return [a[i][i] for i in range(n)], u, v


# -- domain types ---------------------------------------------------------------

class EvenLattice(Frozen):
    """Validated even positive-definite lattice with cached invariants.

    Not compared: `smith` is (d, U, V) with U G V = diag(d), `generator_pairings`
    the beta(g_i, g_j) of g_i = V e_i / d_i, d_i > 1, and `bareiss_rows` G's.
    """

    _fields = ("gram", "rank", "det", "level", "delta")
    _extra = ("smith", "generator_pairings", "bareiss_rows")

    def beta(self, r):
        """Quadratic form beta(r) = r^t G r / 2 as an exact rational."""
        return self.pairing(r, r) / 2

    def pairing(self, r, s):
        """Bilinear form beta(r, s) = r^t G s as an exact rational."""
        return sum((Fraction(a) * b for a, b in zip(r, self.gram_times(s))), Fraction(0))

    def gram_times(self, r):
        """G r as a vector of rationals."""
        r = [Fraction(x) for x in r]
        return tuple(sum(self.gram[i][j] * r[j] for j in range(self.rank))
                     for i in range(self.rank))

    def in_dual(self, r):
        """True when G r is integral, i.e. r lies in the dual lattice."""
        return all(is_integral(x) for x in self.gram_times(r))

    @cached_property
    def disc_group(self):
        return DiscriminantGroup(self)

    def __repr__(self):
        return f"EvenLattice(gram={self.gram}, det={self.det}, level={self.level})"


class DiscElement(Frozen):
    """Element of L#/L in canonical cyclic-factor coordinates.

    `rep` is the fixed coset representative (all coordinates in [0, 1)); it is
    excluded from equality because it is determined by `coords`.
    """

    _fields = ("coords", "order", "beta_mod1")
    _extra = ("rep",)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


class FourierIndex(Frozen):
    """Support pair (D, x): D <= 0 rational with D = beta(x) mod Z."""

    _fields = ("D", "x")

    @property
    def qexp(self):
        """q-exponent n = beta(x) - D (with beta(x) reduced to [0, 1))."""
        return self.x.beta_mod1 - self.D


class DiscriminantGroup:
    """L#/L as integer data fixed once from the lattice's Smith form.

    With N the level and g_1..g_s the cyclic generators of orders `orders`:
    `gram_mod` is A = N beta(g_i, g_j) mod N and `q` is q_i = N beta(g_i) mod N,
    both Python ints, so beta(x, y) = x A y^t / N mod 1 and N beta(x) = sum_i
    c_i (q_i c_i + sum_{j>i} A_ij c_j) mod N.  Elements, pairings and indices
    are computed from these in Python ints; a `DiscElement` is built only when
    asked for, and then kept.  Classes are listed in lexicographic order of
    their coordinates (`classes`); `beta_numerators`, `pairings`,
    `pairing_matrix` and `translation` give per-class data in that order, as
    Python ints.
    """

    def __init__(self, lattice):
        self.lattice = lattice
        diag, u, v = lattice.smith
        # internal consistency: U G V = diag(d)
        n = lattice.rank
        assert _matmul(_matmul(u, lattice.gram), v) == [
            [diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        self.orders = tuple(d for d in diag if d > 1)
        self._positions = [i for i, d in enumerate(diag) if d > 1]
        # G^{-1} U^{-1} = V diag(d)^{-1}, so generator i is column i of V over d_i
        self._generators = [tuple(frac1(Fraction(row[pos], diag[pos])) for row in v)
                            for pos in self._positions]
        self._u = u
        level, pairings = lattice.level, lattice.generator_pairings
        self.gram_mod = tuple(tuple(int(level * b) % level for b in row) for row in pairings)
        self.q = tuple(int(level * row[i] / 2) % level for i, row in enumerate(pairings))
        self._elements = {}

    def _beta_numerator(self, c):
        """N beta(x) mod N from the coordinates c_i of one class."""
        level, a, q = self.lattice.level, self.gram_mod, self.q
        s = len(q)
        return sum(c[i] * ((q[i] * c[i] + sum(a[i][j] * c[j] for j in range(i + 1, s))) % level)
                   for i in range(s)) % level

    def _build_element(self, coords):
        rep = tuple(
            frac1(sum((c * self._generators[i][j] for i, c in enumerate(coords)), Fraction(0)))
            for j in range(self.lattice.rank)
        )
        order = math.lcm(*(d // math.gcd(d, c) for c, d in zip(coords, self.orders)))
        beta = Fraction(self._beta_numerator(coords), self.lattice.level)
        return DiscElement(coords=coords, order=order, beta_mod1=beta, rep=rep)

    def classes(self):
        """The coordinate tuples of all classes, in lexicographic order."""
        return product(*(range(d) for d in self.orders))

    @staticmethod
    def _lex_sums(columns):
        """sum_i columns[i][c_i] for every class c, in lexicographic order."""
        sums = [0]
        for column in columns:
            sums = [a + b for a in sums for b in column]
        return sums

    def beta_numerators(self):
        """N beta(y) mod N for every class y, one run of the last coordinate at a time.

        With y = (prefix, c), N beta(y) = N beta(prefix, 0) + c (q_s c + sum_i A_is
        prefix_i) mod N, so each run is one column, shared by the prefixes of equal
        linear term, shifted by N beta(prefix, 0).
        """
        level, a, q = self.lattice.level, self.gram_mod, self.q
        if not q:
            return [0]
        s, out, columns = len(q), [], {}
        for prefix in product(*(range(d) for d in self.orders[:-1])):
            lin = sum(a[i][s - 1] * c for i, c in enumerate(prefix)) % level
            if lin not in columns:
                columns[lin] = [c * (q[-1] * c + lin) % level for c in range(self.orders[-1])]
            base = self._beta_numerator((*prefix, 0))
            out += columns[lin] if base == 0 else [(base + v) % level for v in columns[lin]]
        return out

    def translation(self, shift):
        """Index of the class y + shift for every class y, with shift given by its coordinates."""
        columns, stride = [], 1
        for s, d in zip(reversed(shift), reversed(self.orders)):
            columns.append([(c + s) % d * stride for c in range(d)])
            stride *= d
        return self._lex_sums(columns[::-1])

    def __len__(self):
        return math.prod(self.orders)

    def __iter__(self):
        return map(self.element, self.classes())

    @property
    def zero(self):
        return self.element(tuple(0 for _ in self.orders))

    def element(self, coords):
        if len(coords) != len(self.orders):
            raise ValueError(f"expected {len(self.orders)} coordinates, got {len(coords)}")
        coords = tuple(int(c) % d for c, d in zip(coords, self.orders))
        if coords not in self._elements:
            self._elements[coords] = self._build_element(coords)
        return self._elements[coords]

    def index(self, x):
        """Position of x in `classes`: its coordinates read in mixed radix."""
        row = 0
        for c, d in zip(x.coords, self.orders):
            row = row * d + c
        return row

    def neg(self, x):
        return self.element(tuple(-c for c in x.coords))

    def add(self, x, y):
        return self.element(tuple(a + b for a, b in zip(x.coords, y.coords)))

    def scale(self, n, x):
        return self.element(tuple(n * c for c in x.coords))

    def from_dual_vector(self, r):
        """Class of a dual vector r (raises NotInDualLattice otherwise)."""
        gr = self.lattice.gram_times(r)
        if not all(is_integral(x) for x in gr):
            raise NotInDualLatticeError(f"{r} does not pair integrally with the lattice")
        w = [int(x) for x in gr]
        n = self.lattice.rank
        a = [sum(self._u[i][j] * w[j] for j in range(n)) for i in range(n)]
        coords = tuple(a[pos] % d for pos, d in zip(self._positions, self.orders))
        return self.element(coords)

    def _pairing_row(self, coords):
        level = self.lattice.level
        ax = [sum(a * c for a, c in zip(row, coords)) % level for row in self.gram_mod]
        sums = self._lex_sums([[a * c for c in range(d)] for a, d in zip(ax, self.orders)])
        return [v % level for v in sums]

    def pairings(self, x):
        """N beta(y, x) mod N for every class y."""
        return self._pairing_row(x.coords)

    def pairing_matrix(self):
        """N beta(x, y) mod N for every pair of classes, one row per x."""
        return [self._pairing_row(c) for c in self.classes()]

    def pairing_mod1(self, x, y):
        """beta(x, y) mod Z, independent of representatives."""
        num = sum(a * row[j] * b for a, row in zip(x.coords, self.gram_mod)
                  for j, b in enumerate(y.coords))
        return Fraction(num % self.lattice.level, self.lattice.level)


# -- constructors / operations --------------------------------------------------

def make_lattice(gram):
    """Validate a Gram matrix and build an EvenLattice.

    Checks, in order: squareness and integrality, symmetry, even diagonal,
    non-degeneracy (a zero Smith invariant d_i), positive definiteness via the
    pivots of one Bareiss pass, kept.  The one Smith form U G V = diag(d) then
    gives det = prod d_i and the pairings of the generators of L#/L, which
    give the level and are kept for `DiscriminantGroup`.
    """
    rows = [list(row) for row in gram]
    n = len(rows)
    if n < 1 or any(len(row) != n for row in rows):
        raise ValueError("Gram matrix must be square and non-empty")
    mat = []
    for row in rows:
        out = []
        for x in row:
            if isinstance(x, bool) or not isinstance(x, numbers.Integral):
                if isinstance(x, float) and x.is_integer():
                    x = int(x)
                else:
                    raise ValueError(f"Gram entries must be integers, got {x!r}")
            out.append(int(x))
        mat.append(out)
    for i in range(n):
        for j in range(i + 1, n):
            if mat[i][j] != mat[j][i]:
                raise NotSymmetricError(f"entries ({i},{j}) and ({j},{i}) differ")
    for i in range(n):
        if mat[i][i] % 2:
            raise OddDiagonalError(f"diagonal entry {i} is odd")
    diag, u, v = smith_normal_form(mat)
    if 0 in diag:
        raise DegenerateError("Gram matrix is singular")
    rows = _bareiss_rows(mat)
    if rows[-1][len(rows) - 1] <= 0:
        raise NotPositiveDefiniteError(len(rows), rows[-1][len(rows) - 1])
    det = math.prod(diag)
    delta = (-1) ** (n // 2) * (1 + n % 2) * det
    assert delta % 4 in ((0, 1) if n % 2 == 0 else (0,))
    # the generators g_i = v_i / d_i of L#/L (v_i column i of V, d_i > 1) pair
    # to beta(g_i, g_j) = v_i^t G v_j / (d_i d_j)
    cols = [(d, [row[i] for row in v]) for i, d in enumerate(diag) if d > 1]
    g_cols = [[sum(map(mul, row, col)) for row in mat] for _, col in cols]
    pairings = tuple(tuple(Fraction(sum(map(mul, col, g_col)), d * e)
                           for (e, _), g_col in zip(cols, g_cols)) for d, col in cols)
    # the level, the least N with N beta(x) integral on L#/L: beta(x) is a sum of
    # c_i^2 beta(g_i) and c_i c_j beta(g_i, g_j), i < j
    level = math.lcm(*(b.denominator for row in pairings for b in row),
                     *((row[i] / 2).denominator for i, row in enumerate(pairings)))
    return EvenLattice(
        gram=tuple(tuple(row) for row in mat),
        rank=n,
        det=det,
        level=level,
        delta=delta,
        smith=(diag, u, v),
        generator_pairings=pairings,
        bareiss_rows=rows,
    )


def discriminant_group(lattice):
    """Canonical L#/L (list-like, deterministic lexicographic element order)."""
    return lattice.disc_group


def beta_values(lattice, r):
    """Exact beta(r) for r in the dual lattice, plus the pairing r' -> beta(r, r')."""
    r = tuple(Fraction(x) for x in r)
    if not lattice.in_dual(r):
        raise NotInDualLatticeError(f"{r} is not in the dual lattice")
    return lattice.beta(r), lambda s: lattice.pairing(r, s)


def support_data(lattice, D, r):
    """(r, beta(r) - D, G r) of a support pair (D, r), the last two as exact ints.

    r is a `DiscElement`, read through its representative, or a dual vector.
    Raises NotInDualLatticeError unless r lies in L#, and ValueError unless
    D <= 0 and D = beta(r) mod Z: this is the one test of (D, r) in supp(L)
    behind the counts of `repcounts` and the sums of `expsums`.
    """
    rv = r.rep if isinstance(r, DiscElement) else tuple(Fraction(v) for v in r)
    gr = lattice.gram_times(rv)
    if not all(is_integral(v) for v in gr):
        raise NotInDualLatticeError(f"{r} is not in the dual lattice")
    D = Fraction(D)
    n = sum(map(mul, rv, gr)) / 2 - D
    if D > 0 or not is_integral(n):
        raise ValueError(f"(D={D}, r={r}) is not in supp(L): need D <= 0 and D = beta(r) mod Z")
    return rv, int(n), tuple(int(v) for v in gr)


def isotropy_set(lattice):
    """All classes x with beta(x) integral, in the canonical order."""
    group = lattice.disc_group
    return [group.element(c) for c, v in zip(group.classes(), group.beta_numerators()) if v == 0]


def lattice_character(lattice, D, a):
    """Kronecker symbol (D * Delta(L) / a); D * Delta(L) must be integral."""
    from .numbertheory import kronecker  # here: `info` and `rep` never execute numbertheory

    val = Fraction(D) * lattice.delta
    if not is_integral(val):
        raise NonIntegralArgumentError(f"D*Delta = {val} is not an integer")
    return kronecker(int(val), a)


def enumerate_supp(lattice, n_max):
    """All (D, x) with D <= 0, D = beta(x) mod Z and beta(x) - D <= n_max.

    Sorted by (q-exponent, x-coordinates): one pass over the classes and their
    `beta_numerators` per q-exponent n = beta(x) - D, only isotropic ones at n = 0.
    """
    n_max = Fraction(n_max)
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    group, level = lattice.disc_group, lattice.level
    classes = list(zip(group.classes(), group.beta_numerators()))
    out = []
    for n in range(math.floor(n_max) + 1):
        out += [FourierIndex(D=Fraction(b, level) - n, x=group.element(c))
                for c, b in classes if n or not b]
    return out


def coset_points(lattice, x, bound):
    """All dual vectors r = x mod L with beta(r) <= bound.

    Complete and duplicate-free, by exact rational LDL^t box bounds swept with
    integer loops (no floating point in the pruning decisions), and the LDL^t
    r^t G r = sum_i d_i (r_i + sum_{j>i} u_ij r_j)^2 from the Bareiss rows.
    """
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError("bound must be non-negative")
    n, rows = lattice.rank, lattice.bareiss_rows
    minors = [1] + [row[i] for i, row in enumerate(rows)]
    d = [Fraction(minors[i + 1], minors[i]) for i in range(n)]
    u = [[Fraction(rows[i][j], minors[i + 1]) for j in range(n)] for i in range(n)]
    shift = x.rep if isinstance(x, DiscElement) else tuple(Fraction(t) for t in x)
    points = []
    coords = [Fraction(0)] * n

    def sweep(i, remaining):
        if i < 0:
            points.append(tuple(coords))
            return
        centre = shift[i] + sum(u[i][j] * coords[j] for j in range(i + 1, n))
        # d_i (centre + v)^2 <= remaining
        t = remaining / d[i]
        lo = ceil_minus_sqrt(-centre, t)
        hi = floor_plus_sqrt(-centre, t)
        for v in range(lo, hi + 1):
            coords[i] = shift[i] + v
            inner = centre + v
            sweep(i - 1, remaining - d[i] * inner * inner)

    sweep(n - 1, 2 * bound)
    points.sort()
    return points


# -- Fourier expansions ----------------------------------------------------------

class FourierExpansion(Record):
    """Truncated Fourier expansion: FourierIndex -> exact rational or complex.

    `mode` records which pipeline produced the non-singular entries; exact
    values are `Fraction`, numeric ones are `complex`/`float` (the value type
    is the per-entry provenance tag).
    """

    _fields = ("weight", "lattice", "entries", "n_max", "mode", "series", "r_coords", "D",
               "tail_estimate", "lattice_name")
    _defaults = {"series": "eisenstein", "r_coords": None, "D": None, "tail_estimate": None,
                 "lattice_name": None}

    def sorted_items(self):
        return sorted(self.entries.items(), key=lambda kv: (kv[0].qexp, kv[0].x.coords))

    def symmetry_defect(self):
        """max |C(D, -x) - (-1)^k C(D, x)|; zero for a consistent expansion."""
        group = self.lattice.disc_group
        sign = (-1) ** self.weight
        worst = 0.0
        for idx, val in self.entries.items():
            mirror = FourierIndex(D=idx.D, x=group.neg(idx.x))
            if mirror in self.entries:
                worst = max(worst, abs(complex(self.entries[mirror]) - sign * complex(val)))
        return worst

    def to_json_dict(self):
        def render(val):
            if isinstance(val, Fraction):
                return format_rational(val)
            val = complex(val)
            return {"re": val.real, "im": val.imag}

        doc = {
            "lattice": self.lattice_name or "",
            "weight": self.weight,
            "r": list(self.r_coords) if self.r_coords is not None else None,
            "mode": self.mode,
            "series": self.series,
            "entries": [
                {
                    "D": format_rational(idx.D),
                    "x": list(idx.x.coords),
                    "n": format_rational(idx.qexp),
                    "value": render(val),
                }
                for idx, val in self.sorted_items()
            ],
            "tail_estimate": self.tail_estimate,
        }
        if self.series == "poincare":
            doc["D_index"] = format_rational(self.D)
        return doc


def load_lattice_json(path):
    """Read {"name": ..., "gram": [[...]]} and validate the lattice."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "gram" not in doc:
        raise ValueError("lattice file must be a JSON object with a 'gram' key")
    gram = doc["gram"]
    if not isinstance(gram, list) or any(not isinstance(row, list) for row in gram):
        raise ValueError("'gram' must be an array of arrays")
    return doc.get("name", "unnamed"), make_lattice(gram)
