"""Exponential and counting sums: Kloosterman sums, the Poincare/Eisenstein
lattice sums H, representation numbers R_b, local Euler factors and the
truncated Dirichlet series.

The lattice sums have three routes.  The definitional route sums H term by
term with exact rational phases (deterministic order: d ascending, lambda
lexicographic).  The walk `lattice_sum_fft` rewrites H through Kloosterman
sums: it walks (Z/c)^rank in bounded blocks to form acc[t] = sum of
e(pint(lambda)/c) over n1(lambda) = t mod c, and since K(m, t; c) =
sum_u e((m u^-1 + t u)/c), H needs one length-c FFT of acc, read at the
units.  These two are the oracles.  The series route, `_h_table`, splits c =
c_g c_b by CRT, c_b made of the primes of 2 det and c_g prime to it: H_c =
e(beta(r', r)/c) K W.  K is a Kloosterman sum (even rank) or Salie sum (odd
rank) mod c_g in closed form from the Weil representation; where D = 0 mod
c_g, as at every Eisenstein coefficient, its d-sum is a Ramanujan sum or its
twist by the Jacobi symbol, and elsewhere one FFT per (c_g, D).  W is a sum
over the units of c_b of quadratic Gauss sums S(U, h; p^e), one per prime
power of c_b, each reduced two powers of p at a time onto the solutions of
U G lambda = -h mod p (`_gauss_sum`, on the node machinery of the Hensel
recursion below), once per distinct key (c_b, c_g^-1 mod c_b); its leaves are
counted against H_LEAF_LIMIT before the first.  Within one expansion (D, r)
is fixed, so inside `shared_targets` one table z[target, c] serves every
target (D', r') of the expansion, and each coefficient's c-sum reads its row;
a lone coefficient is the one-target case.  The routes are asserted against
each other in the tests.

Representation numbers R_b count the zeros mod b of the integral polynomial
Q(lambda) = beta(lambda + x) - D.  Composite b splits by CRT into prime powers,
and R_{p^e} comes from a Hensel recursion over the zeros of Q mod p: a
nonsingular zero lifts to p^((e-1)(rank-1)) zeros mod p^e (this holds at p = 2
too), and a singular zero recurses on the form reduced by p.  Each node is
counted in closed form at odd p, from a symmetric elimination of G mod p and
the classical count of a nondegenerate form's values, and by a walk of
(Z/2)^rank at p = 2; its singular zeros are listed only where they recurse,
at e >= 2, and e = 1 takes the count alone.  This recursion is the one route
to R_{p^e}, at good and bad primes alike, and the LRU cache on it the one memo
of R_b across calls: `rep_count`, the stable profiles behind the local factors
and the prime powers of the Dirichlet series all read through it.  A node
that would list more than NODE_POINT_LIMIT points raises ResourceLimitError
before allocating.  The brute-force count over (Z/b)^rank and the walk of
(Z/p)^rank at every node stay in the tests as oracles.  This part, like the
Dirichlet series and the Eisenstein c-sums, runs in Python ints and complexes;
numpy loads only for the walk oracle and for the FFT of K at D != 0 mod c_g.
"""

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import product
from operator import mul

from ._lazy import np
from .errors import (
    NotIsotropicError,
    ResourceLimitError,
    StabilizationFailureError,
)
from .lattice import DiscElement, EvenLattice
from .numbertheory import bernoulli, bernoulli_poly, factorize, kronecker
from .rationals import is_integral, unit_phase, unit_phase_ratio

_STABILIZATION_CAP = 4
_CHUNK = 1 << 16  # points per block when a walk over (Z/n)^rank is chunked


# -- shared precomputation -------------------------------------------------------

def _as_dual_vector(lattice, r):
    if isinstance(r, DiscElement):
        return r.rep
    vec = tuple(Fraction(v) for v in r)
    gr = lattice.gram_times(vec)
    if not all(is_integral(v) for v in gr):
        raise ValueError(f"{r} is not in the dual lattice")
    return vec


def _int_beta(gram, vec):
    """beta of an integer vector, as a Python int."""
    total = 0
    n = len(vec)
    for i in range(n):
        total += gram[i][i] // 2 * vec[i] * vec[i]
        for j in range(i + 1, n):
            total += gram[i][j] * vec[i] * vec[j]
    return total


@dataclass(frozen=True)
class _SumData:
    """Integer data of the exponents of H_{L,c}(D, r, D', r') for one (D, r) and
    a list of targets (D', r')."""

    gram: tuple
    rank: int
    n0: int          # beta(r) - D
    gx: tuple        # G r  (integral)
    gps: tuple       # the distinct G r' (integral) among the targets
    targets: tuple   # per target: (index of its G r' in gps, beta(r') - D', beta(r', r))

    def n1(self, lam):
        """beta(lambda + r) - D for an integer vector lambda."""
        return _int_beta(self.gram, lam) + sum(g * v for g, v in zip(self.gx, lam)) + self.n0

    def pint(self, lam):
        """Integer part of beta(r', lambda + r): (G r') . lambda, for the first target."""
        return sum(g * v for g, v in zip(self.gps[0], lam))


def _sum_data(lattice, D, r, targets):
    D = Fraction(D)
    rv = _as_dual_vector(lattice, r)
    beta_r = lattice.beta(rv)
    gps, rows = [], []
    for Dp, rp in targets:
        Dp = Fraction(Dp)
        rpv = _as_dual_vector(lattice, rp)
        beta_rp = lattice.beta(rpv)
        if D > 0 or Dp > 0:
            raise ValueError("support pairs need D <= 0")
        if not is_integral(beta_r - D) or not is_integral(beta_rp - Dp):
            raise ValueError("(D, r) and (D', r') must lie in supp(L): D = beta(r) mod Z")
        gp = tuple(int(v) for v in lattice.gram_times(rpv))
        if gp not in gps:
            gps.append(gp)
        rows.append((gps.index(gp), int(beta_rp - Dp), lattice.pairing(rpv, rv)))
    return _SumData(
        gram=lattice.gram,
        rank=lattice.rank,
        n0=int(beta_r - D),
        gx=tuple(int(v) for v in lattice.gram_times(rv)),
        gps=tuple(gps),
        targets=tuple(rows),
    )


def _units(c):
    return [d for d in range(1, c + 1) if math.gcd(d, c) == 1] if c > 1 else [1]


# -- Kloosterman sums ------------------------------------------------------------

@lru_cache(maxsize=65536)
def _kloosterman_reduced(m, n, c):
    if c == 1:
        return complex(1.0)
    total = 0j
    for d in _units(c):
        dinv = pow(d, -1, c)
        total += unit_phase(Fraction(m * d + n * dinv, c))
    return total


def kloosterman(m, n, c):
    """K(m, n; c) = sum over invertible d mod c of e_c(m d + n d^{-1}).

    Real-valued up to float roundoff; returned as a complex number.
    """
    c = int(c)
    if c < 1:
        raise ValueError("c must be a positive integer")
    return _kloosterman_reduced(int(m) % c, int(n) % c, c)


# -- lattice sums (definitional route) -------------------------------------------

def poincare_lattice_sum(lattice, D, r, Dp, rp, c):
    """H_{L,c}(D, r, D', r') summed directly over d in Z_c^* and lambda in L/cL."""
    c = int(c)
    if c < 1:
        raise ValueError("c must be a positive integer")
    data = _sum_data(lattice, D, r, [(Dp, rp)])
    _, np0, p0 = data.targets[0]
    p0_over_c = p0 / c
    lam_cache = [
        (data.n1(lam), data.pint(lam))
        for lam in product(range(c), repeat=data.rank)
    ]
    total = 0j
    for d in _units(c):
        dinv = pow(d, -1, c) if c > 1 else 0
        for n1, pint in lam_cache:
            total += unit_phase(Fraction(n1 * dinv + np0 * d + pint, c) + p0_over_c)
    return total


def eisenstein_lattice_sum(lattice, r, Dp, rp, c):
    """H_{L,c}(r, D', r') for isotropic r; equals the Poincare sum at D = 0."""
    rv = _as_dual_vector(lattice, r)
    if not is_integral(lattice.beta(rv)):
        raise NotIsotropicError(f"beta({r}) is not integral")
    return poincare_lattice_sum(lattice, Fraction(0), rv, Dp, rp, c)


def kloosterman_decomposition(lattice, D, r, Dp, rp, c):
    """H_{L,c} evaluated as sum_lambda e_c(beta(r', lambda+r)) K(beta(r')-D', beta(lambda+r)-D; c).

    Independent oracle for the lattice sums (it never runs the (d, lambda)
    double loop).
    """
    c = int(c)
    if c < 1:
        raise ValueError("c must be a positive integer")
    data = _sum_data(lattice, D, r, [(Dp, rp)])
    _, np0, p0 = data.targets[0]
    p0_over_c = p0 / c
    total = 0j
    for lam in product(range(c), repeat=data.rank):
        phase = unit_phase(Fraction(data.pint(lam), c) + p0_over_c)
        total += phase * kloosterman(np0, data.n1(lam), c)
    return total


# -- lattice sums (the walk, and the series table) -------------------------------

# `lattice_sum_fft` walks (Z/c')^rank at every c' <= c; it is refused before
# its walk when that c-sum, sum_{c' <= c} c'^rank, covers more than
# H_POINT_LIMIT points, naming its cost.
H_POINT_LIMIT = 5 * 10**8


def _check_points(rank, c_max):
    # Faulhaber: sum_{c <= c_max} c^rank = (B_{rank+1}(c_max + 1) - B_{rank+1}) / (rank + 1)
    points = int((bernoulli_poly(rank + 1, c_max + 1) - bernoulli(rank + 1)) / (rank + 1))
    if points > H_POINT_LIMIT:
        raise ResourceLimitError(f"H_c for c <= {c_max} at rank {rank} walks sum_c c^rank = "
                                 f"{points} points, over the limit of {H_POINT_LIMIT}")


def _lambda_profile(data, c):
    """(n1 mod c, pints) over (Z/c)^rank, in blocks of about _CHUNK points.

    pints yields (G r') . lambda mod c on the block for each G r' in data.gps in
    turn, built as it is asked for, so one block-sized pint is live at a time.
    """
    # each axis after the first is broadcast against the points built so far
    rank, gram, lam = data.rank, data.gram, np.arange(c, dtype=np.int64)
    quad = [lam * (gram[i][i] // 2 % c * lam + data.gx[i] % c) % c for i in range(rank)]
    lin = [[gp[i] % c * lam % c for i in range(rank)] for gp in data.gps]
    cross = [[gram[i][j] % c * lam % c for j in range(i + 1, rank)] for i in range(rank)]

    def walk(n1, pints, slopes, i):  # slopes[j - i]: coefficient of lambda_j at each point
        if i == rank:
            yield n1, iter(pints)
            return
        rows = max(1, _CHUNK // c ** (rank - i))
        for b in (slice(s, s + rows) for s in range(0, len(n1), rows)):
            block = (((p[b, None] + w[i]) % c).ravel() for p, w in zip(pints, lin))
            yield from walk(((n1[b, None] + quad[i] + slopes[0][b, None] * lam) % c).ravel(),
                            block if i + 1 == rank else list(block),
                            [((v[b, None] + w) % c).ravel() for v, w in zip(slopes[1:], cross[i])],
                            i + 1)

    try:
        yield from walk((quad[0] + data.n0 % c) % c, [w[0] for w in lin], cross[0], 1)
    finally:
        walk = None  # the recursive closure is a reference cycle: break it to free the tables now


def _unit_array(c):
    """The units u of Z/c ascending, as an array; u = 0 alone at c = 1."""
    return np.flatnonzero(np.gcd(np.arange(c), c) == 1)


def _inverses(units, c):
    """u^-1 mod c for the array of all units u of Z/c."""
    inv, base, e = np.ones_like(units), units, len(units) - 1
    while e:  # u^-1 = u^(phi(c) - 1) mod c, by square-and-multiply over all units at once
        inv = inv * base % c if e & 1 else inv
        base, e = base * base % c, e >> 1
    return inv


def _h_c(data, c):
    """H_{L,c} at every target of data, as a list in target order.

    H = e(p0/c) sum over units u of e(m u^-1/c) A(u), A(u) = sum_t acc[t] e(t u/c);
    acc depends on the target only through G r', so one walk of (Z/c)^rank
    feeds one acc and one FFT per distinct G r', read out at the units per target.
    """
    roots = np.exp((2j * np.pi / c) * np.arange(c))
    re = [0.0] * len(data.gps)
    im = [0.0] * len(data.gps)
    for n1, pints in _lambda_profile(data, c):
        for g in range(len(data.gps)):
            pint = next(pints)
            re[g] = re[g] + np.bincount(n1, roots.real[pint], c)
            im[g] = im[g] + np.bincount(n1, roots.imag[pint], c)
            del pint  # before the next G r' builds its block
    units = _unit_array(c)
    inv = _inverses(units, c)
    a_hat = [np.fft.ifft(x + 1j * y, norm="forward")[units] for x, y in zip(re, im)]
    return [unit_phase_ratio(p0.numerator, p0.denominator * c)
            * complex(np.dot(roots[np0 % c * inv % c], a_hat[g]))
            for g, np0, p0 in data.targets]


def lattice_sum_fft(lattice, D, r, Dp, rp, c):
    """H_{L,c}(D, r, D', r') by the walk of (Z/c)^rank (within ~1e-10 of the definitional route).

    The oracle of `_h_table` at every c.  Refused when a walk of every c' <= c
    would cover more than H_POINT_LIMIT points.
    """
    c = int(c)
    if c < 1:
        raise ValueError("c must be a positive integer")
    data = _sum_data(lattice, D, r, [(Dp, rp)])
    _check_points(data.rank, c)
    return _h_c(data, c)[0]


@dataclass
class _Shared:
    """The targets of one expansion and, once built, their table and its (lattice, D, r, c_max)."""

    targets: tuple
    key: tuple = None
    table: "_HTable" = None


_SHARED = ContextVar("expsums_shared_targets", default=None)


@contextmanager
def shared_targets(targets):
    """Within the block, h_series_terms at any (D', r') of `targets` reads H_c
    from one table z[target, c] for all of them, built at the first term with
    one Gauss-sum recursion per key (c_b, a') of `_h_table` and dropped on exit."""
    token = _SHARED.set(_Shared(tuple(targets)))
    try:
        yield
    finally:
        _SHARED.reset(token)


def _split(c, bad):
    """(c_g, c_b): c = c_g c_b with c_b made of the primes dividing `bad`, c_g prime to it."""
    c_b, g = 1, math.gcd(c, bad)
    while g > 1:
        c, c_b = c // g, c_b * g
        g = math.gcd(c, g)
    return c, c_b


# The recursion of `_gauss_sum` ends in at most p^(k floor(e/2)) leaves at a
# prime power p^e, k the dimension of the radical of G mod p.  `_h_table` runs
# it per key (c_b, a), unit of c_b and prime power of c_b for each distinct
# G r', and refuses a table whose leaves per G r' would exceed H_LEAF_LIMIT
# before its first recursion, naming the count.  It is a constant, not a
# setting.  At c_max = 1000 the bound is 1.4e3 leaves on E8 (k = 0), 1.4e4 on
# A3 (k = 1), 1.7e5 on D4 (k = 2), 2.4e6 on A1^3 (k = 3) and 2.2e12 on 2 E8
# (k = 8); the memo of the subsums keeps the work well below it.
H_LEAF_LIMIT = 10**7


@lru_cache(maxsize=256)
def _roots(n):
    """[e(j/n) for j = 0..n-1], each as `unit_phase_ratio` gives it."""
    return [unit_phase_ratio(j, n) for j in range(n)]


@lru_cache(maxsize=256)
def _gauss_node(gram, p):
    """(solve, leaf, k) for the nodes of `_gauss_sum` at a prime p.

    solve(U, h) lists (lambda, beta(lambda), G lambda) for one integer lambda per
    class mod p with U G lambda + h = 0 mod p: none, or a coset of the radical R
    of G mod p, of p^k points.
    leaf(U, h) = S(U, h; p), the sum of e((U beta(lambda) + h.lambda)/p) over
    (Z/p)^rank.  At p = 2 both read one walk of (Z/2)^rank that groups lambda by
    G lambda mod 2 and keeps beta(lambda) mod 2 (U is odd and drops out).  At
    odd p both come from `_diagonalize_mod_p`: with lambda = sum y_i b_i,
    G lambda = v asks b_i.v = pivot_i y_i below the pivots and b_i.v = 0 on R,
    and the leaf is p^k times one-dimensional Gauss sums
    sum_y e((a y^2 + t y)/p) = (a/p) g_p e(-t^2 (4a)^-1 / p), with
    g_p = sqrt(p) at p = 1 mod 4 and i sqrt(p) at p = 3 mod 4.
    """
    rank = len(gram)
    if p == 2:
        _check_node(p, f"walks 2^rank = 2^{rank}", 2**rank, "points")
        cosets, parity = {}, {}
        for lam in product((0, 1), repeat=rank):
            image, beta = tuple(sum(gij * v for gij, v in zip(row, lam)) for row in gram), _int_beta(gram, lam)
            cosets.setdefault(tuple(v % 2 for v in image), []).append((lam, beta, image))
            parity[lam] = beta % 2

        @cache
        def leaf2(h):
            return sum(1 - 2 * ((b + sum(x * y for x, y in zip(h, lam))) % 2)
                       for lam, b in parity.items())

        k = rank - (len(cosets).bit_length() - 1)
        return (lambda U, h: cosets.get(tuple([v & 1 for v in h]), ()),
                lambda U, h: leaf2(h), k)

    pivots, basis = _diagonalize_mod_p(gram, p)
    s, radical = len(pivots), basis[len(pivots):]
    k = len(radical)
    _check_node(p, f"lists p^k = {p}^{k}", p**k, "points")
    g_p = (1j if p % 4 == 3 else 1) * math.sqrt(p)
    half = pow(2, -1, p)

    def coords(h):  # b_i.h mod p, and whether h is orthogonal to R
        t = [sum(x * y for x, y in zip(vec, h)) % p for vec in basis]
        return t[:s], not any(t[s:])

    @lru_cache(maxsize=1 << 12)
    def solve_mod_p(U, h):
        t, solvable = coords(h)
        if not solvable:
            return ()
        ubar = pow(U, -1, p)
        y = [-ti * ubar * pow(piv, -1, p) % p for ti, piv in zip(t, pivots)]
        lam0 = [sum(yi * vec[j] for yi, vec in zip(y, basis)) for j in range(rank)]
        points = (tuple(l0 + sum(z * vec[j] for z, vec in zip(zs, radical)) for j, l0 in enumerate(lam0))
                  for zs in product(range(p), repeat=k))
        return [(lam, _int_beta(gram, lam), [sum(gij * v for gij, v in zip(row, lam)) for row in gram])
                for lam in points]

    @lru_cache(maxsize=1 << 12)
    def leaf_mod_p(U, h):
        t, solvable = coords(h)
        if not solvable:
            return 0
        sign, num = 1, 0
        for ti, piv in zip(t, pivots):
            a = U * piv * half % p
            sign *= kronecker(a, p)
            num -= ti * ti * pow(4 * a, -1, p)
        return p**k * sign * g_p**s * unit_phase_ratio(num, p)

    # both depend on U and h mod p only: memoized there
    return (lambda U, h: solve_mod_p(U % p, tuple([v % p for v in h])),
            lambda U, h: leaf_mod_p(U % p, tuple([v % p for v in h])), k)


def _gauss_sum(gram, p, e, U, h):
    """S(U, h; p^e) = sum over lambda mod p^e of e((U beta(lambda) + h.lambda)/p^e).

    U is a unit and U, h are reduced mod p^e.  With lambda = lambda1 + p mu,
    Q(lambda) = U beta(lambda) + h.lambda and grad = U G lambda1 + h,
      Q(lambda1 + p mu) = Q(lambda1) + p grad.mu + p^2 U beta(mu)
    (exact, beta integral on L).  The sum over mu mod p^(e-1) vanishes unless
    grad = 0 mod p; then splitting mu once more, mod p^(e-2) and along p^(e-2),
    leaves p^rank S(U, grad/p; p^(e-2)).  So for e >= 2
      S = p^rank sum_{lambda1 mod p, grad = 0 mod p} e(Q(lambda1)/p^e) S(U, grad/p; p^(e-2)),
    one level of `_gauss_node` per two powers of p, down to e = 0 (S = 1) or
    the leaf at e = 1.
    """
    if e == 0:
        return 1
    solve, leaf, _ = _gauss_node(gram, p)
    if e == 1:
        return leaf(U, h)
    q, sub = p**e, p ** (e - 2)
    roots = _roots(q)
    total = 0j
    for lam, beta, glam in solve(U, h):
        value = U * beta + sum(map(mul, h, lam))
        total += roots[value % q] * _subsum(
            gram, p, e - 2, U % sub, tuple([(U * g + hi) // p % sub for g, hi in zip(glam, h)]))
    return p ** len(gram) * total


# A top-level S is met about once per unit and G r', its subsums again and again
# across units, keys and targets: only the subsums are memoized, so the memo
# does not grow with the units times the classes r' of an expansion.
_subsum = lru_cache(maxsize=1 << 16)(_gauss_sum)


def _check_leaves(data, c_max, keys):
    ks = {p: _gauss_node(data.gram, p)[2] for c_b, _ in keys for p, _ in factorize(c_b)}
    leaves = sum(math.prod(p ** (e - 1) * (p - 1) for p, e in factorize(c_b))
                 * sum(p ** (ks[p] * (e // 2)) for p, e in factorize(c_b))
                 for c_b, _ in keys)
    if leaves > H_LEAF_LIMIT:
        raise ResourceLimitError(
            f"H_c for c <= {c_max} sums (Z/c_b)^{data.rank} as Gauss sums per key "
            f"(c_b, c_g^-1 mod c_b) and unit of c_b: {len(keys)} keys, {leaves} leaves "
            f"per G r', over the limit of {H_LEAF_LIMIT}")


def _bad_part(data, c_b, a):
    """W at every target of data, for the key (c_b, a) with a = c_g^-1 mod c_b.

    After CRT on (d, lambda), the part of H_c at c_b is
    W = sum over d in (Z/c_b)* and lambda mod c_b of
    e((d^-1 a^2 n1(lambda) + d m + a pint(lambda)) / c_b), m = beta(r') - D'.
    With u = d^-1, U = u a^2 and h = U G r + a G r' the exponent is
    U beta(lambda) + h.lambda + U n0 + m u^-1, and the sum over lambda mod c_b
    splits by CRT again (1/c_b = sum_q s_q/q mod 1, s_q = (c_b/q)^-1 mod q):
      W = sum_u e((U n0 + m u^-1)/c_b) prod_{q = p^e || c_b} S(U s_q, h s_q; q).
    The Gauss sums depend on the target only through G r', so they are formed
    once per unit and distinct G r'.
    """
    factors = [(p, e, p**e, pow(c_b // p**e, -1, p**e)) for p, e in factorize(c_b)]
    # per G r' and prime power q: (p, e, q, s_q, a s_q G r')
    terms = [[(p, e, q, s, [a * s * y for y in gp]) for p, e, q, s in factors] for gp in data.gps]
    roots = _roots(c_b)
    out = [0j] * len(data.targets)
    for u in _units(c_b):
        U = u * a * a % c_b
        ubar = pow(u, -1, c_b)
        sums = []
        for gp_terms in terms:
            z = 1
            for p, e, q, s, agp in gp_terms:
                us = U * s
                z *= _gauss_sum(data.gram, p, e, us % q, tuple([(us * x + y) % q for x, y in zip(data.gx, agp)]))
            sums.append(z)
        phase = U * data.n0
        for i, (g, m, _) in enumerate(data.targets):
            out[i] += roots[(phase + m * ubar) % c_b] * sums[g]
    return out


@lru_cache(maxsize=256)
def _legendre_table(p):
    """[(u/p) for u = 0..p-1] at an odd prime p, with -1 at u = 0, which no unit meets."""
    table = -np.ones(p, dtype=np.int64)
    table[np.arange(1, p) ** 2 % p] = 1
    return table


def _jacobi_symbols(units, m):
    """The Jacobi symbol (u/m) at every unit u of an odd m."""
    out = np.ones(len(units), dtype=np.int64)
    for p, e in factorize(m):
        if e % 2:
            out *= _legendre_table(p)[units % p]
    return out


def _unit_sum(m, factors, x, odd):
    """sum_{d in (Z/m)*} chi(d) e(x d/m), chi = 1 (odd False) or the Jacobi symbol (d/m).

    By CRT it is prod_{q = p^e || m} ((m/q)/p)^e G_q(x), G_q the sum mod q.  At
    chi = 1, and at even e, G_q is the Ramanujan sum c_q(x): phi(q) if q | x,
    -p^(e-1) if p^(e-1) || x, else 0.  At odd e with chi the Jacobi symbol,
    G_q = 0 unless p^(e-1) | x, and then p^(e-1) ((x/p^(e-1))/p) g_p, with
    g_p = sqrt(p) or i sqrt(p) as p = 1 or 3 mod 4.
    """
    value = 1
    for p, e in factors:
        q, low = p**e, p ** (e - 1)
        if x % low:
            return 0
        if odd and e % 2:
            value *= kronecker(m // q, p) * low * kronecker(x // low, p) * math.sqrt(p)
            value *= 1j if p % 4 == 3 else 1
        else:
            value *= q - low if x % q == 0 else -low
    return value


def _closed_form(lattice, D, data, dps):
    """at(m)(c_b): the factor K of H_c, c = m c_b, from the part m prime to 2 det, per target.

    With a = c_b^-1 mod m and n = rank, the Weil representation gives
      K = eps_m^n m^(n/2) (det/m) (2/m)^n
          sum_{d in (Z/m)*} ((a d)/m)^n e(-a (D d^-1 + D' d + beta(r', r)) / m),
    eps_m = 1 for m = 1 mod 4, else i: a Kloosterman sum at even rank and a
    Salie sum at odd rank.  (Complete the square in lambda: L/mL = L#/mL# at
    m prime to det, and the Gauss sum of beta mod m is the product of the
    one-dimensional ones over a diagonalization.)  D, D' and beta(r', r) are
    held as N times integers, N their common denominator, which is prime to
    m.  Where D = 0 mod m, as at every Eisenstein c, the d-sum is a Ramanujan
    sum or its twist by the Jacobi symbol, in closed form (`_unit_sum`).
    Elsewhere only D' varies the d-phase across targets, so one length-m FFT
    of d -> ((a d)/m)^n e(-a D d^-1 / m) is read at -a D' for every target;
    it depends on c_b only through -a D mod m.
    """
    rank, det, n_targets = lattice.rank, lattice.det, len(dps)
    p0s = [p0 for _, _, p0 in data.targets]
    big_n = math.lcm(*(q.denominator for q in [Fraction(D), *dps, *p0s]))
    nd = int(D * big_n)
    ndp = [int(q * big_n) for q in dps]
    np0 = [int(q * big_n) for q in p0s]
    target_arrays = cache(lambda: (np.array(ndp, dtype=np.int64), np.array(np0, dtype=np.int64)))

    def at(m):
        if m == 1:
            return lambda c_b: [1 + 0j] * n_targets
        factors = factorize(m)
        eps = (1, 1j, -1, -1j)[rank % 4] if m % 4 == 3 else 1
        scale = eps * kronecker(det, m) * kronecker(2, m) ** rank * m ** (rank / 2)
        ffts = {}

        @cache
        def arrays():  # the units mod m, their inverses, the m-th roots of unity, chi(units)
            units = _unit_array(m)
            chi = _jacobi_symbols(units, m) if rank % 2 else 1
            return units, _inverses(units, m), np.exp((2j * np.pi / m) * np.arange(m)), chi

        def fft(t):  # [x] -> sum_d (d/m)^n e((x d + t d^-1)/m)
            if t not in ffts:
                units, inv, roots, chi = arrays()
                f = np.zeros(m, dtype=complex)
                f[units] = roots[t * inv % m] * chi
                ffts[t] = np.fft.ifft(f, norm="forward")
            return ffts[t]

        def k(c_b):
            s = m - pow(c_b * big_n, -1, m)  # -a / N mod m
            t = s * nd % m
            sign = kronecker(c_b, m) if rank % 2 else 1
            if t == 0:
                return [(sign * scale) * unit_phase_ratio(s * v, m) * _unit_sum(m, factors, s * w % m, rank % 2)
                        for v, w in zip(np0, ndp)]
            ndp_array, np0_array = target_arrays()
            return ((sign * scale) * arrays()[2][s * np0_array % m] * fft(t)[s * ndp_array % m]).tolist()

        return k

    return at


class _HTable:
    """H_c of every target at c = 1..c_max, packed c-major as (re, im) doubles like
    a complex128 array: table[target, c - 1] reads one, row(target) all of a target's."""

    def __init__(self, n_targets, c_max):
        self.n = n_targets
        self.parts = memoryview(bytearray(16 * n_targets * c_max)).cast("d")

    def put(self, c, hs):  # the H_c of every target at one c
        i = 2 * self.n * (c - 1)
        for h in hs:
            self.parts[i], self.parts[i + 1] = h.real, h.imag
            i += 2

    def row(self, i):
        step = 2 * self.n
        return map(complex, self.parts[2 * i::step], self.parts[2 * i + 1::step])

    def __getitem__(self, key):
        i = 2 * (key[1] * self.n + key[0])
        return complex(self.parts[i], self.parts[i + 1])


def _h_table(lattice, D, r, targets, c_max):
    """table[target, c - 1] = H_c(D, r, D', r') for c = 1..c_max; checked before the first recursion.

    Split c = c_g c_b with c_b | (2 det)^oo and c_g prime to 2 det.  By CRT on
    (d, lambda), H_c = e(beta(r', r)/c) K W: K is `_closed_form` at m = c_g,
    and W is `_bad_part` at the key (c_b, a), a = c_g^-1 mod c_b, formed once
    per key in order of first c and never where c_b = 1 (W = 1 there).  The
    leaf limit counts the Gauss-sum recursions of the distinct keys.  The
    closed form runs grouped by c_g, so its tables mod c_g are built once.
    """
    data = _sum_data(lattice, D, r, targets)
    split = [_split(c, 2 * lattice.det) for c in range(1, c_max + 1)]
    keys = dict.fromkeys((c_b, pow(c_g, -1, c_b)) for c_g, c_b in split if c_b > 1)
    _check_leaves(data, c_max, keys)
    for c_b, a in keys:
        keys[c_b, a] = _bad_part(data, c_b, a)
    closed_form = _closed_form(lattice, D, data, [Fraction(Dp) for Dp, _ in targets])
    p0s = [(p0.numerator, p0.denominator) for _, _, p0 in data.targets]
    distinct_p0s = set(p0s)
    table = _HTable(len(targets), c_max)
    by_m = {}
    for c_g, c_b in split:
        by_m.setdefault(c_g, []).append(c_b)
    for c_g, c_bs in by_m.items():
        k = closed_form(c_g)
        for c_b in c_bs:
            c = c_g * c_b
            phases = {p0: unit_phase_ratio(p0[0], p0[1] * c) for p0 in distinct_p0s}
            hs = [phases[p0] * z for z, p0 in zip(k(c_b), p0s)]
            table.put(c, [h * w for h, w in zip(hs, keys[c_b, pow(c_g, -1, c_b)])] if c_b > 1 else hs)
    return table


def h_series_terms(lattice, D, r, Dp, rp, k, c_max):
    """Yield (c, H_c + (-1)^k H_c(-r)) for c = 1..c_max, fast route.

    Uses conj(H(r)) = H(-r) (substitute (d, lambda) -> (-d, -lambda) in the
    defining sum).  H_c comes from the table of the enclosing `shared_targets`
    when (D', r') is one of its targets, else from a one-target table; either
    is checked against the leaf limit before its first recursion.
    """
    shared = _SHARED.get()
    if shared is None or (Dp, rp) not in shared.targets:
        row, table = 0, _h_table(lattice, D, r, [(Dp, rp)], c_max)
    else:
        key = (lattice, D, r, c_max)
        if shared.key != key:
            shared.key, shared.table = key, _h_table(lattice, D, r, shared.targets, c_max)
        row, table = shared.targets.index((Dp, rp)), shared.table
    sign = (-1) ** k
    for c, h in enumerate(table.row(row), 1):
        yield c, h + sign * h.conjugate()


# -- representation numbers -------------------------------------------------------

@dataclass(frozen=True)
class RepCountKey:
    """Arguments of R_b = #{lambda in (Z_b)^rank : beta(lambda + x) - D = 0 mod b}."""

    lattice: EvenLattice
    x: DiscElement
    D: Fraction
    b: int

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("modulus b must be positive")
        if self.D > 0 or not is_integral(self.x.beta_mod1 - self.D):
            raise ValueError("(D, x) must lie in supp(L)")


# A Hensel node lists its singular zeros, and at p = 2 walks (Z/2)^rank.  A
# node that would list or walk more than NODE_POINT_LIMIT points is refused
# before anything is allocated, so a request that cannot finish fails at once
# with its cost named; it is a constant, not a setting.
NODE_POINT_LIMIT = 10**7


def _check_node(p, what, size, noun):
    if size > NODE_POINT_LIMIT:
        raise ResourceLimitError(
            f"a Hensel node at p={p} {what} = {size} {noun}, over the limit of {NODE_POINT_LIMIT}"
        )


def _diagonalize_mod_p(gram, p):
    """Symmetric elimination of G mod an odd prime p.

    Returns (pivots, basis): with b_i the vectors of `basis`, b_i^t G b_j = 0
    mod p for i != j, b_i^t G b_i is the i-th pivot (nonzero) for i < len(pivots),
    and the vectors after the pivots span the radical of G mod p.
    """
    n = len(gram)
    a = [[v % p for v in row] for row in gram]
    basis = [[int(i == j) for j in range(n)] for i in range(n)]

    def add(i, j, f):  # b_i -> b_i + f b_j, as a congruence on a
        a[i] = [(x + f * y) % p for x, y in zip(a[i], a[j])]
        for row in a:
            row[i] = (row[i] + f * row[j]) % p
        basis[i] = [(x + f * y) % p for x, y in zip(basis[i], basis[j])]

    pivots = []
    for t in range(n):
        i = next((i for i in range(t, n) if a[i][i]), None)
        if i is None:
            pair = next(((i, j) for i in range(t, n) for j in range(i + 1, n) if a[i][j]), None)
            if pair is None:
                break
            i = pair[0]
            add(i, pair[1], 1)  # the new diagonal entry is 2 a_ij, nonzero at odd p
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[i] = row[i], row[t]
        basis[t], basis[i] = basis[i], basis[t]
        inv = pow(a[t][t], -1, p)
        for r in range(t + 1, n):
            if a[r][t]:
                add(r, t, -a[r][t] * inv % p)
        pivots.append(a[t][t])
    return pivots, basis


def _form_count(coeffs, m, p):
    """N_s(m) = #{y in (Z/p)^s : sum c_i y_i^2 = m} for nonzero c_i mod an odd prime p."""
    s = len(coeffs)
    if s == 0:
        return int(m % p == 0)
    disc = (-1) ** (s // 2) * math.prod(coeffs)
    if s % 2 == 0:
        return p ** (s - 1) + (p - 1 if m % p == 0 else -1) * p ** (s // 2 - 1) * kronecker(disc, p)
    return p ** (s - 1) + p ** ((s - 1) // 2) * kronecker(disc * m, p)


def _odd_node(gram, p, g, n):
    """(number of zeros of Q mod an odd prime p, singular zeros) for Q(lambda) =
    beta(lambda) + g.lambda + n, g and n reduced mod p; the singular zeros are
    lambda0 + R, given as (lambda0, basis of R), or None when there are none.

    In closed form from a symmetric elimination of G mod p with radical R of
    dimension k.  If g is not in im G = R^perp, Q is a nonconstant linear
    function along some v in R, so each line in that direction holds one zero
    and none is singular: p^(rank-1).  Otherwise G lambda0 = -g and
    Q(lambda0 + mu) = beta(mu) - m with m = -Q(lambda0); beta is the form
    sum (pivot_i / 2) y_i^2 of rank s = rank - k plus zero on R, so there are
    p^k N_s(m) zeros, and the singular ones, grad Q = G mu = 0, are
    lambda0 + R when m = 0 and none otherwise.
    """
    rank = len(gram)
    pivots, basis = _diagonalize_mod_p(gram, p)
    s = len(pivots)
    h = [sum(a * b for a, b in zip(vec, g)) % p for vec in basis]
    if any(h[s:]):
        return p ** (rank - 1), None
    y = [-hi * pow(piv, -1, p) % p for hi, piv in zip(h, pivots)]
    lam0 = [sum(yi * vec[j] for yi, vec in zip(y, basis)) % p for j in range(rank)]
    m = -(_int_beta(gram, lam0) + sum(a * b for a, b in zip(g, lam0)) + n) % p
    half = pow(2, -1, p)
    total = p ** (rank - s) * _form_count([piv * half % p for piv in pivots], m, p)
    return total, None if m else (lam0, basis[s:])


@lru_cache(maxsize=4096)
def _zeros_mod_p(gram, p, g, n):
    """Zeros of Q(lambda) = beta(lambda) + g.lambda + n on (Z/p)^rank.

    g and n are reduced mod p.  Returns (number of nonsingular zeros, tuple of
    the singular ones in lexicographic order), a zero being singular when
    grad Q = G lambda + g = 0 mod p.  At odd p from `_odd_node`; at p = 2,
    where beta does not diagonalise, the node walks (Z/2)^rank.
    """
    rank = len(gram)
    if p == 2:
        _check_node(p, f"walks 2^rank = 2^{rank}", 2**rank, "points")
        nonsingular, singular = 0, []
        for lam in product((0, 1), repeat=rank):
            if (_int_beta(gram, lam) + sum(a * b for a, b in zip(g, lam)) + n) % 2:
                continue
            if any((sum(gij * v for gij, v in zip(row, lam)) + gi) % 2 for row, gi in zip(gram, g)):
                nonsingular += 1
            else:
                singular.append(lam)
        return nonsingular, tuple(singular)
    total, coset = _odd_node(gram, p, g, n)
    if coset is None:
        return total, ()
    lam0, radical = coset
    _check_node(p, f"lists p^k = {p}^{len(radical)}", p ** len(radical), "singular zeros")
    singular = sorted(
        tuple((l0 + sum(t * vec[j] for t, vec in zip(ts, radical))) % p for j, l0 in enumerate(lam0))
        for ts in product(range(p), repeat=len(radical))
    )
    return total - len(singular), tuple(singular)


def _zero_count_mod_p(gram, p, g, n):
    """#{lambda mod p : Q(lambda) = 0}, singular zeros included but never listed at odd p."""
    if p == 2:
        nonsingular, singular = _zeros_mod_p(gram, p, g, n)
        return nonsingular + len(singular)
    return _odd_node(gram, p, g, n)[0]


@lru_cache(maxsize=1 << 16)
def _hensel_count(gram, p, g, n, e):
    """#{lambda mod p^e : beta(lambda) + g.lambda + n = 0 mod p^e}, g and n reduced mod p^e.

    With Q(lambda0 + p mu) = Q(lambda0) + p grad Q(lambda0).mu + p^2 beta(mu)
    (exact, beta integral on L), a zero lambda0 mod p is counted as:
    nonsingular -> p^((e-1)(rank-1)) lifts; singular at e = 1 -> 1, so e = 1
    is the count of zeros mod p and lists none; singular with p^2 | Q(lambda0)
    -> p^rank times the count of the reduced form (grad/p, Q/p^2) mod p^(e-2);
    any other singular zero -> none.
    """
    if e == 0:
        return 1
    if e == 1:
        return _zero_count_mod_p(gram, p, tuple(v % p for v in g), n % p)
    rank = len(gram)
    nonsingular, singular = _zeros_mod_p(gram, p, tuple(v % p for v in g), n % p)
    total = nonsingular * p ** ((e - 1) * (rank - 1))
    sub = p ** (e - 2)
    for lam in singular:
        value = _int_beta(gram, lam) + sum(a * b for a, b in zip(g, lam)) + n
        if value % (p * p):
            continue
        grad = (sum(gij * v for gij, v in zip(row, lam)) + gi for row, gi in zip(gram, g))
        total += p**rank * _hensel_count(
            gram, p, tuple(v // p % sub for v in grad), value // (p * p) % sub, e - 2
        )
    return total


def _prime_power_counts(lattice, x, D):
    """(p, e) -> R_{p^e} for Q(lambda) = beta(lambda + x) - D, by `_hensel_count`."""
    # Q(lambda) = beta(lambda) + (G x).lambda + beta(x) - D
    gx = tuple(int(v) for v in lattice.gram_times(x.rep))
    n = int(lattice.beta(x.rep) - D)

    def count(p, e):
        q = p**e
        return _hensel_count(lattice.gram, p, tuple(v % q for v in gx), n % q, e)

    return count


def rep_count(key):
    """R_b: the CRT product over p^e || b of Hensel counts, memoized per prime power."""
    count = _prime_power_counts(key.lattice, key.x, key.D)
    return math.prod(count(p, e) for p, e in factorize(key.b))


def _d_tilde(x, D):
    dt = Fraction(D) * x.order**2
    assert is_integral(dt)
    return int(dt)


def _ord_p(n, p):
    n = abs(int(n))
    e = 0
    while n and n % p == 0:
        n //= p
        e += 1
    return e


@lru_cache(maxsize=4096)
def _stable_profile(lattice, x, D, p):
    """(w_p, [R_{p^0}, ..., R_{p^{w_p}}]) with the stabilization check enforced.

    w_p starts at max(1, 1 + 2 ord_p(2 * Dtilde)) and is raised until
    R_{p^{w+1}} = p^{rank-1} R_{p^w}, by at most 4 steps.
    """
    dt = _d_tilde(x, D)
    w = max(1, 1 + 2 * _ord_p(2 * dt, p))
    cap = w + _STABILIZATION_CAP
    counts = [rep_count(RepCountKey(lattice, x, Fraction(D), p**l)) for l in range(w + 2)]
    while counts[w + 1] != p ** (lattice.rank - 1) * counts[w]:
        w += 1
        if w > cap:
            raise StabilizationFailureError(
                f"representation numbers at p={p} fail to stabilize by w={cap}"
            )
        counts.append(rep_count(RepCountKey(lattice, x, Fraction(D), p ** (w + 1))))
    return w, tuple(counts[: w + 1])


def local_factor(lattice, x, D, p, s):
    """Local Euler factor L~_p(s) of the representation-number Dirichlet series.

    L~_p(s) = p^{-w s} R_{p^w} + (1 - p^{-(s - rank + 1)}) sum_{l < w} p^{-l s} R_{p^l},
    as an exact rational.
    """
    if s < 1:
        raise ValueError("s must be a positive integer")
    if Fraction(D) >= 0:
        raise ValueError("local_factor needs D < 0")
    w, counts = _stable_profile(lattice, x, D, p)
    total = Fraction(p) ** (-w * s) * counts[w]
    partial = sum(Fraction(p) ** (-l * s) * counts[l] for l in range(w))
    total += (1 - Fraction(p) ** (lattice.rank - 1 - s)) * partial
    return total


def good_prime_factor(lattice, x, D, p, s):
    """Closed form of L~_p(s) at a good prime p (p not dividing 2 Dtilde det).

    Even rank:  1 - chi_Delta(p) p^{-(s - rank/2 + 1)}.
    Odd rank:   (1 - p^{-(2s - rank + 1)}) / (1 - chi(p) p^{-(s - (rank-1)/2)})
    with chi = (Dtilde * Delta / .); both as exact rationals.
    """
    rank = lattice.rank
    dt = _d_tilde(x, D)
    if (2 * dt * lattice.det) % p == 0:
        raise ValueError(f"p={p} is a bad prime here")
    if rank % 2 == 0:
        chi = kronecker(lattice.delta, p)
        return 1 - chi * Fraction(p) ** (-(s - rank // 2 + 1))
    chi = kronecker(dt * lattice.delta, p)
    num = 1 - Fraction(p) ** (-(2 * s - rank + 1))
    den = 1 - chi * Fraction(p) ** (-(s - (rank - 1) // 2))
    return num / den


@lru_cache(maxsize=64)
def _spf_sieve(limit):
    """Smallest prime factor of each 2 <= n <= limit, as a list indexed by n."""
    spf = list(range(limit + 1))
    root = math.isqrt(limit)
    small = [p for p in range(2, root + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for p in reversed(small):  # a smaller prime overwrites a larger one
        spf[p * p::p] = [p] * len(range(p * p, limit + 1, p))
    return spf


def dirichlet_series_partial(lattice, x, D, s, B):
    """Truncated Dirichlet series sum_{b <= B} R_b / b^s (float).

    R_b is assembled multiplicatively from the prime-power counts of
    `rep_count` (CRT), each taken once per call.
    """
    if s <= lattice.rank + 0.5:
        raise ValueError(f"s = {s} is too close to the abscissa rank = {lattice.rank}")
    B = int(B)
    if B < 1:
        raise ValueError("B must be positive")
    spf = _spf_sieve(max(B, 2))
    prime_power = cache(_prime_power_counts(lattice, x, Fraction(D)))

    total = 1.0  # b = 1 term
    for b in range(2, B + 1):
        rb = 1
        n = b
        while n > 1:
            p = spf[n]
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            rb *= prime_power(p, e)
            if rb == 0:
                break
        if rb:
            total += rb * float(b) ** (-s)
    return total


def bad_primes(lattice, x, D):
    """Primes dividing 2 * Dtilde * det, ascending."""
    dt = _d_tilde(x, D)
    return [p for p, _ in factorize(abs(2 * dt * lattice.det))]
