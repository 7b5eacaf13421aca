"""Exponential sums: the Poincare/Eisenstein lattice sums H_c for a whole
expansion, as one product of local factors, one per prime power of c.

CRT on (d, lambda) splits the series route, `_h_table`, into
  H_c = e(beta(r', r)/c) prod_{q = p^e || c} F_q(b_q),   b_q = (c/q)^-1 mod q,
  F_q(b) = sum_{V in (Z/q)*} e((V n0 + m b^2 V^-1)/q) S(V, V G r + b G r'; q),
with n0 = beta(r) - D, m = beta(r') - D' and S(U, h; q) the quadratic Gauss
sum of U beta(lambda) + h.lambda over lambda mod q.  At p prime to 2 det the
square completes, and F_q is a Gauss-sum constant and a phase times a Salie
sum (odd rank) or Kloosterman sum (even rank) mod q: a Ramanujan sum or its
twist by (d/p) where D or D' is 0 mod q, as at every Eisenstein coefficient
(`_good_part`, `_prime_power_sum`).  At p | 2 det, F_q is summed over the
units of q, each Gauss sum reduced two powers of p at a time onto the
solutions of U G lambda = -h mod p (`_gauss_sum`, on `modp.mod_p_node`, the
node mod p that the Hensel counts of `repcounts` read too), once per
class of keys (q, b) (`_bad_part`): F_q(b) depends on b only through
(b^2 n0 mod q, b G r mod q), so at D = 0 and r = 0, as on every trivial
Eisenstein series, each q is one class.  The leaves of the classes are
counted against H_LEAF_LIMIT before the first.  Within one expansion (D, r)
is fixed, so inside `shared_targets` one table z[target, c] serves every
target (D', r') of the expansion, and each coefficient's c-sum reads its
row, found by a dict; a lone coefficient is the one-target case.  The pair (D, r) and every
target are checked and reduced to beta(r) - D and G r by
`lattice.support_data`, the test the counts of `repcounts` use too, and
beta(r', r) is read as r'.(G r).  Everything here runs in Python ints and
complexes.  The definitional route and the walk of (Z/c)^rank, against
which the tests assert this one, are in `oracles`.
"""

import math
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache
from operator import mul

from ._record import Frozen, Record
from .errors import ResourceLimitError
from .lattice import support_data
from .modp import _int_beta, mod_p_node
from .numbertheory import factorize, kronecker, sqrt_mod
from .rationals import phase_table, unit_phase_ratio


def __getattr__(name):
    # the counts moved to `repcounts`; perfbench/traced_cli.py still reads these
    # two here, and the module loads only when one is read
    if name in ("rep_count", "local_factor"):
        from . import repcounts
        return getattr(repcounts, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- shared precomputation -------------------------------------------------------

class _SumData(Frozen):
    """Integer data of the exponents of H_{L,c}(D, r, D', r') for one (D, r) and
    a list of targets (D', r'): gram, rank, n0 = beta(r) - D, gx = G r
    (integral), gps = the distinct G r' (integral) among the targets, per
    target (index of its G r' in gps, beta(r') - D', beta(r', r)), and, for the
    closed form at primes not dividing 2 det, den = N, the common denominator
    of D, the D' and the beta(r', r), nd = N D and per target (N D', N beta(r', r)).
    `_sum_data` builds it, each pair checked and reduced by `lattice.support_data`."""

    _fields = ("gram", "rank", "n0", "gx", "gps", "targets", "den", "nd", "scaled")

    def n1(self, lam):
        """beta(lambda + r) - D for an integer vector lambda."""
        return _int_beta(self.gram, lam) + sum(g * v for g, v in zip(self.gx, lam)) + self.n0

    def pint(self, lam):
        """Integer part of beta(r', lambda + r): (G r') . lambda, for the first target."""
        return sum(g * v for g, v in zip(self.gps[0], lam))


def _sum_data(lattice, D, r, targets):
    _, n0, gx = support_data(lattice, D, r)
    gps, rows = {}, []
    for Dp, rp in targets:
        rpv, m, gp = support_data(lattice, Dp, rp)
        # beta(r', r) = r' . (G r)
        rows.append((gps.setdefault(gp, len(gps)), m, sum(map(mul, rpv, gx), Fraction(0))))
    dps = [Fraction(Dp) for Dp, _ in targets]
    den = math.lcm(*(v.denominator for v in [Fraction(D), *dps, *(p0 for _, _, p0 in rows)]))
    return _SumData(gram=lattice.gram, rank=lattice.rank, n0=n0, gx=gx, gps=tuple(gps),
                    targets=tuple(rows), den=den, nd=int(D * den),
                    scaled=tuple((int(Dp * den), int(p0 * den)) for Dp, (_, _, p0) in zip(dps, rows)))


def _units(c):
    return [d for d in range(1, c + 1) if math.gcd(d, c) == 1] if c > 1 else [1]


# -- the series table -----------------------------------------------------------

class _Shared(Record):
    """The targets of one expansion, the row of each, and once built their table
    and its (lattice, D, r, c_max)."""

    _fields = ("targets", "rows", "key", "table")
    _defaults = {"key": None, "table": None}


_SHARED = ContextVar("expsums_shared_targets", default=None)


@contextmanager
def shared_targets(targets):
    """Within the block, h_series_terms at any (D', r') of `targets` reads H_c
    from one table z[target, c] for all of them, built at the first term with
    one Gauss-sum recursion per class of keys (q, b) of `_h_table` and dropped
    on exit."""
    targets = tuple(targets)
    token = _SHARED.set(_Shared(targets, {t: i for i, t in enumerate(targets)}))
    try:
        yield
    finally:
        _SHARED.reset(token)


# The recursion of `_gauss_sum` ends in at most p^(k floor(e/2)) leaves at a
# prime power q = p^e, k the dimension of the radical of G mod p.  `_h_table`
# runs it per class of keys (q, b) with p | 2 det, unit of q and distinct
# G r', and refuses a table whose leaves per G r' would exceed H_LEAF_LIMIT
# before its first recursion, naming the count.  It is a constant, not a setting.  On the
# trivial series (one class per q) at c_max = 1000 the bound is 5.1e2 leaves on
# E8 (k = 0), 7.0e3 on A3 (k = 1), 1.0e5 on D4 (k = 2), 1.6e6 on A1^3 (k = 3),
# 2.6e7 on 2 D4 (k = 4) and 1.7e12 on 2 E8 (k = 8); the memo of the subsums
# keeps the work well below it.
H_LEAF_LIMIT = 10**7


def _gauss_sum(gram, p, e, U, h):
    """S(U, h; p^e) = sum over lambda mod p^e of e((U beta(lambda) + h.lambda)/p^e).

    U is a unit and U, h are reduced mod p^e.  With lambda = lambda1 + p mu,
    Q(lambda) = U beta(lambda) + h.lambda and grad = U G lambda1 + h,
      Q(lambda1 + p mu) = Q(lambda1) + p grad.mu + p^2 U beta(mu)
    (exact, beta integral on L).  The sum over mu mod p^(e-1) vanishes unless
    grad = 0 mod p; then splitting mu once more, mod p^(e-2) and along p^(e-2),
    leaves p^rank S(U, grad/p; p^(e-2)).  So for e >= 2
      S = p^rank sum_{lambda1 mod p, grad = 0 mod p} e(Q(lambda1)/p^e) S(U, grad/p; p^(e-2)),
    one level of `modp.mod_p_node` per two powers of p, whose solve(U^-1 h)
    lists the lambda1, down to e = 0 (S = 1) or its leaf at e = 1.
    """
    if e == 0:
        return 1
    node = mod_p_node(gram, p)
    if e == 1:
        return node.leaf(U, h)
    q, sub = p**e, p ** (e - 2)
    roots = phase_table(q)
    ubar = pow(U, -1, p)
    total = 0j
    for lam, beta, glam in node.solve(tuple([ubar * v % p for v in h])):
        value = U * beta + sum(map(mul, h, lam))
        total += roots[value % q] * _subsum(
            gram, p, e - 2, U % sub, tuple([(U * g + hi) // p % sub for g, hi in zip(glam, h)]))
    return p ** len(gram) * total


# A top-level S is met about once per unit and G r', its subsums again and again
# across units, keys and targets: only the subsums are memoized, so the memo
# does not grow with the units times the classes r' of an expansion.
_subsum = lru_cache(maxsize=1 << 16)(_gauss_sum)


def _check_leaves(data, c_max, keys):
    leaves = 0
    for q, _ in keys:
        (p, e), = factorize(q)
        leaves += (q - q // p) * p ** (mod_p_node(data.gram, p).k * (e // 2))
    if leaves > H_LEAF_LIMIT:
        raise ResourceLimitError(
            f"H_c for c <= {c_max} sums (Z/q)^{data.rank} as Gauss sums per class of keys "
            f"(q, (c/q)^-1 mod q), q = p^e || c with p | 2 det, and unit of q: {len(keys)} classes, "
            f"{leaves} leaves per G r', over the limit of {H_LEAF_LIMIT}")


def _bad_part(data, q, b):
    """F_q(b) at every target of data, at a prime power q = p^e with p | 2 det.

    F_q(b) = sum over d in (Z/q)* and lambda mod q of
    e(b (n1(lambda) d^-1 + m d + pint(lambda)) / q), m = beta(r') - D'.
    With u = d^-1, V = u b^2 and h = V G r + b G r' the exponent is
    V beta(lambda) + h.lambda + V n0 + m u^-1, so
      F_q(b) = sum_u e((V n0 + m u^-1)/q) S(V, h; q).
    The Gauss sums depend on the target only through G r', so they are formed
    once per unit and distinct G r'.  Substituting lambda -> b^-1 lambda,
    S(u b^2, u b^2 G r + b G r'; q) = S(u, u (b G r) + G r'; q), so F_q(b)
    depends on b only through its class (b^2 n0 mod q, b G r mod q), and
    `_h_table` calls this once per class, at its first b.
    """
    (p, e), = factorize(q)
    bgps = [[b * y for y in gp] for gp in data.gps]
    roots = phase_table(q)
    out = [0j] * len(data.targets)
    for u in _units(q):
        V = u * b * b % q
        ubar = pow(u, -1, q)
        sums = [_gauss_sum(data.gram, p, e, V, tuple([(V * x + y) % q for x, y in zip(data.gx, bgp)]))
                for bgp in bgps]
        phase = V * data.n0
        for i, (g, m, _) in enumerate(data.targets):
            out[i] += roots[(phase + m * ubar) % q] * sums[g]
    return out


def _prime_power_sum(p, e, x, t, odd):
    """S_q(x, t) = sum_{d in (Z/q)*} chi(d) e((x d + t d^-1)/q) at q = p^e, chi = (d/p)^e (odd) or 1.

    Where x or t is 0 mod q, d -> d^-1 leaves sum_d chi(d) e(y d/q), y the
    other argument: at chi = 1 the Ramanujan sum c_q(y), phi(q) if q | y,
    -p^(e-1) if p^(e-1) || y, else 0; at chi = (d/p), odd e, 0 unless
    p^(e-1) | y, and then p^(e-1) ((y/p^(e-1))/p) g_p, with g_p = sqrt(p) or
    i sqrt(p) as p = 1 or 3 mod 4.  Elsewhere, where chi is the Jacobi symbol
    (d/q), at odd rank or even e, and p does not divide t, Salie's evaluation
    (Iwaniec, Topics in Classical Automorphic Forms, ch. 4) gives
    S_q = eps_q sqrt(q) (t/q) sum_{y^2 = x t mod q} e(2y/q), eps_q = 1 or i as
    q = 1 or 3 mod 4; d -> d^-1 keeps (d/q) and swaps x and t, so p | t with p
    not dividing x is the same sum.  The y-sum is e(2y/q) + e(-2y/q) over the
    roots +-y of a square unit x t, 0 at a non-square, and 0 at p | x (then
    e >= 2, and the roots fill whole cosets of p^(e - v/2) Z, p^v || x t).  The
    other cases, a Kloosterman sum at odd e and even rank and p | gcd(x, t),
    are summed over the phi(q) units with the phases of `phase_table`.
    """
    q = p**e
    if x % q == 0 or t % q == 0:
        y, low = (x + t) % q, p ** (e - 1)  # the other argument, or 0 if both are
        if y % low:
            return 0
        if odd and e % 2:
            return low * kronecker(y // low, p) * math.sqrt(p) * (1j if p % 4 == 3 else 1)
        return q - low if y == 0 else -low
    if (odd or e % 2 == 0) and (t % p or x % p):
        if t % p == 0:
            x, t = t, x
        if x % p == 0:
            return 0
        scale = (1 if q % 4 == 1 else 1j) * math.sqrt(q) * kronecker(t, p) ** e
        y = sqrt_mod(x * t, p, e)
        return 0 if y is None else scale * (unit_phase_ratio(2 * y, q) + unit_phase_ratio(-2 * y, q))
    roots = phase_table(q)
    return sum((kronecker(d, p) ** e if odd else 1) * roots[(x * d + t * pow(d, -1, q)) % q]
               for d in range(1, q) if d % p)


# S_q with neither argument 0 mod q recurs across c and across targets that
# share D', so it is memoized; where one is 0 it does not depend on b and is
# formed once per q and target (`_good_constants`), and at D = 0, as at every
# Eisenstein c, nothing is stored.
_prime_power_memo = lru_cache(maxsize=1 << 14)(_prime_power_sum)


def _good_constants(data, det, p, e):
    """The per-q constants of `_good_part` at q = p^e: the Gauss-sum scale g_q,
    N^-1 mod q, -D mod q and, per target, S_q(-D, -b^2 D') where it does not
    depend on b, else None.

    Where D or D' is 0 mod q, S_q is a Ramanujan sum or its twist by (d/p) of
    the other argument, which b^2, a square unit, changes neither in its
    p-adic valuation nor in its residue symbol mod p.
    """
    rank, q = data.rank, p**e
    eps = (1, 1j, -1, -1j)[rank % 4] if q % 4 == 3 else 1
    scale = eps * kronecker(det << rank, q) * q ** (rank / 2)  # (det/q) (2/q)^n = (2^n det/q)
    ninv = pow(data.den, -1, q)
    x = -data.nd * ninv % q  # -D mod q
    fixed = []
    for ndp, _ in data.scaled:
        t = -ndp * ninv % q
        fixed.append(_prime_power_sum(p, e, x, t, rank % 2) if x == 0 or t == 0 else None)
    return scale, ninv, x, fixed


def _good_part(data, p, e, b, constants):
    """F_q(b) at every target of data, at a prime power q = p^e prime to 2 det.

    Here L/qL = L#/qL#, so lambda -> lambda - r - b V^-1 r' completes the square:
    S(V, V G r + b G r'; q) = (V/q)^n g_q e(-V beta(r + b V^-1 r')/q), n the
    rank, with g_q = eps_q^n q^(n/2) (det/q) (2/q)^n the Gauss sum of beta
    mod q (the product of the one-dimensional ones over a diagonalization),
    eps_q = 1 or i as q = 1 or 3 mod 4.  As beta(r) - n0 = D and beta(r') - m = D',
      F_q(b) = g_q e(-b beta(r, r')/q) S_q(-D, -b^2 D'),
    S_q the sum of `_prime_power_sum`, with D, D' and beta(r, r') read mod q
    through their common denominator N, which is prime to q.  `constants` is
    what `_good_constants` forms once per q; S_q is summed here, memoized,
    only where neither D nor D' is 0 mod q.
    """
    q = p**e
    scale, ninv, x, fixed = constants
    odd = data.rank % 2
    out = []
    for (ndp, np0), z in zip(data.scaled, fixed):
        if z is None:
            z = _prime_power_memo(p, e, x, -b * b * ndp * ninv % q, odd)
        out.append(scale * unit_phase_ratio(-b * np0 * ninv, q) * z)
    return out


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

    H_c = e(beta(r', r)/c) prod_{q = p^e || c} F_q(b_q), b_q = (c/q)^-1 mod q,
    since 1/c = sum_q b_q/q mod 1.  At p | 2 det, F_q is `_bad_part`, formed
    once per class (q, b^2 n0 mod q, b G r mod q) of keys (q, b), at its first
    b in order of first c, after the leaf limit has counted the Gauss-sum
    recursions of every class; elsewhere it is `_good_part`, per c, with its
    constants formed once per q.
    """
    data = _sum_data(lattice, D, r, targets)
    bad = 2 * lattice.det
    local = [[(p, e, p**e, pow(c // p**e, -1, p**e)) for p, e in factorize(c)]
             for c in range(1, c_max + 1)]
    keys, firsts, constants = {}, {}, {}
    for factors in local:
        for p, e, q, b in factors:
            if bad % p:
                if q not in constants:
                    constants[q] = _good_constants(data, lattice.det, p, e)
            elif (q, b) not in keys:
                cls = (q, b * b * data.n0 % q, tuple([b * g % q for g in data.gx]))
                keys[q, b] = firsts.setdefault(cls, (q, b))
    _check_leaves(data, c_max, firsts.values())
    parts = {key: _bad_part(data, *key) for key in firsts.values()}
    p0s = [(p0.numerator, p0.denominator) for _, _, p0 in data.targets]
    distinct_p0s = set(p0s)
    table = _HTable(len(targets), c_max)
    for c, factors in enumerate(local, 1):
        phases = {p0: unit_phase_ratio(p0[0], p0[1] * c) for p0 in distinct_p0s}
        hs = [phases[p0] for p0 in p0s]
        for p, e, q, b in factors:
            part = parts[keys[q, b]] if bad % p == 0 else _good_part(data, p, e, b, constants[q])
            hs = list(map(mul, hs, part))
        table.put(c, hs)
    return table


def h_series_terms(lattice, D, r, Dp, rp, k, c_max):
    """Yield (c, H_c + (-1)^k H_c(-r)) for c = 1..c_max, fast route.

    Uses conj(H(r)) = H(-r) (substitute (d, lambda) -> (-d, -lambda) in the
    defining sum).  H_c comes from the table of the enclosing `shared_targets`
    when (D', r') is one of its targets, else from a one-target table; either
    is checked against the leaf limit before its first recursion.
    """
    shared = _SHARED.get()
    row = None if shared is None else shared.rows.get((Dp, rp))
    if row is None:
        row, table = 0, _h_table(lattice, D, r, [(Dp, rp)], c_max)
    else:
        key = (lattice, D, r, c_max)
        if shared.key != key:
            shared.key, shared.table = key, _h_table(lattice, D, r, shared.targets, c_max)
        table = shared.table
    sign = (-1) ** k
    for c, h in enumerate(table.row(row), 1):
        yield c, h + sign * h.conjugate()
