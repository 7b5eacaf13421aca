"""Exponential sums: the Poincare/Eisenstein lattice sums H_c for a whole
expansion, from Kloosterman, Salie, Ramanujan and quadratic Gauss sums.

The series route, `_h_table`, splits c = c_g c_b by CRT, c_b made of the
primes of 2 det and c_g prime to it: H_c = e(beta(r', r)/c) K W.  K is a
Kloosterman sum (even rank) or Salie sum (odd rank) mod c_g in closed form
from the Weil representation; where D = 0 mod c_g, as at every Eisenstein
coefficient, its d-sum is a Ramanujan sum or its twist by the Jacobi symbol,
and elsewhere a CRT product of sums mod the prime powers of c_g, by Salie's
evaluation or over the units.  W is a sum over the units of c_b of quadratic
Gauss sums S(U, h; p^e), one per prime power of c_b, each reduced two powers
of p at a time onto the solutions of U G lambda = -h mod p (`_gauss_sum`, on
`modp.mod_p_node`, the node mod p that the Hensel counts of `repcounts`
read too), once per distinct key (c_b, c_g^-1 mod c_b); its leaves are
counted against H_LEAF_LIMIT before the first.  Within one expansion (D, r)
is fixed, so inside `shared_targets` one table z[target, c] serves every
target (D', r') of the expansion, and each coefficient's c-sum reads its
row, found by a dict; a lone coefficient is the one-target case.  The pair
(D, r) and every target are checked and reduced to beta(r) - D and G r by
`lattice.support_data`, the test the counts of `repcounts` use too, and
beta(r', r) is read as r'.(G r).  Everything here runs in
Python ints and complexes.  The definitional route and the walk of
(Z/c)^rank, against which the tests assert this one, are in `oracles`.
"""

import math
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import cache, lru_cache
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
    (integral), gps = the distinct G r' (integral) among the targets, and per
    target (index of its G r' in gps, beta(r') - D', beta(r', r)).  `_sum_data`
    builds it, each pair checked and reduced by `lattice.support_data`."""

    _fields = ("gram", "rank", "n0", "gx", "gps", "targets")

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
    return _SumData(gram=lattice.gram, rank=lattice.rank, n0=n0, gx=gx, gps=tuple(gps),
                    targets=tuple(rows))


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
    one Gauss-sum recursion per key (c_b, a') of `_h_table` and dropped on exit."""
    targets = tuple(targets)
    token = _SHARED.set(_Shared(targets, {t: i for i, t in enumerate(targets)}))
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
    ks = {p: mod_p_node(data.gram, p).k for c_b, _ in keys for p, _ in factorize(c_b)}
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
    roots = phase_table(c_b)
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


def _prime_power_sum(p, e, x, t, odd):
    """S_q(x, t) = sum_{d in (Z/q)*} chi(d) e((x d + t d^-1)/q) at q = p^e, chi = (d/p)^e (odd) or 1.

    Where chi is the Jacobi symbol (d/q), at odd rank or even e, and p does not
    divide t, Salie's evaluation (Iwaniec, Topics in Classical Automorphic
    Forms, ch. 4) gives S_q = eps_q sqrt(q) (t/q) sum_{y^2 = x t mod q} e(2y/q),
    eps_q = 1 or i as q = 1 or 3 mod 4; d -> d^-1 keeps (d/q) and swaps x and
    t, so p | t with p not dividing x is the same sum.  The y-sum is
    e(2y/q) + e(-2y/q) over the roots +-y of a square unit x t, 0 at a
    non-square, and at p | x 1 at e = 1 (y = 0) and 0 at e >= 2 (the roots
    fill whole cosets of p^(e - v/2) Z, p^v || x t).  The other cases, a
    Kloosterman sum at odd e and even rank and p | gcd(x, t), are summed over
    the phi(q) units with the phases of `phase_table`.
    """
    q = p**e
    if (odd or e % 2 == 0) and (t % p or x % p):
        if t % p == 0:
            x, t = t, x
        scale = (1 if q % 4 == 1 else 1j) * math.sqrt(q) * kronecker(t, p) ** e
        if x % p == 0:
            return scale if e == 1 else 0
        y = sqrt_mod(x * t, p, e)
        return 0 if y is None else scale * (unit_phase_ratio(2 * y, q) + unit_phase_ratio(-2 * y, q))
    roots = phase_table(q)
    return sum((kronecker(d, p) ** e if odd else 1) * roots[(x * d + t * pow(d, -1, q)) % q]
               for d in range(1, q) if d % p)


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
    Elsewhere the d-sum F_t(x) = sum_d (d/m)^n e((x d + t d^-1)/m), at
    x = -a N D' and t = -a N D mod m, splits by CRT into
    prod_{q = p^e || m} S_q(w_q x, w_q t), w_q = (m/q)^-1 mod q, each
    `_prime_power_sum` memoized on (q, x mod q, t mod q) for this call only.
    """
    rank, det, n_targets = lattice.rank, lattice.det, len(dps)
    p0s = [p0 for _, _, p0 in data.targets]
    big_n = math.lcm(*(q.denominator for q in [Fraction(D), *dps, *p0s]))
    nd = int(D * big_n)
    ndp = [int(q * big_n) for q in dps]
    np0 = [int(q * big_n) for q in p0s]
    local = cache(lambda p, e, x, t: _prime_power_sum(p, e, x, t, rank % 2))

    def at(m):
        if m == 1:
            return lambda c_b: [1 + 0j] * n_targets
        factors = factorize(m)
        eps = (1, 1j, -1, -1j)[rank % 4] if m % 4 == 3 else 1
        scale = eps * kronecker(det, m) * kronecker(2, m) ** rank * m ** (rank / 2)
        parts = [(p, e, p**e, pow(m // p**e, -1, p**e)) for p, e in factors]

        def k(c_b):
            s = m - pow(c_b * big_n, -1, m)  # -a / N mod m
            t = s * nd % m
            sign = kronecker(c_b, m) if rank % 2 else 1
            if t == 0:
                return [(sign * scale) * unit_phase_ratio(s * v, m) * _unit_sum(m, factors, s * w % m, rank % 2)
                        for v, w in zip(np0, ndp)]
            return [(sign * scale) * unit_phase_ratio(s * v, m)
                    * math.prod(local(p, e, w * s * x % q, w * t % q) for p, e, q, w in parts)
                    for v, x in zip(np0, ndp)]

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
    closed form runs grouped by c_g, so its set-up mod c_g is done once.
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
