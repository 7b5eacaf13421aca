"""Independent oracles used by the tests.

Nothing here reuses the coefficient pipelines it checks: the Cohen-style class
number oracle goes through L-values and divisor sums only, the even unimodular
oracle uses J_{k,L} = M_{k-rank/2}, the brute-force coset count walks a plain
integer box, the representation-number oracle evaluates the quadratic
polynomial at every point of (Z/b)^rank, the Hensel-node oracle does the same with the gradient on
(Z/p)^rank in place of the closed form, the node oracle lists the solutions of
G lambda + h = 0 and sums the Gauss sum S(U, h; p) over the same walk, the
Poincare oracle sums the defining series on a (tau, z) grid and Fourier-inverts
it, the lattice-invariants oracle reads det off Bareiss with row swaps and
the level off a Gauss-Jordan inverse in Fractions in place of the Smith form,
the Gauss-sum oracle reduces S(U, h; p^e) two powers of p at a time onto the
coset of the node mod p (`mod_p_coset`, the Jordan splitting reduced mod p),
down to the walk of (Z/p)^rank, in place of the closed form over the Jordan
splitting, the prime-power count oracle runs the Hensel recursion over the
zeros mod p of the same walk and the singular zeros of that coset, in place of
the unit sums, the local-factor oracle sums F_q(b) of H_c over the units V and lambda mod q
in place of the closed forms, and the walk keys of
the H_c table are read off the factorization of each c.  The Weil-representation oracles build rho(T),
rho(S) and sigma_x entry by entry from Fraction pairings of the coset
representatives, the word oracle multiplies the rho(T) and rho(S) matrices
in numpy, the averaging oracle adds the sigma_x as dense complex128
arrays and divides by N^2, and the case-formula oracle is the order-2/3/4/6
case analysis of the averaging identity, each in place of the integer
discriminant form, the gather from one column, the sparse sum and the Moebius relation.  The L-value oracle sums one Bernoulli
polynomial per residue in Fractions, in place of the integer power sums, and
the Bernoulli oracle runs the defining recurrence of B_n in place of the
tangent numbers.  The rep-document oracle lays a matrix out the way the CLI once built it, as
{"re", "im"} dicts through json.dumps, in place of the streamed row renderer.
"""

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul
from types import SimpleNamespace

import numpy as np

from jacobiforms import (
    QuadChar,
    dirichlet_L_nonpositive,
    moebius,
    rho_generator,
    schrodinger_matrix,
    trivial_coefficient_exact,
)
from jacobiforms.errors import DegenerateError, NotPositiveDefiniteError
from jacobiforms.modp import _mod, jordan_splitting
from jacobiforms.numbertheory import bernoulli, factorize
from jacobiforms.rationals import frac1, is_integral, phase_table, unit_phase


@lru_cache(maxsize=None)
def bernoulli_by_recurrence(n):
    """B_n from sum_{j <= n} C(n+1, j) B_j = 0 (so B_1 = -1/2), in Fractions."""
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2:
        return Fraction(0)
    return -sum(math.comb(n + 1, j) * bernoulli_by_recurrence(j) for j in range(n)) / (n + 1)


def dirichlet_L_by_bernoulli_poly(n, chi):
    """L(-n, chi_f) = -(|f|^n / (n+1)) * sum_{j=1..|f|} chi_f(j) B_{n+1}(j / |f|), exactly.

    With m = |f| and d the common denominator of the coefficients of
    B_{n+1}(x) = sum_i C(n+1, i) B_{n+1-i} x^i, each value d * m^(n+1) * B_{n+1}(j/m)
    is an integer, taken per residue j by Horner's rule.
    """
    m = chi.modulus
    coeffs = [math.comb(n + 1, i) * bernoulli(n + 1 - i) for i in range(n + 2)]
    d = math.lcm(*(a.denominator for a in coeffs))
    scaled = [int(a * d) * m ** (n + 1 - i) for i, a in enumerate(coeffs)]
    total = 0
    for j in range(1, m + 1):
        c = chi(j)
        if c:
            value = 0
            for a in reversed(scaled):
                value = value * j + a
            total += c * value
    return -Fraction(m) ** n / (n + 1) * Fraction(total, d * m ** (n + 1))


def cohen_h(r, n):
    """Cohen's H(r, N) for r >= 1, N >= 0 (0 when no discriminant matches).

    H(r, 0) = zeta(1 - 2r); for (-1)^r N = D0 f^2 with D0 a fundamental
    discriminant (or 1): H(r, N) = L(1-r, chi_D0) sum_{d | f} mu(d) chi_D0(d)
    d^(r-1) sigma_(2r-1)(f / d).
    """
    if n == 0:
        return dirichlet_L_nonpositive(2 * r - 1, QuadChar(1))
    disc = (-1) ** r * n
    if disc % 4 not in (0, 1):
        return Fraction(0)
    sign = 1 if disc > 0 else -1
    squarefree = sign
    f = 1
    for p, e in factorize(abs(disc)):
        if e % 2:
            squarefree *= p
        f *= p ** (e // 2)
    if squarefree % 4 != 1:
        squarefree *= 4
        f //= 2
    chi = QuadChar(squarefree)
    total = Fraction(0)
    for d in _divisors(f):
        c = moebius(d) * chi(d)
        if c:
            total += c * Fraction(d) ** (r - 1) * _sigma(2 * r - 1, f // d)
    return dirichlet_L_nonpositive(r - 1, chi) * total


def _divisors(n):
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


def _sigma(t, n):
    return sum(Fraction(d) ** t for d in _divisors(n))


def eichler_zagier_coefficient(k, n, r):
    """Coefficient c(n, r) of the index-1 Eisenstein series E_{k,1}.

    c(n, r) = H(k-1, 4n - r^2) / zeta(3 - 2k).
    """
    return cohen_h(k - 1, 4 * n - r * r) / dirichlet_L_nonpositive(2 * k - 3, QuadChar(1))


def unimodular_trivial_coefficient(rank, k, D):
    """G_0(D, 0) of the trivial Eisenstein series of index an even unimodular lattice
    of the given rank (E8, E8^2, E8^3, ...), for integral D < 0.

    Such a lattice has |L#/L| = 1, so J_{k,L} = M_kappa, kappa = k - rank/2, through
    the theta decomposition and the coefficient is that of the normalized
    Eisenstein series E_kappa: -2 kappa/B_kappa * sigma_{kappa-1}(-D).
    """
    kappa = k - rank // 2
    return -2 * kappa / bernoulli(kappa) * _sigma(kappa - 1, -int(D))


def brute_coset_counts(gram, shift, bound):
    """#{r in shift + Z^m : beta(r) <= bound} grouped by beta(r), by box search.

    Conservative box: |r_i| <= sqrt(2 * bound / min eigenvalue-ish) via the
    diagonal entries; exact Fraction filtering afterwards.
    """
    m = len(gram)
    bound = Fraction(bound)
    # crude but safe radius: x^t G x >= lambda_min |x|^2 and lambda_min >= 1/trace-ish
    # use exact bound via adjugate: |r_i| <= sqrt(2*bound * (G^{-1})_{ii}) <= use det
    radius = int(math.isqrt(int(2 * bound * 4 * _max_inv_diag_den(gram)))) + 2
    counts = {}
    for vec in product(range(-radius, radius + 1), repeat=m):
        r = tuple(Fraction(v) + Fraction(s) for v, s in zip(vec, shift))
        beta = sum(r[i] * gram[i][j] * r[j] for i in range(m) for j in range(m)) / 2
        if beta <= bound:
            counts[beta] = counts.get(beta, 0) + 1
    return counts


def _max_inv_diag_den(gram):
    arr = np.array(gram, dtype=float)
    inv = np.linalg.inv(arr)
    return max(1, int(np.ceil(np.max(np.diag(inv)))))


def lattice_invariants_oracle(gram):
    """(det, level, delta) of a symmetric even-diagonal integer Gram matrix, by
    Bareiss with row swaps and a Gauss-Jordan inverse in Fractions.

    Raises DegenerateError on det = 0, else NotPositiveDefiniteError at the
    first non-positive leading minor, as `make_lattice` does.  Without swaps
    the k-th Bareiss pivot is the k-th leading minor; a zero pivot is recorded,
    then swapped away so the pass still ends with det.  The level is the least
    N with N G^{-1} integral and of even diagonal.
    """
    a = [list(row) for row in gram]
    n = len(a)
    minors, swapped, sign, prev = [], False, 1, 1
    for k in range(n):
        if not swapped:
            minors.append(a[k][k])
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                raise DegenerateError("Gram matrix is singular")
            a[k], a[swap] = a[swap], a[k]
            sign, swapped = -sign, True
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    det = sign * prev
    if det == 0:
        raise DegenerateError("Gram matrix is singular")
    for k, minor in enumerate(minors, start=1):
        if minor <= 0:
            raise NotPositiveDefiniteError(k, minor)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(gram)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    level = math.lcm(*((aug[i][n + j] / (2 if i == j else 1)).denominator
                       for i in range(n) for j in range(n)))
    delta = (-1) ** (n // 2) * (2 if n % 2 else 1) * det
    return det, level, delta


def poincare_series_oracle(k, D, r_rep, coeff_D, coeff_r, c_max=40, d_factor=40,
                           n_u=256, n_x=8, v0=2.0, y0=0.1):
    """Fourier coefficient of P_{k,[[2]],D,r} by direct summation of the series.

    Sums g|gamma over coset representatives (A, (lam, 0)^A) with |c| <= c_max,
    |d| <= d_factor * |c| (pruning summands whose modulus bound is below 1e-16)
    and lam in an adaptive box, on an (n_u x n_x) grid of (Re tau, Re z); the
    (coeff_D, coeff_r) coefficient comes out by 2D discrete Fourier inversion
    plus the exponential corrections in Im tau and Im z.

    Only for the lattice [[2]] (beta(w) = w^2); feasible for k >= 10.
    """
    D = Fraction(D)
    r = Fraction(r_rep)
    n = r * r - D
    assert n.denominator == 1
    coeff_n = Fraction(coeff_r) ** 2 - Fraction(coeff_D)
    assert coeff_n.denominator == 1 and coeff_n >= 1
    u = np.arange(n_u) / n_u
    xg = np.arange(n_x) / n_x
    tau = (u + 1j * v0)[:, None]
    z = (xg + 1j * y0)[None, :]
    two_pi_i = 2j * np.pi
    total = np.zeros((n_u, n_x), dtype=complex)

    def add_terms(c, d, a, b, lam_limit):
        # The phase is quadratic in lam: with w = a tau + b and znum = z + w lam,
        # phase = p0 + p1 lam + p2 lam^2.  All lam go at once along a leading axis.
        ctd = c * tau + d
        w = a * tau + b
        p2 = -c * w * w / ctd + a * a * tau
        p1 = -2 * c * z * w / ctd + 2 * a * z + 2 * float(r) * w / ctd
        p0 = -c * z * z / ctd + float(n) * w / ctd + 2 * float(r) * z / ctd
        lam = np.arange(-lam_limit, lam_limit + 1, dtype=float)[:, None, None]
        terms = np.exp(two_pi_i * (p0 + lam * (p1 + lam * p2)))
        total[:] += ctd ** (-k) * terms.sum(axis=0)

    for d in (1, -1):  # c = 0 cosets; a = d, b = 0
        add_terms(0, d, d, 0, 8)
    for c in range(-c_max, c_max + 1):
        if c == 0:
            continue
        for d in range(-d_factor * abs(c), d_factor * abs(c) + 1):
            if math.gcd(abs(c), abs(d)) != 1:
                continue
            # min over u in [0,1] of |c tau + d|^2
            inner = 0.0 if 0 <= -d / c <= 1 else min(d * d, (c + d) ** 2)
            min_mod2 = (c * v0) ** 2 + inner
            if min_mod2 ** (-k / 2) < 1e-16:
                continue
            g, s, t = _egcd(d, c)
            a, b = s * g, -t * g
            assert a * d - b * c == 1
            max_mod2 = (c * v0) ** 2 + max(d * d, (c + d) ** 2)
            lam_limit = int(math.sqrt(3.1 * max_mod2)) + 9
            add_terms(c, d, a, b, lam_limit)

    spectrum = np.fft.fft2(total) / (n_u * n_x)
    m = int(2 * Fraction(coeff_r)) % n_x
    value = spectrum[int(coeff_n) % n_u, m]
    value *= math.exp(2 * math.pi * float(coeff_n) * v0)
    value *= math.exp(2 * math.pi * 2 * float(Fraction(coeff_r)) * y0)
    return complex(value)


def _egcd(a, b):
    if b == 0:
        return (a, 1, 0)
    g, s, t = _egcd(b, a % b)
    return (g, t, s - (a // b) * t)


def rep_count_enumerate(lattice, x, D, b):
    """R_b = #{lambda in (Z/b)^rank : beta(lambda + x) - D = 0 mod b} by brute force.

    Evaluates the quadratic polynomial at every point of (Z/b)^rank at once.
    """
    gram = lattice.gram
    rank = lattice.rank
    xhat = x.rep
    n0 = int(lattice.beta(xhat) - Fraction(D)) % b
    g = [int(v) % b for v in lattice.gram_times(xhat)]
    # axis i of the broadcast grid carries coordinate lambda_i
    axes = [np.arange(b, dtype=np.int64).reshape((b,) + (1,) * (rank - 1 - i)) for i in range(rank)]
    q = np.full((1,) * rank, n0, dtype=np.int64)
    for i in range(rank):
        q = q + ((gram[i][i] // 2) * axes[i] * axes[i] + g[i] * axes[i]) % b
        for j in range(i + 1, rank):
            q = q + (gram[i][j] % b) * axes[i] * axes[j] % b
    return int(np.count_nonzero(q % b == 0))


def zeros_mod_p_walk(gram, p, g, n, chunk=1 << 16):
    """(nonsingular count, singular zeros) of Q(lambda) = beta(lambda) + g.lambda + n
    on (Z/p)^rank, by evaluating Q and its gradient G lambda + g at every point,
    in lexicographic order and in blocks of `chunk` points."""
    rank = len(gram)
    size = p**rank
    # G lambda mod 2p gives beta(lambda) = lambda.G lambda / 2 mod p, even at p = 2
    gram2 = np.array(gram, dtype=np.int64) % (2 * p)
    gvec = np.array(g, dtype=np.int64)
    nonsingular = 0
    singular = []
    for start in range(0, size, chunk):
        idx = np.arange(start, min(start + chunk, size), dtype=np.int64)
        lam = np.array(np.unravel_index(idx, (p,) * rank), dtype=np.int64)
        glam = gram2 @ lam % (2 * p)
        beta = (lam * glam).sum(axis=0) % (2 * p) // 2
        zero = (beta + gvec @ lam + n) % p == 0
        sing = zero & ~((glam + gvec[:, None]) % p).any(axis=0)
        nonsingular += int(np.count_nonzero(zero)) - int(np.count_nonzero(sing))
        singular.extend(tuple(v) for v in lam[:, sing].T.tolist())
    return nonsingular, tuple(singular)


def node_walk(gram, p, U, h):
    """({lambda mod p : G lambda + h = 0 mod p}, S(U, h; p)) by evaluating G lambda and
    beta(lambda) at every point of (Z/p)^rank: the solutions as a set of tuples and the
    Gauss sum of e((U beta(lambda) + h.lambda)/p) as a complex."""
    rank = len(gram)
    lam = np.array(np.unravel_index(np.arange(p**rank), (p,) * rank), dtype=np.int64)
    glam = np.array(gram, dtype=np.int64) % (2 * p) @ lam % (2 * p)
    beta = (lam * glam).sum(axis=0) % (2 * p) // 2
    hvec = np.array(h, dtype=np.int64)
    solved = ~((glam + hvec[:, None]) % p).any(axis=0)
    phase = (U * beta + hvec @ lam) % p
    return {tuple(v) for v in lam[:, solved].T.tolist()}, complex(np.exp(2j * np.pi * phase / p).sum())


@lru_cache(maxsize=256)
def mod_p_coset(gram, p):
    """The node mod p of the Hensel and Gauss-sum recursions, off the Jordan
    splitting of G reduced mod p: k, base(h) and solve(h).

    The v = 0 blocks are the pivots (at p = 2, the pairs), and every other basis
    vector spans the radical R of G mod p, of dimension k.  solve(h) lists the
    lambda with G lambda + h = 0 mod p, one per class, as (lambda, beta(lambda),
    G lambda): none, or a coset of R of p^k points; base(h) is one of them, or
    None.  With lambda = sum y_i b_i over the pivots and then R, G lambda + h = 0
    asks b_i.h = 0 on R and pivot_i y_i = -b_j.h below it, j = i at odd p and j
    the other vector of i's pair at p = 2.  h is reduced mod p.
    """
    rank = len(gram)
    splitting, blocks = jordan_splitting(gram, p)
    paired, pivots, radical = [], [], []
    for idx, m, v in blocks:
        if v or p == 2 and len(idx) == 1:
            radical += [splitting[i] for i in idx]
        else:
            paired += [splitting[i] for i in idx]
            pivots += [_mod(m[0], p)] if p > 2 else [1, 1]
    basis = [[_mod(x, p) for x in vec] for vec in paired + radical]
    s, k = len(pivots), rank - len(pivots)
    partner = [i ^ (p == 2) for i in range(s)]  # b_i.G b_j = pivot_i at j = partner[i]

    def base(h):
        t = [sum(map(mul, vec, h)) % p for vec in basis]  # b_i.h mod p
        if any(t[s:]):  # h is not orthogonal to R
            return None
        y = [-t[j] * pow(piv, -1, p) % p for j, piv in zip(partner, pivots)]
        return [sum(yi * vec[j] for yi, vec in zip(y, basis)) for j in range(rank)]

    @lru_cache(maxsize=1 << 12)
    def solve(h):
        lam0 = base(h)
        if lam0 is None:
            return ()
        points = (tuple(l0 + sum(z * vec[j] for z, vec in zip(zs, basis[s:])) for j, l0 in enumerate(lam0))
                  for zs in product(range(p), repeat=k))
        return [(lam, sum(gram[i][j] * lam[i] * lam[j] for i in range(rank) for j in range(rank)) // 2,
                 [sum(map(mul, row, lam)) for row in gram]) for lam in points]

    return SimpleNamespace(k=k, base=base, solve=solve)


@lru_cache(maxsize=1 << 16)
def hensel_count(gram, p, g, n, e):
    """#{lambda mod p^e : Q(lambda) = beta(lambda) + g.lambda + n = 0 mod p^e}, g, n mod p^e,
    by the Hensel recursion over the zeros mod p, in place of the unit sums of `modp`.

    With Q(lambda0 + p mu) = Q(lambda0) + p grad Q(lambda0).mu + p^2 beta(mu)
    (exact, beta integral on L), a zero lambda0 mod p is counted as:
    nonsingular -> p^((e-1)(rank-1)) lifts; singular at e = 1 -> 1, so e = 1
    is the count of zeros mod p, from the walk of (Z/p)^rank; singular with
    p^2 | Q(lambda0) -> p^rank times the count of the reduced form
    (grad/p, Q/p^2) mod p^(e-2); any other singular zero -> none.  The singular
    zeros (grad Q = G lambda + g = 0 mod p) are the points of the coset
    `mod_p_coset(gram, p).solve(g)` where Q = 0, with Q mod p^2 the same at each
    representative.
    """
    if e == 0:
        return 1
    g1, n1 = tuple(v % p for v in g), n % p
    nonsingular, singular = zeros_mod_p_walk(gram, p, g1, n1)
    if e == 1:
        return nonsingular + len(singular)
    lift = p ** ((e - 1) * (len(gram) - 1))
    total = (nonsingular + len(singular)) * lift  # every zero counted as nonsingular, then corrected
    sub = p ** (e - 2)
    for lam, beta, glam in mod_p_coset(gram, p).solve(g1):
        value = beta + sum(map(mul, g, lam)) + n
        if value % p == 0:
            total -= lift
            if value % (p * p) == 0:
                grad = tuple((a + b) // p % sub for a, b in zip(glam, g))
                total += p ** len(gram) * hensel_count(gram, p, grad, value // p**2 % sub, e - 2)
    return total


@lru_cache(maxsize=1 << 12)
def _walked_sum(gram, p, U, h):
    return node_walk(gram, p, U, h)[1]


def gauss_sum_recursion(gram, p, e, U, h):
    """S(U, h; p^e) = sum over lambda mod p^e of e((U beta(lambda) + h.lambda)/p^e).

    U is a unit and U, h are reduced mod p^e.  With lambda = lambda1 + p mu,
    Q(lambda) = U beta(lambda) + h.lambda and grad = U G lambda1 + h,
      Q(lambda1 + p mu) = Q(lambda1) + p grad.mu + p^2 U beta(mu)
    (exact, beta integral on L).  The sum over mu mod p^(e-1) vanishes unless
    grad = 0 mod p; then splitting mu once more, mod p^(e-2) and along p^(e-2),
    leaves p^rank S(U, grad/p; p^(e-2)).  So for e >= 2
      S = p^rank sum_{lambda1 mod p, grad = 0 mod p} e(Q(lambda1)/p^e) S(U, grad/p; p^(e-2)),
    one level of `mod_p_coset` per two powers of p, whose solve(U^-1 h)
    lists the lambda1, down to e = 0 (S = 1) or the walk of (Z/p)^rank at e = 1.
    """
    if e == 0:
        return 1
    if e == 1:
        return _walked_sum(gram, p, U, h)
    q, sub = p**e, p ** (e - 2)
    roots = phase_table(q)
    ubar = pow(U, -1, p)
    total = 0j
    for lam, beta, glam in mod_p_coset(gram, p).solve(tuple([ubar * v % p for v in h])):
        value = U * beta + sum(map(mul, h, lam))
        total += roots[value % q] * _subsum(
            gram, p, e - 2, U % sub, tuple([(U * g + hi) // p % sub for g, hi in zip(glam, h)]))
    return p ** len(gram) * total


_subsum = lru_cache(maxsize=1 << 16)(gauss_sum_recursion)


def walk_keys(lattice, c_max, D=0, r=None):
    """The keys (q, (c/q)^-1 mod q) of the c <= c_max, q = p^e || c with p | 2 det,
    one per class (q, b^2 n0 mod q, b G r mod q), n0 = beta(r) - D: the first key
    of each class, in order of first appearance and, within one c, of ascending
    p; read off the factorization of each c.  r = None is the zero class."""
    rep = r.rep if r is not None else (0,) * lattice.rank
    n0, gx = int(lattice.beta(rep) - D), [int(v) for v in lattice.gram_times(rep)]
    classes = {}
    for c in range(1, c_max + 1):
        for p, e in factorize(c):
            q = p**e
            if 2 * lattice.det % p == 0:
                b = pow(c // q, -1, q)
                classes.setdefault((q, b * b * n0 % q, tuple(b * g % q for g in gx)), (q, b))
    return list(classes.values())


def local_factor_sum(lattice, D, r, Dp, rp, q, b):
    """F_q(b) = sum_{V in (Z/q)*} e((V n0 + m b^2 V^-1)/q) sum_{lambda mod q}
    e((V beta(lambda) + (V G r + b G r').lambda)/q), n0 = beta(r) - D and
    m = beta(r') - D': the double sum, with every exponent counted mod q over
    (V, lambda) before the counts meet the exact q-th roots of unity."""
    gx, gp = (tuple(int(v) for v in lattice.gram_times(x.rep)) for x in (r, rp))
    n0, m = int(lattice.beta(r.rep) - D), int(lattice.beta(rp.rep) - Dp)
    points = [(lam, sum(g * a * c for row, a in zip(lattice.gram, lam) for g, c in zip(row, lam)) // 2)
              for lam in product(range(q), repeat=lattice.rank)]
    counts = [0] * q
    for V in range(1, q):
        if math.gcd(V, q) > 1:
            continue
        base = V * n0 + m * b * b * pow(V, -1, q)
        h = [V * x + b * y for x, y in zip(gx, gp)]
        for lam, beta in points:
            counts[(base + V * beta + sum(hi * v for hi, v in zip(h, lam))) % q] += 1
    return sum(n * unit_phase(Fraction(j, q)) for j, n in enumerate(counts) if n)


def _beta_mod1(lattice, x):
    return frac1(lattice.beta(x.rep))


def _pairing_mod1(lattice, x, y):
    return frac1(lattice.pairing(x.rep, y.rep))


def rho_generator_loop(lattice, g):
    """rho(T) or rho(S) as a complex128 matrix, one entry at a time."""
    group = lattice.disc_group
    n = len(group)
    mat = np.zeros((n, n), dtype=np.complex128)
    if g == "T":
        for i, x in enumerate(group):
            mat[i, i] = unit_phase(_beta_mod1(lattice, x))
        return mat
    scalar = unit_phase(Fraction(-lattice.rank, 8)) / np.sqrt(lattice.det)
    for j, x in enumerate(group):
        for i, y in enumerate(group):
            mat[i, j] = scalar * unit_phase(-_pairing_mod1(lattice, x, y))
    return mat


def rho_word_dense(lattice, word):
    """rho of a word as the numpy product of the `rho_generator` matrices, left to
    right, with a letter's inverse taken as the conjugate transpose (rho is unitary)."""
    product = None
    for token in word:
        mat = rho_generator(lattice, token[0]).matrix
        mat = mat.conj().T if token.endswith("^-1") else mat
        product = mat if product is None else product @ mat
    return product


def schrodinger_loop(lattice, x, lam, mu, t):
    """sigma_x(lam, mu, t) as a complex128 matrix, one column at a time."""
    group = lattice.disc_group
    position = {y.coords: i for i, y in enumerate(group)}
    n = len(group)
    mat = np.zeros((n, n), dtype=np.complex128)
    shift = group.scale(lam, x)
    for j, y in enumerate(group):
        phase = frac1(mu * _pairing_mod1(lattice, x, y) + (t - lam * mu) * _beta_mod1(lattice, x))
        target = group.add(y, group.neg(shift))
        mat[position[target.coords], j] = unit_phase(phase)
    return mat


def averaging_dense(lattice, x):
    """Av_x = N^-2 sum_{lam, mu mod N^2} sigma*_x(lam, mu, 0), summed as dense complex128
    arrays and divided by N^2 (sigma_x itself is checked against `schrodinger_loop`)."""
    n2 = x.order**2
    n = len(lattice.disc_group)
    total = np.zeros((n, n), dtype=np.complex128)
    for lam in range(n2):
        for mu in range(n2):
            total += schrodinger_matrix(lattice, x, lam, mu, 0).matrix.conj()
    return total / n2


def nontrivial_case_formulas(lattice, k, x, D, y):
    """G_x(D, y) for isotropic x of order 2, 3, 4 or 6, by per-order case analysis."""
    group = lattice.disc_group
    D = Fraction(D)

    def g0(shift):
        return trivial_coefficient_exact(lattice, k, D, group.add(y, group.scale(shift, x)))

    def pair_integral(mult):
        return is_integral(_pairing_mod1(lattice, group.scale(mult, x), y))

    order = x.order
    if order == 2:
        return g0(1) if pair_integral(1) else -g0(0)
    if order == 3:
        if pair_integral(1):
            return Fraction(1, 2) * (g0(1) + g0(2))
        return -Fraction(1, 2) * g0(0)
    if order == 4:
        if pair_integral(1):
            return Fraction(1, 2) * (g0(1) + g0(3))
        if pair_integral(2):
            return -Fraction(1, 2) * (g0(0) + g0(2))
        return Fraction(0)
    assert order == 6, order
    # the final branch comes out of the averaging identity as +G0/2: with all
    # pairings non-integral the component equation reads
    # G0(y) + 2 G_x(y) + 2(-G0(y)/2) + (-G0(y)) = 0
    if pair_integral(1):
        return Fraction(1, 2) * (g0(1) + g0(5))
    if pair_integral(2):
        return -Fraction(1, 2) * (g0(2) + g0(4))
    if pair_integral(3):
        return -Fraction(1, 2) * g0(3)
    return Fraction(1, 2) * g0(0)


def rep_document_json(name, docs):
    """json.dumps(indent=2) of a rep document whose docs hold (label, index, complex matrix),
    each matrix turned into rows of {"re", "im"} dicts of numpy scalars first."""
    matrices = [
        {"label": label, "index": index,
         "matrix": [[{"re": z.real, "im": z.imag} for z in row] for row in np.asarray(matrix)]}
        for label, index, matrix in docs
    ]
    return json.dumps({"lattice": name, "matrices": matrices}, indent=2)
