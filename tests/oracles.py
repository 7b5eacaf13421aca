"""Independent oracles used by the tests.

Nothing here reuses the coefficient pipelines it checks: the Cohen-style class
number oracle goes through L-values and divisor sums only, the E8 oracle uses
J_{k,E8} = M_{k-4}, the brute-force coset count walks a plain integer box, the
representation-number oracle evaluates the quadratic polynomial at every point
of (Z/b)^rank, the Hensel-node oracle does the same with the gradient on
(Z/p)^rank in place of the closed form, the Poincare oracle sums the defining series on a (tau, z)
grid and Fourier-inverts it, and the walk keys of the H_c table are read off
the factorization of each c.  The Weil-representation oracles build rho(T),
rho(S) and sigma_x entry by entry from Fraction pairings of the coset
representatives, the averaging oracle adds the sigma_x as dense complex128
arrays and divides by N^2, and the case-formula oracle is the order-2/3/4/6
case analysis of the averaging identity, each in place of the integer
discriminant form, the sparse sum and the Moebius relation.  The L-value oracle sums one Bernoulli
polynomial per residue in Fractions, in place of the integer power sums.  The
rep-document oracle lays a matrix out the way the CLI once built it, as
{"re", "im"} dicts through json.dumps, in place of the streamed row renderer.
"""

import json
import math
from fractions import Fraction
from itertools import product

import numpy as np

from jacobiforms import (
    QuadChar,
    dirichlet_L_nonpositive,
    moebius,
    schrodinger_matrix,
    trivial_coefficient_exact,
)
from jacobiforms.numbertheory import bernoulli, factorize
from jacobiforms.rationals import frac1, is_integral, unit_phase


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


def e8_trivial_coefficient(k, D):
    """G_0(D, 0) of the trivial Eisenstein series of index E8, for integral D < 0.

    E8 is unimodular, so J_{k,E8} = M_{k-4} through the theta decomposition and
    the coefficient is that of the normalized Eisenstein series E_{k-4}:
    -2(k-4)/B_{k-4} * sigma_{k-5}(-D).
    """
    return -2 * (k - 4) / bernoulli(k - 4) * _sigma(k - 5, -int(D))


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


def walk_keys(det, c_max):
    """The keys (c_b, (c / c_b)^-1 mod c_b) with c_b > 1 of the c <= c_max, in order of
    first appearance; c_b is the part of c made of the primes dividing 2 det, read
    off the factorization of c."""
    bad = {p for p, _ in factorize(2 * det)}
    keys = {}
    for c in range(1, c_max + 1):
        c_b = math.prod(p**e for p, e in factorize(c) if p in bad)
        if c_b > 1:
            keys.setdefault((c_b, pow(c // c_b, -1, c_b)), None)
    return list(keys)


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
