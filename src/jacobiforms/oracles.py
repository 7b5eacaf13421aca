"""Independent routes that the library's own routes are checked against:
`verify` and the tests call them, and no request does.

The lattice sums H_{L,c}(D, r, D', r') have two routes here.  The
definitional route sums H term by term with exact rational phases
(deterministic order: d ascending, lambda lexicographic), and
`kloosterman_decomposition` sums it over lambda through Kloosterman sums.  The
walk `lattice_sum_fft` rewrites H through Kloosterman sums too: it walks
(Z/c)^rank in bounded blocks to form acc[t] = sum of e(pint(lambda)/c) over
n1(lambda) = t mod c (at rank >= 2 from integer counts of the (n1, pint)
pairs), and since K(m, t; c) = sum_u e((m u^-1 + t u)/c), H
needs one length-c FFT of acc, read at the units; it is the one user of numpy
here.  The series route of `expsums._h_table` is asserted against them.
`good_prime_factor` is the closed form of a local factor at a good prime,
against which `repcounts.local_factor` is checked.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

from ._lazy import np
from .errors import NotInDualLatticeError, NotIsotropicError, ResourceLimitError
from .expsums import _sum_data, _units
from .lattice import support_data
from .numbertheory import bernoulli, bernoulli_poly, kronecker
from .rationals import unit_phase, unit_phase_ratio
from .repcounts import _d_tilde

_CHUNK = 1 << 16  # points per block when a walk over (Z/n)^rank is chunked


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
    try:
        support_data(lattice, 0, r)
    except NotInDualLatticeError:
        raise
    except ValueError as exc:  # at D = 0, (D, r) is in supp(L) exactly when r is isotropic
        raise NotIsotropicError(f"beta({r}) is not integral") from exc
    return poincare_lattice_sum(lattice, Fraction(0), r, Dp, rp, c)


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


# -- lattice sums (the walk) -------------------------------------------------------

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
    At rank >= 2 the walk counts the (n1, pint) pairs in an integer c x c
    table (c^2 <= c^rank points) and takes one product with the roots, so no
    float sum runs over the c^rank points; rank 1 sums the roots directly.
    """
    roots = np.exp((2j * np.pi / c) * np.arange(c))
    acc = [0] * len(data.gps)
    for n1, pints in _lambda_profile(data, c):
        for g in range(len(data.gps)):
            pint = next(pints)
            if data.rank == 1:
                acc[g] = (acc[g] + np.bincount(n1, roots.real[pint], c)
                          + 1j * np.bincount(n1, roots.imag[pint], c))
            else:
                acc[g] = acc[g] + np.bincount(n1 * c + pint, minlength=c * c)
            del pint  # before the next G r' builds its block
    if data.rank > 1:
        acc = [counts.reshape(c, c) @ roots for counts in acc]
    units = _unit_array(c)
    inv = _inverses(units, c)
    a_hat = [np.fft.ifft(x, norm="forward")[units] for x in acc]
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


# -- local factors ------------------------------------------------------------------

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
