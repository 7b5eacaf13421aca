"""Output checks: references, an independent route for index 1, and matrix
identities.  Nothing here imports the package under test.
"""

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

NUMERIC_RTOL = 1e-9
SKETCH_RTOL = 1e-9
UNITARY_TOL = 1e-12


class CheckError(Exception):
    pass


# -- one request ----------------------------------------------------------------

def _independent_check(req, doc):
    """Checks that need no reference: a1 exact outputs against Eichler-Zagier."""
    if req["lattice"] == "a1" and "exact" in req["args"]:
        check_index_one(doc, int(req["args"][req["args"].index("-k") + 1]))


def reference(req, doc):
    """Reference form of a request's output, after its independent check."""
    _independent_check(req, doc)
    return matrices_summary(doc) if req["verb"] == "rep" else series_summary(doc)


def check_request(req, doc, ref, avg_order=None):
    """Check an output against its reference and independent routes; return its items.

    avg_order is the order of the isotropic class behind an --avg argument.
    """
    _independent_check(req, doc)
    if req["verb"] == "rep":
        check_matrices(doc, ref, avg_order)
        return matrix_items(doc)
    check_series(doc, ref)
    return series_items(doc)


# -- series (eisenstein / poincare) --------------------------------------------

def series_summary(doc):
    """Reference form of an expansion: [D, x, n, value] rows plus the reported tail."""
    rows = []
    for e in doc["entries"]:
        v = e["value"]
        rows.append([e["D"], e["x"], e["n"], v if isinstance(v, str) else [v["re"], v["im"]]])
    return {"kind": "series", "entries": rows, "tail_estimate": doc.get("tail_estimate")}


def series_items(doc):
    """Coefficients with D' < 0: the items of the series workloads."""
    return sum(1 for e in doc["entries"] if Fraction(e["D"]) < 0)


def check_series(doc, ref):
    got = series_summary(doc)["entries"]
    want = ref["entries"]
    if [r[:3] for r in got] != [r[:3] for r in want]:
        raise CheckError("support indices differ from the reference")
    tail = doc.get("tail_estimate") or 0.0
    for (D, x, _, val), (_, _, _, ref_val) in zip(got, want):
        if isinstance(ref_val, str):
            if val != ref_val:
                raise CheckError(f"exact coefficient at D={D} x={x}: {val} != {ref_val}")
            continue
        diff = abs(complex(*val) - complex(*ref_val))
        if diff > max(NUMERIC_RTOL * abs(complex(*ref_val)), tail):
            raise CheckError(f"numeric coefficient at D={D} x={x} off by {diff:.3g}")


# -- index 1: Eichler-Zagier coefficients through Cohen's numbers ---------------

@lru_cache(maxsize=None)
def _bernoulli(n):
    if n == 0:
        return Fraction(1)
    return -sum(comb(n + 1, j) * _bernoulli(j) for j in range(n)) / (n + 1)


def _bernoulli_poly(n, x):
    return sum(comb(n, j) * _bernoulli(j) * x ** (n - j) for j in range(n + 1))


def _kronecker(d, n):
    """Kronecker symbol (d / n) for n >= 1."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            result = -result
    a, m = d % n, n
    while a:  # Jacobi symbol (a / m), m odd
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def _l_value(r, disc):
    """L(1 - r, chi_disc) = -B_{r,chi}/r for a fundamental discriminant disc."""
    f = abs(disc)
    b = Fraction(f) ** (r - 1) * sum(
        _kronecker(disc, a) * _bernoulli_poly(r, Fraction(a, f)) for a in range(1, f + 1)
    )
    return -b / r


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _moebius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def cohen_h(r, N):
    """Cohen's H(r, N) for odd r and N > 0: (-1)^r N = D0 f^2, D0 fundamental."""
    disc = -N
    if disc % 4 not in (0, 1):
        return Fraction(0)
    f = max(g for g in range(1, int(N**0.5) + 2)
            if N % (g * g) == 0 and (disc // (g * g)) % 4 in (0, 1)
            and _is_fundamental(disc // (g * g)))
    d0 = disc // (f * f)
    total = sum(
        _moebius(d) * _kronecker(d0, d) * Fraction(d) ** (r - 1)
        * sum(Fraction(e) ** (2 * r - 1) for e in _divisors(f // d))
        for d in _divisors(f)
    )
    return _l_value(r, d0) * total


def _is_fundamental(d):
    def squarefree(m):
        return all(m % (p * p) for p in range(2, int(abs(m) ** 0.5) + 1))
    if d % 4 == 1:
        return squarefree(d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(d // 4)


def eichler_zagier(k, D):
    """Coefficient of E_{k,1} at discriminant 4D (D < 0): H(k-1, -4D) / zeta(3-2k)."""
    zeta = -_bernoulli(2 * k - 2) / (2 * k - 2)
    return cohen_h(k - 1, int(-4 * Fraction(D))) / zeta


def check_index_one(doc, k):
    for e in doc["entries"]:
        D = Fraction(e["D"])
        if D < 0 and Fraction(e["value"]) != eichler_zagier(k, D):
            raise CheckError(f"a1 coefficient at D={D} differs from the Eichler-Zagier value")


# -- matrices -------------------------------------------------------------------

def _sketch_vector(n):
    rng = np.random.default_rng(n)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _as_matrix(m):
    return np.array([[complex(z["re"], z["im"]) for z in row] for row in m["matrix"]])


def _index_digest(index):
    return hashlib.sha256(json.dumps(index).encode()).hexdigest()


def matrices_summary(doc):
    out = []
    for m in doc["matrices"]:
        sketch = _as_matrix(m) @ _sketch_vector(len(m["index"]))
        out.append({"label": m["label"], "index": _index_digest(m["index"]),
                    "sketch": [sketch.real.tolist(), sketch.imag.tolist()]})
    return {"kind": "matrices", "matrices": out}


def matrix_items(doc):
    """Rendered matrix entries: the items of the weil-matrices workload."""
    return sum(len(m["index"]) ** 2 for m in doc["matrices"])


def check_matrices(doc, ref, avg_order):
    if len(doc["matrices"]) != len(ref["matrices"]):
        raise CheckError("number of matrices differs from the reference")
    for m, want in zip(doc["matrices"], ref["matrices"]):
        if m["label"] != want["label"] or _index_digest(m["index"]) != want["index"]:
            raise CheckError(f"matrix {m['label']}: label or index differs from the reference")
        mat = _as_matrix(m)
        n = mat.shape[0]
        eye = np.eye(n)
        if m["label"].startswith("Av_"):
            # Av_x / N^2 is an orthogonal projection for isotropic x of order N
            p = mat / avg_order**2
            defect = max(np.max(np.abs(p - p.conj().T)), np.max(np.abs(p @ p - p)))
        else:
            defect = np.max(np.abs(mat @ mat.conj().T - eye))
        if defect > UNITARY_TOL:
            raise CheckError(f"matrix {m['label']}: structure defect {defect:.3g}")
        ref_sketch = np.array(want["sketch"][0]) + 1j * np.array(want["sketch"][1])
        diff = np.max(np.abs(mat @ _sketch_vector(n) - ref_sketch))
        if diff > SKETCH_RTOL * max(1.0, np.max(np.abs(ref_sketch))):
            raise CheckError(f"matrix {m['label']}: differs from the reference by {diff:.3g}")
