"""Run the jacobiforms CLI with spans around each module's public functions.

Usage: python3 traced_cli.py SPANS_JSON CLI_ARG...

Every wrapped function is rebound in each jacobiforms module that holds it,
so calls through any imported name are seen.  Spans are kept in memory and
written to SPANS_JSON when the command ends: [id, parent_id, name, start,
end, counters].  Counters are computed from the arguments or the result, never
read from the package's internals; the expsums LRU caches are read through
their public cache_info() and reported as absent if they are gone.
"""

import json
import sys
import time

import jacobiforms
import jacobiforms.cli

_SPANS = []
_STACK = [None]
_REP_KEYS = set()


def _open(name):
    """Reserve a span slot so that children can name it as their parent."""
    sid = len(_SPANS)
    _SPANS.append([sid, _STACK[-1], name, time.perf_counter(), None, {}])
    return sid


def _wrap(name, fn, counters=None):
    def wrapper(*args, **kwargs):
        sid = _open(name)
        _STACK.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            _SPANS[sid][4] = time.perf_counter()
            _STACK.pop()
        if counters:
            _SPANS[sid][5] = counters(args, result)
        return result

    return wrapper


def _wrap_terms(fn):
    """h_series_terms yields one H_c term per c: one span per term."""
    def wrapper(*args, **kwargs):
        rank = args[0].rank
        gen = fn(*args, **kwargs)
        while True:
            sid = _open("expsums.h_c")
            try:
                c, term = next(gen)
            except StopIteration:
                _SPANS.pop()
                return
            _SPANS[sid][4] = time.perf_counter()
            _SPANS[sid][5] = {"points": c**rank}
            yield c, term

    return wrapper


def _rep_count_counters(args, result):
    key = args[0]
    memo_key = (key.lattice.gram, key.x.coords, key.D, key.b)
    if memo_key in _REP_KEYS:
        return {}
    _REP_KEYS.add(memo_key)
    return {"new_keys": 1, "points": key.b ** key.lattice.rank}


def _rep_dim(args, result):
    return {"dim": len(args[0].disc_group)}


# (module, attribute, span name, counters); the generator is handled apart.
TARGETS = [
    ("lattice", "make_lattice", "lattice.make_lattice",
     lambda a, r: {"disc_group_size": len(r.disc_group)}),
    ("lattice", "enumerate_supp", "lattice.enumerate_supp", lambda a, r: {"indices": len(r)}),
    ("numbertheory", "bessel_j", "numbertheory.bessel_j",
     lambda a, r: {"mp_calls": int(float(a[1]) > 1.5)}),
    ("numbertheory", "dirichlet_L_nonpositive", "numbertheory.dirichlet_L", None),
    ("expsums", "rep_count", "expsums.rep_count", _rep_count_counters),
    ("expsums", "local_factor", "expsums.local_factor", None),
    ("eisenstein", "trivial_coefficient_exact", "eisenstein.exact_coeff", None),
    ("eisenstein", "eisenstein_coefficient_numeric", "eisenstein.numeric_coeff", None),
    ("eisenstein", "eisenstein_expansion", "eisenstein.expansion", None),
    ("poincare", "poincare_coefficient", "poincare.coeff", None),
    ("poincare", "poincare_expansion", "poincare.expansion", None),
    ("weilrep", "rho_generator", "weilrep.rho_generator", None),
    ("weilrep", "rho_word", "weilrep.rho_word", _rep_dim),
    ("weilrep", "schrodinger_matrix", "weilrep.schrodinger", _rep_dim),
    ("weilrep", "averaging_matrix", "weilrep.averaging", _rep_dim),
]
CACHES = {"kvec_cache": ("expsums", "_kloosterman_vector_cached")}


def _rebind(original, replacement):
    """Replace `original` in every jacobiforms module that bound it."""
    count = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "jacobiforms" or mod_name.startswith("jacobiforms."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    count += 1
    return count


def install():
    """Wrap every target; return the names that could not be found."""
    missing = []
    for mod_name, attr, name, counters in TARGETS:
        original = getattr(sys.modules[f"jacobiforms.{mod_name}"], attr, None)
        if original is None or not _rebind(original, _wrap(name, original, counters)):
            missing.append(f"{mod_name}.{attr}")
    terms = getattr(jacobiforms.expsums, "h_series_terms", None)
    if terms is None or not _rebind(terms, _wrap_terms(terms)):
        missing.append("expsums.h_series_terms")
    return missing


def cache_stats():
    out = {}
    for label, (mod_name, attr) in CACHES.items():
        fn = getattr(sys.modules[f"jacobiforms.{mod_name}"], attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[label] = None if info is None else {"hits": info.hits, "misses": info.misses}
    return out


def main(spans_path, argv):
    missing = install()
    main_fn = _wrap("cli.main", jacobiforms.cli.main)
    rc = 1
    try:
        rc = main_fn(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": _SPANS, "caches": cache_stats(), "missing": missing,
                       "exit": rc}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
