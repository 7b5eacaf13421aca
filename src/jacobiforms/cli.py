"""Command-line front end.

Subcommands: info, eisenstein, poincare, rep, verify.  Exit codes: 0 success,
1 verification failure, 2 validation error, 3 computation-domain error, 141
(128 + SIGPIPE, as a shell reports a process killed by it) when the reader of
stdout closed it first, as `| head` does: no JSON error is written then.
Output files are written atomically (temp file + rename); domain errors emit
machine-readable JSON on stderr.  The series and representation modules are
bound lazily (see `_lazy`), so each command executes only the modules it reads.
"""

import argparse
import json
import os
import sys
import tempfile
from math import copysign

from . import eisenstein, poincare, weilrep
from .errors import ComputationDomainError, ValidationError
from .lattice import isotropy_set, load_lattice_json
from .rationals import format_rational, parse_rational

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_VALIDATION = 2
EXIT_DOMAIN = 3
EXIT_BROKEN_PIPE = 141


def _parse_coords(text):
    text = text.strip()
    try:
        return tuple(int(part) for part in text.split(",")) if text else ()
    except ValueError as exc:
        raise ValidationError(
            f"expected class coordinates 'a,b,...' such as '1,0', got {text!r}"
        ) from exc


def _element(group, text):
    coords = _parse_coords(text)
    if coords == (0,) and len(group.orders) != 1:
        coords = (0,) * len(group.orders)  # "-r 0" shorthand for the zero class
    if len(coords) != len(group.orders):
        raise ValidationError(
            f"expected {len(group.orders)} coordinates for this lattice, got {len(coords)}"
        )
    return group.element(coords)


def _write_output(chunks, path):
    """Write the text chunks and a final newline to stdout, or atomically to path."""
    if path is None:
        _write_chunks(sys.stdout, chunks)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".jacobiforms-")
    try:
        with os.fdopen(fd, "w") as fh:
            _write_chunks(fh, chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_chunks(fh, chunks):
    for chunk in chunks:
        fh.write(chunk)
    fh.write("\n")


def _render(doc, fmt):
    if fmt == "json":
        return json.dumps(doc, indent=2)
    # table: n, x, coefficient sorted by q-exponent (entries are pre-sorted)
    lines = [f"# lattice={doc.get('lattice')} weight={doc.get('weight')} mode={doc.get('mode')}"]
    lines.append(f"{'n':>10}  {'x':<12} value")
    for entry in doc["entries"]:
        val = entry["value"]
        shown = val if isinstance(val, str) else f"{val['re']:.12g}{val['im']:+.12g}i"
        lines.append(f"{entry['n']:>10}  {str(entry['x']):<12} {shown}")
    return "\n".join(lines)


def _cmd_info(args):
    name, lattice = load_lattice_json(args.lattice)
    group = lattice.disc_group
    print(f"lattice {name}")
    print(f"  rank  {lattice.rank}")
    print(f"  det   {lattice.det}")
    print(f"  level {lattice.level}")
    print(f"  Delta {lattice.delta}")
    print(f"  discriminant group {' x '.join(f'Z_{d}' for d in group.orders) or 'trivial'}")
    iso = isotropy_set(lattice)
    print(f"  isotropy set ({len(iso)} classes):")
    for x in iso:
        print(f"    {x}  order {x.order}  beta {format_rational(x.beta_mod1)}")
    return EXIT_OK


def _cmd_eisenstein(args):
    name, lattice = load_lattice_json(args.lattice)
    group = lattice.disc_group
    spec = eisenstein.EisensteinSpec(lattice=lattice, k=args.k, r=_element(group, args.r))
    expansion = eisenstein.eisenstein_expansion(spec, parse_rational(args.n_max), args.mode, c_max=args.c_max)
    expansion.lattice_name = name
    _write_output([_render(expansion.to_json_dict(), args.format)], args.output)
    return EXIT_OK


def _cmd_poincare(args):
    name, lattice = load_lattice_json(args.lattice)
    group = lattice.disc_group
    spec = poincare.PoincareSpec(
        lattice=lattice, k=args.k, D=parse_rational(args.D), r=_element(group, args.r)
    )
    expansion = poincare.poincare_expansion(spec, parse_rational(args.n_max), args.c_max)
    expansion.lattice_name = name
    _write_output([_render(expansion.to_json_dict(), args.format)], args.output)
    return EXIT_OK


def _matrix_doc(rep, group):
    """A matrix's label, index and sparse `entries`, or its dense rows as `matrix`."""
    key, value = ("matrix", rep.rows) if rep.entries is None else ("entries", rep.entries)
    return {"label": rep.label, "index": [list(c) for c in group.classes()], key: value}


# json.dumps spells the non-finite floats as JavaScript does; repr spells them otherwise
_JSON_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dumps_at(value, depth):
    """json.dumps(value, indent=2) as it reads nested `depth` levels deep.

    json.dumps escapes the newlines inside strings, so each newline of its
    text starts a line of layout and takes the outer indent.
    """
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _row_layout(depth):
    """(head, separator, entry template, tail) of a row of {"re", "im"} objects `depth` levels deep."""
    outer = "\n" + "  " * depth
    inner = outer + "  "
    entry = "{" + inner + '  "re": %s,' + inner + '  "im": %s' + inner + "}"
    return outer + "[" + inner, "," + inner, entry, outer + "]"


class _EntryTexts(dict):
    """Memo of entry texts: (z, sign of z.real, sign of z.imag) -> the entry
    template filled with float.__repr__ of z's parts, as json writes them."""

    def __init__(self, entry):
        super().__init__()
        self.entry = entry

    def __missing__(self, key):
        texts = float.__repr__(key[0].real), float.__repr__(key[0].imag)
        text = self[key] = self.entry % tuple(map(_JSON_CONSTANTS.get, texts, texts))
        return text


def _matrix_rows(matrix, depth):
    """The rows of a matrix as json.dumps lays out lists of {"re", "im"} objects
    nested `depth` levels deep, each with its leading newline and indent.

    The matrix is a sequence of rows of complex numbers.  Each entry's text
    takes float.__repr__ of its real and imaginary parts, as json's encoder
    writes them, and is rendered once per distinct entry: rho(S) and the word
    products take few distinct values.  The memo key carries the sign of
    each part, so that 0.0 and -0.0 keep their own texts; an entry with a NaN
    part equals no other and is rendered where it stands.
    """
    head, sep, entry, tail = _row_layout(depth)
    texts = _EntryTexts(entry)
    for row in matrix:
        yield head + sep.join([texts[z, copysign(1.0, z.real), copysign(1.0, z.imag)] for z in row]) + tail


def _sparse_rows(entries, depth):
    """The rows of the square matrix whose row i is 0j but at the (column, value)
    pairs of entries[i], given by increasing column, laid out as `_matrix_rows`.

    Every zero entry has the same text, so the all-zero row text is built
    once and column j's entry starts at len(head) + j * (its width plus the
    separator's); each row splices the texts of its listed entries into it.
    """
    head, sep, entry, tail = _row_layout(depth)
    zero = entry % ("0.0", "0.0")
    blank = head + sep.join([zero] * len(entries)) + tail
    step = len(zero) + len(sep)
    for pairs in entries:
        pieces, end = [], 0
        for j, z in pairs:
            start = len(head) + j * step
            texts = float.__repr__(z.real), float.__repr__(z.imag)
            pieces += blank[end:start], entry % tuple(map(_JSON_CONSTANTS.get, texts, texts))
            end = start + len(zero)
        pieces.append(blank[end:])
        yield "".join(pieces)


def _rep_chunks(name, docs):
    """The text of json.dumps({"lattice": name, "matrices": docs}, indent=2) as chunks,
    with each doc's dense "matrix" rows or sparse "entries" laid out as {"re", "im"} objects.

    The lattice name, labels and indices are laid out by json.dumps; each
    matrix follows row by row, so no chunk holds more than one row of it.
    """
    yield '{\n  "lattice": ' + json.dumps(name) + ',\n  "matrices": ['
    for i, doc in enumerate(docs):
        yield (("," if i else "") + "\n    {"
               + '\n      "label": ' + json.dumps(doc["label"]) + ","
               + '\n      "index": ' + _dumps_at(doc["index"], 3) + ","
               + '\n      "matrix": [')
        rows = _sparse_rows(doc["entries"], 4) if "entries" in doc else _matrix_rows(doc["matrix"], 4)
        for j, row in enumerate(rows):
            yield ("," if j else "") + row
        yield "\n      ]\n    }"
    yield "\n  ]\n}"


def _schrodinger_args(group, text):
    """(x, lam, mu, t) from the --schrodinger text 'x-coords;lam,mu,t'."""
    try:
        coord_text, triple_text = text.split(";")
        lam, mu, t = (int(v) for v in triple_text.split(","))
        return _element(group, coord_text), lam, mu, t
    except ValueError as exc:
        raise ValidationError(
            f"--schrodinger expects 'x-coords;lam,mu,t' such as '1;2,1,3', got {text!r}"
        ) from exc


def _cmd_rep(args):
    name, lattice = load_lattice_json(args.lattice)
    group = lattice.disc_group
    docs = []
    if args.word is not None:
        tokens = [t.strip() for t in args.word.split(",") if t.strip()]
        docs.append(_matrix_doc(weilrep.rho_word(lattice, tokens), group))
    if args.schrodinger is not None:
        rep = weilrep.schrodinger_matrix(lattice, *_schrodinger_args(group, args.schrodinger))
        docs.append(_matrix_doc(rep, group))
    if args.avg is not None:
        docs.append(_matrix_doc(weilrep.averaging_matrix(lattice, _element(group, args.avg)), group))
    if not docs:
        for g in ("T", "S"):
            docs.append(_matrix_doc(weilrep.rho_generator(lattice, g), group))
    _write_output(_rep_chunks(name, docs), args.output)
    return EXIT_OK


def _cmd_verify(args):
    # imported here: every other command would compile the self-checks for nothing
    from .verify import run_suites

    report, ok = run_suites(args.suite)
    print(report)
    return EXIT_OK if ok else EXIT_VERIFY


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="jacobiforms",
        description="Fourier expansions of Jacobi Eisenstein and Poincare series",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("--lattice", required=True, help="path to a lattice JSON file")
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    p_info = sub.add_parser("info", help="print lattice invariants")
    p_info.add_argument("--lattice", required=True)
    p_info.set_defaults(func=_cmd_info)

    p_eis = sub.add_parser("eisenstein", help="Eisenstein series expansion")
    add_common(p_eis)
    p_eis.add_argument("--format", choices=("json", "table"), default="json")
    p_eis.add_argument("-k", type=int, required=True, help="weight")
    p_eis.add_argument("-r", default="0", help="isotropic class coordinates 'a,b,...'")
    p_eis.add_argument("--n-max", default="3", help="q-exponent truncation (rational)")
    p_eis.add_argument("--c-max", type=int, default=1000)
    p_eis.add_argument("--mode", choices=("exact", "numeric"), default="exact")
    p_eis.set_defaults(func=_cmd_eisenstein)

    p_poi = sub.add_parser("poincare", help="Poincare series expansion")
    add_common(p_poi)
    p_poi.add_argument("--format", choices=("json", "table"), default="json")
    p_poi.add_argument("-k", type=int, required=True, help="weight")
    p_poi.add_argument("-D", required=True, help="negative rational index 'p/q'")
    p_poi.add_argument("-r", required=True, help="class coordinates 'a,b,...'")
    p_poi.add_argument("--n-max", default="3")
    p_poi.add_argument("--c-max", type=int, default=1000)
    p_poi.set_defaults(func=_cmd_poincare)

    p_rep = sub.add_parser("rep", help="representation matrices as JSON")
    add_common(p_rep)
    p_rep.add_argument("--word", default=None, help="comma-separated word over T,S,T^-1,S^-1")
    p_rep.add_argument("--schrodinger", default=None, help="'x-coords;lam,mu,t'")
    p_rep.add_argument("--avg", default=None, help="averaging operator at the given class")
    p_rep.set_defaults(func=_cmd_rep)

    p_ver = sub.add_parser("verify", help="run self-check suites")
    p_ver.add_argument("suite", choices=("all", "exp_sums", "eisenstein", "poincare", "weil"))
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe is reported here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader is gone; pointing the descriptor at os.devnull lets the
        # flush at exit write what is left to nowhere instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ComputationDomainError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_DOMAIN
    except (ValidationError, ValueError, OSError, json.JSONDecodeError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
