import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacobiforms
from jacobiforms import expsums, make_lattice
from jacobiforms.cli import _rep_chunks, main
from jacobiforms.rationals import parse_rational
from jacobiforms.weilrep import averaging_matrix, rho_word, schrodinger_matrix

from oracles import rep_document_json, walk_keys

LATTICES = Path(__file__).resolve().parent.parent / "lattices"
DATA = Path(__file__).resolve().parent / "data"  # CLI outputs written before a refactor of that path
# lattices of the golden-bytes runs that are not shipped in lattices/
GOLDEN_GRAMS = {
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "E8": [[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0], [0, -1, 2, -1, 0, 0, 0, -1],
           [0, 0, -1, 2, -1, 0, 0, 0], [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
           [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 0, 2]],
    "square20": [[20, 0], [0, 20]],
}


def _golden_lattice(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "gram": GOLDEN_GRAMS[name]}))
    return str(path)


def _no_h_c(data, c_b, a):
    raise AssertionError("an H_c term was computed")


@pytest.fixture()
def a1_path(tmp_path):
    path = tmp_path / "a1.json"
    path.write_text(json.dumps({"name": "a1", "gram": [[2]]}))
    return str(path)


@pytest.fixture()
def scaled_path(tmp_path):
    path = tmp_path / "a1s.json"
    path.write_text(json.dumps({"name": "a1s", "gram": [[8]]}))
    return str(path)


@pytest.fixture()
def square2_path(tmp_path):
    path = tmp_path / "sq.json"
    path.write_text(json.dumps({"name": "sq", "gram": [[2, 0], [0, 2]]}))
    return str(path)


class TestInfo:
    def test_a1(self, a1_path, capsys):
        assert main(["info", "--lattice", a1_path]) == 0
        out = capsys.readouterr().out
        assert "det   2" in out and "Delta 4" in out and "level 4" in out
        assert out.count("order") == 1  # iso = {0}

    def test_scaled_isotropy(self, scaled_path, capsys):
        assert main(["info", "--lattice", scaled_path]) == 0
        out = capsys.readouterr().out
        assert "(4)" in out  # second isotropic class

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["info", "--lattice", str(path)]) == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "JSONDecodeError"

    def test_output_matches_golden_bytes(self, tmp_path, capsys):
        assert main(["info", "--lattice", _golden_lattice(tmp_path, "square20")]) == 0
        assert capsys.readouterr().out == (DATA / "info_square20.txt").read_text()

    def test_invalid_lattice(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"name": "odd", "gram": [[2, 1], [1, 1]]}))
        assert main(["info", "--lattice", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "OddDiagonalError"


class TestEisensteinCommand:
    def test_exact_values(self, a1_path, tmp_path, capsys):
        out_path = tmp_path / "exp.json"
        code = main([
            "eisenstein", "--lattice", a1_path, "-k", "4", "-r", "0",
            "--n-max", "1", "--mode", "exact", "-o", str(out_path),
        ])
        assert code == 0
        doc = json.loads(out_path.read_text())
        values = sorted(parse_rational(e["value"]) for e in doc["entries"])
        assert values == [1, 56, 126]

    def test_zero_denominator_names_the_form(self, a1_path, capsys):
        assert main(["eisenstein", "--lattice", a1_path, "-k", "4", "--n-max", "1/0"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "'p/q'" in err["message"]

    def test_odd_weight_all_zero(self, a1_path, capsys):
        code = main([
            "eisenstein", "--lattice", a1_path, "-k", "5", "-r", "0",
            "--n-max", "1", "--mode", "exact",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] and all(parse_rational(e["value"]) == 0 for e in doc["entries"])

    def test_byte_stable(self, a1_path, tmp_path):
        paths = []
        for i in (0, 1):
            out_path = tmp_path / f"run{i}.json"
            main([
                "eisenstein", "--lattice", a1_path, "-k", "6", "-r", "0",
                "--n-max", "2", "--mode", "numeric", "--c-max", "40",
                "-o", str(out_path),
            ])
            paths.append(out_path.read_bytes())
        assert paths[0] == paths[1]

    def test_table_format(self, a1_path, capsys):
        code = main([
            "eisenstein", "--lattice", a1_path, "-k", "4", "-r", "0",
            "--n-max", "1", "--mode", "exact", "--format", "table",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "126/1" in out and "56/1" in out

    def test_default_exact_runs_on_shipped_lattices(self):
        # a user's environment: the package location and PATH, no tuning variables
        env = {
            "PATH": os.environ.get("PATH", ""),
            "PYTHONPATH": str(Path(jacobiforms.__file__).resolve().parent.parent),
        }
        paths = sorted((Path(__file__).resolve().parent.parent / "lattices").glob("*.json"))
        assert paths
        for path in paths:
            proc = subprocess.run(
                [sys.executable, "-m", "jacobiforms", "eisenstein", "--lattice", str(path),
                 "-k", "6", "--mode", "exact"],
                capture_output=True, text=True, timeout=300, env=env,
            )
            assert proc.returncode == 0, (path.name, proc.stderr)

    def test_exact_path_never_loads_numpy(self, tmp_path):
        # numpy is bound lazily: importing the package, reading lattices and exact
        # expansions run in Python ints, and only array work executes numpy
        env = {
            "PATH": os.environ.get("PATH", ""),
            "PYTHONPATH": str(Path(jacobiforms.__file__).resolve().parent.parent),
        }
        paths = [str(LATTICES / "a1.json"), str(LATTICES / "a2.json")]
        paths += [_golden_lattice(tmp_path, name) for name in ("A3", "D4", "E8")]
        script = (
            "import os, sys\n"
            "import jacobiforms\n"
            "from jacobiforms import load_lattice_json\n"
            "from jacobiforms.cli import main\n"
            "for path in sys.argv[1:]:\n"
            "    load_lattice_json(path)\n"
            "    args = ['eisenstein', '--lattice', path, '-k', '8', '--mode', 'exact']\n"
            "    assert main(args + ['-o', os.devnull]) == 0, path\n"
            "print('numpy._core' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, *paths],
                              capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_numeric_path_never_loads_numpy(self, tmp_path):
        # numeric Eisenstein c-sums run in Python ints and complexes: Gauss sums
        # on the part of c at the primes of 2 det, Ramanujan sums on the rest
        env = {
            "PATH": os.environ.get("PATH", ""),
            "PYTHONPATH": str(Path(jacobiforms.__file__).resolve().parent.parent),
        }
        paths = [str(LATTICES / "a1.json"), str(LATTICES / "a2.json")]
        paths += [_golden_lattice(tmp_path, name) for name in ("A3", "D4")]
        script = (
            "import os, sys\n"
            "from jacobiforms.cli import main\n"
            "for path in sys.argv[1:]:\n"
            "    args = ['eisenstein', '--lattice', path, '-k', '8', '--mode', 'numeric',\n"
            "            '--n-max', '1', '--c-max', '300']\n"
            "    assert main(args + ['-o', os.devnull]) == 0, path\n"
            "print('numpy._core' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, *paths],
                              capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_malformed_class_names_the_form(self, a1_path, capsys):
        assert main(["eisenstein", "--lattice", a1_path, "-k", "6", "-r", "x"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "'a,b,...'" in err["message"]

    def test_over_limit_c_sum_exits_3(self, tmp_path, capsys, monkeypatch):
        # 2 E8 is 0 mod 2, so at c_b = 2^j each of the phi(c_b) units takes
        # 2^(8 floor(j/2)) Gauss-sum leaves: refused before the first recursion
        monkeypatch.setattr(expsums, "_bad_part", _no_h_c)
        path = tmp_path / "2E8.json"
        path.write_text(json.dumps({"name": "2E8", "gram": [[2 * v for v in row] for row in GOLDEN_GRAMS["E8"]]}))
        code = main([
            "eisenstein", "--lattice", str(path), "-k", "8",
            "--mode", "numeric", "--n-max", "1", "--c-max", "1000",
        ])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ResourceLimitError"
        leaves = sum(c_b // 2 * 2 ** (8 * ((c_b.bit_length() - 1) // 2)) for c_b, _ in walk_keys(2**8, 1000))
        assert f" {leaves} leaves" in err["message"]

    def test_numeric_output_matches_golden_bytes(self, tmp_path):
        out_path = tmp_path / "out.json"
        code = main([
            "eisenstein", "--lattice", str(LATTICES / "a1_scaled4.json"), "-k", "6", "-r", "4",
            "--mode", "numeric", "--n-max", "2", "--c-max", "60", "-o", str(out_path),
        ])
        assert code == 0
        assert out_path.read_bytes() == (DATA / "eisenstein_a1_scaled4_k6_r4_numeric.json").read_bytes()

    @pytest.mark.parametrize("name, k", [("A3", 8), ("D4", 6), ("E8", 10)])
    def test_exact_output_matches_golden_bytes(self, name, k, tmp_path):
        out_path = tmp_path / "out.json"
        code = main([
            "eisenstein", "--lattice", _golden_lattice(tmp_path, name), "-k", str(k),
            "--mode", "exact", "--n-max", "3", "-o", str(out_path),
        ])
        assert code == 0
        assert out_path.read_bytes() == (DATA / f"eisenstein_{name}_k{k}_n3_exact.json").read_bytes()

    def test_large_weight_exits_3_before_any_h_c(self, a1_path, capsys, monkeypatch):
        monkeypatch.setattr(expsums, "_bad_part", _no_h_c)
        code = main([
            "eisenstein", "--lattice", a1_path, "-k", "400", "--mode", "numeric",
            "--n-max", "1", "--c-max", "10",
        ])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "OutOfRangeError"
        assert "k=400" in err["message"]

    def test_zero_coefficients_pass_the_tail_guard(self, tmp_path, capsys):
        # the order-4 relation makes every odd-y coefficient exactly 0, which a
        # guard relative to |value| alone could never pass
        path = tmp_path / "a1s16.json"
        path.write_text(json.dumps({"name": "a1s16", "gram": [[32]]}))
        code = main([
            "eisenstein", "--lattice", str(path), "-k", "6", "-r", "8",
            "--mode", "numeric", "--n-max", "1", "--c-max", "400",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        lattice = jacobiforms.make_lattice([[32]])
        group = lattice.disc_group
        x8 = group.element((8,))
        checked = 0
        for entry in doc["entries"]:
            D = parse_rational(entry["D"])
            if D == 0:
                continue
            y = group.element(entry["x"])
            exact = jacobiforms.nontrivial_from_trivial(lattice, 6, x8, D, y)
            assert abs(entry["value"]["re"] - float(exact)) <= doc["tail_estimate"] + 1e-9
            checked += 1
        assert checked == 32


class TestPoincareCommand:
    def test_convergence_domain_exit(self, square2_path, capsys):
        code = main([
            "poincare", "--lattice", square2_path, "-k", "4", "-D=-1",
            "-r", "0,0", "--n-max", "1", "--c-max", "10",
        ])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ConvergenceDomainError"

    def test_rank_one_weight_ten(self, a1_path, capsys):
        code = main([
            "poincare", "--lattice", a1_path, "-k", "10", "-D=-3/4",
            "-r", "1", "--n-max", "1", "--c-max", "60",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["series"] == "poincare"
        assert all(parse_rational(e["D"]) < 0 for e in doc["entries"])

    def test_numeric_output_matches_golden_bytes(self, tmp_path):
        out_path = tmp_path / "out.json"
        code = main([
            "poincare", "--lattice", str(LATTICES / "a2.json"), "-k", "10", "-D=-2/3",
            "-r", "1", "--n-max", "1", "--c-max", "40", "-o", str(out_path),
        ])
        assert code == 0
        assert out_path.read_bytes() == (DATA / "poincare_a2_k10_D-2_3_r1.json").read_bytes()

    def test_large_weight_exits_3_before_any_h_c(self, a1_path, capsys, monkeypatch):
        # Gamma(k - rank/2) overflows a float; the Bessel series and the tail divide by it
        monkeypatch.setattr(expsums, "_bad_part", _no_h_c)
        code = main([
            "poincare", "--lattice", a1_path, "-k", "200", "-D=-1",
            "-r", "0", "--n-max", "1", "--c-max", "10",
        ])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "OutOfRangeError"
        assert "k=200" in err["message"]

    @pytest.mark.parametrize("flag", ["-D=-3/0", "-D=x", "-D=-1/"])
    def test_malformed_rational_names_the_form(self, a1_path, capsys, flag):
        args = ["poincare", "--lattice", a1_path, "-k", "10", "-D=-1", "-r", "0", "--c-max", "10"]
        assert main([*args, flag]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "'p/q'" in err["message"]

    def test_past_the_old_bessel_cap(self, a1_path, capsys):
        # 4 pi sqrt(D D') reaches 20 pi * sqrt(3) at c = 1, past the former cap of 60
        code = main(["poincare", "--lattice", a1_path, "-k", "10", "-D=-25", "-r", "0", "--n-max", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] and doc["tail_estimate"] < 1e-12

    def test_malformed_class_names_the_form(self, a1_path, capsys):
        assert main(["poincare", "--lattice", a1_path, "-k", "10", "-D=-1/4", "-r", "1,x"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "'a,b,...'" in err["message"]

    def test_delta_terms_only_is_strict_json(self, a1_path, capsys):
        # at --c-max 0 no series is summed: the tail is null, never Infinity
        code = main([
            "poincare", "--lattice", a1_path, "-k", "10", "-D=-1",
            "-r", "0", "--n-max", "1", "--c-max", "0",
        ])
        assert code == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["tail_estimate"] is None
        assert [e["value"]["re"] for e in doc["entries"] if parse_rational(e["D"]) == -1] == [2.0]


class TestRepCommand:
    def test_generators_default(self, a1_path, capsys):
        assert main(["rep", "--lattice", a1_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        labels = [m["label"] for m in doc["matrices"]]
        assert labels == ["T", "S"]
        t_matrix = doc["matrices"][0]["matrix"]
        assert t_matrix[1][1] == {"re": 0.0, "im": 1.0}

    def test_word_and_legend(self, a1_path, capsys):
        assert main(["rep", "--lattice", a1_path, "--word", "T,T^-1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matrices"][0]["index"] == [[0], [1]]

    def test_averaging_output_matches_golden_bytes(self, tmp_path):
        out_path = tmp_path / "out.json"
        code = main(["rep", "--lattice", str(LATTICES / "a1_scaled4.json"), "--avg", "4",
                     "-o", str(out_path)])
        assert code == 0
        assert out_path.read_bytes() == (DATA / "rep_a1_scaled4_avg4.json").read_bytes()

    def test_format_option_rejected(self, a1_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rep", "--lattice", a1_path, "--format", "table"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1", "1;a,b,c", "1;2,1", "1;2,1,3,4", "a;2,1,3", "1;2;1,3"])
    def test_malformed_schrodinger_names_the_form(self, a1_path, capsys, text):
        assert main(["rep", "--lattice", a1_path, "--schrodinger", text]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "'x-coords;lam,mu,t'" in err["message"]

    def test_gathers_never_load_numpy(self, tmp_path):
        # rho(T), rho(S), sigma_x and the averaging operator are gathers in Python
        # complexes, and the default rep prints rho(T) and rho(S) as gathered; a
        # product of matrices (a word) executes numpy
        env = {
            "PATH": os.environ.get("PATH", ""),
            "PYTHONPATH": str(Path(jacobiforms.__file__).resolve().parent.parent),
        }
        script = (
            "import os, sys\n"
            "import jacobiforms\n"
            "from jacobiforms.cli import main\n"
            "def loaded():\n"
            "    return any(name in sys.modules for name in ('numpy._core', 'numpy.core'))\n"
            "for path, args in (\n"
            "        (sys.argv[1], []), (sys.argv[2], []),\n"
            "        (sys.argv[1], ['--avg', '4', '--schrodinger', '4;1,1,0']),\n"
            "        (sys.argv[2], ['--schrodinger', '4,12;2,1,3', '--avg', '10,10'])):\n"
            "    assert main(['rep', '--lattice', path, *args, '-o', os.devnull]) == 0, path\n"
            "lattice = jacobiforms.load_lattice_json(sys.argv[2])[1]\n"
            "[jacobiforms.rho_generator(lattice, g).rows for g in ('T', 'S')]\n"
            "print(loaded())\n"
            "jacobiforms.rho_word(lattice, ['S', 'T'])\n"
            "print(loaded())\n"
        )
        paths = [str(LATTICES / "a1_scaled4.json"), _golden_lattice(tmp_path, "square20")]
        proc = subprocess.run([sys.executable, "-c", script, *paths],
                              capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\nTrue\n"

    def test_malformed_avg_names_the_form(self, a1_path, capsys):
        assert main(["rep", "--lattice", a1_path, "--avg", "a"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "'a,b,...'" in err["message"]


# floats whose text json and repr treat apart: signed zero, non-finite values,
# subnormals, and the edges of repr's switch to exponent form (1e16, 1e-5)
_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                1e16, 9999999999999998.0, -1e16, 1e-5, 0.0001, 9.999999999999999e-06, 0.5, -0.7071067811865476]
# text that a lattice name or label may carry: JSON escapes, non-ASCII, %-format
# directives and pieces of the document's own layout
_EDGE_TEXT = ['"', "\\", 'a"b\\c', "\u00e9\u6f22\U0001f600", "\n", "%s", "%", '"matrix": [',
              '\n      "matrix": [', "NaN", "Infinity", "{}", ""]


@st.composite
def _rep_docs(draw):
    texts = st.one_of(st.sampled_from(_EDGE_TEXT), st.text(max_size=12))
    index = st.lists(st.lists(st.integers(-5, 5), max_size=2), min_size=1, max_size=3)
    docs = []
    for _ in range(draw(st.integers(1, 3))):
        rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        parts = draw(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()),
                              min_size=2 * rows * cols, max_size=2 * rows * cols))
        matrix = np.empty((rows, cols), dtype=complex)
        matrix.real.flat, matrix.imag.flat = parts[::2], parts[1::2]
        docs.append((draw(texts), draw(index), matrix))
    return draw(texts), docs


class TestRepRendering:
    @given(_rep_docs())
    @settings(max_examples=150, deadline=None)
    def test_chunks_join_to_the_dict_route(self, doc):
        name, docs = doc
        chunks = _rep_chunks(name, [{"label": label, "index": index, "matrix": matrix}
                                    for label, index, matrix in docs])
        assert "".join(chunks) == rep_document_json(name, docs)


# (gram, rep arguments) at the sizes of the benchmark: |G| = 400, irrational
# entries at |G| = 108, and two matrices in one document at |G| = 64
_REP_RUNS = {
    "square20_schrodinger": ([[20, 0], [0, 20]], ["--schrodinger", "4,12;2,1,3"]),
    "a2_scaled6_word": ([[12, 6], [6, 12]], ["--word", "S,T"]),
    "a1_scaled32_avg_schrodinger": ([[64]], ["--avg", "16", "--schrodinger", "16;1,2,0"]),
}


def _rep_oracle_docs(gram, args):
    """(label, index, matrix) per matrix of the rep run, in the CLI's order: word, schrodinger, avg."""
    lattice = make_lattice(gram)
    group = lattice.disc_group
    opts = dict(zip(args[::2], args[1::2]))
    reps = []
    if "--word" in opts:
        reps.append(rho_word(lattice, opts["--word"].split(",")))
    if "--schrodinger" in opts:
        coords, triple = opts["--schrodinger"].split(";")
        x = group.element(tuple(int(v) for v in coords.split(",")))
        reps.append(schrodinger_matrix(lattice, x, *(int(v) for v in triple.split(","))))
    if "--avg" in opts:
        reps.append(averaging_matrix(lattice, group.element((int(opts["--avg"]),))))
    return [(rep.label, group.coords.tolist(), rep.matrix) for rep in reps]


@pytest.fixture(scope="module", params=sorted(_REP_RUNS))
def rep_run(request, tmp_path_factory):
    gram, args = _REP_RUNS[request.param]
    path = tmp_path_factory.mktemp("rep") / f"{request.param}.json"
    path.write_text(json.dumps({"name": request.param, "gram": gram}))
    docs = _rep_oracle_docs(gram, args)
    return str(path), args, docs, rep_document_json(request.param, docs) + "\n"


class _WriteRecorder:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return len(text)


class TestRepAtScale:
    def test_stdout_matches_the_dict_route(self, rep_run, monkeypatch):
        path, args, docs, want = rep_run
        out = _WriteRecorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["rep", "--lattice", path, *args]) == 0
        assert "".join(out.chunks) == want
        # no write holds more than the shell and one row (the longest) of each matrix
        def text_length(row):
            return len(repr(row.real.tolist() + row.imag.tolist()))

        longest = [(label, index, max(m, key=text_length)[None]) for label, index, m in docs]
        name = json.loads(Path(path).read_text())["name"]
        assert max(map(len, out.chunks)) <= len(rep_document_json(name, longest))
        assert len(out.chunks) > sum(len(m) for _, _, m in docs)

    def test_output_file_matches_the_dict_route(self, rep_run, tmp_path):
        path, args, _, want = rep_run
        out_path = tmp_path / "out.json"
        assert main(["rep", "--lattice", path, *args, "-o", str(out_path)]) == 0
        assert out_path.read_bytes() == want.encode()
        assert os.listdir(tmp_path) == ["out.json"]


class TestVerifyCommand:
    def test_exp_sums_suite(self, capsys):
        assert main(["verify", "exp_sums"]) == 0
        out = capsys.readouterr().out
        assert "kloosterman decomposition: ok" in out

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "jacobiforms", "verify", "poincare"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "passed, 0 failed" in proc.stdout


_DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


class TestDemos:
    @pytest.mark.parametrize("demo", _DEMOS, ids=[p.name for p in _DEMOS])
    def test_demo_runs(self, demo, tmp_path):
        env = {
            "PATH": os.environ.get("PATH", ""),
            "PYTHONPATH": str(Path(jacobiforms.__file__).resolve().parent.parent),
        }
        proc = subprocess.run(
            [sys.executable, str(demo)],
            capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
