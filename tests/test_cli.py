import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jacobiforms
from jacobiforms import expsums, make_lattice
from jacobiforms.cli import _rep_chunks, main
from jacobiforms.rationals import format_rational, parse_rational
from jacobiforms.weilrep import averaging_matrix, rho_word, schrodinger_matrix

from childenv import child_env
from oracles import rep_document_json

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


def _executed(script, args):
    """Run script with args in a fresh interpreter; the names of the modules that executed in it.

    A module bound by `_lazy.lazy_import` (numpy, every submodule of the
    package) sits in sys.modules before it runs, as an instance of a
    LazyLoader subclass of ModuleType, and becomes a plain module when it
    executes.
    """
    env = child_env()
    script += "import types\nprint(*[m for m, v in sys.modules.items() if type(v) is types.ModuleType])\n"
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


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

    def test_never_loads_numpy(self, tmp_path):
        # the isotropy set comes from the beta numerators in Python ints, also at
        # |G| = 400 (square20)
        paths = [str(p) for p in sorted(LATTICES.glob("*.json"))]
        paths += [_golden_lattice(tmp_path, name) for name in ("A3", "D4", "E8", "square20")]
        script = (
            "import contextlib, io, sys\n"
            "from jacobiforms.cli import main\n"
            "for path in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(['info', '--lattice', path]) == 0, path\n"
        )
        assert "numpy" not in _executed(script, paths)

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

    def test_format_rational_prints_every_digit(self):
        # parts of 5001 and 5002 digits, over Python's default limit of 4300 on
        # int-to-string conversion
        assert format_rational(Fraction(-(10**5000 + 7), 3)) == "-1" + "0" * 4999 + "7/3"
        assert format_rational(Fraction(1, 2 * 10**5001)) == "1/2" + "0" * 5001

    def test_exact_values_past_the_digit_limit(self, a1_path, capsys):
        # k = 1034 is the least weight whose a1 values at --n-max 1 have a part
        # of over 4300 digits: each is printed in full and reads back exactly
        a1 = make_lattice([[2]])
        group = a1.disc_group
        code = main(["eisenstein", "--lattice", a1_path, "-k", "1034", "--mode", "exact", "--n-max", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        parts = [e["value"].split("/") for e in doc["entries"]]
        assert max(len(part.lstrip("-")) for pair in parts for part in pair) > 4300
        got = [Fraction(int(Decimal(num)), int(Decimal(den))) for num, den in parts]
        want = [1] + [jacobiforms.trivial_coefficient_exact(a1, 1034, D, group.element(x))
                      for D, x in ((-1, (0,)), (Fraction(-3, 4), (1,)))]
        assert got == want

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
        env = child_env()
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
        )
        assert "numpy" not in _executed(script, paths)

    def test_numeric_path_never_loads_numpy(self, tmp_path):
        # numeric Eisenstein c-sums run in Python ints and complexes: Gauss sums
        # on the part of c at the primes of 2 det, Ramanujan sums on the rest
        paths = [str(LATTICES / "a1.json"), str(LATTICES / "a2.json")]
        paths += [_golden_lattice(tmp_path, name) for name in ("A3", "D4")]
        script = (
            "import os, sys\n"
            "from jacobiforms.cli import main\n"
            "for path in sys.argv[1:]:\n"
            "    args = ['eisenstein', '--lattice', path, '-k', '8', '--mode', 'numeric',\n"
            "            '--n-max', '1', '--c-max', '300']\n"
            "    assert main(args + ['-o', os.devnull]) == 0, path\n"
        )
        assert "numpy" not in _executed(script, paths)

    def test_infinite_tail_exits_3_before_any_h_c(self, tmp_path, capsys, monkeypatch):
        # on E8 + E8 the a-priori tail is infinite for every k <= rank + 1 = 17:
        # refused before the first term, not after summing the whole c-sum
        monkeypatch.setattr(expsums, "_bad_part", _no_h_c)
        monkeypatch.setattr(expsums, "_good_part", _no_h_c)
        e8 = GOLDEN_GRAMS["E8"]
        gram = [row + [0] * 8 for row in e8] + [[0] * 8 + row for row in e8]
        path = tmp_path / "E8x2.json"
        path.write_text(json.dumps({"name": "E8x2", "gram": gram}))
        code = main([
            "eisenstein", "--lattice", str(path), "-k", "12", "--mode", "numeric",
            "--n-max", "1", "--c-max", "200",
        ])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TailTooLargeError"
        assert "tail estimate inf at k=12, rank 16" in err["message"]

    def test_rank_24_exact_runs(self, tmp_path, capsys):
        # E8^3 is unimodular of rank 24: J_{16,E8^3} = M_4, so the exact series is E_4.
        # Its nodes at p = 2 read the Arf invariant of beta mod 2, not 2^24 points
        e8 = GOLDEN_GRAMS["E8"]
        gram = [[e8[i % 8][j % 8] if i // 8 == j // 8 else 0 for j in range(24)] for i in range(24)]
        path = tmp_path / "E8x3.json"
        path.write_text(json.dumps({"name": "E8x3", "gram": gram}))
        code = main(["eisenstein", "--lattice", str(path), "-k", "16", "--mode", "exact", "--n-max", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [parse_rational(e["value"]) for e in doc["entries"]] == [1, 240, 2160, 6720]

    def test_malformed_class_names_the_form(self, a1_path, capsys):
        assert main(["eisenstein", "--lattice", a1_path, "-k", "6", "-r", "x"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "'a,b,...'" in err["message"]

    def test_two_d4_c_sum_at_default_c_max_exits_0(self, tmp_path, capsys):
        # 2 D4 is 0 mod 2 on its diagonal, with a radical of dimension 4 mod 2:
        # its Gauss sums at q = 2^j are closed forms over the Jordan splitting, so
        # the default c-max runs, with the singular term 1 and a finished tail
        path = tmp_path / "2D4.json"
        path.write_text(json.dumps({"name": "2D4", "gram": [[4, -2, 0, 0], [-2, 4, -2, -2],
                                                             [0, -2, 4, 0], [0, -2, 0, 4]]}))
        code = main(["eisenstein", "--lattice", str(path), "-k", "8", "--mode", "numeric"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"][0]["value"] == "1/1"
        assert len(doc["entries"]) > 1 and all(math.isfinite(e["value"]["re"]) for e in doc["entries"][1:])
        assert doc["tail_estimate"] < 1e-3
        # 2 E8 at k = 10, once refused before its c-sum, now sums it and refuses its tail
        path = tmp_path / "2E8.json"
        path.write_text(json.dumps({"name": "2E8", "gram": [[2 * v for v in row] for row in GOLDEN_GRAMS["E8"]]}))
        code = main(["eisenstein", "--lattice", str(path), "-k", "10", "--mode", "numeric", "--n-max", "1"])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "TailTooLargeError"

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

    def test_oversized_c_max_exits_3_before_the_table(self, a1_path, capsys, monkeypatch):
        # the H_c table, 16 bytes per target and c, is measured against
        # expsums.H_TABLE_LIMIT before it or any per-c work is allocated
        def no_table(*args):
            raise AssertionError("the H_c table was begun")

        monkeypatch.setattr(expsums, "_HTable", no_table)
        monkeypatch.setattr(expsums, "_sum_data", no_table)
        start = time.perf_counter()
        code = main([
            "eisenstein", "--lattice", a1_path, "-k", "8", "--mode", "numeric",
            "--n-max", "1", "--c-max", "1000000000000",
        ])
        assert time.perf_counter() - start < 1
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ResourceLimitError"
        assert "c_max=1000000000000 for 2 targets takes 32000000000000 bytes" in err["message"]

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

    def test_poincare_path_never_loads_numpy(self, tmp_path):
        # K at D != 0 mod c_g is a CRT product of Salie and Kloosterman sums mod
        # prime powers in Python ints and complexes: no FFT, so no numpy
        runs = [
            (str(LATTICES / "a1.json"), "-3/4", "1"),
            (str(LATTICES / "a2.json"), "-2/3", "2"),
            (str(LATTICES / "a1_scaled4.json"), "-15/16", "7"),
            (_golden_lattice(tmp_path, "A3"), "-5/8", "1"),
        ]
        script = (
            "import os, sys\n"
            "from jacobiforms.cli import main\n"
            "args = sys.argv[1:]\n"
            "for path, D, r in zip(args[::3], args[1::3], args[2::3]):\n"
            "    argv = ['poincare', '--lattice', path, '-k', '10', f'-D={D}', '-r', r,\n"
            "            '--n-max', '1', '--c-max', '150']\n"
            "    assert main(argv + ['-o', os.devnull]) == 0, path\n"
        )
        assert "numpy" not in _executed(script, [v for run in runs for v in run])

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

    @pytest.mark.parametrize("text", ["1", "1;a,b,c", "1;2,1", "1;2,1,3,4", "a;2,1,3", "1;2;1,3", ""])
    def test_malformed_schrodinger_names_the_form(self, a1_path, capsys, text):
        assert main(["rep", "--lattice", a1_path, "--schrodinger", text]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "'x-coords;lam,mu,t'" in err["message"]

    def test_gathers_never_load_numpy(self, tmp_path):
        # rho(T), rho(S), sigma_x, the averaging operator and every word are
        # gathers in Python complexes, and the default rep prints rho(T) and
        # rho(S) as gathered: no rep request executes numpy
        env = child_env()
        script = (
            "import os, sys\n"
            "import jacobiforms\n"
            "from jacobiforms.cli import main\n"
            "def loaded():\n"
            "    return any(name in sys.modules for name in ('numpy._core', 'numpy.core'))\n"
            "for path, args in (\n"
            "        (sys.argv[1], []), (sys.argv[2], []),\n"
            "        (sys.argv[1], ['--avg', '4', '--schrodinger', '4;1,1,0']),\n"
            "        (sys.argv[2], ['--schrodinger', '4,12;2,1,3', '--avg', '10,10']),\n"
            "        (sys.argv[2], ['--word', 'T^-1,S^-1'])):\n"
            "    assert main(['rep', '--lattice', path, *args, '-o', os.devnull]) == 0, path\n"
            "lattice = jacobiforms.load_lattice_json(sys.argv[2])[1]\n"
            "[jacobiforms.rho_generator(lattice, g).rows for g in ('T', 'S')]\n"
            "for word in (['S', 'T'], ['T', 'S'], ['S^-1', 'T^-1'], ['T', 'S', 'T'], ['T', 'T^-1']):\n"
            "    jacobiforms.rho_word(lattice, word)\n"
            "print(loaded())\n"
            "jacobiforms.rho_word(lattice, ['S', 'T', 'S'])\n"
            "print(loaded())\n"
        )
        paths = [str(LATTICES / "a1_scaled4.json"), _golden_lattice(tmp_path, "square20")]
        proc = subprocess.run([sys.executable, "-c", script, *paths],
                              capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\nFalse\n"

    def test_malformed_avg_names_the_form(self, a1_path, capsys):
        assert main(["rep", "--lattice", a1_path, "--avg", "a"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "'a,b,...'" in err["message"]

    def test_empty_avg_exits_2(self, a1_path, capsys):
        # an empty --avg names no class of a1, and is not read as no --avg at all
        assert main(["rep", "--lattice", a1_path, "--avg", ""]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "expected 1 coordinates" in err["message"]

    @pytest.mark.parametrize("text", [",", "", "T,U"])
    def test_malformed_word_exits_2(self, a1_path, capsys, text):
        # an empty word is refused, not read as no --word at all
        assert main(["rep", "--lattice", a1_path, "--word", text]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


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


@st.composite
def _sparse_docs(draw):
    """(label, index, entries, dense equivalent) for 1 to 3 square matrices of sparse rows:
    each row lists a random subset of the columns (none, all, with gaps), by increasing column."""
    parts = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
    docs = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 7))
        matrix = np.zeros((n, n), dtype=complex)
        entries = []
        for i in range(n):
            columns = sorted(draw(st.sets(st.integers(0, n - 1))))
            entries.append([(j, complex(draw(parts), draw(parts))) for j in columns])
            for j, z in entries[-1]:
                matrix[i, j] = z
        docs.append((draw(st.sampled_from(_EDGE_TEXT)), [[i] for i in range(n)], entries, matrix))
    return docs


@st.composite
def _repeating_docs(draw):
    """(label, index, rows) for 1 to 3 matrices of Python complexes drawn from a small
    pool, so that entries repeat, as the same object and as equal copies, and
    0.0 and -0.0 stand in either part of otherwise equal entries."""
    parts = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
    docs = []
    for _ in range(draw(st.integers(1, 3))):
        pool = []
        for re, im in draw(st.lists(st.tuples(parts, parts), min_size=1, max_size=4)):
            pool += [complex(re, im), complex(-re, im), complex(re, -im)]
        rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()),
                              min_size=rows * cols, max_size=rows * cols))
        flat = [complex(pool[i].real, pool[i].imag) if copy else pool[i] for i, copy in picks]
        docs.append((draw(st.sampled_from(_EDGE_TEXT)), [[i] for i in range(rows)],
                     [flat[i * cols:(i + 1) * cols] for i in range(rows)]))
    return docs


class TestRepRendering:
    @given(_rep_docs())
    @settings(max_examples=150, deadline=None)
    def test_chunks_join_to_the_dict_route(self, doc):
        name, docs = doc
        chunks = _rep_chunks(name, [{"label": label, "index": index, "matrix": matrix}
                                    for label, index, matrix in docs])
        assert "".join(chunks) == rep_document_json(name, docs)

    @given(_repeating_docs())
    @example([("S", [[0], [1]], [[complex(0.0, 1.0), complex(-0.0, 1.0)],
                                  [complex(1.0, -0.0), complex(1.0, 0.0)]])])
    @example([("S", [[0]], [[complex(math.nan, 0.0), complex(math.nan, -0.0), complex(-math.inf, math.nan)]])])
    @settings(max_examples=150, deadline=None)
    def test_repeated_entries_render_as_the_dict_route(self, docs):
        # each distinct entry is rendered once per matrix: an entry that equals
        # another in value but not in the sign of a zero part keeps its own text
        chunks = _rep_chunks("dense", [{"label": label, "index": index, "matrix": rows}
                                       for label, index, rows in docs])
        assert "".join(chunks) == rep_document_json("dense", docs)

    @given(_sparse_docs())
    @example([("T", [[0]], [[(0, complex(-0.0, math.nan))]], np.array([[complex(-0.0, math.nan)]]))])
    @example([("S", [[0]], [[]], np.zeros((1, 1), dtype=complex))])
    @settings(max_examples=150, deadline=None)
    def test_sparse_rows_splice_to_the_dense_dict_route(self, docs):
        chunks = _rep_chunks("sparse", [{"label": label, "index": index, "entries": entries}
                                        for label, index, entries, _ in docs])
        dense = [(label, index, matrix) for label, index, _, matrix in docs]
        assert "".join(chunks) == rep_document_json("sparse", dense)


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
    return [(rep.label, [list(c) for c in group.classes()], rep.matrix) for rep in reps]


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

    def flush(self):
        pass


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


# rep requests whose output bytes are pinned by sha256 in data/rep_digests.json: the
# dict route above calls the same rho_word and averaging_matrix as the CLI, so only
# digests recorded before a change to those can catch a change of bits.
_DIGEST_GRAMS = {"a2_scaled6": [[12, 6], [6, 12]], "square20": [[20, 0], [0, 20]],
                 "a1_scaled100": [[200]], "a1_scaled32": [[64]]}
_DIGEST_WORDS = ("S,T", "T,S", "S^-1,T^-1", "T^-1,S^-1")
_DIGEST_RUNS = ([("a2_scaled6", ["--word", w]) for w in _DIGEST_WORDS + ("S,T,S",)]
                + [("square20", ["--word", w]) for w in _DIGEST_WORDS]
                + [("square20", ["--schrodinger", "4,12;2,1,3"]), ("a1_scaled100", ["--avg", "100"]),
                   ("a1_scaled32", ["--avg", "16", "--schrodinger", "16;1,2,0"]), ("a1_scaled32", [])])


class TestRepDigests:
    @pytest.mark.parametrize("name, args", _DIGEST_RUNS, ids=[" ".join([n, *a]) for n, a in _DIGEST_RUNS])
    def test_output_matches_the_pinned_digest(self, name, args, tmp_path):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"name": name, "gram": _DIGEST_GRAMS[name]}))
        out_path = tmp_path / "out.json"
        assert main(["rep", "--lattice", str(path), *args, "-o", str(out_path)]) == 0
        digests = json.loads((DATA / "rep_digests.json").read_text())
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digests[" ".join([name, *args])]


class TestVerifyCommand:
    def test_exp_sums_suite(self, capsys):
        assert main(["verify", "exp_sums"]) == 0
        out = capsys.readouterr().out
        assert "kloosterman decomposition: ok" in out

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "jacobiforms", "verify", "poincare"],
            capture_output=True, text=True, timeout=300, env=child_env(),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "passed, 0 failed" in proc.stdout


# argv with each --lattice name taken from lattices/, and the code main returns for it
_ENTRY_RUNS = [
    (["rep", "--lattice", "a1_scaled4", "--avg", "4", "--schrodinger", "4;1,1,0"], 0),
    (["rep", "--lattice", "a1", "--avg", "a"], 2),
    (["poincare", "--lattice", "square2", "-k", "4", "-D=-1", "-r", "0,0", "--c-max", "10"], 3),
]


def _shipped(argv):
    return [str(LATTICES / f"{a}.json") if flag == "--lattice" else a
            for flag, a in zip([None, *argv], argv)]


class TestEntryPoint:
    @pytest.mark.parametrize("argv, code", _ENTRY_RUNS, ids=[str(code) for _, code in _ENTRY_RUNS])
    def test_module_exits_with_the_code_and_bytes_of_main(self, argv, code, capsys):
        # `python -m jacobiforms` freezes the collector before exit: that must
        # change neither the exit code nor a byte of the output
        argv = _shipped(argv)
        assert main(argv) == code
        captured = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "jacobiforms", *argv],
                              capture_output=True, timeout=300, env=child_env())
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == captured.out.encode()
        assert proc.stderr == captured.err.encode()

    @pytest.mark.parametrize("gram, argv", [([[72]], ["rep", "--schrodinger", "12;1,2,0"]),
                                            ([[2]], ["info"])], ids=["rep", "info"])
    def test_closed_stdout_exits_141_without_an_error(self, gram, argv, tmp_path):
        # the reader of stdout is gone before the first write, as `| head -c 10`
        # leaves a long output: exit 128 + SIGPIPE, as a shell reports it, with
        # nothing on stderr, whether the pipe breaks in a write (the 0.3 MB of
        # the |G| = 72 matrix) or in the last flush (the few lines of `info`)
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps({"name": "lattice", "gram": gram}))
        proc = subprocess.Popen([sys.executable, "-m", "jacobiforms", *argv, "--lattice", str(path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 141
        assert err == b""


_SUMS = {"jacobiforms.expsums", "jacobiforms.repcounts", "jacobiforms.oracles"}
# read by the series modules only: `info` and `rep` never execute them
_SERIES_ONLY = {"jacobiforms.numbertheory", "jacobiforms.modp"}
# request -> (lattice, argv, modules that must execute, modules that must not)
_MODULE_SETS = {
    "eisenstein-exact": ("a2", ["eisenstein", "-k", "8", "--mode", "exact"],
                         {"jacobiforms.eisenstein", "jacobiforms.repcounts"},
                         {"jacobiforms.poincare", "jacobiforms.weilrep", "jacobiforms.expsums",
                          "jacobiforms.oracles", "dataclasses", "mpmath", "numpy"}),
    "eisenstein-numeric": ("a2", ["eisenstein", "-k", "8", "--mode", "numeric", "--n-max", "1",
                                  "--c-max", "100"],
                           {"jacobiforms.eisenstein", "jacobiforms.expsums"},
                           {"jacobiforms.repcounts", "jacobiforms.oracles"}),
    "info": ("square2", ["info"], {"jacobiforms.lattice"},
             {"jacobiforms.weilrep", "jacobiforms.eisenstein", "jacobiforms.poincare", *_SUMS,
              *_SERIES_ONLY, "numpy"}),
    "rep-default": ("a2", ["rep"], {"jacobiforms.weilrep"},
                    {"jacobiforms.eisenstein", "jacobiforms.poincare", *_SUMS, *_SERIES_ONLY}),
    "rep-schrodinger": ("a1_scaled4", ["rep", "--schrodinger", "4;1,1,0"], {"jacobiforms.weilrep"},
                        {"jacobiforms.eisenstein", "jacobiforms.poincare", *_SUMS, *_SERIES_ONLY}),
    "rep-avg": ("a1_scaled4", ["rep", "--avg", "4"], {"jacobiforms.weilrep"},
                {"jacobiforms.eisenstein", "jacobiforms.poincare", *_SUMS, *_SERIES_ONLY}),
    "rep-word": ("a2", ["rep", "--word", "S,T,S"], {"jacobiforms.weilrep"},
                 {"jacobiforms.eisenstein", "jacobiforms.poincare", *_SUMS, *_SERIES_ONLY, "numpy"}),
    "poincare-a1": ("a1", ["poincare", "-k", "10", "-D=-3/4", "-r", "1", "--n-max", "2",
                           "--c-max", "400"],
                    {"jacobiforms.poincare", "jacobiforms.expsums"}, {"mpmath", "numpy"}),
    "poincare-a2": ("a2", ["poincare", "-k", "10", "-D=-2/3", "-r", "1", "--n-max", "1",
                           "--c-max", "150"],
                    {"jacobiforms.poincare", "jacobiforms.expsums"}, {"mpmath", "numpy"}),
}


class TestModulesExecuted:
    @pytest.mark.parametrize("name", sorted(_MODULE_SETS))
    def test_request_executes_only_its_modules(self, name):
        # every submodule is bound lazily, so a request executes the modules its
        # command reads and no other: an exact expansion never the H_c sums, a
        # numeric one never the counts, `rep` neither, `info` and `rep` neither
        # numbertheory nor the node mod p, and a Bessel weight at x <= 64 never
        # mpmath, at half-integer order (a1) or integer order (a2)
        lattice, argv, present, absent = _MODULE_SETS[name]
        script = (
            "import os, sys\n"
            "from jacobiforms.cli import main\n"
            "argv = sys.argv[2:3] + ['--lattice', sys.argv[1]] + sys.argv[3:]\n"
            "assert main(argv + ([] if argv[0] == 'info' else ['-o', os.devnull])) == 0\n"
        )
        executed = _executed(script, [str(LATTICES / f"{lattice}.json"), *argv])
        assert present <= executed, present - executed
        assert not absent & executed, absent & executed


_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestBenchmarkTracer:
    def test_probes_are_traced_with_their_counts(self, tmp_path, monkeypatch):
        # perfbench/traced_cli.py reads the modules by name right after import and
        # rebinds expsums.h_series_terms, rep_count and local_factor wherever they
        # are bound: each probe of perfbench/run.py must find every target and
        # report the counts the probe expects
        monkeypatch.syspath_prepend(str(_PERFBENCH))
        run = importlib.import_module("run")
        env = child_env()
        spans = tmp_path / "spans.json"
        for (lattice, verb, args), expected in run.PROBES:
            proc = subprocess.run(
                [sys.executable, str(_PERFBENCH / "traced_cli.py"), str(spans), verb,
                 "--lattice", str(LATTICES / f"{lattice}.json"), *args],
                capture_output=True, text=True, timeout=300, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            doc = json.loads(spans.read_text())
            assert doc["exit"] == 0 and doc["missing"] == [], doc["missing"]
            got = run.layer_totals([doc], [{"bytes_out": len(proc.stdout), "exit": doc["exit"]}])
            assert {key: got[key] for key in expected} == expected, (verb, args)


_DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


class TestDemos:
    @pytest.mark.parametrize("demo", _DEMOS, ids=[p.name for p in _DEMOS])
    def test_demo_runs(self, demo, tmp_path):
        env = child_env()
        proc = subprocess.run(
            [sys.executable, str(demo)],
            capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
