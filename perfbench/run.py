"""jacobiforms benchmark: CLI requests in a closed loop with one client.

    python3 perfbench/run.py --workload exact-trivial --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each request is one `python3 -m jacobiforms`
process, started only after the previous one has ended, with the package taken
from ./src and the environment users get (no JLF_ENUM_BUDGET).  The seed picks
each slot's parameters (see workloads.py); whole passes over the slots run
until --seconds is reached.  Every output is checked (checks.py) before the
next request starts.

--trace 0 prints the end-to-end metrics; --trace 1 runs each request once
plainly and once under traced_cli.py and prints the per-layer metrics.
--workload all runs every workload both ways.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

import mpmath
import numpy as np

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REQUEST_TIMEOUT_S = 120
SETUP_REPS = 3
MB = 1024.0  # ru_maxrss is in KiB on Linux

END_TO_END = {
    "items_per_s": "1/s",
    "req_s_p50": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "setup_s": "s",
}
PER_LAYER = {
    "lattice.make_lattice.s": "s",
    "lattice.make_lattice.calls": "count",
    "lattice.disc_group.size": "count",
    "lattice.enumerate_supp.s": "s",
    "lattice.enumerate_supp.indices": "count",
    "numbertheory.bessel_j.s": "s",
    "numbertheory.bessel_j.calls": "count",
    "numbertheory.bessel_j.mp_calls": "count",
    "numbertheory.dirichlet_L.s": "s",
    "numbertheory.dirichlet_L.calls": "count",
    "expsums.h_c.s": "s",
    "expsums.h_c.calls": "count",
    "expsums.h_c.points": "count",
    "expsums.kvec_cache.hits": "count",
    "expsums.kvec_cache.misses": "count",
    "expsums.kvec_cache.hit_ratio": "ratio",
    "expsums.rep_count.s": "s",
    "expsums.rep_count.calls": "count",
    "expsums.rep_count.new_keys": "count",
    "expsums.rep_count.points": "count",
    "expsums.local_factor.s": "s",
    "expsums.local_factor.calls": "count",
    "eisenstein.exact_coeff.s": "s",
    "eisenstein.exact_coeff.calls": "count",
    "eisenstein.numeric_coeff.s": "s",
    "eisenstein.numeric_coeff.calls": "count",
    "eisenstein.expansion.s": "s",
    "poincare.coeff.s": "s",
    "poincare.coeff.calls": "count",
    "poincare.expansion.s": "s",
    "weilrep.rho_generator.s": "s",
    "weilrep.rho_generator.calls": "count",
    "weilrep.rho_word.s": "s",
    "weilrep.schrodinger.s": "s",
    "weilrep.schrodinger.calls": "count",
    "weilrep.averaging.s": "s",
    "weilrep.averaging.calls": "count",
    "weilrep.matrix_dim": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "cli.exit_nonzero": "count",
    "trace.overhead_s": "s",
}

# Self-check of the traced run: small requests whose span counts follow by
# hand from their arguments.  a1 = [[2]] has classes x = 0 (beta 0) and
# x = 1 (beta 1/4); --n-max 1 gives the D < 0 indices (-1, 0) and (-3/4, 1),
# --n-max 2 adds (-2, 0) and (-7/4, 1).
PROBES = [
    # 2 entries x c_max 20: one H_c term and one Bessel value per (entry, c)
    (("a1", "poincare", ["-k", "10", "-D=-3/4", "-r", "1", "--n-max", "1", "--c-max", "20"]),
     {"poincare.coeff.calls": 2, "expsums.h_c.calls": 40, "numbertheory.bessel_j.calls": 40,
      "expsums.h_c.points": 2 * sum(range(1, 21)), "lattice.enumerate_supp.indices": 3}),
    (("a1", "eisenstein", ["-k", "6", "--mode", "numeric", "--n-max", "1", "--c-max", "20"]),
     {"eisenstein.numeric_coeff.calls": 2, "expsums.h_c.calls": 40,
      "numbertheory.bessel_j.calls": 0}),
    # 4 entries; odd rank takes one L-value each; bad primes divide 2 Dt det
    # with Dt = D ord(x)^2 = -1, -2, -3, -7: {2}, {2}, {2,3}, {2,7}
    (("a1", "eisenstein", ["-k", "6", "--mode", "exact", "--n-max", "2"]),
     {"eisenstein.exact_coeff.calls": 4, "numbertheory.dirichlet_L.calls": 4,
      "expsums.local_factor.calls": 6, "expsums.h_c.calls": 0}),
    # default rep: rho(T) and rho(S)
    (("a1", "rep", []), {"weilrep.rho_generator.calls": 2, "weilrep.schrodinger.calls": 0}),
    # x = 4 in Z_8 has order N = 2: N^4 = 16 Schroedinger matrices, plus one
    (("a1_scaled4", "rep", ["--avg", "4", "--schrodinger", "4;1,1,0"]),
     {"weilrep.averaging.calls": 1, "weilrep.schrodinger.calls": 17,
      "weilrep.matrix_dim": 8}),
]


class Runner:
    """Runs CLI requests from one checkout and checks their outputs."""

    def __init__(self, root, refs):
        self.root = root
        self.refs = refs
        self.work = os.path.join(root, "perfbench", ".work")
        os.makedirs(self.work, exist_ok=True)
        workloads.write_lattices(root)
        self.env = dict(os.environ)
        self.env.pop("JLF_ENUM_BUDGET", None)
        self.env["PYTHONPATH"] = os.path.join(root, "src")

    def command(self, req, spans_path=None):
        head = [sys.executable, "-m", "jacobiforms"]
        if spans_path:
            head = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path]
        return head + [req["verb"], "--lattice",
                       workloads.lattice_path(self.root, req["lattice"])] + req["args"]

    def spawn(self, cmd, stdout_path):
        """Run one process; return (exit code, wall seconds, peak RSS KiB of that child)."""
        err_path = stdout_path + ".err"
        with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            killer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def run(self, req, spans_path=None):
        """Run and check one request; the result record goes into the run file."""
        out_path = os.path.join(self.work, "traced.out" if spans_path else "plain.out")
        rc, wall, rss = self.spawn(self.command(req, spans_path), out_path)
        rec = {"key": req["key"], "traced": bool(spans_path), "exit": rc, "wall_s": wall,
               "rss_kb": rss, "bytes_out": os.path.getsize(out_path), "items": 0,
               "ok": False, "mismatch": None, "error": None}
        if rc != 0:
            rec["error"] = _error_name(out_path + ".err")
            return rec
        try:
            with open(out_path) as fh:
                doc = json.load(fh)
            rec["items"] = self.check(req, doc)
            rec["ok"] = True
        except (checks.CheckError, ValueError, KeyError, TypeError) as exc:
            rec["mismatch"] = f"{type(exc).__name__}: {exc}"
        return rec

    def check(self, req, doc):
        ref = self.refs.get(req["key"])
        if ref is None:
            raise checks.CheckError("no reference for this request")
        return checks.check_request(req, doc, ref, workloads.avg_order(req))

    def setup_seconds(self, lattices):
        """Cold start + import + load_lattice_json: median over lattices of the median of reps."""
        script = ("import sys, jacobiforms; jacobiforms.load_lattice_json(sys.argv[1]);"
                  " sys.exit(not jacobiforms.__file__.startswith(sys.argv[2]))")
        samples = {name: [] for name in lattices}
        out_path = os.path.join(self.work, "setup.out")
        for _ in range(SETUP_REPS):
            for name in lattices:
                cmd = [sys.executable, "-c", script, workloads.lattice_path(self.root, name),
                       os.path.join(self.root, "src")]
                rc, wall, _ = self.spawn(cmd, out_path)
                if rc != 0:
                    raise SystemExit(f"set-up failed on {name}: see {out_path}.err")
                samples[name].append(wall)
        return statistics.median(statistics.median(s) for s in samples.values()), samples


def _error_name(err_path):
    with open(err_path) as fh:
        text = fh.read().strip()
    try:
        return json.loads(text.splitlines()[-1])["error"]
    except (ValueError, IndexError, KeyError, TypeError):
        return text[-200:] or "no message"


def _passes(seconds, run_pass):
    """Run whole passes while the next one is expected to end near the deadline."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        run_pass()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + 0.5 * statistics.mean(durations) >= seconds:
            return len(durations), time.perf_counter() - start


def end_to_end(runner, requests, seconds):
    lattices = sorted({r["lattice"] for r in requests})
    setup_s, setup_samples = runner.setup_seconds(lattices)
    records = []
    n_passes, elapsed = _passes(seconds, lambda: records.extend(runner.run(r) for r in requests))
    ok = [r for r in records if r["ok"]]
    walls = sorted(r["wall_s"] if r["ok"] else float("inf") for r in records)
    metrics = {
        "items_per_s": sum(r["items"] for r in ok) / sum(r["wall_s"] for r in records),
        "req_s_p50": statistics.median(walls),
        "peak_rss_mb": max(r["rss_kb"] for r in records) / MB,
        "ok_frac": len(ok) / len(records),
        "setup_s": setup_s,
    }
    samples = {
        "items_per_s": f"{sum(r['items'] for r in ok)} items in {len(records)} requests, "
                       f"{sum(r['wall_s'] for r in records):.2f} s of request time",
        "req_s_p50": f"{len(records)} requests, {len(records) - len(ok)} counted as infinite",
        "peak_rss_mb": f"max over {len(records)} request processes",
        "ok_frac": f"{len(ok)} of {len(records)} requests exited 0 and passed the check",
        "setup_s": f"{SETUP_REPS} cold starts on each of {len(lattices)} lattices",
    }
    extra = {"passes": n_passes, "elapsed_s": elapsed, "setup_samples": setup_samples}
    return records, metrics, samples, extra


def _self_times(spans):
    """Self time per span: duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for sid, parent, _, start, end, _ in spans:
        if parent is not None and end is not None:
            child[parent] += end - start
    return [(s[2], s[4] - s[3] - child[s[0]], s[5]) for s in spans if s[4] is not None]


# sizes are reported as the largest seen; every other counter is summed
SIZE_COUNTERS = {"disc_group_size": "lattice.disc_group.size", "dim": "weilrep.matrix_dim"}


def layer_totals(span_docs, traced):
    """Per-layer counters summed over traced requests; kvec_cache hits and misses
    are summed too, and the hit ratio is left to the caller."""
    m = dict.fromkeys(PER_LAYER, 0)
    for doc in span_docs:
        for name, self_s, counters in _self_times(doc["spans"]):
            if name == "cli.main":
                m["cli.self_s"] += self_s
                continue
            m[f"{name}.s"] = m.get(f"{name}.s", 0) + self_s
            m[f"{name}.calls"] = m.get(f"{name}.calls", 0) + 1
            for key, value in counters.items():
                if key in SIZE_COUNTERS:
                    m[SIZE_COUNTERS[key]] = max(m[SIZE_COUNTERS[key]], value)
                else:
                    m[f"{name}.{key}"] = m.get(f"{name}.{key}", 0) + value
        kvec = doc["caches"].get("kvec_cache")
        if kvec:
            m["expsums.kvec_cache.hits"] += kvec["hits"]
            m["expsums.kvec_cache.misses"] += kvec["misses"]
    m["cli.bytes_out"] = sum(r["bytes_out"] for r in traced)
    m["cli.exit_nonzero"] = sum(r["exit"] != 0 for r in traced)
    return {name: m[name] for name in PER_LAYER}


def traced(runner, requests, seconds):
    """Self-check probes, then passes of (plain, traced) pairs; per-layer metrics.

    Each metric is the probes' figure plus the figure of one pass (the sum over
    the passes divided by their number), so it does not depend on how many
    passes fit in --seconds.  The probes are a fixed part: every layer is
    called at least once, and its time never reads exactly 0.
    """
    records, problems = [], []
    spans_path = os.path.join(runner.work, "spans.json")

    def traced_run(req):
        rec = runner.run(req, spans_path)
        with open(spans_path) as fh:
            doc = json.load(fh)
        if doc["missing"]:
            problems.append(f"not traced: {', '.join(doc['missing'])}")
        records.append(rec)
        return rec, doc

    probe_docs, probe_recs = [], []
    for (lattice, verb, args), expected in PROBES:
        req = workloads.make_request("probe", lattice, verb, args)
        rec, doc = traced_run(req)
        probe_docs.append(doc)
        probe_recs.append(rec)
        got = layer_totals([doc], [rec])
        for name, want in expected.items():
            if got[name] != want:
                problems.append(f"self-check {req['key']}: {name} = {got[name]}, expected {want}")

    pass_docs, pass_recs = [], []
    walls = {False: 0.0, True: 0.0}

    def run_pass():
        # plain and traced runs alternate in order, so neither gains from the other's warm caches
        for i, req in enumerate(requests):
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    rec, doc = traced_run(req)
                    pass_docs.append(doc)
                    pass_recs.append(rec)
                else:
                    rec = runner.run(req)
                    records.append(rec)
                walls[with_trace] += rec["wall_s"]

    n_passes, elapsed = _passes(seconds, run_pass)
    fixed = layer_totals(probe_docs, probe_recs)
    summed = layer_totals(pass_docs, pass_recs)
    metrics = {name: max(fixed[name], summed[name]) if name in SIZE_COUNTERS.values()
               else fixed[name] + summed[name] / n_passes for name in PER_LAYER}
    hits, misses = metrics["expsums.kvec_cache.hits"], metrics["expsums.kvec_cache.misses"]
    metrics["expsums.kvec_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["trace.overhead_s"] = (walls[True] - walls[False]) / n_passes
    samples = {"trace.overhead_s": f"traced minus plain wall time of one pass of "
                                   f"{len(requests)} requests, mean of {n_passes}"}
    extra = {"passes": n_passes, "elapsed_s": elapsed, "problems": problems}
    return records, metrics, samples, extra


def run_context(root, workload, seed, seconds, trace, requests):
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(root), "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(), "numpy": np.__version__,
        "mpmath": mpmath.__version__, "requests": requests,
    }


def _git_sha(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_one(runner, workload, seed, seconds, trace):
    requests = workloads.generate(workload, seed)
    context = run_context(runner.root, workload, seed, seconds, trace, requests)
    records, metrics, samples, extra = (traced if trace else end_to_end)(runner, requests, seconds)
    context["loadavg_at_end"] = os.getloadavg()
    mismatches = [r for r in records if r["mismatch"]]
    problems = extra.get("problems", []) + [f"{r['key']}: {r['mismatch']}" for r in mismatches]
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": metrics,
    }
    runs_dir = os.path.join(runner.work, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    record_path = os.path.join(
        runs_dir, f"{workload}-seed{seed}-trace{trace}-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(record_path, "w") as fh:
        json.dump({"context": context, "extra": extra, "problems": problems,
                   "result": result, "records": records}, fh, indent=1)
    units = PER_LAYER if trace else END_TO_END
    failures = Counter(f"exit {r['exit']} {r['error']}" for r in records if r["exit"] != 0)
    print(f"# {workload} seed={seed} trace={trace}: {extra['passes']} passes in "
          f"{extra['elapsed_s']:.1f} s, {result['attempted']} requests, {result['failed']} failed")
    if trace:
        print(f"#   per-layer figures: {len(PROBES)} probe requests + one pass "
              f"(mean of {extra['passes']})")
    for reason, count in sorted(failures.items()):
        print(f"#   {count} x {reason}")
    for problem in problems:
        print(f"#   PROBLEM {problem}")
    for name, value in metrics.items():
        note = f"  ({samples[name]})" if name in samples else ""
        print(f"{workload:>15} {name:<34} {value:>16.6g} {units[name]}{note}")
    print(f"#   run record: {os.path.relpath(record_path, runner.root)}")
    return result, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "jacobiforms", "__init__.py")):
        print("run from the repository root: src/jacobiforms is missing", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "references.json")) as fh:
        runner = Runner(root, json.load(fh))
    if args.workload != "all":
        result, units = run_one(runner, args.workload, args.seed, args.seconds, args.trace)
        result["metrics"] = {k: {"value": v, "unit": units[k]}
                             for k, v in result["metrics"].items()}
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result, units = run_one(runner, workload, args.seed, args.seconds, trace)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for k, v in result["metrics"].items():
                combined["metrics"][f"{workload}.{k}"] = {"value": v, "unit": units[k]}
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
