"""Write references.json: the output of every request in every workload pool.

    python3 perfbench/make_refs.py

Run from the repository root, once, at the commit whose outputs are the
reference; the benchmark never makes references in a measured run.  The
enumeration budget is raised here, so requests that exit 3 under the default
budget still get a reference for the day they succeed.  Index-1 exact outputs
are also checked against the Eichler-Zagier values before they are stored.
"""

import json
import os
import sys

import checks
import workloads
from run import HERE, PROBES, Runner, _git_sha

RAISED_BUDGET = "2000000000"


def main():
    root = os.getcwd()
    runner = Runner(root, {})
    runner.env["JLF_ENUM_BUDGET"] = RAISED_BUDGET
    out_path = os.path.join(runner.work, "ref.out")
    refs = {"made_at": _git_sha(root)}
    probes = [workloads.make_request("probe", *request) for request, _ in PROBES]
    for workload in workloads.WORKLOADS:
        for req in workloads.pool(workload) + probes:
            if req["key"] in refs:
                continue
            rc, wall, _ = runner.spawn(runner.command(req), out_path)
            if rc != 0:
                print(f"exit {rc} after {wall:.1f} s: {req['key']}", file=sys.stderr)
                continue
            with open(out_path) as fh:
                doc = json.load(fh)
            refs[req["key"]] = checks.reference(req, doc)
            print(f"{wall:7.1f} s  {req['key']}", flush=True)
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        # one request per line
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                    for k, v in sorted(refs.items())) + "\n}\n")


if __name__ == "__main__":
    main()
