"""Regenerate ``refs.json``: the reference values the correctness checks
compare against, taken from one pass of every workload at both scales.

    python3 perfbench/make_refs.py [--seed 0]

Run from the root of a source checkout.  References are recorded from
the code as it stands, so regenerate them only on a commit whose outputs
are trusted; every later change is checked against them.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402


def step_refs(step, res):
    if step.command == "isometries":
        return {"cluster_size": res["cluster_size"],
                "bending_ritz": res["bending_ritz"]}
    if step.command == "minimize":
        return {"value": res["value"], "flagged": res["flagged"],
                "iterations": res["iterations"]}
    if step.command == "membrane":
        return {"projection_residual": res["projection_residual"]}
    if step.command == "energy":
        return {"total_I": res["total_I"]}
    return {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    root = Path(os.getcwd()).resolve()
    for key in bench.BLAS_ENV:
        os.environ[key] = bench.BLAS_THREADS
    work = root / "perfbench" / "work" / "refs"
    if work.exists():
        shutil.rmtree(work)
    refs = {}
    for scale in wl.SCALES:
        refs[scale] = {}
        for workload in wl.WORKLOADS:
            passdir = work / scale / workload
            rec = bench.run_pass(workload, scale, args.seed, passdir, root,
                                 False, 0)
            if rec["failures"]:
                raise SystemExit("%s/%s: %s" % (scale, workload,
                                                rec["failures"]))
            results = wl.read_results(workload, passdir)
            wref = {}
            for step in wl.STEPS[workload]:
                wref[step.name] = step_refs(step, results[step.name])
            refs[scale][workload] = wref
            print(scale, workload, "pass wall %.2fs" % rec["wall_s"])
    shutil.rmtree(work)
    (HERE / "refs.json").write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
