"""vkshell benchmark: CLI workloads timed end to end, one fresh interpreter
per pass, with an optional traced run for per-layer numbers.

    python3 perfbench/run.py --workload isometry-spectra --seed 1 \\
        --seconds 40 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).
Each pass spawns ``pass_main.py``, which imports vkshell from ``src`` and
runs the workload's CLI calls in process with BLAS pinned to one thread.
A few import-only interpreters add set-up samples; then passes repeat
while the next one is expected to end within ``--seconds``, and every
pass's outputs are checked.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end medians over
untraced passes with ``--trace 0``; with ``--trace 1``, untraced and
traced passes alternate and the metrics are the per-layer medians plus
the tracing overhead.  Lines before it give every metric with its unit,
sample count and tail percentile, the fail ratio and the environment.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

BLAS_THREADS = "1"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
E2E = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
       ("peak_rss_mb", "MB"))
PASS_TIMEOUT_S = 170.0   # a whole run, bound and probes included, ends by then
RUN_CAP_S = 150.0    # start no pass that would end past this
SETUP_PROBES = 3     # import-only interpreters per run, besides the passes


def pinned_env(src):
    env = dict(os.environ)
    for key in BLAS_ENV:
        env[key] = BLAS_THREADS
    env["PYTHONPATH"] = src
    return env


def load_refs(scale):
    refs = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))
    return refs[scale]


def spawn(passdir, root, calls, traced=False, pass_id=0,
          timeout=PASS_TIMEOUT_S):
    """Run ``pass_main.py`` on ``calls`` in a fresh interpreter; return its
    record, or None and the log tail when it did not finish."""
    spec = {"src": str(root / "src"), "calls": calls, "trace": traced,
            "passdir": str(passdir), "pass_id": pass_id}
    spec_path = passdir / "spec.json"
    log_path = passdir / "log.txt"
    with open(log_path, "w", encoding="utf-8") as log:
        spec["spawned"] = time.monotonic()
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "pass_main.py"), str(spec_path)],
            stdout=log, stderr=subprocess.STDOUT, cwd=str(root),
            env=pinned_env(str(root / "src")))
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    record_path = passdir / "pass.json"
    if code != 0 or not record_path.exists():
        tail = log_path.read_text(encoding="utf-8")[-2000:]
        return None, "pass exited %s: %s" % (code, tail)
    return json.loads(record_path.read_text(encoding="utf-8")), None


def run_pass(workload, scale, seed, passdir, root, traced, pass_id,
             timeout=PASS_TIMEOUT_S):
    """Spawn one pass; return its record with ``failures`` filled in."""
    passdir.mkdir(parents=True)
    calls = wl.write_configs(workload, scale, seed, passdir)
    record, error = spawn(passdir, root, calls, traced, pass_id, timeout)
    if record is None:
        return {"traced": traced, "failures": [error]}
    record["traced"] = traced
    record["failures"] = ["%s exited %d" % (argv[0], c)
                          for argv, c in zip(calls, record["codes"]) if c]
    if traced:
        record["trace"] = json.loads(
            (passdir / "trace.json").read_text(encoding="utf-8"))
    return record


def probe_setup(workdir, root, count, remaining):
    """Set-up times of ``count`` fresh interpreters that import vkshell
    and run nothing."""
    times = []
    for k in range(count):
        probedir = workdir / ("setup_%d" % k)
        probedir.mkdir()
        record, error = spawn(probedir, root, [], timeout=remaining())
        if record is None:
            raise RuntimeError("set-up probe failed: " + error)
        times.append(record["setup_s"])
    return times


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    p = int(100 * (1 - 10 / n))
    ordered = sorted(values)
    return p, ordered[min(n - 1, int(p / 100 * n))]


def environment(seed, passes, child_env):
    env = {"seed": seed, "passes": passes, "nproc": os.cpu_count(),
           "blas_env": {k: BLAS_THREADS for k in BLAS_ENV},
           "python": sys.version.split()[0]}
    env.update(child_env or {})
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        env["cpu_model"] = "unknown"
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches["L%s_%s" % (level, kind)] = (idx / "size").read_text().strip()
        except OSError:
            continue
    env["caches"] = caches
    return env


def run_benchmark(workload, seed, seconds, trace, scale, root):
    """Run passes for ``seconds``; return the result dict and the report."""
    root = Path(root).resolve()
    refs = load_refs(scale)[workload]
    begin = time.monotonic()
    remaining = lambda: max(1.0, begin + PASS_TIMEOUT_S - time.monotonic())
    work = root / "perfbench" / "work" / ("%s-%d-%d" % (workload, seed,
                                                        os.getpid()))
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)

    bound_dir = work / "bound"
    bound_dir.mkdir()
    wl.write_configs(workload, scale, seed, bound_dir)
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    sys.path.insert(0, str(root / "src"))
    lower_bound = wl.quartic_lower_bound(workload, bound_dir)

    records = []
    deadline = time.monotonic() + seconds
    setups = probe_setup(work, root, SETUP_PROBES, remaining)
    while True:
        traced = bool(trace) and len(records) % 2 == 1
        passdir = work / ("pass_%03d" % len(records))
        t_pass = time.monotonic()
        rec = run_pass(workload, scale, seed, passdir, root, traced,
                       len(records), remaining())
        if not rec["failures"]:
            try:
                results = wl.read_results(workload, passdir)
                rec["failures"] = wl.check_pass(workload, results, refs,
                                                lower_bound)
            except (OSError, KeyError, ValueError) as exc:
                rec["failures"] = ["result files unreadable: %r" % (exc,)]
        shutil.rmtree(passdir)
        rec["elapsed"] = time.monotonic() - t_pass
        records.append(rec)
        if trace and len(records) < 2:
            continue
        now = time.monotonic()
        est = max(r["elapsed"] for r in records[-2:])
        if now + est > deadline or now + est - begin > RUN_CAP_S:
            break
    shutil.rmtree(work)
    return summarize(workload, seed, trace, records, setups, lower_bound)


def _median_table(values_by_name, units):
    out = {}
    for name, vals in values_by_name.items():
        out[name] = {"median": statistics.median(vals), "n": len(vals),
                     "tail": tail_percentile(vals), "unit": units[name],
                     "values": vals}
    return out


def summarize(workload, seed, trace, records, setups, lower_bound):
    import spans
    plain = [r for r in records if not r["traced"]]
    good = [r for r in plain if not r["failures"]] or \
        [r for r in plain if "wall_s" in r]
    failed = sum(1 for r in records if r["failures"])
    samples = {k: [r[k] for r in good] for k, _ in E2E}
    samples["setup_s"] = setups + samples["setup_s"]
    e2e = _median_table(samples, dict(E2E)) if good else {}
    report = {"workload": workload, "e2e": e2e,
              "fail_ratio": failed / len(records),
              "failures": [f for r in records for f in r["failures"]],
              "quartic_lower_bound": lower_bound,
              "env": environment(seed, len(good),
                                 good[0].get("env") if good else None)}
    if trace:
        traced = [r for r in records if r["traced"] and "trace" in r]
        per_pass = [spans.layer_metrics(r["trace"]["spans"],
                                        r["trace"]["counts"], r["wall_s"])
                    for r in traced]
        units = {k: u for k, (_, u) in per_pass[0].items()} if per_pass else {}
        layer = _median_table({k: [m[k][0] for m in per_pass] for k in units},
                              units)
        if traced and good:
            overhead = (statistics.median(r["wall_s"] for r in traced)
                        - e2e["wall_s"]["median"])
            layer["trace.overhead_s"] = {"median": overhead, "n": len(traced),
                                         "tail": None, "unit": "s",
                                         "values": [overhead]}
        report["layer"] = layer
        metrics = {k: {"value": v["median"], "unit": v["unit"]}
                   for k, v in layer.items()}
    else:
        metrics = {k: {"value": v["median"], "unit": v["unit"]}
                   for k, v in e2e.items()}
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    return result, report


def print_report(report):
    print("workload %s" % report["workload"])
    for section in ("e2e", "layer"):
        for name, v in report.get(section, {}).items():
            tail = ("p%d %.6g" % v["tail"]) if v["tail"] else "tail n/a"
            print("  %-32s %14.6g %-6s n=%d %s" % (name, v["median"], v["unit"],
                                                 v["n"], tail))
            if section == "e2e":
                print("    samples " + " ".join("%.4g" % x for x in v["values"]))
    print("  %-32s %14.6g ratio" % ("fail_ratio", report["fail_ratio"]))
    for msg in report["failures"]:
        print("  FAIL %s" % msg.replace("\n", " ")[:400])
    print("env " + json.dumps(report["env"], sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=wl.SCALES, default="full")
    args = ap.parse_args(argv)
    root = Path(os.getcwd())
    if not (root / "src" / "vkshell" / "__init__.py").is_file():
        print("error: run from a vkshell checkout; src/vkshell is missing "
              "under %s" % root, file=sys.stderr)
        return 2
    result, report = run_benchmark(args.workload, args.seed, args.seconds,
                                   args.trace, scale=args.scale, root=root)
    print_report(report)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
