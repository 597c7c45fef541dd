"""Self-tests of the benchmark on tiny grids.

    python3 -m pytest -q perfbench/tests

Run from the root of a source checkout.  Each workload runs at the tiny
scale: the printed result must carry every metric of BENCHMARK.json with
its unit, a wrong reference must fail the checks, and tracing must add
spans without changing any checked output.  The passes use seeds other
than the one ``refs.json`` was recorded at, so no check passes only on
that seed.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFS = json.loads((BENCH / "refs.json").read_text(encoding="utf-8"))["tiny"]


def _run_cli(workload, trace, seed):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_printed_with_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        text, result = _run_cli(workload, trace, seed=1)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        for name, unit in list(want.items()) + [("fail_ratio", "ratio")]:
            assert any(line.split()[:1] == [name] and unit in line.split()
                       for line in text), name
        env = json.loads(next(l for l in text if l.startswith("env "))[4:])
        for field in ("blas_threads", "blas_env", "nproc", "cpu_model",
                      "caches", "python", "numpy", "scipy", "openblas",
                      "seed", "passes"):
            assert field in env, field


def _pass(workload, tmp_path, traced, seed):
    passdir = tmp_path / ("traced" if traced else "plain")
    rec = bench.run_pass(workload, "tiny", seed, passdir, ROOT, traced, 0)
    assert rec["failures"] == []
    return rec, wl.read_results(workload, passdir), passdir


def _wrong_refs(refs):
    """One deliberately wrong copy of the references per checked value."""
    for step, vals in refs.items():
        for key, val in vals.items():
            if key in ("flagged", "iterations"):
                continue
            bad = copy.deepcopy(refs)
            if key == "cluster_size":
                bad[step][key] = val + 1
            elif key == "bending_ritz":
                bad[step][key] = [v * (1 + 1e-4) + 1e-9 for v in val]
            elif key == "value" and step == "min_quartic":
                bad[step][key] = val - 1e-6     # a better minimum is claimed
            elif key == "projection_residual":
                bad[step][key] = val * 0.5
            else:
                bad[step][key] = val * (1 + 1e-8)
            yield "%s.%s" % (step, key), bad


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_wrong_reference_fails_and_tracing_keeps_outputs(workload, tmp_path):
    seed = 2
    _, plain, passdir = _pass(workload, tmp_path, False, seed)
    bound = wl.quartic_lower_bound(workload, passdir)
    refs = REFS[workload]
    assert wl.check_pass(workload, plain, refs, bound) == []
    for label, bad in _wrong_refs(refs):
        assert wl.check_pass(workload, plain, bad, bound), label
    if bound is not None:
        assert wl.check_pass(workload, plain, refs, lower_bound=None)
        broken = copy.deepcopy(plain)
        broken["min_quartic"]["value"] = bound - 1.0
        assert wl.check_pass(workload, broken, refs, bound)

    rec, traced, _ = _pass(workload, tmp_path, True, seed)
    assert traced == plain
    assert len(rec["trace"]["spans"]) > 0
    names = {s[0] for s in rec["trace"]["spans"]}
    assert any(n.startswith("cli.run:") for n in names)
    assert all(s[2] >= s[1] for s in rec["trace"]["spans"])
