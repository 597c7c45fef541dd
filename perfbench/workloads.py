"""Workload definitions: generated configs, the CLI call sequence of one
pass, and the correctness checks applied to a pass's result files.

A workload is a fixed list of steps.  Each step is one in-process
``vkshell.cli.run`` call with ``--verify`` and ``--seed <seed>``, writing
to its own output directory.  Checks read only basis-invariant values of
the result JSON: a symmetry-blocked or otherwise reorganised eigensolve
may legitimately return a rotated mode basis, so raw mode arrays and CSV
bytes are never compared.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("isometry-spectra", "quartic-minimize", "thin-limit")
SCALES = ("full", "tiny")

CYL = {"family": "cylinder", "radius": 1.0, "height": 1.0}
PLATE = {"family": "plate"}
REV = {"family": "revolution", "profile_poly": "1.0 0.0 0.3"}


@dataclass(frozen=True)
class Step:
    name: str        # unique within the workload; names the output dir
    command: str     # vkshell subcommand
    surface: dict    # [surface] keys besides grid
    grid: dict       # scale -> (n1, n2)
    scaling: dict
    load: dict
    solver: dict


STEPS = {
    "isometry-spectra": (
        Step("iso_cylinder", "isometries", CYL,
             {"full": (16, 48), "tiny": (8, 16)}, {}, {},
             {"basis_size": 20}),
        Step("iso_plate", "isometries", PLATE,
             {"full": (20, 20), "tiny": (10, 10)}, {}, {},
             {"basis_size": 20}),
    ),
    "quartic-minimize": (
        # acceptance-07 settings, except one deterministic start: the
        # seeded restart's iteration count depends on the seed
        Step("min_quartic", "minimize", CYL,
             {"full": (12, 32), "tiny": (8, 16)}, {"kappa": 1.0},
             {"preset": "radial_cos2", "remove_mean": "true"},
             {"basis_size": 30, "tol": 1e-10, "max_iter": 300,
              "restarts": 1, "dictionary_degree": 4}),
        # exact bending-only path of the same module
        Step("min_linear", "minimize", PLATE,
             {"full": (16, 16), "tiny": (8, 8)}, {"kappa": 0.0},
             {"preset": "normal_saddle", "remove_mean": "true"},
             {"basis_size": 20}),
    ),
    "thin-limit": (
        Step("gamma_cylinder", "gamma-check", CYL,
             {"full": (96, 192), "tiny": (24, 48)}, {"kappa": 1.0}, {},
             {"mode": "cylinder_ovalization", "fourier_order": 8}),
        Step("gamma_plate", "gamma-check", PLATE,
             {"full": (96, 96), "tiny": (32, 32)}, {"kappa": 1.0}, {},
             {"mode": "plate_bending"}),
        Step("membrane_revolution", "membrane", REV,
             {"full": (64, 128), "tiny": (16, 32)}, {}, {},
             {"dictionary_degree": 6}),
        Step("energy_cylinder", "energy", CYL,
             {"full": (96, 192), "tiny": (24, 48)}, {"kappa": 1.0},
             {"preset": "radial_cos2", "remove_mean": "true"},
             {"mode": "cylinder_ovalization"}),
        Step("surface_revolution", "surface", REV,
             {"full": (64, 128), "tiny": (16, 32)}, {}, {}, {}),
    ),
}


def _ini(sections):
    lines = []
    for sec, items in sections.items():
        lines.append("[%s]" % sec)
        lines += ["%s = %s" % (k, v) for k, v in items.items()]
        lines.append("")
    return "\n".join(lines)


def step_config(step, scale, seed, outdir):
    """INI text of one step's config."""
    n1, n2 = step.grid[scale]
    solver = dict(step.solver, seed=seed)
    sections = {
        "surface": dict(step.surface, grid="%d %d" % (n1, n2)),
        "moduli": {"mu": 1.0, "lambda": 1.0},
        "scaling": step.scaling,
        "load": step.load,
        "solver": solver,
        "output": {"directory": outdir, "formats": "json csv"},
    }
    return _ini({k: v for k, v in sections.items() if v})


def write_configs(workload, scale, seed, passdir):
    """Write every step's config under ``passdir``; return the argv list
    of each CLI call, in order."""
    calls = []
    for step in STEPS[workload]:
        outdir = Path(passdir) / step.name
        cfg = Path(passdir) / (step.name + ".cfg")
        cfg.write_text(step_config(step, scale, seed, str(outdir)),
                       encoding="utf-8")
        calls.append([step.command, "--config", str(cfg), "--verify",
                      "--seed", str(seed)])
    return calls


RESULT_FILE = {
    "surface": "surface_result.json",
    "isometries": "isometries_result.json",
    "membrane": "membrane_result.json",
    "energy": "energy_result.json",
    "minimize": "minimize_result.json",
    "gamma-check": "gamma_check_result.json",
}


def read_results(workload, passdir):
    """Result JSON of every step, keyed by step name."""
    out = {}
    for step in STEPS[workload]:
        path = Path(passdir) / step.name / RESULT_FILE[step.command]
        out[step.name] = json.loads(path.read_text(encoding="utf-8"))
    return out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _check_isometries(res, ref, fails, name):
    if res["count"] != 20:
        fails.append("%s: count %d != 20" % (name, res["count"]))
    if res["cluster_size"] != ref["cluster_size"]:
        fails.append("%s: cluster_size %d != %d"
                     % (name, res["cluster_size"], ref["cluster_size"]))
    if not res["rigid_residual"] <= 1e-8:
        fails.append("%s: rigid_residual %.3e > 1e-8"
                     % (name, res["rigid_residual"]))
    got, want = res["bending_ritz"], ref["bending_ritz"]
    if len(got) != len(want):
        fails.append("%s: %d bending_ritz values, reference has %d"
                     % (name, len(got), len(want)))
        return
    for k, (g, w) in enumerate(zip(got, want)):
        ok = (_rel(g, w) <= 1e-6) if abs(w) > 1e-8 else (abs(g - w) <= 1e-10)
        if not ok:
            fails.append("%s: bending_ritz[%d] %.12e != %.12e"
                         % (name, k, g, w))


def _check_minimize(res, ref, fails, name, lower_bound):
    if not res["wellposed"]:
        fails.append("%s: load not wellposed" % name)
    v = res["value"]
    if not math.isfinite(v):
        fails.append("%s: value %r not finite" % (name, v))
        return
    if res["kappa"] > 0:
        upper = ref["value"]
        if v > upper + 1e-9 * max(1.0, abs(upper)):
            fails.append("%s: value %.12e above reference %.12e"
                         % (name, v, upper))
        if lower_bound is None or not v >= lower_bound:
            fails.append("%s: value %.12e below coercivity bound %r"
                         % (name, v, lower_bound))
    elif _rel(v, ref["value"]) > 1e-10:
        fails.append("%s: value %.15e != %.15e" % (name, v, ref["value"]))


def _check_gamma(res, fails, name):
    if not res["strictly_decreasing"]:
        fails.append("%s: errors not strictly decreasing" % name)
    if not 3.8 <= res["energy_slope"] <= 4.3:
        fails.append("%s: energy slope %.4f outside [3.8, 4.3]"
                     % (name, res["energy_slope"]))
    if not res["final_relative_error"] <= 0.05:
        fails.append("%s: endpoint error %.4f > 5%%"
                     % (name, res["final_relative_error"]))


def check_pass(workload, results, refs, lower_bound=None):
    """Failure messages for one pass; empty when every check holds.

    ``refs`` holds this workload's reference values at one scale;
    ``lower_bound`` is the coercivity bound of the quartic step.
    """
    fails = []
    for step in STEPS[workload]:
        res, ref, name = results[step.name], refs.get(step.name, {}), step.name
        if step.command == "isometries":
            _check_isometries(res, ref, fails, name)
        elif step.command == "minimize":
            _check_minimize(res, ref, fails, name, lower_bound)
        elif step.command == "gamma-check":
            _check_gamma(res, fails, name)
        elif step.command == "membrane":
            if res.get("flagged", True):
                fails.append("%s: membrane solve flagged" % name)
            want = ref["projection_residual"]
            if res["projection_residual"] > want * (1 + 1e-6):
                fails.append("%s: projection_residual %.6e worse than %.6e"
                             % (name, res["projection_residual"], want))
        elif step.command == "energy":
            if _rel(res["total_I"], ref["total_I"]) > 1e-10:
                fails.append("%s: total_I %.15e != %.15e"
                             % (name, res["total_I"], ref["total_I"]))
        elif step.command == "surface":
            if res["robustness"] != "Robust-Revolution":
                fails.append("%s: robustness %r" % (name, res["robustness"]))
    return fails


def quartic_lower_bound(workload, passdir):
    """Acceptance-07 coercivity bound -1/4 |l|^2 / lambda_min for the
    quartic step, minimised over the rotation candidates the CLI uses.

    The objective is |P y(z)|^2 + z.G z - l.z >= z.G z - l.z, and the
    quadratic part is bounded below by -1/4 l.G^{-1} l.  Returns None for
    workloads without a quartic step.
    """
    step = next((s for s in STEPS[workload]
                 if s.command == "minimize" and s.scaling.get("kappa", 0) > 0),
                None)
    if step is None:
        return None
    import numpy as np
    from vkshell import cli, functional as fn, isometry as iso
    from vkshell import minimize as mz

    cfg = cli.parse_config(str(Path(passdir) / (step.name + ".cfg")))
    chart = cli._build_chart(cfg)
    moduli = cli._moduli(cfg)
    basis = iso.isometry_basis(chart, n_request=cfg.basis_size,
                               tol=cfg.basis_tol)
    lam_min = iso.coercivity_spectrum(chart, basis, moduli).smallest
    load = cli._load(cfg, chart)
    rset = fn.rotation_set(load, sample_count=min(cfg.sample_count, 8),
                           seed=cfg.seed)
    fields, _ = mz._rigid_complement(chart, basis)
    bounds = []
    for Q in rset.candidates:
        ell = mz._load_vector(chart, load, Q, fields)
        bounds.append(-0.25 * float(ell @ ell) / lam_min)
    return float(np.min(bounds))
