"""Command-line interface: config parsing, subcommand dispatch, and
deterministic JSON/CSV artifacts with a run manifest.

The config is a flat INI file with sections [surface], [moduli],
[scaling], [load], [solver], [output].  Every run writes
``<command>_result.json`` (byte-identical across reruns with the same
config and seed) and ``manifest.json`` (config echo with all defaults,
package versions, timings).  Exit codes: 0 success, 2 config error,
3 numerical failure.
"""

import argparse
import configparser
import csv
import json
import sys
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import functional as fn
from . import gammacheck as gc
from . import geometry as geo
from . import isometry as iso
from . import material as mat
from . import membrane as mem
from . import minimize as mz
from . import presets
from .geometry import ChartError, FormField2


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


SUBCOMMANDS = ("surface", "isometries", "membrane", "energy", "minimize",
               "gamma-check")


@dataclass
class RunConfig:
    family: str = "plate"
    grid: tuple = (32, 32)
    surface_params: dict = field(default_factory=dict)
    mu: float = 1.0
    lam: float = 1.0
    kappa: float = 1.0
    e_rule: str = "kappa2h4"
    load_preset: str = "normal_saddle"
    load_csv: str = ""
    remove_mean: bool = True
    tol: float = 1e-9
    max_iter: int = 200
    restarts: int = 2
    seed: int = 0
    basis_size: int = 20
    basis_tol: float = 1e-8
    dictionary_degree: int = 4
    fourier_order: int = 16
    t_quad: int = 4
    h_ladder: tuple = (0.1, 0.05, 0.025, 0.0125)
    mode: str = "plate_bending"
    target_preset: str = ""  # empty: the family's DEFAULT_TARGETS entry
    sample_count: int = 64
    output_dir: str = "out"

    def echo(self):
        d = asdict(self)
        d["surface_params"] = {k: (list(v) if isinstance(v, tuple) else v)
                               for k, v in d["surface_params"].items()}
        for key in ("grid", "h_ladder"):
            d[key] = list(d[key])
        return d


def _floats(text):
    return tuple(float(x) for x in text.replace(",", " ").split())


def parse_config(path, overrides=None):
    """Read an INI run config, apply the non-None ``overrides`` (command
    line values by RunConfig field name) and check the values."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = cp.read(path)
    if not read:
        raise ConfigError("config file %r not found or unreadable" % (path,))
    cfg = RunConfig()
    try:
        if cp.has_section("surface"):
            s = cp["surface"]
            cfg.family = s.get("family", cfg.family).strip().lower()
            if "grid" in s:
                g = _floats(s["grid"])
                if len(g) != 2 or not all(x.is_integer() for x in g):
                    raise ConfigError("[surface] grid needs two integers, "
                                      "got %r" % s["grid"])
                cfg.grid = (int(g[0]), int(g[1]))
            params = {}
            if "bounds" in s:
                b = _floats(s["bounds"])
                if len(b) != 4:
                    raise ConfigError("[surface] bounds needs four numbers")
                params["bounds"] = ((b[0], b[1]), (b[2], b[3]))
            for key in ("radius", "height", "polar_margin"):
                if key in s:
                    params[key] = float(s[key])
            if "profile_poly" in s:
                params["profile"] = _floats(s["profile_poly"])
            if "s_range" in s:
                r = _floats(s["s_range"])
                if len(r) != 2:
                    raise ConfigError("[surface] s_range needs two numbers")
                params["s_range"] = (r[0], r[1])
            if "theta_scheme" in s:
                params["theta_scheme"] = s["theta_scheme"].strip()
            cfg.surface_params = params
        if cp.has_section("moduli"):
            m = cp["moduli"]
            cfg.mu = m.getfloat("mu", cfg.mu)
            cfg.lam = m.getfloat("lambda", m.getfloat("lam", cfg.lam))
        if cp.has_section("scaling"):
            sc = cp["scaling"]
            cfg.kappa = sc.getfloat("kappa", cfg.kappa)
            cfg.e_rule = sc.get("e_rule", cfg.e_rule).strip()
            _e_rule(cfg.e_rule)
        if cp.has_section("load"):
            ld = cp["load"]
            cfg.load_preset = ld.get("preset", cfg.load_preset).strip()
            cfg.load_csv = ld.get("csv", cfg.load_csv).strip()
            cfg.remove_mean = ld.getboolean("remove_mean", cfg.remove_mean)
        if cp.has_section("solver"):
            sv = cp["solver"]
            cfg.tol = sv.getfloat("tol", cfg.tol)
            cfg.max_iter = sv.getint("max_iter", cfg.max_iter)
            cfg.restarts = sv.getint("restarts", cfg.restarts)
            cfg.seed = sv.getint("seed", cfg.seed)
            cfg.basis_size = sv.getint("basis_size", cfg.basis_size)
            cfg.basis_tol = sv.getfloat("basis_tol", cfg.basis_tol)
            cfg.dictionary_degree = sv.getint("dictionary_degree",
                                              cfg.dictionary_degree)
            cfg.fourier_order = sv.getint("fourier_order", cfg.fourier_order)
            cfg.t_quad = sv.getint("t_quad", cfg.t_quad)
            cfg.sample_count = sv.getint("sample_count", cfg.sample_count)
            if "h_ladder" in sv:
                cfg.h_ladder = _floats(sv["h_ladder"])
            cfg.mode = sv.get("mode", cfg.mode).strip()
            cfg.target_preset = sv.get("target_preset", cfg.target_preset).strip()
        if cp.has_section("output"):
            out = cp["output"]
            cfg.output_dir = out.get("directory", cfg.output_dir).strip()
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("bad config value: %s" % (exc,)) from exc
    for name, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, name, value)
    if cfg.kappa < 0:
        raise ConfigError("kappa must be at least 0, got %g" % cfg.kappa)
    for name, low in (("basis_size", 0), ("dictionary_degree", 0),
                      ("sample_count", 1)):
        if getattr(cfg, name) < low:
            raise ConfigError("[solver] %s must be at least %d, got %d"
                              % (name, low, getattr(cfg, name)))
    if not 2 <= cfg.t_quad <= 8:
        raise ConfigError("[solver] t_quad must lie in [2, 8], got %d"
                          % cfg.t_quad)
    hs = cfg.h_ladder
    if (len(hs) < 4 or not all(0 < h <= 0.5 for h in hs)
            or any(b >= a for a, b in zip(hs, hs[1:]))):
        raise ConfigError("[solver] h_ladder needs at least 4 strictly "
                          "decreasing values in (0, 0.5], got %s" % (hs,))
    return cfg


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _build_chart(cfg):
    return geo.build_chart(cfg.family, cfg.surface_params, cfg.grid)


def _moduli(cfg):
    return mat.ElasticModuli(cfg.mu, cfg.lam)


def _node_csv(path, chart, columns):
    """The (N, 3) rows of a node CSV with one header line."""
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot read csv %r: %s" % (path, exc)) from exc
    if rows.shape != (chart.n_nodes, 3):
        raise ConfigError("csv %r must carry %d rows of %s"
                          % (path, chart.n_nodes, columns))
    return rows


def _load(cfg, chart):
    if cfg.load_csv:
        vals = _node_csv(cfg.load_csv, chart, "fx,fy,fz").reshape(
            chart.shape + (3,))
    else:
        vals = presets.load_preset(chart, cfg.load_preset)
    return fn.make_load(chart, vals, remove_mean=cfg.remove_mean)


def _mode_field(cfg, chart):
    try:
        builder = presets.MODE_PRESETS[cfg.mode]
    except KeyError:
        raise ConfigError("unknown mode preset %r" % (cfg.mode,))
    return builder(chart)


def _e_rule(name):
    """Thickness scaling e(h) named by [scaling] e_rule; None for
    "kappa2h4", the default rule of gammacheck.build_ansatz."""
    if name == "kappa2h4":
        return None
    if name == "h5":
        return lambda h: h ** 5
    if name.startswith("h^"):
        try:
            p = float(name[2:])
        except ValueError:
            p = np.nan
        if np.isfinite(p):
            return lambda h: h ** p
    raise ConfigError("unknown e_rule %r (expected kappa2h4, h5 or h^p)"
                      % (name,))


def write_json(path, payload):
    text = json.dumps(payload, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _write_csv(path, header, table):
    """A header line, then one line per row of a float table; the csv
    module writes each Python float as its repr."""
    table = np.asarray(table, float)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # in blocks of rows, so that the Python floats of a large table
        # are never all alive at once
        for start in range(0, len(table), 1024):
            writer.writerows(table[start:start + 1024].tolist())


def write_field_csv(path, chart, columns):
    """One row per node: u1, u2, x, y, z, then named value columns."""
    U1, U2 = np.meshgrid(chart.u1, chart.u2, indexing="ij")
    table = np.column_stack([U1.ravel(), U2.ravel(), chart.pos.reshape(-1, 3)]
                            + [np.ravel(arr) for _, arr in columns])
    _write_csv(path, ["u1", "u2", "x", "y", "z"]
               + [name for name, _ in columns], table)


def _write_vector_csv(path, chart, prefix, values):
    """Node CSV of a vector field (N1, N2, 3) in columns <prefix>x/y/z."""
    write_field_csv(path, chart, [(prefix + c, values[..., k])
                                  for k, c in enumerate("xyz")])


def _verify_chart(chart):
    n_err = float(np.max(np.abs(
        np.linalg.norm(chart.normal, axis=-1) - 1.0)))
    orth = max(
        float(np.max(np.abs(np.einsum("xyc,xyc->xy", chart.frame_e1,
                                      chart.frame_e2)))),
        float(np.max(np.abs(np.einsum("xyc,xyc->xy", chart.frame_e1,
                                      chart.normal)))),
        float(np.max(np.abs(np.einsum("xyc,xyc->xy", chart.frame_e2,
                                      chart.normal)))))
    spd = bool(np.all(chart.sqrt_g > 0))
    checks = {"unit_normal": n_err <= 1e-12, "frame_orthonormal": orth <= 1e-12,
              "metric_spd": spd}
    if not all(checks.values()):
        raise ArithmeticError("chart invariant checks failed: %s" % (checks,))
    return checks


def _verify_basis(chart, basis):
    """Full-grid checks of the returned modes, apart from the blocked solve:
    strain Rayleigh quotients at most the threshold, M-orthonormality."""
    strain = np.array([np.sum(geo.frame_rows(geo.frame_form(
        chart, geo.sym_grad(chart, v)), chart.quad_w)**2) for v in basis.modes])
    rows = iso._mass_rows(chart, basis.modes)
    gram = rows @ rows.T
    if np.any(strain > basis.tol * np.diag(gram)):
        raise ArithmeticError("isometry mode Rayleigh quotient above threshold")
    if np.max(np.abs(gram - np.eye(len(gram))), initial=0.0) > 1e-10:
        raise ArithmeticError("isometry modes are not M-orthonormal")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_surface(cfg, outdir, verify):
    chart = _build_chart(cfg)
    report = mem.robustness_classify(chart)
    payload = {
        "family": chart.family,
        "grid": list(chart.shape),
        "area": geo.integrate(chart, np.ones(chart.shape)),
        "h_max": float(np.max(np.abs(chart.second_form))),
        "robustness": report.label,
        "evidence": report.evidence,
    }
    if verify:
        payload["verify"] = _verify_chart(chart)
    write_json(outdir / "surface_result.json", payload)
    write_field_csv(outdir / "surface_nodes.csv", chart, [
        ("sqrt_g", chart.sqrt_g),
        ("h11", chart.second_form[..., 0, 0]),
        ("h12", chart.second_form[..., 0, 1]),
        ("h22", chart.second_form[..., 1, 1]),
    ])
    return payload


def cmd_isometries(cfg, outdir, verify):
    chart = _build_chart(cfg)
    basis = iso.isometry_basis(chart, n_request=cfg.basis_size,
                               tol=cfg.basis_tol)
    payload = {
        "count": len(basis),
        "cluster_size": basis.cluster_size,
        "gap_ratio": basis.gap_ratio,
        "rayleigh": [float(r) for r in basis.rayleigh],
        "bending_ritz": [float(b) for b in basis.bending_ritz],
        "skew_residuals": [float(s) for s in basis.skew_residuals],
        "threshold": basis.tol,
        "empty": basis.empty,
    }
    if verify:
        _verify_chart(chart)
        _verify_basis(chart, basis)
        payload["rigid_residual"] = max(
            iso.project_onto_basis(basis, r)[1] for r in iso.rigid_basis(chart))
    write_json(outdir / "isometries_result.json", payload)
    for k, mode in enumerate(basis.modes):
        _write_vector_csv(outdir / ("isometry_mode_%03d.csv" % k), chart, "v",
                          mode)
    return payload


DEFAULT_TARGETS = {"plate": "plate_nonrobust", "cylinder": "ovalization_a2",
                   "revolution": "ovalization_a2"}


def _membrane_target(preset, chart):
    if preset == "ovalization_a2":
        if chart.family not in ("cylinder", "revolution"):
            raise ConfigError("ovalization_a2 target needs a cylinder chart")
        mode = presets.cylinder_inextensional_mode(chart, 2)
        A = iso.extend_A(chart, mode)
        return fn.a_squared_tan(chart, A)
    if preset == "plate_nonrobust":
        v = presets.plate_bending_mode(chart)
        g = geo.surface_gradient(chart, v)[..., 2, :]
        b = -np.einsum("xyi,xyj->xyij", g, g)
        return FormField2(b)
    if preset.endswith(".csv"):
        rows = _node_csv(preset, chart, "b11,b22,b12")
        b = np.zeros(chart.shape + (2, 2))
        b[..., 0, 0] = rows[:, 0].reshape(chart.shape)
        b[..., 1, 1] = rows[:, 1].reshape(chart.shape)
        b[..., 0, 1] = b[..., 1, 0] = rows[:, 2].reshape(chart.shape)
        return FormField2(b)
    raise ConfigError("unknown membrane target %r" % (preset,))


def _fourier_order(cfg, chart):
    """[solver] fourier_order, checked against the circumferential grid."""
    if not 0 <= cfg.fourier_order <= chart.shape[1] // 2:
        raise ConfigError("[solver] fourier_order must lie in [0, %d] on a "
                          "grid with %d circumferential nodes, got %d"
                          % (chart.shape[1] // 2, chart.shape[1],
                             cfg.fourier_order))
    return cfg.fourier_order


def cmd_membrane(cfg, outdir, verify):
    chart = _build_chart(cfg)
    preset = cfg.target_preset or DEFAULT_TARGETS.get(chart.family)
    if preset is None:
        raise ConfigError("no default membrane target on a %s chart; set "
                          "[solver] target_preset" % chart.family)
    target = _membrane_target(preset, chart)
    payload = {"target_preset": preset}
    if chart.family in ("cylinder", "revolution"):
        sol = mem.solve_revolution_membrane(
            chart, target, fourier_order=_fourier_order(cfg, chart))
        payload.update({"residual": sol.residual,
                        "fourier_order": sol.fourier_order,
                        "flagged": sol.flagged})
        _write_vector_csv(outdir / "membrane_w.csv", chart, "w", sol.w.values)
    proj = mem.project_to_B(chart, target, degree=cfg.dictionary_degree)
    payload["projection_residual"] = proj.residual
    payload["projection_rank"] = proj.rank
    payload["dictionary_degree"] = cfg.dictionary_degree
    if verify:
        _verify_chart(chart)
    write_json(outdir / "membrane_result.json", payload)
    return payload


def cmd_energy(cfg, outdir, verify):
    chart = _build_chart(cfg)
    moduli = _moduli(cfg)
    V = _mode_field(cfg, chart)
    zero = FormField2(np.zeros(chart.shape + (2, 2)))
    breakdown = fn.total_I(chart, V, zero, cfg.kappa, moduli)
    load = _load(cfg, chart)
    rset = fn.rotation_set(load, sample_count=cfg.sample_count, seed=cfg.seed)
    # J = I - load work per candidate (fn.total_J), with I computed once
    work = [fn.load_work(chart, load, Q, V) for Q in rset.candidates]
    k = int(np.argmin([breakdown.total - lw for lw in work]))
    Q = rset.candidates[k]
    best_J = {"stretching": breakdown.stretching, "bending": breakdown.bending,
              "load": work[k], "total": breakdown.total - work[k]}
    payload = {
        "stretching": breakdown.stretching,
        "bending": breakdown.bending,
        "total_I": breakdown.total,
        "kappa": cfg.kappa,
        "load_m": rset.m,
        "degenerate_rotations": rset.degenerate,
        "best_J": best_J,
        "best_rotation": [[float(x) for x in row] for row in Q],
    }
    if verify:
        _verify_chart(chart)
        J = fn.total_J(chart, V, zero, cfg.kappa, moduli, load, Q).total
        if abs(J - best_J["total"]) > 1e-12 * abs(J):
            raise ArithmeticError("energy breakdown is inconsistent")
    write_json(outdir / "energy_result.json", payload)
    return payload


def cmd_minimize(cfg, outdir, verify):
    chart = _build_chart(cfg)
    moduli = _moduli(cfg)
    basis = iso.isometry_basis(chart, n_request=cfg.basis_size,
                               tol=cfg.basis_tol)
    if basis.empty:
        raise ArithmeticError("isometry basis is empty; loosen basis_tol")
    load = _load(cfg, chart)
    rset = fn.rotation_set(load, sample_count=min(cfg.sample_count, 8),
                           seed=cfg.seed)
    opts = mz.SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter,
                            restarts=cfg.restarts, seed=cfg.seed)
    well = mz.wellposedness_check(load, rset.candidates)
    if cfg.kappa == 0:
        result = mz.minimize_quadratic(chart, basis, load, rset.candidates,
                                       moduli, opts)
    else:
        result = mz.minimize_J(chart, basis, load, rset.candidates, cfg.kappa,
                               moduli, dict_degree=cfg.dictionary_degree,
                               opts=opts)
    payload = {
        "value": result.value,
        "gradient_norm": result.gradient_norm,
        "iterations": result.iterations,
        "kappa": cfg.kappa,
        "flagged": result.flagged,
        "stop_reason": result.stop_reason,
        "wellposed": well.ok,
        "table": result.table,
        "rotation": [[float(x) for x in row] for row in result.rotation],
        "seed": cfg.seed,
    }
    write_json(outdir / "minimize_result.json", payload)
    _write_vector_csv(outdir / "minimize_V.csv", chart, "v",
                      result.V_star.values)
    if verify:
        _verify_chart(chart)
        hist = result.objective_history
        if any(b - a > 1e-10 * max(abs(hist[0]), 1.0)
               for a, b in zip(hist, hist[1:])):
            raise ArithmeticError("objective sequence increased")
    return payload


def cmd_gamma_check(cfg, outdir, verify):
    chart = _build_chart(cfg)
    moduli = _moduli(cfg)
    V = _mode_field(cfg, chart)
    w = None
    if cfg.kappa > 0 and cfg.mode.startswith("cylinder"):
        A = iso.extend_A(chart, V)
        target = fn.a_squared_tan(chart, A)
        target = FormField2(0.5 * cfg.kappa * target.coeff)
        w = mem.solve_revolution_membrane(
            chart, target, fourier_order=_fourier_order(cfg, chart)).w
    ansatz = gc.build_ansatz(chart, V, w=w, kappa=cfg.kappa, moduli=moduli,
                             e_rule=_e_rule(cfg.e_rule))
    table = gc.convergence_study(ansatz, cfg.h_ladder, moduli,
                                 t_quad=cfg.t_quad)
    errors = table.errors()
    payload = {
        "limit": table.limit,
        "energy_slope": table.energy_slope,
        "final_error": float(errors[-1]),
        "final_relative_error": float(errors[-1] / max(abs(table.limit), 1e-300)),
        "strictly_decreasing": bool(np.all(np.diff(errors) < 0)),
        "rows": [{k: (None if isinstance(v, float) and np.isnan(v) else float(v))
                  for k, v in row.items()} for row in table.rows],
    }
    if verify:
        _verify_chart(chart)
    write_json(outdir / "gamma_check_result.json", payload)
    columns = ["h", "energy", "ratio", "error", "slope"]
    _write_csv(outdir / "gamma_check_table.csv", columns,
               [[row[k] for k in columns] for row in table.rows])
    return payload


DISPATCH = {
    "surface": cmd_surface,
    "isometries": cmd_isometries,
    "membrane": cmd_membrane,
    "energy": cmd_energy,
    "minimize": cmd_minimize,
    "gamma-check": cmd_gamma_check,
}


def run(argv):
    parser = argparse.ArgumentParser(
        prog="vkshell",
        description="Shell-limit energies: evaluation, minimization, "
                    "and thin-limit verification.")
    parser.add_argument("command", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--kappa", type=float, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--max-iter", type=int, default=None)
    parser.add_argument("--restarts", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        cfg = parse_config(args.config, {
            name: getattr(args, name) for name in (
                "kappa", "tol", "max_iter", "restarts", "seed", "output_dir")})
        outdir = Path(cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    try:
        DISPATCH[args.command](cfg, outdir, args.verify)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (ArithmeticError, ChartError, mz.MinimizationError,
            np.linalg.LinAlgError, ValueError) as exc:
        diag = {"error": str(exc), "type": type(exc).__name__}
        if isinstance(exc, mz.MinimizationError):
            diag["diagnostics"] = exc.diagnostics
        print(json.dumps(diag, sort_keys=True), file=sys.stderr)
        return 3

    manifest = {
        "command": args.command,
        "config": cfg.echo(),
        "versions": {
            "vkshell": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "elapsed_seconds": time.perf_counter() - t0,
    }
    write_json(outdir / "manifest.json", manifest)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
