"""Command-line interface: config parsing, subcommand dispatch, and
deterministic JSON/CSV artifacts with a run manifest.

The config is a flat INI file with sections [surface], [moduli],
[scaling], [load], [solver], [output].  Every subcommand runs in one
frame (``run``): the config is read and checked, the chart is built, the
chart checks run under --verify, and the subcommand, a function of the
built chart, returns the payload of its result JSON.  Every run writes
``<command>_result.json`` (byte-identical across reruns with the same
config and seed) and ``manifest.json`` (config echo with all defaults,
package versions, timings).  Exit codes: 0 success, 2 config error,
3 numerical failure.

A CSV artifact is a header line, then one line per row of floats, fields
joined by "," and every line ended by "\\r\\n"; each float is Python's
shortest round-trip repr, with nan, inf and -inf for non-finite values.
"""

import argparse
import configparser
import json
import sys
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

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


def _floats(text):
    return tuple(float(x) for x in text.replace(",", " ").split())


# [section] key -> RunConfig field, for every section but [surface].  Each
# value is read by the type of its field's default (_READERS); "lambda"
# comes after "lam", so it wins when both are given.
_KEYS = {("moduli", "mu"): "mu", ("moduli", "lam"): "lam",
         ("moduli", "lambda"): "lam",
         ("scaling", "kappa"): "kappa", ("scaling", "e_rule"): "e_rule",
         ("load", "preset"): "load_preset", ("load", "csv"): "load_csv",
         ("load", "remove_mean"): "remove_mean",
         ("output", "directory"): "output_dir"}
_KEYS.update((("solver", name), name) for name in (
    "tol", "max_iter", "restarts", "seed", "basis_size", "basis_tol",
    "dictionary_degree", "fourier_order", "t_quad", "sample_count",
    "h_ladder", "mode", "target_preset"))

_READERS = {
    bool: configparser.ConfigParser.getboolean,
    int: configparser.ConfigParser.getint,
    float: configparser.ConfigParser.getfloat,
    tuple: lambda cp, section, key: _floats(cp.get(section, key)),
    str: lambda cp, section, key: cp.get(section, key).strip(),
}


def parse_config(path, overrides=None):
    """Read an INI run config, apply the non-None ``overrides`` (command
    line values by RunConfig field name) and check the values."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError("malformed config %r: %s" % (path, exc)) from exc
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
        for (section, key), name in _KEYS.items():
            if cp.has_option(section, key):
                reader = _READERS[type(getattr(RunConfig, name))]
                setattr(cfg, name, reader(cp, section, key))
        gc.thickness_scaling(cfg.e_rule, cfg.kappa)
    except (ValueError, KeyError, configparser.Error) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("bad config value: %s" % (exc,)) from exc
    for name, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, name, value)
    if not 0 <= cfg.kappa < np.inf:
        raise ConfigError("kappa must be finite and at least 0, got %g"
                          % cfg.kappa)
    for name, low in (("basis_size", 0), ("dictionary_degree", 0),
                      ("sample_count", 1), ("max_iter", 1), ("restarts", 1),
                      ("seed", 0)):
        if getattr(cfg, name) < low:
            raise ConfigError("[solver] %s must be at least %d, got %d"
                              % (name, low, getattr(cfg, name)))
    for name in ("tol", "basis_tol"):
        if not 0 < getattr(cfg, name) < np.inf:
            raise ConfigError("[solver] %s must be positive and finite, got %g"
                              % (name, getattr(cfg, name)))
    try:
        _moduli(cfg)
    except ValueError as exc:
        raise ConfigError("[moduli] %s" % (exc,)) from exc
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
    try:
        return geo.build_chart(cfg.family, cfg.surface_params, cfg.grid)
    except ChartError as exc:
        raise ConfigError("[surface] %s" % (exc,)) from exc


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
        try:
            vals = presets.load_preset(chart, cfg.load_preset)
        except KeyError:
            raise ConfigError("unknown load preset %r" % (cfg.load_preset,))
    return fn.make_load(chart, vals, remove_mean=cfg.remove_mean)


def _mode_field(cfg, chart):
    try:
        builder = presets.MODE_PRESETS[cfg.mode]
    except KeyError:
        raise ConfigError("unknown mode preset %r" % (cfg.mode,))
    return builder(chart)


def write_json(path, payload):
    text = json.dumps(payload, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


_BLOCK_CELLS = 8192     # cells of one block of rows in _write_csv


def _write_csv(path, header, table, stack=None):
    """Write a header and a float table in the module's CSV format.  The
    rows are those of ``table`` (n, k), each followed by the values of an
    optional field stack ``stack`` (m, n, c) at that row, field by field:
    row i is table[i], stack[0, i], ..., stack[m - 1, i].  The rows go out
    in blocks of at most _BLOCK_CELLS cells (at least one row), each built
    from a slice of table and stack, so that neither the whole
    (n, k + m c) table nor the strings of a large one are ever formed.
    Tables repeat values (grid coordinates, exact zeros, +- pairs), so each
    block formats each distinct float64 bit pattern once; keying on bits
    keeps -0.0 apart from 0.0."""
    table = np.asarray(table, float)
    n, k = table.shape
    stack = np.empty((0, n, 0)) if stack is None else stack
    m, _, c = stack.shape
    width = k + m * c
    rows = max(1, _BLOCK_CELLS // width)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            block = np.empty((stop - start, width))
            block[:, :k] = table[start:stop]
            block[:, k:].reshape(stop - start, m, c)[...] = np.moveaxis(
                stack[:, start:stop], 0, 1)
            bits, inverse = np.unique(block.view(np.int64),
                                      return_inverse=True)
            text = np.array(list(map(repr, bits.view(float).tolist())),
                            dtype=object)[inverse.reshape(block.shape)]
            fh.write("\r\n".join(map(",".join, text.tolist())) + "\r\n")


def write_field_csv(path, chart, names, values):
    """One row per node: u1, u2, x, y, z, then the columns ``names`` of the
    field stack ``values`` (m, N1, N2, c), field by field."""
    U1, U2 = np.meshgrid(chart.u1, chart.u2, indexing="ij")
    nodes = np.column_stack([U1.ravel(), U2.ravel(), chart.pos.reshape(-1, 3)])
    _write_csv(path, ["u1", "u2", "x", "y", "z"] + names, nodes,
               values.reshape(len(values), chart.n_nodes, values.shape[-1]))


def _write_vector_csv(path, chart, prefix, values):
    """Node CSV of a vector field (N1, N2, 3) in columns <prefix>x/y/z."""
    write_field_csv(path, chart, [prefix + c for c in "xyz"], values[None])


def _verify_chart(chart):
    n_err = float(np.max(np.abs(
        np.linalg.norm(chart.normal, axis=-1) - 1.0)))
    # the entries of frame frame^T - I, one pair of frame vectors at a time
    e = (chart.frame_e1, chart.frame_e2, chart.normal)
    orth = max(float(np.max(np.abs(np.einsum("xyc,xyc->xy", e[i], e[j])
                                   - float(i == j))))
               for i in range(3) for j in range(i, 3))
    spd = bool(np.all(chart.sqrt_g > 0))
    checks = {"unit_normal": n_err <= 1e-12, "frame_orthonormal": orth <= 1e-12,
              "metric_spd": spd}
    if not all(checks.values()):
        raise ArithmeticError("chart invariant checks failed: %s" % (checks,))
    return checks


# modes x grid nodes per chunk of _verify_basis: the working set of the
# partials, skew extensions and bending forms it takes of the modes
_VERIFY_NODES = 4096


def _verify_basis(chart, basis):
    """Full-grid checks of the returned modes, apart from the blocked solve
    and the combinations it takes: strain Rayleigh quotients at most the
    threshold and equal to rayleigh (to 1e-12 rho_max), M-orthonormality,
    the skew residuals and a bending Gram diagonal with bending_ritz on
    it, all recomputed from basis.modes, a chunk of about _VERIFY_NODES
    mode-nodes at a time.  Returns the largest relative residual of the
    rigid motions' projections onto the modes, from the same mass rows."""
    step = max(1, _VERIFY_NODES // chart.n_nodes)
    parts = []      # per chunk: strain, mass rows, skew residuals, bending
    # (an empty basis is one empty chunk)
    for k in range(0, max(len(basis.modes), 1), step):
        V = basis.modes[k:k + step]
        P = iso._partials(chart, V)
        strain = np.sum(geo.frame_rows(geo.frame_form(
            chart, geo.tangential_form(chart, P)), chart.quad_w)**2, axis=-1)
        rows = iso._mass_rows(chart, V, P)
        # extend_A of the modes, on the partials P already taken
        vn = np.einsum("mxyc,xyc->mxy", V, chart.normal)
        A = iso.SkewField(iso._extension(chart, V, P, np.stack(
            iso._derivatives(chart, vn), axis=-1)))
        del P, vn
        parts.append((strain, rows, A.skew_residual, geo.frame_rows(
            iso._bending_frames(chart, A.values), chart.quad_w)))
        del A
    strain, rows, skew_res, bend = map(np.concatenate, zip(*parts))
    del parts
    gram = rows @ rows.T
    if np.any(strain > basis.tol * np.diag(gram)):
        raise ArithmeticError("isometry mode Rayleigh quotient above threshold")
    if np.any(np.abs(strain / np.diag(gram) - basis.rayleigh)
              > 1e-12 * basis.tol / basis.tol_rel):
        raise ArithmeticError("isometry rayleigh values disagree with the "
                              "modes' strain Rayleigh quotients")
    if np.max(np.abs(gram - np.eye(len(gram))), initial=0.0) > 1e-10:
        raise ArithmeticError("isometry modes are not M-orthonormal")
    skew = basis.skew_residuals
    if np.any(np.abs(skew_res - skew) > 1e-12 + 1e-8 * skew):
        raise ArithmeticError("isometry skew residuals disagree with the "
                              "modes' skew extensions")
    ritz = basis.bending_ritz
    if (np.max(np.abs(bend @ bend.T - np.diag(ritz)), initial=0.0)
            > 1e-10 * max(1.0, np.max(np.abs(ritz), initial=0.0))):
        raise ArithmeticError("bending Gram of the modes is not diagonal "
                              "with bending_ritz on it")
    _, resid = iso._projection(
        iso._mass_rows(chart, iso._rigid_fields(chart)), rows)
    return float(np.max(resid))


def _verify_projection(chart, target, proj, degree):
    """Full-grid check of the projection, apart from its solve: the strain
    of the returned coefficients lies at the reported residual from the
    target."""
    gens = mem._dictionary_generators(chart, degree)
    _, _, strain = mem._dictionary_field(
        chart, gens, np.arange(proj.coefficients.size), proj.coefficients)
    dist = mem.form_rel_distance(chart, strain, target)
    if abs(dist - proj.residual) > 1e-8 * proj.residual + 1e-12:
        raise ArithmeticError("projection residual %r disagrees with the "
                              "distance %r of its coefficients' strain"
                              % (proj.residual, dist))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_surface(cfg, chart, outdir, checks):
    report = mem.robustness_classify(chart)
    payload = {
        "family": chart.family,
        "grid": list(chart.shape),
        "area": geo.integrate(chart, np.ones(chart.shape)),
        "h_max": float(np.max(np.abs(chart.second_form))),
        "robustness": report.label,
        "evidence": report.evidence,
    }
    if checks is not None:
        payload["verify"] = checks
    h = chart.second_form
    write_field_csv(outdir / "surface_nodes.csv", chart,
                    ["sqrt_g", "h11", "h12", "h22"],
                    np.stack([chart.sqrt_g, h[..., 0, 0], h[..., 0, 1],
                              h[..., 1, 1]], axis=-1)[None])
    return payload


def cmd_isometries(cfg, chart, outdir, checks):
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
    if checks is not None:
        payload["rigid_residual"] = _verify_basis(chart, basis)
    write_field_csv(outdir / "isometry_modes.csv", chart,
                    ["v%03d%s" % (k, c) for k in range(len(basis))
                     for c in "xyz"], basis.modes)
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


def _solve_membrane(cfg, chart, target):
    """The revolution membrane solve at [solver] fourier_order, checked
    against the circumferential grid."""
    if not 0 <= cfg.fourier_order <= chart.shape[1] // 2:
        raise ConfigError("[solver] fourier_order must lie in [0, %d] on a "
                          "grid with %d circumferential nodes, got %d"
                          % (chart.shape[1] // 2, chart.shape[1],
                             cfg.fourier_order))
    return mem.solve_revolution_membrane(chart, target,
                                         fourier_order=cfg.fourier_order)


def cmd_membrane(cfg, chart, outdir, checks):
    preset = cfg.target_preset or DEFAULT_TARGETS.get(chart.family)
    if preset is None:
        raise ConfigError("no default membrane target on a %s chart; set "
                          "[solver] target_preset" % chart.family)
    target = _membrane_target(preset, chart)
    payload = {"target_preset": preset}
    if chart.family in ("cylinder", "revolution"):
        sol = _solve_membrane(cfg, chart, target)
        payload.update({"residual": sol.residual,
                        "fourier_order": sol.fourier_order,
                        "flagged": sol.flagged})
        _write_vector_csv(outdir / "membrane_w.csv", chart, "w", sol.w.values)
    proj = mem.project_to_B(chart, target, degree=cfg.dictionary_degree)
    payload["projection_residual"] = proj.residual
    payload["projection_rank"] = proj.rank
    payload["dictionary_degree"] = cfg.dictionary_degree
    if checks is not None:
        _verify_projection(chart, target, proj, cfg.dictionary_degree)
    return payload


def cmd_energy(cfg, chart, outdir, checks):
    moduli = _moduli(cfg)
    V = _mode_field(cfg, chart)
    zero = FormField2(np.zeros(chart.shape + (2, 2)))
    breakdown = fn.total_I(chart, V, zero, cfg.kappa, moduli)
    load = _load(cfg, chart)
    rset = fn.rotation_set(load, sample_count=cfg.sample_count, seed=cfg.seed)
    # J = I - load work per candidate (fn.total_J), with I computed once
    work = fn.load_work(chart, load, rset.candidates, V)
    k = int(np.argmin(breakdown.total - work))
    Q = rset.candidates[k]
    best_J = {"stretching": breakdown.stretching, "bending": breakdown.bending,
              "load": float(work[k]), "total": float(breakdown.total - work[k])}
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
    if checks is not None:
        J = fn.total_J(chart, V, zero, cfg.kappa, moduli, load, Q).total
        if abs(J - best_J["total"]) > 1e-12 * abs(J):
            raise ArithmeticError("energy breakdown is inconsistent")
    return payload


def cmd_minimize(cfg, chart, outdir, checks):
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
                                       moduli)
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
    if checks is not None:
        hist = result.objective_history
        if cfg.kappa == 0:
            # the exact minimum is attained: recompute it independently.
            # A zero minimum is zero to rounding on the scale of its terms;
            # at a nonzero one |J| is a third of that scale or more
            parts = fn.total_J(chart, result.V_star, result.B_field,
                               cfg.kappa, moduli, load, result.rotation)
            J = parts.total
            QV = result.V_star.values @ result.rotation.T
            scale = abs(parts.bending) + geo.integrate(chart, np.abs(
                np.einsum("xyc,xyc->xy", load.f.values, QV)))
            zero = max(abs(J), abs(result.value)) <= 1e-12 * scale
            if abs(J - result.value) > 1e-12 * abs(J) and not zero:
                raise ArithmeticError("minimum disagrees with total_J")
        elif any(b - a > 1e-10 * max(abs(hist[0]), 1.0)
                 for a, b in zip(hist, hist[1:])):
            raise ArithmeticError("objective sequence increased")
    _write_vector_csv(outdir / "minimize_V.csv", chart, "v",
                      result.V_star.values)
    return payload


def cmd_gamma_check(cfg, chart, outdir, checks):
    V = _mode_field(cfg, chart)
    w = None
    if cfg.kappa > 0 and cfg.mode.startswith("cylinder"):
        if chart.family not in ("cylinder", "revolution"):
            raise ConfigError("mode %r at kappa > 0 needs a cylinder or "
                              "revolution chart for its membrane solve, "
                              "not %s" % (cfg.mode, chart.family))

        def w(target):   # build_ansatz passes (kappa/2)(A^2)_tan
            return _solve_membrane(cfg, chart, target).w
    ansatz = gc.build_ansatz(chart, V, w=w, kappa=cfg.kappa,
                             moduli=_moduli(cfg),
                             e_rule=gc.thickness_scaling(cfg.e_rule,
                                                         cfg.kappa))
    table = gc.convergence_study(ansatz, cfg.h_ladder, t_quad=cfg.t_quad)
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
    """Run one subcommand on the command line ``argv`` and return its exit
    code.  The result JSON and the manifest are written only when the
    subcommand and every check pass."""
    parser = argparse.ArgumentParser(
        prog="vkshell",
        description="Shell-limit energies: evaluation, minimization, "
                    "and thin-limit verification.")
    parser.add_argument("command", choices=DISPATCH)
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
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError("cannot create output directory %r: %s"
                              % (str(outdir), exc)) from exc
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    try:
        chart = _build_chart(cfg)
        checks = _verify_chart(chart) if args.verify else None
        payload = DISPATCH[args.command](cfg, chart, outdir, checks)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (ArithmeticError, mz.MinimizationError, np.linalg.LinAlgError,
            ValueError) as exc:
        diag = {"error": str(exc), "type": type(exc).__name__}
        if isinstance(exc, mz.MinimizationError):
            diag["diagnostics"] = exc.diagnostics
        print(json.dumps(diag, sort_keys=True), file=sys.stderr)
        return 3

    write_json(outdir / ("%s_result.json" % args.command.replace("-", "_")),
               payload)
    manifest = {
        "command": args.command,
        "config": asdict(cfg),
        "versions": {
            "vkshell": __version__,
            "numpy": np.__version__,
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
