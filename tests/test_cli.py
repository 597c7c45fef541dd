import configparser
import csv
import dataclasses
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import vkshell as vk
from vkshell import cli
from vkshell import functional as fn
from vkshell import isometry as iso


PLATE_CFG = """
[surface]
family = plate
grid = 16 16

[moduli]
mu = 1.0
lambda = 1.0

[scaling]
kappa = 0.0

[load]
preset = normal_saddle
remove_mean = true

[solver]
basis_size = 12
seed = 3

[output]
directory = {out}
"""

CYL_CFG = """
[surface]
family = cylinder
grid = 16 32
radius = 1.0
height = 1.0

[moduli]
mu = 1.0
lambda = 1.0

[scaling]
kappa = 1.0

[load]
preset = radial_cos2
remove_mean = true

[solver]
basis_size = 12
mode = cylinder_ovalization
h_ladder = 0.1 0.05 0.025 0.0125
fourier_order = 8
dictionary_degree = 4
seed = 1
sample_count = 8

[output]
directory = {out}
"""


REV_CFG = """
[surface]
family = revolution
grid = 16 32
profile_poly = 1.0 0.0 0.3

[solver]
dictionary_degree = 6

[output]
directory = {out}
"""


def write_cfg(tmp_path, text, name="run.cfg", out="out"):
    cfg = tmp_path / name
    cfg.write_text(text.format(out=tmp_path / out))
    return str(cfg)


def test_parse_config_defaults_echoed(tmp_path):
    cfg_path = write_cfg(tmp_path, PLATE_CFG)
    cfg = cli.parse_config(cfg_path)
    echo = json.loads(json.dumps(dataclasses.asdict(cfg)))
    # every field is recorded, including untouched defaults
    assert echo["grid"] == [16, 16]
    assert echo["restarts"] == 2
    assert echo["dictionary_degree"] == 4
    assert echo["tol"] == 1e-9


def test_missing_config_exit_code(tmp_path):
    assert cli.run(["surface", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_non_utf8_config_is_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"[surface]\nfamily = plate\n# caf\xe9\n")
    assert cli.run(["surface", "--config", str(cfg),
                    "--output-dir", str(tmp_path / "o")]) == 2


def test_bad_value_is_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[surface]\nfamily = plate\ngrid = a b\n")
    assert cli.run(["surface", "--config", str(cfg)]) == 2


def test_non_integer_grid_is_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[surface]\nfamily = plate\ngrid = 8.7 8\n")
    assert cli.run(["surface", "--config", str(cfg),
                    "--output-dir", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    cfg.write_text("[surface]\nfamily = plate\ngrid = 8 8.0\n")
    assert cli.parse_config(str(cfg)).grid == (8, 8)


def test_bad_e_rule_is_config_error(tmp_path):
    """An unreadable h^p exponent and an unknown rule name are config
    errors on every command, caught before any output is written."""
    cfg = tmp_path / "bad.cfg"
    for rule in ("h^abc", "bogus"):
        cfg.write_text("[surface]\nfamily = plate\ngrid = 16 16\n"
                       "[scaling]\ne_rule = %s\n" % rule)
        for command in ("gamma-check", "surface"):
            assert cli.run([command, "--config", str(cfg),
                            "--output-dir", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
    for rule in ("kappa2h4", "h5", "h^4.5"):
        cfg.write_text("[scaling]\ne_rule = %s\n" % rule)
        assert cli.parse_config(str(cfg)).e_rule == rule


def test_surface_plate_report(tmp_path):
    cfg_path = write_cfg(tmp_path, PLATE_CFG)
    assert cli.run(["surface", "--config", cfg_path, "--verify"]) == 0
    data = json.loads((tmp_path / "out" / "surface_result.json").read_text())
    assert data["h_max"] == 0.0
    assert data["robustness"] == "NotApproximatelyRobust-Plate"
    assert abs(data["area"] - 1.0) < 1e-12
    assert (tmp_path / "out" / "surface_nodes.csv").exists()
    assert (tmp_path / "out" / "manifest.json").exists()


def test_isometries_subcommand(tmp_path):
    cfg_path = write_cfg(tmp_path, PLATE_CFG)
    assert cli.run(["isometries", "--config", cfg_path, "--verify"]) == 0
    data = json.loads((tmp_path / "out" / "isometries_result.json").read_text())
    assert data["count"] == 12
    assert data["cluster_size"] == 16 * 16 + 3
    assert data["gap_ratio"] >= 1e3
    assert data["rigid_residual"] <= 1e-8
    assert (tmp_path / "out" / "isometry_modes.csv").exists()


BYTE_IDENTICAL_RUNS = {
    "plate": ("isometries", PLATE_CFG),
    "cylinder": ("isometries", CYL_CFG),
    "surface-revolution": ("surface", REV_CFG),
    "membrane-revolution": ("membrane", REV_CFG),
    "membrane-plate": ("membrane", PLATE_CFG),
    "energy-cylinder": ("energy", CYL_CFG),
    "minimize-cylinder": ("minimize", CYL_CFG),
    "gamma-check-cylinder": ("gamma-check", CYL_CFG),
}


@pytest.mark.parametrize("run", sorted(BYTE_IDENTICAL_RUNS))
def test_isometries_result_is_byte_identical(tmp_path, run):
    """Every subcommand writes the same result JSON bytes on a rerun (the
    membrane runs cover the character-blocked and the dense projection)."""
    command, text = BYTE_IDENTICAL_RUNS[run]
    cfg_path = write_cfg(tmp_path, text)
    runs = []
    for out in ("r1", "r2"):
        assert cli.run([command, "--config", cfg_path, "--verify",
                        "--output-dir", str(tmp_path / out)]) == 0
        runs.append({f.name: f.read_bytes()
                     for f in (tmp_path / out).glob("*_result.json")})
    assert runs[0] and runs[0] == runs[1]


@pytest.mark.parametrize("run", sorted(BYTE_IDENTICAL_RUNS))
def test_every_csv_is_byte_identical(tmp_path, run):
    """Every CSV a subcommand writes has the same bytes on a rerun.  energy
    writes none, and membrane writes membrane_w.csv only on cylinder and
    revolution charts."""
    command, text = BYTE_IDENTICAL_RUNS[run]
    cfg_path = write_cfg(tmp_path, text)
    runs = []
    for out in ("r1", "r2"):
        assert cli.run([command, "--config", cfg_path, "--verify",
                        "--output-dir", str(tmp_path / out)]) == 0
        runs.append({f.name: f.read_bytes()
                     for f in (tmp_path / out).glob("*.csv")})
    assert bool(runs[0]) != (run in ("energy-cylinder", "membrane-plate"))
    assert runs[0] == runs[1]


def _csv_module_reference(path, header, table):
    """The writer the CSV format was defined by: the csv module's default
    dialect on the rows as Python floats."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(np.asarray(table, float).tolist())


SPECIAL_FLOATS = np.concatenate([
    [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 0.1, 1 / 3, 2.0**60],
    # a NaN with a payload, and one with its sign bit set
    np.array([0x7FF8000000000123, 0xFFF8000000000000],
             dtype=np.uint64).view(float)])


def _shared_blocks_table():
    """More than two 1024-row blocks drawn from one small pool of values,
    so that every block repeats values that other blocks hold too."""
    pool = np.concatenate([SPECIAL_FLOATS, np.linspace(-1.0, 1.0, 7)])
    return np.random.default_rng(5).choice(pool, size=(2500, 6))


def _node_stack_table():
    """The node columns of a 16x48 grid followed by a stack of 40
    three-column fields, as (table, stack) and as the whole table."""
    rng = np.random.default_rng(7)
    nodes = np.round(rng.standard_normal((16 * 48, 5)), 3)
    stack = rng.standard_normal((40, 16 * 48, 3))
    stack[:, ::5] = 0.0
    stack[3] = -stack[2]
    return (nodes, stack), np.concatenate(
        [nodes, np.moveaxis(stack, 0, 1).reshape(16 * 48, -1)], axis=1)


CSV_TABLES = {
    "special-row": SPECIAL_FLOATS[None, :],
    "special-column": SPECIAL_FLOATS[:, None],
    "shared-blocks": _shared_blocks_table(),
    "one-row": np.array([[1.5, -2.0, 0.0]]),
    "zero-rows": np.zeros((0, 3)),
    # wider than one block's cell budget: every block is a single row
    "wide-rows": np.random.default_rng(6).choice(
        np.concatenate([SPECIAL_FLOATS, np.linspace(-1.0, 1.0, 7)]),
        size=(3, 9000)),
    "node-stack": _node_stack_table(),
}


@pytest.mark.parametrize("name", sorted(CSV_TABLES))
def test_write_csv_matches_csv_module(tmp_path, name):
    table = CSV_TABLES[name]
    if isinstance(table, tuple):    # node columns and an appended stack
        args, table = table
    else:
        args = (table,)
    header = ["c%d" % k for k in range(table.shape[1])]
    cli._write_csv(tmp_path / "new.csv", header, *args)
    _csv_module_reference(tmp_path / "ref.csv", header, table)
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def test_isometry_mode_csv_holds_modes_bit_for_bit(tmp_path, monkeypatch):
    """Columns 5+3k .. 7+3k of isometry_modes.csv read back as
    basis.modes[k] exactly: each float is written as its shortest
    round-trip repr."""
    bases = []
    exact = iso.isometry_basis

    def recorded(*args, **kwargs):
        bases.append(exact(*args, **kwargs))
        return bases[-1]

    monkeypatch.setattr(iso, "isometry_basis", recorded)
    cfg_path = write_cfg(tmp_path, CYL_CFG)
    assert cli.run(["isometries", "--config", cfg_path]) == 0
    (basis,) = bases
    path = tmp_path / "out" / "isometry_modes.csv"
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["u1", "u2", "x", "y", "z"] + [
        "v%03d%s" % (k, c) for k in range(len(basis)) for c in "xyz"]
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert table.shape == (basis.chart.n_nodes, 5 + 3 * len(basis))
    for k, mode in enumerate(basis.modes):
        assert np.array_equal(table[:, 5 + 3 * k:8 + 3 * k].view(np.int64),
                              mode.reshape(-1, 3).view(np.int64))


def test_isometries_empty_basis_writes_node_columns(tmp_path):
    """sphere_patch 10x16 keeps no mode at the default basis_tol: --verify
    still passes, and isometry_modes.csv carries the five node columns."""
    cfg_path = write_cfg(tmp_path, "[surface]\nfamily = sphere_patch\n"
                         "grid = 10 16\n\n[output]\ndirectory = {out}\n")
    assert cli.run(["isometries", "--config", cfg_path, "--verify"]) == 0
    data = json.loads((tmp_path / "out" / "isometries_result.json")
                      .read_text())
    assert data["empty"] and data["count"] == 0
    path = tmp_path / "out" / "isometry_modes.csv"
    assert path.read_text().splitlines()[0] == "u1,u2,x,y,z"
    chart = vk.build_chart("sphere_patch", {}, (10, 16))
    U1, U2 = np.meshgrid(chart.u1, chart.u2, indexing="ij")
    np.testing.assert_array_equal(
        np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2),
        np.column_stack([U1.ravel(), U2.ravel(), chart.pos.reshape(-1, 3)]))


def test_isometries_verify_catches_corrupt_basis(tmp_path, monkeypatch):
    """--verify recomputes the strain Rayleigh quotients, the W^{1,2} Gram,
    the skew residuals and the bending Gram of the returned modes on the
    full grid."""
    chart = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0},
                           (16, 32))
    basis = iso.isometry_basis(chart, n_request=12)
    cli._verify_basis(chart, basis)
    # a unit stretch field M-orthogonal to the other modes
    others = basis.modes[1:]
    coeffs = (iso._mass_rows(chart, others)
              @ iso._mass_rows(chart, chart.pos[None])[0])
    v = chart.pos - np.tensordot(coeffs, others, axes=1)
    v /= np.linalg.norm(iso._mass_rows(chart, v[None]))
    stretched = dataclasses.replace(basis,
                                    modes=np.concatenate([v[None], others]))
    with pytest.raises(ArithmeticError, match="Rayleigh"):
        cli._verify_basis(chart, stretched)
    scaled = dataclasses.replace(basis, modes=basis.modes * (1.0 + 1e-6))
    with pytest.raises(ArithmeticError, match="orthonormal"):
        cli._verify_basis(chart, scaled)
    skewed = dataclasses.replace(
        basis, skew_residuals=basis.skew_residuals + 1e-11)
    with pytest.raises(ArithmeticError, match="skew residuals"):
        cli._verify_basis(chart, skewed)
    ritz = basis.bending_ritz.copy()
    ritz[-1] += 1e-9 * max(1.0, ritz[-1])
    with pytest.raises(ArithmeticError, match="bending"):
        cli._verify_basis(chart, dataclasses.replace(basis, bending_ritz=ritz))

    solve = iso.isometry_basis

    def scaled_solve(chart, **kwargs):
        basis = solve(chart, **kwargs)
        return dataclasses.replace(basis, modes=basis.modes * (1.0 + 1e-6))

    monkeypatch.setattr(iso, "isometry_basis", scaled_solve)
    cfg_path = write_cfg(tmp_path, CYL_CFG)
    assert cli.run(["isometries", "--config", cfg_path]) == 0
    assert cli.run(["isometries", "--config", cfg_path, "--verify"]) == 3


def test_verify_basis_does_not_depend_on_its_chunks(monkeypatch):
    """_verify_basis takes the modes in chunks of about _VERIFY_NODES
    mode-nodes: one mode per chunk, chunks of 5 with a partial last one and
    all 12 modes at once pass alike and give the same rigid residual, and
    an empty basis is one empty chunk."""
    chart = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0},
                           (16, 32))
    basis = iso.isometry_basis(chart, n_request=12)
    assert len(basis) == 12
    got = []
    for nodes in (1, 5 * chart.n_nodes, 12 * chart.n_nodes):
        monkeypatch.setattr(cli, "_VERIFY_NODES", nodes)
        got.append(cli._verify_basis(chart, basis))
    np.testing.assert_allclose(got, got[-1], rtol=1e-12, atol=0)
    empty = iso.isometry_basis(chart, n_request=0)
    assert empty.empty and cli._verify_basis(chart, empty) == 1.0


def test_isometries_verify_compares_rayleigh_with_full_grid(tmp_path,
                                                           monkeypatch):
    """rayleigh is read off the blocks, and --verify compares it with the
    modes' full-grid strain Rayleigh quotients to 1e-12 rho_max: a value
    raised by 1e-10 rho_max exits 3 and writes no result JSON."""
    solve = iso.isometry_basis

    def raised(chart, **kwargs):
        basis = solve(chart, **kwargs)
        return dataclasses.replace(basis, rayleigh=basis.rayleigh
                                   + 1e-10 * basis.tol / basis.tol_rel)

    monkeypatch.setattr(iso, "isometry_basis", raised)
    cfg_path = write_cfg(tmp_path, CYL_CFG)
    result = tmp_path / "out" / "isometries_result.json"
    assert cli.run(["isometries", "--config", cfg_path]) == 0
    result.unlink()
    assert cli.run(["isometries", "--config", cfg_path, "--verify"]) == 3
    assert not result.exists()
    chart = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0},
                           (16, 32))
    with pytest.raises(ArithmeticError, match="rayleigh"):
        cli._verify_basis(chart, raised(chart, n_request=12))


def test_verify_chart_checks_frame_lengths():
    """The frame check is one Gram check, so a frame vector that is
    orthogonal to the others but not unit fails it."""
    chart = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0},
                           (12, 16))
    assert cli._verify_chart(chart) == {"unit_normal": True,
                                        "frame_orthonormal": True,
                                        "metric_spd": True}
    scaled = dataclasses.replace(chart, frame_e1=chart.frame_e1 * (1 + 1e-6))
    with pytest.raises(ArithmeticError, match="frame_orthonormal"):
        cli._verify_chart(scaled)


def test_membrane_verify_recomputes_projection_residual(tmp_path,
                                                        monkeypatch):
    """--verify recomputes the strain of the returned dictionary
    coefficients on the full grid and compares its distance from the
    target with the reported residual."""
    cfg_path = write_cfg(tmp_path, CYL_CFG)
    assert cli.run(["membrane", "--config", cfg_path, "--verify"]) == 0
    project = cli.mem.project_to_B

    def scaled_projection(*args, **kwargs):
        proj = project(*args, **kwargs)
        return dataclasses.replace(
            proj, coefficients=proj.coefficients * (1.0 + 1e-6))

    monkeypatch.setattr(cli.mem, "project_to_B", scaled_projection)
    assert cli.run(["membrane", "--config", cfg_path,
                    "--output-dir", str(tmp_path / "o")]) == 0
    assert cli.run(["membrane", "--config", cfg_path, "--verify",
                    "--output-dir", str(tmp_path / "v")]) == 3
    assert not (tmp_path / "v" / "membrane_result.json").exists()


def test_membrane_subcommand(tmp_path):
    cfg_path = write_cfg(tmp_path, CYL_CFG)
    assert cli.run(["membrane", "--config", cfg_path]) == 0
    data = json.loads((tmp_path / "out" / "membrane_result.json").read_text())
    assert data["residual"] <= 1e-8
    assert not data["flagged"]
    assert (tmp_path / "out" / "membrane_w.csv").exists()


def test_energy_subcommand(tmp_path):
    cfg_path = write_cfg(tmp_path, CYL_CFG)
    assert cli.run(["energy", "--config", cfg_path, "--verify"]) == 0
    data = json.loads((tmp_path / "out" / "energy_result.json").read_text())
    assert data["bending"] > 0
    total = data["best_J"]
    assert abs(total["total"] - (total["stretching"] + total["bending"]
                                 - total["load"])) < 1e-10


def test_energy_best_J_is_the_least_total_J_over_the_candidates(tmp_path):
    """energy scans every rotation candidate through one load moment; its
    best_J is the least total_J among them."""
    text = CYL_CFG.replace("preset = radial_cos2", "preset = normal_saddle") \
        .replace("sample_count = 8", "sample_count = 64")
    cfg_path = write_cfg(tmp_path, text)
    assert cli.run(["energy", "--config", cfg_path]) == 0
    data = json.loads((tmp_path / "out" / "energy_result.json").read_text())
    cfg = cli.parse_config(cfg_path)
    chart = cli._build_chart(cfg)
    load = cli._load(cfg, chart)
    V = cli._mode_field(cfg, chart)
    zero = vk.FormField2(np.zeros(chart.shape + (2, 2)))
    candidates = fn.rotation_set(load, sample_count=64, seed=1).candidates
    assert len(candidates) == 64
    least = min(fn.total_J(chart, V, zero, cfg.kappa, cli._moduli(cfg), load,
                           Q).total for Q in candidates)
    assert abs(data["best_J"]["total"] - least) <= 1e-12 * abs(least)


def test_energy_verify_catches_inconsistent_breakdown(tmp_path, monkeypatch):
    """--verify recomputes J with functional.total_J, so a load term that
    disagrees with it is caught."""
    cfg_path = write_cfg(tmp_path, CYL_CFG)
    skewed = types.SimpleNamespace(**vars(fn))
    skewed.load_work = lambda *args: fn.load_work(*args) + 1e-6
    monkeypatch.setattr(cli, "fn", skewed)
    assert cli.run(["energy", "--config", cfg_path]) == 0
    assert cli.run(["energy", "--config", cfg_path, "--verify"]) == 3


def _shift_minimum(monkeypatch, shift):
    """Make cli's minimize_quadratic report value + shift(value)."""
    exact = cli.mz.minimize_quadratic

    def shifted_minimum(*args):
        result = exact(*args)
        return dataclasses.replace(result,
                                   value=result.value + shift(result.value))

    shifted = types.SimpleNamespace(**vars(cli.mz))
    shifted.minimize_quadratic = shifted_minimum
    monkeypatch.setattr(cli, "mz", shifted)


def test_minimize_verify_recomputes_bending_minimum(tmp_path, monkeypatch):
    """For kappa = 0, --verify recomputes J at the returned minimizer with
    functional.total_J, so a reported value shifted by 1e-6 is caught."""
    cfg_path = write_cfg(tmp_path, PLATE_CFG)
    assert cli.run(["minimize", "--config", cfg_path, "--verify"]) == 0
    _shift_minimum(monkeypatch, lambda v: 1e-6)
    assert cli.run(["minimize", "--config", cfg_path,
                    "--output-dir", str(tmp_path / "o")]) == 0
    assert cli.run(["minimize", "--config", cfg_path, "--verify",
                    "--output-dir", str(tmp_path / "v")]) == 3
    assert not (tmp_path / "v" / "minimize_result.json").exists()


@pytest.mark.parametrize("grid", ["12 12", "16 16"])
def test_minimize_verify_accepts_a_zero_minimum(tmp_path, monkeypatch, grid):
    """With 8 modes the saddle load is orthogonal to the bending pair, so
    the minimum is 0 and J and the value differ by rounding alone: --verify
    passes, and still catches a value moved off zero by 1e-20."""
    cfg_path = write_cfg(tmp_path, PLATE_CFG.replace(
        "grid = 16 16", "grid = " + grid).replace("basis_size = 12",
                                                  "basis_size = 8"))
    assert cli.run(["minimize", "--config", cfg_path, "--verify"]) == 0
    value = json.loads((tmp_path / "out" / "minimize_result.json")
                       .read_text())["value"]
    assert abs(value) <= 1e-25
    _shift_minimum(monkeypatch, lambda v: 1e-20)
    assert cli.run(["minimize", "--config", cfg_path, "--verify",
                    "--output-dir", str(tmp_path / "v")]) == 3


def test_minimize_verify_keeps_relative_check_at_nonzero_minimum(
        tmp_path, monkeypatch):
    """A nonzero minimum moved by 1e-11 of itself still fails --verify."""
    cfg_path = write_cfg(tmp_path, PLATE_CFG)
    _shift_minimum(monkeypatch, lambda v: 1e-11 * abs(v))
    assert cli.run(["minimize", "--config", cfg_path, "--verify"]) == 3


def test_minimize_rigid_only_basis_is_numerical_failure(tmp_path):
    """The plate's first 4 modes lie in the rigid span, so no complement
    field is left and minimize exits 3 with the named error instead of a
    value from a field outside the complement."""
    cfg_path = write_cfg(tmp_path, PLATE_CFG.replace("basis_size = 12",
                                                     "basis_size = 4"))
    assert cli.run(["minimize", "--config", cfg_path]) == 3
    assert not (tmp_path / "out" / "minimize_result.json").exists()


def test_minimize_subcommand_and_determinism(tmp_path):
    cfg_path = write_cfg(tmp_path, CYL_CFG)
    assert cli.run(["minimize", "--config", cfg_path,
                    "--output-dir", str(tmp_path / "r1")]) == 0
    assert cli.run(["minimize", "--config", cfg_path,
                    "--output-dir", str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1" / "minimize_result.json").read_bytes()
    b2 = (tmp_path / "r2" / "minimize_result.json").read_bytes()
    assert b1 == b2
    c1 = (tmp_path / "r1" / "minimize_V.csv").read_bytes()
    c2 = (tmp_path / "r2" / "minimize_V.csv").read_bytes()
    assert c1 == c2
    data = json.loads(b1)
    assert data["value"] <= 1e-12
    assert data["stop_reason"] == "converged" and not data["flagged"]
    assert data["wellposed"] in (True, False)


def test_gamma_check_subcommand(tmp_path):
    cfg_path = write_cfg(tmp_path, CYL_CFG)
    assert cli.run(["gamma-check", "--config", cfg_path]) == 0
    data = json.loads((tmp_path / "out" / "gamma_check_result.json").read_text())
    assert data["strictly_decreasing"]
    assert data["final_relative_error"] <= 0.05
    assert 3.8 <= data["energy_slope"] <= 4.3
    rows = (tmp_path / "out" / "gamma_check_table.csv").read_text().splitlines()
    assert rows[0].split(",")[0] == "h"
    errors = [float(r.split(",")[3]) for r in rows[1:]]
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_gamma_check_forms_the_skew_extension_once(tmp_path, monkeypatch):
    """One gamma-check at kappa = 1 with a membrane-solved w forms the skew
    extension of V and its (A^2)_tan once: the membrane target is handed
    to the solve by build_ansatz."""
    calls = {"extend_A": 0, "a_squared_tan": 0}
    for module, name in ((iso, "extend_A"), (fn, "a_squared_tan")):
        def counted(*args, _func=getattr(module, name), _name=name, **kw):
            calls[_name] += 1
            return _func(*args, **kw)
        monkeypatch.setattr(module, name, counted)
    cfg_path = write_cfg(tmp_path, CYL_CFG)
    assert cli.run(["gamma-check", "--config", cfg_path, "--verify"]) == 0
    assert calls == {"extend_A": 1, "a_squared_tan": 1}


def test_one_start_minimize_leaves_out_numpy_random(tmp_path):
    """minimize with one start draws no seeded start, so a fresh
    interpreter never imports numpy.random."""
    cfg_path = write_cfg(tmp_path, CYL_CFG)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from vkshell.cli import run; "
         "code = run(['minimize', '--config', %r, '--restarts', '1']); "
         "print(code, 'numpy.random' in sys.modules)" % cfg_path],
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.split() == ["0", "False"]


def test_membrane_plate_projection_path(tmp_path):
    text = PLATE_CFG.replace("[solver]",
                             "[solver]\ntarget_preset = plate_nonrobust")
    cfg_path = write_cfg(tmp_path, text)
    assert cli.run(["membrane", "--config", cfg_path]) == 0
    data = json.loads((tmp_path / "out" / "membrane_result.json").read_text())
    assert "residual" not in data  # no revolution solve on a plate
    assert data["projection_residual"] > 0.1


def test_membrane_default_target_per_family(tmp_path):
    cfg_path = write_cfg(tmp_path, PLATE_CFG)
    assert cli.run(["membrane", "--config", cfg_path]) == 0
    data = json.loads((tmp_path / "out" / "membrane_result.json").read_text())
    assert data["target_preset"] == "plate_nonrobust"
    assert data["projection_residual"] > 0.1
    cfg_path = write_cfg(tmp_path, CYL_CFG, name="cyl.cfg", out="cyl")
    assert cli.run(["membrane", "--config", cfg_path]) == 0
    data = json.loads((tmp_path / "cyl" / "membrane_result.json").read_text())
    assert data["target_preset"] == "ovalization_a2"
    sphere = PLATE_CFG.replace("family = plate", "family = sphere_patch")
    cfg_path = write_cfg(tmp_path, sphere, name="sph.cfg", out="sph")
    assert cli.run(["membrane", "--config", cfg_path]) == 2


def test_membrane_csv_target(tmp_path):
    import vkshell as vk
    cyl = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0}, (16, 32))
    n = cyl.n_nodes
    rows = np.zeros((n, 3))
    rows[:, 0] = 0.3  # constant axial strain: realizable (w = 0.3 s e3)
    target_csv = tmp_path / "target.csv"
    np.savetxt(target_csv, rows, delimiter=",", header="b11,b22,b12")
    text = CYL_CFG.replace("[solver]",
                           "[solver]\ntarget_preset = %s" % target_csv)
    cfg_path = write_cfg(tmp_path, text)
    assert cli.run(["membrane", "--config", cfg_path]) == 0
    data = json.loads((tmp_path / "out" / "membrane_result.json").read_text())
    assert data["residual"] <= 1e-8


def test_load_csv_input(tmp_path):
    import vkshell as vk
    plate = vk.build_chart("plate", {}, (16, 16))
    U1, _ = np.meshgrid(plate.u1, plate.u2, indexing="ij")
    f = np.zeros(plate.shape + (3,))
    f[..., 2] = U1 - 0.5
    load_csv = tmp_path / "load.csv"
    np.savetxt(load_csv, f.reshape(-1, 3), delimiter=",", header="fx,fy,fz")
    text = PLATE_CFG.replace("preset = normal_saddle",
                             "csv = %s" % load_csv)
    cfg_path = write_cfg(tmp_path, text)
    assert cli.run(["minimize", "--config", cfg_path]) == 0
    data = json.loads((tmp_path / "out" / "minimize_result.json").read_text())
    assert data["value"] < 0  # the load does work on the bending modes


def test_idempotent_overwrite(tmp_path):
    cfg_path = write_cfg(tmp_path, PLATE_CFG)
    assert cli.run(["surface", "--config", cfg_path]) == 0
    first = (tmp_path / "out" / "surface_result.json").read_bytes()
    assert cli.run(["surface", "--config", cfg_path]) == 0
    second = (tmp_path / "out" / "surface_result.json").read_bytes()
    assert first == second


def test_console_entry_point(tmp_path):
    cfg_path = write_cfg(tmp_path, PLATE_CFG)
    proc = subprocess.run(
        [sys.executable, "-m", "vkshell.cli"],
        capture_output=True, text=True)
    assert proc.returncode == 2  # argparse usage error: missing command
    proc = subprocess.run(
        [sys.executable, "-c",
         "from vkshell.cli import run; import sys; "
         "sys.exit(run(['surface', '--config', %r]))" % cfg_path],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_cli_import_leaves_out_scipy_interpolate():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, vkshell.cli; "
         "print('scipy.interpolate' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_cli_import_leaves_out_scipy():
    """vkshell runs on numpy alone: importing the package and its CLI in a
    fresh interpreter loads no scipy module."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, vkshell, vkshell.cli; "
         "print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


BAD_INPUTS = {
    "negative_basis_size": (PLATE_CFG, [("basis_size = 12", "basis_size = -1")],
                            ("isometries",)),
    "negative_dictionary_degree": (
        CYL_CFG, [("dictionary_degree = 4", "dictionary_degree = -1")],
        ("membrane", "minimize")),
    "zero_sample_count": (
        CYL_CFG, [("preset = radial_cos2", "preset = normal_saddle"),
                  ("sample_count = 8", "sample_count = 0")], ("energy",)),
    "missing_load_csv": (PLATE_CFG, [("preset = normal_saddle", "csv = MISSING")],
                         ("minimize",)),
    "missing_target_csv": (
        CYL_CFG, [("[solver]", "[solver]\ntarget_preset = MISSING")],
        ("membrane",)),
    "fourier_order_above_grid": (
        CYL_CFG, [("grid = 16 32", "grid = 12 16"),
                  ("fourier_order = 8", "fourier_order = 16")],
        ("membrane", "gamma-check")),
    "t_quad_above_8": (CYL_CFG, [("fourier_order = 8",
                                  "fourier_order = 8\nt_quad = 12")],
                       ("gamma-check",)),
    "h_ladder_not_decreasing": (
        CYL_CFG, [("h_ladder = 0.1 0.05 0.025 0.0125",
                   "h_ladder = 0.1 0.2 0.05 0.01")], ("gamma-check",)),
    "h_ladder_above_half": (
        CYL_CFG, [("h_ladder = 0.1 0.05 0.025 0.0125",
                   "h_ladder = 0.9 0.5 0.2 0.1")], ("gamma-check",)),
    "negative_seed": (PLATE_CFG, [("seed = 3", "seed = -1")],
                      ("minimize", "energy")),
    "negative_kappa": (PLATE_CFG, [("kappa = 0.0", "kappa = -1")],
                       ("minimize", "gamma-check")),
    "nan_kappa": (PLATE_CFG, [("kappa = 0.0", "kappa = nan")],
                  ("energy", "minimize")),
    "infinite_kappa": (PLATE_CFG, [("kappa = 0.0", "kappa = inf")],
                       ("minimize",)),
    "unknown_load_preset": (PLATE_CFG, [("preset = normal_saddle",
                                         "preset = bogus")],
                            ("energy", "minimize")),
    "line_before_first_section": (PLATE_CFG, [("[surface]",
                                               "grid = 16 16\n[surface]")],
                                  ("surface",)),
    "duplicate_option": (PLATE_CFG, [("grid = 16 16",
                                      "grid = 16 16\ngrid = 16 16")],
                         ("surface",)),
    "bad_interpolation": (PLATE_CFG, [("kappa = 0.0", "kappa = 0.0%")],
                          ("minimize",)),
    "unknown_family": (PLATE_CFG, [("family = plate", "family = torus")],
                       ("surface", "isometries")),
    "grid_below_8": (PLATE_CFG, [("grid = 16 16", "grid = 4 4")],
                     ("surface", "energy")),
    "negative_radius": (CYL_CFG, [("radius = 1.0", "radius = -1")],
                        ("surface", "membrane")),
    "unknown_theta_scheme": (CYL_CFG, [("radius = 1.0", "radius = 1.0\n"
                                        "theta_scheme = fancy")],
                             ("surface",)),
    "plate_bounds_reversed": (PLATE_CFG, [("grid = 16 16", "grid = 16 16\n"
                                           "bounds = 1 0 0 1")],
                              ("surface", "isometries")),
    "plate_bounds_nan": (PLATE_CFG, [("grid = 16 16", "grid = 16 16\n"
                                      "bounds = 0 nan 0 1")], ("surface",)),
    "s_range_reversed": (CYL_CFG, [("height = 1.0", "s_range = 1 0")],
                         ("surface", "membrane")),
    "s_range_empty": (CYL_CFG, [("height = 1.0", "s_range = 0 0")],
                      ("surface",)),
    "infinite_height": (CYL_CFG, [("height = 1.0", "height = inf")],
                        ("surface",)),
    "nan_radius": (CYL_CFG, [("radius = 1.0", "radius = nan")],
                   ("surface", "isometries")),
    "infinite_sphere_radius": (CYL_CFG, [("family = cylinder",
                                          "family = sphere_patch"),
                                         ("radius = 1.0", "radius = inf")],
                               ("surface",)),
    "nan_profile": (CYL_CFG, [("family = cylinder", "family = revolution\n"
                               "profile_poly = 1 nan")], ("surface",)),
    "profile_not_positive": (CYL_CFG, [("family = cylinder",
                                        "family = revolution\n"
                                        "profile_poly = 0.5 0 -1")],
                             ("surface", "membrane")),
    "cylinder_mode_on_plate": (
        PLATE_CFG, [("kappa = 0.0", "kappa = 1.0"),
                    ("grid = 16 16", "grid = 16 40"),
                    ("seed = 3", "seed = 3\nmode = cylinder_ovalization")],
        ("gamma-check",)),
    "cylinder_mode_on_sphere_patch": (
        CYL_CFG, [("family = cylinder", "family = sphere_patch")],
        ("gamma-check",)),
    "plate_bounds_three_numbers": (PLATE_CFG, [("grid = 16 16",
                                                "grid = 16 16\n"
                                                "bounds = 0 1 0")],
                                   ("surface",)),
    "s_range_one_number": (CYL_CFG, [("height = 1.0", "s_range = 1")],
                           ("surface",)),
    "unknown_mode": (PLATE_CFG, [("seed = 3", "seed = 3\nmode = bogus")],
                     ("energy", "gamma-check")),
    "ovalization_target_on_plate": (
        PLATE_CFG, [("seed = 3", "seed = 3\ntarget_preset = ovalization_a2")],
        ("membrane",)),
    "unknown_target_preset": (
        CYL_CFG, [("[solver]", "[solver]\ntarget_preset = bogus")],
        ("membrane",)),
    "short_load_csv": (PLATE_CFG, [("preset = normal_saddle", "csv = SHORT")],
                       ("energy", "minimize")),
}
for _key, _value, _commands in (
        ("mu", "-1", ("energy", "minimize")), ("mu", "0", ("energy",)),
        ("lambda", "-0.5", ("energy", "minimize")),
        ("lambda", "inf", ("energy",)), ("mu", "inf", ("energy",)),
        ("basis_tol", "0", ("isometries", "minimize")),
        ("basis_tol", "-1", ("isometries",)),
        ("basis_tol", "inf", ("isometries", "minimize")),
        ("tol", "0", ("minimize",)), ("tol", "-1", ("minimize",)),
        ("tol", "inf", ("minimize",)),
        ("max_iter", "0", ("minimize",)), ("max_iter", "-5", ("minimize",)),
        ("restarts", "0", ("minimize",)), ("restarts", "-3", ("minimize",))):
    _edit = (("%s = 1.0" % _key, "%s = %s" % (_key, _value))
             if _key in ("mu", "lambda")
             else ("seed = 3", "seed = 3\n%s = %s" % (_key, _value)))
    BAD_INPUTS["%s_%s" % (_key, _value)] = (PLATE_CFG, [_edit], _commands)


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_config_error(tmp_path, case):
    """Each input exits 2 before any result is written.  MISSING names a
    file that does not exist, SHORT a node CSV of one row."""
    text, edits, commands = BAD_INPUTS[case]
    short = tmp_path / "short.csv"
    short.write_text("fx,fy,fz\n0,0,0\n")
    for old, new in edits:
        text = text.replace(old, new.replace(
            "MISSING", str(tmp_path / "missing.csv")).replace("SHORT",
                                                             str(short)))
    cfg_path = write_cfg(tmp_path, text)
    for command in commands:
        assert cli.run([command, "--config", cfg_path]) == 2
    assert not list((tmp_path / "out").glob("*_result.json"))


@pytest.mark.parametrize("flag, value", [("--seed", "-2"), ("--max-iter", "0"),
                                         ("--restarts", "0")])
def test_bad_flag_is_config_error(tmp_path, flag, value):
    """A command-line override is held to the config file's bounds."""
    cfg_path = write_cfg(tmp_path, PLATE_CFG)
    for command in ("minimize", "energy"):
        assert cli.run([command, "--config", cfg_path, flag, value]) == 2
    assert not list((tmp_path / "out").glob("*_result.json"))


def test_solver_failure_reports_diagnostics(tmp_path, monkeypatch, capsys):
    """A MinimizationError exits 3 with its diagnostics in the stderr
    JSON, and no result is written."""
    def failing(*args, **kwargs):
        raise cli.mz.MinimizationError("Newton step gains nothing",
                                       diagnostics={"iteration": 4,
                                                    "gradient_norm": 0.5})

    monkeypatch.setattr(cli.mz, "minimize_J", failing)
    cfg_path = write_cfg(tmp_path, CYL_CFG)
    assert cli.run(["minimize", "--config", cfg_path]) == 3
    diag = json.loads(capsys.readouterr().err)
    assert diag == {"error": "Newton step gains nothing",
                    "type": "MinimizationError",
                    "diagnostics": {"iteration": 4, "gradient_norm": 0.5}}
    assert not (tmp_path / "out" / "minimize_result.json").exists()


def test_readme_example_config(tmp_path):
    """The README's example config runs every subcommand with --verify, and
    every key of its sections but [surface] is one the config reader
    knows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert "directory = out\n" in text
    cfg_path = tmp_path / "readme.cfg"
    cfg_path.write_text(text.replace("directory = out\n", "directory = %s\n"
                                     % (tmp_path / "out")), encoding="utf-8")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.read(cfg_path, encoding="utf-8")
    keys = {(sec, key) for sec in cp.sections() if sec != "surface"
            for key in cp[sec]}
    assert keys and keys <= set(cli._KEYS)
    for command in cli.DISPATCH:
        assert cli.run([command, "--config", str(cfg_path), "--verify"]) == 0


def test_negative_kappa_flag_is_config_error(tmp_path):
    """The command-line kappa is checked like the config value, after it
    overrides it, and before the output directory is made."""
    cfg_path = write_cfg(tmp_path, PLATE_CFG)
    for command in ("minimize", "gamma-check"):
        assert cli.run([command, "--config", cfg_path, "--kappa", "-1"]) == 2
    assert not (tmp_path / "out").exists()


def test_uncreatable_output_dir_is_config_error(tmp_path, capsys):
    """An output directory below a regular file exits 2 with a message
    on stderr, not with a traceback."""
    cfg_path = write_cfg(tmp_path, PLATE_CFG)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.run(["surface", "--config", cfg_path,
                    "--output-dir", str(blocker / "sub")]) == 2
    assert "cannot create output directory" in capsys.readouterr().err


def test_membrane_reports_projection_rank(tmp_path):
    cfg_path = write_cfg(tmp_path, PLATE_CFG)
    assert cli.run(["membrane", "--config", cfg_path]) == 0
    data = json.loads((tmp_path / "out" / "membrane_result.json").read_text())
    assert "projection_flagged" not in data
    assert 0 < data["projection_rank"] < 3 * 15


def test_csv_dumps_are_numeric(tmp_path):
    """Every CSV of a run loads as a float table; node dumps carry the
    chart's coordinates and the gamma-check table the thickness ladder."""
    import vkshell as vk
    cfg_path = write_cfg(tmp_path, CYL_CFG)
    for command in ("surface", "isometries", "membrane", "minimize",
                    "gamma-check"):
        assert cli.run([command, "--config", cfg_path]) == 0
    chart = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0},
                           (16, 32))
    U1, U2 = np.meshgrid(chart.u1, chart.u2, indexing="ij")
    coords = np.column_stack([U1.ravel(), U2.ravel(),
                              chart.pos.reshape(-1, 3)])
    paths = sorted((tmp_path / "out").glob("*.csv"))
    names = {p.name for p in paths}
    assert {"surface_nodes.csv", "isometry_modes.csv", "membrane_w.csv",
            "minimize_V.csv", "gamma_check_table.csv"} <= names
    for path in paths:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if path.name == "gamma_check_table.csv":
            np.testing.assert_array_equal(table[:, 0],
                                          [0.1, 0.05, 0.025, 0.0125])
            assert np.isnan(table[0, 4]) and np.all(np.isfinite(table[1:]))
            continue
        assert table.shape[0] == chart.n_nodes and table.shape[1] > 5
        np.testing.assert_array_equal(table[:, :5], coords)
