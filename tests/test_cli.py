import dataclasses
import json
import subprocess
import sys
import types

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


def write_cfg(tmp_path, text, name="run.cfg", out="out"):
    cfg = tmp_path / name
    cfg.write_text(text.format(out=tmp_path / out))
    return str(cfg)


def test_parse_config_defaults_echoed(tmp_path):
    cfg_path = write_cfg(tmp_path, PLATE_CFG)
    cfg = cli.parse_config(cfg_path)
    echo = cfg.echo()
    # every field is recorded, including untouched defaults
    assert echo["grid"] == [16, 16]
    assert echo["restarts"] == 2
    assert echo["dictionary_degree"] == 4
    assert echo["tol"] == 1e-9


def test_missing_config_exit_code(tmp_path):
    assert cli.run(["surface", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_bad_grid_is_numerical_failure(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[surface]\nfamily = plate\ngrid = 4 4\n")
    assert cli.run(["surface", "--config", str(cfg),
                    "--output-dir", str(tmp_path / "o")]) == 3


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
    assert (tmp_path / "out" / "isometry_mode_000.csv").exists()


@pytest.mark.parametrize("text", [PLATE_CFG, CYL_CFG],
                         ids=["plate", "cylinder"])
def test_isometries_result_is_byte_identical(tmp_path, text):
    cfg_path = write_cfg(tmp_path, text)
    runs = []
    for out in ("r1", "r2"):
        assert cli.run(["isometries", "--config", cfg_path, "--verify",
                        "--output-dir", str(tmp_path / out)]) == 0
        runs.append((tmp_path / out / "isometries_result.json").read_bytes())
    assert runs[0] == runs[1]


def test_isometries_verify_catches_corrupt_basis(tmp_path, monkeypatch):
    """--verify recomputes the strain Rayleigh quotients and the W^{1,2}
    Gram of the returned modes on the full grid."""
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

    solve = iso.isometry_basis

    def scaled_solve(chart, **kwargs):
        basis = solve(chart, **kwargs)
        return dataclasses.replace(basis, modes=basis.modes * (1.0 + 1e-6))

    monkeypatch.setattr(iso, "isometry_basis", scaled_solve)
    cfg_path = write_cfg(tmp_path, CYL_CFG)
    assert cli.run(["isometries", "--config", cfg_path]) == 0
    assert cli.run(["isometries", "--config", cfg_path, "--verify"]) == 3


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


def test_energy_verify_catches_inconsistent_breakdown(tmp_path, monkeypatch):
    """--verify recomputes J with functional.total_J, so a load term that
    disagrees with it is caught."""
    cfg_path = write_cfg(tmp_path, CYL_CFG)
    skewed = types.SimpleNamespace(**vars(fn))
    skewed.load_work = lambda *args: fn.load_work(*args) + 1e-6
    monkeypatch.setattr(cli, "fn", skewed)
    assert cli.run(["energy", "--config", cfg_path]) == 0
    assert cli.run(["energy", "--config", cfg_path, "--verify"]) == 3


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
    "negative_kappa": (PLATE_CFG, [("kappa = 0.0", "kappa = -1")],
                       ("minimize", "gamma-check")),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_config_error(tmp_path, case):
    """Each input exits 2 before any result is written."""
    text, edits, commands = BAD_INPUTS[case]
    for old, new in edits:
        text = text.replace(old, new.replace("MISSING",
                                             str(tmp_path / "missing.csv")))
    cfg_path = write_cfg(tmp_path, text)
    for command in commands:
        assert cli.run([command, "--config", cfg_path]) == 2
    assert not list((tmp_path / "out").glob("*_result.json"))


def test_negative_kappa_flag_is_config_error(tmp_path):
    """The command-line kappa is checked like the config value, after it
    overrides it, and before the output directory is made."""
    cfg_path = write_cfg(tmp_path, PLATE_CFG)
    for command in ("minimize", "gamma-check"):
        assert cli.run([command, "--config", cfg_path, "--kappa", "-1"]) == 2
    assert not (tmp_path / "out").exists()


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
    assert {"surface_nodes.csv", "isometry_mode_000.csv", "membrane_w.csv",
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
