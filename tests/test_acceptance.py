"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import time

import numpy as np
import pytest

import vkshell as vk
from vkshell import functional as fn
from vkshell import gammacheck as gc
from vkshell import geometry as geo
from vkshell import isometry as iso
from vkshell import material as mat
from vkshell import membrane as mem
from vkshell import minimize as mz
from vkshell import presets
from vkshell.geometry import FormField2

from conftest import (BANDLIMITED_ABC, plate_sine_mode, random_rotation,
                      revolution_form_and_field, rotated_cylinder)

M11 = mat.ElasticModuli(1.0, 1.0)


def _finish(num, label, failures, capsys=None):
    status = "PASS" if not failures else "FAIL"
    line = "[acceptance %02d] %s - %s" % (num, status, label)
    if capsys is not None:
        with capsys.disabled():
            print(line)
    else:
        print(line)
    assert not failures, "; ".join(failures, capsys)


def test_acceptance_01_relaxation_oracle(capsys):
    failures = []
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    for _ in range(100):
        moduli = mat.ElasticModuli(*rng.uniform(0.5, 3.0, 2))
        A = rng.normal(size=(2, 2))
        F = 0.5 * (A + A.T)
        closed = mat.q2_relax(F, moduli)
        numeric = mat.q2_numeric(F, moduli)
        worst_gap = max(worst_gap, abs(closed.value - numeric.value)
                        / max(abs(numeric.value), 1e-300))
    worst_lin = 0.0
    moduli = mat.ElasticModuli(1.9, 0.8)
    for _ in range(30):
        A1, A2 = rng.normal(size=(2, 2, 2))
        F1, F2 = 0.5 * (A1 + A1.T), 0.5 * (A2 + A2.T)
        a, b = rng.normal(size=2)
        lhs = mat.q2_relax(a * F1 + b * F2, moduli).c
        rhs = (a * mat.q2_relax(F1, moduli).c
               + b * mat.q2_relax(F2, moduli).c)
        worst_lin = max(worst_lin, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.perf_counter() - t0
    if worst_gap > 1e-10:
        failures.append("closed-form vs numeric gap %.3e > 1e-10" % worst_gap)
    if worst_lin > 1e-12:
        failures.append("minimizer linearity %.3e > 1e-12" % worst_lin)
    if elapsed >= 1.0:
        failures.append("runtime %.2fs >= 1s" % elapsed)
    _finish(1, "relaxed form vs numeric oracle (gap %.1e, linearity %.1e, "
            "%.2fs)" % (worst_gap, worst_lin, elapsed), failures, capsys)


def test_acceptance_02_plate_kirchhoff_bending(capsys):
    failures = []
    t0 = time.perf_counter()
    exact = np.pi**4 / 9.0
    errs = []
    for n in (16, 32, 64, 128):
        plate = vk.build_chart("plate", {}, (n, n))
        V = plate_sine_mode(plate)
        E = fn.bending_energy(plate, V, M11)
        errs.append(abs(E - exact))
        if n == 64:
            rel64 = errs[-1] / exact
    hs = np.array([1.0 / (n - 1) for n in (16, 32, 64, 128)])
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    if rel64 > 0.01:
        failures.append("64x64 relative error %.3e > 1%%" % rel64)
    if slope < 1.9:
        failures.append("convergence slope %.3f < 1.9" % slope)
    if elapsed >= 10.0:
        failures.append("runtime %.1fs >= 10s" % elapsed)
    _finish(2, "plate bending pi^4/9 (rel err %.2e at 64x64, slope %.2f, "
            "%.1fs)" % (rel64, slope, elapsed), failures, capsys)


def test_acceptance_03_isometry_spaces(capsys):
    failures = []
    for n in (16, 24):
        plate = vk.build_chart("plate", {}, (n, n))
        basis = iso.isometry_basis(plate, n_request=n * n + 10, tol=1e-8)
        if basis.cluster_size != n * n + 3:
            failures.append("plate %d near-null count %d != %d"
                            % (n, basis.cluster_size, n * n + 3))
        if basis.gap_ratio < 1e3:
            failures.append("plate %d gap ratio %.2e < 1e3"
                            % (n, basis.gap_ratio))
        rigid_res = max(iso.project_onto_basis(basis, r)[1]
                        for r in iso.rigid_basis(plate))
        if rigid_res > 1e-8:
            failures.append("plate %d rigid residual %.2e > 1e-8"
                            % (n, rigid_res))
    cyl = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0}, (12, 32))
    cb = iso.isometry_basis(cyl, n_request=40, tol=1e-8)
    rigid_res = max(iso.project_onto_basis(cb, r)[1]
                    for r in iso.rigid_basis(cyl))
    if rigid_res > 1e-8:
        failures.append("cylinder rigid residual %.2e > 1e-8" % rigid_res)
    mode = presets.cylinder_inextensional_mode(cyl, 2)
    _, oval_res = iso.project_onto_basis(cb, mode)
    if oval_res > 1e-6:
        failures.append("ovalization residual %.2e > 1e-6" % oval_res)
    _finish(3, "isometry spaces (counts, gaps, rigid %.1e, ovalization %.1e)"
            % (rigid_res, oval_res), failures, capsys)


def test_acceptance_04_membrane_round_trip(capsys):
    failures = []
    errs = []
    for n in (32, 64, 128):
        ch = vk.build_chart("revolution", {"profile": (1.0, 0.0, 0.3),
                                           "s_range": (-0.5, 0.5)}, (n, n))
        B, _ = revolution_form_and_field(ch, *BANDLIMITED_ABC)
        sol = mem.solve_revolution_membrane(ch, B, fourier_order=8)
        errs.append(sol.residual)
    if errs[-1] > 1e-6:
        failures.append("128x128 residual %.2e > 1e-6" % errs[-1])
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    if min(slopes) < 2.0:
        failures.append("refinement slopes %s below 2" % (slopes,))

    # flat-profile variant against the double-integration closed form
    from scipy.interpolate import CubicSpline
    from vkshell import operators as ops
    cyl = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0}, (64, 64))
    a_f = (lambda S, T: 0.5 * S * np.cos(2 * T),
           lambda S, T: 0.5 * np.cos(2 * T),
           lambda S, T: -S * np.sin(2 * T))
    b_f = (lambda S, T: (0.2 + 0.1 * S) * np.sin(2 * T),
           lambda S, T: 0.1 * np.sin(2 * T),
           lambda S, T: 2 * (0.2 + 0.1 * S) * np.cos(2 * T))
    c_f = (lambda S, T: 0.3 * S**2, lambda S, T: 0.6 * S,
           lambda S, T: 0.0 * S)
    B, _ = revolution_form_and_field(cyl, a_f, b_f, c_f)
    sol = mem.solve_revolution_membrane(cyl, B, fourier_order=6)
    if sol.residual > 1e-8:
        failures.append("cylinder round trip %.2e > 1e-8" % sol.residual)
    B12h = np.fft.rfft(B.coeff[..., 0, 1], axis=1)
    B11h = np.fft.rfft(B.coeff[..., 0, 0], axis=1)
    k = 2
    s = cyl.u1
    dB12 = (ops.fd1_apply_order4(B12h[:, k].real, cyl.du[0])
            + 1j * ops.fd1_apply_order4(B12h[:, k].imag, cyl.du[0]))
    psi_k = 2 * dB12 - 1j * k * B11h[:, k]
    spline = CubicSpline(s, psi_k, bc_type="not-a-knot")
    b1 = spline.antiderivative(1)
    b2 = b1.antiderivative(1)
    direct = b2(s) - b2(s[0]) - b1(s[0]) * (s - s[0])
    solver_bk = np.fft.rfft(sol.components["b"], axis=1)[:, k]
    gap = float(np.max(np.abs(direct - solver_bk)))
    if gap > 1e-8:
        failures.append("double-integration gap %.2e > 1e-8" % gap)
    _finish(4, "membrane round trip (res %.1e, slopes %s, cyl %.1e)"
            % (errs[-1], [round(float(x), 2) for x in slopes], gap),
            failures, capsys)


def test_acceptance_05_robustness_dichotomy(capsys):
    failures = []
    plate = vk.build_chart("plate", {}, (32, 32))
    U1, U2 = np.meshgrid(plate.u1, plate.u2, indexing="ij")
    pi = np.pi
    gx = pi * np.cos(pi * U1) * np.sin(pi * U2)
    gy = pi * np.sin(pi * U1) * np.cos(pi * U2)
    target = FormField2(-np.stack([
        np.stack([gx * gx, gx * gy], -1),
        np.stack([gx * gy, gy * gy], -1)], -2))
    plate_res = [mem.project_to_B(plate, target, degree=d).residual
                 for d in range(2, 9)]
    if min(plate_res) < 0.1:
        failures.append("plate floor %.3f < 0.1" % min(plate_res))

    cyl = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0}, (24, 48))
    mode = presets.cylinder_inextensional_mode(cyl, 2)
    A = iso.extend_A(cyl, mode)
    t2 = fn.a_squared_tan(cyl, A)
    cyl_res = [mem.project_to_B(cyl, t2, degree=d).residual
               for d in range(2, 9)]
    if cyl_res[-1] > 1e-3:
        failures.append("cylinder residual %.2e > 1e-3 at degree 8"
                        % cyl_res[-1])
    _finish(5, "robustness dichotomy (plate floor %.2f, cylinder %.1e)"
            % (min(plate_res), cyl_res[-1]), failures, capsys)


def test_acceptance_06_rotation_set(capsys):
    failures = []
    rng = np.random.default_rng(7)
    worst_margin = np.inf
    for _ in range(50):
        moment = rng.normal(size=(3, 3))
        rs = fn.rotation_set(moment)
        qs = rng.normal(size=(100000, 4))
        qs /= np.linalg.norm(qs, axis=1, keepdims=True)
        w, x, y, z = qs.T
        R = np.empty((100000, 3, 3))
        R[:, 0, 0] = 1 - 2 * (y * y + z * z)
        R[:, 0, 1] = 2 * (x * y - z * w)
        R[:, 0, 2] = 2 * (x * z + y * w)
        R[:, 1, 0] = 2 * (x * y + z * w)
        R[:, 1, 1] = 1 - 2 * (x * x + z * z)
        R[:, 1, 2] = 2 * (y * z - x * w)
        R[:, 2, 0] = 2 * (x * z - y * w)
        R[:, 2, 1] = 2 * (y * z + x * w)
        R[:, 2, 2] = 1 - 2 * (x * x + y * y)
        sampled = float(np.einsum("kcd,cd->k", R, moment).max())
        worst_margin = min(worst_margin, rs.m - sampled)
        # necessary condition: identity maximizer forces zero torque
        has_id = any(np.linalg.norm(Q - np.eye(3)) < 1e-9
                     for Q in rs.candidates)
        torque = np.linalg.norm(rs.torque)
        if has_id and torque > 1e-8 * np.linalg.norm(moment):
            failures.append("identity candidate with torque %.2e" % torque)
    if worst_margin < -1e-9:
        failures.append("sampled rotation beat m by %.2e" % (-worst_margin))
    rs = fn.rotation_set(np.diag([1.0, 1.0, -1.0]))
    if abs(rs.m - 1.0) > 1e-12:
        failures.append("diag(1,1,-1) gave m = %.12f != 1" % rs.m)
    _finish(6, "rotation set vs 1e5-sample oracle (margin %.1e, "
            "reflected case m=%g)" % (worst_margin, rs.m), failures, capsys)


def test_acceptance_07_coercivity_and_lower_bound(capsys):
    failures = []
    plate = vk.build_chart("plate", {}, (16, 16))
    pb = iso.isometry_basis(plate, n_request=30, tol=1e-8)
    ps = iso.coercivity_spectrum(plate, pb, M11)
    if not ps.smallest > 1e-6 * ps.largest:
        failures.append("plate coercivity ratio %.2e <= 1e-6"
                        % (ps.smallest / ps.largest))
    cyl = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0}, (12, 32))
    cb = iso.isometry_basis(cyl, n_request=30, tol=1e-8)
    cs = iso.coercivity_spectrum(cyl, cb, M11)
    if not cs.smallest > 1e-6 * cs.largest:
        failures.append("cylinder coercivity ratio %.2e <= 1e-6"
                        % (cs.smallest / cs.largest))

    load = fn.make_load(cyl, presets.load_preset(cyl, "radial_cos2"),
                        remove_mean=True)
    opts = mz.SolverOptions(tol=1e-10, max_iter=300, restarts=2, seed=0)
    res = mz.minimize_J(cyl, cb, load, [np.eye(3)], 1.0, M11,
                        dict_degree=4, opts=opts)
    fields, _ = mz._rigid_complement(cyl, cb)
    ell = mz._load_vector(cyl, load, np.eye(3), fields)
    bound = -0.25 * float(ell @ ell) / cs.smallest
    if not (np.isfinite(res.value) and res.value >= bound):
        failures.append("value %.6f below bound %.6f" % (res.value, bound))
    if res.flagged:
        failures.append("quartic minimize flagged (%s)" % res.stop_reason)
    _finish(7, "coercivity (plate %.1e, cyl %.1e) and lower bound "
            "(%.4f >= %.4f)" % (ps.smallest / ps.largest,
                                cs.smallest / cs.largest, res.value, bound),
            failures, capsys)


def test_acceptance_08_gamma_limit_studies(capsys):
    failures = []
    ladder = [0.1, 0.05, 0.025, 0.0125]

    t0 = time.perf_counter()
    plate = vk.build_chart("plate", {}, (32, 32))
    Vp = plate_sine_mode(plate)
    ansp = gc.build_ansatz(plate, Vp, w=None, kappa=1.0, moduli=M11)
    tabp = gc.convergence_study(ansp, ladder)
    t_plate = time.perf_counter() - t0

    t0 = time.perf_counter()
    cyl = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0}, (24, 48))
    Vc = presets.cylinder_inextensional_mode(cyl, 2)
    A = iso.extend_A(cyl, Vc)
    target = FormField2(0.5 * fn.a_squared_tan(cyl, A).coeff)
    w = mem.solve_revolution_membrane(cyl, target, fourier_order=8).w
    ansc = gc.build_ansatz(cyl, Vc, w=w, kappa=1.0, moduli=M11)
    tabc = gc.convergence_study(ansc, ladder)
    t_cyl = time.perf_counter() - t0

    for name, tab, t_run in (("plate", tabp, t_plate), ("cylinder", tabc, t_cyl)):
        errs = tab.errors()
        if not np.all(np.diff(errs) < 0):
            failures.append("%s errors not strictly decreasing: %s"
                            % (name, errs))
        rel = errs[-1] / abs(tab.limit)
        if rel > 0.05:
            failures.append("%s endpoint error %.3f > 5%%" % (name, rel))
        if not (3.8 <= tab.energy_slope <= 4.3):
            failures.append("%s energy slope %.3f outside [3.8, 4.3]"
                            % (name, tab.energy_slope))
        if t_run >= 120.0:
            failures.append("%s study runtime %.1fs >= 2min" % (name, t_run))

    triv = gc.build_ansatz(plate, np.zeros(plate.shape + (3,)),
                           kappa=1.0, moduli=M11)
    for h in ladder:
        if gc.energy_3d(triv, h) != 0.0:
            failures.append("trivial deformation has nonzero energy at h=%g" % h)
    _finish(8, "thin-limit studies (plate err %.2e slope %.2f %.1fs; "
            "cylinder err %.2e slope %.2f %.1fs)"
            % (tabp.errors()[-1] / tabp.limit, tabp.energy_slope, t_plate,
               tabc.errors()[-1] / tabc.limit, tabc.energy_slope, t_cyl),
            failures, capsys)


def test_acceptance_09_frame_invariance(capsys):
    failures = []
    cyl = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0}, (16, 32))
    V = presets.cylinder_inextensional_mode(cyl, 2)
    w = geo.VectorField3(0.1 * cyl.pos + 0.05 * np.sin(cyl.pos))
    B = geo.sym_grad(cyl, w)
    base_I = fn.total_I(cyl, V, B, 1.0, M11).total
    base_bend = fn.bending_energy(cyl, V, M11)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(10):
        R = random_rotation(rng)
        ch2 = rotated_cylinder(R, cyl.shape)
        V2 = geo.VectorField3(np.einsum("cd,xyd->xyc", R, V.values))
        tot = fn.total_I(ch2, V2, B, 1.0, M11).total
        bend = fn.bending_energy(ch2, V2, M11)
        worst = max(worst, abs(tot - base_I) / abs(base_I),
                    abs(bend - base_bend) / abs(base_bend))
    if worst > 1e-10:
        failures.append("relative change %.2e > 1e-10" % worst)
    _finish(9, "frame invariance over 10 rotations (worst %.1e)" % worst,
            failures, capsys)


def test_acceptance_10_minimizer_contracts(capsys):
    failures = []
    cyl = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0}, (12, 32))
    basis = iso.isometry_basis(cyl, n_request=14, tol=1e-8)
    fvals = presets.load_preset(cyl, "radial_cos2")
    load = fn.make_load(cyl, fvals, remove_mean=True)

    quad = mz.minimize_quadratic(cyl, basis, load, [np.eye(3)], M11)
    load_t = fn.make_load(cyl, 2.5 * fvals, remove_mean=True)
    quad_t = mz.minimize_quadratic(cyl, basis, load_t, [np.eye(3)], M11)
    v_gap = np.max(np.abs(quad_t.V_star.values - 2.5 * quad.V_star.values))
    if v_gap > 1e-10 * np.max(np.abs(quad.V_star.values)):
        failures.append("minimizer not linear in the load (gap %.2e)" % v_gap)
    val_gap = abs(quad_t.value - 2.5**2 * quad.value)
    if val_gap > 1e-10 * abs(quad.value):
        failures.append("value not quadratic in the load (gap %.2e)" % val_gap)

    opts = mz.SolverOptions(tol=1e-10, max_iter=300, restarts=2, seed=0)
    small = mz.minimize_J(cyl, basis, load, [np.eye(3)], 1e-8, M11,
                          dict_degree=4, opts=opts)
    rel = abs(small.value - quad.value) / abs(quad.value)
    if rel > 1e-6:
        failures.append("kappa->0 mismatch %.2e > 1e-6" % rel)

    full = mz.minimize_J(cyl, basis, load, [np.eye(3)], 1.0, M11,
                         dict_degree=4, opts=opts)
    hist = full.objective_history
    if any(b - a > 1e-10 * max(abs(hist[0]), 1.0)
           for a, b in zip(hist, hist[1:])):
        failures.append("objective sequence not monotone")
    rerun = mz.minimize_J(cyl, basis, load, [np.eye(3)], 1.0, M11,
                          dict_degree=4, opts=opts)
    if not (np.array_equal(full.V_star.values, rerun.V_star.values)
            and full.value == rerun.value):
        failures.append("rerun with fixed seed not bit-identical")
    _finish(10, "minimizer contracts (scaling, kappa->0 gap %.1e, "
            "monotone, reproducible)" % rel, failures, capsys)
