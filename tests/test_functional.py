import numpy as np
import pytest

from vkshell import functional as fn
from vkshell import geometry as geo
from vkshell import isometry as iso
from vkshell import material as mat
from vkshell import minimize as mz
from vkshell import presets
from vkshell.geometry import FormField2, VectorField3

from conftest import (plate_sine_mode, random_rotation, rotated_cylinder)

M11 = mat.ElasticModuli(1.0, 1.0)


def zero_form(chart):
    return FormField2(np.zeros(chart.shape + (2, 2)))


# ---------------------------------------------------------------------------
# quadratic displacement effect
# ---------------------------------------------------------------------------

def test_a_squared_tan_zero(cyl_small):
    A = iso.SkewField(np.zeros(cyl_small.shape + (3, 3)))
    assert np.max(np.abs(fn.a_squared_tan(cyl_small, A).coeff)) == 0.0


def test_a_squared_tan_plate_outer_product(plate32):
    V = plate_sine_mode(plate32)
    A = iso.extend_A(plate32, V)
    out = fn.a_squared_tan(plate32, A)
    g = np.stack([plate32.d1(V.values[..., 2]),
                  plate32.d2(V.values[..., 2])], axis=-1)
    expect = -np.einsum("xyi,xyj->xyij", g, g)
    assert np.max(np.abs(out.coeff - expect)) < 1e-12


def test_a_squared_tan_axis_rotation(plate16):
    omega = 0.7
    D = omega * np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    A = iso.SkewField(np.broadcast_to(D, plate16.shape + (3, 3)).copy())
    out = fn.a_squared_tan(plate16, A)
    assert np.max(np.abs(out.coeff + omega**2 * np.eye(2))) < 1e-13


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def test_bending_energy_rigid_zero(cyl_small):
    D = np.array([[0.0, 0.3, -1.0], [-0.3, 0.0, 0.6], [1.0, -0.6, 0.0]])
    V = np.einsum("cd,xyd->xyc", D, cyl_small.pos) + np.array([1.0, 2.0, 3.0])
    assert fn.bending_energy(cyl_small, V, M11) < 1e-20


def test_bending_energy_plate_kirchhoff(plate64):
    V = plate_sine_mode(plate64)
    E = fn.bending_energy(plate64, V, M11)
    exact = np.pi**4 / 9.0
    assert abs(E - exact) / exact < 0.01


def test_bending_energy_homogeneous_in_moduli(plate32):
    V = plate_sine_mode(plate32)
    e1 = fn.bending_energy(plate32, V, M11)
    e2 = fn.bending_energy(plate32, V, mat.ElasticModuli(2.0, 2.0))
    assert abs(e2 - 2.0 * e1) < 1e-12 * e1


def test_quadratic_homogeneity(plate32):
    V = plate_sine_mode(plate32)
    t = 1.7
    e1 = fn.bending_energy(plate32, V, M11)
    e2 = fn.bending_energy(plate32, VectorField3(t * V.values), M11)
    assert abs(e2 - t * t * e1) <= 1e-12 * e2
    A = iso.extend_A(plate32, V)
    b = iso.bending_form(plate32, A)
    s1 = fn.stretching_energy(plate32, b, None, 0.0, M11)
    s2 = fn.stretching_energy(plate32, FormField2(t * b.coeff), None, 0.0, M11)
    assert abs(s2 - t * t * s1) <= 1e-12 * s2


def test_stretching_cancellation(plate32):
    V = plate_sine_mode(plate32)
    A = iso.extend_A(plate32, V)
    a2 = fn.a_squared_tan(plate32, A)
    kappa = 1.3
    B = FormField2(0.5 * kappa * a2.coeff)
    assert fn.stretching_energy(plate32, B, A, kappa, M11) == 0.0
    assert fn.stretching_energy(plate32, zero_form(plate32), A, 0.0, M11) == 0.0


def test_stretching_monte_carlo_oracle(plate64):
    """Quadrature against a dense-sample Monte Carlo integral."""
    V = plate_sine_mode(plate64)
    A = iso.extend_A(plate64, V)
    quad = fn.stretching_energy(plate64, zero_form(plate64), A, 1.0, M11)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 1.0, size=(1000000, 2))
    pi = np.pi
    gx = pi * np.cos(pi * pts[:, 0]) * np.sin(pi * pts[:, 1])
    gy = pi * np.sin(pi * pts[:, 0]) * np.cos(pi * pts[:, 1])
    F11, F22, F12 = 0.5 * gx * gx, 0.5 * gy * gy, 0.5 * gx * gy
    density = 2 * (F11**2 + F22**2 + 2 * F12**2) + (2.0 / 3.0) * (F11 + F22)**2
    mc = 0.5 * np.mean(density)
    assert abs(quad - mc) / mc < 0.005


def test_total_zeroes(plate16):
    zero = np.zeros(plate16.shape + (3,))
    load = fn.make_load(plate16, zero)
    out = fn.total_J(plate16, zero, zero_form(plate16), 1.0, M11, load, np.eye(3))
    assert out.total == out.bending == out.stretching == out.load == 0.0


def test_kappa_zero_is_pure_bending(plate32):
    V = plate_sine_mode(plate32)
    out = fn.total_I(plate32, V, zero_form(plate32), 0.0, M11)
    assert out.stretching == 0.0
    assert out.total == fn.bending_energy(plate32, V, M11)


def test_load_term_affine(plate32):
    V = plate_sine_mode(plate32)
    U1, _ = np.meshgrid(plate32.u1, plate32.u2, indexing="ij")
    f = np.zeros(plate32.shape + (3,))
    f[..., 2] = U1 - 0.5
    slope = -fn.load_work(plate32, fn.make_load(plate32, f), np.eye(3), V)
    vals = []
    for t in (0.0, 0.5, 2.0):
        load = fn.make_load(plate32, t * f)
        out = fn.total_J(plate32, V, zero_form(plate32), 0.0, M11, load, np.eye(3))
        vals.append(out.total)
    assert abs((vals[1] - vals[0]) - 0.5 * slope) < 1e-12
    assert abs((vals[2] - vals[0]) - 2.0 * slope) < 1e-12


def test_total_J_rejects_nonrotation(plate16):
    zero = np.zeros(plate16.shape + (3,))
    load = fn.make_load(plate16, zero)
    with pytest.raises(ValueError, match="rotation"):
        fn.total_J(plate16, zero, zero_form(plate16), 1.0, M11, load,
                   2.0 * np.eye(3))


def test_breakdown_consistency(plate32):
    V = plate_sine_mode(plate32)
    U1, _ = np.meshgrid(plate32.u1, plate32.u2, indexing="ij")
    f = np.zeros(plate32.shape + (3,))
    f[..., 2] = np.sin(2 * np.pi * U1)
    load = fn.make_load(plate32, f, remove_mean=True)
    out = fn.total_J(plate32, V, zero_form(plate32), 1.0, M11, load, np.eye(3))
    assert abs(out.total - (out.stretching + out.bending - out.load)) \
        <= 1e-12 * max(abs(out.total), 1.0)
    assert out.stretching >= 0 and out.bending >= 0


# ---------------------------------------------------------------------------
# loads and rotation set
# ---------------------------------------------------------------------------

def test_make_load_mean_removal(plate32):
    vals = np.ones(plate32.shape + (3,))
    load = fn.make_load(plate32, vals, remove_mean=True)
    assert np.linalg.norm(load.mean) < 1e-13
    assert not any(kind == "mean" for kind, *_ in
                   mz.wellposedness_check(load, [np.eye(3)]).failures)
    raw = fn.make_load(plate32, vals, remove_mean=False)
    assert any(kind == "mean" for kind, *_ in
               mz.wellposedness_check(raw, [np.eye(3)]).failures)


def test_rotation_set_identity_moment():
    rs = fn.rotation_set(np.eye(3))
    assert not rs.degenerate
    assert abs(rs.m - 3.0) < 1e-14
    assert np.linalg.norm(rs.candidates[0] - np.eye(3)) < 1e-14
    load = fn.LoadSpec(f=None, moment=np.eye(3), mean=np.zeros(3))
    assert mz.wellposedness_check(load, rs.candidates).ok


def test_rotation_set_reflected_moment():
    moment = np.diag([1.0, 1.0, -1.0])
    rs = fn.rotation_set(moment)
    assert abs(rs.m - 1.0) < 1e-14
    assert np.linalg.norm(rs.candidates[0] - np.eye(3)) < 1e-12
    # coinciding trailing singular values: a circle of maximizers
    assert rs.degenerate
    for Q in rs.candidates:
        assert abs(np.trace(Q.T @ moment) - rs.m) < 1e-12


def test_rotation_set_rank_one_moment():
    """A rank-one moment has a circle of maximizers about its leading
    axis, whichever sign det(UV^T) of its computed SVD takes."""
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(40):
        moment = 2.5 * np.outer(rng.normal(size=3), rng.normal(size=3))
        U, sig, Vt = np.linalg.svd(moment)
        sign = np.sign(np.linalg.det(U @ Vt))
        if sign in seen:
            continue
        seen.add(sign)
        rs = fn.rotation_set(moment, sample_count=24)
        assert rs.degenerate
        assert abs(rs.m - sig[0]) <= 1e-12 * sig[0]
        assert len(rs.candidates) == 24
        for Q in rs.candidates:
            assert np.linalg.norm(Q.T @ Q - np.eye(3)) < 1e-12
            assert abs(np.linalg.det(Q) - 1.0) < 1e-12
            assert abs(np.trace(Q.T @ moment) - rs.m) <= 1e-12 * rs.m
    assert seen == {-1.0, 1.0}


def test_rotation_set_zero_moment():
    rs = fn.rotation_set(np.zeros((3, 3)), sample_count=32)
    assert rs.m == 0.0 and rs.degenerate
    assert len(rs.candidates) == 32
    assert np.linalg.norm(rs.candidates[0] - np.eye(3)) == 0.0


def test_rotation_set_beats_random_sampling():
    rng = np.random.default_rng(3)
    for _ in range(20):
        moment = rng.normal(size=(3, 3))
        rs = fn.rotation_set(moment)
        qs = rng.normal(size=(20000, 4))
        qs /= np.linalg.norm(qs, axis=1, keepdims=True)
        w, x, y, z = qs.T
        R = np.empty((20000, 3, 3))
        R[:, 0, 0] = 1 - 2 * (y * y + z * z)
        R[:, 0, 1] = 2 * (x * y - z * w)
        R[:, 0, 2] = 2 * (x * z + y * w)
        R[:, 1, 0] = 2 * (x * y + z * w)
        R[:, 1, 1] = 1 - 2 * (x * x + z * z)
        R[:, 1, 2] = 2 * (y * z - x * w)
        R[:, 2, 0] = 2 * (x * z - y * w)
        R[:, 2, 1] = 2 * (y * z + x * w)
        R[:, 2, 2] = 1 - 2 * (x * x + y * y)
        sampled = np.einsum("kcd,cd->k", R, moment).max()
        assert rs.m >= sampled - 1e-9
        for Q in rs.candidates:
            assert np.trace(Q.T @ moment) >= rs.m - 1e-9


def test_identity_candidate_implies_zero_torque(plate32):
    """Necessary condition: when the identity maximizes the load action,
    the average torque vanishes."""
    U1, U2 = np.meshgrid(plate32.u1, plate32.u2, indexing="ij")
    rng = np.random.default_rng(9)
    for _ in range(10):
        c = rng.normal(size=(3, 3))
        f = np.zeros(plate32.shape + (3,))
        for k in range(3):
            f[..., k] = (c[k, 0] * np.sin(2 * np.pi * U1)
                         + c[k, 1] * np.cos(2 * np.pi * U2) + c[k, 2] * U1 * U2)
        load = fn.make_load(plate32, f, remove_mean=True)
        rs = fn.rotation_set(load)
        has_id = any(np.linalg.norm(Q - np.eye(3)) < 1e-9
                     for Q in rs.candidates)
        if has_id:
            assert np.linalg.norm(load.torque) <= 1e-8 * np.linalg.norm(load.moment)


def _random_load(chart, seed):
    rng = np.random.default_rng(seed)
    return fn.make_load(chart, rng.normal(size=chart.shape + (3,)),
                        remove_mean=True)


def test_torque_is_one_sign_for_a_load_and_its_moment(cyl_small):
    """rotation_set reports the torque integral of f x x whether it is
    given the LoadSpec or its bare moment matrix."""
    load = _random_load(cyl_small, 11)
    direct = np.einsum("xy,xyc->c", cyl_small.quad_w,
                       np.cross(load.f.values, cyl_small.pos))
    scale = np.linalg.norm(direct)
    for torque in (load.torque, fn.rotation_set(load).torque,
                   fn.rotation_set(load.moment).torque):
        assert np.linalg.norm(torque - direct) <= 1e-14 * scale


@pytest.mark.parametrize("chart_name", ["cyl_small", "plate16"])
def test_load_work_is_the_full_grid_integral(request, chart_name):
    """load_work reads the load through one 3x3 moment per field; it
    equals the integral of f . (Q V) over the grid for one field, a stack
    of fields and a stack of rotations."""
    chart = request.getfixturevalue(chart_name)
    load = _random_load(chart, 3)
    rng = np.random.default_rng(4)
    fields = rng.normal(size=(5,) + chart.shape + (3,))
    rotations = np.array([random_rotation(rng) for _ in range(7)])
    f = load.f.values
    want = np.array([[geo.integrate(chart, np.einsum(
        "xyc,xyc->xy", f, V @ Q.T)) for V in fields] for Q in rotations])
    scale = np.max(np.abs(want))

    def close(got, expect):
        return np.max(np.abs(got - expect)) <= 1e-13 * scale

    assert close(fn.load_work(chart, load, rotations[0], fields[0]),
                 want[0, 0])
    assert close(fn.load_work(chart, load, rotations[0], fields), want[0])
    assert close(fn.load_work(chart, load, rotations, fields[0]), want[:, 0])
    assert close(fn.load_work(chart, load, list(rotations), fields), want)
    assert fn.load_work(chart, load, rotations, fields).shape == (7, 5)


def test_frame_invariance_of_energies(cyl_small):
    """A common rotation of chart, displacement, strain and load leaves the
    energies unchanged."""
    mode = presets.cylinder_inextensional_mode(cyl_small, 2)
    w = geo.VectorField3(0.1 * cyl_small.pos + 0.05 * np.sin(cyl_small.pos))
    B = geo.sym_grad(cyl_small, w)
    f = np.cos(2 * np.meshgrid(cyl_small.u1, cyl_small.u2, indexing="ij")[1])
    fvals = f[..., None] * cyl_small.normal
    load = fn.make_load(cyl_small, fvals, remove_mean=True)
    base_I = fn.total_I(cyl_small, mode, B, 1.0, M11).total
    base_bend = fn.bending_energy(cyl_small, mode, M11)
    base_J = fn.total_J(cyl_small, mode, B, 1.0, M11, load, np.eye(3)).total
    rng = np.random.default_rng(17)
    for _ in range(10):
        R = random_rotation(rng)
        ch2 = rotated_cylinder(R, cyl_small.shape)
        mode2 = geo.VectorField3(np.einsum("cd,xyd->xyc", R, mode.values))
        load2 = fn.make_load(ch2, np.einsum("cd,xyd->xyc", R, load.f.values))
        tot = fn.total_I(ch2, mode2, B, 1.0, M11).total
        bend = fn.bending_energy(ch2, mode2, M11)
        totJ = fn.total_J(ch2, mode2, B, 1.0, M11, load2,
                          R @ np.eye(3) @ R.T).total
        assert abs(tot - base_I) <= 1e-10 * abs(base_I)
        assert abs(bend - base_bend) <= 1e-10 * abs(base_bend)
        assert abs(totJ - base_J) <= 1e-10 * max(abs(base_J), 1.0)


PRESET_CHARTS = dict(argvalues=[
    lambda: geo.build_chart("plate", {}, (9, 9)),
    lambda: geo.build_chart("cylinder", {"radius": 1.0, "height": 1.0},
                            (8, 16)),
], ids=["plate-9x9", "cylinder-8x16"])


@pytest.mark.parametrize("build", **PRESET_CHARTS)
def test_load_presets_along_e_z(build):
    """normal_linear1 is u1 - mid(u1), antisymmetric under the reversal of
    u1; normal_sine vanishes on the parameter boundary; axial_shear is
    cos 2 u2 whatever u1; all three point along e_z."""
    chart = build()
    (a1, b1), _ = chart.domain
    loads = {name: presets.load_preset(chart, name) for name in
             ("normal_linear1", "normal_sine", "axial_shear")}
    for vals in loads.values():
        assert vals.shape == chart.shape + (3,)
        assert not np.any(vals[..., :2])
    lin = loads["normal_linear1"][..., 2]
    assert np.array_equal(lin, np.broadcast_to(
        chart.u1[:, None] - 0.5 * (a1 + b1), chart.shape))
    assert np.max(np.abs(lin[::-1] + lin)) <= 1e-15
    sine = loads["normal_sine"][..., 2]
    edges = [sine[0], sine[-1], sine[:, 0]]
    if not chart.periodic2:
        edges.append(sine[:, -1])
    assert max(np.max(np.abs(e)) for e in edges) <= 1e-15
    assert np.max(np.abs(sine)) > 0.5
    shear = loads["axial_shear"][..., 2]
    assert np.array_equal(shear, np.broadcast_to(np.cos(2 * chart.u2),
                                                 chart.shape))
    with pytest.raises(KeyError):
        presets.load_preset(chart, "normal_cubic")
