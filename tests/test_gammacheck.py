import numpy as np
import pytest

import vkshell as vk
from vkshell import functional as fn
from vkshell import gammacheck as gc
from vkshell import geometry as geo
from vkshell import isometry as iso
from vkshell import material as mat
from vkshell import membrane as mem
from vkshell import operators as ops
from vkshell import presets
from vkshell.geometry import FormField2, VectorField3

from conftest import isotropic_voigt, plate_sine_mode, random_rotation

M11 = mat.ElasticModuli(1.0, 1.0)


@pytest.fixture(scope="module")
def plate_ansatz(plate32):
    V = plate_sine_mode(plate32)
    return gc.build_ansatz(plate32, V, w=None, kappa=1.0, moduli=M11)


@pytest.fixture(scope="module")
def cyl_ansatz(cyl_mid):
    V = presets.cylinder_inextensional_mode(cyl_mid, 2)
    A = iso.extend_A(cyl_mid, V)
    target = FormField2(0.5 * fn.a_squared_tan(cyl_mid, A).coeff)
    sol = mem.solve_revolution_membrane(cyl_mid, target, fourier_order=8)
    return gc.build_ansatz(cyl_mid, V, w=sol.w, kappa=1.0, moduli=M11)


def trivial_ansatz(chart):
    return gc.build_ansatz(chart, np.zeros(chart.shape + (3,)),
                           w=None, kappa=1.0, moduli=M11)


# ---------------------------------------------------------------------------
# ansatz construction
# ---------------------------------------------------------------------------

def test_anisotropic_moduli_in_thin_limit_harness(cyl_small):
    """The isotropic tensor written as a Voigt matrix reproduces the
    isotropic ansatz, 3D energy and convergence table."""
    V = presets.cylinder_inextensional_mode(cyl_small, 2)
    ans = {}
    for name, moduli in (("iso", M11), ("voigt", isotropic_voigt(1.0, 1.0))):
        ans[name] = gc.build_ansatz(cyl_small, V, w=None, kappa=1.0,
                                    moduli=moduli)
        ans[name + "_study"] = gc.convergence_study(
            ans[name], [0.1, 0.05, 0.025, 0.0125], moduli, t_quad=3)
        ans[name + "_energy"] = gc.energy_3d(ans[name], 0.02, moduli)
    for key in ("d0", "d1"):
        a, b = getattr(ans["iso"], key), getattr(ans["voigt"], key)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
    assert abs(ans["voigt_energy"] - ans["iso_energy"]) \
        <= 1e-12 * ans["iso_energy"]
    ref, got = ans["iso_study"], ans["voigt_study"]
    assert abs(got.limit - ref.limit) <= 1e-12 * abs(ref.limit)
    np.testing.assert_allclose([r["energy"] for r in got.rows],
                               [r["energy"] for r in ref.rows], rtol=1e-12)


def test_trivial_ansatz_fields(plate32):
    ans = trivial_ansatz(plate32)
    assert np.max(np.abs(ans.d0)) == 0.0
    assert np.max(np.abs(ans.d1)) == 0.0
    assert np.max(np.abs(ans.A.values)) == 0.0


def test_plate_warp_field_formula(plate32):
    """d0 for a plate with w = 0 reduces to the closed-form normal
    relaxation of the quadratic displacement effect."""
    V = plate_sine_mode(plate32)
    ans = gc.build_ansatz(plate32, V, w=None, kappa=1.0, moduli=M11)
    g = np.stack([plate32.d1(V.values[..., 2]),
                  plate32.d2(V.values[..., 2])], axis=-1)
    grad2 = np.einsum("xyi,xyi->xy", g, g)
    # c of -1/2 (A^2)_tan = +1/2 grad v3 x grad v3 (frame = chart on a plate)
    tr = 0.5 * grad2
    c3 = -1.0 * tr / (2.0 * 3.0)   # -lam tr/(2(2mu+lam)) at mu=lam=1
    # A^2 n = -|grad v3|^2 e3; n^T A^2 n = -|grad v3|^2
    expect = (2.0 * c3 - grad2 + 0.5 * grad2)[..., None] * np.array([0., 0., 1.])
    assert np.max(np.abs(ans.d0 - expect)) < 1e-12


def test_plate_second_warp_field(plate32):
    """On a plate the bending direction is in-plane, so d1 is purely the
    doubled relaxation vector of the bending form."""
    V = plate_sine_mode(plate32)
    ans = gc.build_ansatz(plate32, V, w=None, kappa=1.0, moduli=M11)
    bform = iso.bending_form(plate32, ans.A)
    tr = bform.coeff[..., 0, 0] + bform.coeff[..., 1, 1]
    c3 = -1.0 * tr / (2.0 * 3.0)  # mu = lam = 1
    expect = 2.0 * c3[..., None] * np.array([0.0, 0.0, 1.0])
    assert np.max(np.abs(ans.d1 - expect)) < 1e-12


def test_warp_field_linear_in_second_displacement(cyl_mid):
    V = presets.cylinder_inextensional_mode(cyl_mid, 2)
    rng = np.random.default_rng(0)
    w = VectorField3(0.1 * np.sin(cyl_mid.pos) + 0.05 * cyl_mid.pos)
    a0 = gc.build_ansatz(cyl_mid, V, w=None, kappa=1.0, moduli=M11)
    a1 = gc.build_ansatz(cyl_mid, V, w=w, kappa=1.0, moduli=M11)
    a2 = gc.build_ansatz(cyl_mid, V,
                         w=VectorField3(2 * w.values), kappa=1.0, moduli=M11)
    # doubling w doubles the strain contribution to d0 exactly
    assert np.max(np.abs((a2.d0 - a0.d0) - 2.0 * (a1.d0 - a0.d0))) < 1e-12
    # d1 does not involve w
    assert np.max(np.abs(a2.d1 - a1.d1)) < 1e-13


def test_kappa_zero_drops_second_order_terms(cyl_mid):
    V = presets.cylinder_inextensional_mode(cyl_mid, 2)
    ans = gc.build_ansatz(cyl_mid, V, w=None, kappa=0.0, moduli=M11)
    assert np.max(np.abs(ans.d0)) < 1e-14
    assert np.max(np.abs(ans.B.coeff)) == 0.0
    assert ans.e(0.1) == 0.1**5


# ---------------------------------------------------------------------------
# shifted-frame gradient against the inverse-based reference
# ---------------------------------------------------------------------------

def _gradient_by_inverse(ans, h, t, rotate=None):
    """Reference: the gradient as bracket (I + t h Pi)^-1 P_tan of lifted
    3x3 node matrices, and the volume factor det(I + t h Pi)."""
    chart = ans.chart
    n = chart.normal
    se = np.sqrt(ans.e(h))
    eye = np.eye(3)
    lift = lambda P: geo.lift(chart, P)
    shape_mat = lift(np.stack([chart.dn1, chart.dn2], axis=-2))
    col = (n + (se / h) * ans.An - se * ans.wn_vec + se * ans.d0
           + t * se * ans.d1)
    bracket = (eye + (se / h) * lift(ans.dV) + se * lift(ans.dw)
               + t * h * shape_mat + t * se * lift(ans.dAn)
               - t * h * se * lift(ans.dwn) + t * h * se * lift(ans.dd0)
               + (t * t / 2) * h * se * lift(ans.dd1))
    geom = eye + t * h * shape_mat
    ptan = eye - np.einsum("xyc,xyd->xycd", n, n)
    F = (np.einsum("xyc,xyd->xycd", col, n)
         + np.einsum("xyce,xyef,xyfd->xycd", bracket, np.linalg.inv(geom),
                     ptan))
    if rotate is not None:
        F = np.einsum("ce,xyed->xycd", rotate, F)
    return F, np.linalg.det(geom)


def _reference_energy_and_rotation(ans, h, rotate, t_quad=4):
    """energy_3d and the rotation_field_estimate numbers on the reference
    gradient."""
    chart = ans.chart
    ts, tw = ops.gauss_legendre(t_quad)
    levels = [(wt,) + _gradient_by_inverse(ans, h, t, rotate)
              for t, wt in zip(ts, tw)]
    energy = sum(wt * geo.integrate(chart, mat.w_density(F, M11) * det)
                 for wt, F, det in levels)
    U, sig, Vt = np.linalg.svd(sum(wt * F for wt, F, _ in levels))
    flip = np.ones_like(sig)
    flip[..., 2] = np.sign(np.linalg.det(U @ Vt))
    R = np.einsum("xyab,xyb,xybc->xyac", U, flip, Vt)
    shell = misfit = 0.0
    for wt, F, det in levels:
        sv = np.linalg.svd(F, compute_uv=False)
        shell += h * wt * geo.integrate(
            chart, np.sum((sv - 1.0) ** 2, axis=-1) * det)
        misfit += h * wt * geo.integrate(
            chart, np.sum((F - R) ** 2, axis=(-2, -1)) * det)
    gradR = geo.lift(chart, np.stack([chart.d1(R), chart.d2(R)], axis=-3)
                     .reshape(chart.shape + (2, 9)))
    variation = geo.integrate(chart, np.sum(gradR**2, axis=(-2, -1)))
    return energy, (shell, misfit, variation)


REFERENCE_CHARTS = {
    "plate": ("plate", {}, (12, 12)),
    "cylinder": ("cylinder", {"radius": 1.0, "height": 1.0}, (10, 16)),
    "revolution": ("revolution", {"profile": [1.0, 0.3, -0.2]}, (10, 16)),
    "sphere_patch": ("sphere_patch", {"radius": 0.4,
                                      "polar_range": (0.5, 1.2)}, (8, 16)),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CHARTS))
def test_shifted_frame_gradient_matches_inverse_reference(name):
    """The closed-form dual frame and volume factor reproduce the 3x3
    inverse and determinant; revolution and sphere_patch have det S != 0
    and so exercise the (t h)^2 det S term of the volume factor."""
    family, params, grid = REFERENCE_CHARTS[name]
    chart = vk.build_chart(family, params, grid)
    x = chart.pos
    V = 0.3 * np.sin(2.0 * x) + 0.2 * np.cos(x[..., ::-1])
    w = VectorField3(0.1 * np.cos(3.0 * x) + 0.05 * x)
    ans = gc.build_ansatz(chart, V, w=w, kappa=1.0, moduli=M11)
    Q = random_rotation(np.random.default_rng(3))
    h = 0.1
    for rotate in (None, Q):
        for t in ops.gauss_legendre(4)[0]:
            ref, _ = _gradient_by_inverse(ans, h, t, rotate)
            got = gc.rescaled_gradient(ans, h, t, rotate=rotate)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        energy, rot = _reference_energy_and_rotation(ans, h, rotate)
        assert abs(gc.energy_3d(ans, h, M11, rotate=rotate) - energy) \
            <= 1e-12 * energy
        rep = gc.rotation_field_estimate(ans, h, M11, rotate=rotate)
        np.testing.assert_allclose(
            [rep.shell_energy, rep.misfit, rep.rotation_variation], rot,
            rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# 3D energy
# ---------------------------------------------------------------------------

def test_trivial_energy_is_machine_zero(plate32, cyl_mid):
    for ch in (plate32, cyl_mid):
        ans = trivial_ansatz(ch)
        for h in (0.1, 0.05, 0.012):
            assert gc.energy_3d(ans, h, M11) <= 1e-30


def test_rigid_composition_invariance(cyl_mid):
    ans = trivial_ansatz(cyl_mid)
    rng = np.random.default_rng(1)
    Q = random_rotation(rng)
    assert gc.energy_3d(ans, 0.05, M11, rotate=Q) <= 1e-14


def test_energy_positive_and_scales_like_h4(plate_ansatz):
    hs = np.array([0.1, 0.056, 0.032, 0.018, 0.01])
    es = np.array([gc.energy_3d(plate_ansatz, h, M11) for h in hs])
    assert np.all(es > 0)
    slope = np.polyfit(np.log(hs), np.log(es), 1)[0]
    assert slope >= 3.9


def test_thickness_validation(plate_ansatz):
    with pytest.raises(ValueError):
        gc.energy_3d(plate_ansatz, 0.7, M11)
    with pytest.raises(ValueError):
        gc.energy_3d(plate_ansatz, 0.05, M11, t_quad=12)
    sph = vk.build_chart("sphere_patch", {"radius": 0.4,
                                          "polar_range": (0.5, 1.2)}, (8, 16))
    ans = trivial_ansatz(sph)
    with pytest.raises(ValueError, match="tubular"):
        gc.energy_3d(ans, 0.45, M11)  # 0.5*h*curvature = 0.56 > 0.5


@pytest.mark.parametrize("h, t_quad", [(0.9, 4), (-0.1, 4), (0.05, 1),
                                       (0.05, 12), (0.45, 4)])
def test_energy_and_rotation_field_reject_the_same_inputs(h, t_quad):
    """Both entry points check the thickness, the Gauss order and the
    tubular neighbourhood (0.5 h max|kappa| < 1/2) of the chart."""
    sph = vk.build_chart("sphere_patch", {"radius": 0.4,
                                          "polar_range": (0.5, 1.2)}, (8, 16))
    ans = trivial_ansatz(sph)
    for entry in (gc.energy_3d, gc.rotation_field_estimate):
        with pytest.raises(ValueError):
            entry(ans, h, M11, t_quad=t_quad)


def test_quadrature_stability(cyl_ansatz):
    i4 = gc.energy_3d(cyl_ansatz, 0.05, M11, t_quad=4)
    i8 = gc.energy_3d(cyl_ansatz, 0.05, M11, t_quad=8)
    assert abs(i4 - i8) <= 1e-8 * abs(i4)


def test_grid_stability(plate32, plate64):
    """Doubling the surface grid leaves the convergence gap essentially
    unchanged: grid discretization does not mask the thickness trend.
    (The scaled energy and the limit drift together under refinement by
    construction, so the stable object is their difference.)"""
    h = 0.025
    gaps = []
    for ch in (plate32, plate64):
        V = plate_sine_mode(ch)
        ans = gc.build_ansatz(ch, V, kappa=1.0, moduli=M11)
        ratio = gc.energy_3d(ans, h, M11) / ans.e(h)
        limit = fn.total_I(ch, V, ans.B, 1.0, M11).total
        gaps.append(abs(ratio - limit))
    assert abs(gaps[1] - gaps[0]) < gaps[0]


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

def test_trivial_study_is_identically_zero(plate32):
    ans = trivial_ansatz(plate32)
    tab = gc.convergence_study(ans, [0.1, 0.05, 0.025, 0.0125], M11)
    assert tab.limit == 0.0
    assert all(r["ratio"] == 0.0 for r in tab.rows)


def test_plate_study_converges(plate_ansatz):
    tab = gc.convergence_study(plate_ansatz, [0.1, 0.05, 0.025, 0.0125], M11)
    errs = tab.errors()
    assert np.all(np.diff(errs) < 0)
    assert errs[-1] / abs(tab.limit) <= 0.05
    assert 3.8 <= tab.energy_slope <= 4.3


def test_cylinder_pure_bending_study(cyl_ansatz, cyl_mid):
    tab = gc.convergence_study(cyl_ansatz, [0.1, 0.05, 0.025, 0.0125], M11)
    errs = tab.errors()
    assert np.all(np.diff(errs) < 0)
    assert errs[-1] / abs(tab.limit) <= 0.05
    # the compensated strain kills the stretching term: the limit is the
    # pure bending energy
    bend = fn.bending_energy(cyl_mid, cyl_ansatz.V, M11)
    assert abs(tab.limit - bend) <= 1e-8 * bend


def test_study_input_validation(plate_ansatz):
    with pytest.raises(ValueError):
        gc.convergence_study(plate_ansatz, [0.1, 0.2, 0.05, 0.02], M11)
    with pytest.raises(ValueError):
        gc.convergence_study(plate_ansatz, [0.1, 0.05], M11)


# ---------------------------------------------------------------------------
# rotation-field diagnostics
# ---------------------------------------------------------------------------

def test_rotation_field_trivial(plate32):
    ans = trivial_ansatz(plate32)
    rep = gc.rotation_field_estimate(ans, 0.05, M11)
    assert np.max(np.abs(rep.R - np.eye(3))) < 1e-13
    assert rep.shell_energy < 1e-28
    assert rep.misfit < 1e-28
    assert rep.rotation_variation < 1e-20
    assert not rep.reflected_nodes


def test_rotation_field_rigid(cyl_mid):
    ans = trivial_ansatz(cyl_mid)
    rng = np.random.default_rng(2)
    Q = random_rotation(rng)
    rep = gc.rotation_field_estimate(ans, 0.05, M11, rotate=Q)
    assert np.max(np.abs(rep.R - Q)) < 1e-12
    assert rep.shell_energy < 1e-26


def test_rotation_field_scaling(plate_ansatz):
    """The squared-distance shell energy over h^3 decreases with h, in line
    with the higher-than-h^2 energy scaling."""
    r1 = gc.rotation_field_estimate(plate_ansatz, 0.08, M11)
    r2 = gc.rotation_field_estimate(plate_ansatz, 0.04, M11)
    assert r2.shell_energy / 0.04**3 < r1.shell_energy / 0.08**3
    assert r1.misfit >= 0 and r1.rotation_variation >= 0
