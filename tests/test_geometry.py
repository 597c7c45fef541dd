import dataclasses

import numpy as np
import pytest

import vkshell as vk
from vkshell import geometry as geo
from vkshell import operators as ops
from vkshell.geometry import ChartError, FormField2


def test_plate_is_flat(plate32):
    assert np.max(np.abs(plate32.second_form)) == 0.0


def test_cylinder_principal_curvatures(cyl_small):
    ev = np.sort(np.linalg.eigvals(
        cyl_small.shape_op.reshape(-1, 2, 2)).real, axis=1)
    # {0, 1} up to the orientation sign of the chart normal
    assert np.max(np.abs(np.abs(ev).max(axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(ev).min(axis=1)) < 1e-12


def test_sphere_gauss_curvature():
    sph = vk.build_chart("sphere_patch", {"radius": 1.0}, (32, 32))
    gauss = np.linalg.det(sph.shape_op.reshape(-1, 2, 2))
    assert np.max(np.abs(gauss - 1.0)) < 1e-6


def test_revolution_principal_curvatures():
    """The shared meridian formulas give the classical curvatures of a
    surface of revolution, -g''/(1+g'^2)^(3/2) along the meridian and
    1/(g sqrt(1+g'^2)) along the parallel, for one orientation sign."""
    ch = vk.build_chart("revolution", {"profile": [1.0, 0.3, -0.2]}, (24, 24))
    g, gp, gpp = (ch.profile[k][:, None] for k in ("g", "gp", "gpp"))
    meridian = -gpp / (1.0 + gp * gp) ** 1.5 + 0.0 * ch.u2
    parallel = 1.0 / (g * np.sqrt(1.0 + gp * gp)) + 0.0 * ch.u2
    k1, k2 = geo.principal_curvatures(ch)
    errs = [max(np.max(np.abs(k1 - np.minimum(s * meridian, s * parallel))),
                np.max(np.abs(k2 - np.maximum(s * meridian, s * parallel))))
            for s in (1.0, -1.0)]
    assert min(errs) < 1e-12


def test_sphere_second_form_closed_form():
    """h = R diag(1, sin^2 phi) in (polar, azimuth) coordinates."""
    R = 2.5
    sph = vk.build_chart("sphere_patch", {"radius": R}, (12, 32))
    sin_phi = np.sin(sph.u1)[:, None] + 0.0 * sph.u2
    h = np.zeros(sph.shape + (2, 2))
    h[..., 0, 0], h[..., 1, 1] = R, R * sin_phi ** 2
    assert np.max(np.abs(sph.second_form - h)) < 1e-13 * R


def test_degenerate_parametrization_rejected():
    collapse = lambda U, V: np.stack([U, U, np.zeros_like(U)], axis=-1)
    with pytest.raises(ChartError, match="node"):
        vk.build_chart("custom", {"position": collapse}, (8, 8))


def test_small_grid_rejected():
    with pytest.raises(ChartError):
        vk.build_chart("plate", {}, (4, 8))


def test_invalid_revolution_profile():
    with pytest.raises(ChartError):
        vk.build_chart("revolution", {"profile": (-1.0, 0.0),
                                      "s_range": (0.0, 1.0)}, (8, 8))


def test_callable_revolution_profile_matches_coefficients():
    """A callable profile with its two derivatives builds, bit for bit,
    the chart and the sampled profile of the same polynomial given by its
    coefficients; without the derivatives it is rejected."""
    p = np.polynomial.Polynomial([1.0, 0.0, 0.3])
    want = vk.build_chart("revolution", {"profile": (1.0, 0.0, 0.3)}, (10, 12))
    got = vk.build_chart("revolution", {
        "profile": p, "profile_d1": p.deriv(1), "profile_d2": p.deriv(2)},
        (10, 12))
    arrays = [f.name for f in dataclasses.fields(want)
              if isinstance(getattr(want, f.name), np.ndarray)]
    assert "pos" in arrays and "second_form" in arrays
    for name in arrays:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert sorted(got.profile) == sorted(want.profile) == ["g", "gp", "gpp"]
    for key, samples in want.profile.items():
        assert samples.shape == want.u1.shape
        assert np.array_equal(got.profile[key], samples), key
    with pytest.raises(ChartError, match="profile_d1"):
        vk.build_chart("revolution", {"profile": p}, (10, 12))


def test_chart_is_frozen_and_read_only():
    """A built chart's fields cannot be reassigned and none of its arrays,
    the stored frame and the sampled profile among them, can be written."""
    ch = vk.build_chart("revolution", {"profile": (1.0, 0.0, 0.3)}, (10, 12))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ch.sqrt_g = np.ones(ch.shape)
    arrays = [getattr(ch, f.name) for f in dataclasses.fields(ch)
              if isinstance(getattr(ch, f.name), np.ndarray)]
    arrays += list(ch.profile.values())
    assert len(arrays) == 22
    for arr in arrays:
        assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ch.frame[0, 0, 0, 0] = 0.0


def test_non_finite_custom_position_rejected():
    """A custom chart with a NaN position is refused at build."""
    def position(U, V):
        pos = np.stack([U, V, U * V], axis=-1)
        pos[3, 4, 2] = np.nan
        return pos
    with pytest.raises(ChartError, match="finite"):
        vk.build_chart("custom", {"position": position}, (10, 10))
    with pytest.raises(ChartError, match="finite"):
        vk.build_chart("custom", {"position": position(
            *np.meshgrid(np.linspace(0, 1, 10), np.linspace(0, 1, 10),
                         indexing="ij"))}, (10, 10))


def test_non_finite_callable_profile_rejected():
    """A callable revolution profile that is NaN at a node is refused at
    build, as is one whose derivative is."""
    p = np.polynomial.Polynomial([1.0, 0.0, 0.3])
    u1 = np.linspace(0.0, 1.0, 10)
    nan_at_node = lambda f: (lambda s: np.where(s == u1[4], np.nan, f(s)))
    for params in ({"profile": nan_at_node(p), "profile_d1": p.deriv(1),
                    "profile_d2": p.deriv(2)},
                   {"profile": p, "profile_d1": p.deriv(1),
                    "profile_d2": nan_at_node(p.deriv(2))}):
        with pytest.raises(ChartError, match="finite"):
            vk.build_chart("revolution", params, (10, 12))


def test_unit_normals_and_frames(plate32, cyl_small):
    sph = vk.build_chart("sphere_patch", {"radius": 1.0}, (16, 16))
    for ch in (plate32, cyl_small, sph):
        assert np.max(np.abs(np.linalg.norm(ch.normal, axis=-1) - 1)) < 1e-12
        for t in (ch.t1, ch.t2):
            assert np.max(np.abs(np.einsum("xyc,xyc->xy", ch.normal, t))) < 1e-12
        for a, b, expect in ((ch.frame_e1, ch.frame_e1, 1.0),
                             (ch.frame_e2, ch.frame_e2, 1.0),
                             (ch.frame_e1, ch.frame_e2, 0.0),
                             (ch.frame_e1, ch.normal, 0.0),
                             (ch.frame_e2, ch.normal, 0.0)):
            dots = np.einsum("xyc,xyc->xy", a, b)
            assert np.max(np.abs(dots - expect)) < 1e-12


def test_surface_gradient_constant_and_linear(plate32):
    const = np.broadcast_to(np.array([1.0, -2.0, 0.5]),
                            plate32.shape + (3,)).copy()
    assert np.max(np.abs(geo.surface_gradient(plate32, const))) < 1e-13
    U1, _ = np.meshgrid(plate32.u1, plate32.u2, indexing="ij")
    lin = np.zeros(plate32.shape + (3,))
    lin[..., 0] = U1
    grad = geo.surface_gradient(plate32, lin)
    assert np.max(np.abs(grad[..., 0] - np.array([1.0, 0.0, 0.0]))) < 1e-13
    assert np.max(np.abs(grad[..., 1])) < 1e-13


def test_surface_gradient_of_position(plate32, cyl_small):
    for ch in (plate32, cyl_small):
        grad = geo.surface_gradient(ch, ch.pos)
        assert np.max(np.abs(grad[..., 0] - ch.t1)) < 1e-12
        assert np.max(np.abs(grad[..., 1] - ch.t2)) < 1e-12
    sph = vk.build_chart("sphere_patch", {"radius": 1.0}, (64, 64))
    grad = geo.surface_gradient(sph, sph.pos)
    assert np.max(np.abs(grad[..., 0] - sph.t1)) < 5e-3  # truncation in phi


def test_surface_gradient_grid_mismatch(plate32, plate16):
    with pytest.raises(ValueError, match="grid"):
        geo.surface_gradient(plate32, np.zeros(plate16.shape + (3,)))


def test_sym_grad_examples(plate32, cyl_small):
    const = np.broadcast_to(np.array([0.4, 1.0, -2.0]),
                            plate32.shape + (3,)).copy()
    assert np.max(np.abs(geo.sym_grad(plate32, const).coeff)) < 1e-13
    # infinitesimal rigid motion (spectral exactness on the cylinder)
    D = np.array([[0.0, 1.0, -0.3], [-1.0, 0.0, 2.0], [0.3, -2.0, 0.0]])
    for ch, tol in ((plate32, 1e-12), (cyl_small, 1e-12)):
        rig = np.einsum("cd,xyd->xyc", D, ch.pos)
        assert np.max(np.abs(geo.sym_grad(ch, rig).coeff)) < tol
    U1, _ = np.meshgrid(plate32.u1, plate32.u2, indexing="ij")
    lin = np.zeros(plate32.shape + (3,))
    lin[..., 0] = U1
    b = geo.sym_grad(plate32, lin)
    assert np.max(np.abs(b.coeff - np.diag([1.0, 0.0]))) < 1e-13


def test_integrate_areas(plate32, cyl_small):
    assert abs(geo.integrate(plate32, np.ones(plate32.shape)) - 1.0) < 1e-14
    area = geo.integrate(cyl_small, np.ones(cyl_small.shape))
    assert abs(area - 2 * np.pi) < 1e-6
    sph = vk.build_chart("sphere_patch", {"radius": 1.0}, (128, 128))
    area = geo.integrate(sph, np.ones(sph.shape))
    assert abs(area - 4 * np.pi) / (4 * np.pi) < 1e-4


def test_frame_form_plate_identity(plate32):
    rng = np.random.default_rng(0)
    b = rng.normal(size=plate32.shape + (2, 2))
    b = 0.5 * (b + np.swapaxes(b, -1, -2))
    F = geo.frame_form(plate32, FormField2(b))
    assert np.max(np.abs(F - b)) < 1e-12


def test_frame_form_metric_maps_to_identity(cyl_small):
    sph = vk.build_chart("sphere_patch", {"radius": 2.0}, (16, 16))
    for ch in (cyl_small, sph):
        F = geo.frame_form(ch, FormField2(ch.metric.copy()))
        assert np.max(np.abs(F - np.eye(2))) < 1e-12


def test_frame_rows_square_to_weighted_frobenius(cyl_small):
    rng = np.random.default_rng(2)
    F = rng.normal(size=(4,) + cyl_small.shape + (2, 2))
    F = F + np.swapaxes(F, -1, -2)
    rows = geo.frame_rows(F, cyl_small.quad_w)
    assert rows.shape == (4, 3 * cyl_small.n_nodes)
    want = np.einsum("xy,kxyij,kxyij->k", cyl_small.quad_w, F, F)
    np.testing.assert_allclose(np.sum(rows**2, axis=-1), want, rtol=1e-13)
    single = geo.frame_rows(F[1], cyl_small.quad_w)
    np.testing.assert_array_equal(single, rows[1])


def test_frame_form_reparametrization_invariants():
    """A stretched chart of the same plate gives the same scalar invariants.

    The displacement is linear in space and the chart map is quadratic, so
    the 2nd-order differences are exact and the match is to roundoff.
    """
    M = np.array([[0.3, 1.1, 0.0], [-0.4, 0.2, 0.0], [0.1, -0.7, 0.0]])
    plate = vk.build_chart("plate", {"bounds": ((0.25, 2.25), (0.0, 1.0))},
                           (16, 16))
    b1 = geo.sym_grad(plate, np.einsum("cd,xyd->xyc", M, plate.pos))
    F1 = geo.frame_form(plate, b1)

    def pf(U, V):
        return np.stack([U * U, V, np.zeros_like(U)], axis=-1)

    stretched = vk.build_chart("custom", {
        "position": pf, "domain": ((0.5, 1.5), (0.0, 1.0))}, (16, 16))
    b2 = geo.sym_grad(stretched, np.einsum("cd,xyd->xyc", M, stretched.pos))
    F2 = geo.frame_form(stretched, b2)

    # same surface points: x = u^2 on the stretched chart
    tr1 = np.trace(F1, axis1=-2, axis2=-1)
    tr2 = np.trace(F2, axis1=-2, axis2=-1)
    # invariants are constant fields here (linear displacement on a plane)
    assert np.ptp(tr1) < 1e-10 and np.ptp(tr2) < 1e-10
    assert abs(tr1[0, 0] - tr2[0, 0]) < 1e-10
    fro1 = np.einsum("xyij,xyij->xy", F1, F1)
    fro2 = np.einsum("xyij,xyij->xy", F2, F2)
    assert abs(fro1[0, 0] - fro2[0, 0]) < 1e-10


def test_second_order_convergence_of_discrete_operators():
    """sym_grad and the sampled-surface second form converge at order 2."""

    def saddle(U, V):
        return np.stack([U, V, U * U - V * V], axis=-1)

    errs_h, errs_sg = [], []
    levels = (16, 32, 64, 128)
    for n in levels:
        ch = vk.build_chart("custom", {
            "position": saddle,
            "domain": ((-0.5, 0.5), (-0.5, 0.5))}, (n, n))
        U, V = np.meshgrid(ch.u1, ch.u2, indexing="ij")
        nf = 1.0 / np.sqrt(1 + 4 * U**2 + 4 * V**2)
        h_exact = np.zeros(ch.shape + (2, 2))
        h_exact[..., 0, 0] = -2 * nf
        h_exact[..., 1, 1] = 2 * nf
        errs_h.append(np.max(np.abs(ch.second_form - h_exact)))
        W = np.stack([np.sin(U) * np.cos(V), U * V**2, np.cos(U + V)], axis=-1)
        b = geo.sym_grad(ch, W)
        d1W = np.stack([np.cos(U) * np.cos(V), V**2, -np.sin(U + V)], axis=-1)
        d2W = np.stack([-np.sin(U) * np.sin(V), 2 * U * V, -np.sin(U + V)], axis=-1)
        t1e = np.stack([np.ones_like(U), 0 * U, 2 * U], -1)
        t2e = np.stack([0 * U, np.ones_like(U), -2 * V], -1)
        b_ex = np.zeros(ch.shape + (2, 2))
        b_ex[..., 0, 0] = np.einsum("xyc,xyc->xy", d1W, t1e)
        b_ex[..., 1, 1] = np.einsum("xyc,xyc->xy", d2W, t2e)
        b_ex[..., 0, 1] = b_ex[..., 1, 0] = 0.5 * (
            np.einsum("xyc,xyc->xy", d1W, t2e)
            + np.einsum("xyc,xyc->xy", d2W, t1e))
        errs_sg.append(np.max(np.abs(b.coeff - b_ex)))
    for errs in (errs_h, errs_sg):
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(slopes) >= 1.9, slopes


def test_chart_arrays_immutable(plate16):
    with pytest.raises(ValueError):
        plate16.pos[0, 0, 0] = 5.0


@pytest.mark.parametrize("family, params", [
    ("cylinder", {"radius": 1.0, "height": 1.0}),
    ("revolution", {"profile": [1.0, 0.3, -0.2]}),
    ("sphere_patch", {"radius": 0.4, "polar_range": (0.5, 1.2)}),
])
def test_normal_derivatives_are_contiguous(family, params):
    """dn1 and dn2 are contiguous node arrays holding d_j n = S^i_j t_i."""
    ch = vk.build_chart(family, params, (8, 16))
    S = ch.shape_op
    for j, dn in enumerate((ch.dn1, ch.dn2)):
        assert dn.flags.c_contiguous and dn.shape == ch.shape + (3,)
        want = S[..., 0, j, None] * ch.t1 + S[..., 1, j, None] * ch.t2
        assert np.max(np.abs(dn - want)) <= 1e-14 * np.max(np.abs(want))


def test_field_validation():
    with pytest.raises(ValueError):
        geo.VectorField3(np.full((8, 8, 3), np.nan))
    with pytest.raises(ValueError):
        geo.FormField2(np.zeros((8, 8, 3, 3)))


TANGENTIAL_CHARTS = (
    ("plate", {}, (12, 10)),
    ("cylinder", {"radius": 1.0, "height": 1.0}, (10, 16)),
    ("revolution", {"profile": (1.0, 0.0, 0.3), "s_range": (-0.5, 0.5)},
     (10, 12)),
    ("sphere_patch", {"polar_range": (0.5, 2.6)}, (10, 16)),
)


@pytest.mark.parametrize("family,params,grid", TANGENTIAL_CHARTS)
def test_lift_and_tangential_form(family, params, grid):
    """lift maps t_i to P_i and n to 0, on one field and on a stack, and
    tangential_form of the partials of a field is its sym_grad."""
    ch = vk.build_chart(family, params, grid)
    rng = np.random.default_rng(7)
    P = rng.standard_normal((3,) + ch.shape + (2, 3))
    L = geo.lift(ch, P)
    assert L.shape == (3,) + ch.shape + (3, 3)
    for i, t in enumerate((ch.t1, ch.t2)):
        np.testing.assert_allclose(np.einsum("mxycd,xyd->mxyc", L, t),
                                   P[..., i, :], rtol=0, atol=1e-13)
    assert np.max(np.abs(np.einsum("mxycd,xyd->mxyc", L, ch.normal))) < 1e-13
    np.testing.assert_array_equal(geo.lift(ch, P[1]), L[1])

    V = rng.standard_normal(ch.shape + (3,))
    partials = np.stack([ch.d1(V), ch.d2(V)], axis=-2)
    b = geo.tangential_form(ch, partials).coeff
    ref = geo.sym_grad(ch, V).coeff
    assert np.max(np.abs(b - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert np.array_equal(b, np.swapaxes(b, -1, -2))


def test_frame_vectors_express_frame_form():
    """On a sheared chart frame_form(b)_ab = e_a . B e_b for the chart's
    frame vectors, where b_ij = t_i . B t_j of a tangential matrix B."""

    def sheared(U, V):
        return np.stack([U + 0.6 * V, 0.8 * V, 0.3 * U * V], axis=-1)

    ch = vk.build_chart("custom", {"position": sheared}, (12, 12))
    rng = np.random.default_rng(3)
    B = rng.standard_normal(ch.shape + (3, 3))
    B = B + np.swapaxes(B, -1, -2)
    t = np.stack([ch.t1, ch.t2], axis=-2)
    b = t @ B @ np.swapaxes(t, -1, -2)
    F = geo.frame_form(ch, FormField2(b))
    e = np.stack([ch.frame_e1, ch.frame_e2], axis=-2)
    np.testing.assert_allclose(F, e @ B @ np.swapaxes(e, -1, -2),
                               rtol=0, atol=1e-12 * np.max(np.abs(F)))
    np.testing.assert_allclose(e @ np.swapaxes(e, -1, -2),
                               np.broadcast_to(np.eye(2), F.shape),
                               rtol=0, atol=1e-13)


# every chart the benchmark builds, and a sphere patch
COLUMN_CHARTS = (
    [("cylinder", {"radius": 1.0, "height": 1.0}, g)
     for g in ((12, 32), (16, 48), (96, 192))]
    + [("plate", {}, g) for g in ((16, 16), (20, 20), (96, 96))]
    + [("revolution", {"profile": (1.0, 0.0, 0.3)}, (64, 128)),
       ("sphere_patch", {"radius": 0.4, "polar_range": (0.5, 1.2)}, (8, 16))])


def _full_grid_reference(chart, params):
    """The chart fields by the full-grid formulas, node by node: the
    closed-form position, tangents and second derivatives of the family,
    then the normal, the metric and its inverse, the second form, the
    shape operator, G^-1/2, the polar frame and the weights."""
    U1, U2 = np.meshgrid(chart.u1, chart.u2, indexing="ij")
    zero, one = np.zeros_like(U1), np.ones_like(U1)
    c, s = np.cos(U2), np.sin(U2)
    if chart.family == "plate":
        pos, t1, t2 = (np.stack(v, axis=-1) for v in (
            (U1, U2, zero), (one, zero, zero), (zero, one, zero)))
        d11 = d12 = d22 = np.zeros(U1.shape + (3,))
    else:
        if chart.family == "sphere_patch":
            scale = params["radius"]
            r, z = np.sin(U1), np.cos(U1)
            r1, z1, r2, z2 = z, -r, -r, -z
        else:
            scale = 1.0
            r, r1, r2 = (chart.profile[k][:, None] for k in ("g", "gp", "gpp"))
            z, z1, z2 = U1, one, zero
        pos, t1, t2, d11, d12, d22 = (scale * np.stack(v, axis=-1) for v in (
            (r * c, r * s, z), (r1 * c, r1 * s, z1), (-r * s, r * c, zero),
            (r2 * c, r2 * s, z2), (-r1 * s, r1 * c, zero),
            (-r * c, -r * s, zero)))
    cross = np.cross(t1, t2)
    normal = cross / np.linalg.norm(cross, axis=-1)[..., None]
    dot = lambda a, b: np.einsum("xyc,xyc->xy", a, b)
    g11, g12, g22 = dot(t1, t1), dot(t1, t2), dot(t2, t2)
    det = g11 * g22 - g12 * g12
    sqrt_g = np.sqrt(det)
    metric = np.stack([np.stack([g11, g12], -1), np.stack([g12, g22], -1)], -2)
    inv = np.stack([np.stack([g22, -g12], -1), np.stack([-g12, g11], -1)],
                   -2) / det[..., None, None]
    h11, h12, h22 = (-dot(normal, d) for d in (d11, d12, d22))
    second = np.stack([np.stack([h11, h12], -1), np.stack([h12, h22], -1)], -2)
    tau = np.sqrt(g11 + g22 + 2.0 * sqrt_g)
    ginv_half = np.empty_like(metric)
    ginv_half[..., 0, 0] = (g22 + sqrt_g) / (sqrt_g * tau)
    ginv_half[..., 1, 1] = (g11 + sqrt_g) / (sqrt_g * tau)
    ginv_half[..., 0, 1] = ginv_half[..., 1, 0] = -g12 / (sqrt_g * tau)
    e = np.swapaxes(np.stack([t1, t2], axis=2), -1, -2) @ ginv_half
    w1 = ops.trapezoid_weights(chart.shape[0], chart.du[0], periodic=False)
    w2 = ops.trapezoid_weights(chart.shape[1], chart.du[1],
                               periodic=chart.periodic2)
    return {"pos": pos, "t1": t1, "t2": t2, "normal": normal,
            "sqrt_g": sqrt_g, "ginv_half": ginv_half,
            "quad_w": np.outer(w1, w2) * sqrt_g,
            "frame_e1": e[..., 0], "frame_e2": e[..., 1],
            "frame": np.stack([e[..., 0], e[..., 1], normal], axis=-2),
            "metric": metric, "metric_inv": inv, "second_form": second,
            "shape_op": np.einsum("xyik,xykj->xyij", inv, second)}


# the fields that the strain dictionary and the frame read, kept bit for bit
FULL_GRID_FIELDS = ("pos", "t1", "t2", "normal", "sqrt_g", "ginv_half",
                    "quad_w", "frame_e1", "frame_e2", "frame")
COLUMN_FIELDS = ("metric", "metric_inv", "second_form", "shape_op")


@pytest.mark.parametrize("family,params,grid", COLUMN_CHARTS)
def test_full_grid_fields_are_bit_identical(family, params, grid):
    """The fields the strain dictionary reads keep their full-grid formulas
    bit for bit: the quartic's kappa = 1 minimum amplifies their rounding
    about 1e9-fold."""
    ch = vk.build_chart(family, params, grid)
    want = _full_grid_reference(ch, params)
    for name in FULL_GRID_FIELDS:
        got = getattr(ch, name)
        assert got.shape == want[name].shape, name
        assert np.array_equal(got.view(np.int64), want[name].view(np.int64)), \
            name


@pytest.mark.parametrize("family,params,grid", COLUMN_CHARTS)
def test_u1_only_fields_are_one_meridian_column(family, params, grid):
    """On a built-in chart the metric, its inverse, the second form and the
    shape operator are read-only (N1, N2, 2, 2) views of grid column 0,
    with stride 0 along u2, within 4 ulps of the full-grid formulas; dual,
    dn1 and dn2 are their products with t1 and t2."""
    ch = vk.build_chart(family, params, grid)
    want = _full_grid_reference(ch, params)
    for name in COLUMN_FIELDS:
        got = getattr(ch, name)
        assert got.shape == ch.shape + (2, 2) and got.strides[1] == 0, name
        assert not got.flags.writeable, name
        assert geo.u1_column(got).shape == (ch.shape[0], 1, 2, 2)
        ulp = np.spacing(np.max(np.abs(want[name])))
        assert np.max(np.abs(got - want[name])) <= 4 * ulp, name
    S, inv = ch.shape_op, ch.metric_inv
    for i, dual in enumerate((ch.dual[..., 0, :], ch.dual[..., 1, :])):
        assert np.array_equal(dual, inv[..., i, 0, None] * ch.t1
                              + inv[..., i, 1, None] * ch.t2)
    for j, dn in enumerate((ch.dn1, ch.dn2)):
        assert np.array_equal(dn, S[..., 0, j, None] * ch.t1
                              + S[..., 1, j, None] * ch.t2)


def test_custom_chart_geometry_stays_full_grid():
    """A custom chart runs the same code with the whole grid as its
    column: its u1-only fields are full-grid arrays, read whole."""
    ch = vk.build_chart("custom", {
        "position": lambda U, V: np.stack([U, V, U * U - V * V], axis=-1),
        "domain": ((-0.5, 0.5), (-0.5, 0.5))}, (12, 12))
    for name in COLUMN_FIELDS:
        got = getattr(ch, name)
        assert got.strides[1] != 0 and not got.flags.writeable, name
        assert geo.u1_column(got) is got
    h = ch.second_form
    assert np.array_equal(ch.shape_op, np.einsum("xyik,xykj->xyij",
                                                 ch.metric_inv, h))
