import dataclasses

import numpy as np
import pytest
import scipy.linalg

import vkshell as vk
from vkshell import geometry as geo
from vkshell import isometry as iso
from vkshell import material as mat
from vkshell import operators as ops
from vkshell import presets

from conftest import (isotropic_voigt, plate_sine_mode, random_rotation,
                      rotated_cylinder, rotated_plate)

M11 = mat.ElasticModuli(1.0, 1.0)


def test_extend_A_rigid(plate32, cyl_small):
    D = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5], [2.0, -0.5, 0.0]])
    d = np.array([0.3, -0.2, 0.1])
    for ch in (plate32, cyl_small):
        V = np.einsum("cd,xyd->xyc", D, ch.pos) + d
        A = iso.extend_A(ch, V)
        assert np.max(np.abs(A.values - D)) < 1e-10
        assert A.skew_residual < 1e-10


def test_extend_A_plate_normal_field(plate32):
    V = plate_sine_mode(plate32)
    A = iso.extend_A(plate32, V)
    g3 = np.stack([plate32.d1(V.values[..., 2]),
                   plate32.d2(V.values[..., 2])], axis=-1)
    expect = np.zeros(plate32.shape + (3, 3))
    expect[..., 2, 0] = g3[..., 0]
    expect[..., 2, 1] = g3[..., 1]
    expect[..., 0, 2] = -g3[..., 0]
    expect[..., 1, 2] = -g3[..., 1]
    assert np.max(np.abs(A.values - expect)) < 1e-12
    assert A.skew_residual < 1e-12


def test_extend_A_reports_nonisometric(cyl_small):
    # radial inflation stretches the hoop direction: not an isometry
    V = cyl_small.normal.copy()
    A = iso.extend_A(cyl_small, V)
    assert A.skew_residual > 1e-2  # reported, not raised


def test_bending_form_constant_A(cyl_small):
    D = np.array([[0.0, 0.5, 1.0], [-0.5, 0.0, -2.0], [-1.0, 2.0, 0.0]])
    A = iso.SkewField(np.broadcast_to(D, cyl_small.shape + (3, 3)).copy())
    b = iso.bending_form(cyl_small, A)
    assert np.max(np.abs(b.coeff)) < 1e-12


def test_bending_form_plate_negative_hessian(plate64):
    # quadratic deflection: the composed differences are exact
    U1, U2 = np.meshgrid(plate64.u1, plate64.u2, indexing="ij")
    Vq = np.zeros(plate64.shape + (3,))
    Vq[..., 2] = U1**2 + 0.5 * U1 * U2 - U2**2
    b = iso.bending_form(plate64, iso.extend_A(plate64, Vq))
    hess_q = np.array([[2.0, 0.5], [0.5, -2.0]])
    assert np.max(np.abs(b.coeff + hess_q)) < 1e-11

    # sine deflection: matches away from the boundary strip at truncation level
    V = plate_sine_mode(plate64)
    b = iso.bending_form(plate64, iso.extend_A(plate64, V))
    pi = np.pi
    hess = np.zeros(plate64.shape + (2, 2))
    hess[..., 0, 0] = -pi**2 * np.sin(pi * U1) * np.sin(pi * U2)
    hess[..., 1, 1] = hess[..., 0, 0]
    hess[..., 0, 1] = hess[..., 1, 0] = pi**2 * np.cos(pi * U1) * np.cos(pi * U2)
    assert np.max(np.abs(b.coeff + hess)[3:-3, 3:-3]) < 2e-2


def test_bending_rigid_is_zero(cyl_small):
    D = np.array([[0.0, 1.0, 0.2], [-1.0, 0.0, -0.7], [-0.2, 0.7, 0.0]])
    V = np.einsum("cd,xyd->xyc", D, cyl_small.pos)
    b = iso.bending_form(cyl_small, iso.extend_A(cyl_small, V))
    assert np.max(np.abs(b.coeff)) < 1e-10


def test_orientation_flip_leaves_q2_of_bending_invariant():
    """Reversing the first chart axis flips the normal; the relaxed form of
    the bending tensor is quadratic and must not change."""

    def saddle(U, V):
        return np.stack([U, V, U * U - V * V], axis=-1)

    def saddle_flip(U, V):
        return saddle(-U, V)

    n = 24
    ch = vk.build_chart("custom", {"position": saddle,
                                   "domain": ((-0.5, 0.5), (-0.5, 0.5))},
                        (n, n))
    ch_flip = vk.build_chart("custom", {"position": saddle_flip,
                                        "domain": ((-0.5, 0.5), (-0.5, 0.5))},
                             (n, n))
    assert np.max(np.abs(ch_flip.normal[::-1] + ch.normal)) < 1e-10

    rng = np.random.default_rng(4)
    coef = rng.normal(size=(3, 4))
    U, V = np.meshgrid(ch.u1, ch.u2, indexing="ij")

    def field(U, V):
        out = np.zeros(U.shape + (3,))
        for c in range(3):
            out[..., c] = (coef[c, 0] * np.sin(U) + coef[c, 1] * U * V
                           + coef[c, 2] * np.cos(V) + coef[c, 3] * V**2)
        return out

    W = field(U, V)
    W_flip = field(-U, V)
    q1 = mat.q2_value(geo.frame_form(
        ch, iso.bending_form(ch, iso.extend_A(ch, W))), M11)
    q2 = mat.q2_value(geo.frame_form(
        ch_flip, iso.bending_form(ch_flip, iso.extend_A(ch_flip, W_flip))), M11)
    assert np.max(np.abs(q2[::-1] - q1)) < 1e-12 * max(np.max(np.abs(q1)), 1.0)


def test_rigid_basis_orthonormal(plate16, cyl_small):
    for ch in (plate16, cyl_small):
        basis = iso.rigid_basis(ch)
        w = ch.quad_w
        for i in range(6):
            for j in range(i, 6):
                ip = geo.integrate(ch, np.einsum(
                    "xyc,xyc->xy", basis[i].values, basis[j].values))
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-10


@pytest.mark.parametrize("n_request", [4, 6, 8, 20])
def test_rigid_complement_is_mass_orthogonal_to_rigid(plate16, n_request):
    """The complement fields pair with no rigid motion in the mass form and
    their coefficients are orthonormal.  The plate's first modes hold the
    six rigid motions, so 4 or 6 modes leave no complement: the 4 x 6
    pairing has full rank, which the diagonal of its unpivoted QR (one
    entry zero) does not show."""
    basis = iso.isometry_basis(plate16, n_request=n_request, tol=1e-8)
    fields, C = iso._rigid_complement(plate16, basis)
    pair = (iso._mass_rows(plate16, fields)
            @ iso._mass_rows(plate16, iso._rigid_fields(plate16)).T)
    assert np.max(np.abs(pair), initial=0.0) <= 1e-12
    assert len(fields) == max(n_request - 6, 0)
    np.testing.assert_allclose(C.T @ C, np.eye(C.shape[1]), atol=1e-12)


def test_project_out_rigid(plate16):
    D = np.array([[0.0, 2.0, 0.3], [-2.0, 0.0, 1.0], [-0.3, -1.0, 0.0]])
    V = np.einsum("cd,xyd->xyc", D, plate16.pos) + np.array([1.0, 0.0, -0.5])
    out = iso.project_out_rigid(plate16, V)
    assert np.max(np.abs(out.values)) < 1e-10
    # idempotency
    sine = plate_sine_mode(plate16)
    once = iso.project_out_rigid(plate16, sine)
    twice = iso.project_out_rigid(plate16, once)
    assert np.max(np.abs(twice.values - once.values)) < 1e-12
    # bending content untouched by removing the rigid projection
    b0 = iso.bending_form(plate16, iso.extend_A(plate16, sine))
    b1 = iso.bending_form(plate16, iso.extend_A(plate16, once))
    assert np.max(np.abs(b0.coeff - b1.coeff)) < 1e-9


def test_plate_near_null_count(plate16):
    basis = iso.isometry_basis(plate16, n_request=300, tol=1e-8)
    assert basis.cluster_size == 16 * 16 + 3
    assert basis.gap_ratio >= 1e3
    assert np.all(basis.rayleigh <= basis.tol)
    res = [iso.project_onto_basis(basis, r)[1] for r in iso.rigid_basis(plate16)]
    assert max(res) <= 1e-8


def test_cylinder_modes_in_span(cyl_small):
    basis = iso.isometry_basis(cyl_small, n_request=40, tol=1e-8)
    res = [iso.project_onto_basis(basis, r)[1]
           for r in iso.rigid_basis(cyl_small)]
    assert max(res) <= 1e-8
    mode = presets.cylinder_inextensional_mode(cyl_small, 2)
    _, resid = iso.project_onto_basis(basis, mode)
    assert resid <= 1e-6
    # accepted modes carry clean skew extensions
    assert np.max(basis.skew_residuals) < 10 * basis.tol_rel


def test_custom_chart_keeps_rigid_motions_in_span():
    """A custom chart's tangents and second form are differences of its
    samples, consistent with the differenced field derivatives, so rigid
    motions are discrete isometries: on the positions of a revolution chart
    they lie in the isometry span."""
    rev = vk.build_chart("revolution", {"profile": [1.0, 0.3, -0.2]},
                         (24, 24))
    chart = vk.build_chart("custom", {"position": rev.pos,
                                      "domain": rev.domain,
                                      "periodic2": True}, (24, 24))
    basis = iso.isometry_basis(chart, n_request=40, tol=1e-8)
    res = [iso.project_onto_basis(basis, r)[1] for r in iso.rigid_basis(chart)]
    assert max(res) <= 1e-9


def test_project_onto_basis_stack_matches_single_calls(cyl_small):
    """A stack of fields is projected with one set of basis rows and gives
    the coefficients and residuals of one call per field."""
    basis = iso.isometry_basis(cyl_small, n_request=20, tol=1e-8)
    rng = np.random.default_rng(7)
    fields = np.concatenate([
        iso._rigid_fields(cyl_small), np.zeros((1,) + cyl_small.shape + (3,)),
        rng.standard_normal((3,) + cyl_small.shape + (3,))])
    coeffs, res = iso.project_onto_basis(basis, fields)
    assert coeffs.shape == (len(fields), len(basis))
    assert res.shape == (len(fields),)
    for k, f in enumerate(fields):
        c, r = iso.project_onto_basis(basis, f)
        assert isinstance(r, float)
        assert np.max(np.abs(coeffs[k] - c)) \
            <= 1e-14 * max(np.max(np.abs(c)), 1.0)
        assert abs(res[k] - r) <= 1e-14
    assert res[6] == 0.0 and np.max(res[:6]) <= 1e-8


PLATE_BOUNDS = {"bounds": ((0.0, 2.0), (-1.0, 0.5))}

PLATE_CHARTS = dict(argvalues=[
    lambda: vk.build_chart("plate", {}, (16, 16)),
    lambda: vk.build_chart("plate", {}, (20, 20)),
    lambda: vk.build_chart("plate", {}, (9, 9)),
    lambda: vk.build_chart("plate", PLATE_BOUNDS, (11, 14)),
], ids=["plate-16x16", "plate-20x20", "plate-9x9", "plate-11x14"])

FLAT_CHARTS = dict(argvalues=PLATE_CHARTS["argvalues"] + [
    lambda: rotated_plate(random_rotation(np.random.default_rng(3)), (12, 12)),
], ids=PLATE_CHARTS["ids"] + ["rotated_plate-12x12"])


@pytest.mark.parametrize("build", **FLAT_CHARTS)
def test_skew_cut_keeps_every_flat_cluster_mode(build):
    """On flat charts the skew-defect filter is the identity: normal fields
    have exactly skew extensions and the in-plane cluster is rigid."""
    basis = iso.isometry_basis(build(), n_request=10**6, tol=1e-8)
    assert len(basis) == basis.cluster_size


def test_empty_basis_is_valid(plate16):
    basis = iso.isometry_basis(plate16, n_request=0, tol=1e-8)
    assert basis.empty
    assert basis.modes.shape[0] == 0
    with pytest.raises(ValueError):
        iso.isometry_basis(plate16, n_request=10, tol=0.0)


def test_coercivity_plate_and_cylinder(plate16, cyl_small):
    pb = iso.isometry_basis(plate16, n_request=30, tol=1e-8)
    cs = iso.coercivity_spectrum(plate16, pb, M11)
    assert cs.smallest > 0
    assert cs.smallest > 1e-6 * cs.largest
    cb = iso.isometry_basis(cyl_small, n_request=30, tol=1e-8)
    cs2 = iso.coercivity_spectrum(cyl_small, cb, M11)
    assert cs2.smallest > 1e-6 * cs2.largest


def test_coercivity_anisotropic_moduli(cyl_small):
    """The isotropic tensor written as a Voigt matrix reproduces the
    isotropic coercivity spectrum."""
    cb = iso.isometry_basis(cyl_small, n_request=16, tol=1e-8)
    ref = iso.coercivity_spectrum(cyl_small, cb, M11)
    got = iso.coercivity_spectrum(cyl_small, cb, isotropic_voigt(1.0, 1.0))
    assert got.n_modes == ref.n_modes == 10
    assert abs(got.smallest - ref.smallest) <= 1e-12 * ref.smallest
    assert abs(got.largest - ref.largest) <= 1e-12 * ref.largest


def test_coercivity_rigid_only_flagged(cyl_small):
    basis = iso.isometry_basis(cyl_small, n_request=6, tol=1e-8)
    result = iso.coercivity_spectrum(cyl_small, basis, M11)
    assert result.empty


def test_frame_invariance_of_spectra(cyl_small):
    """Rigidly rotating the chart leaves Rayleigh quotients and the
    coercivity spectrum invariant."""
    base = iso.isometry_basis(cyl_small, n_request=16, tol=1e-8)
    cs = iso.coercivity_spectrum(cyl_small, base, M11)
    rng = np.random.default_rng(12)
    R = random_rotation(rng)
    ch2 = rotated_cylinder(R, cyl_small.shape)
    b2 = iso.isometry_basis(ch2, n_request=16, tol=1e-8)
    cs2 = iso.coercivity_spectrum(ch2, b2, M11)
    assert np.max(np.abs(np.sort(base.bending_ritz)
                         - np.sort(b2.bending_ritz))) < 1e-8
    assert abs(cs.smallest - cs2.smallest) < 1e-8 * max(cs.largest, 1.0)
    assert abs(cs.largest - cs2.largest) < 1e-8 * max(cs.largest, 1.0)


STACK_CHARTS = (
    ("plate", {}, (12, 10)),
    ("cylinder", {"radius": 1.0, "height": 1.0}, (10, 16)),
    ("revolution", {"profile": (1.0, 0.0, 0.3), "s_range": (-0.5, 0.5)},
     (10, 12)),
)


@pytest.mark.parametrize("family,params,grid", STACK_CHARTS)
def test_stacked_fields_match_single_calls(family, params, grid):
    """extend_A, its residuals, the bending frames and the load work of a
    stack equal one call per field."""
    chart = vk.build_chart(family, params, grid)
    rng = np.random.default_rng(5)
    fields = rng.standard_normal((4,) + chart.shape + (3,))
    stack = iso.extend_A(chart, fields)
    frames = iso._bending_frames(chart, stack.values)
    load = vk.make_load(chart, rng.standard_normal(chart.shape + (3,)))
    Q = random_rotation(rng)
    work = vk.functional.load_work(chart, load, Q, fields)
    assert stack.values.shape == (4,) + chart.shape + (3, 3)
    for k, f in enumerate(fields):
        one = iso.extend_A(chart, f)
        scale = np.max(np.abs(one.values))
        assert np.max(np.abs(stack.values[k] - one.values)) <= 1e-14 * scale
        assert abs(stack.skew_residual[k] - one.skew_residual) \
            <= 1e-14 * one.skew_residual
        F = iso._bending_frames(chart, one.values)
        assert np.max(np.abs(frames[k] - F)) <= 1e-14 * np.max(np.abs(F))
        w = vk.functional.load_work(chart, load, Q, f)
        assert abs(work[k] - w) <= 1e-14 * np.sum(np.abs(load.f.values))


def test_empty_stack_and_negative_request(plate16):
    empty = iso.extend_A(plate16, np.zeros((0,) + plate16.shape + (3,)))
    assert empty.values.shape == (0,) + plate16.shape + (3, 3)
    assert empty.skew_residual.shape == (0,)
    basis = iso.isometry_basis(plate16, n_request=0, tol=1e-8)
    assert basis.modes.shape == (0,) + plate16.shape + (3,)
    assert basis.rayleigh.size == basis.bending_ritz.size == 0
    assert basis.skew_residuals.size == 0
    with pytest.raises(ValueError):
        iso.isometry_basis(plate16, n_request=-1, tol=1e-8)
    # the skew-defect cut may leave no mode at all (sphere patches today)
    sphere = vk.build_chart("sphere_patch", {"polar_range": (0.5, 2.6)},
                            (10, 16))
    sb = iso.isometry_basis(sphere, n_request=10, tol=1e-8)
    assert len(sb) == len(sb.modes) == sb.bending_ritz.size \
        == sb.rayleigh.size == sb.skew_residuals.size
    assert sb.modes.shape == (len(sb),) + sphere.shape + (3,)


def _extend_A_by_inverse(chart, V):
    """A from A [t1 | t2 | n] = [d1 V | d2 V | Pi V_tan - grad(V.n)], with
    the node matrix [t1 | t2 | n] inverted explicitly."""
    n = chart.normal
    vn = np.einsum("xyc,xyc->xy", V, n)
    vtan = V - vn[..., None] * n
    vt = np.stack([np.einsum("xyc,xyc->xy", vtan, chart.t1),
                   np.einsum("xyc,xyc->xy", vtan, chart.t2)], axis=-1)
    comp = np.einsum("xyij,xyj->xyi", chart.metric_inv, vt)
    pi_vtan = comp[..., 0:1] * chart.dn1 + comp[..., 1:2] * chart.dn2
    gvn = np.einsum("xyij,xyj->xyi", chart.metric_inv,
                    np.stack([chart.d1(vn), chart.d2(vn)], axis=-1))
    grad_vn = gvn[..., 0:1] * chart.t1 + gvn[..., 1:2] * chart.t2
    rhs = np.stack([chart.d1(V), chart.d2(V), pi_vtan - grad_vn], axis=-1)
    return rhs @ np.linalg.inv(np.stack([chart.t1, chart.t2, n], axis=-1))


@pytest.mark.parametrize("family,params,grid", STACK_CHARTS + (
    ("sphere_patch", {"polar_range": (0.5, 2.6)}, (10, 16)),))
def test_extend_A_matches_inverse_frame_formula(family, params, grid):
    chart = vk.build_chart(family, params, grid)
    V = np.random.default_rng(8).standard_normal(chart.shape + (3,))
    ref = _extend_A_by_inverse(chart, V)
    A = iso.extend_A(chart, V).values
    assert np.max(np.abs(A - ref)) <= 1e-12 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# dense reference: the strain operator, mass matrix and sub-Nyquist
# restriction assembled on all 3 N nodal dofs
# ---------------------------------------------------------------------------

def _diff_matrices(chart):
    """Node matrices of the chart derivatives: d1 and d2 of every unit field."""
    n = chart.n_nodes
    unit = np.eye(n).reshape(chart.shape + (n,))
    return chart.d1(unit).reshape(n, n), chart.d2(unit).reshape(n, n)


def membrane_strain_operator(chart):
    """Rows R (3 N, 3 N) with |R v|^2 the quadrature of the squared
    Frobenius norm of the frame-converted symmetric gradient."""
    n = chart.n_nodes
    D1, D2 = _diff_matrices(chart)
    t1 = chart.t1.reshape(n, 3).T[..., None]
    t2 = chart.t2.reshape(n, 3).T[..., None]
    b11, b22 = np.hstack(t1 * D1), np.hstack(t2 * D2)
    b12 = 0.5 * (np.hstack(t1 * D2) + np.hstack(t2 * D1))
    gh = chart.ginv_half
    a, b, c = gh[..., 0, 0].ravel(), gh[..., 0, 1].ravel(), gh[..., 1, 1].ravel()
    mix = ((a * a, b * b, 2 * a * b), (b * b, c * c, 2 * b * c),
           (a * b, b * c, a * c + b * b))
    sw = np.sqrt(chart.quad_w.ravel())
    return np.vstack([
        (scale * sw)[:, None]
        * (m11[:, None] * b11 + m22[:, None] * b22 + m12[:, None] * b12)
        for scale, (m11, m22, m12) in zip((1.0, 1.0, np.sqrt(2.0)), mix)])


def sobolev_mass_matrix(chart):
    """W^{1,2} mass matrix: values plus frame-gradient first differences."""
    D1, D2 = _diff_matrices(chart)
    gh = chart.ginv_half
    w = chart.quad_w.ravel()
    block = np.diag(w)
    for gamma in range(2):
        Dg = (gh[..., 0, gamma].ravel()[:, None] * D1
              + gh[..., 1, gamma].ravel()[:, None] * D2)
        block += Dg.T @ (w[:, None] * Dg)
    M = scipy.linalg.block_diag(block, block, block)
    return 0.5 * (M + M.T)


def _kronecker_restriction(chart):
    """T = I (x) T2: per grid line, the samples orthogonal to the
    alternating sequence of an even periodic axis (all dofs otherwise)."""
    n1, n2 = chart.shape
    if not chart.periodic2 or n2 % 2:
        return np.eye(3 * n1 * n2)
    alt = np.where(np.arange(n2) % 2 == 0, 1.0, -1.0)
    return np.kron(np.eye(3 * n1), scipy.linalg.null_space(alt[None, :]))


REFERENCE_CHARTS = {
    "cylinder-8x16": (lambda: vk.build_chart(
        "cylinder", {"radius": 1.0, "height": 1.0}, (8, 16)), True),
    "revolution-10x12": (lambda: vk.build_chart(
        "revolution", {"profile": (1.0, 0.0, 0.3), "s_range": (-0.5, 0.5),
                       "theta_scheme": "central"}, (10, 12)), False),
    "sphere_patch-10x16": (lambda: vk.build_chart(
        "sphere_patch", {"polar_range": (0.5, 2.6)}, (10, 16)), False),
    "cylinder-8x15": (lambda: vk.build_chart(
        "cylinder", {"radius": 1.0, "height": 1.0}, (8, 15)), True),
    "plate-16x16": (lambda: vk.build_chart("plate", {}, (16, 16)), True),
    # reflection-parity blocks with an odd axis (center node) and unequal
    # axes and spacings
    "plate-9x9": (lambda: vk.build_chart("plate", {}, (9, 9)), True),
    "plate-11x14": (lambda: vk.build_chart("plate", PLATE_BOUNDS, (11, 14)),
                    True),
    # custom charts: a tilted flat chart and the generic one-block path
    "rotated_plate-12x12": (lambda: rotated_plate(
        random_rotation(np.random.default_rng(3)), (12, 12)), True),
    "rotated_cylinder-8x16": (lambda: rotated_cylinder(
        random_rotation(np.random.default_rng(4)), (8, 16)), True),
}


@pytest.mark.parametrize("name", list(REFERENCE_CHARTS))
def test_blocked_pencil_matches_dense_reference(name):
    """The symmetry-blocked solve reproduces the dense restricted pencil:
    the cluster size, the threshold, the gap ratio, and modes whose dense
    Rayleigh quotients stay under the threshold."""
    build, resolved = REFERENCE_CHARTS[name]
    chart = build()
    tol = 1e-8
    basis = iso.isometry_basis(chart, n_request=10**6, tol=tol)
    R = membrane_strain_operator(chart)
    M = sobolev_mass_matrix(chart)
    T = _kronecker_restriction(chart)
    RT = R @ T
    Mr = T.T @ M @ T
    ev = scipy.linalg.eigh(RT.T @ RT, 0.5 * (Mr + Mr.T), eigvals_only=True)
    thresh = tol * ev[-1]
    m = int(np.sum(ev <= thresh))
    assert basis.cluster_size == m
    assert abs(basis.tol - thresh) <= 1e-12 * thresh
    want = ev[m] / thresh
    if resolved:
        assert abs(basis.gap_ratio - want) <= 1e-8 * want
    else:
        # no gap: rho_m is about 1e-8 rho_max, below the 1e-15 rho_max to
        # which either eigensolver resolves it (permuting the dofs of the
        # reference moves it by 1e-8 relative)
        assert abs(basis.gap_ratio - want) * thresh <= 1e-14 * ev[-1]
    # component-major dof columns, the layout of R and M
    X = np.moveaxis(basis.modes, -1, 1).reshape(len(basis),
                                                3 * chart.n_nodes).T
    dense_rq = np.sum((R @ X)**2, axis=0) / np.einsum("im,im->m", X, M @ X)
    assert np.all(dense_rq <= basis.tol)
    if resolved:
        res = [iso.project_onto_basis(basis, r)[1]
               for r in iso.rigid_basis(chart)]
        assert max(res) <= 1e-8


def test_gap_ratio_against_dense_pencil():
    """gap_ratio is the first rejected eigenvalue over the threshold, read
    from an independent dense eigensolve of the restricted pencil."""
    chart = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0}, (8, 16))
    tol = 1e-8
    basis = iso.isometry_basis(chart, n_request=10, tol=tol)
    R = membrane_strain_operator(chart)
    T = _kronecker_restriction(chart)
    RT = R @ T
    Mr = T.T @ sobolev_mass_matrix(chart) @ T
    ev = scipy.linalg.eigh(RT.T @ RT, 0.5 * (Mr + Mr.T), eigvals_only=True)
    thresh = tol * ev[-1]
    m = int(np.sum(ev <= thresh))
    assert basis.cluster_size == m
    assert abs(basis.tol - thresh) <= 1e-12 * thresh
    want = ev[m] / thresh
    assert abs(basis.gap_ratio - want) <= 1e-8 * want
    assert basis.gap_ratio > 1e3


def test_eigh_matches_generalized_solver_on_nodal_pencil():
    """The nodal block of a plate spans all 3N dofs in coordinates that
    are M-orthonormal as built: its solve matches scipy's generalized
    eigensolve of the dense reference pencil, assembled independently, and
    its eigenvectors lift to M-orthonormal fields."""
    chart = vk.build_chart("plate", {}, (12, 12))
    ((F,),), near = iso._nodal_pencil(chart)
    assert len(F) == 3 * chart.n_nodes
    R = membrane_strain_operator(chart)
    rho, Z = iso.eigh(F)
    ev = scipy.linalg.eigh(R.T @ R, sobolev_mass_matrix(chart),
                           eigvals_only=True)
    assert np.max(np.abs(rho - ev)) <= 1e-12 * ev[-1]
    rows = iso._mass_rows(chart, _lifted(near, [Z], 0))
    assert np.max(np.abs(rows @ rows.T - np.eye(len(Z)))) <= 1e-12


def _lifted(near, Zs, b):
    """The fields of the columns Zs[b] of block b (both fields of each
    column of a pair block), through the blocks' near rows."""
    return near(Zs)[b][2](np.eye(Zs[b].shape[1]))[0]


def _dense_character_rows(chart, k):
    """Full-grid strain and mass rows (fields x rows) of the unit fields
    e_a U_s e^{i h theta}, h = k + SPIN_SHIFTS[s], of character k less
    harmonic N2/2, from the chart's derivatives of every field on every
    node.  For 2k = 0 mod N2 these complex fields span the real block's
    fields over C, so the pencil has the same eigenvalues."""
    n1, n2 = chart.shape
    theta = 2 * np.pi * np.arange(n2) / n2
    V = np.concatenate([
        np.einsum("ab,j,c->abjc", np.eye(n1), np.exp(1j * (k + s) * theta), U)
        for s, U in zip(geo.SPIN_SHIFTS, geo.SPIN_UNITS)
        if (k + s - n2 / 2) % n2 != 0])
    P = iso._partials(chart, V.real) + 1j * iso._partials(chart, V.imag)
    return geo.strain_rows(chart, P), iso._mass_rows(chart, V, P)


def _character_blocks(chart):
    """The blocks F of a rotation-invariant chart in character order, and
    their near rows."""
    stacks, near = iso._character_pencils(chart)
    return [F for stack in stacks for F in stack], near


@pytest.mark.parametrize("k", [0, 3, 8])
def test_eigh_matches_generalized_solver_on_character_pencils(k):
    """Real (k = 0, N2/2) and complex character blocks of a cylinder: the
    solve of the block as built (whitened per spin) against scipy's
    generalized one on the dense full-grid pencil of the same character,
    and the M-orthonormality of the lifted eigenvectors."""
    chart = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0}, (8, 16))
    Fs, near = _character_blocks(chart)
    S, Mr = _dense_character_rows(chart, k)
    rho, Z = iso.eigh(Fs[k])
    ev = scipy.linalg.eigh(S.conj() @ S.T, Mr.conj() @ Mr.T,
                           eigvals_only=True)
    assert np.max(np.abs(rho - ev)) <= 1e-12 * ev[-1]
    Zs = [np.zeros((len(F), 0)) for F in Fs]
    Zs[k] = Z
    fields = _lifted(near, Zs, k)
    assert len(fields) == (1 + (k % 8 != 0)) * len(Z)
    rows = iso._mass_rows(chart, fields)
    assert np.max(np.abs(rows @ rows.T - np.eye(len(rows)))) <= 1e-12


def test_mass_not_positive_definite_is_named():
    with pytest.raises(ArithmeticError, match="membrane-strain pencil"):
        iso._cholesky(np.diag([1.0, -1.0]))


def test_cylinder_above_dense_cap():
    """Rotation-invariant charts are not limited by MAX_EIG_DOFS: the
    cylinder 48x96 keeps the cluster count 4 (N2/2 - 2) + 3 (59 at 12x32,
    91 at 16x48) with the rigid motions and the ovalization in its span.
    The generic one-block path still refuses that size."""
    chart = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0}, (48, 96))
    assert 3 * chart.n_nodes > iso.MAX_EIG_DOFS
    basis = iso.isometry_basis(chart, n_request=40, tol=1e-8)
    assert basis.cluster_size == 187 == 4 * (96 // 2 - 2) + 3
    res = [iso.project_onto_basis(basis, r)[1] for r in iso.rigid_basis(chart)]
    assert max(res) <= 1e-8
    mode = presets.cylinder_inextensional_mode(chart, 2)
    assert iso.project_onto_basis(basis, mode)[1] <= 1e-6
    tilted = rotated_cylinder(random_rotation(np.random.default_rng(5)),
                              chart.shape)
    with pytest.raises(ValueError, match="too large"):
        iso.isometry_basis(tilted, n_request=40, tol=1e-8)
    # a tilted flat chart takes the same capped block
    plate = rotated_plate(random_rotation(np.random.default_rng(5)), (46, 46))
    assert 3 * plate.n_nodes > iso.MAX_EIG_DOFS
    with pytest.raises(ValueError, match="too large"):
        iso.isometry_basis(plate, n_request=40, tol=1e-8)


# ---------------------------------------------------------------------------
# full-grid reference of the Ritz steps: the skew-defect and bending Grams
# of the whole lifted cluster, on every node
# ---------------------------------------------------------------------------

def _full_grid_ritz(chart, tol):
    """The bending Ritz values that survive the skew cut, and the sorted
    skew-defect eigenvalues, of the real near-null cluster on the full
    grid."""
    near, _, _ = iso._near_null_blocks(chart, tol)
    cluster = np.concatenate([finish(np.eye(len(S)))[0]
                              for S, _, _, finish, _ in near])
    A = iso.extend_A(chart, cluster).values
    sw = np.sqrt(chart.quad_w)[..., None, None]
    srows = ((A + np.swapaxes(A, -1, -2)) * sw).reshape(len(A), -1)
    s_vals, Qs = np.linalg.eigh(srows @ srows.T)
    s_cut = max((10.0 * tol)**2, 1e-10 * float(s_vals.max(initial=0.0)))
    rows = Qs[:, s_vals <= s_cut].T @ geo.frame_rows(
        iso._bending_frames(chart, A), chart.quad_w)
    return np.linalg.eigvalsh(rows @ rows.T), s_vals


def _assert_bending_close(got, want):
    """Within 1e-10 relative; on the (rigid) zeros of the reference, the
    program's values are within 1e-12 of 0 (the reference's own zeros
    carry the roundoff of its full-grid Grams, above 1e-12 on a 20x20
    plate)."""
    assert got.shape == want.shape
    small = np.abs(want) < 1e-8
    assert np.all(np.abs(got[small]) <= 1e-12)
    assert np.all(np.abs(got - want)[~small] <= 1e-10 * np.abs(want[~small]))


CHARACTER_CASES = [(name, 1e-8) for name in (
    "cylinder-8x16", "cylinder-8x15", "revolution-10x12",
    "sphere_patch-10x16")] + [("cylinder-12x32", tol)
                              for tol in (1e-8, 1e-3, 1e-2)]


@pytest.mark.parametrize("name,tol", CHARACTER_CASES)
def test_character_ritz_matches_full_grid_reference(name, tol):
    """The per-character Ritz steps on grid column 0 keep the modes, and
    give the bending values and skew-defect spectrum, of the full-grid
    Ritz steps on the lifted cluster (a pair block's value counts twice)."""
    chart = (REFERENCE_CHARTS[name][0]() if name in REFERENCE_CHARTS else
             vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0},
                            (12, 32)))
    assert geo.rotation_invariant(chart)
    bend, s_ref = _full_grid_ritz(chart, tol)
    basis = iso.isometry_basis(chart, n_request=10**6, tol=tol)
    assert len(basis) == len(bend)
    _assert_bending_close(basis.bending_ritz, bend)
    near, _, _ = iso._near_null_blocks(chart, tol)
    s_new = []
    for _, D, _, _, pair in near:
        s_new.append(np.repeat(np.linalg.eigvalsh(D.conj() @ D.T), 1 + pair))
    s_new = np.sort(np.concatenate(s_new))
    assert s_new.shape == s_ref.shape
    assert np.max(np.abs(s_new - s_ref)) <= 1e-10 * s_ref[-1]


# ---------------------------------------------------------------------------
# character blocks from one grid column, and the returned modes' numbers
# read off the blocks, against full-grid references
# ---------------------------------------------------------------------------

ROTATION_CHARTS = dict(
    {name: REFERENCE_CHARTS[name][0] for name in (
        "cylinder-8x16", "cylinder-8x15", "revolution-10x12",
        "sphere_patch-10x16")},
    **{"cylinder-16x48": lambda: vk.build_chart(
        "cylinder", {"radius": 1.0, "height": 1.0}, (16, 48))})


@pytest.mark.parametrize("name", list(ROTATION_CHARTS))
def test_character_blocks_match_dense_reference(name):
    """Every character block (k = 0 and N2/2, and the blocks next to N2/2
    that lose a spin, included) has the eigenvalues of the dense full-grid
    pencil of its character, to 1e-12 rho_max."""
    chart = ROTATION_CHARTS[name]()
    n1, n2 = chart.shape
    Fs, _ = _character_blocks(chart)
    reduced = {n2 // 2 - 1, n2 // 2} if n2 % 2 == 0 else set()
    assert [len(F) for F in Fs] == [(2 if k in reduced else 3) * n1
                                    for k in range(n2 // 2 + 1)]
    evs = [iso.eigh(F)[0] for F in Fs]
    rho_max = max(ev[-1] for ev in evs)
    for k, ev in enumerate(evs):
        S, Mr = _dense_character_rows(chart, k)
        want = scipy.linalg.eigh(S.conj() @ S.T, Mr.conj() @ Mr.T,
                                 eigvals_only=True)
        assert np.max(np.abs(ev - want)) <= 1e-12 * rho_max


def test_character_path_stays_on_grid_column_zero(monkeypatch):
    """On a rotation-invariant chart isometry_basis runs no extend_A and
    geometry.strain_rows only on grid column 0, and it reads the d2
    multipliers of every character from one table (two chart.d2 calls,
    for its real and imaginary parts)."""
    chart = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0},
                           (16, 48))
    strain_rows, d2, d2_calls = geo.strain_rows, type(chart).d2, []

    def column_rows(chart, P, cols=slice(None)):
        assert cols == slice(0, 1)
        return strain_rows(chart, P, cols)

    def counted(self, f):
        d2_calls.append(np.shape(f))
        return d2(self, f)

    monkeypatch.setattr(geo, "strain_rows", column_rows)
    monkeypatch.setattr(iso, "extend_A", None)
    monkeypatch.setattr(type(chart), "d2", counted)
    assert len(iso.isometry_basis(chart, n_request=20)) == 20
    assert d2_calls == [(48, 48), (48, 48)]


MODE_NUMBER_CASES = (
    [(name, 1e-2) for name in ROTATION_CHARTS]
    + [(name, 1e-8) for name in ("cylinder-8x16", "cylinder-8x15",
                                 "cylinder-16x48", "plate-20x20",
                                 "rotated_cylinder-8x16")])


@pytest.mark.parametrize("name,tol", MODE_NUMBER_CASES)
def test_mode_numbers_match_full_grid(name, tol):
    """rayleigh and skew_residuals, read off the blocks, equal the
    full-grid strain Rayleigh quotients of the returned modes (to 1e-12
    rho_max) and the skew residuals of their extend_A (to 1e-12 plus 1e-8
    relative): the bounds of isometries --verify."""
    charts = dict(ROTATION_CHARTS, **{
        "plate-20x20": lambda: vk.build_chart("plate", {}, (20, 20)),
        "rotated_cylinder-8x16": REFERENCE_CHARTS["rotated_cylinder-8x16"][0]})
    chart = charts[name]()
    basis = iso.isometry_basis(chart, n_request=10**6, tol=tol)
    assert len(basis)
    P = iso._partials(chart, basis.modes)
    rows = iso._mass_rows(chart, basis.modes, P)
    quotient = (np.sum(geo.strain_rows(chart, P)**2, axis=1)
                / np.einsum("ij,ij->i", rows, rows))
    assert np.all(np.abs(basis.rayleigh - quotient)
                  <= 1e-12 * basis.tol / tol)
    skew = iso.extend_A(chart, basis.modes).skew_residual
    assert np.all(np.abs(basis.skew_residuals - skew) <= 1e-12 + 1e-8 * skew)


@pytest.mark.parametrize("build", **PLATE_CHARTS)
def test_flat_normal_block_is_exactly_skew(build):
    """The normal fields w n of the plate have skew extensions to
    roundoff, so their blocks need no defect Gram; the basis still keeps
    the modes, and gives the bending values, of the full-grid reference."""
    chart = build()
    near, _, _ = iso._near_null_blocks(chart, 1e-8)
    n = chart.normal[0, 0]
    normal = [(D, finish(np.eye(len(S)))) for S, D, _, finish, pair in near
              if not pair and np.allclose(
                  np.cross(finish(np.eye(len(S)))[0], n), 0.0,
                  rtol=0.0, atol=1e-14)]
    assert sum(len(V) for _, (V, _) in normal) == chart.n_nodes
    assert all(D is None for D, _ in normal)
    assert all(np.all(skew == 0.0) for _, (_, skew) in normal)
    A = iso.extend_A(chart, np.concatenate(
        [V for _, (V, _) in normal])).values
    assert (np.max(np.abs(A + np.swapaxes(A, -1, -2)))
            <= 1e-13 * np.max(np.abs(A)))
    bend, _ = _full_grid_ritz(chart, 1e-8)
    basis = iso.isometry_basis(chart, n_request=10**6, tol=1e-8)
    assert len(basis) == len(bend)
    _assert_bending_close(basis.bending_ritz, bend)


# ---------------------------------------------------------------------------
# plate reflection-parity blocks against the generic nodal pencil
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,h", [(9, 0.125), (14, 1.5 / 13), (20, 1.0 / 19)])
def test_axis_factors_diagonalize_the_1d_pencil(n, h):
    """Per reflection parity, X^T W X = I and X^T T X = diag(lam) for the
    1-D trapezoid weights W and T = D^T W D; D anticommutes with the
    reversal J exactly, and the two parities hold all n nodes."""
    D = ops.fd1_apply(np.eye(n), h)
    J = np.eye(n)[::-1]
    assert np.array_equal(J @ D @ J, -D)
    w = ops.trapezoid_weights(n, h, periodic=False)
    T = D.T @ (w[:, None] * D)
    factors = iso._axis_factors(n, h)
    assert [X.shape[1] for _, X, _ in factors] == [(n + 1) // 2, n // 2]
    for p, (lam, X, _) in enumerate(factors):
        assert np.array_equal(J @ X, (-1)**p * X)
        np.testing.assert_allclose(X.T @ (w[:, None] * X), np.eye(len(lam)),
                                   rtol=0.0, atol=1e-13)
        assert np.max(np.abs(X.T @ T @ X - np.diag(lam))) <= 1e-13 * lam[-1]


@pytest.mark.parametrize("grid,params", [
    ((16, 16), {}), ((20, 20), {}), ((11, 14), PLATE_BOUNDS),
    ((12, 12), {})],
    ids=["plate-16x16", "plate-20x20", "plate-11x14", "plate-12x12"])
def test_parity_blocks_match_nodal_pencil(grid, params):
    """The plate's parity blocks give the cluster, threshold, gap ratio
    and bending values of the same chart solved by the generic nodal
    pencil: with its family relabelled custom, and tilted by a rotation
    (a custom chart of sampled positions)."""
    chart = vk.build_chart("plate", params, grid)
    got = iso.isometry_basis(chart, n_request=10**6, tol=1e-8)
    R = random_rotation(np.random.default_rng(3))
    for nodal in (dataclasses.replace(chart, family="custom"),
                  rotated_plate(R, grid, **params)):
        want = iso.isometry_basis(nodal, n_request=10**6, tol=1e-8)
        assert got.cluster_size == want.cluster_size == chart.n_nodes + 3
        assert abs(got.tol - want.tol) <= 1e-12 * want.tol
        assert abs(got.gap_ratio - want.gap_ratio) <= 1e-8 * want.gap_ratio
        _assert_bending_close(got.bending_ritz, want.bending_ritz)
