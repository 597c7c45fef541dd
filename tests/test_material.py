import numpy as np
import pytest

import vkshell as vk
from vkshell import material as mat

from conftest import anisotropic_voigt, isotropic_voigt, random_rotation

M11 = mat.ElasticModuli(1.0, 1.0)


def test_moduli_validation():
    with pytest.raises(ValueError):
        mat.ElasticModuli(0.0, 1.0)
    with pytest.raises(ValueError):
        mat.ElasticModuli(-1.0, 1.0)
    with pytest.raises(ValueError):
        mat.ElasticModuli(1.0, -0.5)
    for mu, lam in ((np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            mat.ElasticModuli(mu, lam)


def test_density_zero_on_rotations():
    assert mat.w_density(np.eye(3), M11) == 0.0
    rng = np.random.default_rng(5)
    for _ in range(20):
        R = random_rotation(rng)
        assert abs(mat.w_density(R, M11)) < 1e-14
        # frame invariance W(RF) = W(F)
        F = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
        assert abs(mat.w_density(R @ F, M11) - mat.w_density(F, M11)) < 1e-13


def test_density_uniaxial_value():
    # direct evaluation of the quadratic-strain formula
    F = np.diag([1.01, 1.0, 1.0])
    assert abs(mat.w_density(F, M11) - 1.5150375e-4) < 1e-18


@pytest.mark.parametrize("anisotropic", [False, True])
def test_svk_density_on_a_dual_basis(anisotropic):
    """svk_density of the components D of 2E on rows (n, b1, b2), n a unit
    normal to b1 and b2, equals the density of the Cartesian strain E:
    mu |E|^2 + lambda/2 (tr E)^2 from the dual Gram K = b_T b_T^T, q3(E)/2
    from the rows."""
    rng = np.random.default_rng(11)
    moduli = (anisotropic_voigt(rng) if anisotropic
              else mat.ElasticModuli(1.3, 0.7))
    F = np.eye(3) + 0.2 * rng.normal(size=(20, 3, 3))
    n = rng.normal(size=(20, 3))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    tan = rng.normal(size=(20, 2, 3))
    tan -= np.einsum("xjc,xc->xj", tan, n)[..., None] * n[:, None, :]
    b = np.concatenate([n[:, None, :], tan], axis=1)
    E = 0.5 * (np.swapaxes(F, -1, -2) @ F - np.eye(3))
    b_inv = np.linalg.inv(b)
    D = 2.0 * np.swapaxes(b_inv, -1, -2) @ E @ b_inv
    if anisotropic:
        want = 0.5 * mat.q3(E, moduli)
        got = mat.svk_density(D, moduli, basis=b)
    else:
        tr = np.trace(E, axis1=-2, axis2=-1)
        want = (moduli.mu * np.sum(E * E, axis=(-2, -1))
                + 0.5 * moduli.lam * tr**2)
        got = mat.svk_density(D, moduli,
                              dual_gram=tan @ np.swapaxes(tan, -1, -2))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(mat.w_density(F, moduli), want, rtol=1e-12,
                               atol=0)


def test_q3_values():
    rng = np.random.default_rng(1)
    skew = rng.normal(size=(3, 3))
    skew = skew - skew.T
    assert abs(mat.q3(skew, M11)) < 1e-13
    assert mat.q3(np.eye(3), M11) == 15.0
    e11 = np.zeros((3, 3))
    e11[0, 0] = 1.0
    assert mat.q3(e11, M11) == 3.0


def test_q3_is_density_hessian():
    """Richardson check of q3 against 2 W(I + eps G)/eps^2."""
    rng = np.random.default_rng(2)
    for _ in range(5):
        moduli = mat.ElasticModuli(*rng.uniform(0.5, 3.0, 2))
        G = rng.normal(size=(3, 3))
        exact = mat.q3(G, moduli)
        vals = {}
        for eps in (1e-3, 5e-4):
            vals[eps] = 2.0 * mat.w_density(np.eye(3) + eps * G, moduli) / eps**2
        # leading error is linear in eps: extrapolate
        extrap = 2.0 * vals[5e-4] - vals[1e-3]
        assert abs(extrap - exact) / abs(exact) < 1e-5


def test_q2_closed_form_values():
    r = mat.q2_relax(np.zeros((2, 2)), M11)
    assert r.value == 0.0 and np.all(r.c == 0.0)
    r = mat.q2_relax(np.eye(2), M11)
    assert abs(r.value - 20.0 / 3.0) < 1e-14
    # minimizer of q3 over completions F + c x n + n x c is purely normal
    assert np.allclose(r.c[:2], 0.0)
    assert abs(r.c[2] - (-1.0 / 3.0)) < 1e-14
    r = mat.q2_relax(np.diag([1.0, -1.0]), M11)
    assert abs(r.value - 4.0) < 1e-14
    assert np.max(np.abs(r.c)) < 1e-14


def test_q2_completion_identity():
    """value = q3 of the completed matrix, with the minimizing c."""
    rng = np.random.default_rng(3)
    n = np.array([0.0, 0.0, 1.0])
    for _ in range(20):
        moduli = mat.ElasticModuli(*rng.uniform(0.5, 3.0, 2))
        A = rng.normal(size=(2, 2))
        F = 0.5 * (A + A.T)
        r = mat.q2_relax(F, moduli)
        emb = np.zeros((3, 3))
        emb[:2, :2] = F
        comp = emb + np.outer(r.c, n) + np.outer(n, r.c)
        assert abs(mat.q3(comp, moduli) - r.value) < 1e-12 * max(r.value, 1.0)


def test_q2_numeric_oracle_sweep():
    rng = np.random.default_rng(42)
    worst_v, worst_c = 0.0, 0.0
    for _ in range(100):
        moduli = mat.ElasticModuli(*rng.uniform(0.5, 3.0, 2))
        A = rng.normal(size=(2, 2))
        F = 0.5 * (A + A.T)
        closed = mat.q2_relax(F, moduli)
        numeric = mat.q2_numeric(F, moduli)
        worst_v = max(worst_v, abs(closed.value - numeric.value)
                      / max(abs(numeric.value), 1e-300))
        worst_c = max(worst_c, np.max(np.abs(closed.c - numeric.c)))
    assert worst_v <= 1e-10
    assert worst_c <= 1e-10
    assert mat.q2_numeric(np.zeros((2, 2)), M11).value < 1e-300


def test_q2_never_exceeds_q3():
    rng = np.random.default_rng(6)
    for _ in range(50):
        moduli = mat.ElasticModuli(*rng.uniform(0.5, 3.0, 2))
        A = rng.normal(size=(2, 2))
        F = 0.5 * (A + A.T)
        emb = np.zeros((3, 3))
        emb[:2, :2] = F
        assert mat.q2_relax(F, moduli).value <= mat.q3(emb, moduli) + 1e-14


def test_q2_positive_definite():
    rng = np.random.default_rng(7)
    for _ in range(50):
        moduli = mat.ElasticModuli(*rng.uniform(0.5, 3.0, 2))
        A = rng.normal(size=(2, 2))
        F = 0.5 * (A + A.T)
        val = mat.q2_relax(F, moduli).value
        assert val >= 2.0 * moduli.mu * np.sum(F * F) - 1e-13
        if np.max(np.abs(F)) > 1e-8:
            assert val > 0


def test_minimizer_linearity():
    rng = np.random.default_rng(8)
    moduli = mat.ElasticModuli(1.7, 0.4)
    for _ in range(20):
        A1, A2 = rng.normal(size=(2, 2, 2))
        F1, F2 = 0.5 * (A1 + A1.T), 0.5 * (A2 + A2.T)
        a, b = rng.normal(size=2)
        lhs = mat.q2_relax(a * F1 + b * F2, moduli).c
        rhs = a * mat.q2_relax(F1, moduli).c + b * mat.q2_relax(F2, moduli).c
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_broadcasting_over_nodes():
    rng = np.random.default_rng(9)
    F = rng.normal(size=(4, 5, 2, 2))
    F = 0.5 * (F + np.swapaxes(F, -1, -2))
    r = mat.q2_relax(F, M11)
    assert r.value.shape == (4, 5) and r.c.shape == (4, 5, 3)
    single = mat.q2_relax(F[2, 3], M11)
    assert abs(r.value[2, 3] - single.value) < 1e-14


def test_anisotropic_matches_isotropic():
    moduli = isotropic_voigt(1.3, 0.6)
    iso = mat.ElasticModuli(1.3, 0.6)
    rng = np.random.default_rng(10)
    G = rng.normal(size=(3, 3))
    assert abs(mat.q3(G, moduli) - mat.q3(G, iso)) < 1e-12
    assert abs(mat.w_density(np.eye(3) + 0.05 * G, moduli)
               - mat.w_density(np.eye(3) + 0.05 * G, iso)) < 1e-12
    A = rng.normal(size=(2, 2))
    F = 0.5 * (A + A.T)
    # both read the Schur complement of their Voigt matrix in the plate frame
    r_ani = mat.q2_relax(F, moduli)
    r_iso = mat.q2_relax(F, iso)
    assert abs(r_ani.value - r_iso.value) < 1e-10
    assert np.max(np.abs(r_ani.c - r_iso.c)) < 1e-10


def test_anisotropic_validation():
    with pytest.raises(ValueError):
        mat.AnisotropicModuli(np.zeros((6, 6)))
    bad = np.eye(6)
    bad[0, 1] = 0.5  # not symmetric
    with pytest.raises(ValueError):
        mat.AnisotropicModuli(bad)


def test_q2_numeric_batched_matches_node_loop():
    C = np.diag([3.0, 2.0, 1.5, 0.8, 0.9, 0.7])
    C[0, 1] = C[1, 0] = 0.6
    C[3, 5] = C[5, 3] = 0.2
    rng = np.random.default_rng(11)
    F = rng.normal(size=(4, 5, 2, 2))
    F = 0.5 * (F + np.swapaxes(F, -1, -2))
    for moduli in (mat.AnisotropicModuli(C), M11):
        batched = mat.q2_numeric(F, moduli)
        for i in range(4):
            for j in range(5):
                single = mat.q2_numeric(F[i, j], moduli)
                assert abs(batched.value[i, j] - single.value) \
                    <= 1e-13 * single.value
                assert np.max(np.abs(batched.c[i, j] - single.c)) <= 1e-13


def test_q2_frame_matrix_represents_relaxed_form():
    rng = np.random.default_rng(12)
    F = rng.normal(size=(6, 2, 2))
    F = 0.5 * (F + np.swapaxes(F, -1, -2))
    v = np.stack([F[:, 0, 0], F[:, 1, 1], np.sqrt(2.0) * F[:, 0, 1]], axis=-1)
    C = np.diag([3.0, 2.0, 1.5, 0.8, 0.9, 0.7])
    C[0, 2] = C[2, 0] = 0.4
    for moduli in (M11, isotropic_voigt(1.3, 0.6), mat.AnisotropicModuli(C)):
        Q, K = mat.q2_frame_matrix(moduli)
        assert np.allclose(Q, Q.T, rtol=0, atol=1e-14)
        want = mat.q2_numeric(F, moduli)
        got = np.einsum("nk,kl,nl->n", v, Q, v)
        assert np.max(np.abs(got - want.value)) <= 1e-12 * np.max(want.value)
        # the plate frame is the identity, so K v is c in Cartesian components
        assert np.max(np.abs(v @ K.T - want.c)) <= 1e-12


def test_anisotropic_q2_in_chart_frame():
    """On a cylinder the axial stretch e1 (x) e1 = e_z (x) e_z of a material
    ten times stiffer along e_z relaxes to 10 at every node, on every
    route that is given the chart frame."""
    chart = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0}, (8, 16))
    moduli = mat.AnisotropicModuli(np.diag([1.0, 1.0, 10.0, 1.0, 1.0, 1.0]))
    F = np.zeros(chart.shape + (2, 2))
    F[..., 0, 0] = 1.0
    rows = mat.q2_rows(F, moduli, np.ones(chart.shape), chart.frame)
    for value in (mat.q2_value(F, moduli, chart.frame),
                  mat.q2_relax(F, moduli, chart.frame).value,
                  np.sum(rows.reshape((3,) + chart.shape) ** 2, axis=0),
                  mat.q2_numeric(F, moduli, chart.frame).value):
        assert value.shape == chart.shape
        assert np.max(np.abs(value - 10.0)) <= 1e-12


def test_q2_rows_of_a_stack_on_a_curved_chart():
    """On a cylinder, the rows of a stack of forms are the rows of each
    form stacked, and each form's squared rows are its weighted Q2
    integral, with one Cholesky factor (isotropic moduli) and one per node
    (anisotropic moduli)."""
    chart = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0}, (8, 16))
    rng = np.random.default_rng(5)
    F = rng.normal(size=(4,) + chart.shape + (2, 2))
    F = F + np.swapaxes(F, -1, -2)
    w = rng.uniform(0.5, 2.0, size=chart.shape)
    for moduli in (mat.ElasticModuli(1.3, 0.6), anisotropic_voigt(rng)):
        rows = mat.q2_rows(F, moduli, w, chart.frame)
        assert rows.shape == (4, 3 * chart.n_nodes)
        assert np.array_equal(rows, np.stack(
            [mat.q2_rows(Fk, moduli, w, chart.frame) for Fk in F]))
        want = np.sum(w * mat.q2_value(F, moduli, chart.frame), axis=(1, 2))
        assert np.max(np.abs(np.sum(rows**2, axis=1) - want) / want) <= 1e-12


def test_q2_oracle_sweep_in_random_frames():
    """The Schur complement of q2_relax and the normal equations of
    q2_numeric agree, value and completion, in random per-node frames."""
    rng = np.random.default_rng(13)
    frames = np.stack([random_rotation(rng) for _ in range(50)])
    F = rng.normal(size=(50, 2, 2))
    for moduli in (anisotropic_voigt(rng), anisotropic_voigt(rng),
                   mat.ElasticModuli(1.3, 0.6)):
        closed = mat.q2_relax(F, moduli, frames)
        numeric = mat.q2_numeric(F, moduli, frames)
        assert np.max(np.abs(closed.value - numeric.value)
                      / numeric.value) <= 1e-10
        assert np.max(np.abs(closed.c - numeric.c)) <= 1e-10
