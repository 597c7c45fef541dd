import numpy as np
import pytest

import vkshell as vk
from vkshell import functional as fn
from vkshell import geometry as geo
from vkshell import isometry as iso
from vkshell import material as mat
from vkshell import membrane as mem
from vkshell import presets
from vkshell.geometry import FormField2

from conftest import (BANDLIMITED_ABC, isotropic_voigt, plate_sine_mode,
                      reference_dictionary_strains, revolution_form_and_field)


def revolution_chart(n, coeffs=(1.0, 0.0, 0.3), s_range=(-0.5, 0.5)):
    return vk.build_chart("revolution", {"profile": coeffs,
                                         "s_range": s_range}, (n, n))


# ---------------------------------------------------------------------------
# curl-curl compatibility
# ---------------------------------------------------------------------------

def test_curl_curl_annihilates_gradients(plate32):
    rng = np.random.default_rng(0)
    U1, U2 = np.meshgrid(plate32.u1, plate32.u2, indexing="ij")
    # polynomial displacement: compatible by construction
    w = np.zeros(plate32.shape + (3,))
    w[..., 0] = U1**3 - 2 * U1 * U2**2
    w[..., 1] = U2**3 + U1**2 * U2
    cc = mem.curl_curl(plate32, geo.sym_grad(plate32, w))
    assert np.max(np.abs(cc)) < 1e-9  # cubic fields: exact differences


def test_curl_curl_convergence_polynomials():
    """curl-curl of analytic degree-5 symmetric gradients decays at order 2."""
    rng = np.random.default_rng(1)
    coeffs = rng.normal(size=(2, 6, 6))
    errs = []
    for n in (16, 32, 64, 128):
        ch = vk.build_chart("plate", {}, (n, n))
        U1, U2 = np.meshgrid(ch.u1, ch.u2, indexing="ij")
        b = np.zeros(ch.shape + (2, 2))
        for p in range(6):
            for q in range(6 - p):
                # analytic strain entries of w = (w1, w2, 0)
                dp = p * U1 ** max(p - 1, 0) * U2**q if p else 0.0 * U1
                dq = q * U1**p * U2 ** max(q - 1, 0) if q else 0.0 * U1
                b[..., 0, 0] += coeffs[0, p, q] * dp
                b[..., 1, 1] += coeffs[1, p, q] * dq
                b[..., 0, 1] += 0.5 * (coeffs[0, p, q] * dq + coeffs[1, p, q] * dp)
        b[..., 1, 0] = b[..., 0, 1]
        cc = mem.curl_curl(ch, FormField2(b))
        errs.append(np.max(np.abs(cc)))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(slopes) >= 1.9, (errs, slopes)


def test_curl_curl_values(plate32):
    U1, U2 = np.meshgrid(plate32.u1, plate32.u2, indexing="ij")
    b = np.zeros(plate32.shape + (2, 2))
    b[..., 0, 0] = U2**2
    assert np.max(np.abs(mem.curl_curl(plate32, FormField2(b)) - 2.0)) < 1e-10
    ident = np.broadcast_to(np.eye(2), plate32.shape + (2, 2)).copy()
    assert np.max(np.abs(mem.curl_curl(plate32, FormField2(ident)))) < 1e-10


def test_curl_curl_rejects_curved(cyl_small):
    with pytest.raises(ValueError, match="plate"):
        mem.curl_curl(cyl_small, FormField2(np.zeros(cyl_small.shape + (2, 2))))


# ---------------------------------------------------------------------------
# revolution membrane solver
# ---------------------------------------------------------------------------

def test_round_trip_revolution_refinement():
    errs = []
    for n in (32, 64, 128):
        ch = revolution_chart(n)
        B, _ = revolution_form_and_field(ch, *BANDLIMITED_ABC)
        sol = mem.solve_revolution_membrane(ch, B, fourier_order=8)
        errs.append(sol.residual)
        assert not sol.flagged
    assert errs[-1] <= 1e-6
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(slopes) >= 2.0, (errs, slopes)


def test_round_trip_high_mode_refinement():
    """The oscillatory regime (g''/g)(1 - k^2) << 0: BANDLIMITED_ABC with its
    harmonics 2 and 3 replaced by k = 10 on the curved profile."""
    k = 10
    abc = ((lambda S, T: (0.3 + 0.2 * S**2) * np.cos(k * T),
            lambda S, T: 0.4 * S * np.cos(k * T),
            lambda S, T: -k * (0.3 + 0.2 * S**2) * np.sin(k * T)),
           (lambda S, T: 0.1 * S * np.sin(k * T),
            lambda S, T: 0.1 * np.sin(k * T),
            lambda S, T: 0.1 * k * S * np.cos(k * T)),
           BANDLIMITED_ABC[2])
    errs = []
    for n in (32, 64, 128):
        ch = vk.build_chart("revolution", {"profile": (1.0, 0.0, 0.3),
                                           "s_range": (-0.5, 0.5)}, (n, 64))
        B, _ = revolution_form_and_field(ch, *abc)
        errs.append(mem.solve_revolution_membrane(
            ch, B, fourier_order=16).residual)
    assert errs[-1] <= 1e-6
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(slopes) >= 3.5, (errs, slopes)


def test_round_trip_recovers_displacement_strain():
    """sym grad of (w_solved - w_original) nearly vanishes."""
    ch = revolution_chart(64)
    B, w0 = revolution_form_and_field(ch, *BANDLIMITED_ABC)
    sol = mem.solve_revolution_membrane(ch, B, fourier_order=8)
    diff = geo.VectorField3(sol.w.values - w0.values)
    strain = mem.membrane_sym_grad(ch, diff)
    scale = np.max(np.abs(B.coeff))
    assert np.max(np.abs(strain.coeff)) < 1e-6 * scale


def test_zero_form_gives_kernel_element():
    ch = revolution_chart(32)
    B = FormField2(np.zeros(ch.shape + (2, 2)))
    sol = mem.solve_revolution_membrane(ch, B, fourier_order=4)
    assert np.max(np.abs(sol.w.values)) < 1e-12
    assert sol.residual == 0.0


def test_cylinder_double_integration_agreement(cyl_mid):
    from scipy.interpolate import CubicSpline
    from vkshell import operators as ops

    a_f = (lambda S, T: 0.5 * S * np.cos(2 * T),
           lambda S, T: 0.5 * np.cos(2 * T),
           lambda S, T: -S * np.sin(2 * T))
    b_f = (lambda S, T: (0.2 + 0.1 * S) * np.sin(2 * T),
           lambda S, T: 0.1 * np.sin(2 * T),
           lambda S, T: 2 * (0.2 + 0.1 * S) * np.cos(2 * T))
    c_f = (lambda S, T: 0.3 * S**2, lambda S, T: 0.6 * S, lambda S, T: 0.0 * S)
    B, _ = revolution_form_and_field(cyl_mid, a_f, b_f, c_f)
    sol = mem.solve_revolution_membrane(cyl_mid, B, fourier_order=6)
    assert sol.residual <= 1e-8

    # independent closed-form oracle: b_k'' = psi_k, double antiderivative
    s = cyl_mid.u1
    B12h = np.fft.rfft(B.coeff[..., 0, 1], axis=1)
    B11h = np.fft.rfft(B.coeff[..., 0, 0], axis=1)
    k = 2
    dB12 = (ops.fd1_apply_order4(B12h[:, k].real, cyl_mid.du[0])
            + 1j * ops.fd1_apply_order4(B12h[:, k].imag, cyl_mid.du[0]))
    psi_k = 2 * dB12 - 1j * k * B11h[:, k]
    spline = CubicSpline(s, psi_k, bc_type="not-a-knot")
    b1 = spline.antiderivative(1)
    b2 = b1.antiderivative(1)
    direct = b2(s) - b2(s[0]) - b1(s[0]) * (s - s[0])
    solver_bk = np.fft.rfft(sol.components["b"], axis=1)[:, k]
    assert np.max(np.abs(direct - solver_bk)) <= 1e-8


def test_solver_requires_revolution(plate16):
    with pytest.raises(ValueError):
        mem.solve_revolution_membrane(
            plate16, FormField2(np.zeros(plate16.shape + (2, 2))))


def test_residual_flagging():
    ch = revolution_chart(16)
    rng = np.random.default_rng(2)
    # rough random strain: no exact displacement reproduces it
    b = rng.normal(size=ch.shape + (2, 2))
    sol = mem.solve_revolution_membrane(
        ch, FormField2(b), fourier_order=4, warn_threshold=1e-6)
    assert sol.flagged and sol.residual > 1e-6


# ---------------------------------------------------------------------------
# robustness classification
# ---------------------------------------------------------------------------

def test_classify_plate(plate16):
    report = mem.robustness_classify(plate16)
    assert report.label == "NotApproximatelyRobust-Plate"
    assert report.evidence["max_abs_second_form"] <= 1e-10


def test_classify_revolution():
    ch = revolution_chart(16)
    assert mem.robustness_classify(ch).label == "Robust-Revolution"


def test_classify_cylinder_family(cyl_small):
    assert mem.robustness_classify(cyl_small).label == "Robust-Revolution"


def test_classify_convex_cap():
    sph = vk.build_chart("sphere_patch", {"radius": 1.0,
                                          "polar_range": (0.4, 1.2)}, (16, 16))
    report = mem.robustness_classify(sph)
    assert report.label == "Robust-Convex"
    lo, hi = report.evidence["shape_eig_min"], report.evidence["shape_eig_max"]
    assert lo * hi > 0


def test_classify_custom_developable():
    # a cylinder presented as a custom chart: flat but nowhere planar
    def pf(S, T):
        return np.stack([np.cos(T), np.sin(T), S], axis=-1)

    ch = vk.build_chart("custom", {
        "position": pf, "domain": ((0.0, 1.0), (0.0, 2 * np.pi)),
        "periodic2": True}, (12, 32))
    assert mem.robustness_classify(ch).label == "Robust-Developable"


def test_classify_unknown_saddle():
    def saddle(U, V):
        return np.stack([U, V, U * U - V * V], axis=-1)

    ch = vk.build_chart("custom", {"position": saddle,
                                   "domain": ((-0.5, 0.5), (-0.5, 0.5))},
                        (16, 16))
    assert mem.robustness_classify(ch).label == "Unknown"


# ---------------------------------------------------------------------------
# dictionary projection
# ---------------------------------------------------------------------------

def test_projection_exact_membership(plate32):
    # analytic strain of w1 = 0.7 u1^2 u2 - u2^3, w2 = u1 u2 + 0.4 u1^3
    U1, U2 = np.meshgrid(plate32.u1, plate32.u2, indexing="ij")
    b = np.zeros(plate32.shape + (2, 2))
    b[..., 0, 0] = 1.4 * U1 * U2
    b[..., 1, 1] = U1
    b[..., 0, 1] = b[..., 1, 0] = 0.5 * (0.7 * U1**2 - 3 * U2**2 + U2
                                         + 1.2 * U1**2)
    result = mem.project_to_B(plate32, FormField2(b), degree=3)
    assert result.residual <= 1e-10


def test_projection_monotone_in_degree(plate32):
    V = plate_sine_mode(plate32)
    g = geo.surface_gradient(plate32, V)[..., 2, :]
    target = FormField2(-np.einsum("xyi,xyj->xyij", g, g))
    prev = np.inf
    for d in (2, 3, 4, 5, 6, 7, 8):
        r = mem.project_to_B(plate32, target, degree=d).residual
        # nested dictionaries: non-increasing up to least-squares roundoff
        assert r <= prev * (1.0 + 1e-7) + 1e-12
        prev = r


def test_plate_nonrobust_floor_and_cylinder_decay(plate32, cyl_mid):
    U1, U2 = np.meshgrid(plate32.u1, plate32.u2, indexing="ij")
    pi = np.pi
    gx = pi * np.cos(pi * U1) * np.sin(pi * U2)
    gy = pi * np.sin(pi * U1) * np.cos(pi * U2)
    target = FormField2(-np.stack([
        np.stack([gx * gx, gx * gy], -1),
        np.stack([gx * gy, gy * gy], -1)], -2))
    residuals = [mem.project_to_B(plate32, target, degree=d).residual
                 for d in range(2, 9)]
    assert min(residuals) >= 0.1  # incompatible: bounded away from zero

    mode = presets.cylinder_inextensional_mode(cyl_mid, 2)
    A = iso.extend_A(cyl_mid, mode)
    t2 = fn.a_squared_tan(cyl_mid, A)
    res_cyl = [mem.project_to_B(cyl_mid, t2, degree=d).residual
               for d in (2, 4, 8)]
    assert res_cyl[-1] <= 1e-3
    assert res_cyl[0] > res_cyl[-1]


def test_projection_cross_checks_solver(cyl_mid):
    """The projected displacement and the constructive solver agree on the
    realizability of the quadratic-displacement strain."""
    mode = presets.cylinder_inextensional_mode(cyl_mid, 2)
    A = iso.extend_A(cyl_mid, mode)
    target = fn.a_squared_tan(cyl_mid, A)
    proj = mem.project_to_B(cyl_mid, target, degree=8)
    sol = mem.solve_revolution_membrane(cyl_mid, target, fourier_order=8)
    assert proj.residual <= 1e-3
    assert sol.residual <= 1e-8


def test_projection_flags_rank_deficiency(plate16):
    # duplicated strain directions force a singular normal system
    target = FormField2(np.zeros(plate16.shape + (2, 2)))
    result = mem.project_to_B(plate16, target, degree=1)
    # degree-1 in-plane dictionary contains the rigid rotation pair with
    # identical strains; pruning plus lstsq may or may not flag, but the
    # solve must stay finite
    assert np.all(np.isfinite(result.coefficients))
    assert result.residual <= 1e-12


def test_projection_reports_rank(plate16):
    """The rigid rotations are a dependency of every dictionary: on the
    degree-1 plate dictionary the rank is one short of the generators."""
    target = FormField2(np.zeros(plate16.shape + (2, 2)))
    result = mem.project_to_B(plate16, target, degree=1)
    assert result.rank == result.n_generators - 1


# ---------------------------------------------------------------------------
# dictionary assembly against the per-strain reference
# ---------------------------------------------------------------------------

def _reference_dictionary_columns(chart, strains, row_map):
    """One frame_form and one row_map call per strain, then the zero prune."""
    cols = np.stack([row_map(geo.frame_form(chart, FormField2(b)))
                     for b in strains], axis=1)
    norms = np.linalg.norm(cols, axis=0)
    keep = norms > 1e-14 * max(norms.max(), 1e-300)
    return cols[:, keep], np.flatnonzero(keep)


DICTIONARY_CHARTS = {
    "plate 20x20": ("plate", {}, (20, 20)),
    "plate 9x13 shifted": ("plate", {"bounds": ((-1.0, 2.0), (0.5, 3.0))},
                           (9, 13)),
    "cylinder 12x32": ("cylinder", {"radius": 1.0, "height": 1.0}, (12, 32)),
    "revolution 16x32": ("revolution", {"profile": [1.0, 0.0, 0.3],
                                        "s_range": (-0.5, 0.5)}, (16, 32)),
    "sphere_patch 10x16": ("sphere_patch", {}, (10, 16)),
}


@pytest.mark.parametrize("name", sorted(DICTIONARY_CHARTS))
def test_dictionary_columns_match_per_strain_reference(name):
    """The per-axis batched assembly from generator factors reproduces the
    per-strain columns and kept indices bit for bit, for the Frobenius
    rows and the Q2 rows in the chart frame, with one Cholesky factor
    (isotropic moduli) and one per node (anisotropic Voigt matrices)."""
    from conftest import isotropic_voigt
    family, params, grid = DICTIONARY_CHARTS[name]
    chart = vk.build_chart(family, params, grid)
    bits = lambda a: a.view(np.int64)       # signed zeros must match too
    C = np.diag([3.0, 2.0, 1.5, 0.8, 0.9, 0.7])
    C[0, 1] = C[1, 0] = 0.6
    w = 0.5 * chart.quad_w
    row_maps = [lambda F: geo.frame_rows(F, chart.quad_w)] + [
        lambda F, m=m: mat.q2_rows(F, m, w, chart.frame)
        for m in (mat.ElasticModuli(1.0, 1.0), isotropic_voigt(1.3, 0.6),
                  mat.AnisotropicModuli(C))]
    for degree in (0, 1, 4, 6):
        gens = mem._dictionary_generators(chart, degree)
        strains, fields = reference_dictionary_strains(chart, degree)
        assert np.array_equal(bits(gens[0]), bits(np.array(fields)))
        for row_map in row_maps:
            cols, kept = mem._dictionary_columns(chart, gens, row_map)
            ref_cols, ref_kept = _reference_dictionary_columns(
                chart, strains, row_map)
            assert np.array_equal(kept, ref_kept)
            assert np.array_equal(bits(cols), bits(ref_cols))


def test_projection_displacement_realizes_target(plate32):
    """The returned w of an exactly representable target differs from the
    true displacement by a rigid motion only."""
    U1, U2 = np.meshgrid(plate32.u1, plate32.u2, indexing="ij")
    w_true = np.zeros(plate32.shape + (3,))
    w_true[..., 0] = 0.7 * U1**2 * U2 - U2**3
    w_true[..., 1] = U1 * U2 + 0.4 * U1**3
    b = np.zeros(plate32.shape + (2, 2))
    b[..., 0, 0] = 1.4 * U1 * U2
    b[..., 1, 1] = U1
    b[..., 0, 1] = b[..., 1, 0] = 0.5 * (0.7 * U1**2 - 3 * U2**2 + U2
                                         + 1.2 * U1**2)
    result = mem.project_to_B(plate32, FormField2(b), degree=3)
    rest = iso.project_out_rigid(plate32, result.w.values - w_true).values
    assert np.max(np.abs(rest)) <= 1e-12


# ---------------------------------------------------------------------------
# character-blocked projection against the dense solve
# ---------------------------------------------------------------------------

def _dense_projection(chart, target, degree):
    """The dense solve: all dictionary columns on the full grid, lstsq."""
    gens = mem._dictionary_generators(chart, degree)
    cols, kept = mem._dictionary_columns(
        chart, gens, lambda F: geo.frame_rows(F, chart.quad_w))
    y = geo.frame_rows(geo.frame_form(chart, target), chart.quad_w)
    sol, _, rank, _ = np.linalg.lstsq(cols, y, rcond=None)
    resid = np.linalg.norm(cols @ sol - y) / np.linalg.norm(y)
    coeffs, w, _ = mem._dictionary_field(chart, gens, kept, sol)
    return coeffs, resid, w.values, rank, cols.shape[1]


CYL = {"radius": 1.0, "height": 1.0}
REV = {"profile": [1.0, 0.0, 0.3], "s_range": (-0.5, 0.5)}
BLOCKED_CHARTS = {
    "cylinder 12x32 d4": ("cylinder", CYL, (12, 32), 4, True),
    "revolution 16x32 d6": ("revolution", REV, (16, 32), 6, True),
    "revolution 24x48 d6": ("revolution", REV, (24, 48), 6, True),
    "sphere_patch 20x48 d4": ("sphere_patch", {}, (20, 48), 4, True),
    "cylinder central 12x32 d4": (
        "cylinder", dict(CYL, theta_scheme="central"), (12, 32), 4, True),
    "cylinder 12x16 d6 last blocked": ("cylinder", CYL, (12, 16), 6, True),
    "cylinder 12x16 d7 aliasing": ("cylinder", CYL, (12, 16), 7, False),
}


@pytest.mark.parametrize("name", sorted(BLOCKED_CHARTS))
def test_character_blocked_projection_matches_dense(name, monkeypatch):
    """Where the dictionary characters do not alias, project_to_B solves
    per character without the dense columns and reproduces the dense
    minimum-norm solution; at the aliasing edge it is the dense solve."""
    family, params, grid, degree, blocked = BLOCKED_CHARTS[name]
    chart = vk.build_chart(family, params, grid)
    assert mem._character_blocked(chart, degree) == blocked
    rng = np.random.default_rng(7)
    mode = presets.cylinder_inextensional_mode(chart, 2)
    targets = [fn.a_squared_tan(chart, iso.extend_A(chart, mode)),
               FormField2(rng.standard_normal(chart.shape + (2, 2)))]
    refs = [_dense_projection(chart, t, degree) for t in targets]
    if blocked:
        def no_dense_columns(*args):
            raise AssertionError("dense dictionary columns assembled")
        monkeypatch.setattr(mem, "_dictionary_columns", no_dense_columns)
    for target, (coeffs, resid, w, rank, n_cols) in zip(targets, refs):
        result = mem.project_to_B(chart, target, degree)
        assert result.rank == rank
        assert result.n_generators == n_cols
        if not blocked:
            assert result.residual == resid
            assert np.array_equal(result.coefficients, coeffs)
            assert np.array_equal(result.w.values, w)
            continue
        assert abs(result.residual - resid) <= 1e-10 * resid + 1e-13
        assert (np.linalg.norm(result.coefficients - coeffs)
                <= 1e-8 * np.linalg.norm(coeffs))
        assert np.linalg.norm(result.w.values - w) <= 1e-8 * np.linalg.norm(w)


def test_projection_realizes_displacement_on_revolution():
    """A displacement in the degree-4 dictionary span of a revolution chart,
    with cos and sin terms on all three axes, is recovered from its
    analytic strain up to a rigid motion."""
    chart = vk.build_chart("revolution", REV, (16, 32))
    assert mem._character_blocked(chart, 4)
    S, T = np.meshgrid(chart.u1, chart.u2, indexing="ij")
    # (value, d/ds, d/dtheta) per Cartesian axis
    comps = [
        (0.3 * S**2 * np.cos(2 * T) + 0.1 * S * np.sin(T),
         0.6 * S * np.cos(2 * T) + 0.1 * np.sin(T),
         -0.6 * S**2 * np.sin(2 * T) + 0.1 * S * np.cos(T)),
        (0.2 * S**3 * np.sin(3 * T) - 0.4 * np.cos(T),
         0.6 * S**2 * np.sin(3 * T),
         0.6 * S**3 * np.cos(3 * T) + 0.4 * np.sin(T)),
        (0.5 * S * np.cos(T) + 0.2 * S**4 * np.sin(2 * T),
         0.5 * np.cos(T) + 0.8 * S**3 * np.sin(2 * T),
         -0.5 * S * np.sin(T) + 0.4 * S**4 * np.cos(2 * T)),
    ]
    w_true = np.stack([c[0] for c in comps], axis=-1)
    P = np.stack([np.stack([c[1] for c in comps], axis=-1),
                  np.stack([c[2] for c in comps], axis=-1)], axis=-2)
    result = mem.project_to_B(chart, geo.tangential_form(chart, P), degree=4)
    assert result.residual <= 1e-10
    rest = iso.project_out_rigid(chart, result.w.values - w_true).values
    assert np.max(np.abs(rest)) <= 1e-12
