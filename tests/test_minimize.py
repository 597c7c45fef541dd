import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import vkshell as vk
from vkshell import cli
from vkshell import functional as fn
from vkshell import gammacheck as gc
from vkshell import geometry as geo
from vkshell import isometry as iso
from vkshell import material as mat
from vkshell import membrane as mem
from vkshell import minimize as mz
from vkshell import presets

from conftest import (anisotropic_voigt, random_rotation,
                      reference_dictionary_strains, rotated_cylinder,
                      rotated_voigt)

M11 = mat.ElasticModuli(1.0, 1.0)


@pytest.fixture(scope="module")
def plate_problem(plate16):
    basis = iso.isometry_basis(plate16, n_request=25, tol=1e-8)
    U1, _ = np.meshgrid(plate16.u1, plate16.u2, indexing="ij")
    f = np.zeros(plate16.shape + (3,))
    f[..., 2] = U1 - 0.5
    load = fn.make_load(plate16, f, remove_mean=True)
    return plate16, basis, load


@pytest.fixture(scope="module")
def cyl_problem(cyl_small):
    basis = iso.isometry_basis(cyl_small, n_request=14, tol=1e-8)
    load = fn.make_load(cyl_small, presets.load_preset(cyl_small, "radial_cos2"),
                        remove_mean=True)
    return cyl_small, basis, load


def test_zero_load_gives_zero(plate_problem):
    chart, basis, _ = plate_problem
    load = fn.make_load(chart, np.zeros(chart.shape + (3,)))
    res = mz.minimize_quadratic(chart, basis, load, [np.eye(3)], M11)
    assert res.value == 0.0
    assert np.max(np.abs(res.V_star.values)) == 0.0


def test_linear_scaling_in_load(plate_problem):
    chart, basis, load = plate_problem
    res1 = mz.minimize_quadratic(chart, basis, load, [np.eye(3)], M11)
    load3 = fn.make_load(chart, 3.0 * load.f.values)
    res3 = mz.minimize_quadratic(chart, basis, load3, [np.eye(3)], M11)
    assert np.max(np.abs(res3.V_star.values - 3.0 * res1.V_star.values)) \
        <= 1e-10 * np.max(np.abs(res1.V_star.values))
    assert abs(res3.value - 9.0 * res1.value) <= 1e-10 * abs(res1.value)


def test_mirror_symmetry_of_minimizer(plate_problem):
    """Odd data about the plate midline forces an odd minimizer."""
    chart, basis, load = plate_problem
    res = mz.minimize_quadratic(chart, basis, load, [np.eye(3)], M11)
    v3 = res.V_star.values[..., 2]
    assert np.max(np.abs(v3 + v3[::-1, :])) <= 1e-8 * np.max(np.abs(v3))


def test_never_worse_than_trivial_point(plate_problem, cyl_problem):
    for chart, basis, load in (plate_problem, cyl_problem):
        res = mz.minimize_quadratic(chart, basis, load, [np.eye(3)], M11)
        assert res.value <= 1e-12


def test_candidate_dominance(cyl_problem):
    chart, basis, load = cyl_problem
    rng = np.random.default_rng(2)
    from conftest import random_rotation
    cands = [np.eye(3)] + [random_rotation(rng) for _ in range(3)]
    res = mz.minimize_quadratic(chart, basis, load, cands, M11)
    best = min(row["value"] for row in res.table)
    assert res.value == best


def test_minimizers_read_the_load_through_one_moment(monkeypatch, plate16):
    """Both minimizers take the load vectors of all their rotation
    candidates from one load moment of the basis fields."""
    load = fn.make_load(plate16, presets.load_preset(plate16, "normal_saddle"),
                        remove_mean=True)
    rset = fn.rotation_set(load, sample_count=8, seed=0)
    assert rset.m == 0.0 and len(rset.candidates) == 8    # SO(3) samples
    basis = iso.isometry_basis(plate16, n_request=12, tol=1e-8)
    opts = mz.SolverOptions(tol=1e-10, restarts=1)
    calls, moment = [], fn.load_moment
    monkeypatch.setattr(fn, "load_moment",
                        lambda *args: calls.append(1) or moment(*args))
    for count in (1, 3, 8):
        candidates = rset.candidates[:count]
        for run in (
                lambda: mz.minimize_quadratic(plate16, basis, load,
                                              candidates, M11),
                lambda: mz.minimize_J(plate16, basis, load, candidates, 1.0,
                                      M11, dict_degree=2, opts=opts)):
            calls.clear()
            assert len(run().table) == count
            assert len(calls) == 1


def test_kappa_continuity(cyl_problem):
    chart, basis, load = cyl_problem
    quad = mz.minimize_quadratic(chart, basis, load, [np.eye(3)], M11)
    opts = mz.SolverOptions(tol=1e-10, max_iter=300, restarts=2, seed=0)
    full = mz.minimize_J(chart, basis, load, [np.eye(3)], 1e-8, M11,
                         dict_degree=3, opts=opts)
    assert abs(full.value - quad.value) <= 1e-6 * abs(quad.value)


def test_monotone_objective_and_reproducibility(cyl_problem):
    chart, basis, load = cyl_problem
    opts = mz.SolverOptions(tol=1e-10, max_iter=300, restarts=3, seed=11)
    r1 = mz.minimize_J(chart, basis, load, [np.eye(3)], 1.0, M11,
                       dict_degree=3, opts=opts)
    hist = r1.objective_history
    assert all(b - a <= 1e-10 * max(abs(hist[0]), 1.0)
               for a, b in zip(hist, hist[1:]))
    r2 = mz.minimize_J(chart, basis, load, [np.eye(3)], 1.0, M11,
                       dict_degree=3, opts=opts)
    assert np.array_equal(r1.V_star.values, r2.V_star.values)
    assert r1.value == r2.value
    assert np.array_equal(r1.B_coeffs, r2.B_coeffs)


def test_lower_bound_from_coercivity(cyl_problem):
    chart, basis, load = cyl_problem
    opts = mz.SolverOptions(tol=1e-10, max_iter=300, restarts=2, seed=0)
    res = mz.minimize_J(chart, basis, load, [np.eye(3)], 1.0, M11,
                        dict_degree=3, opts=opts)
    spec = iso.coercivity_spectrum(chart, basis, M11)
    fields, _ = mz._rigid_complement(chart, basis)
    ell = mz._load_vector(chart, load, np.eye(3), fields)
    bound = -0.25 * float(ell @ ell) / spec.smallest
    assert np.isfinite(res.value)
    assert res.value >= bound


def test_kappa_positive_required(cyl_problem):
    chart, basis, load = cyl_problem
    with pytest.raises(ValueError):
        mz.minimize_J(chart, basis, load, [np.eye(3)], 0.0, M11)


def test_wellposedness_pass_and_fail(plate_problem):
    chart, basis, load = plate_problem
    zero = fn.make_load(chart, np.zeros(chart.shape + (3,)))
    assert mz.wellposedness_check(zero, [np.eye(3)]).ok
    biased = fn.make_load(chart, np.ones(chart.shape + (3,)),
                          remove_mean=False)
    rep = mz.wellposedness_check(biased, [np.eye(3)])
    assert not rep.ok
    assert any(kind == "mean" for kind, *_ in rep.failures)


def test_wellposedness_gram_schmidt_on_sphere():
    """Remove the rotational work directions from a load on a sphere patch;
    the cleaned load passes the linearized condition."""
    sph = vk.build_chart("sphere_patch", {"radius": 1.0,
                                          "polar_range": (0.4, 1.4)}, (16, 24))
    rng = np.random.default_rng(5)
    U1, U2 = np.meshgrid(sph.u1, sph.u2, indexing="ij")
    f = np.stack([np.sin(U1) * np.cos(2 * U2),
                  np.cos(U1) * np.sin(U2),
                  np.sin(2 * U1)], axis=-1)
    # project out constants and the three rotational fields e_k x x
    w = sph.quad_w
    basis_fields = []
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        basis_fields.append(np.broadcast_to(e, sph.shape + (3,)).copy())
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        basis_fields.append(np.cross(e, sph.pos))
    # Gram-Schmidt under the surface L2 product
    ortho = []
    for g in basis_fields:
        for o in ortho:
            g = g - geo.integrate(sph, np.einsum("xyc,xyc->xy", g, o)) * o
        nrm = np.sqrt(geo.integrate(sph, np.einsum("xyc,xyc->xy", g, g)))
        ortho.append(g / nrm)
    for o in ortho:
        f = f - geo.integrate(sph, np.einsum("xyc,xyc->xy", f, o)) * o
    load = fn.make_load(sph, f)
    rep = mz.wellposedness_check(load, [np.eye(3)], tol=1e-9)
    assert rep.ok


def test_b_step_reduces_stretching(cyl_problem):
    """With the strain dictionary active, the optimal strain nearly cancels
    the quadratic displacement effect on the (robust) cylinder."""
    chart, basis, load = cyl_problem
    opts = mz.SolverOptions(tol=1e-10, max_iter=300, restarts=1, seed=0)
    res = mz.minimize_J(chart, basis, load, [np.eye(3)], 1.0, M11,
                        dict_degree=3, opts=opts)
    A = iso.extend_A(chart, res.V_star)
    stretch = fn.stretching_energy(chart, res.B_field, A, 1.0, M11)
    bend = fn.bending_energy(chart, res.V_star, M11)
    assert stretch <= 1e-6 * max(bend, 1e-12)


def test_b_field_is_the_coefficient_combination(cyl_problem):
    """B_field is the strain sum of B_coeffs times the dictionary strains."""
    chart, basis, load = cyl_problem
    opts = mz.SolverOptions(tol=1e-10, max_iter=300, restarts=1, seed=0)
    res = mz.minimize_J(chart, basis, load, [np.eye(3)], 1.0, M11,
                        dict_degree=3, opts=opts)
    strains, _ = reference_dictionary_strains(chart, 3)
    ref = sum(c * b for c, b in zip(res.B_coeffs, strains))
    assert np.max(np.abs(res.B_field.coeff - ref)) \
        <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("grid, anisotropic", [((12, 32), False),
                                               ((8, 16), True)])
def test_packed_pair_rows_give_the_stretching_energy(grid, anisotropic):
    """Contracted with c_ij = (2 - delta_ij) xi_i xi_j, the packed pair rows
    give rows y of the field V = sum xi_i V_i with |y|^2 its stretching
    energy at B = 0, on the one Cholesky factor of isotropic moduli and
    the per-node factors of anisotropic ones."""
    chart = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0}, grid)
    rng = np.random.default_rng(11)
    moduli = anisotropic_voigt(rng) if anisotropic else M11
    basis = iso.isometry_basis(chart, n_request=12, tol=1e-8)
    fields, A, _ = iso.rigid_complement_gram(chart, basis, moduli)
    p, kappa = len(fields), 1.3
    rows = mz._pair_rows(chart, A, kappa, moduli, 0.5 * chart.quad_w,
                         chart.frame)
    assert rows.shape == (p * (p + 1) // 2, 3 * chart.n_nodes)
    iu, ju = np.triu_indices(p)
    zero = geo.FormField2(np.zeros(chart.shape + (2, 2)))
    for _ in range(3):
        xi = rng.standard_normal(p)
        y = (np.where(iu == ju, 1.0, 2.0) * xi[iu] * xi[ju]) @ rows
        A_xi = iso.extend_A(chart, np.tensordot(xi, fields, axes=1))
        want = fn.stretching_energy(chart, zero, A_xi, kappa, moduli)
        assert abs(y @ y - want) <= 1e-12 * want


def test_quartic_derivatives_match_central_differences():
    """Closed-form gradient and Hessian of the reduced quartic against
    central differences of its value at a random point."""
    rng = np.random.default_rng(7)
    p, R = 6, 40
    pair = rng.normal(size=(p, p, R))
    pair = 0.5 * (pair + np.swapaxes(pair, 0, 1))
    G = rng.normal(size=(p, p))
    G = G @ G.T + np.eye(p)
    ell = rng.normal(size=p)
    xi = rng.normal(size=p)
    value, grad, hess = mz._quartic_parts(xi, pair, G, ell)

    def f(z):
        return mz._quartic_parts(z, pair, G, ell)[0]

    h = 1e-4
    eye = np.eye(p)
    fd_grad = np.array([(f(xi + h * e) - f(xi - h * e)) / (2 * h) for e in eye])
    fd_hess = np.array([[(f(xi + h * (ei + ej)) - f(xi + h * (ei - ej))
                          - f(xi - h * (ei - ej)) + f(xi - h * (ei + ej)))
                         / (4 * h * h) for ej in eye] for ei in eye])
    y = np.einsum("i,j,ijr->r", xi, xi, pair)
    assert abs(value - (y @ y + xi @ G @ xi - ell @ xi)) <= 1e-12 * abs(value)
    assert np.max(np.abs(grad - fd_grad)) <= 1e-6 * np.max(np.abs(grad))
    assert np.max(np.abs(hess - fd_hess)) <= 1e-6 * np.max(np.abs(hess))


def test_stop_reasons(cyl_problem):
    chart, basis, load = cyl_problem
    done = mz.minimize_J(chart, basis, load, [np.eye(3)], 1.0, M11,
                         dict_degree=3,
                         opts=mz.SolverOptions(tol=1e-10, restarts=1))
    assert done.stop_reason == "converged" and not done.flagged
    assert done.gradient_norm <= 1e-10
    assert done.table[0]["stop_reason"] == "converged"
    # the degree-1 dictionary leaves a quartic that takes 3 Newton steps
    slow = mz.minimize_J(chart, basis, load, [np.eye(3)], 1.0, M11,
                         dict_degree=1,
                         opts=mz.SolverOptions(tol=1e-10, restarts=1))
    assert slow.stop_reason == "converged" and slow.iterations > 2
    capped = mz.minimize_J(chart, basis, load, [np.eye(3)], 1.0, M11,
                           dict_degree=1,
                           opts=mz.SolverOptions(tol=1e-10, max_iter=2,
                                                 restarts=1))
    assert capped.stop_reason == "max_iter" and capped.flagged
    assert capped.iterations == 2
    assert capped.gradient_norm > 1e-10
    quad = mz.minimize_quadratic(chart, basis, load, [np.eye(3)], M11)
    assert quad.stop_reason == "converged"


@pytest.mark.parametrize("tol", [1e-9, 1e-10])
def test_newton_decides_steps_near_the_minimum_by_the_line_gain(cyl_problem,
                                                                tol):
    """At kappa = 100 a restart reaches |g| = 1.8e-7 where the re-evaluated
    objective no longer falls in floating point, although the line
    quartic's gain is negative; the run still converges with a named stop
    reason, at the minimum of the unseeded start alone."""
    chart, basis, load = cyl_problem

    def solve(restarts):
        return mz.minimize_J(chart, basis, load, [np.eye(3)], 100.0, M11,
                             dict_degree=3, opts=mz.SolverOptions(
                                 tol=tol, restarts=restarts, seed=0))

    res = solve(3)
    assert res.stop_reason == "converged" and res.gradient_norm <= tol
    assert abs(res.value - solve(1).value) <= 1e-12 * abs(res.value)
    hist = res.objective_history
    assert all(b - a <= 1e-10 * max(abs(hist[0]), 1.0)
               for a, b in zip(hist, hist[1:]))


def test_anisotropic_moduli_in_both_minimizers(cyl_problem):
    """Anisotropic moduli run through both minimizers; the isotropic
    tensor written as a Voigt matrix reproduces the isotropic results."""
    chart, basis, load = cyl_problem
    opts = mz.SolverOptions(tol=1e-10, max_iter=300, restarts=2, seed=0)
    from conftest import isotropic_voigt
    voigt = isotropic_voigt(1.0, 1.0)
    for solve in (
            lambda m: mz.minimize_quadratic(chart, basis, load, [np.eye(3)], m),
            lambda m: mz.minimize_J(chart, basis, load, [np.eye(3)], 1.0, m,
                                    dict_degree=3, opts=opts)):
        ref, got = solve(M11), solve(voigt)
        assert abs(got.value - ref.value) <= 1e-8 * abs(ref.value)
        assert np.max(np.abs(got.V_star.values - ref.V_star.values)) \
            <= 1e-6 * np.max(np.abs(ref.V_star.values))

    C = np.diag([3.0, 2.0, 1.5, 0.8, 0.9, 0.7])
    C[0, 1] = C[1, 0] = 0.6
    aniso = mat.AnisotropicModuli(C)
    quad = mz.minimize_quadratic(chart, basis, load, [np.eye(3)], aniso)
    full = mz.minimize_J(chart, basis, load, [np.eye(3)], 1.0, aniso,
                         dict_degree=3, opts=opts)
    assert quad.value < 0 and np.isfinite(full.value)
    assert full.stop_reason == "converged"
    hist = full.objective_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))


def test_bending_minimum_matches_total_J_for_anisotropic_moduli(cyl_problem):
    """On a curved chart the row path of minimize_quadratic (per-node
    Cholesky factors of Q) and the pointwise path of total_J (q2_value)
    give the same kappa = 0 minimum."""
    chart, basis, load = cyl_problem
    moduli = anisotropic_voigt(np.random.default_rng(4))
    res = mz.minimize_quadratic(chart, basis, load, [np.eye(3)], moduli)
    J = fn.total_J(chart, res.V_star, res.B_field, 0.0, moduli, load,
                   res.rotation).total
    assert abs(J - res.value) <= 1e-12 * abs(J)


def test_anisotropic_results_are_frame_invariant():
    """Rotating the chart and the material by the same R leaves the
    energies, the coercivity spectrum, the bending minimum and the 3D
    recovery energy of an anisotropic material unchanged."""
    rng = np.random.default_rng(21)
    moduli = anisotropic_voigt(rng)
    base = rotated_cylinder(np.eye(3), (10, 16))
    basis = iso.isometry_basis(base, n_request=16, tol=1e-8)
    V = np.sin(base.pos) + 0.3 * base.pos[..., ::-1] ** 2
    B = geo.sym_grad(base, geo.VectorField3(0.1 * np.cos(base.pos)))
    f = presets.load_preset(base, "radial_cos2")
    candidates = fn.rotation_set(fn.make_load(base, f, remove_mean=True),
                                 sample_count=8, seed=0).candidates

    def results(R):
        chart = rotated_cylinder(R, base.shape)
        rot_moduli = rotated_voigt(moduli, R)
        rot = lambda X: np.einsum("cd,...d->...c", R, X)
        V2 = geo.VectorField3(rot(V))
        modes = rot(basis.modes)
        basis2 = dataclasses.replace(basis, modes=modes, chart=chart)
        load = fn.make_load(chart, rot(f), remove_mean=True)
        cs = iso.coercivity_spectrum(chart, basis2, rot_moduli)
        ansatz = gc.build_ansatz(chart, V2, kappa=1.0, moduli=rot_moduli)
        return np.array([
            fn.bending_energy(chart, V2, rot_moduli),
            fn.stretching_energy(chart, B, iso.extend_A(chart, V2), 1.0,
                                 rot_moduli),
            cs.smallest, cs.largest,
            mz.minimize_quadratic(chart, basis2, load,
                                  [R @ Q @ R.T for Q in candidates],
                                  rot_moduli).value,
            gc.energy_3d(ansatz, 0.05)])

    want = results(np.eye(3))
    for R in (random_rotation(rng), random_rotation(rng)):
        assert np.max(np.abs(results(R) - want) / np.abs(want)) <= 1e-12


@pytest.mark.parametrize("grad, outcome", [(1e-9, "message"), (1e-3, "raise")])
def test_solver_failure_is_named_or_raised(monkeypatch, grad, outcome):
    """A Newton step whose gain on the line quartic is not negative stops
    the iteration: the stop is named "stalled" only when |g| <= 100 tol,
    else MinimizationError is raised.  On lam (|xi|^2 - 2 xi_1), lam the
    power of two that puts the gradient 2^-39 lam of the start
    xi0 = (1 + 2^-40, 0) nearest grad, the exact Newton step to (1, 0)
    leaves the value -lam unchanged in floating point, but its gain
    -2^-80 lam is negative, so the step is taken.  A line step reported
    with gain 0 reaches the stop branches."""
    lam = 2.0 ** np.round(np.log2(grad * 2.0**39))
    pair, G, ell = np.zeros((2, 2, 1)), lam * np.eye(2), np.array([2 * lam, 0])
    xi0 = np.array([1.0 + 2.0**-40, 0.0])
    opts = mz.SolverOptions(tol=1e-10)
    xi, value, grad_norm, iters, history, reason = mz._newton(
        pair, G, ell, xi0, opts)
    assert reason == "converged" and iters == 1 and grad_norm == 0.0
    assert history == [-lam, -lam] and np.array_equal(xi, [1.0, 0.0])
    line_step = mz._line_step
    monkeypatch.setattr(mz, "_line_step", lambda c: (line_step(c)[0], 0.0))
    if outcome == "raise":
        with pytest.raises(mz.MinimizationError) as err:
            mz._newton(pair, G, ell, xi0, opts)
        assert err.value.diagnostics["gradient_norm"] == 2.0**-39 * lam
        assert err.value.diagnostics["gradient_norm"] > 100 * opts.tol
    else:
        xi, value, grad_norm, iters, history, reason = mz._newton(
            pair, G, ell, xi0, opts)
        assert reason == "stalled" and iters == 0
        assert opts.tol < grad_norm == 2.0**-39 * lam <= 100 * opts.tol
        assert history == [value] == [-lam] and np.array_equal(xi, xi0)


def test_line_quartic_is_the_objective_along_the_line():
    """The coefficients of t -> f(xi + t d) reproduce the objective at
    several t, and the step chosen from them is the global minimizer."""
    rng = np.random.default_rng(3)
    p, R = 5, 30
    pair = rng.normal(size=(p, p, R))
    pair = 0.5 * (pair + np.swapaxes(pair, 0, 1))
    G = rng.normal(size=(p, p))
    G = G @ G.T + np.eye(p)
    ell, xi, d = rng.normal(size=(3, p))
    c = mz._line_quartic(xi, d, pair, G, ell)
    poly = lambda t: np.polyval(c[::-1], t)
    for t in (-1.7, -0.3, 0.0, 0.4, 1.0, 2.5):
        want = mz._quartic_parts(xi + t * d, pair, G, ell)[0]
        assert abs(poly(t) - want) <= 1e-12 * abs(want)
    t, gain = mz._line_step(c)
    assert abs(gain - (poly(t) - c[0])) <= 1e-12 * abs(c[0])
    for h in (1e-6, 1e-3, 1e-1, 1.0):
        assert poly(t) <= min(poly(t - h), poly(t + h))
    assert poly(t) <= np.min(poly(np.linspace(t - 10.0, t + 10.0, 2001)))


def test_line_step_names_an_unbounded_quartic():
    """A line quartic whose leading term is of odd degree or negative is
    unbounded below; _line_step and _newton stop on it by name, _newton
    with its diagnostics.  On f = xi_1^2 - xi_2^2 - xi_1 - xi_2 the
    Newton direction from 0 is (1, 1), along which f = -2 t."""
    for c in ([0.0, -1.0, 0.0, 0.0, 0.0], [0.0, 1.0, -2.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 1.0, 0.0]):
        with pytest.raises(mz.MinimizationError, match="unbounded below"):
            mz._line_step(np.array(c))
    with pytest.raises(mz.MinimizationError, match="unbounded below") as err:
        mz._newton(np.zeros((2, 2, 3)), np.diag([1.0, -1.0]), np.ones(2),
                   np.zeros(2), mz.SolverOptions())
    assert err.value.diagnostics == {"iteration": 0, "objective": 0.0,
                                     "gradient_norm": np.sqrt(2.0)}


def test_newton_names_a_zero_hessian():
    """On f = -xi_1 the Hessian is zero, so no Newton direction exists."""
    with pytest.raises(mz.MinimizationError, match="Hessian is zero") as err:
        mz._newton(np.zeros((2, 2, 3)), np.zeros((2, 2)), np.array([1.0, 0.0]),
                   np.zeros(2), mz.SolverOptions())
    assert err.value.diagnostics == {"iteration": 0, "objective": 0.0,
                                     "gradient_norm": 1.0}


def _projected_pair_rows(chart, basis, kappa, moduli, dict_degree):
    """The packed pair rows projected onto the strain dictionary's
    complement as minimize_J forms them, before their compression."""
    _, A, _ = iso.rigid_complement_gram(chart, basis, moduli)
    w = 0.5 * chart.quad_w
    gens = mem._dictionary_generators(chart, dict_degree)
    cols, _ = mem._dictionary_columns(
        chart, gens, lambda F: mat.q2_rows(F, moduli, w, chart.frame))
    colsq, _ = np.linalg.qr(cols, mode="reduced")
    rows = mz._pair_rows(chart, A, kappa, moduli, w, chart.frame)
    rows -= (rows @ colsq) @ colsq.T
    return rows


def _unpack(rows, p):
    iu, ju = np.triu_indices(p)
    pair = np.empty((p, p, rows.shape[1]))
    pair[iu, ju] = pair[ju, iu] = rows
    return pair


@pytest.fixture(scope="module")
def quartic_problem(cyl_small):
    """The benchmark's kappa = 1 chart: cylinder 12x32, radial_cos2 with
    the mean removed, 30 requested modes, the CLI's rotation candidates."""
    basis = iso.isometry_basis(cyl_small, n_request=30, tol=1e-8)
    load = fn.make_load(cyl_small,
                        presets.load_preset(cyl_small, "radial_cos2"),
                        remove_mean=True)
    candidates = fn.rotation_set(load, sample_count=8, seed=7).candidates
    return cyl_small, basis, load, candidates


@pytest.mark.parametrize("anisotropic", [False, True])
def test_compressed_pair_rows_keep_the_quartic(monkeypatch, quartic_problem,
                                               anisotropic):
    """minimize_J hands _newton the R factor R of P^T = Q R, P the
    projected pair rows: |R c|^2 = |P^T c|^2 for c = (2 - delta_ij)
    xi_i xi_j, also at near-robust xi = e_k + eps e_j where the self-pair
    row of e_k vanishes, and the quartic's value, gradient and Hessian
    agree with those of the uncompressed tensor."""
    chart, basis, load, _ = quartic_problem
    moduli = M11
    if anisotropic:
        chart = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0},
                               (8, 16))
        moduli = anisotropic_voigt(np.random.default_rng(11))
        basis = iso.isometry_basis(chart, n_request=30, tol=1e-8)
        load = fn.make_load(chart, presets.load_preset(chart, "radial_cos2"),
                            remove_mean=True)
    seen, newton = [], mz._newton

    def spy(pair, G, ell, xi0, opts):
        seen.append((pair, G, ell))
        return newton(pair, G, ell, xi0, opts)

    monkeypatch.setattr(mz, "_newton", spy)
    mz.minimize_J(chart, basis, load, [np.eye(3)], 1.0, moduli,
                  dict_degree=4, opts=mz.SolverOptions(restarts=1))
    pair, G, ell = seen[0]
    rows = _projected_pair_rows(chart, basis, 1.0, moduli, 4)
    p = len(G)
    assert pair.shape == (p, p, p * (p + 1) // 2)
    full = _unpack(rows, p)

    def y2(T, xi):
        y = np.tensordot(xi, T, axes=1).T @ xi
        return y @ y

    rng = np.random.default_rng(5)
    points = list(rng.standard_normal((20, p)))
    iu, ju = np.triu_indices(p)
    self_norm = np.linalg.norm(rows[iu == ju], axis=1)
    robust = np.flatnonzero(self_norm < 1e-10 * self_norm.max())
    assert robust.size
    for k in robust:
        for j in np.delete(np.arange(p), k):
            for eps in (1e-2, 1e-4, 1e-6):
                xi = np.zeros(p)
                xi[k], xi[j] = 1.0, eps
                points.append(xi)
    for xi in points:
        want = y2(full, xi)
        assert abs(y2(pair, xi) - want) <= 1e-13 * want
    for xi in points[:20]:
        got = mz._quartic_parts(xi, pair, G, ell)
        want = mz._quartic_parts(xi, full, G, ell)
        assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])
        for a, b in zip(got[1:], want[1:]):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("restarts", [1, 2])
def test_compressed_quartic_has_the_uncompressed_minimum(quartic_problem,
                                                         restarts):
    """Newton on the full (p, p, 3N) tensor of the projected pair rows
    reaches minimize_J's value, iteration count and stop reason on every
    rotation candidate."""
    chart, basis, load, candidates = quartic_problem
    opts = mz.SolverOptions(tol=1e-10, max_iter=300, restarts=restarts,
                            seed=7)
    res = mz.minimize_J(chart, basis, load, candidates, 1.0, M11,
                        dict_degree=4, opts=opts)
    fields, _, G = iso.rigid_complement_gram(chart, basis, M11)
    p = len(fields)
    full = _unpack(_projected_pair_rows(chart, basis, 1.0, M11, 4), p)
    rng = np.random.default_rng(opts.seed)
    starts = [np.zeros(p)] + [0.1 * rng.standard_normal(p)
                              for _ in range(restarts - 1)]
    for row, Q in zip(res.table, candidates):
        ell = mz._load_vector(chart, load, Q, fields)
        run = mz._earliest_best([mz._newton(full, G, ell, xi0, opts)
                                 for xi0 in starts])
        assert abs(run[1] - row["value"]) <= 1e-14 * abs(row["value"])
        assert (run[3], run[5]) == (row["iterations"], row["stop_reason"])


@pytest.mark.parametrize("n", [1, 7, 8, 63, 64, 65, 71, 72, 300])
def test_row_blocks_cover_the_rows_in_blocks_of_at_least_8(n):
    """The projection's row blocks cover range(n) in order, 64 rows each
    but the last, and none has fewer than 8 rows unless n has."""
    blocks = mz._row_blocks(n)
    assert [i for b in blocks for i in range(n)[b]] == list(range(n))
    assert all(b.stop - b.start == 64 for b in blocks[:-1])
    assert blocks[-1].stop - blocks[-1].start >= min(n, 8)


def test_pair_rows_are_held_once():
    """The tracemalloc peak of minimize_J above its entry on cylinder
    24x64 (p' = 300 pair rows of 3N = 4608 columns) stays under three
    times the rows' size.  The dictionary's columns are freed after their
    QR and the projection subtracts in row blocks, so that no temporary
    of the rows' size sits beside the rows: 30.4 MiB against a bound of
    31.6, and 35.1 MiB with the columns kept to the end and the
    projection formed as one product."""
    chart = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0},
                           (24, 64))
    basis = iso.isometry_basis(chart, n_request=30, tol=1e-8)
    load = fn.make_load(chart, presets.load_preset(chart, "radial_cos2"),
                        remove_mean=True)
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        res = mz.minimize_J(chart, basis, load, [np.eye(3)], 1.0, M11,
                            dict_degree=4, opts=mz.SolverOptions(restarts=1))
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    p = len(res.coefficients)
    bound = 3 * (p * (p + 1) // 2) * (3 * chart.n_nodes) * 8
    assert peak < bound, (peak, bound)


@pytest.mark.xfail(strict=True,
                   reason="ROADMAP item 1: rank-deficient dictionary solve")
def test_reported_minimum_is_total_J_at_the_returned_point(quartic_problem):
    """total_J at the returned V_star, B_field and rotation is the reported
    value.  The strain solve on the R factor of the rank-deficient
    dictionary misses it by 5.8e-6 relative."""
    chart, basis, load, candidates = quartic_problem
    opts = mz.SolverOptions(tol=1e-10, max_iter=300, restarts=1, seed=7)
    res = mz.minimize_J(chart, basis, load, candidates, 1.0, M11,
                        dict_degree=4, opts=opts)
    J = fn.total_J(chart, res.V_star, res.B_field, 1.0, M11, load,
                   res.rotation).total
    assert abs(J - res.value) <= 1e-10 * abs(res.value)


@pytest.mark.parametrize("shifts", [(0, -2), (0, 2), (2, -2), (-2, 2)])
def test_tied_starts_report_the_earliest_run(monkeypatch, shifts):
    """On acceptance 10's chart the zero start (1 iteration) and the seeded
    restart (3 iterations) reach the same minimum.  With their values
    moved by the given numbers of ulps, both within _TIE_ULPS of the best,
    minimize_J reports the zero start's whole run."""
    cyl = vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0}, (12, 32))
    basis = iso.isometry_basis(cyl, n_request=14, tol=1e-8)
    load = fn.make_load(cyl, presets.load_preset(cyl, "radial_cos2"),
                        remove_mean=True)
    runs, newton = [], mz._newton

    def nudged(pair, G, ell, xi0, opts):
        xi, value, *rest = newton(pair, G, ell, xi0, opts)
        value += shifts[len(runs)] * np.spacing(abs(value))
        runs.append((xi, value, *rest))
        return runs[-1]

    monkeypatch.setattr(mz, "_newton", nudged)
    opts = mz.SolverOptions(tol=1e-10, max_iter=300, restarts=2, seed=0)
    res = mz.minimize_J(cyl, basis, load, [np.eye(3)], 1.0, M11,
                        dict_degree=4, opts=opts)
    first, seeded = runs
    assert first[3] != seeded[3]      # the runs differ in their counts
    assert (res.value, res.iterations, res.stop_reason) == (
        first[1], first[3], first[5])
    assert np.array_equal(res.coefficients, first[0])


QUARTIC_CFG = """
[surface]
family = cylinder
grid = 12 32
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
basis_size = 30
tol = 1e-10
max_iter = 300
restarts = 1
dictionary_degree = 4
seed = 1

[output]
directory = {out}
"""


def test_quartic_minimum_meets_the_benchmark_bound(tmp_path):
    """The benchmark's kappa = 1 minimize reaches its reference bound: a
    change of the dictionary's rounding that moves the minimum up past it
    (ROADMAP item 1) fails here as the benchmark's pass check would."""
    cfg = tmp_path / "quartic.cfg"
    cfg.write_text(QUARTIC_CFG.format(out=tmp_path / "out"))
    assert cli.run(["minimize", "--config", str(cfg)]) == 0
    value = json.loads(
        (tmp_path / "out" / "minimize_result.json").read_text())["value"]
    # perfbench/refs.json's full-scale min_quartic value plus the 1e-9
    # the benchmark's pass check allows above it
    assert value <= -0.012270674583454343 + 1e-9


@pytest.mark.xfail(strict=True,
                   reason="ROADMAP item 1: rank-deficient dictionary projection")
def test_quartic_value_is_stable_under_rounding_of_the_dictionary(
        tmp_path, monkeypatch):
    """The benchmark's kappa = 1 minimize moves by at most 1e-10 relative
    when the strain dictionary's columns are scaled by 1 + 1e-15 xi, xi
    seeded normal: a change of their rounding, not of their span.  The
    projection onto the rank-deficient dictionary amplifies it about
    1e9-fold: the value moves by 1.6e-6 relative with this seed (1.7e-7
    .. 1.8e-6 over seeds 2, 3 and 4)."""
    def value(out):
        cfg = tmp_path / (out + ".cfg")
        cfg.write_text(QUARTIC_CFG.format(out=tmp_path / out))
        assert cli.run(["minimize", "--config", str(cfg)]) == 0
        result = tmp_path / out / "minimize_result.json"
        return json.loads(result.read_text())["value"]

    want = value("exact")
    columns = mem._dictionary_columns

    def rounded(chart, gens, row_map):
        cols, kept = columns(chart, gens, row_map)
        xi = np.random.default_rng(2).standard_normal(cols.shape[1])
        return cols * (1.0 + 1e-15 * xi), kept

    monkeypatch.setattr(mem, "_dictionary_columns", rounded)
    assert abs(value("rounded") - want) <= 1e-10 * abs(want)
