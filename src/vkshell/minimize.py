"""Minimization of the limit energies over the discrete isometry basis,
a finite-strain dictionary and the optimal-rotation candidates.

The bending-only problem is an exactly solvable symmetric linear system
on the rigid-complemented basis.  With a positive stretching coupling the
quadratic displacement effect (kappa/2) (A^2)_tan is bilinear in the basis
modes, so its Q2 rows are formed once per unordered mode pair.  The strain
coefficients are eliminated exactly by linear least squares, which
leaves an explicit quartic polynomial in the isometry coefficients.  Its
gradient and Hessian are evaluated in closed form and drive Newton's
method with an exact line search (Nocedal & Wright, Numerical
Optimization, ch. 3): along any direction the objective is a quartic in
the step length, minimized over the real roots of its cubic derivative.
The iteration accepts a step when the quartic's gain f(t) - f(0) at it
is negative, so the objective history is non-increasing up to rounding,
and every run names its stop reason: converged, iteration cap, or a
stall within 100 tol; any other stop raises.
"""

from dataclasses import dataclass

import numpy as np

from . import functional as fn
from . import isometry as iso
from . import material as mat
from . import membrane as mem
from .geometry import FormField2, VectorField3
from .isometry import _rigid_complement  # noqa: F401  (re-exported)


class MinimizationError(RuntimeError):
    """The solver stopped for a reason other than convergence, the
    iteration cap or a stall within 100 tol."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class SolverOptions:
    tol: float = 1e-9
    max_iter: int = 200
    restarts: int = 2
    seed: int = 0


@dataclass
class MinimizationResult:
    V_star: VectorField3
    B_coeffs: np.ndarray
    B_field: FormField2
    rotation: np.ndarray
    value: float
    gradient_norm: float
    iterations: int
    table: list
    objective_history: list
    flagged: bool = False
    coefficients: np.ndarray = None
    stop_reason: str = "converged"


@dataclass
class WellposednessReport:
    ok: bool
    mean_norm: float
    linearized_residuals: np.ndarray
    failures: list


def wellposedness_check(load, candidates, tol=1e-9):
    """Mean-zero and per-candidate linearized compatibility of the load."""
    scale = max(float(np.linalg.norm(load.moment)), 1.0)
    mean_norm = float(np.linalg.norm(load.mean))
    failures = []
    if mean_norm > tol * scale:
        failures.append(("mean", load.mean.tolist()))
    res = fn._linearized_residuals(load.moment, candidates)
    for k, r in enumerate(res):
        if r > tol * scale:
            failures.append(("linearized", k, float(r)))
    return WellposednessReport(ok=not failures, mean_norm=mean_norm,
                               linearized_residuals=res, failures=failures)


# ---------------------------------------------------------------------------
# shared assembly
# ---------------------------------------------------------------------------

def _load_vector(chart, load, rotation, fields):
    """Load work of each field of a stack (m, N1, N2, 3)."""
    return fn.load_work(chart, load, rotation, fields)


def _pair_rows(chart, A, kappa, moduli, weights, frame):
    """q2_rows of the frame forms (kappa/2) sym(A_i A_j)_tan of a stack of
    skew fields A (p, N1, N2, 3, 3), one row per unordered pair i <= j,
    packed (p(p+1)/2, 3 N) in np.triu_indices order.

    The frame entry e_b . A_i A_j e_a is (A_i^T e_b) . (A_j e_a): both
    factors are formed once per mode by one batched matmul over the nodes,
    and for each i one more gives A_i A_j and A_j A_i for every j >= i.
    A is not assumed exactly skew.
    """
    p, n = len(A), chart.n_nodes
    e = np.stack([chart.frame_e1, chart.frame_e2], axis=-1).reshape(n, 3, 2)
    A = np.moveaxis(A.reshape(p, n, 3, 3), 0, 1)
    Ae = (A.reshape(n, 3 * p, 3) @ e).reshape(n, p, 3, 2)
    ATe = (np.swapaxes(A, 2, 3).reshape(n, 3 * p, 3) @ e).reshape(n, p, 3, 2)
    # per node: columns U[:, :, i] = A_i e, rows T[:, i] = (A_i^T e)^T
    U, T = Ae.transpose(0, 2, 1, 3).copy(), np.swapaxes(ATe, 2, 3).copy()
    rows, start = np.empty((p * (p + 1) // 2, 3 * n)), 0
    for i in range(p):
        m = p - i
        # K[:, j - i, b, a] = e_b . (A_i A_j + A_j A_i) e_a for j >= i
        K = (T[:, i] @ U[:, :, i:].reshape(n, 3, 2 * m)).reshape(n, 2, m, 2)
        K = K.transpose(0, 2, 1, 3) + (
            T[:, i:].reshape(n, 2 * m, 3) @ U[:, :, i]).reshape(n, m, 2, 2)
        F = 0.125 * kappa * (K + np.swapaxes(K, -1, -2))
        rows[start:start + m] = mat.q2_rows(
            F.transpose(1, 0, 2, 3).reshape(m, *chart.shape, 2, 2),
            moduli, weights, frame)
        start += m
    return rows


def _quartic_parts(xi, pair, G, ell):
    """Value, gradient and Hessian of |y|^2 + xi.G xi - ell.xi with
    y = sum_ij xi_i xi_j D_ij, for D = pair symmetric in its first two axes.

    With J_ir = sum_j xi_j D_ijr: gradient 4 J y + 2 G xi - ell and Hessian
    8 J J^T + 4 sum_r y_r D_r + 2 G.
    """
    J = np.tensordot(xi, pair, axes=1)
    y = J.T @ xi
    value = float(y @ y) + float(xi @ G @ xi) - float(ell @ xi)
    grad = 4.0 * (J @ y) + 2.0 * (G @ xi) - ell
    hess = 8.0 * (J @ J.T) + 4.0 * (pair @ y) + 2.0 * G
    return value, grad, hess


def _line_quartic(xi, d, pair, G, ell):
    """Ascending coefficients c0 .. c4 of the quartic t -> f(xi + t d) of
    _quartic_parts.

    y(xi + t d) = y + t a + t^2 b with a = 2 J^T d and b = sum_ij d_i d_j
    D_ij, so |y|^2 expands exactly; the quadratic terms add their own.
    """
    J = np.tensordot(xi, pair, axes=1)
    y, a = J.T @ xi, 2.0 * (J.T @ d)
    b = np.tensordot(d, pair, axes=1).T @ d
    Gxi, Gd = G @ xi, G @ d
    return np.array([y @ y + xi @ Gxi - ell @ xi,
                     2.0 * (y @ a) + 2.0 * (d @ Gxi) - ell @ d,
                     a @ a + 2.0 * (y @ b) + d @ Gd,
                     2.0 * (a @ b), b @ b])


def _line_step(c):
    """Global minimizer t of the quartic with ascending coefficients c
    (c4 = |b|^2 >= 0), among the real parts of the roots of its
    derivative, and its gain t(c1 + t(c2 + t(c3 + t c4))) = f(t) - f(0),
    which has no cancellation against c0."""
    t = np.roots(c[:0:-1] * np.arange(4, 0, -1)).real
    gain = t * (c[1] + t * (c[2] + t * (c[3] + t * c[4])))
    k = np.argmin(gain)
    return float(t[k]), float(gain[k])


def _newton(pair, G, ell, xi0, opts):
    """Newton's method with an exact line search on the quartic f of
    _quartic_parts.

    The direction d = -Q diag(1/max(|lambda|, floor)) Q^T g, from the
    eigendecomposition of the closed-form Hessian, always descends; the
    step is the global minimizer of f along d (_line_step).  A step is
    taken when its gain on the line quartic is negative, so the objective
    history is non-increasing up to rounding: the gain is exact to the
    rounding of the coefficients, where re-evaluating f near its minimum
    can cancel it.
    Returns the iterate, value, gradient norm, iteration count, objective
    history and stop reason: "converged" at |g| <= tol, "max_iter" at the
    cap, or "stalled" when a step gains nothing and |g| <= 100 tol.  A
    stall farther out raises MinimizationError.
    """
    xi = np.asarray(xi0, float)
    value, grad, hess = _quartic_parts(xi, pair, G, ell)
    history, iters = [value], 0
    while True:
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= opts.tol:
            reason = "converged"
            break
        if iters >= opts.max_iter:
            reason = "max_iter"
            break
        lam, Q = np.linalg.eigh(hess)
        floor = np.sqrt(np.finfo(float).eps) * np.abs(lam).max()
        d = -Q @ ((Q.T @ grad) / np.maximum(np.abs(lam), floor))
        t, gain = _line_step(_line_quartic(xi, d, pair, G, ell))
        if not gain < 0:
            if grad_norm <= 100.0 * opts.tol:
                reason = "stalled"
                break
            raise MinimizationError(
                "Newton step gains nothing",
                diagnostics={"iteration": iters, "objective": value,
                             "gradient_norm": grad_norm})
        xi = xi + t * d
        value, grad, hess = _quartic_parts(xi, pair, G, ell)
        history.append(value)
        iters += 1
    return xi, value, grad_norm, iters, history, reason


# ---------------------------------------------------------------------------
# bending-only minimization
# ---------------------------------------------------------------------------

def minimize_quadratic(chart, basis, load, candidates, moduli):
    """Exact minimization of the bending functional minus the load term.

    Per rotation candidate, solves the symmetric positive semidefinite
    system on the rigid-complemented basis; the strain block decouples and
    its optimum is zero.
    """
    fields, _, G = iso.rigid_complement_gram(chart, basis, moduli)
    if G is None:
        raise ValueError("basis contains only rigid motions")
    evals, evecs = np.linalg.eigh(G)
    cutoff = 1e-12 * max(evals[-1], 1e-300)
    flagged = bool(evals[0] <= cutoff)
    inv = np.where(evals > cutoff, 1.0 / np.maximum(evals, cutoff), 0.0)

    table = []
    best = None
    for k, Q in enumerate(candidates):
        ell = _load_vector(chart, load, Q, fields)
        xi = evecs @ (0.5 * inv * (evecs.T @ ell))
        value = float(xi @ G @ xi - ell @ xi)
        grad_norm = float(np.linalg.norm(2.0 * G @ xi - ell))
        table.append({"candidate": k, "value": value,
                      "gradient_norm": grad_norm})
        if best is None or value < best[0]:
            best = (value, k, xi, ell, grad_norm)
    value, k, xi, ell, grad_norm = best
    vfield = VectorField3(np.tensordot(xi, fields, axes=1))
    zero_form = FormField2(np.zeros(chart.shape + (2, 2)))
    return MinimizationResult(
        V_star=vfield, B_coeffs=np.zeros(0), B_field=zero_form,
        rotation=np.asarray(candidates[k], float), value=value,
        gradient_norm=grad_norm, iterations=1, table=table,
        objective_history=[0.0, value], flagged=flagged, coefficients=xi)


# ---------------------------------------------------------------------------
# full quartic minimization
# ---------------------------------------------------------------------------

def minimize_J(chart, basis, load, candidates, kappa, moduli,
               dict_degree=4, opts=None):
    """Minimize the full limit functional over displacement and strain.

    The quadratic displacement effect is bilinear in the basis skew
    fields, so its weighted rows C_ij = C_ji are formed once per unordered
    mode pair (_pair_rows).  The strain coefficients solve a linear
    least-squares problem at every displacement; eliminating them projects
    the packed rows once onto the complement of the strain dictionary,
    unpacked into the explicit quartic

        f(xi) = |sum_ij xi_i xi_j P C_ij|^2 + xi.G xi - l.xi

    in the isometry coefficients, and their dictionary coordinates give
    the optimal strain.  f is minimized by Newton's method on
    its closed-form gradient and Hessian with an exact line search
    (_newton).  Runs every rotation candidate
    and the configured number of seeded restarts; the best pair is
    returned with the solver's stop reason.
    """
    if kappa <= 0:
        raise ValueError("minimize_J requires kappa > 0; "
                         "use minimize_quadratic for the bending-only case")
    opts = opts or SolverOptions()
    fields, A, G = iso.rigid_complement_gram(chart, basis, moduli)
    if G is None:
        raise ValueError("basis contains only rigid motions")
    p = len(fields)

    # weighted rows with |rows(F)|^2 = (1/2) integral Q2(F)
    gens = mem._dictionary_generators(chart, dict_degree)
    w, frame = 0.5 * chart.quad_w, chart.frame
    cols, kept_idx = mem._dictionary_columns(
        chart, gens, lambda F: mat.q2_rows(F, moduli, w, frame))
    colsq, colsr = np.linalg.qr(cols, mode="reduced")

    # split the packed pair rows into dictionary coordinates (which give
    # the optimal strain) and the complement (which enters the objective),
    # then unpack the complement into the symmetric (p, p, 3 N) tensor
    packed = _pair_rows(chart, A, kappa, moduli, w, frame)
    packed_dict = packed @ colsq
    packed -= packed_dict @ colsq.T
    iu, ju = np.triu_indices(p)
    pair = np.empty((p, p, packed.shape[1]))
    pair[iu, ju] = pair[ju, iu] = packed

    rng = np.random.default_rng(opts.seed)
    starts = [np.zeros(p)]
    for _ in range(max(opts.restarts - 1, 0)):
        starts.append(0.1 * rng.standard_normal(p))

    table = []
    best = None
    for k, Q in enumerate(candidates):
        ell = _load_vector(chart, load, Q, fields)
        runs = [_newton(pair, G, ell, xi0, opts) for xi0 in starts]
        run = min(runs, key=lambda r: r[1])
        table.append({"candidate": k, "value": run[1], "gradient_norm": run[2],
                      "iterations": run[3], "stop_reason": run[5]})
        if best is None or run[1] < best[1][1]:
            best = (k, run)

    k, (xi, value, grad_norm, iters, history, reason) = best
    weight = np.where(iu == ju, 1.0, 2.0) * xi[iu] * xi[ju]
    beta = np.linalg.solve(colsr, weight @ packed_dict)
    coeffs, _, B_field = mem._dictionary_field(chart, gens, kept_idx, beta)
    vfield = VectorField3(np.tensordot(xi, fields, axes=1))
    return MinimizationResult(
        V_star=vfield, B_coeffs=coeffs, B_field=B_field,
        rotation=np.asarray(candidates[k], float), value=value,
        gradient_norm=grad_norm, iterations=iters, table=table,
        objective_history=history, flagged=reason == "max_iter",
        coefficients=xi, stop_reason=reason)
