"""Thin-limit verification harness.

Builds the explicit recovery deformation family for a displacement V (and
optional second-order displacement w), evaluates the exact 3D elastic
energy of the rescaled deformation over a thickness ladder, and compares
the scaled energies against the limit functional.  The same discrete
derivative fields feed both the 3D assembly and the limit energy, so
discretization bias largely cancels in the comparison.
"""

from dataclasses import dataclass

import numpy as np

from . import functional as fn
from . import geometry as geo
from . import isometry as iso
from . import material as mat
from . import operators as ops
from .geometry import FormField2, VectorField3, as_vector_field

H0 = 1.0


@dataclass
class RecoveryAnsatz:
    chart: object
    V: VectorField3
    w: VectorField3
    A: iso.SkewField
    B: FormField2
    d0: np.ndarray
    d1: np.ndarray
    kappa: float
    e_rule: object
    # node matrices and vectors of the gradient assembly
    An: np.ndarray
    grad_V: np.ndarray
    grad_w: np.ndarray
    grad_An: np.ndarray
    wn_vec: np.ndarray
    grad_wn: np.ndarray
    grad_d0: np.ndarray
    grad_d1: np.ndarray
    shape_mat: np.ndarray

    def e(self, h):
        return float(self.e_rule(h))


@dataclass
class ConvergenceTable:
    rows: list
    limit: float
    energy_slope: float

    def errors(self):
        return np.array([r["error"] for r in self.rows])


@dataclass
class RotationFieldReport:
    R: np.ndarray
    shell_energy: float       # integral of squared distance to rotations
    misfit: float             # squared L2 distance of the gradient to R
    rotation_variation: float  # quadrature of |grad R|^2
    reflected_nodes: list


def _partials(chart, values):
    """Partial vectors (N1, N2, 2, 3) of a nodal vector field."""
    return np.stack([chart.d1(values), chart.d2(values)], axis=-2)


def build_ansatz(chart, V, w=None, kappa=1.0, moduli=None, e_rule=None):
    """Assemble the recovery family's node data for a smooth displacement.

    The warping vectors are the thin-limit values

        d0 = 2 c(B - (kappa/2)(A^2)_tan) + kappa A^2 n - (kappa/2)(n.A^2 n) n
        d1 = 2 c(sym bending form) - lift(n . (d_i A) n),

    with c the minimizing completion vector of the relaxed tangential
    form.  For kappa = 0 the second-order displacement is dropped.
    """
    if moduli is None:
        moduli = mat.ElasticModuli(1.0, 1.0)
    V = as_vector_field(V)
    if kappa == 0.0 or w is None:
        w = VectorField3(np.zeros(chart.shape + (3,)))
    else:
        w = as_vector_field(w)
    if e_rule is None:
        if kappa > 0:
            e_rule = lambda h: (kappa * h * h) ** 2
        else:
            e_rule = lambda h: h ** 5

    A = iso.extend_A(chart, V)
    Avals = A.values
    n = chart.normal
    dw = _partials(chart, w.values)
    B = geo.tangential_form(chart, dw)

    # quadratic displacement effect
    a2 = fn.a_squared_tan(chart, A)
    A2n = np.einsum("xycd,xyde,xye->xyc", Avals, Avals, n)
    nA2n = np.einsum("xyc,xyc->xy", n, A2n)

    arg0 = FormField2(B.coeff - 0.5 * kappa * a2.coeff)
    c0 = mat.q2_relax(geo.frame_form(chart, arg0), moduli, n=n).c
    d0 = 2.0 * c0 + kappa * A2n - 0.5 * kappa * nA2n[..., None] * n

    bend_dirs = iso.bending_direction_field(chart, A)   # (d_i A) n
    bform = geo.tangential_form(chart, bend_dirs)        # bending_form(A)
    c1 = mat.q2_relax(geo.frame_form(chart, bform), moduli, n=n).c
    omega = -np.einsum("xyc,xyic->xyi", n, bend_dirs)
    d1 = 2.0 * c1 + geo.tangential_vector_from_covector(
        chart, omega[..., 0], omega[..., 1])

    dn = np.stack([chart.dn1, chart.dn2], axis=-2)
    grad_w = geo.lift(chart, dw)
    wn_vec = (n[..., None, :] @ grad_w)[..., 0, :]   # sum_i (n.d_i w) dual_i
    # d_i(A n) = (d_i A) n + A d_i n, consistent with the bending form
    dAn = bend_dirs + dn @ np.swapaxes(Avals, -1, -2)
    return RecoveryAnsatz(
        chart=chart, V=V, w=w, A=A, B=B, d0=d0, d1=d1, kappa=kappa,
        e_rule=e_rule, An=np.einsum("xycd,xyd->xyc", Avals, n),
        grad_V=geo.lift(chart, _partials(chart, V.values)), grad_w=grad_w,
        grad_An=geo.lift(chart, dAn), wn_vec=wn_vec,
        grad_wn=geo.lift(chart, _partials(chart, wn_vec)),
        grad_d0=geo.lift(chart, _partials(chart, d0)),
        grad_d1=geo.lift(chart, _partials(chart, d1)),
        shape_mat=geo.lift(chart, dn))


def _max_curvature(chart):
    eigs = np.linalg.eigvals(chart.shape_op.reshape(-1, 2, 2))
    return float(np.max(np.abs(eigs.real))) if eigs.size else 0.0


def rescaled_gradient(ansatz, h, t, rotate=None):
    """Exact rescaled deformation gradient of the recovery family at level t."""
    chart = ansatz.chart
    n = chart.normal
    se = np.sqrt(ansatz.e(h))
    eye = np.eye(3)

    col = (n + (se / h) * ansatz.An - se * ansatz.wn_vec
           + se * ansatz.d0 + (t / H0) * se * ansatz.d1)
    bracket = (eye
               + (se / h) * ansatz.grad_V
               + se * ansatz.grad_w
               + (t * h / H0) * ansatz.shape_mat
               + (t / H0) * se * ansatz.grad_An
               - (t * h / H0) * se * ansatz.grad_wn
               + (t * h / H0) * se * ansatz.grad_d0
               + (t * t / (2 * H0 * H0)) * h * se * ansatz.grad_d1)
    geom = eye + (t * h / H0) * ansatz.shape_mat
    ptan = eye - np.einsum("xyc,xyd->xycd", n, n)
    F = (np.einsum("xyc,xyd->xycd", col, n)
         + np.einsum("xyce,xyef,xyfd->xycd", bracket, np.linalg.inv(geom), ptan))
    if rotate is not None:
        F = np.einsum("ce,xyed->xycd", np.asarray(rotate, float), F)
    return F


def energy_3d(ansatz, h, moduli=None, t_quad=4, rotate=None):
    """Scaled 3D elastic energy of the recovery deformation at thickness h.

    Surface trapezoid quadrature times Gauss-Legendre in the thickness
    variable, with the geometric volume factor det(I + t h Pi).
    """
    if moduli is None:
        moduli = mat.ElasticModuli(1.0, 1.0)
    if not (0 < h <= H0 / 2):
        raise ValueError("thickness must satisfy 0 < h <= h0/2")
    if not (2 <= t_quad <= 8):
        raise ValueError("t_quad must be between 2 and 8")
    chart = ansatz.chart
    if 0.5 * h * _max_curvature(chart) >= 0.5:
        raise ValueError("thickness too large for the tubular neighborhood "
                         "of this chart")
    ts, tw = ops.gauss_legendre(t_quad, -H0 / 2, H0 / 2)
    total = 0.0
    for t, wt in zip(ts, tw):
        F = rescaled_gradient(ansatz, h, t, rotate=rotate)
        geom = np.eye(3) + (t * h / H0) * ansatz.shape_mat
        detf = np.linalg.det(geom)
        total += wt * geo.integrate(chart, mat.w_density(F, moduli) * detf)
    return float(total / H0)


def convergence_study(ansatz, h_list, moduli=None, t_quad=4):
    """Scaled-energy ladder against the limit functional.

    Rows carry (h, I_h / e_h, |ratio - limit|, successive slope); the
    limit is the discrete limit energy with the ansatz's own strain field.
    """
    if moduli is None:
        moduli = mat.ElasticModuli(1.0, 1.0)
    h_list = list(h_list)
    if len(h_list) < 4 or any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError("need at least 4 strictly decreasing thicknesses")
    chart = ansatz.chart
    limit = fn.total_I(chart, ansatz.V, ansatz.B, ansatz.kappa, moduli).total
    rows = []
    for h in h_list:
        ih = energy_3d(ansatz, h, moduli, t_quad=t_quad)
        ratio = ih / ansatz.e(h)
        rows.append({"h": h, "energy": ih, "ratio": ratio,
                     "error": abs(ratio - limit), "slope": np.nan})
    for i in range(1, len(rows)):
        e0, e1 = rows[i - 1]["error"], rows[i]["error"]
        h0, h1 = rows[i - 1]["h"], rows[i]["h"]
        if e0 > 0 and e1 > 0:
            rows[i]["slope"] = float(np.log(e0 / e1) / np.log(h0 / h1))
    energies = np.array([r["energy"] for r in rows])
    hs = np.array(h_list)
    if np.all(energies > 0):
        energy_slope = float(np.polyfit(np.log(hs), np.log(energies), 1)[0])
    else:
        energy_slope = np.nan
    return ConvergenceTable(rows=rows, limit=limit, energy_slope=energy_slope)


def rotation_field_estimate(ansatz, h, moduli=None, t_quad=4, rotate=None):
    """Nearest-rotation field of the t-averaged gradient with diagnostics.

    Reports the squared-distance energy to rotations over the shell, the
    misfit of the gradient to the per-node rotation, and the quadrature of
    the rotation field's surface gradient.  Values are diagnostics; no
    constants are asserted.
    """
    if moduli is None:
        moduli = mat.ElasticModuli(1.0, 1.0)
    chart = ansatz.chart
    ts, tw = ops.gauss_legendre(t_quad, -H0 / 2, H0 / 2)
    Fs, dets = [], []
    Favg = 0.0
    for t, wt in zip(ts, tw):
        F = rescaled_gradient(ansatz, h, t, rotate=rotate)
        Fs.append(F)
        geom = np.eye(3) + (t * h / H0) * ansatz.shape_mat
        dets.append(np.linalg.det(geom))
        Favg = Favg + wt * F
    U, sig, Vt = np.linalg.svd(Favg)
    detuv = np.linalg.det(np.einsum("xyab,xybc->xyac", U, Vt))
    flip = np.ones_like(sig)
    flip[..., 2] = np.sign(detuv)
    R = np.einsum("xyab,xyb,xybc->xyac", U, flip, Vt)
    reflected = [tuple(idx) for idx in np.argwhere(detuv < 0)]

    energy = 0.0
    misfit = 0.0
    for (t, wt), F, detf in zip(zip(ts, tw), Fs, dets):
        sv = np.linalg.svd(F, compute_uv=False)
        dist2 = np.sum((sv - 1.0) ** 2, axis=-1)
        energy += h * wt * geo.integrate(chart, dist2 * detf)
        diff = F - R
        misfit += h * wt * geo.integrate(
            chart, np.einsum("xycd,xycd->xy", diff, diff) * detf)

    gradR = geo.lift(chart, np.stack([chart.d1(R), chart.d2(R)], axis=-3)
                     .reshape(chart.shape + (2, 9)))
    variation = geo.integrate(chart, np.sum(gradR**2, axis=(-2, -1)))
    return RotationFieldReport(R=R, shell_energy=float(energy),
                               misfit=float(misfit),
                               rotation_variation=float(variation),
                               reflected_nodes=reflected)
