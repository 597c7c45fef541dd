"""Thin-limit verification harness.

Builds the explicit recovery deformation family for a displacement V (and
optional second-order displacement w), evaluates the exact 3D elastic
energy of the rescaled deformation over a thickness ladder, and compares
the scaled energies against the limit functional.  The same discrete
derivative fields feed both the 3D assembly and the limit energy, so
discretization bias largely cancels in the comparison.

The gradient at thickness level t is written on the shifted shell frame
g_j = t_j + t h d_j n = sum_i M_ij t_i, M = I + t h S with S the chart's
2x2 shape operator: F = col (x) n + sum_j (g_j + P_j) (x) g^j, where the
dual vectors g^j = sum_k (M^-1)_jk dual_k come from adj(M) / det M and
det M = det(I + t h Pi) is the volume factor.
"""

from dataclasses import dataclass

import numpy as np

from . import functional as fn
from . import geometry as geo
from . import isometry as iso
from . import material as mat
from . import operators as ops
from .geometry import FormField2, VectorField3, as_vector_field


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
    # node vectors and partial vectors (N1, N2, 2, 3) of the gradient
    An: np.ndarray
    wn_vec: np.ndarray
    dV: np.ndarray
    dw: np.ndarray
    dAn: np.ndarray
    dwn: np.ndarray
    dd0: np.ndarray
    dd1: np.ndarray

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
    dw = iso._partials(chart, w.values[None])[0]
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
    wn_vec = geo.lift(chart, dw @ n[..., None])[..., 0, :]  # (n.d_i w) dual_i
    dV, dwn, dd0, dd1 = iso._partials(chart, np.stack([V.values, wn_vec,
                                                       d0, d1]))
    # d_i(A n) = (d_i A) n + A d_i n, consistent with the bending form
    dAn = bend_dirs + dn @ np.swapaxes(Avals, -1, -2)
    return RecoveryAnsatz(
        chart=chart, V=V, w=w, A=A, B=B, d0=d0, d1=d1, kappa=kappa,
        e_rule=e_rule, An=np.einsum("xycd,xyd->xyc", Avals, n),
        wn_vec=wn_vec, dV=dV, dw=dw, dAn=dAn, dwn=dwn, dd0=dd0, dd1=dd1)


def _shell_level(ansatz, h, t, rotate=None):
    """Rescaled gradient F and volume factor det M at thickness level t;
    P_j are the partials of the deformation besides the shift t h d_j n."""
    chart = ansatz.chart
    s = t * h
    se = np.sqrt(ansatz.e(h))
    M = np.eye(2) + s * chart.shape_op
    vol = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    adj = (M[..., 0, 0] + M[..., 1, 1])[..., None, None] * np.eye(2) - M
    dual = (adj @ chart.dual) / vol[..., None, None]          # g^j
    frame = np.stack([chart.t1 + s * chart.dn1, chart.t2 + s * chart.dn2],
                     axis=-2)                                   # g_j
    n = chart.normal
    col = (n + (se / h) * ansatz.An - se * ansatz.wn_vec
           + se * ansatz.d0 + t * se * ansatz.d1)
    P = ((se / h) * ansatz.dV + se * ansatz.dw + t * se * ansatz.dAn
         - s * se * ansatz.dwn + s * se * ansatz.dd0
         + (t * t / 2) * h * se * ansatz.dd1)
    F = (col[..., :, None] * n[..., None, :]
         + np.swapaxes(frame + P, -1, -2) @ dual)
    if rotate is not None:
        F = np.asarray(rotate, float) @ F
    return F, vol


def rescaled_gradient(ansatz, h, t, rotate=None):
    """Exact rescaled deformation gradient of the recovery family at level t."""
    return _shell_level(ansatz, h, t, rotate)[0]


def _levels(ansatz, h, t_quad, rotate):
    """(Gauss weight, gradient, volume factor) at each thickness level of
    the centred unit interval, after checking h, t_quad and the chart's
    tubular neighbourhood."""
    if not (0 < h <= 0.5):
        raise ValueError("thickness must satisfy 0 < h <= 1/2")
    if not (2 <= t_quad <= 8):
        raise ValueError("t_quad must be between 2 and 8")
    curv = np.linalg.eigvals(ansatz.chart.shape_op).real
    if 0.5 * h * np.max(np.abs(curv), initial=0.0) >= 0.5:
        raise ValueError("thickness too large for the tubular neighborhood "
                         "of this chart")
    for t, wt in zip(*ops.gauss_legendre(t_quad)):
        yield (wt,) + _shell_level(ansatz, h, t, rotate)


def energy_3d(ansatz, h, moduli=None, t_quad=4, rotate=None):
    """Scaled 3D elastic energy of the recovery deformation at thickness h.

    Surface trapezoid quadrature times Gauss-Legendre in the thickness
    variable, with the geometric volume factor det(I + t h Pi).
    """
    if moduli is None:
        moduli = mat.ElasticModuli(1.0, 1.0)
    return float(sum(
        wt * geo.integrate(ansatz.chart, mat.w_density(F, moduli) * vol)
        for wt, F, vol in _levels(ansatz, h, t_quad, rotate)))


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
    constants are asserted; ``moduli`` is not used.
    """
    chart = ansatz.chart
    levels = list(_levels(ansatz, h, t_quad, rotate))
    Favg = sum(wt * F for wt, F, _ in levels)
    U, sig, Vt = np.linalg.svd(Favg)
    W = U @ Vt
    detuv = np.einsum("xyc,xyc->xy", np.cross(W[..., 0, :], W[..., 1, :]),
                      W[..., 2, :])   # det W = +-1: orientation of U Vt
    flip = np.ones_like(sig)
    flip[..., 2] = np.sign(detuv)
    R = np.einsum("xyab,xyb,xybc->xyac", U, flip, Vt)
    reflected = [tuple(idx) for idx in np.argwhere(detuv < 0)]

    energy = 0.0
    misfit = 0.0
    for wt, F, vol in levels:
        sv = np.linalg.svd(F, compute_uv=False)
        dist2 = np.sum((sv - 1.0) ** 2, axis=-1)
        energy += h * wt * geo.integrate(chart, dist2 * vol)
        diff = F - R
        misfit += h * wt * geo.integrate(
            chart, np.einsum("xycd,xycd->xy", diff, diff) * vol)

    gradR = geo.lift(chart, np.stack([chart.d1(R), chart.d2(R)], axis=-3)
                     .reshape(chart.shape + (2, 9)))
    variation = geo.integrate(chart, np.sum(gradR**2, axis=(-2, -1)))
    return RotationFieldReport(R=R, shell_energy=float(energy),
                               misfit=float(misfit),
                               rotation_variation=float(variation),
                               reflected_nodes=reflected)
