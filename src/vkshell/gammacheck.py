"""Thin-limit verification harness.

Builds the explicit recovery deformation family for a displacement V (and
optional second-order displacement w), evaluates the exact 3D elastic
energy of the rescaled deformation over a thickness ladder, and compares
the scaled energies against the limit functional.  The same discrete
derivative fields feed both the 3D assembly and the limit energy, so
discretization bias largely cancels in the comparison.

The gradient at thickness level t is written on the shifted shell frame
g_j = t_j + t h d_j n = sum_i M_ij t_i, M = I + t h S with S the chart's
2x2 shape operator: F = sum_k (a_k + d_k) (x) b_k with the rows
a = (n, g_1, g_2), the increments d = (col - n, P_1, P_2) and the dual
basis b = (n, g^1, g^2), where g^j = sum_k (M^-1)_jk dual_k come from
adj(M) / det M and det M = det(I + t h Pi) is the volume factor.  The
increments are one contraction of five fixed stacks,

    d = sqrt(e(h)) (Y_0 / h + Y_1 + t Y_2 + t h Y_3 + t^2 h Y_4),

which the ansatz holds component-major in one array (stacks).  One
function, _level, returns a, d, adj(M) and det M on a slice of grid rows,
and everything reads it: rescaled_gradient (and so the rotation-field
diagnostics) forms F on b; the energy ladder does not, since W depends
on F only through F^T F.  energy_3d reads the strain Gram D
(2E = F^T F - I on b) and b's dual Gram diag(1, K), which
material.svk_density, the one St. Venant-Kirchhoff definition, turns
into the density, one block of grid rows at a time; the value is
invariant under a left rotation of the deformation.
"""

from dataclasses import dataclass

import numpy as np

from . import functional as fn
from . import geometry as geo
from . import isometry as iso
from . import material as mat
from . import operators as ops
from .geometry import FormField2, VectorField3, as_vector_field

# Offsets in RecoveryAnsatz.stacks of Y_0 .. Y_4, each written
# component-major as (column row, P_1, P_2) x 3 components; the zero
# column rows of Y_3 and Y_4 are not stored.
_STACKS = (0, 9, 18, 27, 33)
# grid nodes per block of rows in energy_3d: the ladder's working set
_BLOCK_NODES = 4096


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
    moduli: object
    limit: float             # total_I(V, B): the two relaxed Q2 integrals
    # (39, N1, N2): Y_0 = (A n; d_i V), Y_1 = (d0 - w_n; d_i w),
    # Y_2 = (d1; d_i(A n)), Y_3 = (d_i(d0 - w_n)), Y_4 = (d_i d1 / 2), with
    # w_n = (n . d_i w) dual_i
    stacks: np.ndarray

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


def thickness_scaling(name, kappa):
    """The thickness scaling e(h) named name: "kappa2h4" is (kappa h^2)^2,
    or h^5 at kappa = 0; "h5" is h^5; "h^p" is h^p for a finite p."""
    if name == "kappa2h4" and kappa > 0:
        return lambda h: (kappa * h * h) ** 2
    if name in ("kappa2h4", "h5"):
        return lambda h: h ** 5
    if name.startswith("h^"):
        try:
            p = float(name[2:])
        except ValueError:
            p = np.nan
        if np.isfinite(p):
            return lambda h: h ** p
    raise ValueError("unknown e_rule %r (expected kappa2h4, h5 or h^p)"
                     % (name,))


def _put(Y, at, x):
    """Write the node arrays x (N1, N2, ...) into Y[at:], component-major."""
    x = x.reshape(x.shape[:2] + (-1,))
    Y[at:at + x.shape[-1]] = np.moveaxis(x, -1, 0)


def build_ansatz(chart, V, w=None, kappa=1.0, moduli=None, e_rule=None):
    """Assemble the recovery family's node data for a smooth displacement.

    The warping vectors are the thin-limit values

        d0 = 2 c(B - (kappa/2)(A^2)_tan) + kappa A^2 n - (kappa/2)(n.A^2 n) n
        d1 = 2 c(sym bending form) - lift(n . (d_i A) n),

    with c the minimizing completion vector of the relaxed tangential
    form.  w is a field, or a callable that returns one from the membrane
    target FormField2 (kappa/2)(A^2)_tan, so that a caller who solves for
    w shares this function's skew extension and (A^2)_tan.  For kappa = 0
    the second-order displacement is dropped.
    """
    if moduli is None:
        moduli = mat.ElasticModuli(1.0, 1.0)
    V = as_vector_field(V)
    if e_rule is None:
        e_rule = thickness_scaling("kappa2h4", kappa)
    A = iso.extend_A(chart, V)
    Avals = A.values
    n = chart.normal
    target = FormField2(0.5 * kappa * fn.a_squared_tan(chart, A).coeff)
    if kappa == 0.0 or w is None:
        w = VectorField3(np.zeros(chart.shape + (3,)))
    else:
        w = as_vector_field(w(target) if callable(w) else w)

    bend_dirs = iso.bending_direction_field(chart, A)   # (d_i A) n
    q1 = mat.q2_relax(geo.frame_form(chart, geo.tangential_form(
        chart, bend_dirs)), moduli, chart.frame)         # bending_form(A)
    omega = -np.einsum("xyc,xyic->xyi", n, bend_dirs)
    d1 = 2.0 * q1.c + geo.tangential_vector_from_covector(
        chart, omega[..., 0], omega[..., 1])
    bending = float(geo.integrate(chart, q1.value) / 24.0)
    del q1, omega      # full-grid inputs are dropped once used

    def partials(f):   # (N1, N2, 2, 3), one field at a time
        return iso._partials(chart, f[None])[0]

    Y = np.empty((39,) + chart.shape)
    y0, y1, y2, y3, y4 = _STACKS
    _put(Y, y0, np.einsum("xycd,xyd->xyc", Avals, n))
    _put(Y, y0 + 3, partials(V.values))
    _put(Y, y2, d1)
    # d_i(A n) = (d_i A) n + A d_i n, consistent with the bending form
    dn = np.stack([chart.dn1, chart.dn2], axis=-2)
    _put(Y, y2 + 3, bend_dirs + dn @ np.swapaxes(Avals, -1, -2))
    del bend_dirs, dn
    _put(Y, y4, 0.5 * partials(d1))

    dw = partials(w.values)
    B = geo.tangential_form(chart, dw)
    _put(Y, y1 + 3, dw)
    wn_vec = geo.lift(chart, dw @ n[..., None])[..., 0, :]  # (n.d_i w) dual_i
    del dw

    arg0 = geo.frame_form(chart, FormField2(B.coeff - target.coeff))
    del target
    q0 = mat.q2_relax(arg0, moduli, chart.frame)
    del arg0
    limit = float(0.5 * geo.integrate(chart, q0.value)) + bending
    # quadratic displacement effect
    A2n = np.einsum("xycd,xyde,xye->xyc", Avals, Avals, n)
    nA2n = np.einsum("xyc,xyc->xy", n, A2n)
    d0 = 2.0 * q0.c + kappa * A2n - 0.5 * kappa * nA2n[..., None] * n
    del q0, A2n, nA2n
    col = d0 - wn_vec
    del wn_vec
    _put(Y, y1, col)
    _put(Y, y3, partials(col))
    return RecoveryAnsatz(
        chart=chart, V=V, w=w, A=A, B=B, d0=d0, d1=d1, kappa=kappa,
        e_rule=e_rule, moduli=moduli, limit=limit, stacks=Y)


def _shift(chart, s, rows=slice(None)):
    """Entries (row-major) of adj(M) and the volume factor det M of
    M = I + s S on the grid rows rows, one (n, N2) array each, or (n, 1)
    on the column that holds S (geometry.u1_column)."""
    S = geo.u1_column(chart.shape_op)[rows]
    m11, m22 = 1.0 + s * S[..., 0, 0], 1.0 + s * S[..., 1, 1]
    m12, m21 = s * S[..., 0, 1], s * S[..., 1, 0]
    return (m22, -m12, -m21, m11), m11 * m22 - m12 * m21


def _level(ansatz, h, t, rows=slice(None)):
    """The gradient's rows at thickness level t on the grid rows rows: the
    shifted frame a = (n, g_1, g_2) and the increments d = (col - n, P_1,
    P_2), each (3, 3, n, N2) component-major so that every contraction
    runs over whole node arrays, then _shift's adj(M) and det M.  On the
    dual basis b = (n, g^1, g^2) the gradient is F = sum_k (a_k + d_k)
    (x) b_k.  d is one matrix product of the stacks with their five
    coefficients."""
    chart = ansatz.chart
    s = t * h
    c = np.sqrt(ansatz.e(h)) * np.array([1.0 / h, 1.0, t, s, t * s])
    eye = np.eye(9)
    C = np.hstack([ck * (eye if k < 3 else eye[:, 3:])
                   for k, ck in enumerate(c)])
    Y = ansatz.stacks[:, rows]
    d = (C @ Y.reshape(len(Y), -1)).reshape((3, 3) + Y.shape[1:])
    a = np.empty_like(d)
    a[0] = np.moveaxis(chart.normal[rows], -1, 0)
    for j, (tj, dnj) in enumerate(((chart.t1, chart.dn1),
                                   (chart.t2, chart.dn2))):
        np.multiply(np.moveaxis(dnj[rows], -1, 0), s, out=a[1 + j])
        a[1 + j] += np.moveaxis(tj[rows], -1, 0)
    return (a, d) + _shift(chart, s, rows)


def _dual_rows(chart, adj, vol, rows=slice(None)):
    """The dual basis b = (n, g^1, g^2) (n, N2, 3, 3) on the grid rows
    rows, with g^j = sum_k (M^-1)_jk dual_k and M^-1 = adj(M) / det M."""
    a11, a12, a21, a22 = (a[..., None] for a in adj)
    d1, d2 = chart.dual[rows, :, 0, :], chart.dual[rows, :, 1, :]
    v = vol[..., None]
    return np.stack([chart.normal[rows], (a11 * d1 + a12 * d2) / v,
                     (a21 * d1 + a22 * d2) / v], axis=-2)


def rescaled_gradient(ansatz, h, t, rotate=None):
    """Exact rescaled deformation gradient of the recovery family at level t."""
    a, d, adj, vol = _level(ansatz, h, t)
    b = _dual_rows(ansatz.chart, adj, vol)
    F = np.moveaxis(a + d, (0, 1), (-1, -2)) @ b     # (a + d)^T b per node
    if rotate is not None:
        F = np.asarray(rotate, float) @ F
    return F


def _gauss_levels(ansatz, h, t_quad):
    """Gauss nodes and weights of the centred unit interval, after checking
    h, t_quad and the chart's tubular neighbourhood (the largest principal
    curvature)."""
    if not (0 < h <= 0.5):
        raise ValueError("thickness must satisfy 0 < h <= 1/2")
    if not (2 <= t_quad <= 8):
        raise ValueError("t_quad must be between 2 and 8")
    k1, k2 = geo.principal_curvatures(ansatz.chart)
    curv = np.maximum(np.abs(k1), np.abs(k2))
    if 0.5 * h * np.max(curv, initial=0.0) >= 0.5:
        raise ValueError("thickness too large for the tubular neighborhood "
                         "of this chart")
    return zip(*ops.gauss_legendre(t_quad))


def _dual_gram(chart, adj, vol, rows=slice(None)):
    """K = adj(M) g^-1 adj(M)^T / det(M)^2, the Gram of the dual vectors
    g^j on the grid rows rows: an (n, N2, 2, 2) view of component-major
    storage, or (n, 1, 2, 2) when adj(M), det M and g^-1 are held on one
    column (geometry.u1_column)."""
    a11, a12, a21, a22 = adj
    G = geo.u1_column(chart.metric_inv)[rows]
    g11, g12, g22 = G[..., 0, 0], G[..., 0, 1], G[..., 1, 1]
    r11, r12 = a11 * g11 + a12 * g12, a11 * g12 + a12 * g22   # adj g^-1
    r21, r22 = a21 * g11 + a22 * g12, a21 * g12 + a22 * g22
    scale = 1.0 / (vol * vol)
    K = np.empty((2, 2) + vol.shape)
    K[0, 0] = (r11 * a11 + r12 * a12) * scale
    K[0, 1] = K[1, 0] = (r11 * a21 + r12 * a22) * scale
    K[1, 1] = (r21 * a21 + r22 * a22) * scale
    return np.moveaxis(K, (0, 1), (-2, -1))


def energy_3d(ansatz, h, t_quad=4):
    """Scaled 3D elastic energy of the recovery deformation at thickness h,
    for the ansatz's own moduli.

    Surface trapezoid quadrature times Gauss-Legendre in the thickness
    variable, with the geometric volume factor det(I + t h Pi).  F is not
    formed: since sum_k a_k (x) b_k = I, the strain 2E = F^T F - I has the
    components D = a d^T + d a^T + d d^T = m d^T + d m^T, m = a + d/2, on
    the dual basis b, free of the cancellation in F^T F - I.
    material.svk_density reads D with the dual Gram K (isotropic moduli)
    or with the dual basis (anisotropic).  Each level is summed over
    blocks of grid rows of about _BLOCK_NODES nodes, so its arrays do
    not grow with the grid.
    """
    n1, n2 = ansatz.chart.shape
    step = max(1, _BLOCK_NODES // n2)
    blocks = [slice(r, r + step) for r in range(0, n1, step)]
    total = 0.0
    for t, wt in _gauss_levels(ansatz, h, t_quad):
        total += wt * sum(_block_energy(ansatz, h, t, rows)
                          for rows in blocks)
    return float(total)


def _block_energy(ansatz, h, t, rows):
    """The surface integral of W det M at level t over the grid rows rows;
    its arrays are freed before the next block is formed."""
    chart, moduli = ansatz.chart, ansatz.moduli
    m, d, adj, vol = _level(ansatz, h, t, rows)
    m += 0.5 * d
    D = np.einsum("ac...,bc...->ab...", m, d)          # m d^T
    del m, d
    D += np.swapaxes(D, 0, 1)      # numpy buffers the overlapping view
    D = np.moveaxis(D, (0, 1), (-2, -1))
    if moduli.isotropic:
        W = mat.svk_density(D, moduli,
                            dual_gram=_dual_gram(chart, adj, vol, rows))
    else:
        W = mat.svk_density(D, moduli, basis=_dual_rows(chart, adj, vol, rows))
    return np.sum(chart.quad_w[rows] * (W * vol))


def convergence_study(ansatz, h_list, t_quad=4):
    """Scaled-energy ladder against the limit functional.

    Rows carry (h, I_h / e_h, |ratio - limit|, successive slope); the
    limit is the discrete limit energy with the ansatz's own strain field,
    ``ansatz.limit``.  The 3D energy is read with the ansatz's own moduli,
    for which its warping vectors are optimal.
    """
    h_list = list(h_list)
    if len(h_list) < 4 or any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError("need at least 4 strictly decreasing thicknesses")
    limit = ansatz.limit
    rows = []
    for h in h_list:
        ih = energy_3d(ansatz, h, t_quad=t_quad)
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


def rotation_field_estimate(ansatz, h, t_quad=4, rotate=None):
    """Nearest-rotation field of the t-averaged gradient with diagnostics.

    Reports the squared-distance energy to rotations over the shell, the
    misfit of the gradient to the per-node rotation, and the quadrature of
    the rotation field's surface gradient.  Values are diagnostics; no
    constants are asserted, and no material enters them.
    """
    chart = ansatz.chart
    levels = [(wt, rescaled_gradient(ansatz, h, t, rotate),
               _shift(chart, t * h)[1])
              for t, wt in _gauss_levels(ansatz, h, t_quad)]
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
