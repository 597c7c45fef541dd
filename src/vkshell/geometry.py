"""Discrete charts for parametrized mid-surfaces.

A chart is one frozen value, formed once by build_chart: its node Grid
(u1, u2 and the derivatives along each axis) and, per node, read-only
arrays of position, tangents, unit normal, first and second fundamental
forms, shape operator, the dual frame, the orthonormal frame (rows
frame_e1, frame_e2, normal) in which forms are measured, and quadrature
weights.  On the built-in charts the forms and the shape operator depend
on u1 alone and are held on grid column 0, broadcast along u2
(u1_column).  The plate uses its flat formulas; the surfaces of
revolution (cylinder, revolution, sphere patch) share one set of analytic
derivatives of (r(u1) cos u2, r(u1) sin u2, z(u1)), written from the
meridian (r, z) and its first two derivatives sampled once on u1; a
cylinder or revolution keeps its sampled profile g, g', g''.  A custom
chart gives positions only: its tangents and normal derivatives are
differences of the samples.

Tangential derivatives of nodal fields use 2nd-order finite differences
along non-periodic axes.  Along a closed (periodic) axis the default is
FFT spectral differentiation, which annihilates bandlimited inextensional
modes exactly; central differences with wraparound are available via
``theta_scheme="central"``.
"""

from dataclasses import dataclass, field

import numpy as np

from . import operators as ops


class ChartError(ValueError):
    """Invalid or degenerate surface parametrization."""


FAMILIES = ("plate", "cylinder", "revolution", "sphere_patch", "custom")


@dataclass
class VectorField3:
    """Per-node 3-vector field (displacement, load, ...)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3 or self.values.shape[-1] != 3:
            raise ValueError("VectorField3 expects shape (N1, N2, 3)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("VectorField3 contains non-finite values")

    @property
    def shape(self):
        return self.values.shape[:2]


@dataclass
class FormField2:
    """Symmetric 2x2 tensor field in chart coordinates, b_ij = t_i . B t_j,
    or a stack of such fields along one leading mode axis."""

    coeff: np.ndarray

    def __post_init__(self):
        self.coeff = np.asarray(self.coeff, dtype=float)
        if self.coeff.ndim not in (4, 5) or self.coeff.shape[-2:] != (2, 2):
            raise ValueError("FormField2 expects shape (N1, N2, 2, 2) "
                             "or (m, N1, N2, 2, 2)")
        # store exactly symmetric
        self.coeff = 0.5 * (self.coeff + np.swapaxes(self.coeff, -1, -2))

    @property
    def shape(self):
        """(N1, N2), or (m, N1, N2) for a stack."""
        return self.coeff.shape[:-2]


def as_vector_field(obj):
    return obj if isinstance(obj, VectorField3) else VectorField3(np.asarray(obj, float))


def as_form_field(obj):
    return obj if isinstance(obj, FormField2) else FormField2(np.asarray(obj, float))


@dataclass(frozen=True, kw_only=True)
class Grid:
    """The node grid of a chart and its derivatives along each axis: u1
    (N1,) and u2 (N2,) on domain with spacings du, u2 closed when
    periodic2."""

    domain: tuple
    shape: tuple
    periodic2: bool
    u1: np.ndarray
    u2: np.ndarray
    du: tuple
    theta_scheme: str = "spectral"

    def d1(self, f):
        return ops.fd1_apply(f, self.du[0], axis=0)

    def d2(self, f):
        if not self.periodic2:
            return ops.fd1_apply(f, self.du[1], axis=1)
        if self.theta_scheme == "spectral":
            length = self.domain[1][1] - self.domain[1][0]
            return ops.spectral_apply(f, length, axis=1)
        return ops.fd1_periodic_apply(f, self.du[1], axis=1)

    @property
    def n_nodes(self):
        return self.shape[0] * self.shape[1]


@dataclass(frozen=True, kw_only=True)
class SurfaceChart(Grid):
    """Discretized parametrized surface: its grid and read-only geometric
    data, formed once by build_chart."""

    family: str
    pos: np.ndarray          # (N1,N2,3)
    t1: np.ndarray           # d r / d u1
    t2: np.ndarray           # d r / d u2
    normal: np.ndarray
    metric: np.ndarray       # (N1,N2,2,2)
    metric_inv: np.ndarray
    sqrt_g: np.ndarray
    second_form: np.ndarray  # h_ij = (d_i n) . t_j
    shape_op: np.ndarray     # S^i_j = g^{ik} h_kj
    dn1: np.ndarray          # d n / d u1
    dn2: np.ndarray
    dual: np.ndarray         # (N1,N2,2,3) dual_i = g^{ij} t_j
    frame: np.ndarray        # (N1,N2,3,3) rows frame_e1, frame_e2, normal
    frame_e1: np.ndarray     # e_a = sum_k t_k G^{-1/2}_ka
    frame_e2: np.ndarray
    ginv_half: np.ndarray    # G^{-1/2}, symmetric
    quad_w: np.ndarray       # (N1,N2) trapezoid x sqrt(g)
    profile: dict = field(default_factory=dict)   # g, gp, gpp (N1,) samples


# ---------------------------------------------------------------------------
# chart construction
# ---------------------------------------------------------------------------

def _grid(domain, shape, periodic2, theta_scheme):
    for a, b in domain:
        if not -np.inf < a < b < np.inf:
            raise ChartError("domain interval (%g, %g) must be finite and "
                             "increasing" % (a, b))
    (a1, b1), (a2, b2) = domain
    n1, n2 = shape
    u1 = np.linspace(a1, b1, n1)
    if periodic2:
        u2 = a2 + (b2 - a2) * np.arange(n2) / n2
        du2 = (b2 - a2) / n2
    else:
        u2 = np.linspace(a2, b2, n2)
        du2 = (b2 - a2) / (n2 - 1)
    du1 = (b1 - a1) / (n1 - 1)
    for u in (u1, u2):
        u.setflags(write=False)
    return Grid(domain=domain, shape=shape, periodic2=periodic2, u1=u1,
                u2=u2, du=(du1, du2), theta_scheme=theta_scheme)


def _revolution(U2, r, r1, z, z1):
    """Position and d1, d2 of (r cos u2, r sin u2, z) from meridian values
    r, z and their u1-derivatives r1, z1, each (N1, 1)."""
    c, s = np.cos(U2), np.sin(U2)
    z, z1 = (np.broadcast_to(v, U2.shape) for v in (z, z1))
    return (np.stack([r * c, r * s, z], axis=-1),
            np.stack([r1 * c, r1 * s, z1], axis=-1),
            np.stack([-r * s, r * c, np.zeros_like(U2)], axis=-1))


def _revolution_d2(U2, r, r1, r2, z2):
    """d11, d12, d22 of (r cos u2, r sin u2, z) from meridian values r and
    the u1-derivatives r1, r2 and z2."""
    c, s = np.cos(U2), np.sin(U2)
    zero = np.zeros_like(U2)
    return (np.stack([r2 * c, r2 * s, z2], axis=-1),
            np.stack([-r1 * s, r1 * c, zero], axis=-1),
            np.stack([-r * c, -r * s, zero], axis=-1))


def build_chart(family, params=None, grid=(32, 32)):
    """Build a SurfaceChart for one of the supported families.

    The plate and the surfaces of revolution (cylinder, revolution,
    sphere_patch) take their tangents and second form from analytic
    derivatives, with the meridian sampled once on u1; a custom chart
    takes both from its sampled positions.  Non-finite samples, a profile
    that is not positive at a node and a degenerate node raise ChartError.

    Parameters
    ----------
    family : str
        One of "plate", "cylinder", "revolution", "sphere_patch", "custom".
    params : dict
        Family parameters.  plate: bounds.  cylinder: radius, height.
        revolution: profile (callable or poly coefficients), s_range.
        sphere_patch: radius, polar_margin.  custom: position (callable or
        (N1,N2,3) array), periodic2, domain.
    grid : (int, int)
        Node counts per axis; at least 8x8.
    """
    params = dict(params or {})
    n1, n2 = grid
    if n1 < 8 or n2 < 8:
        raise ChartError("grid must be at least 8x8, got %dx%d" % (n1, n2))
    family = family.lower().replace("-", "_")
    if family not in FAMILIES:
        raise ChartError("unknown family %r" % (family,))
    theta_scheme = params.pop("theta_scheme", "spectral")
    if theta_scheme not in ("spectral", "central"):
        raise ChartError("theta_scheme must be 'spectral' or 'central'")

    periodic2 = True
    if family == "plate":
        (a1, b1), (a2, b2) = params.get("bounds", ((0.0, 1.0), (0.0, 1.0)))
        domain = ((a1, b1), (a2, b2))
        periodic2 = False
    elif family in ("cylinder", "revolution"):
        if family == "cylinder":   # the constant profile g = radius
            radius = float(params.get("radius", 1.0))
            height = float(params.get("height", 1.0))
            if not (0 < radius < np.inf and 0 < height < np.inf):
                raise ChartError("cylinder needs finite radius > 0 and "
                                 "height > 0")
            prof, s_range = (radius,), (0.0, height)
        else:
            prof, s_range = params.get("profile"), (0.0, 1.0)
            if prof is None:
                raise ChartError("revolution needs a 'profile'")
        if callable(prof):
            g = prof
            gp = params.get("profile_d1")
            gpp = params.get("profile_d2")
            if gp is None or gpp is None:
                raise ChartError("callable profile needs profile_d1 and profile_d2")
        else:
            g = np.polynomial.Polynomial(np.asarray(prof, dtype=float))
            gp, gpp = g.deriv(1), g.deriv(2)
        s0, s1 = params.get("s_range", s_range)
        domain = ((s0, s1), (0.0, 2.0 * np.pi))
        meridian = lambda s: (g(s), gp(s), gpp(s), s, np.ones_like(s),
                              np.zeros_like(s))
    elif family == "sphere_patch":
        radius = float(params.get("radius", 1.0))
        if not 0 < radius < np.inf:
            raise ChartError("sphere_patch needs finite radius > 0")
        margin = float(params.get("polar_margin", 1e-3))
        phi0, phi1 = params.get("polar_range", (margin, np.pi - margin))
        if not (0 < phi0 < phi1 < np.pi):
            raise ChartError("polar range must lie strictly inside (0, pi)")
        domain = ((phi0, phi1), (0.0, 2.0 * np.pi))

        def meridian(phi):   # the unit sphere's, scaled by the radius below
            r, z = np.sin(phi), np.cos(phi)
            return r, z, -r, z, -r, -z
    else:  # custom
        position = params.get("position")
        if position is None:
            raise ChartError("custom chart needs 'position'")
        domain = params.get("domain", ((0.0, 1.0), (0.0, 1.0)))
        periodic2 = bool(params.get("periodic2", False))

    grid = _grid(domain, (n1, n2), periodic2, theta_scheme)
    u1 = grid.u1
    U1, U2 = np.meshgrid(u1, grid.u2, indexing="ij")
    # the metric, second form and shape operator of a built-in chart depend
    # on u1 alone: they are formed on grid column 0 (cols) and stored as
    # read-only views broadcast along u2; a custom chart's column is the
    # whole grid
    cols = slice(None) if family == "custom" else slice(0, 1)

    profile = {}
    if family in ("cylinder", "revolution", "sphere_patch"):
        # the meridian (r, r', r'', z, z', z'') sampled once on u1; a
        # cylinder's or revolution's r, r', r'' is its profile g, g', g''
        m = [np.broadcast_to(np.asarray(v, dtype=float), u1.shape)
             for v in meridian(u1)]
        if not np.isfinite(m).all():
            raise ChartError("revolution profile must be finite at every node")
        if np.any(m[0] <= 0):
            raise ChartError("revolution profile must be positive at every "
                             "node")
        if family != "sphere_patch":
            profile = dict(zip(("g", "gp", "gpp"), m))
        r, r1, r2, z, z1, z2 = (v[:, None] for v in m)

    if family == "plate":
        zero, one = np.zeros_like(U1), np.ones_like(U1)
        pos, t1, t2 = (np.stack(v, axis=-1) for v in (
            (U1, U2, zero), (one, zero, zero), (zero, one, zero)))
        d11 = d12 = d22 = np.zeros((n1, 1, 3))
    elif family != "custom":
        pos, t1, t2 = _revolution(U2, r, r1, z, z1)
        d11, d12, d22 = _revolution_d2(U2[:, cols], r, r1, r2, z2)
        if family == "sphere_patch":
            pos, t1, t2, d11, d12, d22 = (radius * v for v in (
                pos, t1, t2, d11, d12, d22))
    else:   # tangents: differences of the samples
        pos = np.asarray(position(U1, U2) if callable(position)
                         else position, dtype=float)
        if pos.shape != (n1, n2, 3) or not np.all(np.isfinite(pos)):
            raise ChartError("custom positions must be finite, of shape "
                             "(N1,N2,3)")
        t1, t2 = grid.d1(pos), grid.d2(pos)

    cross = np.cross(t1, t2)
    area2 = np.linalg.norm(cross, axis=-1)
    bad = area2 < 1e-10
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ChartError(
            "degenerate parametrization at node (%d, %d), u=(%g, %g): |t1 x t2| = %.3e"
            % (i, j, u1[i], grid.u2[j], area2[i, j])
        )
    normal = cross / area2[..., None]

    g11 = np.einsum("xyc,xyc->xy", t1, t1)
    g12 = np.einsum("xyc,xyc->xy", t1, t2)
    g22 = np.einsum("xyc,xyc->xy", t2, t2)
    det = g11 * g22 - g12 * g12
    sqrt_g = np.sqrt(det)
    c11, c12, c22, cdet = (g[:, cols] for g in (g11, g12, g22, det))
    metric = np.stack(
        [np.stack([c11, c12], axis=-1), np.stack([c12, c22], axis=-1)], axis=-2
    )
    inv = np.empty_like(metric)
    inv[..., 0, 0] = c22 / cdet
    inv[..., 1, 1] = c11 / cdet
    inv[..., 0, 1] = inv[..., 1, 0] = -c12 / cdet

    # second fundamental form h_ij = (d_i n) . t_j = -n . d_ij r
    # (a custom chart's from the differenced normal)
    if family != "custom":
        n = normal[:, cols]
        h11 = -np.einsum("xyc,xyc->xy", n, d11)
        h12 = -np.einsum("xyc,xyc->xy", n, d12)
        h22 = -np.einsum("xyc,xyc->xy", n, d22)
    else:
        dn1 = grid.d1(normal)
        dn2 = grid.d2(normal)
        h11 = np.einsum("xyc,xyc->xy", dn1, t1)
        h12 = 0.5 * (np.einsum("xyc,xyc->xy", dn1, t2)
                     + np.einsum("xyc,xyc->xy", dn2, t1))
        h22 = np.einsum("xyc,xyc->xy", dn2, t2)
    second = np.stack(
        [np.stack([h11, h12], axis=-1), np.stack([h12, h22], axis=-1)], axis=-2
    )
    S = np.einsum("xyik,xykj->xyij", inv, second)

    # symmetric inverse square root of the 2x2 metric
    tr = g11 + g22
    s = np.sqrt(det)
    tau = np.sqrt(tr + 2.0 * s)  # with G^(1/2) = (G + s I)/tau
    ginv_half = np.empty((n1, n2, 2, 2))
    ginv_half[..., 0, 0] = (g22 + s) / (s * tau)
    ginv_half[..., 1, 1] = (g11 + s) / (s * tau)
    ginv_half[..., 0, 1] = ginv_half[..., 1, 0] = -g12 / (s * tau)
    # the polar frame in which frame_form expresses forms, stacked over the
    # normal: rows frame_e1, frame_e2, normal
    e = np.swapaxes(np.stack([t1, t2], axis=2), -1, -2) @ ginv_half
    frame = np.concatenate([np.swapaxes(e, -1, -2), normal[..., None, :]],
                           axis=-2)

    w1 = ops.trapezoid_weights(n1, grid.du[0], periodic=False)
    w2 = ops.trapezoid_weights(n2, grid.du[1], periodic=periodic2)
    fields = dict(
        pos=pos, t1=t1, t2=t2, normal=normal, sqrt_g=sqrt_g,
        metric=metric, metric_inv=inv, second_form=second, shape_op=S,
        # dual_i = g^ik t_k and d_j n = S^i_j t_i (tangency of the normal's
        # derivative): products of the column's coefficients with t1 and t2
        dual=np.stack([inv[..., i, 0, None] * t1 + inv[..., i, 1, None] * t2
                       for i in (0, 1)], axis=2),
        dn1=S[..., 0, 0, None] * t1 + S[..., 1, 0, None] * t2,
        dn2=S[..., 0, 1, None] * t1 + S[..., 1, 1, None] * t2,
        ginv_half=ginv_half, frame=frame, frame_e1=frame[..., 0, :],
        frame_e2=frame[..., 1, :], quad_w=np.outer(w1, w2) * sqrt_g)
    for name in ("metric", "metric_inv", "second_form", "shape_op"):
        fields[name] = np.broadcast_to(fields[name], (n1, n2, 2, 2))
    for arr in fields.values():
        arr.setflags(write=False)
    return SurfaceChart(**vars(grid), family=family, profile=profile,
                        **fields)


def u1_column(field):
    """A chart field on the grid columns that hold it: column 0 (N1, 1,
    ...) of a field broadcast along u2, such as a built-in chart's metric,
    metric_inv, second_form and shape_op, and any other field whole."""
    return field[:, :1] if field.strides[1] == 0 else field


def principal_curvatures(chart):
    """Principal curvatures k1 <= k2, the eigenvalues of the shape operator
    S = g^-1 h on the grid columns that hold it (u1_column): (N1, 1) each
    on a built-in chart, (N1, N2) on a custom one.  S is self-adjoint in
    g, so they are the real numbers tr S/2 -+ sqrt(((S11 - S22)/2)^2 +
    S12 S21), with the discriminant written so that it does not cancel at
    umbilics and clipped at 0 against rounding."""
    S = u1_column(chart.shape_op)
    half_tr = 0.5 * (S[..., 0, 0] + S[..., 1, 1])
    half_gap = 0.5 * (S[..., 0, 0] - S[..., 1, 1])
    root = np.sqrt(np.maximum(half_gap * half_gap
                              + S[..., 0, 1] * S[..., 1, 0], 0.0))
    return half_tr - root, half_tr + root


# ---------------------------------------------------------------------------
# rotation symmetry
# ---------------------------------------------------------------------------

# e_z, e_+ = (e_x - i e_y)/sqrt(2) and e_- = (e_x + i e_y)/sqrt(2): a rotation
# by a about e_z multiplies them by 1, e^{ia} and e^{-ia}, so on a
# rotation-invariant chart the field e^{i (k + s) u2} SPIN_UNITS[q],
# s = SPIN_SHIFTS[q], has character k: its strain rows at grid column j are
# e^{2 pi i k j / N2} times those at column 0.
SPIN_UNITS = np.array([[0, 0, np.sqrt(2)], [1, -1j, 0], [1, 1j, 0]]) / np.sqrt(2)
SPIN_SHIFTS = np.array([0, 1, -1])


def rotation_invariant(chart):
    """Whether shifting the closed axis by one node and rotating about e_z
    by 2 pi / N2 maps the chart's nodes onto themselves."""
    a = 2 * np.pi / chart.shape[1]
    rot = np.array([[np.cos(a), -np.sin(a), 0], [np.sin(a), np.cos(a), 0],
                    [0, 0, 1]])
    return chart.periodic2 and np.allclose(
        np.roll(chart.pos, -1, axis=1), chart.pos @ rot.T, rtol=0.0,
        atol=1e-12 * np.max(np.abs(chart.pos)))


# ---------------------------------------------------------------------------
# operations on fields
# ---------------------------------------------------------------------------

def _check_grid(chart, grid):
    if tuple(grid) != chart.shape:
        raise ValueError("field grid %s does not match chart grid %s"
                         % (tuple(grid), chart.shape))


def surface_gradient(chart, fld):
    """Per-node 3x2 Jacobian of a vector field w.r.t. chart coordinates."""
    fld = as_vector_field(fld)
    _check_grid(chart, fld.shape)
    return np.stack([chart.d1(fld.values), chart.d2(fld.values)], axis=-1)


def sym_grad(chart, fld):
    """Chart coefficients of the symmetrized tangential gradient.

    b_ij = (d_i V . t_j + d_j V . t_i) / 2.
    """
    return tangential_form(chart, np.swapaxes(surface_gradient(chart, fld),
                                              -1, -2))


def lift(chart, P, cols=slice(None)):
    """The 3x3 node matrices sum_i P_i (x) dual_i of partial vectors.

    P (..., N1, n, 2, k) holds P_i = d_i f of a k-vector field f, or any
    per-node pair of k-vectors, on the grid columns cols; the result
    (..., N1, n, k, 3) maps t_i to P_i and the normal to zero.  For k = 1
    its one row is the tangent vector sum_i P_i dual_i (index raising).
    """
    return np.swapaxes(P, -1, -2) @ chart.dual[:, cols]


def tangential_form(chart, P):
    """The form sym(P_i . t_j) of partial vectors P (..., N1, N2, 2, 3)."""
    return FormField2(P @ np.stack([chart.t1, chart.t2], axis=-1))


def integrate(chart, scalar):
    """Surface integral of a nodal scalar field (trapezoid x sqrt(g)); a
    stack (m, N1, N2) gives one integral per field."""
    scalar = np.asarray(scalar, dtype=float)
    _check_grid(chart, scalar.shape[-2:])
    total = np.sum(chart.quad_w * scalar, axis=(-2, -1))
    return float(total) if scalar.ndim == 2 else total


def frame_form(chart, form):
    """Convert a chart-coefficient form to the orthonormal tangent frame.

    F = G^{-1/2} b G^{-1/2}; trace and Frobenius norm of F are invariant
    under reparametrization of the same surface.  A stack of forms gives a
    stack of frames.
    """
    form = as_form_field(form)
    _check_grid(chart, form.shape[-2:])
    return chart.ginv_half @ form.coeff @ chart.ginv_half


def strain_rows(chart, P, cols=slice(None)):
    """Rows sqrt(w) (F11, F22, sqrt(2) F12), F = G^{-1/2} sym(P_i . t_j)
    G^{-1/2}, of fields with partials P_i = d_i V (m, N1, n, 2, 3) on the
    grid columns cols: squared row norms are the strain form.  Complex P
    gives the rows of complex fields."""
    b = P @ np.stack([chart.t1, chart.t2], axis=-1)[:, cols]
    gh = chart.ginv_half[:, cols]
    return frame_rows(gh @ (0.5 * (b + np.swapaxes(b, -1, -2))) @ gh,
                      chart.quad_w[:, cols])


def frame_rows(F, weights):
    """Weighted rows sqrt(w) (F11, F22, sqrt(2) F12) of frame fields.

    For real or complex frames (..., N1, N2, 2, 2) and node weights (N1, N2)
    the squared norm of each row is sum_nodes w |F|^2 (Frobenius).
    """
    F = np.asarray(F)
    F = F.reshape(F.shape[:-4] + (F.shape[-4] * F.shape[-3], 2, 2))
    sw = np.sqrt(np.ravel(weights))
    return np.concatenate([sw * F[..., 0, 0], sw * F[..., 1, 1],
                           np.sqrt(2.0) * sw * F[..., 0, 1]], axis=-1)


def tangential_vector_from_covector(chart, w1, w2):
    """3-vector v tangent to S with v . t_i = w_i (index raising); covector
    stacks (m, N1, N2) give a stack of vectors."""
    return lift(chart, np.stack([w1, w2], axis=-1)[..., None])[..., 0, :]
