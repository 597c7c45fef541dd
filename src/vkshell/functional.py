"""Limit shell energies, dead-load functionals and the optimal-rotation set.

The total energy at the thin limit combines a stretching term, quadratic
in the finite strain corrected by the quadratic displacement effect, and
a bending term, quadratic in the first-order change of the shape
operator; a dead load contributes a linear term through the best-aligned
rotation of the undeformed surface.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import isometry as iso
from . import material as mat
from .geometry import FormField2, as_form_field, as_vector_field


@dataclass
class LoadSpec:
    """Dead load on the mid-surface with its integral invariants."""

    f: geo.VectorField3
    moment: np.ndarray       # integral of f (x) x
    mean: np.ndarray

    @property
    def torque(self):
        """Integral of f x x (see _torque)."""
        return _torque(self.moment)


def _torque(moment):
    """Integral of f x x from the moment integral of f (x) x: the axial
    vector of its skew part."""
    return np.array([moment[1, 2] - moment[2, 1],
                     moment[2, 0] - moment[0, 2],
                     moment[0, 1] - moment[1, 0]])


def make_load(chart, values, remove_mean=False):
    """Build a LoadSpec from nodal force values; optionally remove the mean."""
    fld = as_vector_field(values)
    if fld.shape != chart.shape:
        raise ValueError("load grid does not match chart grid")
    vals = fld.values
    area = float(np.sum(chart.quad_w))
    if remove_mean:
        mean = np.einsum("xy,xyc->c", chart.quad_w, vals) / area
        vals = vals - mean
    mean = np.einsum("xy,xyc->c", chart.quad_w, vals)
    load = LoadSpec(f=geo.VectorField3(vals), moment=None, mean=mean)
    load.moment = load_moment(chart, load, chart.pos)
    return load


@dataclass
class RotationSetResult:
    m: float
    candidates: list
    degenerate: bool
    torque: np.ndarray


@dataclass
class EnergyBreakdown:
    stretching: float
    bending: float
    load: float
    total: float
    kappa: float


# ---------------------------------------------------------------------------
# tensor ingredients
# ---------------------------------------------------------------------------

def a_squared_tan(chart, A):
    """Tangential coefficients of A^2: b_ij = (A^2 t_i) . t_j."""
    if not isinstance(A, iso.SkewField):
        A = iso.SkewField(np.asarray(A, float))
    if A.shape != chart.shape:
        raise ValueError("SkewField grid does not match chart grid")
    A2 = A.values @ A.values
    # partial vectors A^2 t_i
    P = np.stack([chart.t1, chart.t2], axis=-2) @ np.swapaxes(A2, -1, -2)
    return geo.tangential_form(chart, P)


def _bending(chart, A, moduli):
    F = geo.frame_form(chart, iso.bending_form(chart, A))
    q2 = mat.q2_value(F, moduli, chart.frame)
    return float(geo.integrate(chart, q2) / 24.0)


def bending_energy(chart, fld, moduli):
    """Bending part of the limit energy for a displacement V.

    (1/24) integral of Q2 over the frame-converted bending form of the
    skew extension of V.
    """
    return _bending(chart, iso.extend_A(chart, fld), moduli)


def stretching_energy(chart, form, A, kappa, moduli):
    """Stretching part: (1/2) integral of Q2 on B - (kappa/2) (A^2)_tan."""
    form = as_form_field(form)
    if kappa != 0.0:
        if A is None:
            raise ValueError("kappa > 0 requires the skew field A")
        corr = a_squared_tan(chart, A)
        arg = FormField2(form.coeff - 0.5 * kappa * corr.coeff)
    else:
        arg = form
    q2 = mat.q2_value(geo.frame_form(chart, arg), moduli, chart.frame)
    return float(0.5 * geo.integrate(chart, q2))


def load_moment(chart, load, fld):
    """The moment N = integral of f (x) V of the load against a field V,
    (3, 3), or one per field of a stack (m, N1, N2, 3), (m, 3, 3): the
    load reaches the limit functional only through N and the moment
    LoadSpec.moment of the undeformed surface."""
    V = getattr(fld, "values", fld)
    V = as_vector_field(V).values if np.ndim(V) == 3 else np.asarray(V, float)
    return np.einsum("xy,xyc,...xyd->...cd", chart.quad_w, load.f.values, V)


def load_work(chart, load, rotation, fld):
    """Linear load term: integral of f . (Q V) = sum_cd Q_cd N_cd with
    N = load_moment(chart, load, fld).  A stack of rotations (k, 3, 3) and
    a stack of fields (m, N1, N2, 3) give one value per rotation and field,
    of shape (k, m)."""
    Q = np.asarray(rotation, float)
    N = load_moment(chart, load, fld)
    return np.tensordot(Q, N, axes=([-2, -1], [-2, -1]))[()]


def _check_rotation(Q):
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (3, 3) or np.linalg.norm(Q.T @ Q - np.eye(3)) > 1e-10 \
            or abs(np.linalg.det(Q) - 1.0) > 1e-10:
        raise ValueError("expected a proper rotation matrix")
    return Q


def total_I(chart, fld, form, kappa, moduli):
    """Energy breakdown of the limit functional without loads."""
    fld = as_vector_field(fld)
    A = iso.extend_A(chart, fld)
    stretch = stretching_energy(chart, form, A, kappa, moduli)
    bend = _bending(chart, A, moduli)
    return EnergyBreakdown(stretching=stretch, bending=bend, load=0.0,
                           total=stretch + bend, kappa=kappa)


def total_J(chart, fld, form, kappa, moduli, load, rotation):
    """Energy breakdown including the dead-load term -integral f . (Q V)."""
    rotation = _check_rotation(rotation)
    base = total_I(chart, fld, form, kappa, moduli)
    lw = load_work(chart, load, rotation, fld)
    return EnergyBreakdown(stretching=base.stretching, bending=base.bending,
                           load=lw, total=base.stretching + base.bending - lw,
                           kappa=kappa)


# ---------------------------------------------------------------------------
# optimal rotations of the undeformed surface
# ---------------------------------------------------------------------------

_ROTATION_TOL = 1e-9    # degenerate moment norm and singular value gap


def _circle_family(U, V, count):
    """U R(phi) V^T for count angles phi, R(phi) the rotation about e1."""
    out = []
    for phi in np.linspace(0.0, 2.0 * np.pi, count, endpoint=False):
        cp, sp = np.cos(phi), np.sin(phi)
        R = np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]])
        out.append(U @ R @ V.T)
    return out


def _so3_samples(count, seed=0):
    rng = np.random.default_rng(seed)
    out = [np.eye(3)]
    while len(out) < count:
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        w, x, y, z = q
        out.append(np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]))
    return out


def rotation_set(load, sample_count=64, seed=0):
    """Maximize tr(Q^T Fhat) over proper rotations.

    Uses the singular value decomposition Fhat = U S V^T: the maximizer is
    U diag(1, 1, det(UV^T)) V^T and the maximum is s1 + s2 + det(UV^T) s3.
    Degenerate moment matrices (singular values that coincide to
    _ROTATION_TOL, or |Fhat| <= _ROTATION_TOL) yield a sampled family of
    maximizers and degenerate=True.  The torque is the integral of f x x.
    """
    moment = np.asarray(getattr(load, "moment", load), dtype=float)
    if moment.shape != (3, 3):
        raise ValueError("expected a LoadSpec or a 3x3 moment matrix")
    torque = _torque(moment)
    if float(np.linalg.norm(moment)) <= _ROTATION_TOL:
        return RotationSetResult(0.0, _so3_samples(sample_count, seed), True,
                                 torque)
    U, sig, Vt = np.linalg.svd(moment)
    detuv = np.linalg.det(U @ Vt)
    qstar = U @ np.diag([1.0, 1.0, detuv]) @ Vt
    m = float(sig[0] + sig[1] + detuv * sig[2])
    tol = _ROTATION_TOL * max(sig[0], 1.0)
    degenerate = bool(sig[1] + detuv * sig[2] <= tol)
    candidates = [qstar]
    if degenerate:
        V = Vt.T
        if sig[1] <= tol:
            # rank-one moment: stabilizer circle about the leading axis
            Ur = U.copy()
            if detuv < 0:
                # flipping the null column keeps Fhat and makes det +1
                Ur[:, 2] *= -1.0
            candidates = _circle_family(Ur, V, sample_count)
        else:
            # det(UV^T) = -1 with coinciding trailing singular values:
            # one-parameter family of reflected completions
            candidates = _circle_family(U, V * [1.0, 1.0, -1.0], sample_count)
    return RotationSetResult(m=m, candidates=candidates,
                             degenerate=degenerate, torque=torque)
