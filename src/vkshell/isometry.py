"""Discrete infinitesimal-isometry spaces on a chart.

The constraint functional K(V) = integral of |sym grad V|^2 (orthonormal
frame, Frobenius) is assembled as a dense quadratic form on nodal
displacements and thresholded spectrally against a W^{1,2} mass matrix:
the near-null cluster of the generalized eigenproblem is the discrete
isometry space.  Within the cluster, modes are reordered by a secondary
Rayleigh-Ritz step with the bending seminorm, which makes the returned
basis deterministic and smoothness-ordered (LAPACK otherwise returns an
arbitrary rotation of the degenerate near-zero eigenspace).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import geometry as geo
from . import material as mat
from .geometry import VectorField3, FormField2, as_vector_field

MAX_EIG_DOFS = 6000


@dataclass
class SkewField:
    """Per-node 3x3 matrix field extending the displacement gradient."""

    values: np.ndarray
    skew_residual: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 4 or self.values.shape[-2:] != (3, 3):
            raise ValueError("SkewField expects shape (N1, N2, 3, 3)")

    @property
    def shape(self):
        return self.values.shape[:2]


@dataclass
class IsometryBasis:
    """Near-null modes of the discrete membrane-strain form."""

    modes: list
    matrix: np.ndarray          # dof-space basis, columns M-orthonormal
    rayleigh: np.ndarray
    bending_ritz: np.ndarray
    tol: float                  # absolute eigenvalue threshold used
    tol_rel: float
    gram: np.ndarray            # W^{1,2} mass matrix
    gap_ratio: float
    cluster_size: int
    skew_residuals: np.ndarray = None
    grid_shape: tuple = None

    def __len__(self):
        return len(self.modes)

    @property
    def empty(self):
        return len(self.modes) == 0


def field_to_dof(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values[..., c].ravel() for c in range(3)])

def dof_to_field(x, grid_shape):
    n = grid_shape[0] * grid_shape[1]
    return np.stack([x[c * n:(c + 1) * n].reshape(grid_shape) for c in range(3)],
                    axis=-1)


# ---------------------------------------------------------------------------
# skew extension and bending tensor
# ---------------------------------------------------------------------------

def extend_A(chart, fld):
    """Extend the tangential gradient of V to a 3x3 matrix field.

    Per node, solves A [t1 | t2 | n] = [d1 V | d2 V | Pi V_tan - grad(V.n)].
    For an exact infinitesimal isometry the result is skew; the maximal
    symmetric defect is reported, never raised.
    """
    fld = as_vector_field(fld)
    grad = geo.surface_gradient(chart, fld)
    vtan, vn = geo.tangential_part(chart, fld)
    pin_vtan = geo.shape_operator_apply(chart, vtan)
    grad_vn = geo.tangential_vector_from_covector(
        chart, chart.d1(vn), chart.d2(vn))
    w = pin_vtan - grad_vn
    T = np.stack([chart.t1, chart.t2, chart.normal], axis=-1)
    rhs = np.concatenate([grad, w[..., None]], axis=-1)
    # A T = rhs  =>  T^T A^T = rhs^T
    At = np.linalg.solve(np.swapaxes(T, -1, -2), np.swapaxes(rhs, -1, -2))
    A = np.swapaxes(At, -1, -2)
    sym_defect = A + np.swapaxes(A, -1, -2)
    residual = float(np.max(np.linalg.norm(sym_defect, axis=(-2, -1))))
    return SkewField(values=A, skew_residual=residual)


def bending_form(chart, A):
    """First-order change of the shape operator under the displacement.

    b_ij = ((d_i A) n) . t_j, symmetrized; derivatives of A by the chart's
    difference operators.
    """
    if not isinstance(A, SkewField):
        A = SkewField(np.asarray(A, float))
    if A.shape != chart.shape:
        raise ValueError("SkewField grid does not match chart grid")
    t = np.stack([chart.t1, chart.t2], axis=-2)
    b = np.einsum("xyic,xyjc->xyij", bending_direction_field(chart, A), t)
    return FormField2(0.5 * (b + np.swapaxes(b, -1, -2)))


def bending_direction_field(chart, A):
    """Per-node vectors (d_i A) n used by both the bending form and the
    3D recovery harness (kept identical so discretization bias cancels)."""
    if not isinstance(A, SkewField):
        A = SkewField(np.asarray(A, float))
    return np.stack(
        [np.einsum("xycd,xyd->xyc", chart.d1(A.values), chart.normal),
         np.einsum("xycd,xyd->xyc", chart.d2(A.values), chart.normal)], axis=-2)


# ---------------------------------------------------------------------------
# rigid motions
# ---------------------------------------------------------------------------

def _rigid_fields(chart):
    n1, n2 = chart.shape
    pos = chart.pos
    fields = []
    for c in range(3):
        f = np.zeros((n1, n2, 3))
        f[..., c] = 1.0
        fields.append(f)
    for c in range(3):
        axis = np.zeros(3)
        axis[c] = 1.0
        fields.append(np.cross(axis, pos))
    return fields


def _l2_weight_dofs(chart):
    w = chart.quad_w.ravel()
    return np.concatenate([w, w, w])


def rigid_basis(chart):
    """L2-orthonormalized span of the 6 infinitesimal rigid motions."""
    raw = np.stack([field_to_dof(f) for f in _rigid_fields(chart)], axis=1)
    w3 = _l2_weight_dofs(chart)
    G = raw.T @ (w3[:, None] * raw)
    L = np.linalg.cholesky(G)
    ortho = scipy.linalg.solve_triangular(L, raw.T, lower=True).T
    return [VectorField3(dof_to_field(ortho[:, k], chart.shape)) for k in range(6)]


def project_out_rigid(chart, fld):
    """Remove the L2-projection onto the rigid-motion span."""
    fld = as_vector_field(fld)
    basis = rigid_basis(chart)
    w3 = _l2_weight_dofs(chart)
    v = field_to_dof(fld.values)
    for b in basis:
        bd = field_to_dof(b.values)
        v = v - (bd @ (w3 * v)) * bd
    return VectorField3(dof_to_field(v, chart.shape))


def _rigid_complement(chart, basis):
    """Basis combinations M-orthogonal to the rigid motions: the fields and
    their dof columns."""
    rigid = rigid_basis(chart)
    P = np.stack([basis.matrix.T @ (basis.gram @ field_to_dof(r.values))
                  for r in rigid], axis=1)
    m = basis.matrix.shape[1]
    Qfull, Rtri = np.linalg.qr(P, mode="complete")
    diag = np.abs(np.diag(Rtri[:min(m, 6), :]))
    rank = int(np.sum(diag > 1e-10 * max(diag.max(), 1e-300)))
    Z = Qfull[:, rank:]
    reduced = basis.matrix @ Z
    fields = [VectorField3(dof_to_field(reduced[:, k], chart.shape))
              for k in range(reduced.shape[1])]
    return fields, reduced


# ---------------------------------------------------------------------------
# quadratic form assembly
# ---------------------------------------------------------------------------

def _kron_diff_matrices(chart):
    n1, n2 = chart.shape
    D1 = np.kron(chart.d1_matrix(), np.eye(n2))
    D2 = np.kron(np.eye(n1), chart.d2_matrix())
    return D1, D2


def _frame_mix_coeffs(chart):
    gh = chart.ginv_half
    a, b, c = gh[..., 0, 0].ravel(), gh[..., 0, 1].ravel(), gh[..., 1, 1].ravel()
    # rows of the map (b11, b22, b12) -> (F11, F22, F12) for F = Gh b Gh
    return (
        (a * a, b * b, 2 * a * b),
        (b * b, c * c, 2 * b * c),
        (a * b, b * c, a * c + b * b),
    )


def membrane_strain_operator(chart):
    """Rows of the weighted frame strain map on nodal displacements.

    Returns R of shape (3 N, 3 N) such that |R v|^2 is the quadrature of
    the squared Frobenius norm of the frame-converted symmetric gradient.
    """
    n = chart.n_nodes
    if 3 * n > MAX_EIG_DOFS:
        raise ValueError(
            "grid too large for dense strain assembly (%d dofs > %d); "
            "use a coarser grid" % (3 * n, MAX_EIG_DOFS))
    D1, D2 = _kron_diff_matrices(chart)
    t1 = chart.t1.reshape(n, 3)
    t2 = chart.t2.reshape(n, 3)
    b11 = np.hstack([t1[:, c:c + 1] * D1 for c in range(3)])
    b22 = np.hstack([t2[:, c:c + 1] * D2 for c in range(3)])
    b12 = 0.5 * (np.hstack([t1[:, c:c + 1] * D2 for c in range(3)])
                 + np.hstack([t2[:, c:c + 1] * D1 for c in range(3)]))
    mix = _frame_mix_coeffs(chart)
    sw = np.sqrt(chart.quad_w.ravel())
    rows = []
    for k, scale in zip(range(3), (1.0, 1.0, np.sqrt(2.0))):
        m11, m22, m12 = mix[k]
        rows.append((scale * sw)[:, None]
                    * (m11[:, None] * b11 + m22[:, None] * b22 + m12[:, None] * b12))
    return np.vstack(rows)


def sobolev_mass_matrix(chart):
    """W^{1,2} mass matrix: values plus frame-gradient first differences."""
    n = chart.n_nodes
    D1, D2 = _kron_diff_matrices(chart)
    gh = chart.ginv_half
    w = chart.quad_w.ravel()
    block = np.diag(w)
    for gamma in range(2):
        g1 = gh[..., 0, gamma].ravel()
        g2 = gh[..., 1, gamma].ravel()
        Dg = g1[:, None] * D1 + g2[:, None] * D2
        block += Dg.T @ (w[:, None] * Dg)
    M = np.zeros((3 * n, 3 * n))
    for c in range(3):
        M[c * n:(c + 1) * n, c * n:(c + 1) * n] = block
    return 0.5 * (M + M.T)


def _bending_frames(chart, fields):
    """Frame-converted bending forms of the given fields, stacked."""
    return np.stack([geo.frame_form(chart, bending_form(chart, extend_A(chart, f)))
                     for f in fields])


def _skew_defect_rows(chart, fields):
    """Weighted symmetric-defect entries of the skew extension per mode."""
    sw = np.sqrt(chart.quad_w.ravel())
    rows = np.empty((len(fields), 9 * chart.n_nodes))
    for k, f in enumerate(fields):
        A = extend_A(chart, f).values
        defect = A + np.swapaxes(A, -1, -2)
        rows[k] = (defect.reshape(chart.n_nodes, 9) * sw[:, None]).ravel()
    return rows


def bending_q2_gram(chart, fields, moduli):
    """Gram matrix of (1/24) integral Q2(bending form) over given fields."""
    rows = mat.q2_rows(_bending_frames(chart, fields), moduli,
                       chart.quad_w / 24.0)
    return rows @ rows.T


# ---------------------------------------------------------------------------
# isometry basis
# ---------------------------------------------------------------------------

def _subnyquist_restriction(chart):
    """Orthonormal basis of nodal fields with no closed-direction Nyquist
    content.  An even node count on a periodic axis carries one unpaired
    alternating harmonic per grid line whose derivative samples to zero on
    the grid; such ghost fields are unresolvable and are excluded from the
    search space."""
    n1, n2 = chart.shape
    if not chart.periodic2 or n2 % 2 != 0:
        return None
    alt = np.where(np.arange(n2) % 2 == 0, 1.0, -1.0) / np.sqrt(n2)
    T2 = scipy.linalg.null_space(alt[None, :])
    return np.kron(np.eye(3 * n1), T2)


def isometry_basis(chart, n_request=40, tol=1e-8):
    """Spectral near-null basis of the membrane-strain form.

    Solves the generalized symmetric eigenproblem K v = rho M v on the
    resolvable (sub-Nyquist) nodal subspace, accepts eigenmodes with
    rho <= tol * rho_max, reorders the accepted cluster by the bending
    seminorm, and returns at most n_request modes.  Modes whose skew
    extension has a symmetric defect above 10 * tol are polluted by
    product aliasing near the grid's Nyquist frequency and are dropped;
    cluster_size still reports the raw near-null count.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    R = membrane_strain_operator(chart)
    K = R.T @ R
    K = 0.5 * (K + K.T)
    M = sobolev_mass_matrix(chart)
    T = _subnyquist_restriction(chart)
    if T is None:
        Kr, Mr = K, M
    else:
        Kr = T.T @ K @ T
        Kr = 0.5 * (Kr + Kr.T)
        Mr = T.T @ M @ T
        Mr = 0.5 * (Mr + Mr.T)
    try:
        ev, vec = scipy.linalg.eigh(Kr, Mr)
    except scipy.linalg.LinAlgError as exc:
        raise ArithmeticError("generalized eigen-solver failed on the "
                              "membrane-strain pencil") from exc
    if T is not None:
        vec = T @ vec
    rho_max = float(ev[-1])
    thresh = tol * rho_max
    accepted = np.flatnonzero(ev <= thresh)
    m = accepted.size
    if m == 0:
        return IsometryBasis(modes=[], matrix=np.zeros((K.shape[0], 0)),
                             rayleigh=np.zeros(0), bending_ritz=np.zeros(0),
                             tol=thresh, tol_rel=tol, gram=M,
                             gap_ratio=np.inf, cluster_size=0,
                             skew_residuals=np.zeros(0), grid_shape=chart.shape)
    if m < ev.size:
        denom = max(float(np.max(np.abs(ev[accepted]))), 1e-16 * rho_max)
        gap_ratio = float(ev[m] / denom)
    else:
        gap_ratio = np.inf

    cluster = vec[:, accepted]

    # split off modes whose skew extension is polluted by grid aliasing:
    # Rayleigh-Ritz with the symmetric-defect form separates them exactly
    fields = [dof_to_field(cluster[:, k], chart.shape) for k in range(m)]
    srows = _skew_defect_rows(chart, fields)
    Gs = srows @ srows.T
    s_vals, Qs = np.linalg.eigh(0.5 * (Gs + Gs.T))
    # bimodal spectrum: machine-zero defects vs order-one aliased modes;
    # the cut must sit above the Gram's own eigenvalue roundoff
    s_cut = max((10.0 * tol)**2, 1e-10 * float(max(s_vals[-1], 0.0)))
    resolved = s_vals <= s_cut
    cluster = cluster @ Qs[:, resolved]

    # deterministic smoothness ordering by the bending seminorm
    fields = [dof_to_field(cluster[:, k], chart.shape)
              for k in range(cluster.shape[1])]
    rows = geo.frame_rows(_bending_frames(chart, fields), chart.quad_w)
    Gb = rows @ rows.T
    bend_vals, Qb = np.linalg.eigh(0.5 * (Gb + Gb.T))
    cluster = cluster @ Qb

    keep = min(n_request, cluster.shape[1])
    cluster = cluster[:, :keep]
    bend_vals = bend_vals[:keep]
    rayleigh = np.einsum("jk,jl,lk->k", cluster, K, cluster)
    fields = [dof_to_field(cluster[:, k], chart.shape) for k in range(keep)]
    residuals = np.array([extend_A(chart, f).skew_residual for f in fields])
    return IsometryBasis(
        modes=[VectorField3(f) for f in fields], matrix=cluster,
        rayleigh=rayleigh, bending_ritz=bend_vals, tol=thresh, tol_rel=tol,
        gram=M, gap_ratio=gap_ratio, cluster_size=m,
        skew_residuals=residuals, grid_shape=chart.shape)


def project_onto_basis(basis, fld):
    """M-orthogonal projection onto the basis span; returns (coeffs, residual).

    The residual is relative in the norm of the stored Gram matrix.
    """
    fld = as_vector_field(fld)
    v = field_to_dof(fld.values)
    Mv = basis.gram @ v
    coeffs = basis.matrix.T @ Mv
    norm2 = float(v @ Mv)
    if norm2 <= 0:
        return coeffs, 0.0
    res = v - basis.matrix @ coeffs
    res2 = float(res @ (basis.gram @ res))
    return coeffs, float(np.sqrt(max(res2, 0.0) / norm2))


@dataclass
class CoercivityResult:
    smallest: float
    largest: float
    n_modes: int
    empty: bool = False


def coercivity_spectrum(chart, basis, moduli):
    """Extreme eigenvalues of the bending energy on basis modes minus rigid.

    Positivity of the smallest eigenvalue certifies discrete coercivity of
    the bending form on the rigid-complemented isometry space.
    """
    if basis.empty:
        raise ValueError("isometry basis is empty")
    fields, _ = _rigid_complement(chart, basis)
    if not fields:
        return CoercivityResult(smallest=np.nan, largest=np.nan,
                                n_modes=0, empty=True)
    G = bending_q2_gram(chart, fields, moduli)
    ev = np.linalg.eigvalsh(0.5 * (G + G.T))
    return CoercivityResult(smallest=float(ev[0]), largest=float(ev[-1]),
                            n_modes=len(fields), empty=False)
