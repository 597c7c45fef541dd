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
from .geometry import VectorField3, as_vector_field

MAX_EIG_DOFS = 6000


@dataclass
class SkewField:
    """Per-node 3x3 matrix field extending the displacement gradient, or a
    stack of such fields along one leading mode axis."""

    values: np.ndarray
    skew_residual: float = 0.0  # one value per field for a stack

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim not in (4, 5) or self.values.shape[-2:] != (3, 3):
            raise ValueError("SkewField expects shape (N1, N2, 3, 3) "
                             "or (m, N1, N2, 3, 3)")

    @property
    def shape(self):
        """(N1, N2), or (m, N1, N2) for a stack."""
        return self.values.shape[:-2]


@dataclass
class IsometryBasis:
    """Near-null modes of the discrete membrane-strain form."""

    modes: np.ndarray           # (m, N1, N2, 3) mode fields
    matrix: np.ndarray          # dof-space basis, columns M-orthonormal
    rayleigh: np.ndarray
    bending_ritz: np.ndarray
    tol: float                  # absolute eigenvalue threshold used
    tol_rel: float
    gram: np.ndarray            # W^{1,2} mass matrix
    gap_ratio: float
    cluster_size: int
    skew_residuals: np.ndarray = None

    def __len__(self):
        return len(self.modes)

    @property
    def empty(self):
        return len(self.modes) == 0


def field_to_dof(values):
    """Dofs (component-major, then nodes) of a field (N1, N2, 3), or the
    dof matrix (3 N, m) of a stack (m, N1, N2, 3)."""
    x = np.moveaxis(np.asarray(values, dtype=float), (-1, -3, -2), (0, 1, 2))
    return x.reshape((-1,) + x.shape[3:])


def dof_to_field(x, grid_shape):
    """Inverse of field_to_dof: a dof vector to a field, a dof matrix
    (3 N, m) to a stack (m, N1, N2, 3)."""
    x = np.asarray(x, dtype=float)
    f = x.reshape((3,) + tuple(grid_shape) + x.shape[1:])
    return np.ascontiguousarray(np.moveaxis(f, (0, 1, 2), (-1, -3, -2)))


def _field_stack(chart, fld):
    """A field or a stack of fields as a stack (m, N1, N2, 3), and whether
    it was a single field."""
    single = isinstance(fld, VectorField3) or np.ndim(fld) == 3
    V = as_vector_field(fld).values[None] if single else np.asarray(fld, float)
    if V.shape[1:] != chart.shape + (3,):
        raise ValueError("field grid %s does not match chart grid %s"
                         % (V.shape[1:3], chart.shape))
    return V, single


def _derivatives(chart, stack):
    """Chart derivatives (d1, d2) of nodal arrays with a leading mode axis."""
    f = np.moveaxis(stack, 0, -1)
    return np.moveaxis(chart.d1(f), -1, 0), np.moveaxis(chart.d2(f), -1, 0)


# ---------------------------------------------------------------------------
# skew extension and bending tensor
# ---------------------------------------------------------------------------

def extend_A(chart, fld):
    """Extend the tangential gradient of V to a 3x3 matrix field.

    Per node, A t_i = d_i V and A n = Pi V - grad(V.n), that is
    A = lift(dV) + (Pi V - grad(V.n)) (x) n with the shape operator
    Pi V = sum_i (dual_i . V) d_i n.  fld is one field or a stack
    (m, N1, N2, 3) evaluated in one batch, and A carries the same mode
    axis.  For an exact infinitesimal isometry A is skew; the maximal
    symmetric defect is reported per field, never raised.
    """
    V, single = _field_stack(chart, fld)
    n = chart.normal
    dn = np.stack([chart.dn1, chart.dn2], axis=-1)
    grad_vn = geo.tangential_vector_from_covector(
        chart, *_derivatives(chart, np.einsum("mxyc,xyc->mxy", V, n)))
    An = (dn @ (chart.dual @ V[..., None]))[..., 0] - grad_vn
    A = (geo.lift(chart, np.stack(_derivatives(chart, V), axis=-2))
         + An[..., None] * n[..., None, :])
    sym_defect = A + np.swapaxes(A, -1, -2)
    residual = np.max(np.linalg.norm(sym_defect, axis=(-2, -1)), axis=(-2, -1))
    if single:
        return SkewField(values=A[0], skew_residual=float(residual[0]))
    return SkewField(values=A, skew_residual=residual)


def bending_form(chart, A):
    """First-order change of the shape operator under the displacement.

    b_ij = ((d_i A) n) . t_j, symmetrized; derivatives of A by the chart's
    difference operators.  A stack of skew fields gives a stack of forms.
    """
    A = A if isinstance(A, SkewField) else SkewField(A)
    if A.shape[-2:] != chart.shape:
        raise ValueError("SkewField grid does not match chart grid")
    return geo.tangential_form(chart, bending_direction_field(chart, A))


def bending_direction_field(chart, A):
    """Per-node vectors (d_i A) n used by both the bending form and the
    3D recovery harness (kept identical so discretization bias cancels).
    One field or a stack, like A."""
    A = A if isinstance(A, SkewField) else SkewField(A)
    dA = _derivatives(chart, A.values if A.values.ndim == 5 else A.values[None])
    dirs = np.stack([np.einsum("mxycd,xyd->mxyc", d, chart.normal)
                     for d in dA], axis=-2)
    return dirs.reshape(A.shape + (2, 3))


# ---------------------------------------------------------------------------
# rigid motions
# ---------------------------------------------------------------------------

def _rigid_fields(chart):
    """The 3 translations and 3 infinitesimal rotations, stacked."""
    axes = np.eye(3)[:, None, None, :]
    return np.concatenate([np.broadcast_to(axes, (3,) + chart.pos.shape),
                           np.cross(axes, chart.pos)])


def _rigid_dofs(chart):
    """L2-orthonormal dof columns spanning the 6 infinitesimal rigid motions."""
    raw = field_to_dof(_rigid_fields(chart))
    w3 = np.tile(chart.quad_w.ravel(), 3)
    G = raw.T @ (w3[:, None] * raw)
    L = np.linalg.cholesky(G)
    return scipy.linalg.solve_triangular(L, raw.T, lower=True).T


def rigid_basis(chart):
    """L2-orthonormalized span of the 6 infinitesimal rigid motions."""
    return list(map(VectorField3, dof_to_field(_rigid_dofs(chart), chart.shape)))


def project_out_rigid(chart, fld):
    """Remove the L2-projection onto the rigid-motion span."""
    fld = as_vector_field(fld)
    B = _rigid_dofs(chart)
    v = field_to_dof(fld.values)
    v = v - B @ (B.T @ (np.tile(chart.quad_w.ravel(), 3) * v))
    return VectorField3(dof_to_field(v, chart.shape))


def _rigid_complement(chart, basis):
    """Basis combinations M-orthogonal to the rigid motions: their fields,
    stacked (m, N1, N2, 3), and their dof columns."""
    # one matrix-vector product per rigid motion: a matrix product rounds
    # differently and moves the bending-only minimum in its last digit
    P = np.stack([basis.matrix.T @ (basis.gram @ r)
                  for r in _rigid_dofs(chart).T], axis=1)
    Qfull, Rtri = np.linalg.qr(P, mode="complete")
    diag = np.abs(np.diag(Rtri))
    rank = int(np.sum(diag > 1e-10 * max(diag.max(), 1e-300)))
    reduced = basis.matrix @ Qfull[:, rank:]
    return dof_to_field(reduced, chart.shape), reduced


# ---------------------------------------------------------------------------
# quadratic form assembly
# ---------------------------------------------------------------------------

def _diff_matrices(chart):
    """Node matrices of the chart derivatives: d1 and d2 of every unit field."""
    n = chart.n_nodes
    unit = np.eye(n).reshape(chart.shape + (n,))
    return chart.d1(unit).reshape(n, n), chart.d2(unit).reshape(n, n)


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
    D1, D2 = _diff_matrices(chart)
    t1, t2 = chart.t1.reshape(n, 3).T[..., None], chart.t2.reshape(n, 3).T[..., None]
    # t_i . d_j V as matrices on the component-major dofs
    b11, b22 = np.hstack(t1 * D1), np.hstack(t2 * D2)
    b12 = 0.5 * (np.hstack(t1 * D2) + np.hstack(t2 * D1))
    sw = np.sqrt(chart.quad_w.ravel())
    return np.vstack([
        (scale * sw)[:, None]
        * (m11[:, None] * b11 + m22[:, None] * b22 + m12[:, None] * b12)
        for scale, (m11, m22, m12) in zip((1.0, 1.0, np.sqrt(2.0)),
                                          _frame_mix_coeffs(chart))])


def sobolev_mass_matrix(chart):
    """W^{1,2} mass matrix: values plus frame-gradient first differences."""
    D1, D2 = _diff_matrices(chart)
    gh = chart.ginv_half
    w = chart.quad_w.ravel()
    block = np.diag(w)
    for gamma in range(2):
        g1 = gh[..., 0, gamma].ravel()
        g2 = gh[..., 1, gamma].ravel()
        Dg = g1[:, None] * D1 + g2[:, None] * D2
        block += Dg.T @ (w[:, None] * Dg)
    M = scipy.linalg.block_diag(block, block, block)
    return 0.5 * (M + M.T)


def _bending_frames(chart, fields):
    """Frame-converted bending forms of a stack of fields."""
    return geo.frame_form(chart, bending_form(chart, extend_A(chart, fields)))


def _skew_defect_rows(chart, fields):
    """Weighted symmetric-defect entries of the skew extension per field."""
    A = extend_A(chart, fields).values
    defect = (A + np.swapaxes(A, -1, -2)) * np.sqrt(chart.quad_w)[..., None, None]
    return defect.reshape(len(A), 9 * chart.n_nodes)


def bending_q2_gram(chart, fields, moduli):
    """Gram matrix of (1/24) integral Q2(bending form) over a stack of fields."""
    rows = mat.q2_rows(_bending_frames(chart, fields), moduli,
                       chart.quad_w / 24.0)
    return rows @ rows.T


# ---------------------------------------------------------------------------
# isometry basis
# ---------------------------------------------------------------------------

def _subnyquist_restriction(chart):
    """Orthonormal basis T2 (n2 x (n2 - 1)) of grid-line samples without
    the unpaired alternating harmonic that an even node count on a periodic
    axis carries; its derivative samples to zero, so these ghost fields are
    excluded from the search space T = I (x) T2.  None without one."""
    n2 = chart.shape[1]
    if not chart.periodic2 or n2 % 2 != 0:
        return None
    alt = np.where(np.arange(n2) % 2 == 0, 1.0, -1.0) / np.sqrt(n2)
    return scipy.linalg.null_space(alt[None, :])


def _per_line(X, B):
    """X (I (x) B): B applied to each grid line of X's rows."""
    return (X.reshape(X.shape[0], -1, B.shape[0]) @ B).reshape(X.shape[0], -1)


def _pencil(R, M, T2):
    """The pencil (R^T R, M) on the span of T = I (x) T2 (all dofs if T2 is
    None); R^T R is a symmetric rank-k product, the restricted M is
    symmetrized."""
    if T2 is None:
        return R.T @ R, M
    RT = _per_line(R, T2)
    Mr = _per_line(_per_line(M, T2).T, T2)
    return RT.T @ RT, 0.5 * (Mr + Mr.T)


def isometry_basis(chart, n_request=40, tol=1e-8):
    """Spectral near-null basis of the membrane-strain form.

    Solves the generalized symmetric eigenproblem K v = rho M v on the
    resolvable (sub-Nyquist) nodal subspace and accepts eigenmodes with
    rho <= tol * rho_max.  Product aliasing near the grid's Nyquist
    frequency pollutes some of them: a Rayleigh-Ritz step with the Gram of
    the weighted symmetric defects of the skew extensions drops every
    direction whose defect eigenvalue exceeds max((10 tol)^2, 1e-10 s_max),
    s_max the largest one.  The rest is reordered by the bending seminorm
    and at most n_request modes are returned; cluster_size still reports
    the raw near-null count.  gap_ratio is rho_m / (tol rho_max), the
    factor by which the first rejected eigenvalue clears the threshold
    (inf when every eigenvalue is accepted).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if n_request < 0:
        raise ValueError("n_request must be non-negative")
    R = membrane_strain_operator(chart)
    M = sobolev_mass_matrix(chart)
    T2 = _subnyquist_restriction(chart)
    try:
        ev, vec = scipy.linalg.eigh(*_pencil(R, M, T2))
    except scipy.linalg.LinAlgError as exc:
        raise ArithmeticError("generalized eigen-solver failed on the "
                              "membrane-strain pencil") from exc
    rho_max = float(ev[-1])
    thresh = tol * rho_max
    accepted = np.flatnonzero(ev <= thresh)
    m = accepted.size
    gap_ratio = float(ev[m] / thresh) if m < ev.size else np.inf

    cluster = vec[:, accepted]
    if T2 is not None:
        cluster = _per_line(cluster.T, T2.T).T

    # split off modes whose skew extension is polluted by grid aliasing:
    # Rayleigh-Ritz with the symmetric-defect form separates them exactly
    srows = _skew_defect_rows(chart, dof_to_field(cluster, chart.shape))
    Gs = srows @ srows.T
    s_vals, Qs = np.linalg.eigh(0.5 * (Gs + Gs.T))
    # bimodal spectrum: machine-zero defects vs order-one aliased modes;
    # the cut must sit above the Gram's own eigenvalue roundoff
    s_cut = max((10.0 * tol)**2, 1e-10 * float(s_vals.max(initial=0.0)))
    cluster = cluster @ Qs[:, s_vals <= s_cut]

    # deterministic smoothness ordering by the bending seminorm
    rows = geo.frame_rows(
        _bending_frames(chart, dof_to_field(cluster, chart.shape)), chart.quad_w)
    Gb = rows @ rows.T
    bend_vals, Qb = np.linalg.eigh(0.5 * (Gb + Gb.T))

    keep = min(n_request, bend_vals.size)
    cluster = (cluster @ Qb)[:, :keep]
    modes = dof_to_field(cluster, chart.shape)
    return IsometryBasis(
        modes=modes, matrix=cluster,
        rayleigh=np.sum((R @ cluster)**2, axis=0),
        bending_ritz=bend_vals[:keep], tol=thresh, tol_rel=tol,
        gram=M, gap_ratio=gap_ratio, cluster_size=m,
        skew_residuals=extend_A(chart, modes).skew_residual)


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
    if not len(fields):
        return CoercivityResult(smallest=np.nan, largest=np.nan,
                                n_modes=0, empty=True)
    G = bending_q2_gram(chart, fields, moduli)
    ev = np.linalg.eigvalsh(0.5 * (G + G.T))
    return CoercivityResult(smallest=float(ev[0]), largest=float(ev[-1]),
                            n_modes=len(fields), empty=False)
