"""Discrete infinitesimal-isometry spaces on a chart.

The constraint functional K(V) = integral of |sym grad V|^2 (orthonormal
frame, Frobenius) is thresholded spectrally against a W^{1,2} mass form,
both Gram matrices of weighted rows of the search fields: the near-null
cluster of the generalized eigenproblem, solved in symmetry blocks (Fassler
& Stiefel, Group Theoretical Methods and Their Applications, 1992), is the
discrete isometry space.  Within the cluster, modes are reordered by a
secondary Rayleigh-Ritz step with the bending seminorm, which makes the
returned basis deterministic and smoothness-ordered (LAPACK otherwise
returns an arbitrary rotation of the degenerate near-zero eigenspace).
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

    modes: np.ndarray           # (m, N1, N2, 3) mode fields, M-orthonormal
    rayleigh: np.ndarray
    bending_ritz: np.ndarray
    tol: float                  # absolute eigenvalue threshold used
    tol_rel: float
    chart: object               # the chart; M inner products via _mass_rows
    gap_ratio: float
    cluster_size: int
    skew_residuals: np.ndarray = None

    def __len__(self):
        return len(self.modes)

    @property
    def empty(self):
        return len(self.modes) == 0


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


def _partials(chart, stack):
    """Partial vectors (m, N1, N2, 2, k) of a stack of k-component fields."""
    return np.stack(_derivatives(chart, stack), axis=-2)


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
    A = (geo.lift(chart, _partials(chart, V))
         + An[..., None] * n[..., None, :])
    residual = _skew_residual(A)
    if single:
        return SkewField(values=A[0], skew_residual=float(residual[0]))
    return SkewField(values=A, skew_residual=residual)


def _skew_residual(A):
    """Maximal symmetric defect |A + A^T| over the nodes, per field of a
    stack (m, N1, N2, 3, 3)."""
    return np.max(np.linalg.norm(A + np.swapaxes(A, -1, -2), axis=(-2, -1)),
                  axis=(-2, -1))


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
    """The 3 translations and 3 infinitesimal rotations, L2-orthonormalized
    by the Cholesky factor of their weighted L2 Gram: a stack (6, N1, N2, 3)."""
    axes = np.eye(3)[:, None, None, :]
    raw = np.concatenate([np.broadcast_to(axes, (3,) + chart.pos.shape),
                          np.cross(axes, chart.pos)]).reshape(6, -1)
    w3 = np.repeat(chart.quad_w.ravel(), 3)
    L = np.linalg.cholesky(raw @ (w3 * raw).T)
    return scipy.linalg.solve_triangular(L, raw, lower=True).reshape(
        (6,) + chart.pos.shape)


def rigid_basis(chart):
    """L2-orthonormalized span of the 6 infinitesimal rigid motions."""
    return list(map(VectorField3, _rigid_fields(chart)))


def project_out_rigid(chart, fld):
    """Remove the L2-projection onto the rigid-motion span."""
    V = as_vector_field(fld).values
    R = _rigid_fields(chart)
    c = np.einsum("rxyc,xy,xyc->r", R, chart.quad_w, V)
    return VectorField3(V - np.tensordot(c, R, axes=1))


def _rigid_complement(chart, basis):
    """Basis combinations M-orthogonal to the rigid motions: their fields,
    stacked (p, N1, N2, 3), and the (m, p) coefficients that combine
    basis.modes into them (orthonormal columns, so the fields stay
    M-orthonormal)."""
    rigid = _rigid_fields(chart)
    P = _mass_rows(chart, basis.modes) @ _mass_rows(chart, rigid).T
    Qfull, Rtri = np.linalg.qr(P, mode="complete")
    diag = np.abs(np.diag(Rtri))
    rank = int(np.sum(diag > 1e-10 * max(diag.max(), 1e-300)))
    C = Qfull[:, rank:]
    return np.tensordot(C.T, basis.modes, axes=1), C


# ---------------------------------------------------------------------------
# strain and mass rows
# ---------------------------------------------------------------------------

def _mass_rows(chart, V, P=None, cols=slice(None)):
    """Rows sqrt(w) (V, G^{-1/2} grad V) of fields V (m, N1, n, k) with
    partials P (m, N1, n, 2, k) on the grid columns cols (full grid if P is
    None): their products are the W^{1,2} inner products (mass matrix)."""
    P = _partials(chart, V) if P is None else P
    sw = np.sqrt(chart.quad_w[:, cols])[..., None]
    D = np.swapaxes(chart.ginv_half[:, cols], -1, -2) @ P
    return np.concatenate([X.reshape(len(X), np.prod(X.shape[1:], dtype=int))
                           for X in (sw * V, sw[..., None] * D)], axis=1)


def _bending_frames(chart, A):
    """Frame-converted bending forms of a stack of skew fields A
    (m, N1, N2, 3, 3), such as extend_A of a stack of fields."""
    return geo.frame_form(chart, bending_form(chart, A))


def bending_q2_gram(chart, A, moduli):
    """Gram matrix of (1/24) integral Q2(bending form) over a stack of skew
    fields A (m, N1, N2, 3, 3)."""
    rows = mat.q2_rows(_bending_frames(chart, A), moduli,
                       chart.quad_w / 24.0, chart.frame)
    return rows @ rows.T


# ---------------------------------------------------------------------------
# isometry basis
# ---------------------------------------------------------------------------

def _character_pencil(chart, k):
    """The pencil (K, M, lift) of character k of a rotation-invariant chart.

    The search fields are profile unit vectors times e_z e^{ik theta}, e_+
    e^{i(k+1) theta} and e_- e^{i(k-1) theta} (geometry.SPIN_UNITS, with
    e_+- = (e_x -+ i e_y)/sqrt(2)), less every part of Cartesian harmonic
    N2/2.  Their rows at column j are a phase (and a rotation) times those
    at column 0: K = N2 S0^H S0 and M = N2 M0^H M0.  If 2k = 0 mod N2 the e_+- parts are combined into real
    fields; else lift phases each column to a real largest entry and returns
    sqrt(2) Re and sqrt(2) Im of its field (which cover character N2 - k).
    """
    n1, n2 = chart.shape
    harm = k + geo.SPIN_SHIFTS
    keep = (harm - n2 / 2) % n2 != 0
    G = geo.SPIN_UNITS[keep, None] * np.exp(
        2j * np.pi / n2 * np.outer(harm[keep], np.arange(n2)))[..., None]
    real = (2 * k) % n2 == 0
    if real:
        G = np.concatenate([G[:-2], np.tensordot(
            [[1, 1], [-1j, 1j]], G[-2:], axes=1) / np.sqrt(2)]).real
    dG = chart.d2(G) if real else chart.d2(G.real) + 1j * chart.d2(G.imag)
    eye = np.eye(n1)   # unit profile fields: values, d1 and d2 on column 0
    V = np.einsum("ab,pc->pabc", eye, G[:, 0]).reshape(-1, n1, 1, 3)
    dunit = np.stack([chart.d1(eye[:, None, :])[:, 0].T, eye], -1)
    P = np.einsum("abd,pdc->pabdc", dunit, np.stack([G[:, 0], dG[:, 0]], 1))
    P = P.reshape(-1, n1, 1, 2, 3)
    S = geo.strain_rows(chart, P, slice(0, 1))
    Mr = _mass_rows(chart, V, P, slice(0, 1))

    def lift(x):
        if not real:
            x = x * np.exp(-1j * np.angle(
                x[np.argmax(np.abs(x), axis=0), np.arange(x.shape[1])]))
        F = np.einsum("pim,pjc->mijc", x.reshape(len(G), n1, -1), G)
        return F if real else np.sqrt(2) * np.concatenate([F.real, F.imag])

    return n2 * (S.conj() @ S.T), n2 * (Mr.conj() @ Mr.T), lift


def _nodal_pencil(chart):
    """The pencil (K, M, lift) on the fields e phi, and the fields that need
    no solve.  phi is a nodal unit field, along a closed axis times the real
    Fourier basis without harmonic N2/2, and e a Cartesian axis; with a
    constant normal n, e is in-plane and the fields w n, whose strain rows
    vanish, are returned M-orthonormalized."""
    n1, n2 = chart.shape
    normal = chart.normal.reshape(-1, 3)
    flat = np.allclose(normal, normal[0], rtol=0.0, atol=1e-12)
    if not flat and 3 * chart.n_nodes > MAX_EIG_DOFS:
        raise ValueError("grid too large for a dense strain pencil (%d dofs "
                         "> %d)" % (3 * chart.n_nodes, MAX_EIG_DOFS))
    T = np.eye(n2)
    if chart.periodic2:
        th = np.outer(np.arange(n2), np.arange(1, (n2 + 1) // 2)) * 2 * np.pi / n2
        T = np.hstack([np.ones((n2, 1)), np.sqrt(2) * np.cos(th),
                       np.sqrt(2) * np.sin(th)]) / np.sqrt(n2)
    phi = np.einsum("ab,jq->aqbj", np.eye(n1), T).reshape(-1, n1, n2, 1)
    dphi = _partials(chart, phi)
    rows = _mass_rows(chart, phi, dphi)
    B = rows @ rows.T

    def fields(x, axes):
        W = phi.reshape(len(phi), -1).T @ x.reshape(len(axes), len(phi), -1)
        return np.einsum("anm,ac->mnc", W, axes).reshape(
            (-1,) + chart.shape + (3,))

    axes, free = np.eye(3), np.zeros((0,) + chart.shape + (3,))
    if flat:
        n, t = normal[0], chart.t1[0, 0] / np.linalg.norm(chart.t1[0, 0])
        axes = np.array([t, np.cross(n, t)])
        free = fields(np.linalg.inv(np.linalg.cholesky(B)).T, n[None])
    S = np.concatenate([geo.strain_rows(chart, dphi * e) for e in axes])
    K, M = S @ S.T, np.kron(np.eye(len(axes)), B)
    return [(K, M, lambda x: fields(x, axes))], free


def isometry_basis(chart, n_request=40, tol=1e-8):
    """Spectral near-null basis of the membrane-strain form.

    Solves the generalized eigenproblem K v = rho M v on the resolvable
    (sub-Nyquist) nodal fields in blocks, one per character on
    rotation-invariant charts, else one (_nodal_pencil, capped by MAX_EIG_DOFS
    unless the normal is constant), and accepts eigenmodes with rho <= tol *
    rho_max over all blocks.  Product aliasing near the grid's Nyquist
    frequency pollutes some of them: a Rayleigh-Ritz step with the Gram of the
    weighted symmetric defects of the skew extensions drops every direction
    whose defect eigenvalue exceeds max((10 tol)^2, 1e-10 s_max), s_max the
    largest one.  The rest is reordered by the bending seminorm and at most
    n_request modes are returned; cluster_size still reports the raw near-null
    count.  extend_A runs once, on the cluster: both Ritz steps, the modes
    and their skew_residuals are linear combinations of that stack.
    gap_ratio is rho_m / (tol rho_max), rho_m the smallest rejected
    eigenvalue of any block (inf when every eigenvalue is accepted).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if n_request < 0:
        raise ValueError("n_request must be non-negative")
    if geo.rotation_invariant(chart):
        blocks = [_character_pencil(chart, k)
                  for k in range(chart.shape[1] // 2 + 1)]
        cluster = np.zeros((0,) + chart.shape + (3,))
    else:
        blocks, cluster = _nodal_pencil(chart)
    try:
        solved = [scipy.linalg.eigh(K, M) + (lift,) for K, M, lift in blocks]
    except scipy.linalg.LinAlgError as exc:
        raise ArithmeticError("generalized eigen-solver failed on the "
                              "membrane-strain pencil") from exc
    thresh = tol * max(float(ev[-1]) for ev, _, _ in solved)
    cluster = np.concatenate(
        [cluster] + [lift(vec[:, ev <= thresh]) for ev, vec, lift in solved])
    m = len(cluster)
    rho_m = min(ev[ev > thresh].min(initial=np.inf) for ev, _, _ in solved)

    # split off modes whose skew extension is polluted by grid aliasing:
    # Rayleigh-Ritz with the symmetric-defect form separates them exactly
    A = extend_A(chart, cluster).values
    sw = np.sqrt(chart.quad_w)[..., None, None]
    srows = ((A + np.swapaxes(A, -1, -2)) * sw).reshape(m, 9 * chart.n_nodes)
    Gs = srows @ srows.T
    del srows
    s_vals, Qs = np.linalg.eigh(0.5 * (Gs + Gs.T))
    # bimodal spectrum: machine-zero defects vs order-one aliased modes;
    # the cut must sit above the Gram's own eigenvalue roundoff
    s_cut = max((10.0 * tol)**2, 1e-10 * float(s_vals.max(initial=0.0)))
    Qs = Qs[:, s_vals <= s_cut]

    # deterministic smoothness ordering by the bending seminorm, on the
    # cluster's bending rows rotated into the kept defect directions
    rows = Qs.T @ geo.frame_rows(_bending_frames(chart, A), chart.quad_w)
    Gb = rows @ rows.T
    bend_vals, Qb = np.linalg.eigh(0.5 * (Gb + Gb.T))

    keep = min(n_request, bend_vals.size)
    C = Qs @ Qb[:, :keep]
    modes = np.tensordot(C.T, cluster, axes=1)
    return IsometryBasis(
        modes=modes,
        rayleigh=np.sum(geo.strain_rows(chart, _partials(chart, modes))**2,
                        axis=1),
        bending_ritz=bend_vals[:keep], tol=thresh, tol_rel=tol,
        chart=chart, gap_ratio=float(rho_m / thresh), cluster_size=m,
        skew_residuals=_skew_residual(np.tensordot(C.T, A, axes=1)))


def project_onto_basis(basis, fld):
    """M-orthogonal projection onto the basis span; returns (coeffs, residual).

    The residual is relative in the W^{1,2} norm of the basis chart.  A
    stack of fields (k, N1, N2, 3) gives coefficients (k, m) and residuals
    (k,) from one set of basis rows.
    """
    V, single = _field_stack(basis.chart, fld)
    v = _mass_rows(basis.chart, V)
    rows = _mass_rows(basis.chart, basis.modes)
    coeffs = v @ rows.T
    res = v - coeffs @ rows
    norm2 = np.einsum("ij,ij->i", v, v)
    resid = np.sqrt(np.einsum("ij,ij->i", res, res)
                    / np.where(norm2 > 0, norm2, np.inf))
    return (coeffs[0], float(resid[0])) if single else (coeffs, resid)


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
    G = bending_q2_gram(chart, extend_A(chart, fields).values, moduli)
    ev = np.linalg.eigvalsh(0.5 * (G + G.T))
    return CoercivityResult(smallest=float(ev[0]), largest=float(ev[-1]),
                            n_modes=len(fields), empty=False)
