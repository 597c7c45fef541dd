"""Discrete infinitesimal-isometry spaces on a chart.

The constraint functional K(V) = integral of |sym grad V|^2 (orthonormal
frame, Frobenius) is thresholded spectrally against a W^{1,2} mass form,
both Gram matrices of weighted rows of the search fields: the near-null
cluster of the generalized eigenproblem, solved in symmetry blocks (Fassler
& Stiefel, Group Theoretical Methods and Their Applications, 1992) as
standard Hermitian problems in M-orthonormal coordinates, is the discrete
isometry space.  The blocks (see eigh) are the rotation characters of a
chart of revolution, the reflection parities of the plate, whose
M-orthonormal coordinates and rows are Kronecker products of 1-D
factors, and else one block of whitened nodal fields.
Within the cluster, modes are reordered by a secondary Rayleigh-Ritz
step with the bending seminorm, which makes the returned basis
deterministic and smoothness-ordered (LAPACK otherwise returns an
arbitrary rotation of the degenerate near-zero eigenspace).
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import material as mat
from . import operators as ops
from .geometry import VectorField3, as_vector_field

MAX_EIG_DOFS = 6000
_PENCIL_FAILURE = "generalized eigen-solver failed on the membrane-strain pencil"


@dataclass
class SkewField:
    """Per-node 3x3 matrix field extending the displacement gradient, or a
    stack of such fields along one leading mode axis."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim not in (4, 5) or self.values.shape[-2:] != (3, 3):
            raise ValueError("SkewField expects shape (N1, N2, 3, 3) "
                             "or (m, N1, N2, 3, 3)")

    @property
    def shape(self):
        """(N1, N2), or (m, N1, N2) for a stack."""
        return self.values.shape[:-2]

    @functools.cached_property
    def skew_residual(self):
        """Maximal symmetric defect |A + A^T| over the nodes: a float, or
        one value per field of a stack.  Computed on first access."""
        r = _skew_residual(self.values)
        return float(r) if self.values.ndim == 4 else r


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
    symmetric defect is reported per field (skew_residual), never raised.
    """
    V, single = _field_stack(chart, fld)
    vn = np.einsum("mxyc,xyc->mxy", V, chart.normal)
    A = _extension(chart, V, _partials(chart, V),
                   np.stack(_derivatives(chart, vn), axis=-1))
    return SkewField(A[0] if single else A)


def _extension(chart, V, P, dvn, cols=slice(None)):
    """extend_A on the grid columns cols, from the values V (m, N1, n, 3),
    the partials P (m, N1, n, 2, 3) and the partials dvn (m, N1, n, 2) of
    V.n there; real or complex."""
    dn = np.stack([chart.dn1[:, cols], chart.dn2[:, cols]], axis=-1)
    An = ((dn @ (chart.dual[:, cols] @ V[..., None]))[..., 0]
          - geo.lift(chart, dvn[..., None], cols)[..., 0, :])
    return (geo.lift(chart, P, cols)
            + An[..., None] * chart.normal[:, cols, None, :])


def _skew_residual(A):
    """Maximal symmetric defect |A + A^T| over the nodes of one field
    (N1, N2, 3, 3), or per field of a stack (m, N1, N2, 3, 3)."""
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
    return _directions(chart, dA).reshape(A.shape + (2, 3))


def _directions(chart, dA, cols=slice(None)):
    """The vectors (d_i A) n (m, N1, n, 2, 3) of skew fields with partials
    dA = (d1 A, d2 A) (m, N1, n, 3, 3) on the grid columns cols."""
    return np.stack([np.einsum("mxycd,xyd->mxyc", d, chart.normal[:, cols])
                     for d in dA], axis=-2)


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
    return np.linalg.solve(L, raw).reshape((6,) + chart.pos.shape)


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
    # the left singular vectors past the rank span the complement of
    # range(P); an unpivoted QR's diagonal does not reveal that rank
    U, sv, _ = np.linalg.svd(P)
    rank = int(np.sum(sv > 1e-10 * max(sv.max(), 1e-300)))
    C = U[:, rank:]
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


def rigid_complement_gram(chart, basis, moduli):
    """The rigid-complemented fields (p, N1, N2, 3) of a basis
    (_rigid_complement), their skew extensions A and the symmetrized
    bending Gram G over them; A and G are None if no field remains."""
    fields, _ = _rigid_complement(chart, basis)
    if not len(fields):
        return fields, None, None
    A = extend_A(chart, fields).values
    G = bending_q2_gram(chart, A, moduli)
    return fields, A, 0.5 * (G + G.T)


def _defect_rows(chart, A, cols=slice(None)):
    """Rows sqrt(w) (A + A^T) of skew fields A (m, N1, n, 3, 3) on the grid
    columns cols: their Gram is the symmetric-defect form."""
    sw = np.sqrt(chart.quad_w[:, cols])[..., None, None]
    return ((A + np.swapaxes(A, -1, -2)) * sw).reshape(len(A), -1)


def _bending_rows(chart, dA, cols=slice(None)):
    """Weighted frame rows of the bending forms of skew fields with
    partials dA on the grid columns cols: the form sym((d_i A) n . t_j)
    of bending_form is the strain_rows formula on the directions."""
    return geo.strain_rows(chart, _directions(chart, dA, cols), cols)


# ---------------------------------------------------------------------------
# isometry basis
# ---------------------------------------------------------------------------

def _whitener(M):
    """W = L^{-H} for the Cholesky factor L of a mass block M = L L^H, so
    that W^H M W = I.  A mass that is not positive definite raises
    ArithmeticError."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(_PENCIL_FAILURE) from exc
    return np.linalg.inv(L).conj().T


def eigh(F, W=None):
    """Eigenvalues (ascending) and eigenvectors of the pencil
    K x = rho M x of a symmetry block (F, W, lift, rows, pair), with
    K = F F^H and M = (W W^H)^{-1}, or M = I when W is None (coordinates
    that are M-orthonormal as built).

    Solved as the standard Hermitian problem of the whitened rows W^H F:
    the eigenvectors z returned are M-orthonormal coordinates, and x = W z
    are the pencil's (M-orthonormal) eigenvectors.  A block whose F has no
    columns (no strain) has the eigenvalues 0 and the identity as
    eigenvectors, with no solve.
    """
    if not F.shape[1]:
        return np.zeros(len(F)), np.eye(len(F))
    Fw = F if W is None else W.conj().T @ F
    try:
        return np.linalg.eigh(Fw @ Fw.conj().T)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(_PENCIL_FAILURE) from exc


def _character_pencil(chart, k):
    """The pencil (F, W, lift, rows, pair) of character k of a
    rotation-invariant chart (see eigh).

    The search fields are profile unit vectors times e_z e^{ik theta}, e_+
    e^{i(k+1) theta} and e_- e^{i(k-1) theta} (geometry.SPIN_UNITS, with
    e_+- = (e_x -+ i e_y)/sqrt(2)), less every part of Cartesian harmonic
    N2/2.  Their rows at column j are a phase (and a rotation) times those
    at column 0: K = N2 S0^H S0 and M = N2 M0^H M0, so F = sqrt(N2)
    conj(S0) and W whitens M (at most 3 N1 square).  If 2k = 0 mod N2 the
    e_+- parts are combined into real fields; else pair is True, and lift
    phases each column to a real largest entry and returns sqrt(2) Re and
    sqrt(2) Im of its field (which cover character N2 - k).  rows(x) gives
    the skew-defect and bending rows of the fields of columns x on column
    0, times sqrt(N2), so that their Hermitian Grams are those of the
    lifted fields (of each of the pair).  Every spin component of V, V.n
    and A is one sampled harmonic h, and its theta-derivative is mu(h), the
    value of d2(e^{ih theta}) at column 0, times itself: exact for either
    theta scheme and past the Nyquist frequency.
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
    D1 = chart.d1(eye)
    V = np.einsum("ab,pc->pabc", eye, G[:, 0]).reshape(-1, n1, 1, 3)
    dunit = np.stack([D1.T, eye], -1)
    P = np.einsum("abd,pdc->pabdc", dunit, np.stack([G[:, 0], dG[:, 0]], 1))
    P = P.reshape(-1, n1, 1, 2, 3)
    col = slice(0, 1)
    S = geo.strain_rows(chart, P, col)
    Mr = _mass_rows(chart, V, P, col)
    E = np.exp(2j * np.pi / n2 * np.outer(k + np.arange(-2, 3),
                                          np.arange(n2)))
    mu = (chart.d2(E.real) + 1j * chart.d2(E.imag))[:, 0]   # h = k-2 .. k+2
    U = geo.SPIN_UNITS
    mu_A = mu[2 + geo.SPIN_SHIFTS[:, None] - geo.SPIN_SHIFTS]

    def rows(x):
        V0, P0 = (np.tensordot(x.T, X, axes=1) for X in (V, P))
        vn = np.einsum("mxyc,xyc->mxy", V0, chart.normal[:, col])
        A = _extension(chart, V0, P0, np.stack([D1 @ vn, mu[2] * vn], -1),
                       col)
        dA = ((D1 @ A.reshape(len(A), n1, 9)).reshape(A.shape),
              U.T @ (mu_A * (U.conj() @ A @ U.T)) @ U.conj())
        out = (np.sqrt(n2) * _defect_rows(chart, A, col),
               np.sqrt(n2) * _bending_rows(chart, dA, col))
        return tuple(r.real for r in out) if real else out

    def lift(x):
        if not real:
            x = x * np.exp(-1j * np.angle(
                x[np.argmax(np.abs(x), axis=0), np.arange(x.shape[1])]))
        F = np.einsum("pim,pjc->mijc", x.reshape(len(G), n1, -1), G)
        return F if real else np.sqrt(2) * np.concatenate([F.real, F.imag])

    return (np.sqrt(n2) * S.conj(), _whitener(n2 * (Mr.conj() @ Mr.T)),
            lift, rows, not real)


def _nodal_pencil(chart):
    """The one block (F, W, lift, rows, pair) of a chart without symmetry
    (see eigh), on the 3N fields e psi, capped at MAX_EIG_DOFS dofs.  e is
    a Cartesian axis, and psi = L^{-1} phi are the nodal unit fields phi
    (along a closed axis, times the real Fourier basis without harmonic
    N2/2) whitened once by the Cholesky factor L of their W^{1,2} Gram, so
    the fields e psi are M-orthonormal as built and W is None.  rows(x)
    are the full-grid skew-defect and bending rows of lift(x)."""
    if 3 * chart.n_nodes > MAX_EIG_DOFS:
        raise ValueError("grid too large for a dense strain pencil (%d dofs "
                         "> %d)" % (3 * chart.n_nodes, MAX_EIG_DOFS))
    n1, n2 = chart.shape
    T = np.eye(n2)
    if chart.periodic2:
        th = np.outer(np.arange(n2), np.arange(1, (n2 + 1) // 2)) * 2 * np.pi / n2
        T = np.hstack([np.ones((n2, 1)), np.sqrt(2) * np.cos(th),
                       np.sqrt(2) * np.sin(th)]) / np.sqrt(n2)
    phi = np.einsum("ab,jq->aqbj", np.eye(n1), T).reshape(-1, n1, n2, 1)
    dphi = _partials(chart, phi)
    rows = _mass_rows(chart, phi, dphi)
    Wt = _whitener(rows @ rows.T).T
    psi, dpsi = (np.tensordot(Wt, X, axes=1) for X in (phi, dphi))
    nodal = psi.reshape(len(psi), -1).T   # (nodes, unit fields)

    def lift(x):
        V = nodal @ x.reshape(3, len(psi), -1)
        return V.T.reshape((-1,) + chart.shape + (3,))

    S = np.concatenate([geo.strain_rows(chart, dpsi * e) for e in np.eye(3)])
    return [(S, None, lift, lambda x: _grid_rows(chart, lift(x)), False)]


def _grid_rows(chart, V):
    """The full-grid skew-defect and bending rows of a field stack V."""
    A = extend_A(chart, V).values
    return _defect_rows(chart, A), _bending_rows(chart, _derivatives(chart, A))


def _parity_units(n):
    """Orthonormal bases (n, n_p) of the even (p = 0) and odd (p = 1)
    vectors under the reversal J of n samples, in the coordinates
    (e_i +- e_{n-1-i}) / sqrt(2), i < n/2; the center node of odd n is
    even."""
    half, I = n // 2, np.eye(n)
    pairs = I[:, :half], I[:, ::-1][:, :half]
    even = np.hstack([(pairs[0] + pairs[1]) / np.sqrt(2), I[:, half:n - half]])
    return even, (pairs[0] - pairs[1]) / np.sqrt(2)


def _axis_factors(n, h):
    """The 1-D factors of an open axis of n nodes and spacing h, per
    reflection parity p: (lam, X, rows) with X (n, n_p) of parity p,
    X^T W X = I and X^T T X = diag(lam) (ascending) for the trapezoid
    weights W and T = D^T W D, D the first difference (fd1_apply).  Both
    commute with the reversal J (J D J = -D), so the pencil (T, W) splits
    by parity, and X comes from the SVD of the rows sqrt(W) D of the
    parity's W-whitened units.  rows are sqrt(W) X, sqrt(W) D X and sqrt(W) D D X, of parities p,
    1 - p and p, each in the coordinates of _parity_units of its parity
    (n_p, n_{1-p} and n_p rows): their products are the 1-D Grams."""
    E = _parity_units(n)
    D = ops.fd1_apply(np.eye(n), h)
    w = ops.trapezoid_weights(n, h, periodic=False)
    sw = np.sqrt(w)[:, None]
    out = []
    for p in (0, 1):
        iw = (E[p].T**2 @ w)**-0.5   # E^T W E is diagonal
        # singular vectors of the whitened rows keep X^T W X = I to
        # roundoff relative to 1 + lam, not to the largest lam
        _, sv, Vt = np.linalg.svd(sw * (D @ E[p]) * iw)
        lam, X = sv[::-1]**2, E[p] @ (iw[:, None] * Vt[::-1].T)
        DX = D @ X
        out.append((lam, X, (E[p].T @ (sw * X), E[1 - p].T @ (sw * DX),
                             E[p].T @ (sw * (D @ DX)))))
    return out


def _parity_pencils(chart):
    """The plate's eight blocks (F, W, lift, rows, pair): the normal
    fields of each reflection parity, then four in-plane pencils (see eigh).

    The plate is a tensor product: d_k = D_k along axis k, the weights are
    w1 (x) w2, G^{-1/2} = I and t_k = e_k.  With the 1-D factors X_k^p of
    _axis_factors, the columns (X1^a (x) X2^b) (1 + lam1 + lam2)^{-1/2}
    of parity (a, b) are M-orthonormal (W is None), and every row below is a
    Kronecker product of 1-D row factors, so no Gram is formed on the grid.
    The reflections of either axis split the in-plane fields into four
    pencils, u1 in parity (a, b) and u2 in parity (1 - a, 1 - b), with the
    strain rows sqrt(w) (D1 u1, D2 u2, sqrt(1/2) (D2 u1 + D1 u2)); their
    rows(x) are the full-grid rows of lift(x).  The normal fields w e_z of
    parity (a, b) carry no strain (F has no columns), and are exactly skew
    (no defect rows), with the bending rows of sqrt(w) (D1 D1 w, D2 D2 w,
    sqrt(2) D1 D2 w)."""
    f = [_axis_factors(n, h) for n, h in zip(chart.shape, chart.du)]
    scale = {(a, b): (1.0 + f[0][a][0][:, None] + f[1][b][0]).ravel()**-0.5
             for a in (0, 1) for b in (0, 1)}

    def kron_rows(a, b, i, j):
        """Row factor i of axis 1 (0 values, 1 first and 2 second
        differences) times row factor j of axis 2, on the M-orthonormal
        columns of parity (a, b)."""
        return np.kron(f[0][a][2][i], f[1][b][2][j]) * scale[a, b]

    def fields(parts, x):
        """The fields of the coefficient columns x, stacked in the order of
        parts: (Cartesian component, parity)."""
        V = np.zeros((x.shape[1],) + chart.shape + (3,))
        lo = 0
        for comp, (a, b) in parts:
            hi = lo + scale[a, b].size
            c = (scale[a, b][:, None] * x[lo:hi]).reshape(
                len(f[0][a][0]), len(f[1][b][0]), -1)
            V[..., comp] = np.einsum("xi,ijm,yj->mxy", f[0][a][1], c,
                                     f[1][b][1])
            lo = hi
        return V

    normal, pencils = [], []
    for u1 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        u2 = (1 - u1[0], 1 - u1[1])
        r11, r12 = kron_rows(*u1, 1, 0), kron_rows(*u1, 0, 1)
        r22, r21 = kron_rows(*u2, 0, 1), kron_rows(*u2, 1, 0)
        F = np.block([
            [r11.T, np.zeros((r11.shape[1], len(r22))), np.sqrt(0.5) * r12.T],
            [np.zeros((r22.shape[1], len(r11))), r22.T, np.sqrt(0.5) * r21.T]])
        lift = functools.partial(fields, ((0, u1), (1, u2)))
        pencils.append((F, None, lift,
                        lambda x, lift=lift: _grid_rows(chart, lift(x)),
                        False))
        R = np.vstack([kron_rows(*u1, 2, 0), kron_rows(*u1, 0, 2),
                       np.sqrt(2.0) * kron_rows(*u1, 1, 1)])
        normal.append((np.zeros((R.shape[1], 0)), None,
                       functools.partial(fields, ((2, u1),)),
                       lambda x, R=R: (None, (R @ x).T), False))
    return normal + pencils


def _near_null_blocks(chart, tol):
    """Solve the strain/mass pencil in symmetry blocks (F, W, lift, rows,
    pair) and keep the eigenvectors with rho <= tol rho_max over all
    blocks.

    The blocks are the characters of a rotation-invariant chart
    (_character_pencil), the reflection parities of a plate
    (_parity_pencils), or else one nodal block (_nodal_pencil).  Returns
    the non-empty near-null blocks (X, lift, rows, pair) of coefficient
    columns X, the threshold, and rho_m, the smallest rejected eigenvalue
    of any block.  Only the near-null eigenvectors of a block with a
    whitener W are mapped back from M-orthonormal coordinates, X = W Z.
    """
    if geo.rotation_invariant(chart):
        blocks = [_character_pencil(chart, k)
                  for k in range(chart.shape[1] // 2 + 1)]
    elif chart.family == "plate":
        blocks = _parity_pencils(chart)
    else:
        blocks = _nodal_pencil(chart)
    solved = [eigh(F, W) for F, W, *_ in blocks]
    thresh = tol * max(float(ev[-1]) for ev, _ in solved)
    rho_m = min(ev[ev > thresh].min(initial=np.inf) for ev, _ in solved)
    near = [(Z[:, ev <= thresh] if W is None else W @ Z[:, ev <= thresh],)
            + tuple(rest) for (ev, Z), (_, W, *rest) in zip(solved, blocks)]
    return [b for b in near if b[0].shape[1]], thresh, rho_m


def isometry_basis(chart, n_request=40, tol=1e-8):
    """Spectral near-null basis of the membrane-strain form.

    Solves the generalized eigenproblem K v = rho M v on the resolvable
    (sub-Nyquist) nodal fields in blocks, one per character on
    rotation-invariant charts, one per reflection parity on the plate (the
    in-plane fields in four pencils, the normal fields in four blocks of
    their own), else one (_nodal_pencil, capped by MAX_EIG_DOFS), each as a
    standard Hermitian problem in M-orthonormal coordinates (eigh), and
    accepts eigenmodes with rho <= tol * rho_max over all blocks; only
    those are mapped back from whitened coordinates.  Product aliasing near
    the grid's Nyquist frequency pollutes some of them: a Rayleigh-Ritz
    step with the Gram of the weighted symmetric defects of the skew
    extensions drops every direction whose defect eigenvalue exceeds
    max((10 tol)^2, 1e-10 s_max), s_max the largest one.  The rest is
    reordered by the bending seminorm and at most n_request modes are
    returned; cluster_size still reports the raw near-null count.  Both Grams commute with the chart's symmetries, so both Ritz
    steps run per block: on a character block, from its complex fields on
    grid column 0 (an eigenvalue of a pair block counts for both lifted
    fields); on the plate's normal blocks, which are exactly skew, with
    no defect Gram.  Bending values are merged in ascending order (ties by
    block, then Re before Im), and only the kept vectors are lifted.
    gap_ratio is rho_m / (tol rho_max), rho_m the smallest rejected
    eigenvalue of any block (inf when every eigenvalue is accepted).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if n_request < 0:
        raise ValueError("n_request must be non-negative")
    near, thresh, rho_m = _near_null_blocks(chart, tol)

    # split off modes whose skew extension is polluted by grid aliasing:
    # Rayleigh-Ritz with the symmetric-defect form separates them exactly
    steps = []
    for X, _, rows, _ in near:
        D, Bend = rows(X)
        s, Q = (None, None) if D is None else np.linalg.eigh(D.conj() @ D.T)
        steps.append((Bend, s, Q))
    # bimodal spectrum: machine-zero defects vs order-one aliased modes;
    # the cut must sit above the Gram's own eigenvalue roundoff
    s_max = max((float(s[-1]) for _, s, _ in steps if s is not None),
                default=0.0)
    s_cut = max((10.0 * tol)**2, 1e-10 * s_max)

    # deterministic smoothness ordering by the bending seminorm, on the
    # bending rows rotated into the kept defect directions; a pair block
    # lists each value twice, for its Re and its Im field
    vals, coeffs = [], []
    for (_, _, _, pair), (Bend, s, Q) in zip(near, steps):
        if Q is not None:
            Q = Q[:, s <= s_cut]
            Bend = Q.T @ Bend
        bend, Qb = np.linalg.eigh(Bend.conj() @ Bend.T)
        vals.append(np.repeat(bend, 1 + pair))
        coeffs.append(Qb if Q is None else Q @ Qb)
    offsets = np.cumsum([0] + [v.size for v in vals])
    vals = np.concatenate(vals)
    order = np.argsort(vals, kind="stable")[:n_request]

    modes = np.empty((order.size,) + chart.shape + (3,))
    for (X, lift, _, pair), C, lo, hi in zip(near, coeffs, offsets,
                                             offsets[1:]):
        sel = np.flatnonzero((order >= lo) & (order < hi))
        if sel.size:
            col, part = np.divmod(order[sel] - lo, 1 + pair)
            cols, pos = np.unique(col, return_inverse=True)
            F = lift(X @ C[:, cols])
            modes[sel] = F.reshape((1 + pair, -1) + F.shape[1:])[part, pos]
    return IsometryBasis(
        modes=modes,
        rayleigh=np.sum(geo.strain_rows(chart, _partials(chart, modes))**2,
                        axis=1),
        bending_ritz=vals[order], tol=thresh, tol_rel=tol,
        chart=chart, gap_ratio=float(rho_m / thresh),
        cluster_size=sum((1 + b[3]) * b[0].shape[1] for b in near),
        skew_residuals=extend_A(chart, modes).skew_residual)


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
    fields, _, G = rigid_complement_gram(chart, basis, moduli)
    if G is None:
        return CoercivityResult(smallest=np.nan, largest=np.nan,
                                n_modes=0, empty=True)
    ev = np.linalg.eigvalsh(G)
    return CoercivityResult(smallest=float(ev[0]), largest=float(ev[-1]),
                            n_modes=len(fields), empty=False)
