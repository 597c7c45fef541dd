"""Discrete infinitesimal-isometry spaces on a chart.

The constraint functional K(V) = integral of |sym grad V|^2 (orthonormal
frame, Frobenius) is thresholded spectrally against a W^{1,2} mass form,
both Gram matrices of weighted rows of the search fields: the near-null
cluster of the generalized eigenproblem, solved in symmetry blocks (Fassler
& Stiefel, Group Theoretical Methods and Their Applications, 1992) as
standard Hermitian problems in M-orthonormal coordinates, is the discrete
isometry space.  The blocks (see _near_null_blocks) are the rotation
characters of a chart of revolution, all assembled in one batched pass
from one grid column, the reflection parities of the plate, whose
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
    return _defect_max(A + np.swapaxes(A, -1, -2))


def _defect_max(defect):
    """Maximal node norm of the symmetric defects (N1, N2, 3, 3) of one
    field, or per field of a stack (m, N1, N2, 3, 3)."""
    return np.max(np.linalg.norm(defect, axis=(-2, -1)), axis=(-2, -1))


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


def _defect_rows(chart, defect, cols=slice(None)):
    """Rows sqrt(w) (A + A^T) of the symmetric defects (m, N1, n, 3, 3) of
    skew fields A on the grid columns cols: their Gram is the
    symmetric-defect form."""
    sw = np.sqrt(chart.quad_w[:, cols])[..., None, None]
    return (defect * sw).reshape(len(defect), -1)


def _bending_rows(chart, dA, cols=slice(None)):
    """Weighted frame rows of the bending forms of skew fields with
    partials dA on the grid columns cols: the form sym((d_i A) n . t_j)
    of bending_form is the strain_rows formula on the directions."""
    return geo.strain_rows(chart, _directions(chart, dA, cols), cols)


# ---------------------------------------------------------------------------
# isometry basis
# ---------------------------------------------------------------------------

def _cholesky(M):
    """Cholesky factor L, L L^H = M, of a mass block or of each of a stack
    of them.  A mass that is not positive definite raises ArithmeticError."""
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(_PENCIL_FAILURE) from exc


def eigh(F):
    """Eigenvalues (ascending) and eigenvectors of K = F F^H for a symmetry
    block F whose rows are whitened as built (M-orthonormal coordinates),
    so that its pencil K x = rho M x is the standard Hermitian problem.
    F (n, r) may be a stack (..., n, r) of blocks of one shape, solved in
    one call.  A block whose F has no columns (no strain) has the
    eigenvalues 0 and the identity as eigenvectors, with no solve.
    """
    if not F.shape[-1]:
        n = F.shape[-2]
        return (np.zeros(F.shape[:-1]),
                np.broadcast_to(np.eye(n), F.shape[:-1] + (n,)).copy())
    try:
        return np.linalg.eigh(F @ np.swapaxes(F.conj(), -1, -2))
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(_PENCIL_FAILURE) from exc


def _character_pencils(chart):
    """The blocks of the characters k = 0 .. N2/2 of a rotation-invariant
    chart, assembled in one batched pass from grid column 0 (see
    _near_null_blocks): their whitened strain rows F (M = I, see eigh),
    stacked by width, and near.

    Character k holds the fields e_a U_s e^{ih theta}, h = k + SPIN_SHIFTS[s]
    (the profile unit e_a times geometry.SPIN_UNITS[s]), less every part of
    Cartesian harmonic N2/2.  Their rows at column j are a phase (and a
    rotation) times those at column 0, so the Grams are N2 times those of
    the rows on column 0.  There d1 is the axial difference matrix D1, and
    d2 multiplies harmonic h by mu(h), the value of d2(e^{ih theta}) at
    column 0, read for every harmonic from one d2 of the sampled table:
    exact for either theta scheme and past the Nyquist frequency.  So the
    strain rows of e_a U_s are D1[:, a] alpha_s + delta_a mu(h) beta_s,
    alpha_s and beta_s the node rows of the partials (P_1, P_2) = (U_s, 0)
    and (0, U_s).  The spin units are orthonormal, so the mass is block
    diagonal over the spins, with one N1-square block M_h = L_h L_h^H per
    harmonic, and the rows of spin s are whitened as L_h^{-1} conj(S_s).
    If 2k = 0 mod N2 the e_+- fields are conjugate, and they combine into
    the real fields sqrt(2) Re and sqrt(2) Im of the e_+ field (rows
    sqrt(2) Re F_+ and sqrt(2) Im F_+); else pair is True, and each column
    stands for the fields sqrt(2) Re and sqrt(2) Im of its complex field,
    which cover character N2 - k.

    near(Zs) takes the near-null columns of every block at once: their
    spin coordinates x = L_h^{-H} z, and from them the skew extension A on
    column 0 (each spin component of V, V.n and A is one sampled harmonic,
    so its theta-derivative is mu times itself) and the defect and bending
    rows, times sqrt(N2) so that their Grams are those of the lifted fields
    (of each of a pair).
    """
    n1, n2 = chart.shape
    col, U, shifts = slice(0, 1), geo.SPIN_UNITS, geo.SPIN_SHIFTS
    ks = np.arange(n2 // 2 + 1)
    harm = ks[:, None] + shifts
    keep = (harm - n2 / 2) % n2 != 0
    pair = (2 * ks) % n2 != 0
    wave = np.exp(2j * np.pi / n2
                  * (np.outer(np.arange(n2), np.arange(n2)) % n2))
    mu = (chart.d2(wave.real) + 1j * chart.d2(wave.imag))[:, 0]
    eye = np.eye(n1)
    D1 = chart.d1(eye)
    # the mass of the scalar profile units of harmonic h = -1 .. N2/2 + 1
    hs = np.arange(-1, n2 // 2 + 2)
    P = np.stack(np.broadcast_arrays(D1.T, mu[hs % n2, None, None] * eye), -1)
    rows = _mass_rows(chart, np.tile(eye, (len(hs), 1))[:, :, None, None],
                      P.reshape(-1, n1, 1, 2, 1), col).reshape(len(hs), n1, -1)
    L = _cholesky(n2 * (rows.conj() @ np.swapaxes(rows, -1, -2)))
    rhs = np.broadcast_to(np.hstack([D1.T, eye]), (len(hs), n1, 2 * n1))
    LD, Linv = np.split(np.linalg.solve(L, rhs), 2, axis=-1)
    # alpha and beta: strain rows (r, node) of the unit partials, per spin
    unit = np.repeat(np.einsum("ij,sc->sijc", np.eye(2), U)[:, :, None, None],
                     n1, axis=2).reshape(6, n1, 1, 2, 3)
    ab = geo.strain_rows(chart, unit, col).conj().reshape(3, 2, 3, n1)
    h = harm + 1
    F = np.sqrt(n2) * (LD[h][..., None, :] * ab[:, 0, None]
                       + mu[harm % n2].conj()[..., None, None, None]
                       * Linv[h][..., None, :] * ab[:, 1, None])
    F = F.reshape(len(ks), 3, n1, 3 * n1)
    real_z = shifts == 0

    def block(k):
        if pair[k]:
            return F[k, keep[k]].reshape(-1, 3 * n1)
        return np.concatenate([F[k, keep[k] & real_z].real.reshape(-1, 3 * n1),
                               np.sqrt(2) * F[k, 1].real,
                               np.sqrt(2) * F[k, 1].imag])

    # k = 0, the run of characters with every spin, then those next to N2/2
    kf = 1 + int(np.sum(pair & keep.all(axis=1)))
    stacks = ([block(0)[None], F[1:kf].reshape(-1, 3 * n1, 3 * n1)]
              + [block(k)[None] for k in ks[kf:]])

    def near(Zs):
        x, kc = [], []
        for k, Z in zip(ks, Zs):
            z = Z.reshape(len(Z) // n1, n1, Z.shape[1])
            c = np.zeros((3,) + z.shape[1:], complex)
            if pair[k]:
                c[keep[k]] = z
            else:
                c[keep[k] & real_z] = z[:-2]
                c[1] = (z[-2] + 1j * z[-1]) / np.sqrt(2)
                c[2] = c[1].conj()
            x.append(np.moveaxis(
                np.swapaxes(Linv[h[k]].conj(), -1, -2) @ c, -1, 0))
            kc.append(np.full(z.shape[2], k))
        x, kc = np.concatenate(x), np.concatenate(kc)
        V = np.einsum("msa,sc->mac", x, U)
        dV = np.einsum("msa,sc->mac", mu[harm[kc] % n2][..., None] * x, U)
        P = np.stack([D1 @ V, dV], axis=-2)[:, :, None]
        V = V[:, :, None]
        vn = np.einsum("mayc,ayc->may", V, chart.normal[:, col])
        A = _extension(chart, V, P, np.stack(
            [D1 @ vn, mu[kc % n2, None, None] * vn], -1), col)
        mu_A = mu[(kc[:, None, None] + shifts[:, None] - shifts) % n2]
        dA = ((D1 @ A.reshape(len(A), n1, 9)).reshape(A.shape),
              U.T @ (mu_A[:, None, None] * (U.conj() @ A @ U.T)) @ U.conj())
        defect = A + np.swapaxes(A, -1, -2)
        D = np.sqrt(n2) * _defect_rows(chart, defect, col)
        B = np.sqrt(n2) * _bending_rows(chart, dA, col)
        out, lo = [], 0
        for k, Z in zip(ks, Zs):
            s = slice(lo, lo + Z.shape[1])
            lo = s.stop
            cast = np.asarray if pair[k] else np.real
            out.append((cast(D[s]), cast(B[s]), functools.partial(
                _character_finish, x[s], cast(defect[s, :, 0]),
                U[:, None, :] * wave[harm[k] % n2][..., None],
                wave[2 * k % n2] if pair[k] else None), pair[k]))
        return out

    return [a for a in stacks if len(a)], near


def _character_finish(x, defect, waves, twice, C):
    """The fields and skew residuals of the combinations C (m, p) of the
    near-null columns of a character block, from their spin coordinates x
    (m, 3, N1) and column-0 symmetric defects X (m, N1, 3, 3); waves
    (3, N2, 3) are the spin units times their sampled harmonics.

    A real block's field is real, and its defect at column j is X rotated.
    twice = e^{2ik theta_j} of a pair block: each column is phased to a
    real largest entry and gives the fields sqrt(2) Re and sqrt(2) Im of its
    complex field, whose defects at column j are R_j sqrt(2) Re and
    sqrt(2) Im of e^{ik theta_j} X, R_j^T, of squared norms
    |X|^2 +- Re(e^{2ik theta_j} X:X).
    """
    y = np.tensordot(C.T, x, axes=1)
    X = np.tensordot(C.T, defect, axes=1)
    if twice is None:
        return (np.einsum("psa,sjc->pajc", y, waves).real,
                np.max(np.linalg.norm(X, axis=(-2, -1)), axis=-1))
    flat = y.reshape(len(y), -1)
    turn = np.exp(-1j * np.angle(
        flat[np.arange(len(y)), np.argmax(np.abs(flat), axis=1)]))
    y, X = y * turn[:, None, None], X * turn[:, None, None, None]
    V = np.sqrt(2) * np.einsum("psa,sjc->pajc", y, waves)
    sq = np.sum(np.abs(X)**2, axis=(-2, -1))[..., None]
    cross = np.real(np.sum(X * X, axis=(-2, -1))[..., None] * twice)
    skew = [np.sqrt(np.maximum(sq + sign * cross, 0.0)).max(axis=(-2, -1))
            for sign in (1.0, -1.0)]
    return np.concatenate([V.real, V.imag]), np.concatenate(skew)


def _grid_block(chart, lift, Z):
    """The full-grid defect and bending rows of the fields lift(Z), and
    their finish (see _near_null_blocks), from one extend_A."""
    A = extend_A(chart, lift(Z)).values
    defect = A + np.swapaxes(A, -1, -2)

    def finish(C):
        return lift(Z @ C), _defect_max(np.tensordot(C.T, defect, axes=1))

    return (_defect_rows(chart, defect),
            _bending_rows(chart, _derivatives(chart, A)), finish, False)


def _nodal_pencil(chart):
    """The one block of a chart without symmetry (see _near_null_blocks),
    on the 3N fields e psi, capped at MAX_EIG_DOFS dofs.  e is a Cartesian
    axis, and psi = L^{-1} phi are the nodal unit fields phi (along a
    closed axis, times the real Fourier basis without harmonic N2/2)
    whitened once by the Cholesky factor L of their W^{1,2} Gram, so the
    fields e psi are M-orthonormal as built.  Its near-null rows are the
    full-grid rows of the lifted fields."""
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
    L = _cholesky(rows @ rows.T)
    psi, dpsi = (np.linalg.solve(L, X.reshape(len(X), -1)).reshape(X.shape)
                 for X in (phi, dphi))
    nodal = psi.reshape(len(psi), -1).T   # (nodes, unit fields)

    def lift(x):
        V = nodal @ x.reshape(3, len(psi), -1)
        return V.T.reshape((-1,) + chart.shape + (3,))

    S = np.concatenate([geo.strain_rows(chart, dpsi * e) for e in np.eye(3)])
    return [S[None]], lambda Zs: [
        _grid_block(chart, lift, Zs[0]) if Zs[0].shape[1] else None]


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
    """The plate's eight blocks (see _near_null_blocks): the normal fields
    of each reflection parity, then four in-plane pencils.

    The plate is a tensor product: d_k = D_k along axis k, the weights are
    w1 (x) w2, G^{-1/2} = I and t_k = e_k.  With the 1-D factors X_k^p of
    _axis_factors, the columns (X1^a (x) X2^b) (1 + lam1 + lam2)^{-1/2}
    of parity (a, b) are M-orthonormal, and every row below is a Kronecker
    product of 1-D row factors, so no Gram is formed on the grid.
    The reflections of either axis split the in-plane fields into four
    pencils, u1 in parity (a, b) and u2 in parity (1 - a, 1 - b), with the
    strain rows sqrt(w) (D1 u1, D2 u2, sqrt(1/2) (D2 u1 + D1 u2)); their
    near-null rows are the full-grid rows of the lifted fields.  The normal
    fields w e_z of parity (a, b) carry no strain (F has no columns), and
    are exactly skew (no defect rows, skew residuals 0), with the bending
    rows of sqrt(w) (D1 D1 w, D2 D2 w, sqrt(2) D1 D2 w)."""
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
            V[..., comp] = f[0][a][1] @ np.moveaxis(c, -1, 0) @ f[1][b][1].T
            lo = hi
        return V

    def normal_block(lift, R, Z):
        return (None, (R @ Z).T,
                lambda C: (lift(Z @ C), np.zeros(C.shape[1])), False)

    normal, pencils = [], []
    for u1 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        u2 = (1 - u1[0], 1 - u1[1])
        r11, r12 = kron_rows(*u1, 1, 0), kron_rows(*u1, 0, 1)
        r22, r21 = kron_rows(*u2, 0, 1), kron_rows(*u2, 1, 0)
        F = np.block([
            [r11.T, np.zeros((r11.shape[1], len(r22))), np.sqrt(0.5) * r12.T],
            [np.zeros((r22.shape[1], len(r11))), r22.T, np.sqrt(0.5) * r21.T]])
        lift = functools.partial(fields, ((0, u1), (1, u2)))
        pencils.append((F, functools.partial(_grid_block, chart, lift)))
        R = np.vstack([kron_rows(*u1, 2, 0), kron_rows(*u1, 0, 2),
                       np.sqrt(2.0) * kron_rows(*u1, 1, 1)])
        normal.append((np.zeros((R.shape[1], 0)), functools.partial(
            normal_block, functools.partial(fields, ((2, u1),)), R)))
    stacks, rows = zip(*[(F[None], rows) for F, rows in normal + pencils])
    return list(stacks), lambda Zs: [r(Z) if Z.shape[1] else None
                                     for r, Z in zip(rows, Zs)]


def _near_null_blocks(chart, tol):
    """Solve the strain/mass pencil in symmetry blocks and keep the
    eigenvectors with rho <= tol rho_max over all blocks.

    The blocks are the characters of a rotation-invariant chart
    (_character_pencils), the reflection parities of a plate
    (_parity_pencils), or else one nodal block (_nodal_pencil).  Each
    family gives the blocks' strain rows F in M-orthonormal coordinates,
    in stacks of blocks solved by one eigh call each, and near(Zs): for
    the near-null coefficient columns Z of every block (possibly none), the
    rows (D, Bend) of their symmetric defects (None when exactly skew) and
    bending forms, finish(C), the fields and skew residuals of the
    combinations C of the columns (cos before sin within a pair), and the
    pair flag.  Returns the non-empty near-null blocks (S, D, Bend, finish,
    pair), S the strain rows Z^T conj(F) of the columns, the threshold,
    and rho_m, the smallest rejected eigenvalue of any block.
    """
    if geo.rotation_invariant(chart):
        stacks, near = _character_pencils(chart)
    elif chart.family == "plate":
        stacks, near = _parity_pencils(chart)
    else:
        stacks, near = _nodal_pencil(chart)
    solved = [b for stack in stacks for b in zip(*eigh(stack))]
    thresh = tol * max(float(ev[-1]) for ev, _ in solved)
    rho_m = min(ev[ev > thresh].min(initial=np.inf) for ev, _ in solved)
    Zs = [Z[:, ev <= thresh] for ev, Z in solved]
    S = [Z.T @ F.conj() for Z, F in zip(Zs, (F for a in stacks for F in a))]
    del stacks, solved   # the whole blocks are not needed past here
    return ([(s,) + rows for s, Z, rows in zip(S, Zs, near(Zs))
             if Z.shape[1]], thresh, rho_m)


def isometry_basis(chart, n_request=40, tol=1e-8):
    """Spectral near-null basis of the membrane-strain form.

    Solves the generalized eigenproblem K v = rho M v on the resolvable
    (sub-Nyquist) nodal fields in blocks, one per character on
    rotation-invariant charts, one per reflection parity on the plate (the
    in-plane fields in four pencils, the normal fields in four blocks of
    their own), else one (_nodal_pencil, capped by MAX_EIG_DOFS), each as a
    standard Hermitian problem in M-orthonormal coordinates (eigh), and
    accepts eigenmodes with rho <= tol * rho_max over all blocks.  Product
    aliasing near the grid's Nyquist frequency pollutes some of them: a
    Rayleigh-Ritz step with the Gram of the weighted symmetric defects of
    the skew extensions drops every direction whose defect eigenvalue
    exceeds max((10 tol)^2, 1e-10 s_max), s_max the largest one.  The rest
    is reordered by the bending seminorm and at most n_request modes are
    returned; cluster_size still reports the raw near-null count.  Both
    Grams commute with the chart's symmetries, so both Ritz steps run per
    block: on a character block, from its complex fields on grid column 0
    (an eigenvalue of a pair block counts for both lifted fields); on the
    plate's normal blocks, which are exactly skew, with no defect Gram.
    Bending values are merged in ascending order (ties by block, then Re
    before Im), and only the kept vectors are lifted.  The returned modes'
    numbers come from their blocks as well: rayleigh is the squared norm of
    each kept column's strain rows, and skew_residuals the largest node
    norm of its symmetric defect (on a character block from column 0 and
    the character's phases, see _character_finish; 0 on the plate's normal
    blocks).  gap_ratio is rho_m / (tol rho_max), rho_m the smallest
    rejected eigenvalue of any block (inf when every eigenvalue is
    accepted).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if n_request < 0:
        raise ValueError("n_request must be non-negative")
    near, thresh, rho_m = _near_null_blocks(chart, tol)

    # split off modes whose skew extension is polluted by grid aliasing:
    # Rayleigh-Ritz with the symmetric-defect form separates them exactly
    defects = [(None, None) if D is None else np.linalg.eigh(D.conj() @ D.T)
               for _, D, _, _, _ in near]
    # bimodal spectrum: machine-zero defects vs order-one aliased modes;
    # the cut must sit above the Gram's own eigenvalue roundoff
    s_max = max((float(s[-1]) for s, _ in defects if s is not None),
                default=0.0)
    s_cut = max((10.0 * tol)**2, 1e-10 * s_max)

    # deterministic smoothness ordering by the bending seminorm, on the
    # bending rows rotated into the kept defect directions; a pair block
    # lists each value twice, for its Re and its Im field
    vals, coeffs = [], []
    for (_, _, Bend, _, pair), (s, Q) in zip(near, defects):
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
    rayleigh, skew = np.empty(order.size), np.empty(order.size)
    for (S, _, _, finish, pair), C, lo, hi in zip(near, coeffs, offsets,
                                                  offsets[1:]):
        sel = np.flatnonzero((order >= lo) & (order < hi))
        if sel.size:
            col, part = np.divmod(order[sel] - lo, 1 + pair)
            cols, pos = np.unique(col, return_inverse=True)
            fields, res = finish(C[:, cols])
            modes[sel] = fields[part * cols.size + pos]
            skew[sel] = res[part * cols.size + pos]
            rayleigh[sel] = np.sum(np.abs(C[:, cols].T @ S)**2, axis=1)[pos]
    return IsometryBasis(
        modes=modes, rayleigh=rayleigh, bending_ritz=vals[order], tol=thresh,
        tol_rel=tol, chart=chart, gap_ratio=float(rho_m / thresh),
        cluster_size=int(sum((1 + b[4]) * len(b[0]) for b in near)),
        skew_residuals=skew)


def _projection(v, rows):
    """Coefficients (k, m) and W^{1,2}-relative residuals (k,) of the
    M-orthogonal projection of k fields, given by their mass rows v, onto
    the span of m M-orthonormal modes with the mass rows rows."""
    coeffs = v @ rows.T
    res = v - coeffs @ rows
    norm2 = np.einsum("ij,ij->i", v, v)
    return coeffs, np.sqrt(np.einsum("ij,ij->i", res, res)
                           / np.where(norm2 > 0, norm2, np.inf))


def project_onto_basis(basis, fld):
    """M-orthogonal projection onto the basis span; returns (coeffs, residual).

    The residual is relative in the W^{1,2} norm of the basis chart.  A
    stack of fields (k, N1, N2, 3) gives coefficients (k, m) and residuals
    (k,) from one set of basis rows.
    """
    V, single = _field_stack(basis.chart, fld)
    coeffs, resid = _projection(_mass_rows(basis.chart, V),
                                _mass_rows(basis.chart, basis.modes))
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
