"""Stored-energy density, its quadratic form at the identity, and the
relaxed tangential quadratic form with its minimizing normal vector.

The default material is isotropic St. Venant-Kirchhoff,
W(F) = mu |E|^2 + lambda/2 (tr E)^2 with E = (F^T F - I)/2.  It is frame
invariant and vanishes exactly on rotations.  svk_density is its one
definition: it reads the strain 2E from its components in any basis
whose first vector is a unit normal to the other two, and w_density is
its Cartesian case.  An anisotropic material may be supplied as a 6x6
symmetric coefficient matrix acting on symmetric strains (Voigt order
11, 22, 33, 23, 13, 12 with engineering shears); every moduli object
exposes q3 as such a ``voigt`` matrix.

The relaxed form Q2(x, F) = min_c q3(F + c (x) n + n (x) c) depends on the
point through the orthonormal frame (e1, e2, n) of the tangent plane.
q2_frame_matrix writes it as a Schur complement of the Voigt matrix in
that frame; q2_relax, q2_value and q2_rows read this one matrix, and
q2_numeric is an independent oracle.

All functions broadcast over leading node dimensions.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ElasticModuli:
    """Isotropic Lame moduli (pressure units)."""

    mu: float
    lam: float
    isotropic = True

    def __post_init__(self):
        if not np.all(np.isfinite([self.mu, self.lam])):
            raise ValueError("Lame moduli must be finite, got mu = %g, "
                             "lambda = %g" % (self.mu, self.lam))
        if not (self.mu > 0):
            raise ValueError("shear modulus mu must be positive")
        if self.lam < 0:
            raise ValueError("first Lame parameter lambda must be nonnegative")
        if not (2.0 * self.mu + self.lam > 0):
            raise ValueError("2*mu + lambda must be positive")

    @property
    def voigt(self):
        """6x6 Voigt matrix of q3: 2 mu I + lambda on the normal strains,
        mu I on the engineering shears."""
        C = np.zeros((6, 6))
        C[:3, :3] = 2.0 * self.mu * np.eye(3) + self.lam
        C[3:, 3:] = self.mu * np.eye(3)
        return C


@dataclass(frozen=True)
class AnisotropicModuli:
    """Quadratic form on symmetric 3x3 strains given by a 6x6 Voigt matrix."""

    voigt: np.ndarray
    isotropic = False

    def __post_init__(self):
        m = np.asarray(self.voigt, dtype=float)
        if m.shape != (6, 6) or not np.allclose(m, m.T, atol=1e-12):
            raise ValueError("expected a symmetric 6x6 coefficient matrix")
        if np.min(np.linalg.eigvalsh(m)) <= 0:
            raise ValueError("coefficient matrix must be positive definite")
        object.__setattr__(self, "voigt", m)


@dataclass
class RelaxationResult:
    """Value of the relaxed form and the minimizing completion vector.

    The value equals q3 evaluated on F + c (x) n + n (x) c, with F embedded
    as sum F_ab e_a (x) e_b in the tangent frame (e1, e2, n).
    """

    value: np.ndarray
    c: np.ndarray


def _sym(G):
    return 0.5 * (G + np.swapaxes(G, -1, -2))


def _voigt(S):
    """Symmetric 3x3 -> Voigt 6-vector with engineering shear strains."""
    return np.stack([S[..., 0, 0], S[..., 1, 1], S[..., 2, 2],
                     2 * S[..., 1, 2], 2 * S[..., 0, 2], 2 * S[..., 0, 1]], axis=-1)


def svk_density(D, moduli, dual_gram=None, basis=None):
    """St. Venant-Kirchhoff energy density of the strain written in a basis.

    D (..., 3, 3) is symmetric and holds the components of
    2E = F^T F - I = sum_ab D_ab b_a (x) b_b on basis rows b_0, b_1, b_2,
    where b_0 is a unit vector orthogonal to b_1 and b_2, so the Gram
    b b^T is diag(1, K).  Isotropic moduli read only K (``dual_gram``,
    (..., 2, 2)):

        W = mu/4 tr((D B)^2) + lambda/8 (tr D B)^2,  B = diag(1, K),

    which is mu |E|^2 + lambda/2 (tr E)^2.  Anisotropic moduli read only
    the rows (``basis``, (..., 3, 3)) and return q3(E)/2 of the Cartesian
    strain E = b^T D b / 2.  Both default to the Cartesian basis.
    """
    D = np.asarray(D, dtype=float)
    if not moduli.isotropic:
        b = np.eye(3) if basis is None else np.asarray(basis, dtype=float)
        return 0.5 * q3(0.5 * (np.swapaxes(b, -1, -2) @ D @ b), moduli)
    K = np.eye(2) if dual_gram is None else dual_gram
    d00, d01, d02 = D[..., 0, 0], D[..., 0, 1], D[..., 0, 2]
    d11, d12, d22 = D[..., 1, 1], D[..., 1, 2], D[..., 2, 2]
    k11, k12, k22 = K[..., 0, 0], K[..., 0, 1], K[..., 1, 1]
    x11, x12 = d11 * k11 + d12 * k12, d11 * k12 + d12 * k22   # X = D_TT K
    x21, x22 = d12 * k11 + d22 * k12, d12 * k12 + d22 * k22
    tr_db = d00 + x11 + x22
    tr_db2 = (d00 * d00 + x11 * x11 + 2.0 * x12 * x21 + x22 * x22
              + 2.0 * (d01 * (d01 * k11 + d02 * k12)
                       + d02 * (d01 * k12 + d02 * k22)))
    return 0.25 * moduli.mu * tr_db2 + 0.125 * moduli.lam * tr_db * tr_db


def w_density(F, moduli):
    """St. Venant-Kirchhoff energy density of a deformation gradient: the
    Cartesian case D = F^T F - I of svk_density."""
    F = np.asarray(F, dtype=float)
    return svk_density(np.einsum("...ki,...kj->...ij", F, F) - np.eye(3),
                       moduli)


def q3(G, moduli):
    """Hessian quadratic form of the density at the identity.

    For isotropic moduli: 2 mu |sym G|^2 + lambda (tr G)^2.  Vanishes on
    skew matrices and is positive definite on symmetric ones.
    """
    return q3_bilinear(G, G, moduli)


def q3_bilinear(G1, G2, moduli):
    """Symmetric bilinear form associated with q3: the Voigt contraction
    of sym G1 and sym G2."""
    v1, v2 = (_voigt(_sym(np.asarray(G, float))) for G in (G1, G2))
    return np.einsum("...i,ij,...j->...", v1, moduli.voigt, v2)


def _frame_strains():
    """In frame components: the orthonormal tangential strains e1 e1, e2 e2,
    (e1 e2 + e2 e1)/sqrt(2), then the completions e_k n + n e_k."""
    B = np.zeros((6, 3, 3))
    B[0, 0, 0] = B[1, 1, 1] = 1.0
    B[2, 0, 1] = B[2, 1, 0] = np.sqrt(0.5)
    B[3:, :, 2] += np.eye(3)
    B[3:, 2, :] += np.eye(3)
    return B


def q2_frame_matrix(moduli, frame=None):
    """Matrix of the relaxed form and its completion map in a tangent frame.

    ``frame`` (..., 3, 3) holds the rows e1, e2, n of an orthonormal frame
    (the plate frame by default).  With M the Voigt matrix written on the
    six strains of _frame_strains, returns the Schur complement
    Q = M_tt - M_tn M_nn^-1 M_nt, so that Q2(F) = v.Q v on
    v = (F11, F22, sqrt(2) F12), and K = -M_nn^-1 M_nt, so that the
    minimizing completion is c = sum_k (K v)_k e_k.  Isotropic moduli give
    the same Q and K in every frame, so those are formed once.
    """
    if frame is None or moduli.isotropic:
        frame = np.eye(3)
    R = np.asarray(frame, dtype=float)[..., None, :, :]
    W = _voigt(np.swapaxes(R, -1, -2) @ _frame_strains() @ R)
    M = W @ moduli.voigt @ np.swapaxes(W, -1, -2)
    K = -np.linalg.solve(M[..., 3:, 3:], M[..., 3:, :3])
    return M[..., :3, :3] + M[..., :3, 3:] @ K, K


def _frame_vector(F):
    """v = (F11, F22, sqrt(2) F12) of symmetric (..., 2, 2) forms."""
    return np.stack([F[..., 0, 0], F[..., 1, 1], np.sqrt(2.0) * F[..., 0, 1]],
                    axis=-1)


def q2_relax(F_frame, moduli, frame=None):
    """Relaxed tangential quadratic form with its minimizing vector.

    Minimizes q3 over completions F + c (x) n + n (x) c of a symmetric 2x2
    form F in the frame rows (e1, e2, n) of ``frame`` (default: the plate)
    and returns v.Q v with c in Cartesian components.  For isotropic moduli

        value = 2 mu |sym F|^2 + (2 mu lambda / (2 mu + lambda)) (tr F)^2

    and the minimizer is normal, c = -lambda tr F n / (2 (2 mu + lambda)).
    """
    Q, K = q2_frame_matrix(moduli, frame)
    v = _frame_vector(_sym(np.asarray(F_frame, dtype=float)))
    Qv, Kv = (np.einsum("...kl,...l->...k", X, v) for X in (Q, K))
    R = np.eye(3) if frame is None else frame
    return RelaxationResult(value=np.einsum("...k,...k->...", Qv, v),
                            c=np.einsum("...k,...kc->...c", Kv, R))


def q2_numeric(F_frame, moduli, frame=None):
    """Independent oracle for q2_relax via the 3-variable normal equations.

    Embeds F as sum F_ab e_a (x) e_b in the frame (e1, e2, n) of ``frame``
    and solves for the completion c = sum_k c_k e_k through q3_bilinear.
    Works for any positive definite q3, including anisotropic ones.
    """
    F = _sym(np.asarray(F_frame, dtype=float))
    R = np.eye(3) if frame is None else np.asarray(frame, dtype=float)
    e = np.swapaxes(R[..., :2, :], -1, -2)
    emb = e @ F @ np.swapaxes(e, -1, -2)
    basis = np.einsum("...kc,...d->...kcd", R, R[..., 2, :])
    basis = basis + np.swapaxes(basis, -1, -2)
    H = q3_bilinear(basis[..., :, None, :, :], basis[..., None, :, :, :],
                    moduli)
    rhs = -q3_bilinear(emb[..., None, :, :], basis, moduli)
    coef = np.linalg.solve(H, rhs[..., None])[..., 0]
    comp = emb + np.einsum("...k,...kcd->...cd", coef, basis)
    return RelaxationResult(value=q3(comp, moduli),
                            c=np.einsum("...k,...kc->...c", coef, R))


def q2_rows(F_frame, moduli, weights, frame=None):
    """Square-root rows of a weighted integral of the relaxed form.

    For frame fields (..., N1, N2, 2, 2), node weights (N1, N2) and the
    chart frame (N1, N2, 3, 3) returns rows with |rows|^2 =
    sum_nodes weights Q2(F): the Cholesky factor of q2_frame_matrix, one
    per node when Q varies.
    """
    F = np.asarray(F_frame, dtype=float)
    lead, n = F.shape[:-4], F.shape[-4] * F.shape[-3]
    L = np.linalg.cholesky(q2_frame_matrix(moduli, frame)[0])
    L = np.broadcast_to(L.reshape(-1, 3, 3), (n, 3, 3))
    v = _frame_vector(F).reshape(lead + (n, 3))
    return np.einsum("...nk,nkl,n->...ln", v, L,
                     np.sqrt(np.ravel(weights))).reshape(lead + (-1,))


def q2_value(F_frame, moduli, frame=None):
    """Pointwise relaxed form value for a (..., 2, 2) symmetric field."""
    return q2_relax(F_frame, moduli, frame).value
