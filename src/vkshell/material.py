"""Stored-energy density, its quadratic form at the identity, and the
relaxed tangential quadratic form with its minimizing normal vector.

The default material is isotropic St. Venant-Kirchhoff,
W(F) = mu |E|^2 + lambda/2 (tr E)^2 with E = (F^T F - I)/2.  It is frame
invariant and vanishes exactly on rotations.  An anisotropic material may
be supplied as a 6x6 symmetric coefficient matrix acting on symmetric
strains (Voigt order 11, 22, 33, 23, 13, 12 with engineering shears), in
which case the tangential relaxation falls back to the numeric route.

All functions broadcast over leading node dimensions.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ElasticModuli:
    """Isotropic Lame moduli (pressure units)."""

    mu: float
    lam: float

    def __post_init__(self):
        if not (self.mu > 0):
            raise ValueError("shear modulus mu must be positive")
        if self.lam < 0:
            raise ValueError("first Lame parameter lambda must be nonnegative")
        if not (2.0 * self.mu + self.lam > 0):
            raise ValueError("2*mu + lambda must be positive")

    @property
    def q2_trace_coeff(self):
        """Coefficient of (tr F)^2 in the relaxed tangential form."""
        return 2.0 * self.mu * self.lam / (2.0 * self.mu + self.lam)

    @property
    def isotropic(self):
        return True


@dataclass(frozen=True)
class AnisotropicModuli:
    """Quadratic form on symmetric 3x3 strains given by a 6x6 Voigt matrix."""

    voigt: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.voigt, dtype=float)
        if m.shape != (6, 6) or not np.allclose(m, m.T, atol=1e-12):
            raise ValueError("expected a symmetric 6x6 coefficient matrix")
        if np.min(np.linalg.eigvalsh(m)) <= 0:
            raise ValueError("coefficient matrix must be positive definite")
        object.__setattr__(self, "voigt", m)

    @property
    def isotropic(self):
        return False


@dataclass
class RelaxationResult:
    """Value of the relaxed form and the minimizing completion vector.

    The value equals q3 evaluated on F + c (x) n + n (x) c, with F embedded
    in the tangent plane of the given normal.
    """

    value: np.ndarray
    c: np.ndarray


def _sym(G):
    return 0.5 * (G + np.swapaxes(G, -1, -2))


def _voigt(S):
    """Symmetric 3x3 -> Voigt 6-vector with engineering shear strains."""
    return np.stack([S[..., 0, 0], S[..., 1, 1], S[..., 2, 2],
                     2 * S[..., 1, 2], 2 * S[..., 0, 2], 2 * S[..., 0, 1]], axis=-1)


def w_density(F, moduli):
    """St. Venant-Kirchhoff energy density of a deformation gradient."""
    F = np.asarray(F, dtype=float)
    E = 0.5 * (np.einsum("...ki,...kj->...ij", F, F) - np.eye(3))
    if moduli.isotropic:
        return (moduli.mu * np.einsum("...ij,...ij->...", E, E)
                + 0.5 * moduli.lam * np.einsum("...ii->...", E) ** 2)
    v = _voigt(E)
    return 0.5 * np.einsum("...i,ij,...j->...", v, moduli.voigt, v)


def q3(G, moduli):
    """Hessian quadratic form of the density at the identity.

    For isotropic moduli: 2 mu |sym G|^2 + lambda (tr G)^2.  Vanishes on
    skew matrices and is positive definite on symmetric ones.
    """
    G = np.asarray(G, dtype=float)
    S = _sym(G)
    if moduli.isotropic:
        return (2.0 * moduli.mu * np.einsum("...ij,...ij->...", S, S)
                + moduli.lam * np.einsum("...ii->...", S) ** 2)
    v = _voigt(S)
    return np.einsum("...i,ij,...j->...", v, moduli.voigt, v)


def q3_bilinear(G1, G2, moduli):
    """Symmetric bilinear form associated with q3."""
    S1, S2 = _sym(np.asarray(G1, float)), _sym(np.asarray(G2, float))
    if moduli.isotropic:
        return (2.0 * moduli.mu * np.einsum("...ij,...ij->...", S1, S2)
                + moduli.lam * np.einsum("...ii->...", S1)
                * np.einsum("...jj->...", S2))
    return np.einsum("...i,ij,...j->...", _voigt(S1), moduli.voigt, _voigt(S2))


def _embed(F_frame, n):
    """Embed a 2x2 frame form into 3x3 in the tangent plane of unit normal n."""
    F = np.asarray(F_frame, dtype=float)
    n = np.asarray(n, dtype=float)
    lead = np.broadcast_shapes(F.shape[:-2], n.shape[:-1])
    # orthonormal tangent pair completing n
    n = np.broadcast_to(n, lead + (3,))
    a = np.zeros(lead + (3,))
    small = np.abs(n[..., 0]) < 0.9
    a[..., 0] = np.where(small, 1.0, 0.0)
    a[..., 1] = np.where(small, 0.0, 1.0)
    e1 = a - np.einsum("...c,...c->...", a, n)[..., None] * n
    e1 = e1 / np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = np.cross(n, e1)
    F = np.broadcast_to(F, lead + (2, 2))
    emb = (F[..., 0, 0, None, None] * np.einsum("...c,...d->...cd", e1, e1)
           + F[..., 1, 1, None, None] * np.einsum("...c,...d->...cd", e2, e2)
           + F[..., 0, 1, None, None] * (np.einsum("...c,...d->...cd", e1, e2)
                                         + np.einsum("...c,...d->...cd", e2, e1)))
    return emb, n, e1, e2


def q2_relax(F_frame, moduli, n=(0.0, 0.0, 1.0)):
    """Relaxed tangential quadratic form with its minimizing vector.

    Minimizes q3 over completions F + c (x) n + n (x) c of a symmetric 2x2
    form F expressed in an orthonormal tangent frame.  For isotropic
    moduli the closed form is

        value = 2 mu |sym F|^2 + (2 mu lambda / (2 mu + lambda)) (tr F)^2

    and the minimizer is purely normal,
    c = -lambda tr F / (2 (2 mu + lambda)) n; c is linear in F.
    """
    F = _sym(np.asarray(F_frame, dtype=float))
    if not moduli.isotropic:
        return q2_numeric(F, moduli, n=n)
    tr = F[..., 0, 0] + F[..., 1, 1]
    value = (2.0 * moduli.mu * np.einsum("...ij,...ij->...", F, F)
             + moduli.q2_trace_coeff * tr**2)
    n = np.asarray(n, dtype=float)
    cn = -moduli.lam * tr / (2.0 * (2.0 * moduli.mu + moduli.lam))
    c = cn[..., None] * np.broadcast_to(n, cn.shape + (3,))
    return RelaxationResult(value=value, c=c)


def q2_numeric(F_frame, moduli, n=(0.0, 0.0, 1.0)):
    """Independent oracle for q2_relax via the 3-variable normal equations.

    Works for any positive definite q3, including anisotropic ones.
    """
    F = _sym(np.asarray(F_frame, dtype=float))
    emb, nn, e1, e2 = _embed(F, n)
    lead = emb.shape[:-2]
    basis = np.empty(lead + (3, 3, 3))
    for k, ek in enumerate((e1, e2, nn)):
        basis[..., k, :, :] = (np.einsum("...c,...d->...cd", ek, nn)
                               + np.einsum("...c,...d->...cd", nn, ek))
    H = np.empty(lead + (3, 3))
    rhs = np.empty(lead + (3,))
    for k in range(3):
        rhs[..., k] = -q3_bilinear(emb, basis[..., k, :, :], moduli)
        for l in range(k, 3):
            H[..., k, l] = H[..., l, k] = q3_bilinear(
                basis[..., k, :, :], basis[..., l, :, :], moduli)
    try:
        coef = np.linalg.solve(H, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            "singular normal equations in the tangential relaxation; "
            "the supplied quadratic form is not positive definite") from exc
    c = (coef[..., 0, None] * e1 + coef[..., 1, None] * e2
         + coef[..., 2, None] * nn)
    comp = emb + basis[..., 0, :, :] * coef[..., 0, None, None] \
        + basis[..., 1, :, :] * coef[..., 1, None, None] \
        + basis[..., 2, :, :] * coef[..., 2, None, None]
    return RelaxationResult(value=q3(comp, moduli), c=c)


def q2_frame_matrix(moduli):
    """3x3 matrix Q with Q2(F) = v.Q v on v = (F11, F22, sqrt(2) F12),
    polarized from q2_numeric on the three basis forms."""
    E = np.zeros((3, 2, 2))
    E[0, 0, 0] = E[1, 1, 1] = 1.0
    E[2, 0, 1] = E[2, 1, 0] = np.sqrt(0.5)
    diag = q2_numeric(E, moduli).value
    pair = q2_numeric(E[:, None] + E[None, :], moduli).value
    return 0.5 * (pair - diag[:, None] - diag[None, :])


def q2_rows(F_frame, moduli, weights):
    """Square-root rows of a weighted integral of the relaxed form.

    For frame fields (..., N1, N2, 2, 2) and node weights (N1, N2) returns
    rows with |rows|^2 = sum_nodes weights Q2(F): four closed-form blocks
    for isotropic moduli, the Cholesky factor of q2_frame_matrix otherwise.
    """
    F = np.asarray(F_frame, dtype=float)
    lead = F.shape[:-4]
    f11, f22, f12 = (F[..., a, b].reshape(lead + (-1,))
                     for a, b in ((0, 0), (1, 1), (0, 1)))
    sw = np.sqrt(np.ravel(weights))
    if moduli.isotropic:
        cmu, ctr = np.sqrt(2.0 * moduli.mu), np.sqrt(moduli.q2_trace_coeff)
        return np.concatenate([cmu * sw * f11, cmu * sw * f22,
                               cmu * np.sqrt(2.0) * sw * f12,
                               ctr * sw * (f11 + f22)], axis=-1)
    L = np.linalg.cholesky(q2_frame_matrix(moduli))
    v = np.stack([f11, f22, np.sqrt(2.0) * f12], axis=-1)
    return np.einsum("...nk,kl,n->...ln", v, L, sw).reshape(lead + (-1,))


def q2_value(F_frame, moduli):
    """Pointwise relaxed form value for a (..., 2, 2) symmetric field."""
    return q2_relax(F_frame, moduli).value
