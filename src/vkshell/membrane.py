"""Finite-strain machinery: plate compatibility, the constructive membrane
solver for surfaces of revolution, robustness classification, and
least-squares projection onto symmetric-gradient dictionaries.

The revolution solver reduces the strain system to one linear ODE per
circumferential Fourier mode.  All circumferential operations are
spectral (exact for bandlimited data); every axial derivative is the
4th-order difference matrix Ds, the ODEs are one batched collocated solve
with Ds Ds and the axial least squares one SVD of Ds, so round-trip
residuals decay at 4th order.
"""

from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import operators as ops
from .geometry import FormField2, VectorField3, as_form_field, as_vector_field


@dataclass
class MembraneSolution:
    w: VectorField3
    residual: float
    fourier_order: int
    flagged: bool = False
    components: dict = field(default_factory=dict)


@dataclass
class RobustnessReport:
    label: str
    evidence: dict


@dataclass
class ProjectionResult:
    coefficients: np.ndarray
    residual: float
    w: VectorField3
    rank: int = 0              # numerical rank of the dictionary columns
    n_generators: int = 0


# ---------------------------------------------------------------------------
# plate compatibility
# ---------------------------------------------------------------------------

def curl_curl(chart, form):
    """Double-curl compatibility residual of a form on a flat chart.

    d22 B11 + d11 B22 - 2 d1 d2 B12; vanishes exactly on symmetric
    gradients of displacements of a plate.
    """
    if chart.family != "plate":
        raise ValueError("curl_curl is defined on plate charts only")
    form = as_form_field(form)
    if form.shape != chart.shape:
        raise ValueError("form grid does not match chart grid")
    b11 = form.coeff[..., 0, 0]
    b22 = form.coeff[..., 1, 1]
    b12 = form.coeff[..., 0, 1]
    h1, h2 = chart.du
    d22_b11 = ops.fd2_apply(b11, h2, axis=1)
    d11_b22 = ops.fd2_apply(b22, h1, axis=0)
    d12_b12 = ops.fd1_apply(ops.fd1_apply(b12, h1, axis=0), h2, axis=1)
    return d22_b11 + d11_b22 - 2.0 * d12_b12


# ---------------------------------------------------------------------------
# surface-of-revolution membrane solver
# ---------------------------------------------------------------------------

def membrane_sym_grad(chart, fld):
    """Symmetrized tangential gradient with the solver's derivative ops
    (spectral circumferential, 4th-order axial)."""
    fld = as_vector_field(fld)
    if fld.shape != chart.shape:
        raise ValueError("field grid does not match chart grid")
    dsw = ops.fd1_apply_order4(fld.values, chart.du[0], axis=0)
    period = chart.domain[1][1] - chart.domain[1][0]
    dtw = ops.spectral_apply(fld.values, period, axis=1)
    return geo.tangential_form(chart, np.stack([dsw, dtw], axis=-2))


def form_rel_distance(chart, form_a, form_b):
    """Relative L2 distance of two forms in the frame Frobenius norm."""
    fa = geo.frame_form(chart, as_form_field(form_a))
    fb = geo.frame_form(chart, as_form_field(form_b))
    diff = fa - fb
    num = geo.integrate(chart, np.einsum("xyij,xyij->xy", diff, diff))
    den = geo.integrate(chart, np.einsum("xyij,xyij->xy", fb, fb))
    if den <= 0:
        return float(np.sqrt(num))
    return float(np.sqrt(num / den))


def solve_revolution_membrane(chart, form, fourier_order=None,
                              warn_threshold=1e-3):
    """Construct w with sym grad w equal to a given form on a revolution chart.

    Writes w = a gamma + b gamma' + c e3 in the rotating frame.  The
    coefficient b satisfies, per circumferential Fourier mode k,

        b_k'' - (g''/g)(1 - k^2) b_k = psi_k / g,
        psi = 2 ds B12 - dtheta B11 - (g''/g) dtheta B22,

    solved from zero initial data with the axial derivative d/ds taken as
    Ds = fd1_matrix_order4 (exact on polynomials of degree <= 4, as is
    Ds Ds); a follows from the hoop equation and c from a joint least
    squares over the two equations containing it, whose residual is
    reported instead of silently drifting.
    """
    if chart.family not in ("cylinder", "revolution"):
        raise ValueError("solver needs a revolution (or cylinder) chart")
    gs, gps, gpps = (chart.profile[k] for k in ("g", "gp", "gpp"))
    form = as_form_field(form)
    if form.shape != chart.shape:
        raise ValueError("form grid does not match chart grid")
    n1, n2 = chart.shape
    if fourier_order is None:
        fourier_order = min(n2 // 2 - 1, 32)
    N = int(fourier_order)
    if not (0 <= N <= n2 // 2):
        raise ValueError("fourier_order out of range")

    # circumferential spectra of modes 0..N; axial derivatives by Ds
    B11h, B22h, B12h = (np.fft.rfft(form.coeff[..., i, j], axis=1)[:, :N + 1]
                        for i, j in ((0, 0), (1, 1), (0, 1)))
    kvals = np.arange(N + 1)
    ik = 1j * kvals
    Ds = ops.fd1_matrix_order4(n1, chart.du[0])
    psih = 2.0 * (Ds @ B12h) - ik * B11h - (gpps / gs)[:, None] * ik * B22h

    # b: one collocated solve of b'' - (g''/g)(1 - k^2) b = psi/g per mode,
    # rows 0 and 1 replaced by b(s0) = 0 and b'(s0) = 0
    L = np.repeat((Ds @ Ds)[None], N + 1, axis=0)
    L[:, np.arange(n1), np.arange(n1)] -= np.outer(1.0 - kvals**2.0, gpps / gs)
    L[:, 0] = np.eye(n1)[0]
    L[:, 1] = Ds[0]
    rhs = psih.T / gs
    rhs[:, :2] = 0.0
    x = np.linalg.solve(L, np.stack([rhs.real, rhs.imag], axis=-1))
    bh = (x[..., 0] + 1j * x[..., 1]).T
    bph = Ds @ bh

    ah = B22h / gs[:, None] - ik * bh
    daph = Ds @ (B22h / gs[:, None]) - ik * bph

    # c: least squares on {ds c = B11 - g' ds a ;
    # dtheta c = 2 B12 - g'(dtheta a - b) - g ds b}, i.e. over [Ds; ik I],
    # for every mode from one SVD Ds = U S V^T with lstsq's singular cut
    R1 = B11h - gps[:, None] * daph
    R2 = 2.0 * B12h - gps[:, None] * (ik * ah - bh) - gs[:, None] * bph
    U, S, Vt = np.linalg.svd(Ds)
    den = S[:, None]**2 + kvals**2.0
    cut = np.finfo(float).eps * 2 * n1 * S[0]
    inv = np.divide(1.0, den, out=np.zeros_like(den), where=den > cut**2)
    ch = Vt.T @ (inv * (S[:, None] * (U.T @ R1) - ik * (Vt @ R2)))

    a, b, c = (np.fft.irfft(X, n=n2, axis=1) for X in (ah, bh, ch))

    # gamma = (cos, sin, 0) and gamma' = (-sin, cos, 0)
    cos, sin = np.cos(chart.u2), np.sin(chart.u2)
    wf = VectorField3(np.stack([a * cos - b * sin, a * sin + b * cos, c], -1))
    residual = form_rel_distance(chart, membrane_sym_grad(chart, wf), form)
    return MembraneSolution(
        w=wf, residual=residual, fourier_order=N,
        flagged=bool(residual > warn_threshold),
        components={"a": a, "b": b, "c": c})


# ---------------------------------------------------------------------------
# robustness classification
# ---------------------------------------------------------------------------

def robustness_classify(chart):
    """Label the chart per the curvature-based robustness taxonomy.

    Reads the principal curvatures in closed form
    (geometry.principal_curvatures); the Gauss curvature is their product.
    Conservative thresholds; curvature extremes are always attached as
    evidence.  "Unknown" is a valid outcome.
    """
    h_max = float(np.max(np.abs(chart.second_form)))
    k1, k2 = geo.principal_curvatures(chart)
    kmin, kmax = float(k1.min()), float(k2.max())
    gauss = k1 * k2
    pi_norm = np.linalg.norm(chart.shape_op, axis=(-2, -1))
    evidence = {
        "max_abs_second_form": h_max,
        "shape_eig_min": kmin,
        "shape_eig_max": kmax,
        "gauss_min": float(gauss.min()),
        "gauss_max": float(gauss.max()),
        "shape_norm_min": float(pi_norm.min()),
    }
    if h_max <= 1e-10:
        return RobustnessReport("NotApproximatelyRobust-Plate", evidence)
    if chart.family in ("cylinder", "revolution"):
        return RobustnessReport("Robust-Revolution", evidence)
    if kmin > 1e-6 or kmax < -1e-6:
        return RobustnessReport("Robust-Convex", evidence)
    if np.max(np.abs(gauss)) <= 1e-8 and np.min(pi_norm) >= 1e-4:
        return RobustnessReport("Robust-Developable", evidence)
    return RobustnessReport("Unknown", evidence)


# ---------------------------------------------------------------------------
# dictionary projection
# ---------------------------------------------------------------------------

def _axial_factors(u1, degree):
    """The axial factors u1^p and their derivatives p u1^(p-1), p <= degree."""
    deg = range(degree + 1)
    pw1 = np.array([u1**p for p in deg])
    dpw1 = np.array([p * u1 ** max(p - 1, 0) if p > 0 else np.zeros_like(u1)
                     for p in deg])
    return pw1, dpw1


@dataclass
class DictionaryFactors:
    """The 1-D factors a (3, n, N1) and b (3, n, N2) of the generator
    fields f, d1 f and d2 f, each the outer product a(u1) b(u2); self[j]
    forms stack j (n, N1, N2) on the grid."""
    a: np.ndarray
    b: np.ndarray

    def __getitem__(self, j):
        return self.a[j][:, :, None] * self.b[j][:, None, :]


def _dictionary_generators(chart, degree):
    """DictionaryFactors of the generators: bivariate monomials up to total
    degree on open charts, axial monomials times circumferential harmonics
    up to that order on periodic charts (in the order cos 0, cos u2,
    sin u2, cos 2 u2, ...).
    """
    u1, u2 = chart.u1, chart.u2
    deg = range(degree + 1)
    pw1, dpw1 = _axial_factors(u1, degree)
    if chart.periodic2:
        harm = np.array([[(np.cos(k * u2), -k * np.sin(k * u2)),
                          (np.sin(k * u2), k * np.cos(k * u2))] for k in deg])
        # cos, sin of k = 0, 1, ... in turn, without the zero sin(0 u2)
        harm = harm.reshape(-1, 2, u2.size)[np.arange(2 * degree + 2) != 1]
        P, K = np.divmod(np.arange((degree + 1) * len(harm)), len(harm))
        a = np.stack([pw1[P], dpw1[P], pw1[P]])
        b = harm[K].transpose(1, 0, 2)[[0, 0, 1]]
    else:
        P, Q = np.array([(p, q) for p in deg for q in range(degree + 1 - p)]).T
        pw2 = np.array([u2**q for q in deg])
        a = np.stack([pw1[P], dpw1[P], Q[:, None] * pw1[P]])
        b = np.stack([pw2[Q], pw2[Q], pw2[np.maximum(Q - 1, 0)]])
    return DictionaryFactors(a, b)


def _dictionary_columns(chart, gens, row_map):
    """Columns row_map(frame strain) of the dictionary, one batched pass per
    Cartesian axis c over the strains sym(grad f (x) e_c) of all generators;
    columns are component-major and identically zero ones are pruned.
    Returns the kept columns and their indices into the 3 n strains."""
    f1, f2 = gens[1], gens[2]
    n = len(f1)
    cols = None
    for c in range(3):
        t1c, t2c = chart.t1[..., c], chart.t2[..., c]
        b12 = 0.5 * (f2 * t1c + f1 * t2c)
        rows = row_map(geo.frame_form(chart, FormField2(
            np.stack([f1 * t1c, b12, b12, f2 * t2c], axis=-1)
            .reshape(f1.shape + (2, 2)))))
        if cols is None:
            cols = np.empty((rows.shape[1], 3 * n))
        cols[:, c * n:(c + 1) * n] = rows.T
        del b12, rows        # one axis's strain stack alive at a time
    norms = np.linalg.norm(cols, axis=0)
    keep = norms > 1e-14 * max(norms.max(), 1e-300)
    return cols[:, keep], np.flatnonzero(keep)


def _dictionary_field(chart, gens, kept_idx, sol):
    """Coefficients (3 n,) of a solution sol on the kept columns, the
    displacement w = sum coeff f e_c and its strain, by one contraction
    of the coefficients with the generator factors."""
    coeffs = np.zeros(3 * gens.a.shape[1])
    coeffs[kept_idx] = sol
    fields = np.einsum("jnx,jny,cn->jxyc", gens.a, gens.b,
                       coeffs.reshape(3, -1), optimize=True)
    return (coeffs, VectorField3(fields[0]),
            geo.tangential_form(chart, np.moveaxis(fields[1:], 0, -2)))


def _character_blocked(chart, degree):
    """Whether project_to_B solves one block per rotation character: on a
    built-in rotation-invariant chart (its closed axis spans 2 pi from
    u2 = 0) whose dictionary characters -(degree + 1) .. degree + 1 are
    distinct modulo N2."""
    return (chart.family != "custom" and 2 * (degree + 1) < chart.shape[1]
            and geo.rotation_invariant(chart))


def _character_lstsq(chart, degree, y):
    """Minimum-norm least squares of the frame rows y on the periodic
    dictionary of a rotation-invariant chart, one block per character.

    The generators u1^p {cos, sin}(k u2) e_c span the fields
    s_h u1^p e^{i h u2} SPIN_UNITS[q], s_h = 1/sqrt(2) for h != 0, by a
    unitary change of coefficients, and the one with shift SPIN_SHIFTS[q]
    has character m = h - SPIN_SHIFTS[q].  After a unitary DFT of y along
    u2, character m holds sqrt(N2) times the column-0 strain rows of its
    fields; m >= 1 stands for m and its conjugate N2 - m, and characters
    beyond degree + 1 have no columns.  Per-block SVD solutions form the
    dense minimum-norm one.  Returns the solution on the nonzero real
    columns, their indices into the 3 n generators, the residual norm and
    the rank under lstsq's cut.
    """
    n1, n2 = chart.shape
    nh = 2 * degree + 1
    pw1, dpw1 = _axial_factors(chart.u1, degree)
    Y = np.fft.fft(y.reshape(3, n1, n2), axis=-1, norm="ortho")
    blocks = []
    for m in range(degree + 2):
        h = m + geo.SPIN_SHIFTS
        q = np.flatnonzero(np.abs(h) <= degree)
        h = h[q]
        v = np.where(h == 0, 1.0, np.sqrt(0.5))[:, None] * geo.SPIN_UNITS[q]
        # partials at u2 = 0 of the fields u1^p e^{i h u2} v, p major
        P = np.stack([dpw1[:, None, :, None] * v[:, None, :],
                      pw1[:, None, :, None] * (1j * h[:, None] * v)[:, None]],
                     axis=-2)
        A = np.sqrt(n2) * geo.strain_rows(
            chart, P.reshape(-1, n1, 1, 2, 3), slice(0, 1)).T
        # their real coefficients: e^{i h u2} = cos |h| u2 + i sign(h) sin |h| u2
        H = np.zeros((nh, len(h)), complex)
        H[np.maximum(2 * np.abs(h) - 1, 0), np.arange(len(h))] = 1.0
        sin = np.flatnonzero(h)
        H[2 * np.abs(h[sin]), sin] = 1j * np.sign(h[sin])
        U = np.einsum("pr,kq,qc->cpkrq", np.eye(degree + 1), H, v)
        blocks.append((1 if m == 0 else 2, A, U.reshape(3 * len(pw1) * nh, -1),
                       np.linalg.svd(A, full_matrices=False), Y[..., m].ravel()))

    # the real columns in the DFT basis are A U^H: prune as the dense path
    norms = np.sqrt(sum(mult * np.sum(np.abs(A @ U.conj().T)**2, axis=0)
                        for mult, A, U, _, _ in blocks))
    kept = np.flatnonzero(norms > 1e-14 * max(norms.max(), 1e-300))
    cut = (np.finfo(float).eps * max(y.size, kept.size)
           * max(svd[1][0] for _, _, _, svd, _ in blocks))
    x = np.zeros(len(norms))
    rank = 0
    resid2 = np.sum(np.abs(Y[..., degree + 2:n2 - degree - 1])**2)
    for mult, A, U, (Ub, sv, Vh), Yb in blocks:
        k = sv > cut
        z = Vh[k].conj().T @ ((Ub[:, k].conj().T @ Yb) / sv[k])
        x += mult * (U @ z).real
        resid2 += mult * np.sum(np.abs(Yb - A @ z)**2)
        rank += mult * int(k.sum())
    return x[kept], kept, np.sqrt(resid2), rank


def project_to_B(chart, target, degree=4):
    """Least-squares projection of a form onto the dictionary span in the
    weighted L2 frame distance.  Returns the minimum-norm coefficients, the
    relative residual, the realizing displacement and the numerical rank
    of the kept columns under lstsq's cut (singular values above
    eps max(rows, columns) times the largest); the infinitesimal rotations
    are a dependency among them, so the rank falls short of their count.

    On cylinder, revolution and sphere_patch charts with 2 (degree + 1) <
    N2 the solve runs one small block per rotation character from one grid
    column (_character_lstsq); elsewhere on the dense dictionary columns.
    """
    target = as_form_field(target)
    if target.shape != chart.shape:
        raise ValueError("target grid does not match chart grid")
    gens = _dictionary_generators(chart, degree)
    y = geo.frame_rows(geo.frame_form(chart, target), chart.quad_w)
    if _character_blocked(chart, degree):
        sol, kept_idx, resid, rank = _character_lstsq(chart, degree, y)
    else:
        cols, kept_idx = _dictionary_columns(
            chart, gens, lambda F: geo.frame_rows(F, chart.quad_w))
        sol, _, rank, _ = np.linalg.lstsq(cols, y, rcond=None)
        resid = np.linalg.norm(cols @ sol - y)
    y_norm = np.linalg.norm(y)
    resid = resid / (y_norm if y_norm > 0 else 1.0)

    coeffs, w, _ = _dictionary_field(chart, gens, kept_idx, sol)
    return ProjectionResult(coefficients=coeffs, residual=float(resid), w=w,
                            rank=int(rank), n_generators=int(kept_idx.size))
