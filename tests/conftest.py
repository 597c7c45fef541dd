"""Shared builders for the test suite: charts, rotations, analytic fields."""

import numpy as np
import pytest

import vkshell as vk
from vkshell import geometry as geo
from vkshell import material as mat


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def isotropic_voigt(mu, lam):
    """Isotropic moduli written as a 6x6 Voigt matrix."""
    C = np.zeros((6, 6))
    C[:3, :3] = 2 * mu * np.eye(3) + lam
    C[3:, 3:] = mu * np.eye(3)
    return mat.AnisotropicModuli(C)


def anisotropic_voigt(rng):
    """A generic positive definite anisotropic material."""
    A = rng.normal(size=(6, 6))
    return mat.AnisotropicModuli(A @ A.T + 6.0 * np.eye(6))


def rotated_voigt(moduli, R):
    """The material rotated by R: its q3 at R S R^T equals q3 at S."""
    units = np.zeros((6, 3, 3))
    for k, (a, b) in enumerate(((0, 0), (1, 1), (2, 2), (1, 2), (0, 2),
                                (0, 1))):
        units[k, a, b] = units[k, b, a] = 1.0 if a == b else 0.5
    T = mat._voigt(R.T @ units @ R)
    return mat.AnisotropicModuli(T @ moduli.voigt @ T.T)


def rotated_cylinder(R, grid, radius=1.0, height=1.0):
    """Custom chart of a cylinder rigidly rotated by R (sampled positions)."""
    R = np.asarray(R, float)

    def pf(S, T):
        return np.stack([radius * np.cos(T), radius * np.sin(T), S],
                        axis=-1) @ R.T

    return vk.build_chart("custom", {
        "position": pf, "domain": ((0.0, height), (0.0, 2 * np.pi)),
        "periodic2": True}, grid)


def rotated_plate(R, grid, bounds=((0.0, 1.0), (0.0, 1.0))):
    """Custom chart of the plate on bounds (the unit square) rigidly
    rotated by R."""
    R = np.asarray(R, float)

    def pf(U, V):
        return np.stack([U, V, np.zeros_like(U)], axis=-1) @ R.T

    return vk.build_chart("custom", {"position": pf, "domain": bounds}, grid)


def reference_dictionary_strains(chart, degree):
    """Reference for the strain dictionary: nested loops over generators on
    the 2-D node grid give one full strain (N1, N2, 2, 2) per generator and
    Cartesian axis (component-major), and the list of generator fields."""
    U1, U2 = np.meshgrid(chart.u1, chart.u2, indexing="ij")
    bases = []
    if chart.periodic2:
        for p in range(degree + 1):
            sp = U1**p
            dsp = p * U1 ** max(p - 1, 0) if p > 0 else np.zeros_like(U1)
            for k in range(degree + 1):
                trigs = [(np.cos(k * U2), -k * np.sin(k * U2))]
                if k > 0:
                    trigs.append((np.sin(k * U2), k * np.cos(k * U2)))
                for tval, tder in trigs:
                    bases.append((sp * tval, dsp * tval, sp * tder))
    else:
        for p in range(degree + 1):
            for q in range(degree + 1 - p):
                f = U1**p * U2**q
                zero = np.zeros_like(U1)
                f1 = p * U1 ** max(p - 1, 0) * U2**q if p > 0 else zero
                f2 = q * U1**p * U2 ** max(q - 1, 0) if q > 0 else zero
                bases.append((f, f1, f2))
    strains = []
    for c in range(3):
        for f, f1, f2 in bases:
            b11 = f1 * chart.t1[..., c]
            b22 = f2 * chart.t2[..., c]
            b12 = 0.5 * (f2 * chart.t1[..., c] + f1 * chart.t2[..., c])
            strains.append(np.stack([np.stack([b11, b12], axis=-1),
                                     np.stack([b12, b22], axis=-1)], axis=-2))
    return strains, [f for f, _, _ in bases]


def revolution_form_and_field(chart, a_funcs, b_funcs, c_funcs):
    """Assemble the strain form of w = a gamma + b gamma' + c e3 from
    analytic frame components (f, df/ds, df/dtheta) and return (B, w)."""
    S, T = np.meshgrid(chart.u1, chart.u2, indexing="ij")
    g = chart.profile["g"][:, None]
    gp = chart.profile["gp"][:, None]
    a, a_s, a_t = (f(S, T) for f in a_funcs)
    b, b_s, b_t = (f(S, T) for f in b_funcs)
    c, c_s, c_t = (f(S, T) for f in c_funcs)
    B11 = gp * a_s + c_s
    B22 = g * (a + b_t)
    B12 = 0.5 * (gp * (a_t - b) + g * b_s + c_t)
    coeff = np.stack([np.stack([B11, B12], -1), np.stack([B12, B22], -1)], -2)
    gamma = np.stack([np.cos(T), np.sin(T), np.zeros_like(T)], -1)
    gammap = np.stack([-np.sin(T), np.cos(T), np.zeros_like(T)], -1)
    w = (a[..., None] * gamma + b[..., None] * gammap
         + c[..., None] * np.array([0.0, 0.0, 1.0]))
    return geo.FormField2(coeff), geo.VectorField3(w)


BANDLIMITED_ABC = (
    (lambda S, T: (0.3 + 0.2 * S**2) * np.cos(2 * T),
     lambda S, T: 0.4 * S * np.cos(2 * T),
     lambda S, T: -2 * (0.3 + 0.2 * S**2) * np.sin(2 * T)),
    (lambda S, T: 0.1 * S * np.sin(3 * T),
     lambda S, T: 0.1 * np.sin(3 * T),
     lambda S, T: 0.3 * S * np.cos(3 * T)),
    (lambda S, T: 0.2 * S**2 + 0.1 * np.cos(T),
     lambda S, T: 0.4 * S,
     lambda S, T: -0.1 * np.sin(T)),
)


@pytest.fixture(scope="session")
def plate16():
    return vk.build_chart("plate", {}, (16, 16))


@pytest.fixture(scope="session")
def plate32():
    return vk.build_chart("plate", {}, (32, 32))


@pytest.fixture(scope="session")
def plate64():
    return vk.build_chart("plate", {}, (64, 64))


@pytest.fixture(scope="session")
def cyl_small():
    return vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0}, (12, 32))


@pytest.fixture(scope="session")
def cyl_mid():
    return vk.build_chart("cylinder", {"radius": 1.0, "height": 1.0}, (24, 48))


def plate_sine_mode(chart):
    U1, U2 = np.meshgrid(chart.u1, chart.u2, indexing="ij")
    vals = np.zeros(chart.shape + (3,))
    vals[..., 2] = np.sin(np.pi * U1) * np.sin(np.pi * U2)
    return geo.VectorField3(vals)
