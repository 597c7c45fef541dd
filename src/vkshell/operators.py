"""Derivative operators and quadrature weights on structured 1D/2D grids.

Each first derivative acts on sampled arrays along a given axis; a dense
matrix form is the operator applied to the identity.  Non-periodic axes
use 2nd-order central differences with 2nd-order one-sided stencils at
the ends.  Periodic axes support either central differences with
wraparound or FFT-based spectral differentiation (exact on bandlimited
data).
"""

import numpy as np


def fd1_apply(f, h, axis=0):
    """First derivative along a non-periodic axis, 2nd-order central in the
    interior with one-sided 4-point (3rd-order) end closures.

    The higher-order closure keeps operators composed of repeated first
    differences (bending tensors) at a clean global 2nd order; 3-point
    closures degrade the composition to first order in a boundary strip.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[axis]
    if n < 4:
        raise ValueError("need at least 4 samples along the axis")
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (-11 * f[0] + 18 * f[1] - 9 * f[2] + 2 * f[3]) / (6.0 * h)
    out[-1] = (11 * f[-1] - 18 * f[-2] + 9 * f[-3] - 2 * f[-4]) / (6.0 * h)
    return np.moveaxis(out, 0, axis)


def fd1_periodic_apply(f, h, axis=0):
    """2nd-order central first derivative with periodic wraparound."""
    f = np.asarray(f, dtype=float)
    return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2.0 * h)


def fd1_apply_order4(f, h, axis=0):
    """4th-order first derivative on a non-periodic axis.

    5-point central stencil in the interior, one-sided 5/6-point stencils
    near the ends.  Exact for polynomials of degree <= 4.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[axis]
    if n < 6:
        return fd1_apply(f, h, axis=axis)
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    out[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12.0 * h)
    out[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12.0 * h)
    out[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12.0 * h)
    out[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12.0 * h)
    return np.moveaxis(out, 0, axis)


def spectral_apply(f, period, axis=0):
    """FFT differentiation along a uniformly sampled periodic axis.

    Exact for trigonometric polynomials below the Nyquist frequency; the
    derivative of the (unpaired) Nyquist mode is set to zero.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[axis]
    k = 2.0 * np.pi / period * np.fft.rfftfreq(n, d=1.0 / n)
    fh = np.fft.rfft(f, axis=axis)
    shape = [1] * f.ndim
    shape[axis] = k.size
    dfh = fh * (1j * k).reshape(shape)
    if n % 2 == 0:
        idx = [slice(None)] * f.ndim
        idx[axis] = -1
        dfh[tuple(idx)] = 0.0
    return np.fft.irfft(dfh, n=n, axis=axis)


def fd2_apply(f, h, axis=0):
    """2nd-order second derivative along a non-periodic axis."""
    f = np.asarray(f, dtype=float)
    n = f.shape[axis]
    if n < 4:
        raise ValueError("need at least 4 samples along the axis")
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h**2
    out[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h**2
    out[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / h**2
    return np.moveaxis(out, 0, axis)


def fd1_matrix_order4(n, h):
    """Dense matrix of fd1_apply_order4 on n samples."""
    return fd1_apply_order4(np.eye(n), h, axis=0)


def trapezoid_weights(n, spacing, periodic):
    """1D quadrature weights: trapezoid rule, uniform when periodic."""
    w = np.full(n, spacing)
    if not periodic:
        w[0] *= 0.5
        w[-1] *= 0.5
    return w


def gauss_legendre(npts):
    """Gauss-Legendre nodes/weights on [-1/2, 1/2], weights summing to 1."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return -0.5 + 0.5 * (x + 1.0), 0.5 * w
