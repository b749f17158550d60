"""Free-space Stokes kernels and the periodic log convolution.

The 2D Stokeslet

    G(x) = (1/4pi) ( -log|x| I + x ox x / |x|^2 )

appears in the boundary-integral representation of interface velocity.
`log_convolve` is the closed form of the logarithmically singular part of
the single layer on the Fourier side: the periodic kernel

    K(z) = -(1/4pi) log( 2 |sin(z/2)| )

(the part of G left after factoring |x| = (|x| / 2|sin(dtheta/2)|) *
2|sin(dtheta/2)|) acts diagonally with multiplier 1/(4|k|) and annihilates
the mean.  (The multiplier was frozen against adaptive quadrature of
int K(z) cos(kz) dz; see the test suite.)  On a grid its band |k| <= M is
a circulant, which `force._workspace` builds into the weight of the
single-layer matrix V, once per (M, N): a run does not call it per step.
"""

import warnings

import numpy as np

from .spectral import _symmetric_curve, synthesize

_CLEARANCE = 0.1  # distance to the interface below which the rule degrades


class SingularEvaluation(ValueError):
    """Kernel evaluated at (or unusably close to) its singularity."""


def _norms(x):
    return np.sqrt(np.sum(np.asarray(x, dtype=float) ** 2, axis=-1))


def stokeslet(x):
    """G(x) for x of shape (..., 2); returns (..., 2, 2)."""
    x = np.asarray(x, dtype=float)
    r = _norms(x)
    if np.any(r == 0.0):
        raise SingularEvaluation("stokeslet evaluated at zero separation")
    outer = x[..., :, None] * x[..., None, :]
    eye = np.eye(2)
    g = -np.log(r)[..., None, None] * eye + outer / (r**2)[..., None, None]
    return g / (4.0 * np.pi)


def log_convolve(f):
    """Convolve with K(z) = -(1/4pi) log(2 |sin(z/2)|); returns grid samples.

    `f` is a FourierCurve or a ForceDensity; the result lives on its grid.
    Acts mode-by-mode as multiplication by 1/(4|k|) (k != 0); the mean is
    sent to zero.
    """
    m = f.max_mode
    ks = np.arange(-m, m + 1)
    fac = np.zeros(len(ks))
    nz = ks != 0
    fac[nz] = 1.0 / (4.0 * np.abs(ks[nz]))
    return synthesize(_symmetric_curve(f.coeffs * fac[:, None], f.grid_size))


def eval_velocity_field(points, curve, force):
    """Velocity at off-interface points: u(x) = int G(x - X(eta)) F(eta) deta,
    for the ForceDensity F on `curve`'s grid.

    Plain trapezoid quadrature on the force grid; accurate away from the
    interface, and it warns (but still evaluates) whenever a target point
    comes within 0.1 of the quadrature nodes, where the rule degrades.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    xs = synthesize(curve)
    fs = force.samples
    if fs.shape[0] != xs.shape[0]:
        raise ValueError("force samples and curve grid disagree")
    n = xs.shape[0]
    diff = pts[:, None, :] - xs[None, :, :]  # (P, N, 2)
    dmin = float(np.min(_norms(diff)))
    if dmin == 0.0:
        raise SingularEvaluation("target point lies on a quadrature node")
    if dmin < _CLEARANCE:
        warnings.warn(
            "target within %.3g of the interface (< clearance %.3g); "
            "quadrature error may be large" % (dmin, _CLEARANCE),
            RuntimeWarning,
        )
    g = stokeslet(diff)  # (P, N, 2, 2)
    u = np.einsum("pnij,nj->pi", g, fs) * (2.0 * np.pi / n)
    return u if np.asarray(points).ndim > 1 else u[0]
