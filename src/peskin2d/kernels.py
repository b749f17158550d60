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
a circulant, which `force._workspace` builds, once per (M, N), into the
weight of V, the single layer that `force.velocity_on_curve` applies: a run
does not call it per step.  `eval_velocity_field` takes a force as its
(N, 2) grid samples.
"""

import warnings

import numpy as np

from .spectral import _grid_samples, _modulus, synthesize

__all__ = ["SingularEvaluation", "eval_velocity_field", "log_convolve",
           "stokeslet"]

_CLEARANCE = 0.1  # distance to the interface below which the rule degrades


class SingularEvaluation(ValueError):
    """Kernel evaluated at (or unusably close to) its singularity."""


def stokeslet(x):
    """G(x) for x of shape (..., 2); returns (..., 2, 2)."""
    x = np.asarray(x, dtype=float)
    return _stokeslet(x, _modulus(x))


def _stokeslet(x, r):
    """G(x) from the float array x and its modulus r = |x|."""
    if np.any(r == 0.0):
        raise SingularEvaluation("stokeslet evaluated at zero separation")
    outer = x[..., :, None] * x[..., None, :] / (r**2)[..., None, None]
    return (outer - np.log(r)[..., None, None] * np.eye(2)) / (4.0 * np.pi)


def log_convolve(f):
    """Convolve with K(z) = -(1/4pi) log(2 |sin(z/2)|); returns grid samples.

    `f` is a FourierCurve (a force's is `analyze(f, M)`); the result lives
    on its grid.  Acts mode-by-mode as multiplication by 1/(4|k|) (k != 0);
    the mean is sent to zero.
    """
    m = f.max_mode
    ks = np.arange(m + 1)[:, None]
    fac = np.divide(0.25, ks, out=np.zeros(ks.shape), where=ks > 0)
    return _grid_samples(f.coeffs[m:] * fac, f.grid_size)


def _grid_force(force, curve):
    """`force` as float (N, 2) samples on `curve`'s grid, else ValueError."""
    f = np.asarray(force, dtype=float)
    if f.shape != (curve.grid_size, 2):
        raise ValueError("force has shape %s, not (%d, 2) of the curve's grid"
                         % (f.shape, curve.grid_size))
    return f


def eval_velocity_field(points, curve, force):
    """Velocity at off-interface points: u(x) = int G(x - X(eta)) F(eta) deta,
    for the force F as (N, 2) samples on `curve`'s grid.

    Plain trapezoid quadrature on the force grid; accurate away from the
    interface, and it warns (but still evaluates) whenever a target point
    comes within 0.1 of the quadrature nodes, where the rule degrades.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    fs = _grid_force(force, curve)
    diff = pts[:, None, :] - synthesize(curve)[None, :, :]  # (P, N, 2)
    r = _modulus(diff)
    dmin = float(np.min(r))
    if dmin == 0.0:
        raise SingularEvaluation("target point lies on a quadrature node")
    if dmin < _CLEARANCE:
        warnings.warn(
            "target within %.3g of the interface (< clearance %.3g); "
            "quadrature error may be large" % (dmin, _CLEARANCE),
            RuntimeWarning,
        )
    g = _stokeslet(diff, r)  # (P, N, 2, 2)
    u = np.tensordot(g, fs, ([1, 3], [0, 1])) * (2.0 * np.pi / curve.grid_size)
    return u if np.asarray(points).ndim > 1 else u[0]
