"""Interface force density for a closed elastic filament with two fluids.

With viscosity contrast a_mu = (mu2 - mu1)/(mu1 + mu2) and elastic
strength a_e = k0/(mu1 + mu2), the effective force density solves

    F = 2 a_mu S(F, X) + 2 a_e d^2X/dtheta^2,

where S is the double-layer-type operator

    S_i(F, X)(theta) = -dX^perp_j(theta) . pv int T_ijk(X(theta)-X(eta)) F_k(eta) deta,

with v^perp = (-v2, v1) and the stress kernel

    T_ijk(x) = -(1/pi) x_i x_j x_k / |x|^4.

On the grid, S is a dense Nystrom matrix built from
B(theta, eta) = (1/pi) (dX . dXperp(theta)) (dX ox dX)/|dX|^4 with the
smooth diagonal limit

    B(theta, theta) = -(1/2pi) (X'' . X'^perp) (X' ox X') / |X'|^4,

so plain trapezoid quadrature is spectrally accurate (and exact on circles,
where the integrand is a trigonometric polynomial of degree two).

On a circle this matrix has rank four (-1/2 on the constants and on the
tangent field e_t, +1/2 on the radial field e_r), so I - 2 a_mu S inverts
in closed form there.  The default solve uses that inverse for the curve's
circle part as the preconditioner of a Richardson iteration, which near a
circle converges in a few matrix-vector products; when the residual stops
halving (large deviations at |a_mu| near 1) it falls back to the dense LU,
which method='direct' always uses.

Every (N, N) table lives in one workspace per band and grid (M, N), filled
in place and reused, so a step allocates none (the module is
single-threaded).  `_pair_geometry`, behind the one degeneracy guard, makes
one row-tiled sweep over the pairs that writes the (xx, xy, yy) blocks of S
(when a solve will read them) and of V, the whole single layer of
`evolution`, together; the pair differences live only in bounded tile
buffers.  Each comes as read-only blocks, valid until the next sweep on its
(M, N) that writes it, and one block apply serves both.  `solve_force` and
`velocity_on_curve` return arrays of their own.
"""

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .kernels import log_convolve
from .spectral import (
    FourierCurve,
    _arc_chord_guard,
    _grid_samples,
    _j_action,
    _split,
    analyze,
    circle_part,
    derivative,
    synthesize,
    theta_grid,
)


_TOL = 1e-14  # Richardson stops at max |r| <= _TOL max |F|
_MAX_ITER = 500  # residuals before the Richardson iteration gives up
_TILE_PAIRS = 16384  # pairs per row tile of the `_pair_geometry` sweep


class SolverError(RuntimeError):
    """The force system could not be solved to tolerance."""


@dataclass(frozen=True)
class PhysicsParams:
    """Viscosities of the two phases and elastic modulus of the interface."""

    mu1: float
    mu2: float
    k0: float

    def __post_init__(self):
        if not (0 < self.mu1 < math.inf and 0 < self.mu2 < math.inf):
            raise ValueError("viscosities must be positive and finite")
        if not 0 < self.k0 < math.inf:
            raise ValueError("elastic modulus must be positive and finite")

    @classmethod
    def from_contrast(cls, a_mu, a_e):
        """Build from (a_mu, a_e) with the normalization mu1 + mu2 = 1."""
        if not -1.0 < a_mu < 1.0:
            raise ValueError("a_mu must lie in (-1, 1)")
        if not 0 < a_e < math.inf:
            raise ValueError("a_e must be positive and finite")
        return cls(mu1=0.5 * (1.0 - a_mu), mu2=0.5 * (1.0 + a_mu), k0=a_e)

    @property
    def a_mu(self):
        return (self.mu2 - self.mu1) / (self.mu1 + self.mu2)

    @property
    def a_e(self):
        return self.k0 / (self.mu1 + self.mu2)


@dataclass(frozen=True, eq=False)
class ForceDensity:
    """Force density on the interface, stored both ways.

    samples : (N, 2) values on the uniform grid
    coeffs  : (2M+1, 2) Fourier coefficients (band-limited projection)
    """

    samples: np.ndarray
    coeffs: np.ndarray

    @property
    def grid_size(self):
        return self.samples.shape[0]

    @property
    def max_mode(self):
        return (self.coeffs.shape[0] - 1) // 2

    @classmethod
    def from_samples(cls, samples, max_mode=None):
        s = np.asarray(samples, dtype=float)
        fc = analyze(s, max_mode)
        return cls(s, fc.coeffs)

    @classmethod
    def from_coeffs(cls, coeffs, grid_size):
        fc = FourierCurve(np.asarray(coeffs, dtype=complex), grid_size)
        return cls(synthesize(fc), fc.coeffs)

    def __sub__(self, other):
        return ForceDensity(self.samples - other.samples, self.coeffs - other.coeffs)


def elastic_force(curve, params=None):
    """k0 * d^2 X / dtheta^2 (k0 = 1 when params is None)."""
    k0 = 1.0 if params is None else params.k0
    dd = derivative(derivative(curve))
    return ForceDensity(k0 * synthesize(dd), k0 * dd.coeffs)


@functools.lru_cache(maxsize=4)
def _workspace(m, n):
    """The tables of band m on grid size n.

    Read-only: V's circulant weight w(t - e) = sin2 exp(4N c_M(t - e)), with
    sin2 = (2 sin((theta_t - theta_e)/2))^2 (1 on the diagonal) and c_M the
    band-m `log_convolve` of a unit impulse, so -1/2 log(|dX|^2/w) carries
    2N times the periodic log kernel; and the flattened fields (1, 0),
    (0, 1), u = (cos, sin), v = (-sin, cos) as circle_basis.  Written by
    each `_pair_geometry` sweep: the blocks (xx, xy, yy) of S in `s` and of
    V in `v`, each (3, N, N) with read-only views `s_blocks` and `v_blocks`,
    and the five row-tile buffers `tile`, (5, rows, N), rows * N ~ _TILE_PAIRS.
    """
    lags = np.arange(n)
    w = (2.0 * np.sin(np.pi * lags / n)) ** 2
    w[0] = 1.0
    # column 0 of eye(n, 2) is a unit impulse at theta_0
    w *= np.exp((4.0 * n) * log_convolve(analyze(np.eye(n, 2), m))[:, 0])
    weight = w[(lags[:, None] - lags) % n]  # weight[t, e] = w(t - e mod N)
    th = theta_grid(n)
    cos, sin, one, zero = np.cos(th), np.sin(th), np.ones(n), np.zeros(n)
    circle_basis = np.array([np.column_stack(f).ravel() for f in
                             ((one, zero), (zero, one), (cos, sin), (-sin, cos))])
    s, v = np.empty((3, n, n)), np.empty((3, n, n))
    s_ro, v_ro = s.view(), v.view()
    for table in (weight, circle_basis, s_ro, v_ro):
        table.flags.writeable = False
    rows = min(n, max(1, _TILE_PAIRS // n))
    return SimpleNamespace(weight=weight, circle_basis=circle_basis, s=s, v=v,
                           s_blocks=tuple(s_ro), v_blocks=tuple(v_ro),
                           tile=np.empty((5, rows, n)))


@dataclass(frozen=True, eq=False)
class _PairGeometry:
    """One curve on its grid: samples of X'' and the read-only (xx, xy, yy)
    blocks of S (None when not asked for) and of V, the regularized
    Stokeslet of `evolution`."""

    dds: np.ndarray
    s: tuple | None
    v: tuple

    @property
    def n(self):
        return self.dds.shape[0]


def _pair_geometry(curve, arc_chord_floor=1e-8, with_s=True):
    """Synthesize X, X', X'' once, behind the one degeneracy guard
    `spectral._arc_chord_guard` at `arc_chord_floor`, and fill the blocks of
    V, and of S when `with_s`, in one sweep over the pairs.

    The sweep goes by row tiles of about _TILE_PAIRS pairs, and each tile
    shares dX = X(theta_t) - X(theta_e), 1/|dX|^2 and dX ox dX/|dX|^2
    between V = -1/2 log(|dX|^2/w) I + dX ox dX/|dX|^2 (w of `_workspace`)
    and the S weight (2pi/N)(1/pi)(dX . X'^perp(theta_t))/|dX|^2.  The
    diagonals are the smooth limits -1/2 log(|X'|^2/w(0)) I + X' ox X'/|X'|^2
    and (2pi/N)(-1/2pi)(X'' . X'^perp) X' ox X'/|X'|^4.  The blocks live in
    the workspace of (M, N): they are valid until the next sweep there,
    which leaves S untouched when it writes V only.
    """
    _arc_chord_guard(curve, arc_chord_floor)
    ik = (1j * curve.ks)[:, None]
    xp = curve.coeffs * ik
    # X, X' and X'' from one inverse FFT of their (2M+1, 6) spectrum
    samples = _grid_samples(np.hstack([curve.coeffs, xp, xp * ik]),
                            curve.grid_size)
    xs, ds, dds = samples[:, :2], samples[:, 2:4], samples[:, 4:]
    n = curve.grid_size
    try:
        ws = _workspace(curve.max_mode, n)
    except MemoryError:
        raise MemoryError("grid size %d: its (N, N) pair tables do not fit in "
                          "memory" % n) from None
    speed2 = np.sum(ds**2, axis=1)
    outer = np.stack([ds[:, 0] * ds[:, 0], ds[:, 0] * ds[:, 1],
                      ds[:, 1] * ds[:, 1]])
    px, py = (-2.0 / n) * ds[:, 1], (2.0 / n) * ds[:, 0]  # (2/N) X'^perp
    rows = ws.tile.shape[1]
    for t0 in range(0, n, rows):
        t1 = min(t0 + rows, n)
        dx, dy, xx, yy, inv = ws.tile[:, :t1 - t0]
        vxx, vxy, vyy = ws.v[:, t0:t1]
        np.subtract(xs[t0:t1, 0, None], xs[None, :, 0], out=dx)
        np.subtract(xs[t0:t1, 1, None], xs[None, :, 1], out=dy)
        np.multiply(dx, dx, out=xx)
        np.multiply(dy, dy, out=yy)
        np.add(xx, yy, out=inv)
        inv.reshape(-1)[t0::n + 1] = 1.0  # the diagonal, so it can divide
        np.divide(1.0, inv, out=inv)
        xx *= inv
        yy *= inv
        np.multiply(dx, dy, out=vxy)
        vxy *= inv
        # V = h I + dX ox dX/|dX|^2 with h = -1/2 log(|dX|^2/w) in vxx
        np.log(np.multiply(inv, ws.weight[t0:t1], out=vxx), out=vxx)
        vxx *= 0.5
        np.add(vxx, yy, out=vyy)
        vxx += xx
        if with_s:  # dx becomes the S weight (2/N)(dX . X'^perp)/|dX|^2
            dx *= px[t0:t1, None]
            dx += np.multiply(dy, py[t0:t1, None], out=dy)
            dx *= inv
            for block, q in zip(ws.s[:, t0:t1], (xx, vxy, yy)):
                np.multiply(dx, q, out=block)
    # the diagonals, through one strided slice of each (3, N^2) table
    diag = outer / speed2
    diag[::2] -= 0.5 * np.log(speed2 / ws.weight[0, 0])
    ws.v.reshape(3, -1)[:, ::n + 1] = diag
    if with_s:
        wd = -(dds[:, 0] * px + dds[:, 1] * py) / (2.0 * speed2**2)
        ws.s.reshape(3, -1)[:, ::n + 1] = wd * outer
    return _PairGeometry(dds, ws.s_blocks if with_s else None, ws.v_blocks)


def s_operator_matrix(curve):
    """S(., X) including quadrature weight, as three read-only (N, N) blocks
    (sxx, sxy, syy): S(F)_x = sxx F_x + sxy F_y, S(F)_y = sxy F_x + syy F_y.

    They are built here, behind the degeneracy guard at floor 1e-8, and live
    in the workspace of (M, N) until the next sweep there that writes S.
    """
    return _pair_geometry(curve).s


def _apply_blocks(blocks, f):
    """B f for the symmetric 2x2-block matrix B = (bxx, bxy, byy) of S or V
    and a field f, flattened (2N,) or (N, 2), returned in the shape of f:
    bxy is read once, as one product with the (N, 2) samples."""
    bxx, bxy, byy = blocks
    f2 = f.reshape(-1, 2)
    out = bxy @ f2[:, ::-1]
    out[:, 0] += bxx @ f2[:, 0]
    out[:, 1] += byy @ f2[:, 1]
    return out.reshape(f.shape)


def _dense_system(blocks, a_mu):
    """The dense (2N, 2N) I - 2 a_mu S on interleaved (x, y) samples."""
    sxx, sxy, syy = blocks
    n = sxx.shape[0]
    mat = np.empty((n, 2, n, 2))
    mat[:, 0, :, 0] = sxx
    mat[:, 0, :, 1] = mat[:, 1, :, 0] = sxy
    mat[:, 1, :, 1] = syy
    return np.eye(2 * n) - 2.0 * a_mu * mat.reshape(2 * n, 2 * n)


def _circle_preconditioner(curve, n, a_mu):
    """P = (I - 2 a_mu S_circle)^{-1} for the circle part of `curve`, read
    from its modes 0 and +-1 (`circle_part`), as a function on flattened
    (2N,) fields, or None when that circle has zero radius.

    On a circle the Nystrom matrix of S has rank four: it is -1/2 on the two
    constant fields and on e_t, +1/2 on e_r, and zero on every field
    orthogonal to them.  These four fields are orthogonal on the grid, each
    with squared norm N, so P is the identity plus three projections with
    weights 1/(1+a_mu) - 1 (constants, e_t) and 1/(1-a_mu) - 1 (e_r), where
    e_r = (a u + b v)/R and e_t = (a v - b u)/R in the grid's fixed fields
    u = (cos, sin) and v = (-sin, cos).
    """
    circle = circle_part(curve)
    r = circle.radius
    if not r > 0.0:
        return None
    rot = np.array([[circle.a, -circle.b], [circle.b, circle.a]]) / r
    up, out = 1.0 / (1.0 + a_mu) - 1.0, 1.0 / (1.0 - a_mu) - 1.0
    weights = np.diag([up, up, 0.0, 0.0]) / n
    weights[2:, 2:] = rot @ np.diag([out, up]) @ rot.T / n  # on e_r, e_t
    basis = _workspace(curve.max_mode, n).circle_basis
    return lambda v: v + (weights @ (basis @ v)) @ basis


def _richardson(residual, precondition, b):
    """Preconditioned Richardson iteration F <- F + P r from F = P b, where
    `residual(F)` returns r = b - A F.  Returns (F, r) once
    max |r| <= _TOL max |F|, or None when there is no preconditioner, when
    max |r| fails to halve in one step, or after _MAX_ITER residuals.
    """
    if precondition is None:
        return None
    f, last = precondition(b), np.inf
    for _ in range(_MAX_ITER):
        r = residual(f)
        size = np.abs(r).max()
        if size <= _TOL * np.abs(f).max():
            return f, r
        if not size <= 0.5 * last:
            return None  # stalled or diverging
        f, last = f + precondition(r), size
    return None


def solve_force(curve, params, method="richardson"):
    """Solve (I - 2 a_mu S) F = 2 a_e X'' for the force density.

    method='richardson' (the default) runs the preconditioned Richardson
    iteration F <- F + P (b - (I - 2 a_mu S) F) from F = P b, where P
    inverts the system exactly on the curve's circle part (see
    `_circle_preconditioner`).  Near a circle each step shrinks the
    residual by about the size of the deviation, so a certified run needs
    two to four matrix-vector products in place of an O((2N)^3)
    factorization.  It stops once max |b - (I - 2 a_mu S) F| <= 1e-14 max |F|
    (`_TOL`), and falls back to the dense LU when that residual fails to
    halve in one step, after 500 residuals (`_MAX_ITER`), or when the circle
    part has zero radius.  method='direct' always factors the dense system
    and is the reference.  Either way the residual relative to
    max(1, max |b|) must end at most 1e-10, or SolverError is raised.
    The pair geometry is built here, behind the guard at floor 1e-8.
    """
    if method not in ("direct", "richardson"):
        raise ValueError("method must be 'direct' or 'richardson'")
    g = _pair_geometry(curve, with_s=params.a_mu != 0.0)
    samples = _force_samples(curve, params, g, method)
    return ForceDensity.from_samples(samples, curve.max_mode)


def _force_samples(curve, params, g, method="richardson"):
    """The force of `solve_force` as (N, 2) grid samples, solved on the
    curve's `_pair_geometry` g, which carries S when a_mu is not zero."""
    a_mu, a_e = params.a_mu, params.a_e
    b = (2.0 * a_e * g.dds).reshape(-1)
    if a_mu == 0.0:
        f = b
    else:
        def residual(f):
            return b - f + 2.0 * a_mu * _apply_blocks(g.s, f)

        solved = None
        if method == "richardson":
            precondition = _circle_preconditioner(curve, g.n, a_mu)
            solved = _richardson(residual, precondition, b)
        if solved is None:
            f = np.linalg.solve(_dense_system(g.s, a_mu), b)
            solved = f, residual(f)
        f, r = solved
        resid = np.abs(r).max() / max(1.0, np.abs(b).max())
        if not (resid <= 1e-10):
            raise SolverError(
                "force system residual %.3e (condition number %.3e)"
                % (resid, np.linalg.cond(_dense_system(g.s, a_mu)))
            )
    return f.reshape(-1, 2)


def force_zero_linear(curve, params):
    """Equilibrium and linear parts of the force about the circle family.

    F0 acts on the circle part alone: (2 a_e / (1 - a_mu)) X_c''.
    FL acts on the deviation Z: -2 a_e k^2 Z_k + (2 a_e a_mu/(1-a_mu)) |k| J Z_k
    with J(k) = [[0, -i sgn k], [i sgn k, 0]]; the multiplier is the same for
    every member of the circle family, so it needs no reference circle.
    """
    a_mu, a_e = params.a_mu, params.a_e
    circle, dev = _split(curve)
    ks, z, n = curve.ks, dev.coeffs, curve.grid_size
    k2 = (ks**2)[:, None]
    f0 = (2.0 * a_e / (1.0 - a_mu)) * -k2 * circle._coeffs(curve.max_mode)
    jz = np.abs(ks)[:, None] * _j_action(z)
    fl = -2.0 * a_e * k2 * z + (2.0 * a_e * a_mu / (1.0 - a_mu)) * jz
    return ForceDensity.from_coeffs(f0, n), ForceDensity.from_coeffs(fl, n)


def force_split_residual(force, f0, fl):
    """Quadratic remainder F - F0 - FL as a ForceDensity."""
    return force - f0 - fl
