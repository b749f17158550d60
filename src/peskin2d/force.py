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
in closed form there.  The solve uses that inverse for the curve's circle
part as the preconditioner of a Richardson iteration, which near a circle
converges in a few matrix-vector products; when the residual stops halving
(large deviations at |a_mu| near 1) it falls back to the dense LU.

Every (N, N) table lives in one workspace per band and grid (M, N), filled
in place and reused, so a step allocates none (the module is
single-threaded).  `_pair_geometry`, behind the one degeneracy guard, makes
one row-tiled sweep over the pairs, dX from exact rank-2 products and the
diagonals' smooth limits from the same passes, that writes only the tables
its caller reads: S for a solve at a_mu != 0, and V, the whole single
layer, for a velocity (`velocity_on_curve`, or the sweep of a right-hand
side's `_interface_velocity`).  Each is three read-only
tables (g, c, e), B = 1/2 (g I + c diag(1, -1)) + e [[0, 1], [1, 0]] per
pair (V's g reads a weight with e = exp(1) folded in), valid until the next
sweep on its (M, N) that writes it.  A force is its (N, 2) grid samples,
the Nystrom unknowns (its band-M coefficients are `analyze(f, M)`); forces,
velocities and the dense S of `s_operator_matrix` are arrays of their own.
"""

import functools
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .kernels import _grid_force, log_convolve
from .spectral import (
    _CONTRAST,
    _POSITIVE,
    _arc_chord_guard,
    _grid_samples,
    _j_action,
    _number,
    _split,
    analyze,
    circle_part,
    derivative,
    synthesize,
    theta_grid,
)

__all__ = ["PhysicsParams", "SolverError", "elastic_force",
           "force_zero_linear", "s_operator_matrix", "solve_force"]

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
        for field in fields(self):  # stored as floats
            object.__setattr__(self, field.name, _number(
                getattr(self, field.name), field.name, domain=_POSITIVE))
        _number(self.a_mu, "a_mu of the viscosities", domain=_CONTRAST)
        _number(self.a_e, "a_e of k0 / (mu1 + mu2)", domain=_POSITIVE)

    @classmethod
    def from_contrast(cls, a_mu, a_e):
        """Build from (a_mu, a_e) with mu1 + mu2 = 1.  `a_mu` is recomputed
        from the viscosities and can differ from the argument in the last bit:
        0.3 reads 0.30000000000000004; 24 of -0.95, -0.90, .., 0.95 differ."""
        a_mu = _number(a_mu, "a_mu", domain=_CONTRAST)
        a_e = _number(a_e, "a_e", domain=_POSITIVE)
        return cls(mu1=0.5 * (1.0 - a_mu), mu2=0.5 * (1.0 + a_mu), k0=a_e)

    @property
    def a_mu(self):
        return (self.mu2 - self.mu1) / (self.mu1 + self.mu2)

    @property
    def a_e(self):
        return self.k0 / (self.mu1 + self.mu2)


def elastic_force(curve, params):
    """k0 X'' as (N, 2) grid samples."""
    return params.k0 * synthesize(derivative(derivative(curve)))


@functools.lru_cache(maxsize=4)
def _workspace(m, n):
    """The tables of band m on grid size n.

    Read-only: V's circulant weight e w(t - e), e = exp(1) and
    w = sin2 exp(4N c_M(t - e)), with sin2 = (2 sin((theta_t - theta_e)/2))^2
    (1 on the diagonal) and c_M the band-m `log_convolve` of a unit impulse,
    so 1/2 log(e w/|dX|^2) is 1/2 plus 2N times the periodic log kernel; and
    the flattened fields (1, 0), (0, 1), u = (cos, sin), v = (-sin, cos) as
    circle_basis.  Written by the `_pair_geometry` sweeps that ask for them:
    the tables (g, c, e) of S in `s` and of V in `v`, each (3, N, N) with
    read-only views `s_blocks` and `v_blocks`; and by every sweep, the
    operands [x, 1] `lhs` and [1; -x] `rhs` of the differences in x and y,
    and the five row-tile buffers `tile`, (5, rows, N), rows * N ~ _TILE_PAIRS.
    """
    lags = np.arange(n)
    w = (2.0 * np.sin(np.pi * lags / n)) ** 2
    w[0] = 1.0
    # column 0 of eye(n, 2) is a unit impulse at theta_0
    w *= np.exp(1.0 + (4.0 * n) * log_convolve(analyze(np.eye(n, 2), m))[:, 0])
    weight = w[(lags[:, None] - lags) % n]  # weight[t, e] = e w(t - e mod N)
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
                           lhs=np.ones((2, n, 2)), rhs=np.ones((2, 2, n)),
                           tile=np.empty((5, rows, n)))


def _pair_geometry(curve, arc_chord_floor=1e-8, with_s=False, with_v=False):
    """Synthesize X, X', X'' once, behind the one degeneracy guard
    `spectral._arc_chord_guard` at `arc_chord_floor`, and fill the tables of
    S when `with_s` and of V when `with_v` in one sweep over the pairs.
    Returns (dds, s, v): the (N, 2) samples of X'' and the read-only
    (g, c, e) tables of S and of V, None where not asked for; asked for
    neither, it builds no workspace and makes no sweep.

    X, X' and X'' come from one real inverse FFT of their (M+1, 3, 2)
    spectrum of modes k >= 0, X'' as (c ik) ik, the multiplies of
    `derivative`.  A row tile of about _TILE_PAIRS pairs takes dX from the
    products [x_t, 1][1; -x_e] (and for y), whose two exact terms round once
    to x_t - x_e.  It shares 1/|dX|^2, c = (dx^2 - dy^2)/|dX|^2 and
    e = dx dy/|dX|^2 between V, g = log(e w/|dX|^2) with the weight of
    `_workspace`, and S, (g, c, e) = sigma (1, c, e) with the weight
    sigma = (2/N)(dX . X'^perp(theta_t))/|dX|^2; by xx + yy = 1 each holds
    B = 1/2 (g I + c diag(1, -1)) + e [[0, 1], [1, 0]] per pair.  After the
    products it makes 10 elementwise passes for V, 14 for S, 16 for both.
    The diagonals come from the same passes: dX(theta_t, theta_t) is set to
    X'(theta_t), which gives the smooth limits g = log(e w(0)/|X'|^2),
    c = (x'^2 - y'^2)/|X'|^2 and e = x'y'/|X'|^2, and then, for S, to
    -X''(theta_t)/2, which gives sigma = -(X'' . X'^perp)/(N |X'|^2).  The
    tables hold until the next sweep on (M, N) writes them.
    """
    _arc_chord_guard(curve, arc_chord_floor)
    m, n = curve.max_mode, curve.grid_size
    ik = (1j * np.arange(m + 1))[:, None]
    spectrum = np.empty((m + 1, 3, 2), dtype=complex)
    spectrum[:, 0] = curve.coeffs[m:]
    np.multiply(spectrum[:, 0], ik, out=spectrum[:, 1])
    np.multiply(spectrum[:, 1], ik, out=spectrum[:, 2])
    xs, ds, dds = _grid_samples(spectrum, n).transpose(1, 0, 2)
    if not (with_s or with_v):
        return dds, None, None
    try:
        ws = _workspace(m, n)
    except MemoryError:
        raise MemoryError("grid size %d: its (N, N) pair tables do not fit in "
                          "memory" % n) from None
    ws.lhs[:, :, 0] = xs.T
    np.negative(xs.T, out=ws.rhs[:, 1])
    px, py = (-2.0 / n) * ds[:, 1], (2.0 / n) * ds[:, 0]  # (2/N) X'^perp
    rows = ws.tile.shape[1]
    for t0 in range(0, n, rows):
        t1 = min(t0 + rows, n)
        dx, dy, xx, yy, inv = ws.tile[:, :t1 - t0]
        diag = ws.tile[:2, :t1 - t0].reshape(2, -1)[:, t0::n + 1]  # dX(t, t)
        vg, c, e = ws.v[:, t0:t1] if with_v else (None, xx, yy)
        np.matmul(ws.lhs[:, t0:t1], ws.rhs, out=ws.tile[:2, :t1 - t0])
        diag[...] = ds[t0:t1].T
        np.multiply(dx, dx, out=xx)
        np.multiply(dy, dy, out=yy)
        np.divide(1.0, np.add(xx, yy, out=inv), out=inv)
        np.multiply(np.subtract(xx, yy, out=c), inv, out=c)
        np.multiply(np.multiply(dx, dy, out=e), inv, out=e)
        if with_v:
            np.log(np.multiply(inv, ws.weight[t0:t1], out=vg), out=vg)
        if with_s:  # sigma = (2/N)(dX . X'^perp)/|dX|^2 in S's g table
            sg, sc, se = ws.s[:, t0:t1]
            np.multiply(dds[t0:t1].T, -0.5, out=diag)
            dx *= px[t0:t1, None]
            dx += np.multiply(dy, py[t0:t1, None], out=dy)
            np.multiply(dx, inv, out=sg)
            np.multiply(sg, c, out=sc)
            np.multiply(sg, e, out=se)
    return (dds, ws.s_blocks if with_s else None,
            ws.v_blocks if with_v else None)


def s_operator_matrix(curve):
    """S(., X) with quadrature weight: the dense (2N, 2N) Nystrom matrix on
    interleaved (x, y) samples, its own array, behind the guard at 1e-8."""
    return _dense(_pair_geometry(curve, with_s=True)[1])


def _apply_blocks(blocks, f):
    """B f for the (g, c, e) tables of S or V (see `_pair_geometry`) and a
    field f, flattened (2N,) or (N, 2), returned in the shape of f: each
    table is read once, as one product with the (N, 2) samples."""
    g, c, e = blocks
    f2 = f.reshape(-1, 2)
    out = c @ f2
    out[:, 1] *= -1.0
    out += g @ f2
    out *= 0.5
    out += e @ f2[:, ::-1]
    return out.reshape(f.shape)


def _dense(s):
    """S's (2N, 2N) matrix on interleaved samples from its (g, c, e) tables."""
    g, c, e = s
    mat = np.empty((len(g), 2, len(g), 2))
    mat[:, 0, :, 0], mat[:, 1, :, 1] = 0.5 * (g + c), 0.5 * (g - c)
    mat[:, 0, :, 1] = mat[:, 1, :, 0] = e
    return mat.reshape(2 * len(g), -1)


def _dense_system(s, a_mu):
    """The dense (2N, 2N) I - 2 a_mu S on interleaved samples, S as (g, c, e)."""
    return np.eye(2 * len(s[0])) - 2.0 * a_mu * _dense(s)


def _circle_preconditioner(curve, a_mu):
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
    circle, n = circle_part(curve), curve.grid_size
    r = circle.radius
    if not r > 0.0:
        return None
    cos, sin = circle.a / r, circle.b / r  # e_r = cos u + sin v
    up, out = (1.0 / (1.0 + a_mu) - 1.0) / n, (1.0 / (1.0 - a_mu) - 1.0) / n
    cross = cos * sin * (out - up)
    weights = np.array([[up, 0.0, 0.0, 0.0], [0.0, up, 0.0, 0.0],
                        [0.0, 0.0, cos * cos * out + sin * sin * up, cross],
                        [0.0, 0.0, cross, sin * sin * out + cos * cos * up]])
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


def solve_force(curve, params):
    """Solve (I - 2 a_mu S) F = 2 a_e X'' for the (N, 2) grid samples of F.

    The preconditioned Richardson iteration F <- F + P (b - (I - 2 a_mu S) F)
    runs from F = P b, where P inverts the system exactly on the curve's
    circle part (see `_circle_preconditioner`).  Near a circle each step
    shrinks the residual by about the size of the deviation, so a certified
    run needs two to four matrix-vector products in place of an O((2N)^3)
    factorization.  It stops once max |b - (I - 2 a_mu S) F| <= 1e-14 max |F|
    (`_TOL`), and falls back to the dense LU when that residual fails to
    halve in one step, after 500 residuals (`_MAX_ITER`), or when the circle
    part has zero radius.  Either way the residual relative to
    max(1, max |b|) must end at most 1e-10, or SolverError is raised.
    The pair geometry is built here, behind the guard at floor 1e-8.
    """
    dds, s, _ = _pair_geometry(curve, with_s=params.a_mu != 0.0)
    return _force_samples(curve, params, dds, s)


def _force_samples(curve, params, dds, s):
    """The force of `solve_force` as (N, 2) grid samples, from the samples
    dds of X'' and the S blocks s (None at a_mu = 0) of `_pair_geometry`."""
    a_mu, a_e = params.a_mu, params.a_e
    b = (2.0 * a_e * dds).reshape(-1)
    if a_mu == 0.0:
        f = b
    else:
        def residual(f):
            return b - f + 2.0 * a_mu * _apply_blocks(s, f)

        solved = _richardson(residual, _circle_preconditioner(curve, a_mu), b)
        if solved is None:
            f = np.linalg.solve(_dense_system(s, a_mu), b)
            solved = f, residual(f)
        f, r = solved
        resid = np.abs(r).max() / max(1.0, np.abs(b).max())
        if not (resid <= 1e-10):
            raise SolverError(
                "force system residual %.3e (condition number %.3e)"
                % (resid, np.linalg.cond(_dense_system(s, a_mu)))
            )
    return f.reshape(-1, 2)


def velocity_on_curve(curve, force):
    """Fluid velocity on the interface driven by the (N, 2) force samples on
    the curve's grid, as (N, 2) samples: the block apply of V over 2N, with
    V built here behind the degeneracy guard at floor 1e-8."""
    f = _grid_force(force, curve)
    v = _pair_geometry(curve, with_v=True)[2]
    return _apply_blocks(v, f) / (2.0 * curve.grid_size)


def _interface_velocity(curve, params, arc_chord_floor):
    """The velocity of a right-hand side as (N, 2) samples: one sweep behind
    the guard at `arc_chord_floor` writes V, and S when a_mu != 0, for the
    force solve and the block apply of V over 2N."""
    dds, s, v = _pair_geometry(curve, arc_chord_floor,
                               with_s=params.a_mu != 0.0, with_v=True)
    f = _force_samples(curve, params, dds, s)
    return _apply_blocks(v, f) / (2.0 * curve.grid_size)


def force_zero_linear(curve, params):
    """(N, 2) samples of the force's parts F0 and FL about the circle family.

    F0 acts on the circle part alone: (2 a_e / (1 - a_mu)) X_c''.
    FL acts on the deviation Z: -2 a_e k^2 Z_k + (2 a_e a_mu/(1-a_mu)) |k| J Z_k
    with J(k) = [[0, -i sgn k], [i sgn k, 0]]; the multiplier is the same for
    every member of the circle family, so it needs no reference circle.
    """
    a_mu, a_e = params.a_mu, params.a_e
    circle, dev = _split(curve)
    ks, z = curve.ks, dev.coeffs
    k2 = (ks**2)[:, None]
    f0 = (2.0 * a_e / (1.0 - a_mu)) * -k2 * circle._coeffs(curve.max_mode)
    jz = np.abs(ks)[:, None] * _j_action(z)
    fl = -2.0 * a_e * k2 * z + (2.0 * a_e * a_mu / (1.0 - a_mu)) * jz
    m, n = curve.max_mode, curve.grid_size
    return _grid_samples(f0[m:], n), _grid_samples(fl[m:], n)
