"""Fourier-side representation of closed planar curves.

Conventions used throughout the package
---------------------------------------

A curve X : [-pi, pi) -> R^2 is stored by its Fourier coefficients

    c_k = (1/2pi) int_{-pi}^{pi} X(theta) e^{-ik theta} dtheta,      |k| <= M,

as a complex array of shape (2M+1, 2); row ``j`` holds mode ``k = j - M``.
Real curves satisfy c_{-k} = conj(c_k).  Samples live on the uniform grid

    theta_j = -pi + 2*pi*j/N,   j = 0..N-1,

so the DFT picks up an alternating phase: with ``fhat = rfft(samples)/N``
computed on that grid, ``c_k = (-1)^k * fhat[k]`` for k >= 0 and
``c_{-k} = conj(c_k)``.  Samples and coefficients pass through one real
FFT each way (`synthesize`, `analyze`) of the modes k >= 0.

The diagonalizing frame for the linearized dynamics ("Y variables") is

    y_k = P(k)^{-1} c_k,     P(k) = (1/sqrt2) [[-i sgn k, 1], [1, -i sgn k]],

which is unitary for k != 0, and P(0) = (1/sqrt2)[[0,1],[1,0]].  In this
frame the linear operator L(k) = [[|k|, -i sgn k], [i sgn k, |k|]] becomes
diag(|k|+1, |k|-1), and the steady circles occupy exactly the zero mode
plus the second component of mode one.  The solvers apply L = |k| I + J in
the X frame (`_j_action`); to_Y / from_Y are the frame's public reference.
"""

import collections
import functools
import math
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

__all__ = ["AliasingError", "CirclePart", "CurveDegenerateError",
           "FourierCurve", "analyze", "arc_chord_constant", "circle_curve",
           "circle_decompose", "derivative", "enclosed_area", "evaluate",
           "fnorm", "from_Y", "geometry_diagnostics", "synthesize",
           "theta_grid", "to_Y"]

_SQRT2 = math.sqrt(2.0)


class AliasingError(ValueError):
    """Grid too coarse for the requested band-limit."""


class CurveDegenerateError(RuntimeError):
    """Curve failed a geometric sanity check (self-touching or collapsed)."""


# an input's open interval (low, high) of `kind` values, worded as `text`
_Domain = collections.namedtuple("_Domain", "low high kind text")

_POSITIVE = _Domain(0.0, math.inf, float, "positive and finite")
# open at the float below 0, so 0 and -0.0 are in and every negative is out
_NONNEGATIVE = _Domain(-5e-324, math.inf, float, "nonnegative and finite")
_CONTRAST = _Domain(-1.0, 1.0, float, "in (-1, 1)")
_WHOLE = _Domain(-math.inf, math.inf, int, "a whole number")
_COUNT = _Domain(0, math.inf, int, "a whole number >= 1")
_SEED = _Domain(-1, math.inf, int, "nonnegative and finite")  # ints >= 0


def _number(value, name, domain=None):
    """The package's one number and domain check: `value` as a float, or as
    an int when `domain.kind` is int, in `domain` when one is given; a
    one-line ValueError naming `name` for a bool, a non-real, an overflow,
    a non-finite or fractional value where a whole number is due, or a value
    outside `domain` (`<name> must be <domain>, got <value>`)."""
    kind = float if domain is None else domain.kind
    if type(value) is not kind:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError("%s must be a number, got %r" % (name, value))
        if kind is float:
            try:
                value = float(value)
            except OverflowError:  # e.g. a 400-digit int, too long to echo
                raise ValueError("%s is too large for a float" % name) from None
        elif math.isfinite(value) and float(value).is_integer():
            value = int(value)  # exact for numpy integers too
        else:
            raise ValueError("%s must be a whole number, got %r" % (name, value))
    if domain is None or domain.low < value < domain.high:  # NaN is in none
        return value
    raise ValueError("%s must be %s, got %r" % (name, domain.text, value))


def theta_grid(n):
    """Uniform grid theta_j = -pi + 2*pi*j/n, j=0..n-1."""
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


def hermitize(coeffs):
    """Project onto the conjugate-symmetric subspace: c_{-k} <- avg."""
    c = np.asarray(coeffs, dtype=complex)
    return 0.5 * (c + np.conj(c[::-1]))


@dataclass(frozen=True, eq=False)
class FourierCurve:
    """Band-limited closed curve.

    Parameters
    ----------
    coeffs : (2M+1, 2) complex array, mode k in row k+M.  It is stored as
        hermitize(coeffs), exactly conjugate-symmetric; data further than
        1e-8 of its scale from c_{-k} = conj(c_k) is rejected.
    grid_size : whole number of grid points carried around for quadrature;
        must satisfy grid_size >= 2M+1 (strict minimum to avoid aliasing the
        band); 0 picks max(4M, 8), the default used by the solvers for
        anti-aliasing headroom on quadratic terms.
    """

    coeffs: np.ndarray
    grid_size: int = 0  # 0 means "pick the max(4M, 8) default"

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=complex)
        if c.ndim != 2 or c.shape[1] != 2 or c.shape[0] % 2 == 0 or len(c) < 3:
            raise ValueError("coeffs must have shape (2M+1, 2) with M >= 1")
        m = (c.shape[0] - 1) // 2
        n = _number(self.grid_size, "grid_size", domain=_WHOLE) or max(4 * m, 8)
        if n < 2 * m + 1:
            raise AliasingError(
                "grid_size %d cannot resolve modes up to %d (need >= %d)"
                % (n, m, 2 * m + 1)
            )
        if n > sys.maxsize:  # numpy indexes no more; too long to echo
            raise ValueError("grid_size is larger than any array")
        object.__setattr__(self, "grid_size", n)
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        asym = np.max(np.abs(c - np.conj(c[::-1])))
        scale = max(1.0, np.max(np.abs(c)))
        if asym > 1e-8 * scale:
            raise ValueError(
                "coefficients are not conjugate-symmetric (asymmetry %.3e); "
                "a real curve needs c_{-k} = conj(c_k)" % asym
            )
        object.__setattr__(self, "coeffs", hermitize(c))

    @property
    def max_mode(self):
        return (self.coeffs.shape[0] - 1) // 2

    @property
    def ks(self):
        m = self.max_mode
        return np.arange(-m, m + 1)

    def mode(self, k):
        """Coefficient 2-vector of mode k (returns a copy)."""
        m = self.max_mode
        if abs(k) > m:
            return np.zeros(2, dtype=complex)
        return self.coeffs[k + m].copy()

    def with_coeffs(self, coeffs):
        return FourierCurve(coeffs, self.grid_size)


def _symmetric_curve(coeffs, grid_size):
    """The unchecked constructor: a FourierCurve of `coeffs`, which must be
    exactly conjugate-symmetric, on a grid known to resolve their band.
    Symmetry enters at FourierCurve and analyze; the frame change, J, ik and
    real per-|k| factors keep it exactly, so derived curves are built here.
    """
    curve = object.__new__(FourierCurve)
    object.__setattr__(curve, "coeffs", coeffs)
    object.__setattr__(curve, "grid_size", int(grid_size))
    return curve


def _grid_samples(half, n):
    """Real (n, ...) grid samples of a conjugate-symmetric spectrum from its
    modes k = 0..M, the rows of `half`: one real inverse FFT, with the
    grid's phase (-1)^k and the modes above M zero."""
    spectrum = np.array(half, dtype=complex)
    np.negative(spectrum[1::2], out=spectrum[1::2])
    return np.fft.irfft(spectrum, n, axis=0, norm="forward")


def synthesize(curve):
    """Evaluate the curve on its own uniform grid of `curve.grid_size`
    points, which resolves its band; returns (N, 2) real samples."""
    return _grid_samples(curve.coeffs[curve.max_mode:], curve.grid_size)


def analyze(samples, max_mode):
    """Project grid samples onto modes |k| <= max_mode.

    One real FFT gives the modes k >= 0; those with k < 0 are their
    conjugates, so the result is exactly conjugate-symmetric.  max_mode
    must be a whole number >= 1, as FourierCurve requires, and at most
    (N-1)//2, the largest unaliased band (the Nyquist bin of even grids is
    dropped: it cannot be assigned a sign of k).
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim != 2 or s.shape[1] != 2:
        raise ValueError("samples must have shape (N, 2)")
    n = s.shape[0]
    m = _number(max_mode, "max_mode", domain=_COUNT)
    if m > (n - 1) // 2:
        raise AliasingError("cannot extract modes up to %d from %d samples" % (m, n))
    half = np.fft.rfft(s, axis=0, norm="forward")[:m + 1]
    np.negative(half[1::2], out=half[1::2])  # the grid's phase (-1)^k
    # rfft's DC bin is real, so mirroring k > 0 is exactly conjugate-symmetric
    return _symmetric_curve(np.concatenate([np.conj(half[:0:-1]), half]), n)


def evaluate(curve, thetas):
    """Pointwise evaluation at arbitrary angles (not restricted to the grid),
    as X = 2 Re sum_{k >= 0} c_k e^{ik theta} with c_0 halved."""
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    m = curve.max_mode
    half = curve.coeffs[m:] * np.where(np.arange(m + 1) > 0, 1.0, 0.5)[:, None]
    angles = np.outer(th, np.arange(m + 1))  # (T, M+1)
    return 2.0 * (np.cos(angles) @ half.real - np.sin(angles) @ half.imag)


# ---------------------------------------------------------------------------
# Fourier multipliers


def derivative(curve):
    """d/dtheta, the Fourier multiplier ik."""
    return _symmetric_curve(curve.coeffs * (1j * curve.ks)[:, None],
                            curve.grid_size)


def _modulus(a):
    """Euclidean norm over the last axis of a real array; a complex (rows, 2)
    coefficient block enters as its float view, rows (re1, im1, re2, im2)."""
    return np.sqrt(np.einsum("...i,...i->...", a, a))


def fnorm(curve, s=1.0, nu=0.0):
    """Homogeneous Wiener norm ||X||_{F^{s,1}_nu} = sum_{k != 0} e^{nu|k|}
    |k|^s |c_k|.

    |c_k| is the Euclidean modulus of the coefficient pair; the mean c_0
    does not enter.  Conjugate symmetry makes |c_{-k}| = |c_k| exactly, so
    the sum is twice that over k = 1..M.  A run's time-dependent weight
    nu = nu_max t/(1+t) is passed as `nu`.
    """
    m = curve.max_mode
    ks = np.arange(1.0, m + 1)
    mags = _modulus(curve.coeffs[m + 1:].view(float))
    return 2.0 * float(np.sum(np.exp(nu * ks) * ks ** s * mags))


# ---------------------------------------------------------------------------
# The linearization and its diagonalizing frame


@functools.lru_cache(maxsize=16)
def _j_rows(m):
    """Read-only rows (-i sgn k, i sgn k) of modes k = -m..m."""
    rows = np.sign(np.arange(-m, m + 1))[:, None] * np.array([-1j, 1j])
    rows.flags.writeable = False
    return rows


def _j_action(coeffs):
    """Rowwise J(k) c_k = (-i sgn k c2, i sgn k c1), with no rounding."""
    return coeffs[:, ::-1] * _j_rows((coeffs.shape[0] - 1) // 2)


def _frame(coeffs, ks, sign):
    """Rowwise P(k)^{-1} c_k (sign=+1) or P(k) y_k (sign=-1).

    For k != 0 both are (1/sqrt2) [[a, 1], [1, a]] with a = sign*i*sgn k;
    at k = 0 they swap the two components, scaled by sqrt2 or 1/sqrt2.
    """
    r = 1.0 / _SQRT2
    a = (sign * r * 1j) * np.sign(ks)[:, None]
    out = a * coeffs + r * coeffs[:, ::-1]
    zero = ks == 0
    out[zero] = (_SQRT2 if sign > 0 else r) * coeffs[zero, ::-1]
    return out


def to_Y(curve):
    """Change to the diagonalizing frame: y_k = P(k)^{-1} c_k, all |k| <= M.

    The result is returned as a FourierCurve-shaped container (the frame
    maps conjugate-symmetric data to conjugate-symmetric data because
    P(-k) = conj(P(k))).
    """
    return _symmetric_curve(_frame(curve.coeffs, curve.ks, 1), curve.grid_size)


def from_Y(ycurve):
    """Inverse of to_Y: c_k = P(k) y_k."""
    return _symmetric_curve(_frame(ycurve.coeffs, ycurve.ks, -1),
                            ycurve.grid_size)


# ---------------------------------------------------------------------------
# Circle bookkeeping


@dataclass(frozen=True)
class CirclePart:
    """Steady-circle content of a curve.

    The circle family is  a*(cos t, sin t) + b*(-sin t, cos t) + (c, d),
    i.e. (a, b) rotate/scale the radial and tangential unit circles and
    (c, d) translate.  Radius R = hypot(a, b).
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for field in fields(self):  # stored as floats
            value = _number(getattr(self, field.name), "circle." + field.name)
            object.__setattr__(self, field.name, value)

    @property
    def radius(self):
        return math.hypot(self.a, self.b)

    def _coeffs(self, m):
        """Exactly conjugate-symmetric coefficients of modes -m..m, m >= 1."""
        coeffs = np.zeros((2 * m + 1, 2), dtype=complex)
        coeffs[m] = (self.c, self.d)
        half = 0.5 * (self.a + 1j * self.b)
        coeffs[m + 1] = (half, -1j * half)
        coeffs[m - 1] = np.conj(coeffs[m + 1])
        return coeffs


def circle_curve(a=1.0, b=0.0, c=0.0, d=0.0, max_mode=1, grid_size=0):
    """`CirclePart(a, b, c, d)` as a FourierCurve of band `max_mode`, a
    whole number >= 1, on `grid_size` points (0 picks max(4M, 8))."""
    circle = CirclePart(a, b, c, d)
    m = _number(max_mode, "max_mode", domain=_COUNT)
    return FourierCurve(circle._coeffs(m), grid_size)


def circle_part(curve):
    """The circle of `circle_decompose`, read in O(1) from modes 0 and 1:
    a + ib = c_1[0] + i c_1[1] and (c, d) = Re c_0."""
    c0, c1 = curve.coeffs[curve.max_mode:curve.max_mode + 2]
    ab = c1[0] + 1j * c1[1]
    return CirclePart(*map(float, (ab.real, ab.imag, c0[0].real, c0[1].real)))


def _split(curve):
    """circle_decompose in the X frame: circle_part and the curve minus it."""
    circle = circle_part(curve)
    deviation = curve.coeffs - circle._coeffs(curve.max_mode)
    return circle, _symmetric_curve(deviation, curve.grid_size)


def circle_decompose(curve):
    """Split into (CirclePart, deviation curve).

    In the Y frame the circle occupies y(0) = sqrt2*(d, c) and the second
    component of y(1); zeroing those (and the mirror at k = -1) leaves the
    deviation, which is returned in the original X frame.
    """
    m = curve.max_mode
    y = to_Y(curve)
    yc = y.coeffs.copy()
    y0 = yc[m]
    c, d = float(y0[1].real) / _SQRT2, float(y0[0].real) / _SQRT2
    y1 = yc[m + 1]
    a = _SQRT2 * float(y1[1].real)
    b = _SQRT2 * float(y1[1].imag)
    yc[m] = 0.0
    yc[m + 1, 1] = 0.0
    yc[m - 1, 1] = 0.0  # a FourierCurve has M >= 1
    deviation = from_Y(_symmetric_curve(yc, y.grid_size))
    return CirclePart(a, b, c, d), deviation


# ---------------------------------------------------------------------------
# Geometric diagnostics


def enclosed_area(curve):
    """Signed area from the coefficients:  2*pi*sum_k k Im[c1(k) conj(c2(k))]."""
    c1, c2 = curve.coeffs.T
    return float(2.0 * np.pi * np.sum(curve.ks * np.imag(c1 * np.conj(c2))))


def arc_chord_constant(curve):
    """inf over pairs of |X(t) - X(s)| / d(t, s), d = distance on the circle,
    sampled on the pairs of a 4N-point grid.

    The scan goes by grid offset: node i against node i + d for d = 1..2N,
    so every pair is seen at its exact separation 2 pi d / 4N (the antipodal
    separation d = pi included).  It costs 8N^2 pairs and is the fallback of
    `_arc_chord_guard`, which runs it only when the certified bound is
    inconclusive.

    The result is a 4N-grid estimate, an upper bound on the true constant,
    not a lower one.  On a nearly self-touching curve the true minimum can
    fall between grid pairs and the estimate can read far above it: on one
    random M = 14 curve it gives 8.1e-3 where the same scan on an 8x finer
    grid finds 8.8e-4.
    """
    n = 4 * curve.grid_size
    half = n // 2
    pts = evaluate(curve, theta_grid(n))
    # row i, column d-1 pairs node i with node i + d (wrapping around)
    ext = np.concatenate([pts, pts[:half]])
    ahead = np.lib.stride_tricks.sliding_window_view(ext, half, axis=0)[1:]
    dx = ahead[:, 0, :] - pts[:, 0, None]
    dy = ahead[:, 1, :] - pts[:, 1, None]
    seps = 2.0 * np.pi * np.arange(1, half + 1) / n
    return float(np.min(np.sqrt(dx * dx + dy * dy) / seps))


def _arc_chord_guard(curve, floor):
    """The one degeneracy guard: returns the certified O(M) lower bound

        |X(t) - X(s)| / d(t, s)  >=  2R/pi - ||Z||_{F^{1,1}}

    on the arc-chord constant of X = circle(R) + Z (by 2 sin(d/2) >= 2d/pi
    and |Z(t) - Z(s)| <= ||Z||_{F^{1,1}} d), read from the modes without
    building Z: with c_1 = (x, y), R = |x + iy|, the +-1 part of Z has norm
    sqrt2 |x - iy| and the rest is sum_{|k| >= 2} |k| |c_k|.  When the bound
    is not positive or below `floor`, the grid scan `arc_chord_constant`
    decides, and CurveDegenerateError is raised only if it too is not
    positive or below the floor.  The scan is at least the true constant,
    which is at least the bound, so the guard fails exactly when the scan
    does.
    """
    m = curve.max_mode
    x, y = curve.mode(1).tolist()
    mags = _modulus(curve.coeffs[m + 2:].view(float))
    bound = (2.0 * abs(x + 1j * y) / math.pi - _SQRT2 * abs(x - 1j * y)
             - 2.0 * float(np.arange(2, m + 1) @ mags))
    if not (bound > 0.0) or bound < floor:
        scan = arc_chord_constant(curve)
        if not (scan > 0.0) or scan < floor:
            raise CurveDegenerateError(
                "arc-chord constant %.3e below floor %.3e" % (scan, floor)
            )
    return bound


def geometry_diagnostics(curve, *, arc_chord_floor=0.0):
    """{"area", "arc_chord"}: the enclosed area and the bound that
    `_arc_chord_guard` returns, or CurveDegenerateError from that guard."""
    bound = _arc_chord_guard(curve, arc_chord_floor)
    return {"area": enclosed_area(curve), "arc_chord": bound}
