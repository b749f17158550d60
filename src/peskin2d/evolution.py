"""Interface evolution: velocity evaluation, stiff stepping, trajectories.

The interface moves with the fluid,

    dX/dt (theta) = int G(X(theta) - X(eta)) F(eta) deta,

where F solves the contrast equation (see force.py).  The quadrature
splits the Stokeslet into a smooth part, handled by the trapezoid rule at
spectral accuracy, and the periodic log kernel, applied exactly on the
Fourier side:

    G(dX) = Greg + K(dtheta) I,
    Greg  = (1/4pi) ( -log( |dX| / 2|sin(dtheta/2)| ) I + dX ox dX / |dX|^2 ),

whose diagonal limit is (1/4pi) ( -log|X'| I + X' ox X' / |X'|^2 ).

Time stepping happens in the diagonalizing frame, where mode k of the
deviation relaxes with rates (a_e/2)(k+1) and (a_e/2)(k-1):

    dy_k/dt = lambda_k y_k + nY_k,     lambda_k = -(a_e/2) diag(|k|+1, |k|-1),

and nY collects everything beyond the flat-circle linearization.  The
exponential Euler and ETDRK2 schemes integrate the stiff factor exactly,
so the steady circles (lambda = 0 directions: the zero mode and the second
component of mode one) are handled without any stiffness penalty, and the
enclosed area is conserved up to the accuracy of the nonlinear terms.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import OutOfRegimeError, balance_lhs, k_threshold, margin
from .force import PhysicsParams, _grid_tables, _pair_geometry, solve_force
from .kernels import log_convolve
from .spectral import (
    CurveDegenerateError,
    FourierCurve,
    _symmetric_curve,
    analyze,
    circle_decompose,
    fnorm,
    from_Y,
    geometry_diagnostics,
    to_Y,
)

CSV_HEADER = (
    "t,norm_f11,norm_f21,radius,area,arc_chord,center_x,center_y,"
    "energy_lhs,energy_rhs"
)


def velocity_on_curve(curve, force, geometry=None):
    """Fluid velocity on the interface driven by the ForceDensity `force`,
    as (N, 2) samples.

    Trapezoid on the regularized Stokeslet plus the exact log convolution.
    `geometry` is the curve's `_pair_geometry` when the caller already has
    it; otherwise it is built here, behind the same degeneracy guard.
    """
    g = geometry if geometry is not None else _pair_geometry(curve)
    n = g.n
    fs = force.samples
    speed2 = np.sum(g.ds**2, axis=1)
    # -log(|dX| / 2|sin(dtheta/2)|) I, diagonal limit -log|X'| I
    logterm = -0.5 * np.log(g.chord2 / _grid_tables(n)[1])
    np.fill_diagonal(logterm, -0.5 * np.log(speed2))
    # (dX ox dX / |dX|^2) F = dX q with q = (dX . F) / |dX|^2; the diagonal
    # of q is zero, and its limit X' (X' . F) / |X'|^2 is added separately
    q = (g.dx * fs[:, 0] + g.dy * fs[:, 1]) / g.chord2
    qd = np.sum(g.ds * fs, axis=1) / speed2
    outer = np.stack([np.einsum("te,te->t", g.dx, q),
                      np.einsum("te,te->t", g.dy, q)], axis=1)
    u_reg = (logterm @ fs + outer + qd[:, None] * g.ds) / (2.0 * n)
    return u_reg + log_convolve(force)


def _l_action(coeffs, ks):
    """Rowwise L(k) c_k with L = [[|k|, -i sgn k], [i sgn k, |k|]]."""
    absk = np.abs(ks)
    sg = np.sign(ks)
    c1, c2 = coeffs[:, 0], coeffs[:, 1]
    return np.stack(
        [absk * c1 - 1j * sg * c2, 1j * sg * c1 + absk * c2], axis=1
    )


def rhs_nonlinear(curve, params, force=None, arc_chord_floor=1e-8):
    """The beyond-linear part of the dynamics, as a coefficient container.

    nhat(k) = uhat(k) + (a_e/2) L(k) xhat(k)   (k != 0; L(0) = 0 covers k=0).

    L annihilates the circle family (its mode-(+-1) coefficients are in
    the kernel of L(+-1)), so xhat may be the full curve's coefficients.
    The curve's pair geometry is built once, behind the degeneracy guard,
    and shared by the force solve and the velocity quadrature.
    """
    geometry = _pair_geometry(curve, arc_chord_floor)
    if force is None:
        force = solve_force(curve, params, geometry=geometry)
    u = velocity_on_curve(curve, force, geometry=geometry)
    uhat = analyze(u, curve.max_mode).coeffs
    nhat = uhat + 0.5 * params.a_e * _l_action(curve.coeffs, curve.ks)
    return _symmetric_curve(nhat, curve.grid_size)


@dataclass(frozen=True)
class SimulationState:
    """Time, curve and parameters; the circle split is made on first read."""

    t: float
    curve: FourierCurve
    params: object

    @classmethod
    def make(cls, t, curve, params):
        return cls(float(t), curve, params)

    @cached_property
    def _split(self):
        return circle_decompose(self.curve)

    @property
    def circle(self):
        return self._split[0]

    @property
    def deviation(self):
        return self._split[1]


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    t_final: float
    scheme: str = "exponential-euler"
    record_every: int = 1
    nu_max: float = 0.0
    arc_chord_floor: float = 0.05

    def __post_init__(self):
        if not (0 < self.dt < math.inf and 0 < self.t_final < math.inf):
            raise ValueError("dt and t_final must be positive and finite")
        if self.scheme not in ("exponential-euler", "etdrk2"):
            raise ValueError("scheme must be 'exponential-euler' or 'etdrk2'")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if not (0 <= self.nu_max < math.inf
                and 0 <= self.arc_chord_floor < math.inf):
            raise ValueError("nu_max and arc_chord_floor must be >= 0 and finite")


def _phi1(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-5
    zs = z[small]
    out[small] = 1.0 + zs / 2.0 + zs * zs / 6.0
    zb = z[~small]
    out[~small] = np.expm1(zb) / zb
    return out


def _phi2(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-5
    zs = z[small]
    out[small] = 0.5 + zs / 6.0 + zs * zs / 24.0
    zb = z[~small]
    out[~small] = (np.expm1(zb) - zb) / (zb * zb)
    return out


def _rates(ks, a_e):
    """lambda_k = -(a_e/2)(|k| +- 1) per component; the k = 0 row is zero."""
    absk = np.abs(ks).astype(float)
    lam = -0.5 * a_e * np.stack([absk + 1.0, absk - 1.0], axis=1)
    lam[ks == 0] = 0.0
    return lam


def step(state, cfg, nonlinearity=None, h=None):
    """One step of exponential Euler or ETDRK2 in the diagonal frame.

    `nonlinearity` may be injected (signature (curve, params) -> coefficient
    container) to validate the linear part in isolation; default is
    rhs_nonlinear.  `h` overrides the step length cfg.dt (the schemes
    integrate the stiff factor exactly for any h).
    """
    nl = nonlinearity if nonlinearity is not None else (
        lambda c, p: rhs_nonlinear(c, p, arc_chord_floor=cfg.arc_chord_floor)
    )
    curve, params = state.curve, state.params
    h = cfg.dt if h is None else h
    lam = _rates(curve.ks, params.a_e)
    decay = np.exp(h * lam)
    phi1 = _phi1(h * lam)

    y = to_Y(curve).coeffs
    ny = to_Y(nl(curve, params)).coeffs
    y1 = decay * y + h * phi1 * ny
    if cfg.scheme == "etdrk2":
        mid = from_Y(_symmetric_curve(y1, curve.grid_size))
        ny_mid = to_Y(nl(mid, params)).coeffs
        y1 = y1 + h * _phi2(h * lam) * (ny_mid - ny)
    new_curve = from_Y(_symmetric_curve(y1, curve.grid_size))
    return SimulationState.make(state.t + h, new_curve, params)


@dataclass
class TrajectoryRecord:
    """Sampled diagnostics along a run, one row per recorded time."""

    t: np.ndarray
    norm_f11: np.ndarray
    norm_f21: np.ndarray
    radius: np.ndarray
    area: np.ndarray
    arc_chord: np.ndarray
    center_x: np.ndarray
    center_y: np.ndarray
    energy_lhs: np.ndarray
    energy_rhs: np.ndarray
    x0: float = float("nan")
    script_C: float = float("nan")
    failure: str | None = None
    final_state: SimulationState | None = None

    def to_csv(self, path):
        cols = np.column_stack(
            [getattr(self, name) for name in CSV_HEADER.split(",")]
        )
        with open(path, "w") as fh:
            fh.write("# x0=%r script_C=%r failure=%r\n"
                     % (self.x0, self.script_C, self.failure))
            fh.write(CSV_HEADER + "\n")
            np.savetxt(fh, cols, delimiter=",", fmt="%.16e")

    @classmethod
    def from_csv(cls, path):
        # row 0 is the "# x0=..." comment, row 1 the column header
        data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2)
        data = np.atleast_2d(data)
        names = CSV_HEADER.split(",")
        return cls(**{n: data[:, i] for i, n in enumerate(names)})


def run(curve, params, cfg):
    """Integrate to t_final, recording diagnostics every `record_every` steps
    and at t_final.

    A degenerate geometry (arc-chord collapse) stops the run early and is
    reported in `failure` rather than raised, so partial data stays usable.
    """
    state = SimulationState.make(0.0, curve, params)
    x0 = fnorm(state.deviation, 1, 0.0)
    script_c = float("nan")
    try:
        thr = k_threshold(params.a_mu)
        if x0 >= thr["k"]:
            warnings.warn(
                "initial deviation norm %.3e is not below the certified "
                "threshold %.3e; the decay certificate does not apply"
                % (x0, thr["k"]),
                RuntimeWarning,
            )
        sc = margin(x0, params.a_mu, cfg.nu_max, params.a_e)
        if sc is not None and sc > 0:
            script_c = sc
        else:
            warnings.warn("dissipation margin is not positive", RuntimeWarning)
    except OutOfRegimeError:
        warnings.warn("constants chain out of regime at x0 = %.3e" % x0,
                      RuntimeWarning)

    rows = []

    def record(st):
        nu = cfg.nu_max * st.t / (1.0 + st.t)
        diag = geometry_diagnostics(st.curve, arc_chord_floor=cfg.arc_chord_floor)
        # energy_lhs (NaN here) is filled in from the whole columns below
        rows.append(
            (st.t, fnorm(st.deviation, 1, nu), fnorm(st.deviation, 2, nu),
             st.circle.radius, diag["area"], diag["arc_chord"],
             st.circle.c, st.circle.d, math.nan, x0)
        )

    # whole steps, then one partial step if t_final is not a multiple of dt
    n_steps = math.floor(cfg.t_final / cfg.dt + 1e-9)
    rest = cfg.t_final - n_steps * cfg.dt
    if rest <= 1e-9 * cfg.dt:
        rest = 0.0
    failure = None
    try:
        record(state)
        for i in range(1, n_steps + 1):
            state = step(state, cfg)
            if i % cfg.record_every == 0 or (i == n_steps and not rest):
                record(state)
        if rest:
            state = step(state, cfg, h=rest)
            record(state)
    except CurveDegenerateError as exc:
        failure = str(exc)

    names = CSV_HEADER.split(",")
    if rows:
        cols = np.array(rows, dtype=float).T
    else:  # degenerate before the first diagnostic: keep the record usable
        cols = np.zeros((len(names), 0))
    rec = TrajectoryRecord(**{n: cols[i] for i, n in enumerate(names)})
    rec.energy_lhs = balance_lhs(rec.t, rec.norm_f11, rec.norm_f21,
                                 0.25 * params.a_e * script_c)
    rec.x0 = x0
    rec.script_C = script_c
    rec.failure = failure
    rec.final_state = state
    return rec


def write_final_state(path, state):
    """Interface snapshot as structured text: scalars, then coefficient rows."""
    p = state.params
    m = state.curve.max_mode
    with open(path, "w") as fh:
        fh.write("t %.16e\n" % state.t)
        fh.write("max_mode %d\n" % m)
        fh.write("grid_size %d\n" % state.curve.grid_size)
        fh.write("mu1 %.16e\nmu2 %.16e\nk0 %.16e\n" % (p.mu1, p.mu2, p.k0))
        fh.write("k re1 im1 re2 im2\n")
        for k in range(-m, m + 1):
            c = state.curve.mode(k)
            fh.write(
                "%d %.16e %.16e %.16e %.16e\n"
                % (k, c[0].real, c[0].imag, c[1].real, c[1].imag)
            )


def read_final_state(path):
    """Inverse of write_final_state; returns (t, params, curve)."""
    scalars = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0] == "k":
                continue
            if parts[0] in ("t", "max_mode", "grid_size", "mu1", "mu2", "k0"):
                scalars[parts[0]] = float(parts[1])
            else:
                rows.append([float(v) for v in parts])
    m = int(scalars["max_mode"])
    coeffs = np.zeros((2 * m + 1, 2), dtype=complex)
    for k, r1, i1, r2, i2 in rows:
        coeffs[int(k) + m] = (r1 + 1j * i1, r2 + 1j * i2)
    curve = FourierCurve(coeffs, int(scalars["grid_size"]))
    params = PhysicsParams(scalars["mu1"], scalars["mu2"], scalars["k0"])
    return scalars["t"], params, curve
