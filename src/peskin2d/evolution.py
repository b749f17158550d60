"""Interface evolution: velocity evaluation, stiff stepping, trajectories.

The interface moves with the fluid,

    dX/dt (theta) = int G(X(theta) - X(eta)) F(eta) deta,

where F solves the contrast equation (see force.py).  The quadrature
splits the Stokeslet into a smooth part, handled by the trapezoid rule at
spectral accuracy, and the periodic log kernel, integrated exactly on the
band |k| <= M (`kernels.log_convolve`), which on the grid is a circulant:

    G(dX) = Greg + K(dtheta) I,
    Greg  = (1/4pi) ( -log( |dX| / 2|sin(dtheta/2)| ) I + dX ox dX / |dX|^2 ),

whose diagonal limit is (1/4pi) ( -log|X'| I + X' ox X' / |X'|^2 ).  The
pair sweep of `force._pair_geometry` writes 4pi Greg plus 2N times that
circulant as three read-only (N, N) blocks V (xx, xy, yy), so the velocity
is one block apply of V to the force samples, divided by 2N.

The stiff part is the linearization about the circles, one 2x2 symbol per
mode; n collects everything beyond it:

    dc_k/dt = -(a_e/2) L(k) c_k + n_k,     L(k) = |k| I + J(k),

with J(k) = [[0, -i sgn k], [i sgn k, 0]].  J^2 = I for k != 0, so mode k
relaxes at rates (a_e/2)(|k| +- 1) on the ranges of the projectors
(I +- J)/2.  The exponential Euler and ETDRK2 schemes integrate the stiff
factor exactly, so the steady circles (the zero mode and the kernel of
I + J(+-1)) carry no stiffness penalty, and the enclosed area is conserved
up to the accuracy of the nonlinear terms.  Each function of the symbol is
lo c + gap (c + J c) with real per-|k| factors, so a step makes no frame
change and builds no operator.
"""

import ast
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .constants import OutOfRegimeError, balance_lhs, k_threshold, margin
from .force import PhysicsParams, _apply_blocks, _force_samples, _pair_geometry
from .spectral import (
    CurveDegenerateError,
    FourierCurve,
    _j_action,
    _split,
    _symmetric_curve,
    analyze,
    fnorm,
    geometry_diagnostics,
    to_Y,  # not used here; bench/test_smoke.py traces this binding
)

CSV_HEADER = (
    "t,norm_f11,norm_f21,radius,area,arc_chord,center_x,center_y,"
    "energy_lhs,energy_rhs"
)


def _samples_on(curve, force):
    """The samples of the ForceDensity `force`, which must share the curve's
    band and grid: V carries the log kernel of the curve's band."""
    if (force.max_mode, force.grid_size) != (curve.max_mode, curve.grid_size):
        raise ValueError("force band or grid differs from the curve's")
    return force.samples


def velocity_on_curve(curve, force):
    """Fluid velocity on the interface driven by the ForceDensity `force`,
    of the curve's band and grid, as (N, 2) samples.

    The block apply of V, the whole single layer, over 2N, built here
    behind the same degeneracy guard, writing V but not S.
    """
    samples = _samples_on(curve, force)
    g = _pair_geometry(curve, with_s=False)
    return _apply_blocks(g.v, samples) / (2.0 * g.n)


def _l_action(coeffs, ks):
    """Rowwise L(k) c_k = |k| c_k + J(k) c_k."""
    return np.abs(ks)[:, None] * coeffs + _j_action(coeffs)


def rhs_nonlinear(curve, params, force=None, arc_chord_floor=1e-8):
    """The beyond-linear part of the dynamics, as a coefficient container.

    nhat(k) = uhat(k) + (a_e/2) L(k) xhat(k)   (k != 0; L(0) = 0 covers k=0).

    L annihilates the circle family (its mode-(+-1) coefficients are in
    the kernel of L(+-1)), so xhat may be the full curve's coefficients.
    The curve's pair geometry is built once, behind the degeneracy guard,
    and shared by the force solve and the velocity quadrature; it writes S
    only when the force solve reads it (a_mu != 0 and no `force` given).
    A given `force` must share the curve's band and grid.
    """
    g = _pair_geometry(curve, arc_chord_floor,
                       with_s=force is None and params.a_mu != 0.0)
    samples = (_force_samples(curve, params, g) if force is None
               else _samples_on(curve, force))
    u = _apply_blocks(g.v, samples) / (2.0 * g.n)
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
        return _split(self.curve)

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
    small = np.abs(z) < 1e-5
    zb = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z / 2.0 + z * z / 6.0, np.expm1(zb) / zb)


def _phi2(z):
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-5
    zb = np.where(small, 1.0, z)
    return np.where(small, 0.5 + z / 6.0 + z * z / 24.0, (np.expm1(zb) - zb) / zb**2)


@lru_cache(maxsize=8)
def _step_factors(m, a_e, h):
    """Read-only (2m+1, 1) columns (lo, gap) of E, Phi1, Phi2 for d = e^z,
    h phi1(z), h phi2(z), z = h lam_+-, lam_+- = -(a_e/2)(|k| +- 1) (0 at
    k = 0): d_+ (I + J)/2 + d_- (I - J)/2 = lo I + gap (I + J).  Exactly
    d0 = 1, h, h/2 on the mean (gap = 0) and the circles (c + J c = 0)."""
    absk = np.abs(np.arange(-m, m + 1))[:, None]
    z_lo, z_hi = (np.where(absk == 0, 0.0, h * (-0.5 * a_e * (absk + s)))
                  for s in (-1.0, 1.0))
    factors = []
    for d in (np.exp, lambda z: h * _phi1(z), lambda z: h * _phi2(z)):
        lo, gap = d(z_lo), 0.5 * (d(z_hi) - d(z_lo))
        lo.flags.writeable = gap.flags.writeable = False
        factors.append((lo, gap))
    return tuple(factors)


def _apply(factors, coeffs):
    """Rowwise lo c_k + gap (c_k + J(k) c_k) for factors (lo, gap)."""
    lo, gap = factors
    return lo * coeffs + gap * (coeffs + _j_action(coeffs))


def step(state, cfg, nonlinearity=None, h=None):
    """One step of exponential Euler, c1 = E c + Phi1 n, or ETDRK2, which
    adds Phi2 (n_mid - n), with the cached `_step_factors` (E, Phi1, Phi2).

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
    decay, phi1, phi2 = _step_factors(curve.max_mode, params.a_e, h)
    nx = nl(curve, params).coeffs
    c1 = _apply(decay, curve.coeffs) + _apply(phi1, nx)
    if cfg.scheme == "etdrk2":
        mid = _symmetric_curve(c1, curve.grid_size)
        c1 = c1 + _apply(phi2, nl(mid, params).coeffs - nx)
    new_curve = _symmetric_curve(c1, curve.grid_size)
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
        # "# x0=... script_C=... failure=...", the header, then data rows
        with open(path) as fh:
            comment, _, *lines = fh.read().splitlines()
        x0, script_c, failure = (
            field.partition("=")[2] for field in comment.split(" ", 3)[1:])
        rows = [r.split(",") for r in lines]
        names = CSV_HEADER.split(",")
        data = np.array(rows, dtype=float).reshape(-1, len(names))
        return cls(**{n: data[:, i] for i, n in enumerate(names)},
                   x0=float(x0), script_C=float(script_c),
                   failure=ast.literal_eval(failure))


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

    # whole steps, then one partial step if t_final is not a multiple of dt;
    # a rest below 1e-9 dt after whole steps is their round-off, not a step
    n_steps = math.floor(cfg.t_final / cfg.dt + 1e-9)
    rest = cfg.t_final - n_steps * cfg.dt
    if n_steps and rest <= 1e-9 * cfg.dt:
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

    # degenerate before the first diagnostic: empty columns keep it usable
    names = CSV_HEADER.split(",")
    cols = np.array(rows, dtype=float).reshape(-1, len(names)).T
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
        fh.writelines("%d %.16e %.16e %.16e %.16e\n"
                      % (k, c1.real, c1.imag, c2.real, c2.imag)
                      for k, (c1, c2) in enumerate(state.curve.coeffs.tolist(), -m))


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
