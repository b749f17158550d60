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
circulant as V = 1/2 (g I + c diag(1, -1)) + e [[0, 1], [1, 0]] in three
read-only (N, N) tables: g = log(e w/|dX|^2) with e = exp(1) folded into
the circulant weight w, c = (dx^2 - dy^2)/|dX|^2, e = dx dy/|dX|^2, and dX
from exact rank-2 products.  The velocity is one apply of V to the (N, 2)
force samples over 2N, in `force` (`velocity_on_curve`, re-exported here).

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
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .constants import OutOfRegimeError, balance_lhs, k_threshold, margin
from .force import PhysicsParams, _interface_velocity, velocity_on_curve
from .spectral import (
    _COUNT,
    _NONNEGATIVE,
    _POSITIVE,
    CurveDegenerateError,
    FourierCurve,
    _j_action,
    _number,
    _split,
    _symmetric_curve,
    analyze,
    fnorm,
    geometry_diagnostics,
    to_Y,  # not used here; bench/test_smoke.py traces this binding
)

# velocity_on_curve is defined in force and exported from here
__all__ = ["CSV_HEADER", "SimulationState", "StepperConfig",
           "TrajectoryRecord", "read_final_state", "rhs_nonlinear", "run",
           "step", "velocity_on_curve", "write_final_state"]


def _l_action(coeffs, ks):
    """Rowwise L(k) c_k = |k| c_k + J(k) c_k."""
    return np.abs(ks)[:, None] * coeffs + _j_action(coeffs)


def rhs_nonlinear(curve, params, arc_chord_floor=1e-8):
    """The beyond-linear part of the dynamics, as a coefficient container.

    nhat(k) = uhat(k) + (a_e/2) L(k) xhat(k)   (k != 0; L(0) = 0 covers k=0).

    L annihilates the circle family (its mode-(+-1) coefficients are in
    the kernel of L(+-1)), so xhat may be the full curve's coefficients.
    The velocity u comes from `force._interface_velocity`, whose one pair
    sweep, behind the degeneracy guard at `arc_chord_floor`, serves the
    force solve and the single layer.
    """
    u = _interface_velocity(curve, params, arc_chord_floor)
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
        for name, domain in (("dt", _POSITIVE), ("t_final", _POSITIVE),
                             ("record_every", _COUNT),
                             ("nu_max", _NONNEGATIVE),
                             ("arc_chord_floor", _NONNEGATIVE)):
            object.__setattr__(self, name, _number(  # floats, record_every int
                getattr(self, name), name, domain=domain))
        if not math.isfinite(self.t_final / self.dt):
            raise ValueError("t_final / dt must be finite, got dt = %r and "
                             "t_final = %r" % (self.dt, self.t_final))
        if self.scheme not in ("exponential-euler", "etdrk2"):
            raise ValueError("scheme must be 'exponential-euler' or 'etdrk2'")


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


def step(state, cfg, h=None):
    """One step of exponential Euler, c1 = E c + Phi1 n, or ETDRK2, which
    adds Phi2 (n_mid - n), with the cached `_step_factors` (E, Phi1, Phi2)
    and n = `rhs_nonlinear` behind the guard at cfg.arc_chord_floor.  `h`
    overrides the step length cfg.dt (the schemes integrate the stiff factor
    exactly for any h)."""
    curve, params, floor = state.curve, state.params, cfg.arc_chord_floor
    h = cfg.dt if h is None else h
    decay, phi1, phi2 = _step_factors(curve.max_mode, params.a_e, h)
    nx = rhs_nonlinear(curve, params, floor).coeffs
    c1 = _apply(decay, curve.coeffs) + _apply(phi1, nx)
    if cfg.scheme == "etdrk2":
        mid = _symmetric_curve(c1, curve.grid_size)
        c1 = c1 + _apply(phi2, rhs_nonlinear(mid, params, floor).coeffs - nx)
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
        cols = np.column_stack([getattr(self, name) for name in _COLUMNS])
        with open(path, "w") as fh:
            fh.write("# %s\n" % " ".join("%s=%r" % (name, getattr(self, name))
                                         for name in _NOTES))
            fh.write(CSV_HEADER + "\n")
            np.savetxt(fh, cols, delimiter=",", fmt="%.16e")

    @classmethod
    def from_csv(cls, path):
        # "# x0=... script_C=... failure=...", the header, then data rows
        with open(path) as fh:
            comment, _, *lines = fh.read().splitlines()
        notes = dict(note.partition("=")[::2]
                     for note in comment[2:].split(" ", len(_NOTES) - 1))
        rows = [r.split(",") for r in lines]
        data = np.array(rows, dtype=float).reshape(-1, len(_COLUMNS))
        return cls(**{n: data[:, i] for i, n in enumerate(_COLUMNS)},
                   **{n: read(notes[n]) for n, read in _NOTES.items()})


# the CSV columns: the record's array fields, in their order
_COLUMNS = tuple(f.name for f in fields(TrajectoryRecord)
                 if f.type is np.ndarray)
CSV_HEADER = ",".join(_COLUMNS)
# the comment row's notes, each with its reader; only the last may hold spaces
_NOTES = {"x0": float, "script_C": float, "failure": ast.literal_eval}
# final_state.txt's scalars and formats, of a state, its curve or its params
_SCALARS = {"t": "%.16e", "max_mode": "%d", "grid_size": "%d",
            **{f.name: "%.16e" for f in fields(PhysicsParams)}}


def run(curve, params, cfg):
    """Integrate to t_final in whole steps of dt, plus one partial step when
    t_final is not a multiple of dt.  Row 0 is t = 0; step i is recorded
    when i is a multiple of `record_every` or is the last step.

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
        if sc > 0:
            script_c = sc
        else:
            warnings.warn("dissipation margin is not positive", RuntimeWarning)
    except OutOfRegimeError:
        warnings.warn("constants chain out of regime at x0 = %.3e" % x0,
                      RuntimeWarning)

    cols = {name: [] for name in _COLUMNS}  # the energy columns stay empty

    def record(st):
        nu = cfg.nu_max * st.t / (1.0 + st.t)
        diag = geometry_diagnostics(st.curve, arc_chord_floor=cfg.arc_chord_floor)
        for name, value in dict(  # diag's keys are "area" and "arc_chord"
                t=st.t, norm_f11=fnorm(st.deviation, 1, nu),
                norm_f21=fnorm(st.deviation, 2, nu), radius=st.circle.radius,
                **diag, center_x=st.circle.c, center_y=st.circle.d).items():
            cols[name].append(value)

    # a rest below 1e-9 dt after whole steps is their round-off, not a step
    n_steps = math.floor(cfg.t_final / cfg.dt + 1e-9)
    rest = cfg.t_final - n_steps * cfg.dt
    total = n_steps + (rest > 1e-9 * cfg.dt or not n_steps)
    failure = None
    try:
        record(state)
        for i in range(1, total + 1):
            state = step(state, cfg, h=cfg.dt if i <= n_steps else rest)
            if i % cfg.record_every == 0 or i == total:
                record(state)
    except CurveDegenerateError as exc:
        failure = str(exc)

    # degenerate before the first diagnostic: empty columns keep it usable
    cols = {name: np.array(col, dtype=float) for name, col in cols.items()}
    cols["energy_lhs"] = balance_lhs(cols["t"], cols["norm_f11"],
                                     cols["norm_f21"], 0.25 * params.a_e * script_c)
    cols["energy_rhs"] = np.full(len(cols["t"]), x0)
    return TrajectoryRecord(**cols, x0=x0, script_C=script_c, failure=failure,
                            final_state=state)


def write_final_state(path, state):
    """Interface snapshot as structured text: scalars, then coefficient rows."""
    curve, m = state.curve, state.curve.max_mode
    with open(path, "w") as fh:
        for name, fmt in _SCALARS.items():
            owner = (state if hasattr(state, name) else curve
                     if hasattr(curve, name) else state.params)
            fh.write(("%s " + fmt + "\n") % (name, getattr(owner, name)))
        fh.write("k re1 im1 re2 im2\n")
        fh.writelines("%d %.16e %.16e %.16e %.16e\n"
                      % (k, c1.real, c1.imag, c2.real, c2.imag)
                      for k, (c1, c2) in enumerate(curve.coeffs.tolist(), -m))


def read_final_state(path):
    """Inverse of write_final_state: the SimulationState it was given.  A
    missing scalar, or a line neither "<scalar> <value>" nor a mode row
    "k re1 im1 re2 im2" with |k| <= max_mode, is a one-line ValueError."""
    scalars, rows = {}, []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            parts = line.split()
            if len(parts) == 2 and parts[0] in _SCALARS:
                scalars[parts[0]] = float(parts[1])
            elif parts[:1] not in ([], ["k"]):
                rows.append((number, parts))
    missing = [name for name in _SCALARS if name not in scalars]
    if missing:
        raise ValueError("%s: missing scalar %r" % (path, missing[0]))
    m = int(scalars["max_mode"])
    coeffs = np.zeros((2 * m + 1, 2), dtype=complex)
    for number, parts in rows:
        if len(parts) != 5 or abs(int(parts[0])) > m:
            raise ValueError("%s: line %d: %r is not 'k re1 im1 re2 im2', "
                             "|k| <= %d" % (path, number, " ".join(parts), m))
        r1, i1, r2, i2 = map(float, parts[1:])
        coeffs[int(parts[0]) + m] = r1 + 1j * i1, r2 + 1j * i2
    curve = FourierCurve(coeffs, int(scalars["grid_size"]))
    params = PhysicsParams(*(scalars[f.name] for f in fields(PhysicsParams)))
    return SimulationState.make(scalars["t"], curve, params)
