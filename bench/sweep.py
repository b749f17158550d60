"""Layer-scaling sweep: the per-layer cost table at N = 64..512, M = N/4.

Each layer is timed by calling its public function directly on a seeded
curve (a_mu = -0.5, half-threshold deviation on modes 2..5) and taking the
median of a few repeats.  LU flops and S-matrix bytes are computed from N,
not measured.  The sweep is reported only; nothing is gated on it.
"""

import statistics
import time

import numpy as np

import peskin2d
from peskin2d import spectral

from workloads import A_E, DT, half_threshold_modes

A_MU = -0.5
LAYERS = ("step", "s_operator_matrix", "solve_force", "velocity_on_curve",
          "to_Y", "from_Y", "geometry_diagnostics")


def _curve(rng, m, n):
    coeffs = peskin2d.circle_curve(max_mode=m, grid_size=n).coeffs.copy()
    for k, r1, i1, r2, i2 in half_threshold_modes(rng, A_MU):
        coeffs[m + k] += (r1 + 1j * i1, r2 + 1j * i2)
        coeffs[m - k] += (r1 - 1j * i1, r2 - 1j * i2)
    return peskin2d.FourierCurve(coeffs, n)


def _median_ms(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def layer_sweep(seed, grids):
    """{N: {layer_ms: ..., computed_lu_gflop, computed_s_matrix_mb}}."""
    rng = np.random.default_rng(seed)
    params = peskin2d.PhysicsParams.from_contrast(A_MU, A_E)
    cfg = peskin2d.StepperConfig(dt=DT, t_final=DT)
    table = {}
    for n in grids:
        curve = _curve(rng, n // 4, n)
        force = peskin2d.solve_force(curve, params)
        y = spectral.to_Y(curve)
        state = peskin2d.SimulationState.make(0.0, curve, params)
        calls = {
            "step": lambda: peskin2d.step(state, cfg),
            "s_operator_matrix": lambda: peskin2d.s_operator_matrix(curve),
            "solve_force": lambda: peskin2d.solve_force(curve, params),
            "velocity_on_curve":
                lambda: peskin2d.velocity_on_curve(curve, force),
            "to_Y": lambda: spectral.to_Y(curve),
            "from_Y": lambda: spectral.from_Y(y),
            "geometry_diagnostics":
                lambda: peskin2d.geometry_diagnostics(curve),
        }
        reps = max(3, 1024 // n)
        row = {name + "_ms": _median_ms(calls[name], reps) for name in LAYERS}
        row["computed_lu_gflop"] = (2.0 / 3.0) * (2 * n) ** 3 / 1e9
        row["computed_s_matrix_mb"] = 8.0 * (2 * n) ** 2 / 1e6
        row["repeats"] = reps
        table[n] = row
    return table
