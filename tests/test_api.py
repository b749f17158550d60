"""The package root exports exactly the names its callers use."""

import os
import re
import types

import peskin2d as pk

EXPORTS = [
    # spectral
    "AliasingError", "CirclePart", "CurveDegenerateError", "FourierCurve",
    "analyze", "arc_chord_constant", "circle_curve", "circle_decompose",
    "derivative", "enclosed_area", "evaluate", "fnorm", "from_Y",
    "geometry_diagnostics", "synthesize", "theta_grid", "to_Y",
    # kernels
    "SingularEvaluation", "eval_velocity_field", "log_convolve", "stokeslet",
    # force
    "PhysicsParams", "SolverError", "elastic_force", "force_zero_linear",
    "s_operator_matrix", "solve_force",
    # evolution
    "CSV_HEADER", "SimulationState", "StepperConfig", "TrajectoryRecord",
    "read_final_state", "rhs_nonlinear", "run", "step", "velocity_on_curve",
    "write_final_state",
    # constants
    "OutOfRegimeError", "constants_chain", "energy_certificate",
    "k_threshold", "margin", "threshold_lower_bound",
    # multipliers
    "integral_In", "integral_S1_closed", "integral_Sn_exact",
    "integral_Sn_quadrature",
]

# the root names the benchmark harness in bench/ reads
BENCH_NAMES = [
    "FourierCurve", "PhysicsParams", "SimulationState", "StepperConfig",
    "circle_curve", "geometry_diagnostics", "s_operator_matrix",
    "solve_force", "step", "to_Y", "velocity_on_curve",
]

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_exports_are_the_explicit_list():
    assert pk.__all__ == EXPORTS
    assert len(set(EXPORTS)) == len(EXPORTS)
    for name in EXPORTS:
        assert getattr(pk, name) is not None


def test_no_module_is_exported_and_constants_is_the_module():
    assert not [n for n in pk.__all__
                if isinstance(getattr(pk, n), types.ModuleType)]
    from peskin2d import constants

    assert isinstance(constants, types.ModuleType)
    assert constants.constants_chain is pk.constants_chain


def test_readme_usage_block_uses_exported_names():
    with open(README) as fh:
        text = fh.read()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    used = set(re.findall(r"\bpk\.(\w+)", "".join(blocks)))
    assert used
    assert used <= set(pk.__all__)


def test_bench_names_are_exported():
    assert set(BENCH_NAMES) <= set(pk.__all__)
    assert isinstance(pk.__version__, str)
