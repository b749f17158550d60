"""The package root exports exactly the names its callers use."""

import ast
import glob
import os
import re
import types

import peskin2d as pk
from peskin2d import constants, evolution, force, kernels, multipliers, spectral

# the modules whose `__all__` the root concatenates, in its order
MODULES = [spectral, kernels, force, evolution, constants, multipliers]

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
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "peskin2d")


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


def test_every_name_a_module_lists_is_bound_there():
    for module in MODULES:
        assert isinstance(module.__all__, list)
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def test_no_name_is_listed_by_two_modules():
    owners = {}
    for module in MODULES:
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    assert {n: o for n, o in owners.items() if len(o) > 1} == {}


def test_the_root_exports_the_concatenation_and_binds_no_name_by_hand():
    assert pk.__all__ == [n for module in MODULES for n in module.__all__]
    with open(os.path.join(SRC, "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    imports = [(node.module, [a.name for a in node.names])
               for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports == [(m.__name__.rpartition(".")[2], ["*"]) for m in MODULES]
    bound = [target.id for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets]
    assert bound == ["__version__", "__all__"]
    assert all(isinstance(node, (ast.Expr, ast.ImportFrom, ast.Assign))
               for node in tree.body)


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


def _number_tests(tree):
    """The nodes of `tree` that test whether a value is a real or whole
    number: a `bool` outside an annotation, `numbers.<ABC>`, `.is_integer`
    and `% 1`."""
    notes = {id(n) for node in ast.walk(tree)
             for note in (getattr(node, "annotation", None),
                          getattr(node, "returns", None)) if note is not None
             for n in ast.walk(note)}
    return [node for node in ast.walk(tree) if id(node) not in notes and (
        isinstance(node, ast.Name) and node.id == "bool"
        or isinstance(node, ast.Attribute) and (
            node.attr == "is_integer"
            or isinstance(node.value, ast.Name) and node.value.id == "numbers")
        or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
        and isinstance(node.right, ast.Constant) and node.right.value == 1)]


def test_the_number_check_lives_only_in_spectral_number():
    """Whether a value is a real or a whole number is decided in one place,
    `spectral._number`; a second copy of the test fails here."""
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        inside = set()
        if os.path.basename(path) == "spectral.py":
            (helper,) = [node for node in tree.body if isinstance(
                node, ast.FunctionDef) and node.name == "_number"]
            inside = {id(n) for n in ast.walk(helper)}
            assert len(_number_tests(helper)) >= 3  # bool, Real, is_integer
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in _number_tests(tree) if id(node) not in inside]
    assert found == []


def _range_tests(tree):
    """The comparisons of `tree` that test an interval: chained, as in
    `-1 < x < 1`, against `math.inf` or `np.inf`, or a count's `n < 1` or
    `n >= 1`."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and (len(node.ops) > 1 or any(
                isinstance(side, ast.Attribute) and side.attr == "inf"
                for side in [node.left, *node.comparators])
                or isinstance(node.ops[0], (ast.Lt, ast.GtE))
                and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value == 1)]


def test_the_domain_check_lives_only_in_spectral_number():
    """Whether a value lies in its input's interval is decided in one place,
    `spectral._number`; a hand-written range test elsewhere fails here."""
    found, inside = [], set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        if os.path.basename(path) == "spectral.py":
            (helper,) = [node for node in tree.body if isinstance(
                node, ast.FunctionDef) and node.name == "_number"]
            inside = {id(n) for n in ast.walk(helper)}
            kept = _range_tests(helper)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in _range_tests(tree) if id(node) not in inside]
    assert found == []
    assert len(kept) == 1  # low < value < high
