import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

from peskin2d import cli, evolution, force, multipliers, spectral


BASE_CONFIG = {
    "physics": {"a_mu": 0.0, "a_e": 1.0},
    "discretization": {"max_mode": 8, "grid_size": 32},
    "initial": {
        "circle": {"a": 1.0},
        "modes": [[2, 1e-4, 5e-5, -3e-5, 2e-5]],
    },
    "stepping": {"dt": 1e-3, "t_final": 0.05, "record_every": 10},
}


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ------------------------------------------------------------ config parsing


def test_unknown_section_is_dotted(tmp_path):
    cfg = dict(BASE_CONFIG)
    cfg["typo_section"] = {}
    with pytest.raises(cli.ConfigError, match="typo_section"):
        cli.load_config(write_config(tmp_path, cfg))
    cfg = dict(BASE_CONFIG, circle={"a": 1.0})  # a key of initial only
    with pytest.raises(cli.ConfigError, match="^unknown config key 'circle'$"):
        cli.load_config(write_config(tmp_path, cfg))


def test_unknown_key_is_dotted(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["stepping"]["dtt"] = 1e-3
    with pytest.raises(cli.ConfigError, match="stepping.dtt"):
        cli.load_config(write_config(tmp_path, cfg))
    cfg2 = json.loads(json.dumps(BASE_CONFIG))
    cfg2["initial"]["circle"]["radius"] = 2.0
    with pytest.raises(cli.ConfigError, match="initial.circle.radius"):
        cli.load_config(write_config(tmp_path, cfg2))


def test_every_constructor_field_is_a_config_key(tmp_path):
    """`stepping` takes each field of StepperConfig and `initial.circle`
    each field of CirclePart: the schema reads them from the dataclasses."""
    stepping = {"dt": 1e-3, "t_final": 0.05, "scheme": "etdrk2",
                "record_every": 2, "nu_max": 0.5, "arc_chord_floor": 0.01}
    circle = {"a": 1.5, "b": 0.5, "c": 0.25, "d": -0.25}
    assert set(stepping) == {f.name for f in fields(evolution.StepperConfig)}
    assert set(circle) == {f.name for f in fields(spectral.CirclePart)}
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["stepping"], cfg["initial"] = stepping, {"circle": circle}
    _, curve, stepper = cli.load_config(write_config(tmp_path, cfg))
    assert stepper == evolution.StepperConfig(**stepping)
    assert spectral.circle_part(curve) == spectral.CirclePart(**circle)


def test_physics_exclusive_parameterizations(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["physics"] = {"a_mu": 0.0, "a_e": 1.0, "mu1": 1.0}
    with pytest.raises(cli.ConfigError, match="not both"):
        cli.load_config(write_config(tmp_path, cfg))
    cfg["physics"] = {"mu1": 1.0}
    with pytest.raises(cli.ConfigError, match="need"):
        cli.load_config(write_config(tmp_path, cfg))


def test_mode_rows_validated(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["initial"]["modes"] = [[99, 1, 0, 0, 0]]
    with pytest.raises(cli.ConfigError, match="max_mode"):
        cli.load_config(write_config(tmp_path, cfg))
    cfg["initial"]["modes"] = [[2, 1, 0]]
    with pytest.raises(cli.ConfigError, match="rows"):
        cli.load_config(write_config(tmp_path, cfg))


def test_config_builds_conjugate_pair(tmp_path):
    params, curve, stepper = cli.load_config(
        write_config(tmp_path, BASE_CONFIG))
    m = curve.max_mode
    assert np.allclose(curve.mode(-2), np.conj(curve.mode(2)))
    assert params.a_e == 1.0
    assert stepper.dt == 1e-3


@pytest.mark.parametrize("max_mode", [1, 2, 8])
def test_a_config_without_grid_size_takes_the_library_grid(tmp_path,
                                                           max_mode):
    """The default grid is FourierCurve's max(4M, 8): a max_mode 1 config
    used to run on 4 points, where circle_curve(max_mode=1) takes 8."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["discretization"] = {"max_mode": max_mode}
    cfg["initial"]["modes"] = []
    _, curve, _ = cli.load_config(write_config(tmp_path, cfg))
    assert curve.grid_size == max(4 * max_mode, 8)
    assert curve.grid_size == spectral.circle_curve(
        max_mode=max_mode).grid_size


def _kept(section, key, value, match, name):
    """A row named `<section>-<key>-<value>-<name>`: its test keeps that
    name while `match` follows the message."""
    return pytest.param(section, key, value, match,
                        id="%s-%s-%s-%s" % (section, key, value, name))


@pytest.mark.parametrize("section, key, value, match", [
    _kept("physics", "a_mu", 1.5,
          "physics: a_mu must be in \\(-1, 1\\), got 1.5$",
          "physics: a_mu must lie in"),
    _kept("discretization", "grid_size", 10,
          "discretization: grid_size 10 cannot resolve modes up to 8 "
          "\\(need >= 17\\)$", "grid_size >= 2\\*max_mode\\+1"),
    ("stepping", "scheme", "rk4", "stepping: scheme must be"),
    _kept("stepping", "dt", float("nan"),
          "stepping: dt must be positive and finite, got nan$",
          "stepping: dt and t_final"),
    ("stepping", "force_method", "direct",
     "unknown config key 'stepping.force_method'"),
    ("initial", "circle", 3, "'initial.circle' must be an object"),
    ("initial", "circle", ["a"], "'initial.circle' must be an object"),
    ("discretization", "max_mode", 4.7,
     "discretization: max_mode must be a whole number, got 4.7"),
    ("discretization", "max_mode", float("inf"),
     "discretization: max_mode must be a whole number, got inf"),
    ("discretization", "grid_size", 32.5,
     "discretization: grid_size must be a whole number, got 32.5"),
    ("stepping", "record_every", 2.5,
     "stepping: record_every must be a whole number, got 2.5"),
    ("initial", "modes", [[1.5, 0.01, 0, 0, 0]],
     "initial: modes row k must be a whole number, got 1.5"),
    ("discretization", "max_mode", "8",
     "discretization: max_mode must be a number, got '8'"),
    ("discretization", "grid_size", "32",
     "discretization: grid_size must be a number, got '32'"),
    ("stepping", "dt", "1e-3", "stepping: dt must be a number, got '1e-3'"),
    ("stepping", "t_final", "0.01",
     "stepping: t_final must be a number, got '0.01'"),
    ("stepping", "record_every", True,
     "stepping: record_every must be a number, got True"),
    ("physics", "a_mu", "0.5", "physics: a_mu must be a number, got '0.5'"),
    ("physics", "a_e", True, "physics: a_e must be a number, got True"),
    ("initial", "circle", {"a": "1.0"},
     "initial: circle.a must be a number, got '1.0'"),
    ("initial", "modes", [[2, "1e-4", 0, 0, 0]],
     "initial: modes row entry must be a number, got '1e-4'"),
    ("initial", "modes", [[False, 1e-4, 0, 0, 0]],
     "initial: modes row k must be a number, got False"),
    ("initial", "modes", [dict.fromkeys("abcde", 0)],
     "initial.modes rows must be"),
    ("stepping", "scheme", 2,
     "stepping: scheme must be 'exponential-euler' or 'etdrk2'"),
    _kept("stepping", "nu_max", -0.1,
          "stepping: nu_max must be nonnegative and finite, got -0.1$",
          "stepping: nu_max and arc_chord_floor must be >= 0 and finite"),
    _kept("stepping", "nu_max", float("nan"),
          "stepping: nu_max must be nonnegative and finite, got nan$",
          "stepping: nu_max and arc_chord_floor must be >= 0 and finite"),
    _kept("stepping", "arc_chord_floor", float("nan"),
          "stepping: arc_chord_floor must be nonnegative and finite, got nan$",
          "stepping: nu_max and arc_chord_floor must be >= 0 and finite"),
    _kept("physics", "mu1", float("inf"),
          "physics: mu1 must be positive and finite, got inf$",
          "physics: viscosities must be positive and finite"),
    _kept("physics", "mu1", float("nan"),
          "physics: mu1 must be positive and finite, got nan$",
          "physics: viscosities must be positive and finite"),
    _kept("physics", "k0", float("inf"),
          "physics: k0 must be positive and finite, got inf$",
          "physics: elastic modulus must be positive and finite"),
    _kept("physics", "k0", float("nan"),
          "physics: k0 must be positive and finite, got nan$",
          "physics: elastic modulus must be positive and finite"),
    ("physics", "a_e", float("inf"), "physics: a_e must be positive and finite"),
    ("stepping", "dt", 1e-320,
     "stepping: t_final / dt must be finite, got dt = 1e-320 and "
     "t_final = 0.05"),
    ("initial", "modes", [[2, float("inf"), 0, 0, 0]],
     "initial: coefficients must be finite"),
    ("initial", "circle", {"c": float("inf")},
     "initial: coefficients must be finite"),
    pytest.param("physics", None, {"mu1": 1e300, "mu2": 1e-300, "k0": 1.0},
                 "physics: a_mu of the viscosities must be in \\(-1, 1\\), "
                 "got -1.0$", id="physics-None-value35-physics: viscosities "
                 "give a_mu = -1.0, outside \\(-1, 1\\)"),
    pytest.param("physics", None, {"mu1": 1e300, "mu2": 1e300, "k0": 1e-300},
                 "physics: a_e of k0 / \\(mu1 \\+ mu2\\) must be positive "
                 "and finite, got 0.0$", id="physics-None-value36-physics: k0 "
                 "/ \\(mu1 \\+ mu2\\) gives a_e = 0.0, not positive"),
    pytest.param("discretization", "grid_size", sys.maxsize + 1,
                 "discretization: grid_size is larger than any array$",
                 id="discretization-grid_size-maxsize+1"),
    pytest.param("discretization", "grid_size", 10 ** 400,
                 "discretization: grid_size is larger than any array$",
                 id="discretization-grid_size-huge"),
    pytest.param("stepping", "t_final", -1,
                 "stepping: t_final must be positive and finite, got -1.0$",
                 id="stepping-t_final--1"),
] + [
    # a 400-digit JSON integer holds no float: refused, not taken as inf
    pytest.param(section, key, value, "%s: %s is too large for a "
                 "float" % (section, name), id="%s-%s-huge" % (section, name))
    for section, key, value, name in [
        ("physics", "mu1", 10 ** 400, "mu1"),
        ("physics", "a_mu", -10 ** 400, "a_mu"),
        ("stepping", "nu_max", 10 ** 400, "nu_max"),
        ("initial", "circle", {"a": 10 ** 400}, "circle.a"),
        ("initial", "modes", [[2, 10 ** 400, 0, 0, 0]], "modes row entry"),
    ]
])
def test_bad_values_are_config_errors(tmp_path, capsys, section, key, value,
                                      match):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    if key is None:  # the whole section
        cfg[section] = value
    else:
        if key in ("mu1", "mu2", "k0"):
            cfg["physics"] = {"mu1": 0.5, "mu2": 0.5, "k0": 1.0}
        cfg[section][key] = value
    path = write_config(tmp_path, cfg)   # json writes NaN for float("nan")
    with pytest.raises(cli.ConfigError, match=match):
        cli.load_config(path)
    code = cli.main(["simulate", "--config", path,
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    ("{", "config is not valid JSON: "),
    ("[]", "config root must be an object"),
    ('{"physics": 3}', "section 'physics' must be an object"),
])
def test_a_malformed_config_file_is_a_config_error(tmp_path, capsys, text,
                                                   message):
    path = tmp_path / "run.json"
    path.write_text(text)
    code = cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: " + message) and err.count("\n") == 1


@pytest.mark.parametrize("missing", ["a_mu", "a_e"])
def test_partial_contrast_is_a_config_error(tmp_path, capsys, missing):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    del cfg["physics"][missing]
    path = write_config(tmp_path, cfg)
    code = cli.main(["simulate", "--config", path,
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: physics: need (mu1, mu2, k0) or (a_mu, a_e)\n")


# -------------------------------------------------------------- subcommands


def test_simulate_smoke(tmp_path, capsys):
    cfgp = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", cfgp, "--out", str(out)])
    assert code == 0
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[1] == ("t,norm_f11,norm_f21,radius,area,arc_chord,"
                       "center_x,center_y,energy_lhs,energy_rhs")
    assert len(traj) > 3
    assert (out / "final_state.txt").exists()
    text = capsys.readouterr().out
    assert "balance" in text and "decay" in text
    # the run's margin to its degeneracy guard: min of the arc_chord column
    got = re.search(r"^arc-chord bound >= (\S+) \(floor (\S+)\)$", text, re.M)
    column = np.loadtxt(traj[2:], delimiter=",")[:, 5]
    assert float(got[1]) == pytest.approx(column.min(), rel=1e-3)
    assert float(got[2]) == 0.05 < float(got[1])


def _run_warnings(out, last):
    """The stderr of a simulate run into `out` from an x0 at or above
    k(0): one `warning:` line for the threshold, then one for `last`, with
    the run's x0 as %(x0).3e."""
    x0 = evolution.TrajectoryRecord.from_csv(out / "trajectory.csv").x0
    k = cli.k_threshold(0.0)["k"]
    return ("warning: initial deviation norm %.3e is not below the certified "
            "threshold %.3e; the decay certificate does not apply\n"
            "warning: %s\n" % (x0, k, last % {"x0": x0}))


def test_simulate_degenerate_exits_2(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["initial"]["modes"] = [[2, 0.45, 0.0, 0.0, -0.45]]
    cfg["stepping"]["arc_chord_floor"] = 0.5
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert "DEGENERATE" in captured.out
    assert captured.err == _run_warnings(
        out, "constants chain out of regime at x0 = %(x0).3e")


def test_trajectory_of_a_curve_degenerate_at_t0_reads_back(tmp_path, capsys):
    """A figure-eight, X = (sin t, -sin 2t), fails the arc-chord guard before
    the first row: simulate exits 2 with a header-only trajectory.csv, which
    reads back as empty columns with the run's x0, script_C and failure."""
    from peskin2d.evolution import CSV_HEADER, TrajectoryRecord
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["initial"] = {"circle": {"a": 0.0},
                      "modes": [[1, 0.0, -0.5, 0.0, 0.0],
                                [2, 0.0, 0.0, 0.0, -0.5]]}
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)])
    assert code == 2
    rec = TrajectoryRecord.from_csv(out / "trajectory.csv")
    for name in CSV_HEADER.split(","):
        assert getattr(rec, name).shape == (0,)
    comment = (out / "trajectory.csv").read_text().splitlines()[0]
    assert comment == "# x0=%r script_C=%r failure=%r" % (
        rec.x0, rec.script_C, rec.failure)
    assert rec.x0 > 0 and rec.failure.startswith("arc-chord constant")
    captured = capsys.readouterr()
    assert "DEGENERATE: %s\n" % rec.failure in captured.out
    assert captured.err == _run_warnings(
        out, "constants chain out of regime at x0 = %(x0).3e")


def test_simulate_to_a_tiny_t_final_exits_0(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["stepping"]["t_final"] = 1e-12
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    assert "integrated to t = 1e-12 (2 rows recorded)" in captured.out
    assert len((out / "trajectory.csv").read_text().splitlines()) == 4


def test_simulate_above_the_threshold_skips_the_certificate(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["initial"]["modes"] = [[2, 1e-2, 1e-2, 1e-2, 1e-2]]
    cfg["stepping"]["t_final"] = 2e-3
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "certificate skipped: no positive margin at x0 = " in captured.out
    assert captured.err == _run_warnings(
        out, "dissipation margin is not positive")


def test_simulate_prints_the_warnings_of_a_run_that_raises(tmp_path, capsys,
                                                          monkeypatch):
    def run(curve, params, stepper):
        warnings.warn("first", RuntimeWarning)
        warnings.warn("second", RuntimeWarning)
        raise force.SolverError("stub failure")

    monkeypatch.setattr(evolution, "run", run)
    with pytest.raises(force.SolverError, match="stub failure"):
        cli.main(["simulate", "--config", write_config(tmp_path, BASE_CONFIG),
                  "--out", str(tmp_path / "out")])
    assert capsys.readouterr().err == "warning: first\nwarning: second\n"


def test_simulate_exits_3_when_the_certificate_fails(tmp_path, capsys,
                                                     monkeypatch):
    class Failed:
        ok = False

        def lines(self):
            return ["balance: stub failure"]

    monkeypatch.setattr(cli, "energy_certificate", lambda *a, **kw: Failed())
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["stepping"]["t_final"] = 2e-3
    code = cli.main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().out.endswith("\nbalance: stub failure\n")


def test_missing_config_exits_1(tmp_path, capsys):
    code = cli.main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["simulate"],                                # missing required args
    ["not-a-command"],
    ["kcurve", "--out", "{tmp}", "--points", "0"],
    ["kcurve", "--out", "{tmp}", "--amin", "-1.5"],
    ["verify-linear", "--a-mu", "2"],
    ["verify-linear", "--a-e", "-1"],
    ["verify-linear", "--modes", "abc"],
    ["verify-linear", "--modes", "0"],
    ["verify-linear", "--modes", "-2"],
    ["constants", "--x", "-1"],
    ["constants", "--x", "0.1", "--a-mu", "1.5"],
    ["lemma-check", "--out", "{tmp}", "--nmax", "0"],
    ["lemma-check", "--out", "{tmp}", "--kmax", "0"],
    ["lemma-check", "--out", "{tmp}", "--count", "-1"],
    ["lemma-check", "--out", "{tmp}", "--seed", "-1"],  # before default_rng
    # 2n+1 neighbour-distinct draws from 3 values: too rare to sample
    ["lemma-check", "--out", "{tmp}", "--nmax", "40", "--kmax", "1"],
    ["simulate", "--config", "{tmp}", "--out", "{tmp}"],   # a directory
])
def test_usage_error_exits_1(tmp_path, capsys, argv):
    code = cli.main([a.format(tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command, n", [("simulate", 16000),
                                        ("verify-linear", 16024)])
def test_a_grid_too_large_for_memory_exits_1(tmp_path, capsys, monkeypatch,
                                             command, n):
    """A band whose (N, N) pair tables do not fit in memory ends in one
    error line that names the grid size, not a traceback.  The tables'
    allocation is made to fail; none is asked for."""
    def no_memory(m, n):
        raise MemoryError

    monkeypatch.setattr(force, "_workspace", no_memory)
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["discretization"] = {"max_mode": 4000}
    argv = {"simulate": ["simulate", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")],
            "verify-linear": ["verify-linear", "--modes", "4000"]}[command]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [
        "error: grid size %d: its (N, N) pair tables do not fit in memory" % n]


def test_main_calls_in_one_process_are_independent(tmp_path, capsys):
    """The parser is built once; a later call sees none of an earlier
    call's subcommand or option values."""
    assert cli.build_parser() is cli.build_parser()
    first = ["constants", "--x", "1e-4"]
    assert cli.main(first) == 0
    alone = capsys.readouterr().out
    assert cli.main(["constants", "--x", "2e-4", "--a-mu", "0.2",
                     "--a-e", "1.0"]) == 0
    assert cli.main(["kcurve", "--out", str(tmp_path / "kc"),
                     "--points", "2"]) == 3
    assert "wrote" in capsys.readouterr().out
    assert cli.main(first) == 0
    assert capsys.readouterr().out == alone
    assert json.loads(alone)["a_mu"] == 0.0 and json.loads(alone)["x"] == 1e-4


def test_kcurve_writes_table_and_flags_bound(tmp_path, capsys):
    out = tmp_path / "kc"
    code = cli.main(["kcurve", "--out", str(out), "--points", "3",
                     "--amin", "-0.3", "--amax", "0.3"])
    lines = (out / "kcurve.csv").read_text().splitlines()
    assert lines[0] == "a_mu,k,k_lower_bound"
    assert len(lines) == 4
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    # the tabulated root always undershoots the closed-form value, which is
    # an upper bound for it; the command reports that honestly as a failure
    assert all(k < lb for _, k, lb in rows)
    assert code == 3
    assert ("below its closed-form lower bound at 3 of 3 points, "
            "a_mu in [-0.3, 0.3]") in capsys.readouterr().out


def test_lemma_check_small(tmp_path, capsys):
    out = tmp_path / "lm"
    code = cli.main(["lemma-check", "--out", str(out), "--count", "25",
                     "--kmax", "8", "--seed", "1"])
    assert code == 0
    lines = (out / "lemma_check.csv").read_text().splitlines()
    assert lines[0] == "n,k_tuple,numeric,exact,abs_err,bound_margin"
    assert len(lines) == 26
    assert "within tolerance" in capsys.readouterr().out


def test_lemma_check_fails_a_non_finite_closed_form(
        tmp_path, capsys, monkeypatch):
    """A NaN closed form compares false against every tolerance; the row
    must still count as failed."""
    monkeypatch.setattr(multipliers, "integral_Sn_exact", lambda ks: math.nan)
    code = cli.main(["lemma-check", "--out", str(tmp_path), "--count", "1"])
    assert code == 3
    row = (tmp_path / "lemma_check.csv").read_text().splitlines()[1]
    assert row.split(",")[-3] == "nan"
    assert "in 1 of 1 tuples (1 non-finite)" in capsys.readouterr().out


def test_constants_json(tmp_path, capsys):
    out = tmp_path / "cc"
    code = cli.main(["constants", "--x", "1e-4", "--a-mu", "0.2",
                     "--a-e", "1.0", "--out", str(out)])
    assert code == 0
    data = json.loads((out / "constants.json").read_text())
    assert data["C1"] >= 1.0 and "D5" in data and "script_C" in data
    capsys.readouterr()
    code = cli.main(["constants", "--x", "1e-4"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["C17"] >= 1.0


def test_constants_out_of_regime_exits_3(capsys):
    code = cli.main(["constants", "--x", "0.9"])
    assert code == 3
    assert "out of regime" in capsys.readouterr().out


def test_verify_linear_smoke(capsys):
    code = cli.main(["verify-linear", "--modes", "2,3", "--a-mu", "0.5"])
    assert code == 0
    assert "confirmed" in capsys.readouterr().out


def test_verify_linear_fails_above_its_tolerance(capsys):
    code = cli.main(["verify-linear", "--modes", "2", "--tol", "1e-14"])
    assert code == 3
    assert re.search(r"^FAIL: relative error above 1\.0e-14 in 1 of 1 modes "
                     r"\(0 non-finite\)$", capsys.readouterr().out, re.M)


def test_verify_linear_fails_on_non_finite_rates(capsys):
    """At a_e = 1e200 the rates' moduli overflow and every relative error
    is NaN, which counts as a failure (max() used to drop it and pass)."""
    code = cli.main(["verify-linear", "--a-e", "1e200"])
    out, err = capsys.readouterr()
    assert code == 3 and err == ""
    assert out.count("rel err nan") == 4
    assert out.endswith("FAIL: relative error above 1.0e-03 in 4 of 4 modes "
                        "(4 non-finite)\n")


@pytest.mark.parametrize("argv, message", [
    (["kcurve", "--points", "0"], "--points: value must be a whole number "
     ">= 1, got 0"),
    (["kcurve", "--amin", "-1"], "--amin: value must be in (-1, 1), got -1.0"),
    (["constants", "--x", "inf"], "--x: value must be nonnegative and "
     "finite, got inf"),
    (["verify-linear", "--eps", "nan"], "--eps: value must be positive and "
     "finite, got nan"),
    (["verify-linear", "--modes", "2,0"], "--modes: value must be a whole "
     "number >= 1, got 0"),
    (["lemma-check", "--seed", "-1"], "--seed: value must be nonnegative "
     "and finite, got -1"),
] + [
    pytest.param(argv, message, id="%s-%s-%s" % (
        argv[0], argv[-2].lstrip("-"), argv[-1]))
    for argv, message in [
        (["kcurve", "--amax", "1.5"], "--amax: value must be in (-1, 1), "
         "got 1.5"),
        (["lemma-check", "--nmax", "0"], "--nmax: value must be a whole "
         "number >= 1, got 0"),
        (["lemma-check", "--kmax", "0"], "--kmax: value must be a whole "
         "number >= 1, got 0"),
        (["constants", "--x", "0.1", "--nu-m", "-1"], "--nu-m: value must "
         "be nonnegative and finite, got -1.0"),
        (["constants", "--x", "0.1", "--a-e", "-1"], "--a-e: value must be "
         "positive and finite, got -1.0"),
        (["verify-linear", "--tol", "-1"], "--tol: value must be positive "
         "and finite, got -1.0"),
        # not a number of its kind: `_number` decides, not int() or float()
        (["kcurve", "--points", "1.5"], "--points: value must be a whole "
         "number, got 1.5"),
        (["kcurve", "--amin", "abc"], "--amin: value must be a number, "
         "got 'abc'"),
    ]
])
def test_an_option_outside_its_domain_is_one_usage_line(tmp_path, capsys,
                                                        argv, message):
    """Every numeric option goes through the one domain check, and argparse
    prints its refusal."""
    if argv[0] != "verify-linear":
        argv = argv + ["--out", str(tmp_path)] * (argv[0] != "constants")
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "peskin2d %s: error: argument %s\n" % (
        argv[0], message)


@pytest.mark.parametrize("argv, dest, value", [
    pytest.param(argv, dest, value, id="%s-%s-%s" % (
        argv[0], argv[1].lstrip("-"), label or argv[2]))
    for argv, dest, value, label in [
        (["kcurve", "--points", "1e3"], "points", 1000, None),
        (["lemma-check", "--seed", "2.0"], "seed", 2, None),
        (["lemma-check", "--seed", "1" + "0" * 400], "seed", 10 ** 400,
         "400-digits"),  # an int literal keeps its exact value
        (["verify-linear", "--modes", "2,3.0"], "modes", [2, 3], None),
        (["constants", "--x", "-0"], "x", -0.0, None),  # read as a float
    ]
])
def test_a_numeric_option_reads_int_and_float_literals(argv, dest, value):
    out = ["--out", "o"] * (argv[0] != "verify-linear")  # no --out there
    args = cli.build_parser().parse_args(argv + out)
    assert repr(getattr(args, dest)) == repr(value)  # the type too


def _typed_options():
    """(command, option, type) of every `build_parser()` action with a type."""
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return [(command, action.option_strings[0], action.type)
            for command, parser in commands.items()
            for action in parser._actions if action.type is not None]


def test_every_typed_option_carries_its_domain():
    options = _typed_options()
    assert len(options) == 16
    for command, option, kind in options:
        assert isinstance(getattr(kind, "domain", None), spectral._Domain), (
            command, option)


def _just_outside(domain):
    """(text, message) of the values just outside `domain`: its finite
    ends, nan, inf, and 1.5 where a whole number is due."""
    cases = [(repr(end), "%s, got %r" % (domain.text, end))
             for end in (domain.low, domain.high) if math.isfinite(end)]
    wording = "a whole number" if domain.kind is int else domain.text
    return cases + [(text, "%s, got %s" % (wording, text)) for text in
                    ["nan", "inf"] + ["1.5"] * (domain.kind is int)]


@pytest.mark.parametrize("command, option, text, message", [
    pytest.param(command, option, text, message, id="%s-%s-%s" % (
        command, option.lstrip("-"), text))
    for command, option, kind in _typed_options()
    for text, message in _just_outside(kind.domain)
])
def test_every_option_refuses_the_values_just_outside_its_domain(
        capsys, command, option, text, message):
    """Each typed option of the parser, walked: `--opt=<value>`, since
    argparse reads a bare `-5e-324` as an option."""
    assert cli.main([command, "%s=%s" % (option, text)]) == 1
    assert capsys.readouterr().err == (
        "peskin2d %s: error: argument %s: value must be %s\n"
        % (command, option, message))


def test_degenerate_geometry_outside_a_run_exits_2(capsys, monkeypatch):
    """`main` maps a CurveDegenerateError that no run caught to one line
    and exit 2; verify-linear calls the nonlinearity directly."""
    def collapse(curve, params):
        raise spectral.CurveDegenerateError("stub collapse")

    monkeypatch.setattr(evolution, "rhs_nonlinear", collapse)
    code = cli.main(["verify-linear", "--modes", "2"])
    assert code == 2
    assert capsys.readouterr().err == "degenerate geometry: stub collapse\n"


def test_module_entry_point_carries_the_exit_code(tmp_path):
    """`python -m peskin2d.cli` passes main's exit code to the process."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "peskin2d.cli", "constants", "--x", "0.9"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 3
    assert "out of regime" in proc.stdout
