import json
import re

import numpy as np
import pytest

from peskin2d import cli, force


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


def test_unknown_key_is_dotted(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["stepping"]["dtt"] = 1e-3
    with pytest.raises(cli.ConfigError, match="stepping.dtt"):
        cli.load_config(write_config(tmp_path, cfg))
    cfg2 = json.loads(json.dumps(BASE_CONFIG))
    cfg2["initial"]["circle"]["radius"] = 2.0
    with pytest.raises(cli.ConfigError, match="initial.circle.radius"):
        cli.load_config(write_config(tmp_path, cfg2))


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


@pytest.mark.parametrize("section, key, value, match", [
    ("physics", "a_mu", 1.5, "physics: a_mu must lie in"),
    ("discretization", "grid_size", 10, "grid_size >= 2\\*max_mode\\+1"),
    ("stepping", "scheme", "rk4", "stepping: scheme must be"),
    ("stepping", "dt", float("nan"), "stepping: dt and t_final"),
    ("stepping", "force_method", "direct",
     "unknown config key 'stepping.force_method'"),
    ("initial", "circle", 3, "'initial.circle' must be an object"),
    ("initial", "circle", ["a"], "'initial.circle' must be an object"),
    ("discretization", "max_mode", 4.7,
     "discretization: max_mode must be a whole number, got 4.7"),
    ("discretization", "max_mode", float("inf"),
     "discretization: cannot convert float infinity to integer"),
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
    ("stepping", "nu_max", -0.1,
     "stepping: nu_max and arc_chord_floor must be >= 0 and finite"),
    ("stepping", "nu_max", float("nan"),
     "stepping: nu_max and arc_chord_floor must be >= 0 and finite"),
    ("stepping", "arc_chord_floor", float("nan"),
     "stepping: nu_max and arc_chord_floor must be >= 0 and finite"),
    ("physics", "mu1", float("inf"),
     "physics: viscosities must be positive and finite"),
    ("physics", "mu1", float("nan"),
     "physics: viscosities must be positive and finite"),
    ("physics", "k0", float("inf"),
     "physics: elastic modulus must be positive and finite"),
    ("physics", "k0", float("nan"),
     "physics: elastic modulus must be positive and finite"),
    ("physics", "a_e", float("inf"), "physics: a_e must be positive and finite"),
])
def test_bad_values_are_config_errors(tmp_path, capsys, section, key, value,
                                      match):
    cfg = json.loads(json.dumps(BASE_CONFIG))
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


def test_simulate_degenerate_exits_2(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["initial"]["modes"] = [[2, 0.45, 0.0, 0.0, -0.45]]
    cfg["stepping"]["arc_chord_floor"] = 0.5
    with pytest.warns(RuntimeWarning):
        code = cli.main(["simulate", "--config",
                         write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "out")])
    assert code == 2
    assert "DEGENERATE" in capsys.readouterr().out


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
    with pytest.warns(RuntimeWarning):
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
    assert "DEGENERATE: %s\n" % rec.failure in capsys.readouterr().out


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
