"""Command-line front end.

Subcommands:
  simulate      integrate an interface and write trajectory + final state
  kcurve        tabulate the smallness threshold k(a_mu) over a contrast grid
  lemma-check   exercise the multiplier-integral identities on random tuples
  constants     dump the constants chain at one evaluation point
  verify-linear check the instantaneous linearized rates mode by mode

Exit codes: 0 success; 1 usage or configuration error; 2 degenerate
geometry; 3 a certificate or verification check failed.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import fields

import numpy as np

from .constants import (OutOfRegimeError, constants_chain,
                        energy_certificate, k_threshold)
from . import evolution, force, multipliers, spectral
from .spectral import (_CONTRAST, _COUNT, _NONNEGATIVE, _POSITIVE, _SEED,
                       _WHOLE, _number)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, exit 1 (argparse exits 2)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(1)


def _option(domain):
    """An argparse `type=` that carries its `domain`: the text read as an int
    literal, else as a float literal, else as itself, then checked by
    `_number`, whose refusal argparse prints as one usage line."""
    def parse(text):
        for read in (int, float):
            with contextlib.suppress(ValueError):
                text = read(text)
                break
        try:
            return _number(text, "value", domain)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    parse.domain = domain
    return parse


_count = _option(_COUNT)


def _counts(text):
    """An argparse `type=`: a comma-separated list of `_count`s."""
    return [_count(v) for v in text.split(",")]


_counts.domain = _COUNT


class ConfigError(ValueError):
    pass


_VISCOSITIES = {f.name for f in fields(force.PhysicsParams)}
_CONTRASTS = {"a_mu", "a_e"}  # the arguments of PhysicsParams.from_contrast
_SCHEMA = {
    "physics": _VISCOSITIES | _CONTRASTS,
    "initial": {"circle", "modes"},
    "discretization": {"max_mode", "grid_size"},
    "stepping": {f.name for f in fields(evolution.StepperConfig)},
}
_CIRCLE = {f.name for f in fields(spectral.CirclePart)}  # initial.circle


def _check_keys(cfg):
    for section, body in cfg.items():
        if section not in _SCHEMA:
            raise ConfigError("unknown config key %r" % section)
        if not isinstance(body, dict):
            raise ConfigError("section %r must be an object" % section)
        for key in body:
            if key not in _SCHEMA[section]:
                raise ConfigError("unknown config key %r" % (section + "." + key))
    if "circle" in cfg.get("initial", {}):
        circle = cfg["initial"]["circle"]
        if not isinstance(circle, dict):
            raise ConfigError("'initial.circle' must be an object")
        extra = set(circle) - _CIRCLE
        if extra:
            raise ConfigError("unknown config key 'initial.circle.%s'"
                              % min(extra))


@contextlib.contextmanager
def _section(name):
    """Report a value the section's constructors reject as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("%s: %s" % (name, exc)) from exc


def load_config(path):
    """Parse and validate a JSON run configuration."""
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config is not valid JSON: %s" % exc) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _check_keys(cfg)

    with _section("physics"):
        keys = set(cfg.get("physics", {}))  # the constructors check values
        if keys == _CONTRASTS:
            params = force.PhysicsParams.from_contrast(**cfg["physics"])
        elif keys == _VISCOSITIES:
            params = force.PhysicsParams(**cfg["physics"])
        elif keys & _VISCOSITIES and keys & _CONTRASTS:
            raise ConfigError(
                "physics: give either (mu1, mu2, k0) or (a_mu, a_e), not both")
        else:
            raise ConfigError("physics: need (mu1, mu2, k0) or (a_mu, a_e)")

    with _section("discretization"):  # FourierCurve picks and checks the grid
        disc = cfg.get("discretization", {})
        grid = spectral.circle_curve(max_mode=disc.get("max_mode", 16),
                                     grid_size=disc.get("grid_size", 0))
        m, n = grid.max_mode, grid.grid_size

    with _section("initial"):
        init = cfg.get("initial", {})
        base = spectral.circle_curve(**init.get("circle", {}), max_mode=m,
                                     grid_size=n)
        coeffs = base.coeffs.copy()
        for row in init.get("modes", []):
            if not isinstance(row, list) or len(row) != 5:
                raise ConfigError(
                    "initial.modes rows must be [k, re1, im1, re2, im2]")
            k = _number(row[0], "modes row k", domain=_WHOLE)
            if abs(k) > m:
                raise ConfigError("initial.modes: |k| = %d exceeds max_mode %d"
                                  % (abs(k), m))
            v = [_number(x, "modes row entry") for x in row[1:]]
            add = np.array([v[0] + 1j * v[1], v[2] + 1j * v[3]])
            coeffs[k + m] += add
            if k != 0:
                coeffs[-k + m] += np.conj(add)
        curve = spectral.FourierCurve(coeffs, n)

    with _section("stepping"):
        stepper = evolution.StepperConfig(**{
            "dt": 1e-3, "t_final": 1.0, "record_every": 10,
            **cfg.get("stepping", {})})
    return params, curve, stepper


def _out(args, name):
    """The path of `name` in the directory args.out, made if it is missing."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def cmd_simulate(args):
    params, curve, stepper = load_config(args.config)
    csv, txt = _out(args, "trajectory.csv"), _out(args, "final_state.txt")
    with warnings.catch_warnings():  # each warning of run as one line
        warnings.showwarning = lambda message, *_: print(
            "warning: %s" % message, file=sys.stderr)
        rec = evolution.run(curve, params, stepper)
    rec.to_csv(csv)
    evolution.write_final_state(txt, rec.final_state)
    if rec.failure:
        print("DEGENERATE: %s" % rec.failure)
        return 2
    print("integrated to t = %g (%d rows recorded)" % (rec.t[-1], len(rec.t)))
    print("arc-chord bound >= %.3e (floor %.3e)"
          % (np.min(rec.arc_chord), stepper.arc_chord_floor))
    if math.isfinite(rec.script_C):
        cert = energy_certificate(rec, params, x0=rec.x0,
                                      nu_m=stepper.nu_max)
        for line in cert.lines():
            print(line)
        if not cert.ok:
            return 3
    else:
        print("certificate skipped: no positive margin at x0 = %.3e" % rec.x0)
    return 0


def cmd_kcurve(args):
    grid = np.linspace(args.amin, args.amax, args.points)
    results = [k_threshold(a) for a in grid]
    path = _out(args, "kcurve.csv")
    with open(path, "w") as fh:
        fh.write("a_mu,k,k_lower_bound\n")
        for a, res in zip(grid, results):
            fh.write("%.16e,%.16e,%.16e\n" % (a, res["k"], res["lower_bound"]))
    bad = [a for a, r in zip(grid, results) if r["k"] <= r["lower_bound"]]
    worst = max(r["residual"] for r in results)
    print("wrote %s (%d points, worst residual %.2e)" % (path, len(grid), worst))
    if bad:
        print("threshold fell below its closed-form lower bound at %d of %d "
              "points, a_mu in [%.4g, %.4g]"
              % (len(bad), len(grid), min(bad), max(bad)))
        return 3
    return 0


_MAX_DRAWS = 10_000  # rejection draws per tuple before giving up


def _random_tuple(rng, nmax, kmax):
    n = int(rng.integers(1, nmax + 1))
    for _ in range(_MAX_DRAWS):
        k = int(rng.integers(-kmax, kmax + 1))
        ks = [int(v) for v in rng.integers(-kmax, kmax + 1, size=2 * n)]
        if k != ks[0] and all(ks[j] != ks[j + 1] for j in range(2 * n - 1)):
            return k, ks
    raise ValueError(
        "no tuple of %d neighbour-distinct frequencies in %d draws; lower "
        "--nmax or raise --kmax" % (2 * n + 1, _MAX_DRAWS))


def cmd_lemma_check(args):
    rng = np.random.default_rng(args.seed)
    try:
        tuples = [_random_tuple(rng, args.nmax, args.kmax)
                  for _ in range(args.count)]
    except ValueError as exc:
        print("peskin2d lemma-check: error: %s" % exc, file=sys.stderr)
        return 1
    bound = 2.0 * np.pi * (1.0 + 1e-8)

    def one(item):
        k, ks = item
        num = multipliers.integral_In(k, ks)
        exact = multipliers.integral_Sn_exact(ks)
        quad = multipliers.integral_Sn_quadrature(ks)
        return k, ks, num, exact, abs(exact - quad), bound - abs(num)

    rows = [one(item) for item in tuples]
    path = _out(args, "lemma_check.csv")
    failed = nonfinite = 0
    with open(path, "w") as fh:
        fh.write("n,k_tuple,numeric,exact,abs_err,bound_margin\n")
        for k, ks, num, exact, err, margin in rows:
            fh.write('%d,"%s",%.16e,%.16e,%.3e,%.3e\n'
                     % (len(ks) // 2, " ".join(str(v) for v in [k] + ks),
                        num.imag, exact, err, margin))
            nonfinite += not np.isfinite([num, exact, err, margin]).all()
            failed += not (err <= 1e-8 and margin >= 0)  # NaN fails too
    print("wrote %s (%d tuples)" % (path, len(rows)))
    if failed:
        print("FAIL: a quadrature/closed-form mismatch or bound violation in "
              "%d of %d tuples (%d non-finite)" % (failed, len(rows), nonfinite))
        return 3
    print("all tuples within tolerance and the 2*pi bound")
    return 0


def cmd_constants(args):
    try:
        rep = constants_chain(args.x, args.a_mu, args.nu_m, args.a_e)
    except OutOfRegimeError as exc:
        print("out of regime (%s): %s" % (exc.constant_name, exc))
        return 3
    text = json.dumps(rep.as_flat_dict(), indent=2)
    if args.out:
        path = _out(args, "constants.json")
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print("wrote %s" % path)
    else:
        print(text)
    return 0


def cmd_verify_linear(args):
    params = force.PhysicsParams.from_contrast(args.a_mu, args.a_e)
    modes = args.modes
    m = max(modes) + 6
    n = 4 * m
    eps = args.eps
    worst = 0.0
    failed = nonfinite = 0
    for k in modes:
        coeffs = spectral.circle_curve(max_mode=m, grid_size=n).coeffs.copy()
        add = eps * np.array([1.0 + 0.4j, 0.7 - 0.3j])
        coeffs[k + m] += add
        coeffs[-k + m] += np.conj(add)
        curve = spectral.FourierCurve(coeffs, n)
        # n_k: the measured rate minus the linear one, -(a_e/2) L(k) c_k
        nk = evolution.rhs_nonlinear(curve, params).coeffs[k + m]
        lk = 0.5 * params.a_e * evolution._l_action(curve.coeffs, curve.ks)
        with np.errstate(invalid="ignore"):  # a NaN is counted below
            rel = float(spectral._modulus(nk.view(float))
                        / spectral._modulus(lk[k + m].view(float)))
        worst = max(worst, rel)
        nonfinite += not math.isfinite(rel)
        failed += not rel <= args.tol  # NaN fails too
        print("mode %3d: measured vs linear rate, rel err %.3e" % (k, rel))
    if failed:
        print("FAIL: relative error above %.1e in %d of %d modes (%d "
              "non-finite)" % (args.tol, failed, len(modes), nonfinite))
        return 3
    print("linearized rates confirmed (worst rel err %.3e)" % worst)
    return 0


@functools.lru_cache(maxsize=None)
def build_parser():
    p = _Parser(prog="peskin2d",
                description="Two-phase elastic-interface spectral toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="run a time integration")
    s.add_argument("--config", required=True, help="JSON run configuration")
    s.add_argument("--out", required=True, help="output directory")
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("kcurve", help="tabulate the threshold k(a_mu)")
    s.add_argument("--out", required=True)
    s.add_argument("--points", type=_count, default=50)
    s.add_argument("--amin", type=_option(_CONTRAST), default=-0.95)
    s.add_argument("--amax", type=_option(_CONTRAST), default=0.95)
    s.set_defaults(func=cmd_kcurve)

    s = sub.add_parser("lemma-check", help="random multiplier-integral audit")
    s.add_argument("--out", required=True)
    s.add_argument("--count", type=_count, default=1000)
    s.add_argument("--nmax", type=_count, default=3)
    s.add_argument("--kmax", type=_count, default=20)
    s.add_argument("--seed", type=_option(_SEED), default=0)
    s.set_defaults(func=cmd_lemma_check)

    s = sub.add_parser("constants", help="evaluate the constants chain")
    s.add_argument("--x", type=_option(_NONNEGATIVE), required=True,
                   help="deviation norm ||X||_{F^{1,1}_nu}")
    s.add_argument("--a-mu", type=_option(_CONTRAST), default=0.0, dest="a_mu")
    s.add_argument("--nu-m", type=_option(_NONNEGATIVE), default=0.0,
                   dest="nu_m")
    s.add_argument("--a-e", type=_option(_POSITIVE), default=None, dest="a_e")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_constants)

    s = sub.add_parser("verify-linear", help="check linearized decay rates")
    s.add_argument("--a-mu", type=_option(_CONTRAST), default=0.0, dest="a_mu")
    s.add_argument("--a-e", type=_option(_POSITIVE), default=1.0, dest="a_e")
    s.add_argument("--modes", type=_counts, default="2,3,5,10")
    s.add_argument("--eps", type=_option(_POSITIVE), default=1e-5)
    s.add_argument("--tol", type=_option(_POSITIVE), default=1e-3)
    s.set_defaults(func=cmd_verify_linear)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: %s" % (exc or "out of memory"), file=sys.stderr)
        return 1
    except spectral.CurveDegenerateError as exc:
        print("degenerate geometry: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
