"""The three workloads: seeded inputs, one operation at a time, and checks.

One caller replays operations in a closed loop.  An operation is one
in-process `peskin2d simulate` (cert16, hires256) or one batch of threshold
and multiplier-integral evaluations (verify).  Each operation returns the
work it did, its wall and CPU time, a digest of everything it produced (so a traced
replay can be compared bitwise with an untraced one) and the number of its
checks that failed.  Checks run outside the timed region against the fixed
absolute tolerances below, and their worst values form the accuracy sidecar.

Functions are always looked up through their module at call time, so the
tracer's wrappers see the calls.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

import peskin2d
from peskin2d import cli, evolution, multipliers

DT = 1e-3
A_E = 1.0
NU_MAX = 0.05
RECORD_EVERY = 10
CERT_A_MU = (-0.5, 0.0, 0.5)
HIRES_A_MU = (-0.5,)
A_MU_RANGE = (-0.95, 0.95)     # the `kcurve` default range
LEMMA_NMAX, LEMMA_KMAX = 3, 20  # the `lemma-check` defaults

# Fixed absolute tolerances of the correctness gate.
TOL = {
    # criterion 06 allows pi*1e-4 over T = 10
    "area_drift": math.pi * 1e-4,
    # energy_certificate's own slack; excess taken over t > t0 only
    "balance_excess": 0.01,
    "decay_excess": 0.01,
    # criterion 01: steady circle at M = 64, N = 256
    "circle_max_u": 1e-10,
    # k_threshold bisects x to 1e-15 absolute; near |a_mu| = 0.95 the
    # margin's slope is ~1e6, so |margin(k)| can reach ~1e-9 there
    "k_residual": 1e-8,
    "lemma_quad_vs_exact": 1e-8,
    # |I_n| - 2 pi, with criterion 07's relative allowance of 1e-8
    "lemma_bound_excess": 2.0 * math.pi * 1e-8,
}


def now():
    return time.perf_counter(), time.process_time()


def since(start):
    """(wall, CPU) seconds elapsed since `start = now()`.  With one BLAS
    thread and none of our own, CPU time is the time the process ran."""
    wall, cpu = now()
    return wall - start[0], cpu - start[1]


def _constants_module():
    # the package rebinds `peskin2d.constants` to a function
    return sys.modules["peskin2d.constants"]


def _badness(v):
    return (math.isnan(v), v)   # NaN ranks worst


class Accuracy:
    """Worst value seen for each sidecar quantity."""

    def __init__(self):
        self.worst = {}
        self.verdicts = {}   # name -> [passed, total]

    def add(self, key, value):
        """Record a value; return True when it is within its tolerance."""
        value = float(value)
        prev = self.worst.get(key, value)
        self.worst[key] = max(prev, value, key=_badness)
        return value <= TOL[key]

    def verdict(self, name, passed):
        row = self.verdicts.setdefault(name, [0, 0])
        row[0] += bool(passed)
        row[1] += 1
        return passed

    def report(self):
        out = {k: {"worst": v, "tol": TOL[k], "ok": v <= TOL[k]}
               for k, v in sorted(self.worst.items())}
        out.update({k: {"passed": p, "of": n, "ok": p == n}
                    for k, (p, n) in sorted(self.verdicts.items())})
        return out


@dataclass
class Op:
    work: int          # integrated steps, or thresholds + tuples
    wall_s: float      # wall time of the calls into peskin2d only
    cpu_s: float       # process CPU time of the same calls
    digest: str        # hash of every output the operation produced
    attempted: int     # checks made
    failed: int        # checks failed
    detail: dict       # per-kind counts and CPU seconds (verify)


def half_threshold_modes(rng, a_mu):
    """Rows [k, re1, im1, re2, im2] on modes 2..5 whose deviation has
    F^{1,1} norm half of k_threshold(a_mu) (a +-k pair adds 2k|c_k|)."""
    x0 = 0.5 * _constants_module().k_threshold(a_mu)["k"]
    vecs = rng.normal(size=(4, 4))
    ks = np.arange(2, 6)
    scale = x0 / float(np.sum(2 * ks * np.linalg.norm(vecs, axis=1)))
    return [[int(k)] + [float(v) for v in scale * row]
            for k, row in zip(ks, vecs)]


class Simulate:
    """`peskin2d simulate` on generated configs (cert16, hires256)."""

    def __init__(self, a_mus, max_mode, grid_size, scheme, steps, pool,
                 circle_check=False):
        self.a_mus = a_mus
        self.max_mode = max_mode
        self.grid_size = grid_size
        self.scheme = scheme
        self.steps = steps
        self.pool = pool            # configs per a_mu
        self.circle_check = circle_check
        self.cycle = len(a_mus)     # operations per cycle: one per a_mu
        self.configs = []
        self.hashes = {}
        self.accuracy = Accuracy()

    def _config(self, rng, a_mu, steps):
        return {
            "physics": {"a_mu": a_mu, "a_e": A_E},
            "initial": {"modes": half_threshold_modes(rng, a_mu)},
            "discretization": {"max_mode": self.max_mode,
                               "grid_size": self.grid_size},
            "stepping": {"dt": DT, "t_final": steps * DT,
                         "scheme": self.scheme,
                         "record_every": RECORD_EVERY, "nu_max": NU_MAX},
        }

    def _write(self, workdir, name, cfg):
        text = json.dumps(cfg, sort_keys=True)
        path = os.path.join(workdir, name + ".json")
        with open(path, "w") as fh:
            fh.write(text)
        self.hashes[name] = hashlib.sha256(text.encode()).hexdigest()[:16]
        return path, os.path.join(workdir, name)

    def generate(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.configs, self.hashes = [], {}
        for j in range(self.pool):
            for a_mu in self.a_mus:
                name = "run%02d_amu%+.1f" % (j, a_mu)
                self.configs.append(
                    self._write(workdir, name,
                                self._config(rng, a_mu, self.steps)))
        self._warm = [self._write(workdir, "warm_amu%+.1f" % a,
                                  self._config(rng, a, 2))
                      for a in self.a_mus]

    def warm_up(self):
        for path, out in self._warm:
            self._simulate(path, out)

    @staticmethod
    def _simulate(path, out):
        buf = io.StringIO()
        start = now()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["simulate", "--config", path, "--out", out])
        return rc, since(start), buf.getvalue()

    def operate(self, i):
        path, out = self.configs[i % len(self.configs)]
        rc, (wall, cpu), text = self._simulate(path, out)
        digest = hashlib.sha256()
        for name in ("trajectory.csv", "final_state.txt"):
            with open(os.path.join(out, name), "rb") as fh:
                digest.update(fh.read())
        failed = 0 if self._check(rc, text, out) else 1
        return Op(self.steps, wall, cpu, digest.hexdigest(), 1, failed, {})

    def _check(self, rc, text, out):
        """Exit code, certificate verdict, run length, area drift, and the
        worst balance and decay excess over t > t0 (the t = 0 row pins
        energy_certificate's own margins at zero)."""
        path = os.path.join(out, "trajectory.csv")
        with open(path) as fh:
            head = re.match(r"# x0=(\S+) script_C=(\S+) failure=", fh.readline())
        rec = evolution.TrajectoryRecord.from_csv(path)
        x0, script_c = float(head[1]), float(head[2])
        t, n11, n21 = rec.t, rec.norm_f11, rec.norm_f21
        rate = 0.25 * A_E * script_c
        cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (n21[1:] + n21[:-1]) * np.diff(t))])
        acc = self.accuracy
        ok = acc.verdict(
            "certificate", "balance  PASS" in text and "decay    PASS" in text)
        ok &= rc == 0
        ok &= abs(t[-1] - self.steps * DT) <= 1e-9
        ok &= acc.add("area_drift", np.max(np.abs(rec.area - rec.area[0])))
        ok &= acc.add("balance_excess",
                      np.max(n11[1:] + rate * cum[1:]) / x0 - 1.0)
        ok &= acc.add("decay_excess", np.max(
            n11[1:] / (x0 * np.exp(-rate * (t[1:] - t[0])))) - 1.0)
        return bool(ok)

    def final_checks(self):
        """Criterion-01 steady-circle residual at this workload's M and N;
        returns (attempted, failed)."""
        if not self.circle_check:
            return 0, 0
        failed = 0
        for a_mu in CERT_A_MU:
            params = peskin2d.PhysicsParams.from_contrast(a_mu, A_E)
            curve = peskin2d.circle_curve(max_mode=self.max_mode,
                                          grid_size=self.grid_size)
            f = peskin2d.solve_force(curve, params)
            u = peskin2d.velocity_on_curve(curve, f)
            failed += not self.accuracy.add("circle_max_u", np.max(np.abs(u)))
        return len(CERT_A_MU), failed


class Verify:
    """What `kcurve` and `lemma-check` compute, called directly: thresholds
    on a seeded a_mu sample, and the three multiplier integrals on seeded
    tuples.  One batch is generated and every operation replays it, so the
    cycles of a run differ only in how the machine ran them."""

    cycle = 1

    def __init__(self, thresholds, tuples):
        self.thresholds = thresholds   # per batch
        self.tuples = tuples           # per batch
        self.accuracy = Accuracy()
        self.hashes = {}

    def generate(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.a_mus = [float(a) for a in
                      rng.uniform(*A_MU_RANGE, size=self.thresholds)]
        self.items = [cli._random_tuple(rng, LEMMA_NMAX, LEMMA_KMAX)
                      for _ in range(self.tuples)]
        text = json.dumps([self.a_mus, self.items])
        self.hashes = {"inputs": hashlib.sha256(text.encode()).hexdigest()[:16]}

    def warm_up(self):
        self._batch(self.a_mus[:2], self.items[:5])

    def _batch(self, a_mus, items):
        kthr = _constants_module().k_threshold
        start = now()
        ks = [kthr(a) for a in a_mus]
        mid = now()
        ints = [(multipliers.integral_In(k, ks_),
                 multipliers.integral_Sn_exact(ks_),
                 multipliers.integral_Sn_quadrature(ks_)) for k, ks_ in items]
        return ks, ints, since(start), since(mid)

    def operate(self, i):
        ks, ints, total, tuples = self._batch(self.a_mus, self.items)
        acc = self.accuracy
        failed = 0
        for r in ks:
            failed += not (acc.add("k_residual", r["residual"]) and r["k"] > 0)
        for num, exact, quad in ints:
            ok = acc.add("lemma_quad_vs_exact", abs(exact - quad))
            ok &= acc.add("lemma_bound_excess", abs(num) - 2.0 * math.pi)
            failed += not ok
        digest = hashlib.sha256(repr((ks, ints)).encode()).hexdigest()
        work = len(ks) + len(ints)
        return Op(work, total[0], total[1], digest, work, failed,
                  {"thresholds": (len(ks), total[1] - tuples[1]),
                   "tuples": (len(ints), tuples[1])})

    def final_checks(self):
        return 0, 0


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does.  The defaults define the
    benchmark; `tiny()` is for the harness's own smoke test."""

    cert_steps: int = 20           # steps per cert16 simulate
    hires_steps: int = 5           # steps per hires256 simulate
    hires_mode: int = 64           # M; N = 4M
    thresholds: int = 100          # per verify batch
    tuples: int = 250              # per verify batch
    setup_repeats: int = 5
    trace_cycles: tuple = (("cert16", 10), ("hires256", 12), ("verify", 25))
    sweep_grids: tuple = (64, 128, 256, 512)

    @classmethod
    def tiny(cls):
        return cls(cert_steps=20, hires_steps=2, hires_mode=8, thresholds=3,
                   tuples=5, setup_repeats=2,
                   trace_cycles=(("cert16", 1), ("hires256", 1), ("verify", 2)),
                   sweep_grids=(32, 64))


def make(name, sizes):
    if name == "cert16":
        return Simulate(CERT_A_MU, 16, 64, "exponential-euler",
                        sizes.cert_steps, pool=2)
    if name == "hires256":
        m = sizes.hires_mode
        return Simulate(HIRES_A_MU, m, 4 * m, "etdrk2", sizes.hires_steps,
                        pool=3, circle_check=True)
    if name == "verify":
        return Verify(sizes.thresholds, sizes.tuples)
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ("cert16", "hires256", "verify")
