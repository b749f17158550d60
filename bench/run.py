"""Benchmark harness for peskin2d.

    python3 bench/run.py --workload {cert16,hires256,verify} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout; the package is imported from
./src, never from an installed copy, and scratch files live in a temporary
directory under the checkout that is removed on exit.  One process, one
caller, one BLAS thread (see BLAS_ENV), no threads of its own; the report
records the BLAS pool size.  Before timing, set-up waits on a few child
interpreters, one at a time, that only time the imports.  Rates are operations per second of process CPU
time, which on this single-threaded process is its wall time less the time
other tenants of the machine held the CPU; the report gives both.

--trace 0 replays the workload's operations in a closed loop for S seconds
and reports the end-to-end metrics.  --trace 1 runs each operation of a
fixed list twice, once untraced and once traced, checks that both runs
produced bitwise-identical outputs and that every wrapper was removed, and
reports the per-layer metrics and the layer-scaling sweep.

stdout ends with two JSON lines: a report (provenance, accuracy sidecar,
rates, trace checks, sweep) and the result
{"correct", "attempted", "failed", "metrics"}.  Exits non-zero, printing
no result, when the package sources are missing.

Smoke test of the harness:  python3 -m pytest -q bench/test_smoke.py
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# One BLAS thread.  On a 2-vCPU VM with steal time, OpenBLAS's two-thread
# pool made the M=16 runs slower (115 vs 135 steps/s) and the spread of
# their cycle rates four times wider (8% vs 2%); at N=256 it changed little.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("cert16", "hires256", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import numpy and peskin2d from this checkout; return the (wall, CPU)
    seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "peskin2d", "__init__.py")):
        raise SystemExit("bench: no peskin2d sources under %s" % SRC)
    sys.path.insert(0, SRC)
    os.environ.update(BLAS_ENV)  # read once, when numpy loads BLAS
    t0, c0 = time.perf_counter(), time.process_time()
    import numpy  # noqa: F401
    import peskin2d
    import workloads  # noqa: F401  (imports every peskin2d module it drives)
    elapsed = time.perf_counter() - t0, time.process_time() - c0
    if not os.path.abspath(peskin2d.__file__).startswith(SRC + os.sep):
        raise SystemExit("bench: peskin2d was imported from %s, not from %s"
                         % (peskin2d.__file__, SRC))
    return elapsed


IMPORT_PROBE = """\
import sys, time
sys.path[:0] = [%r, %r]
start = time.process_time()
import numpy, peskin2d, workloads
print(time.process_time() - start)
"""


def import_cpu_samples(count):
    """CPU seconds of the same imports in `count` fresh interpreters, one
    after another, so set-up time is a median and not one sample."""
    code = IMPORT_PROBE % (SRC, os.path.dirname(os.path.abspath(__file__)))
    return [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout)
            for _ in range(count)]


def blas_threads():
    """Size of OpenBLAS's thread pool as numpy's bundled library reports it."""
    import ctypes
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def git_commit():
    """Commit of the checkout from .git, or None when it is not a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    """Digest of the package sources: the checkout need not be a clone."""
    digest = hashlib.sha256()
    pattern = os.path.join(SRC, "peskin2d", "**", "*.py")
    for path in sorted(glob.glob(pattern, recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def provenance(seed, hashes):
    import numpy

    import peskin2d

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "peskin2d": peskin2d.__version__,
        "commit": git_commit(),
        "src_sha256": source_sha256(),
        "seed": seed,
        "config_sha256": hashes,
    }


def guarded(wl, i):
    """One operation; an exception is reported and counted as a failure."""
    from workloads import Op

    try:
        return wl.operate(i)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Op(0, 0.0, 0.0, "error", 1, 1, {})


def rate(ops, clock="cpu_s"):
    seconds = sum(getattr(op, clock) for op in ops)
    return sum(op.work for op in ops) / seconds if seconds > 0 else 0.0


def slow_quantile(values):
    """The value a fifth of the way up: four in five cycles ran faster."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=5, method="inclusive")[0]


def untraced_run(wl, seconds):
    """Whole cycles until `seconds` of wall time have passed.

    The rate is that of the cycle a fifth of the way up from the slowest.
    Other tenants of a shared core slow a cycle down in spells from under a
    second to tens of seconds, and how much of a run they cover changes
    from run to run; the median and the fastest cycle follow that share.
    The slow level itself moves less, so the low quantile spreads less over
    seeds; a run that is quiet almost throughout still reads faster."""
    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        for _ in range(wl.cycle):
            ops.append(guarded(wl, len(ops)))
    cycles = [ops[i:i + wl.cycle] for i in range(0, len(ops), wl.cycle)]
    per_cycle = [rate(c) for c in cycles]
    rates = {"ops_per_cpu_s": slow_quantile(per_cycle),
             "median_cycle_ops_per_cpu_s": statistics.median(per_cycle),
             "cycle_ops_per_cpu_s_range": [min(per_cycle), max(per_cycle)],
             "ops_per_wall_s": slow_quantile([rate(c, "wall_s")
                                              for c in cycles]),
             "cycles": len(cycles)}
    for kind in ("thresholds", "tuples"):
        per = [op.detail[kind] for op in ops if kind in op.detail]
        if per:
            rates[kind + "_per_cpu_s"] = slow_quantile(
                [n / s for n, s in per if s > 0])
    return ops, rates


def traced_run(wl, count, seed, grids, grid_size):
    """Each of `count` operations once untraced and once traced, then the
    sweep.  The two runs of an operation are adjacent, and which goes first
    alternates, so neither side gets the warmer machine."""
    import sweep
    import tracing

    tracer = tracing.Tracer()
    plain, traced = [], []

    def replay(i, with_trace):
        if not with_trace:
            plain.append(guarded(wl, i))
            return
        with tracer:
            traced.append(guarded(wl, i))

    for i in range(count):
        replay(i, i % 2 == 1)
        replay(i, i % 2 == 0)
    equal = ([op.digest for op in plain] == [op.digest for op in traced]
             and "error" not in [op.digest for op in plain])
    overhead = rate(plain) / rate(traced) if rate(traced) > 0 else 0.0
    layers = tracing.summarize(tracer.spans)
    table = sweep.layer_sweep(seed, grids)
    metrics = layer_metrics(tracer.spans, layers, grid_size, overhead, table)
    steps = layers["evolution.step"]["calls"]
    report = {
        "bitwise_equal": equal,
        "wrappers_restored": tracer.restored,
        "untraced_ops_per_cpu_s": rate(plain),
        "traced_ops_per_cpu_s": rate(traced),
        "overhead_ratio": overhead,
        "spans": len(tracer.spans),
        "step_samples": steps,
        "step_p_high": "11th largest of %d" % steps if steps > 10 else "max",
    }
    return plain + traced, metrics, report, table


def layer_metrics(spans, layers, n, overhead, table):
    """Per-layer metrics: {name: (value, unit)}."""
    import tracing

    m = {}
    for name, row in layers.items():
        m[name + ".calls"] = (row["calls"], "count")
        m[name + ".total_ms"] = (row["total_ms"], "ms")
        m[name + ".self_ms"] = (row["self_ms"], "ms")

    def per(x, d):
        return x / d if d else 0.0

    steps = layers["evolution.step"]["calls"]
    m["spectral.FourierCurve.calls_per_step"] = (
        per(layers["spectral.FourierCurve"]["calls"], steps), "1/step")
    m["evolution.rhs_nonlinear.calls_per_step"] = (
        per(layers["evolution.rhs_nonlinear"]["calls"], steps), "1/step")
    m["constants.margin.calls_per_threshold"] = (per(
        len(tracing.parents_of(spans, "constants.margin",
                               "constants.k_threshold")),
        layers["constants.k_threshold"]["calls"]), "1/threshold")
    # computed from N, not measured: the (2N)^2 float64 S matrix and one
    # dense LU of order 2N per solve that assembled S
    lu_solves = len(set(tracing.parents_of(spans, "force.s_operator_matrix",
                                           "force.solve_force")))
    m["force.s_operator_matrix.computed_mb"] = (
        layers["force.s_operator_matrix"]["calls"] * 8.0 * (2 * n) ** 2 / 1e6,
        "MB")
    m["force.solve_force.computed_lu_gflop"] = (
        lu_solves * (2.0 / 3.0) * (2 * n) ** 3 / 1e9, "GFLOP")
    p50, high = tracing.median_and_high(layers["evolution.step"]["durations"])
    m["evolution.step.p50_ms"] = (p50, "ms")
    m["evolution.step.p_high_ms"] = (high, "ms")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    for grid, row in table.items():
        for key, value in row.items():
            if key.endswith("_ms"):
                m["sweep.n%d.%s" % (grid, key)] = (value, "ms")
    return m


def main(argv=None, sizes=None):
    args = parse_args(argv)
    import_s = import_package()
    import workloads
    from workloads import now, since

    sizes = sizes or workloads.Sizes()
    wl = workloads.make(args.workload, sizes)
    with tempfile.TemporaryDirectory(prefix=".bench_work_", dir=ROOT) as work:
        setup = []   # (wall, CPU) seconds
        for _ in range(sizes.setup_repeats):
            start = now()
            wl.generate(args.seed, work)
            wl.warm_up()
            setup.append(since(start))
        imports = [import_s[1]] + import_cpu_samples(sizes.setup_repeats - 1)
        report = {"workload": args.workload, "seed": args.seed,
                  "import_wall_cpu_s": import_s,
                  "import_repeats_cpu_s": imports,
                  "setup_repeats_wall_cpu_s": setup}
        if args.trace:
            count = dict(sizes.trace_cycles)[args.workload] * wl.cycle
            ops, metrics, report["trace"], report["sweep"] = traced_run(
                wl, count, args.seed, sizes.sweep_grids,
                getattr(wl, "grid_size", 0))
            checks = [report["trace"]["bitwise_equal"],
                      report["trace"]["wrappers_restored"]]
        else:
            ops, report["rates"] = untraced_run(wl, args.seconds)
            checks = []
        extra_attempted, extra_failed = wl.final_checks()
    attempted = sum(op.attempted for op in ops) + extra_attempted + len(checks)
    failed = (sum(op.failed for op in ops) + extra_failed
              + sum(not ok for ok in checks))
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(imports)
                        + statistics.median(c for _, c in setup), "s"),
            "ops_per_cpu_s": (report["rates"]["ops_per_cpu_s"], "1/s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    report["accuracy"] = wl.accuracy.report()
    report["provenance"] = provenance(args.seed, wl.hashes)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # exit through SystemExit on SIGTERM so the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
