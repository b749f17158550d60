"""Smoke test of the benchmark harness at tiny sizes (a few seconds).

    python3 -m pytest -q bench/test_smoke.py
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()
import peskin2d  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from peskin2d import evolution, spectral  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", "5", "--seconds",
                       "0.2", "--trace", str(trace)],
                      sizes=workloads.Sizes.tiny())
    lines = buf.getvalue().splitlines()
    return rc, json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_workloads_match_the_harness():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    rc, report, result = bench(workload, 0)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert all(a["ok"] for a in report["accuracy"].values())
    assert report["provenance"]["seed"] == 5
    assert len(report["provenance"]["src_sha256"]) == 16
    assert len(report["import_repeats_cpu_s"]) == 2


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_is_bitwise_equal_and_reports_every_layer(workload):
    rc, report, result = bench(workload, 1)
    assert rc == 0 and result["correct"]
    assert report["trace"]["bitwise_equal"]
    assert report["trace"]["wrappers_restored"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    def is_sweep(name):
        return name.startswith("sweep.")

    assert ({k: u for k, u in got.items() if not is_sweep(k)}
            == {k: u for k, u in spec.items() if not is_sweep(k)})
    assert {k for k in got if is_sweep(k)} == {
        "sweep.n%d.%s_ms" % (n, layer)
        for n in workloads.Sizes.tiny().sweep_grids for layer in sweep.LAYERS}
    assert {k for k in spec if is_sweep(k)} == {
        "sweep.n%d.%s_ms" % (n, layer)
        for n in workloads.Sizes().sweep_grids for layer in sweep.LAYERS}


def test_tracer_restores_every_binding_after_an_error():
    before = [spectral.to_Y, evolution.to_Y, peskin2d.to_Y,
              spectral.FourierCurve.__post_init__]
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            assert evolution.to_Y is not before[1]
            spectral.circle_decompose(peskin2d.circle_curve(max_mode=4))
            raise RuntimeError
    after = [spectral.to_Y, evolution.to_Y, peskin2d.to_Y,
             spectral.FourierCurve.__post_init__]
    assert all(a is b for a, b in zip(after, before))
    assert tracer.restored
    with tracer:  # entering again adds to the same spans
        spectral.circle_decompose(peskin2d.circle_curve(max_mode=4))
    assert spectral.to_Y is before[0] and tracer.restored
    layers = tracing.summarize(tracer.spans)
    assert layers["spectral.circle_decompose"]["calls"] == 2
    assert layers["spectral.to_Y"]["calls"] == 2


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)),
                    tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
