"""Shared fixtures plus the acceptance-criteria summary section.

Each acceptance test records one line here; pytest prints the block at the
end of the session so a plain `pytest -v` run always shows the verdict per
criterion, pass or fail.
"""

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import peskin2d as pk
from peskin2d.spectral import hermitize

_CRITERIA = {}


def record_criterion(num, ok, detail):
    _CRITERIA[num] = (bool(ok), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        ok, detail = _CRITERIA[num]
        terminalreporter.write_line(
            "criterion %02d: %s  %s" % (num, "PASS" if ok else "FAIL", detail)
        )


def seeded_deviation(max_mode, mode_vecs, x0):
    """Deviation coefficients along given (k, 2-vector) directions, scaled so
    the F^{1,1} norm is exactly x0 (a +/-k pair contributes 2k|c|)."""
    m = max_mode
    coeffs = np.zeros((2 * m + 1, 2), complex)
    total = sum(2 * k * np.linalg.norm(np.asarray(v)) for k, v in mode_vecs)
    scale = x0 / total
    for k, v in mode_vecs:
        coeffs[m + k] += scale * np.asarray(v, complex)
    return hermitize(coeffs)


# the two "medium" interface shapes used by the certified-run fixture
DATASET_A = [(2, (1.0 + 0.5j, -0.3 + 0.2j))]
DATASET_B = [(2, (0.5 - 0.2j, 0.1 + 0.3j)), (3, (-0.4 + 0.1j, 0.2 + 0.25j))]


def run_all(jobs, workers=None):
    """pk.run(curve, params, cfg) for each job, in order: serially when
    `workers` is 1, else across a pool of that many processes (by default
    one per usable CPU, at most two).  A run depends on its arguments only,
    so both ways give bitwise the same records."""
    if workers is None:
        workers = min(2, len(os.sched_getaffinity(0)))
    if workers == 1:
        return [pk.run(*job) for job in jobs]
    with ProcessPoolExecutor(workers) as pool:
        return list(pool.map(pk.run, *zip(*jobs)))


def cert_job(a_mu, vecs, t_final):
    """(curve, params, cfg) of a certified run: the unit circle plus the
    deviation along `vecs` at half the smallness threshold of a_mu."""
    x0 = 0.5 * pk.k_threshold(a_mu)["k"]
    params = pk.PhysicsParams.from_contrast(a_mu, 1.0)
    base = pk.circle_curve(max_mode=16, grid_size=64)
    curve = base.with_coeffs(base.coeffs + seeded_deviation(16, vecs, x0))
    cfg = pk.StepperConfig(dt=1e-3, t_final=t_final, record_every=10,
                           nu_max=0.05)
    return curve, params, cfg


@pytest.fixture(scope="session")
def cert_runs():
    """Six T=10 integrations: contrast in {-0.5, 0, 0.5} x two datasets,
    each started at half the certified smallness threshold, run across at
    most two processes (`run_all`)."""
    cases = [(a_mu, name, vecs) for a_mu in (-0.5, 0.0, 0.5)
             for name, vecs in (("A", DATASET_A), ("B", DATASET_B))]
    jobs = [cert_job(a_mu, vecs, 10.0) for a_mu, _, vecs in cases]
    return [(a_mu, name, params, cfg, rec)
            for (a_mu, name, _), (_, params, cfg), rec
            in zip(cases, jobs, run_all(jobs))]
