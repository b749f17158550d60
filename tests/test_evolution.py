import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import peskin2d as pk
from peskin2d.evolution import _phi1, _phi2
from peskin2d.spectral import hermitize


def small_deviation_curve(x0=1e-3, max_mode=8, grid_size=32, mode=2,
                          vec=(1.0 + 0.5j, -0.3 + 0.2j)):
    c = pk.circle_curve(max_mode=max_mode, grid_size=grid_size)
    add = np.zeros_like(c.coeffs)
    add[max_mode + mode] = vec
    add = hermitize(add)
    # deviation norm of a +/-k pair with coefficient vector v is 2k|v|
    add *= x0 / (2 * mode * np.linalg.norm(np.asarray(vec)))
    return c.with_coeffs(c.coeffs + add)


def test_velocity_vanishes_on_steady_circle():
    for a_mu in (-0.5, 0.0, 0.5):
        p = pk.PhysicsParams.from_contrast(a_mu, 1.0)
        c = pk.circle_curve(max_mode=16, grid_size=64)
        f = pk.solve_force(c, p)
        u = pk.velocity_on_curve(c, f)
        assert np.max(np.abs(u)) < 1e-13


def test_velocity_translation_invariance():
    p = pk.PhysicsParams.from_contrast(0.3, 1.0)
    c0 = small_deviation_curve(1e-2)
    shift = np.zeros_like(c0.coeffs)
    shift[8] = (0.7, -1.1)
    c1 = c0.with_coeffs(c0.coeffs + shift)
    u0 = pk.velocity_on_curve(c0, pk.solve_force(c0, p))
    u1 = pk.velocity_on_curve(c1, pk.solve_force(c1, p))
    assert np.max(np.abs(u0 - u1)) < 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-0.9, 0.9), st.floats(-4.0, -1.0),
       st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-np.pi, np.pi))
def test_force_and_velocity_follow_rigid_motions(seed, a_mu, log_eps, sx, sy,
                                                  angle):
    """A translation leaves the force and the velocity samples unchanged; a
    rotation R maps them to R F and R u.  Both are compared relative to the
    force scale max |F| (up to 2 a_e/(1 - a_mu)), which sets the round-off
    of either; on 1000 random cases the worst was 2.7e-14 of it."""
    rng = np.random.default_rng(seed)
    p = pk.PhysicsParams.from_contrast(a_mu, 1.0)
    m, n = 8, 32
    c = pk.circle_curve(max_mode=m, grid_size=n).coeffs.copy()
    for k in range(2, 6):
        v = 10.0**log_eps * (rng.normal(size=2) + 1j * rng.normal(size=2)) / k
        c[m + k] += v
        c[m - k] += np.conj(v)

    def force_and_velocity(coeffs):
        curve = pk.FourierCurve(coeffs, n)
        f = pk.solve_force(curve, p)
        return f.samples, pk.velocity_on_curve(curve, f)

    f, u = force_and_velocity(c)
    scale = np.max(np.abs(f))
    shifted = c.copy()
    shifted[m] += (sx, sy)
    f_t, u_t = force_and_velocity(shifted)
    assert np.max(np.abs(f_t - f)) <= 1e-12 * scale
    assert np.max(np.abs(u_t - u)) <= 1e-12 * scale
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    f_r, u_r = force_and_velocity(c @ rot.T)
    assert np.max(np.abs(f_r - f @ rot.T)) <= 1e-10 * scale
    assert np.max(np.abs(u_r - u @ rot.T)) <= 1e-10 * scale


def dense_velocity_reference(curve, force):
    """Velocity with the regularized Stokeslet assembled as (N, N, 2, 2)
    blocks through einsum, as a reference."""
    xs = pk.synthesize(curve)
    ds = pk.synthesize(pk.derivative(curve))
    n = xs.shape[0]
    th = pk.theta_grid(n)
    diff = xs[:, None, :] - xs[None, :, :]
    chord2 = np.sum(diff**2, axis=2)
    sinfac = 2.0 * np.abs(np.sin(0.5 * (th[:, None] - th[None, :])))
    off = ~np.eye(n, dtype=bool)
    logterm = np.zeros((n, n))
    logterm[off] = -0.5 * np.log(chord2[off] / sinfac[off] ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        outer = (diff[..., :, None] * diff[..., None, :]) / chord2[..., None, None]
    blocks = logterm[..., None, None] * np.eye(2) + outer
    speed2 = np.sum(ds**2, axis=1)
    idx = np.arange(n)
    blocks[idx, idx] = (-0.5 * np.log(speed2))[:, None, None] * np.eye(2) + (
        ds[:, :, None] * ds[:, None, :]) / speed2[:, None, None]
    u_reg = np.einsum("teij,ej->ti", blocks, force.samples) / (2.0 * n)
    return u_reg + pk.log_convolve(force)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([32, 48, 64, 96, 128]),
       st.floats(1e-3, 0.2))
def test_velocity_matches_dense_reference(seed, n, eps):
    rng = np.random.default_rng(seed)
    m = n // 4
    c = pk.circle_curve(max_mode=m, grid_size=n).coeffs.copy()
    for k in range(2, 6):
        v = eps * (rng.normal(size=2) + 1j * rng.normal(size=2)) / k
        c[m + k] += v
        c[m - k] += np.conj(v)
    curve = pk.FourierCurve(c, n)
    fc = np.zeros((2 * m + 1, 2), complex)
    fc[m - 6:m + 7] = rng.normal(size=(13, 2)) + 1j * rng.normal(size=(13, 2))
    force = pk.ForceDensity.from_coeffs(hermitize(fc), n)
    ref = dense_velocity_reference(curve, force)
    u = pk.velocity_on_curve(curve, force)
    assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_phi_functions_match_series_and_exact():
    zs = np.array([-2.0, -1e-3, -1e-7, 0.0, 1e-7, 0.5])
    for z in zs:
        if z == 0.0:
            assert _phi1(z) == 1.0 and _phi2(z) == 0.5
        else:
            assert _phi1(z) == pytest.approx(np.expm1(z) / z, rel=1e-12)
            assert _phi2(z) == pytest.approx((np.expm1(z) - z) / (z * z),
                                             rel=1e-9)


def test_exponential_euler_is_exact_for_pure_linear():
    """With the nonlinearity forced to zero the stepper must reproduce
    exp(lambda t) decay to machine precision, independent of dt."""
    p = pk.PhysicsParams.from_contrast(0.5, 1.0)
    c = small_deviation_curve(1e-3, mode=3)
    cfg = pk.StepperConfig(dt=0.25, t_final=1.0)
    state = pk.SimulationState.make(0.0, c, p)
    zero = lambda curve, params: curve.with_coeffs(np.zeros_like(curve.coeffs))
    for _ in range(4):
        state = pk.step(state, cfg, nonlinearity=zero)
    dev0 = pk.circle_decompose(c)[1]
    y0 = pk.to_Y(dev0)
    yT = pk.to_Y(state.deviation)
    m = c.max_mode
    a_e = p.a_e
    for k in range(2, m + 1):
        lam = -(a_e / 2) * np.array([k + 1, k - 1])
        expect = y0.coeffs[m + k] * np.exp(lam * 1.0)
        assert np.allclose(yT.coeffs[m + k], expect, rtol=1e-12, atol=1e-18)


def test_linear_decay_rates_measured():
    """Mode-2 perturbation: the two Y channels decay at (a_e/2)(k+1)
    and (a_e/2)(k-1); fit over a short horizon."""
    p = pk.PhysicsParams.from_contrast(0.0, 1.0)
    c = small_deviation_curve(1e-5, max_mode=8, grid_size=32, mode=2)
    cfg = pk.StepperConfig(dt=1e-3, t_final=0.5, record_every=50)
    rec = pk.run(c, p, cfg)
    m = 8
    # track both Y channels of mode 2 directly
    state = rec.final_state
    y0 = pk.to_Y(pk.circle_decompose(c)[1]).coeffs[m + 2]
    yT = pk.to_Y(state.deviation).coeffs[m + 2]
    for ch, rate in ((0, 1.5), (1, 0.5)):
        measured = -np.log(abs(yT[ch]) / abs(y0[ch])) / state.t
        assert measured == pytest.approx(rate, rel=5e-3)


def test_zero_frequency_follows_forcing_exactly():
    p = pk.PhysicsParams.from_contrast(0.5, 1.0)
    c = small_deviation_curve(1e-3)
    state = pk.SimulationState.make(0.0, c, p)
    cfg = pk.StepperConfig(dt=1e-2, t_final=1.0)
    n0 = pk.rhs_nonlinear(c, p).mode(0)
    nxt = pk.step(state, cfg)
    drift = (nxt.curve.mode(0) - c.mode(0)) / cfg.dt
    assert np.allclose(drift, n0, atol=1e-14)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_conserves_area_and_radius():
    p = pk.PhysicsParams.from_contrast(0.5, 1.0)
    c = small_deviation_curve(1e-4, max_mode=8, grid_size=32)
    cfg = pk.StepperConfig(dt=1e-3, t_final=0.5, record_every=100)
    rec = pk.run(c, p, cfg)
    a0 = rec.area[0]
    assert np.max(np.abs(rec.area - a0)) < 1e-8 * a0
    # radius column tracks the constraint radius of the full curve
    assert np.max(np.abs(rec.radius - rec.radius[0])) < 1e-6


def test_run_ends_exactly_at_t_final():
    """dt = 0.003 does not divide t_final = 0.01: three whole steps, then
    one of length 0.001, recorded as the last row."""
    p = pk.PhysicsParams.from_contrast(0.5, 1.0)
    c = small_deviation_curve(1e-5)
    cfg = pk.StepperConfig(dt=0.003, t_final=0.01, record_every=2)
    rec = pk.run(c, p, cfg)
    assert rec.t == pytest.approx([0.0, 0.006, 0.01], abs=1e-15)
    assert rec.final_state.t == pytest.approx(0.01, abs=1e-15)
    state = pk.SimulationState.make(0.0, c, p)
    for _ in range(3):
        state = pk.step(state, cfg)
    state = pk.step(state, cfg, h=0.01 - 3 * 0.003)
    assert np.array_equal(rec.final_state.curve.coeffs, state.curve.coeffs)


def test_run_multiple_of_dt_takes_whole_steps_only():
    p = pk.PhysicsParams.from_contrast(0.0, 1.0)
    c = small_deviation_curve(1e-4)
    cfg = pk.StepperConfig(dt=1e-2, t_final=0.1, record_every=3)
    rec = pk.run(c, p, cfg)
    assert rec.t == pytest.approx([0.0, 0.03, 0.06, 0.09, 0.1], abs=1e-15)
    state = pk.SimulationState.make(0.0, c, p)
    for _ in range(10):
        state = pk.step(state, cfg)
    assert np.array_equal(rec.final_state.curve.coeffs, state.curve.coeffs)


def test_energy_lhs_is_the_trapezoid_balance():
    """energy_lhs is x(t) + (a_e/4) script_C times the trapezoid integral of
    the F^{2,1} norm over the recorded rows, also across a shorter last
    step; its worst excess over t > t0 is the certificate's balance margin."""
    p = pk.PhysicsParams.from_contrast(0.3, 1.0)
    c = small_deviation_curve(1e-5, mode=3)
    cfg = pk.StepperConfig(dt=1e-2, t_final=0.105, record_every=3,
                           nu_max=0.05)
    rec = pk.run(c, p, cfg)
    assert rec.t == pytest.approx([0.0, 0.03, 0.06, 0.09, 0.105], abs=1e-15)
    assert np.isfinite(rec.script_C)
    rate = 0.25 * p.a_e * rec.script_C
    cum, expect = 0.0, [rec.norm_f11[0]]
    for i in range(1, rec.t.size):
        cum += (0.5 * (rec.norm_f21[i - 1] + rec.norm_f21[i])
                * (rec.t[i] - rec.t[i - 1]))
        expect.append(rec.norm_f11[i] + rate * cum)
    assert np.allclose(rec.energy_lhs, expect, rtol=1e-14, atol=0.0)
    assert rec.energy_lhs[0] == rec.x0
    cert = pk.energy_certificate(rec, p, x0=rec.x0, nu_m=cfg.nu_max)
    assert cert.balance_margin == pytest.approx(
        np.max(rec.energy_lhs[1:]) / rec.x0 - 1.0, abs=1e-15)
    assert cert.balance_margin < 0.0


def test_stepper_config_rejects_nan_and_unknown_method():
    with pytest.raises(ValueError):
        pk.StepperConfig(dt=float("nan"), t_final=1.0)
    with pytest.raises(ValueError):
        pk.StepperConfig(dt=1e-3, t_final=float("inf"))
    for key in ("nu_max", "arc_chord_floor"):
        for value in (-1e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=">= 0 and finite"):
                pk.StepperConfig(dt=1e-3, t_final=1.0, **{key: value})


def test_simulation_state_splits_circle_lazily():
    c = small_deviation_curve(1e-3)
    state = pk.SimulationState.make(0.0, c, pk.PhysicsParams.from_contrast(0.0, 1.0))
    assert "_split" not in vars(state)
    circle, dev = pk.circle_decompose(c)
    assert state.circle == circle
    assert np.array_equal(state.deviation.coeffs, dev.coeffs)


def test_record_csv_roundtrip(tmp_path):
    p = pk.PhysicsParams.from_contrast(0.0, 1.0)
    c = small_deviation_curve(1e-4)
    cfg = pk.StepperConfig(dt=1e-2, t_final=0.1, record_every=2)
    rec = pk.run(c, p, cfg)
    path = tmp_path / "traj.csv"
    rec.to_csv(path)
    first = path.read_text().splitlines()
    assert first[0].startswith("# x0=")
    assert first[1] == pk.CSV_HEADER
    back = pk.TrajectoryRecord.from_csv(path)
    assert np.allclose(back.t, rec.t)
    assert np.allclose(back.norm_f11, rec.norm_f11)
    assert np.allclose(back.energy_lhs, rec.energy_lhs)


def test_final_state_roundtrip(tmp_path):
    p = pk.PhysicsParams.from_contrast(0.4, 2.0)
    c = small_deviation_curve(1e-3)
    state = pk.SimulationState.make(1.25, c, p)
    path = tmp_path / "final_state.txt"
    pk.write_final_state(path, state)
    t, p2, c2 = pk.read_final_state(path)
    assert t == pytest.approx(1.25)
    assert p2.a_mu == pytest.approx(0.4)
    assert p2.a_e == pytest.approx(2.0)
    assert np.allclose(c2.coeffs, c.coeffs)
    assert c2.grid_size == c.grid_size


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_degenerate_run_records_failure():
    """A curve that self-intersects should end the run gracefully with a
    failure note instead of raising."""
    p = pk.PhysicsParams.from_contrast(0.0, 1.0)
    m = 8
    coeffs = np.zeros((2 * m + 1, 2), complex)
    # nearly-pinched peanut: large mode-2 content
    coeffs[m + 1] = (0.5, -0.5j)
    coeffs[m - 1] = (0.5, 0.5j)
    coeffs[m + 2] = (0.45, -0.45j)
    coeffs[m - 2] = (0.45, 0.45j)
    c = pk.FourierCurve(coeffs, 32)
    cfg = pk.StepperConfig(dt=1e-3, t_final=0.5, record_every=10,
                           arc_chord_floor=0.5)
    rec = pk.run(c, p, cfg)
    assert rec.failure is not None
    assert rec.t.size == 0 or rec.t[-1] < 0.5


def test_near_circle_run_makes_no_grid_scan(monkeypatch):
    """The certified bound decides every recorded row of a near-circle run,
    so the O(N^2) grid scan is never called."""
    def no_scan(curve):
        raise AssertionError("arc_chord_constant called on the run path")

    monkeypatch.setattr(pk.spectral, "arc_chord_constant", no_scan)
    p = pk.PhysicsParams.from_contrast(0.5, 1.0)
    x0 = 0.5 * pk.k_threshold(0.5)["k"]
    c = small_deviation_curve(x0, max_mode=16, grid_size=64)
    cfg = pk.StepperConfig(dt=1e-3, t_final=0.2, record_every=10,
                           nu_max=0.05)
    rec = pk.run(c, p, cfg)
    assert rec.failure is None
    assert rec.t.size == 21 and rec.t[-1] == pytest.approx(0.2)
    assert np.all(rec.arc_chord > cfg.arc_chord_floor)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_inconclusive_bound_falls_back_to_the_grid_scan(monkeypatch):
    """An ellipse whose bound sits below the floor and whose grid value sits
    above it runs the scan on each recorded row and completes; the column
    still holds the bound."""
    m = 16
    coeffs = np.zeros((2 * m + 1, 2), complex)
    coeffs[m + 1] = (0.6, -0.4j)  # x = 1.2 cos, y = 0.8 sin
    coeffs[m - 1] = np.conj(coeffs[m + 1])
    c = pk.FourierCurve(coeffs, 4 * m)
    floor = 0.45
    scan = pk.spectral.arc_chord_constant
    assert scan(c) > floor > pk.geometry_diagnostics(c)["arc_chord"]
    scans = []

    def counted(curve):
        scans.append(scan(curve))
        return scans[-1]

    monkeypatch.setattr(pk.spectral, "arc_chord_constant", counted)
    cfg = pk.StepperConfig(dt=1e-3, t_final=0.02, record_every=5,
                           arc_chord_floor=floor)
    rec = pk.run(c, pk.PhysicsParams.from_contrast(0.0, 1.0), cfg)
    assert rec.failure is None and rec.t.size == 5
    assert len(scans) == rec.t.size
    assert min(scans) > floor
    assert np.all(rec.arc_chord < floor)
    # R = 1 and Z = 0.2 (cos, -sin), whose F^{1,1} norm is 0.2 sqrt2
    assert rec.arc_chord[0] == pytest.approx(2 / np.pi - 0.2 * np.sqrt(2),
                                             rel=1e-14)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_etdrk2_matches_euler_to_first_order():
    p = pk.PhysicsParams.from_contrast(0.5, 1.0)
    c = small_deviation_curve(1e-3)
    errs = []
    for dt in (2e-2, 1e-2):
        cfg1 = pk.StepperConfig(dt=dt, t_final=0.1, scheme="exponential-euler")
        cfg2 = pk.StepperConfig(dt=dt, t_final=0.1, scheme="etdrk2")
        r1 = pk.run(c, p, cfg1)
        r2 = pk.run(c, p, cfg2)
        d = np.max(np.abs(r1.final_state.curve.coeffs
                          - r2.final_state.curve.coeffs))
        errs.append(d)
    # schemes agree as dt -> 0; difference shrinks at least linearly
    assert errs[1] < 0.7 * errs[0]
    assert errs[0] < 1e-8
