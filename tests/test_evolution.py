import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import peskin2d as pk
from conftest import DATASET_A, DATASET_B, cert_job, run_all
from peskin2d.evolution import _apply, _l_action, _phi1, _phi2, _step_factors
from peskin2d.force import _pair_geometry, _workspace
from peskin2d.spectral import _split, _symmetric_curve, hermitize


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


def dense_stokeslet_reference(curve):
    """V assembled as (N, N, 2, 2) blocks through einsum, as a reference:
    the regularized Stokeslet plus, on the xx and yy blocks, 2N times the
    band-M circulant of the periodic log kernel, column by column from
    `log_convolve` of unit impulses."""
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
    impulses = np.repeat(np.eye(n)[:, :, None], 2, axis=2)  # (N, 2) each
    columns = [pk.log_convolve(pk.analyze(f, curve.max_mode)) for f in impulses]
    circulant = np.column_stack([c[:, 0] for c in columns])
    return blocks + 2.0 * n * circulant[..., None, None] * np.eye(2)


def dense_velocity_reference(curve, force):
    """Velocity with the single layer assembled as (N, N, 2, 2) blocks
    through einsum, as a reference."""
    blocks = dense_stokeslet_reference(curve)
    u = np.einsum("teij,ej->ti", blocks, force.samples)
    return u / (2.0 * len(blocks))


def random_force(rng, m, n):
    fc = np.zeros((2 * m + 1, 2), complex)
    fc[m - 6:m + 7] = rng.normal(size=(13, 2)) + 1j * rng.normal(size=(13, 2))
    return pk.ForceDensity.from_coeffs(hermitize(fc), n)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([32, 48, 64, 96, 128]),
       st.floats(1e-3, 0.2))
@example(seed=1, n=256, eps=0.1)
@example(seed=2, n=300, eps=0.1)
def test_velocity_matches_dense_reference(seed, n, eps):
    """The V blocks and the velocity; the draws are one row tile of the pair
    sweep, the examples several (at N 300 the last of six is partial)."""
    rng = np.random.default_rng(seed)
    m = n // 4
    c = pk.circle_curve(max_mode=m, grid_size=n).coeffs.copy()
    for k in range(2, 6):
        v = eps * (rng.normal(size=2) + 1j * rng.normal(size=2)) / k
        c[m + k] += v
        c[m - k] += np.conj(v)
    curve = pk.FourierCurve(c, n)
    force = random_force(rng, m, n)
    vxx, vxy, vyy = _pair_geometry(curve, with_s=False).v
    v = np.stack([np.stack([vxx, vxy], -1), np.stack([vxy, vyy], -1)], -2)
    v_ref = dense_stokeslet_reference(curve)
    assert np.max(np.abs(v - v_ref)) <= 1e-12 * np.max(np.abs(v_ref))
    ref = dense_velocity_reference(curve, force)
    u = pk.velocity_on_curve(curve, force)
    assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_velocity_rejects_a_force_on_another_grid():
    """V carries the curve's band and grid, so a force of another grid, or
    of another band on the same grid, is refused, also as an injected
    right-hand-side force."""
    curve = pk.circle_curve(max_mode=8, grid_size=32)
    p = pk.PhysicsParams.from_contrast(0.5, 1.0)
    rng = np.random.default_rng(0)
    for force, word in ((random_force(rng, 8, 48), "grid"),
                        (random_force(rng, 12, 32), "band")):
        with pytest.raises(ValueError, match=word):
            pk.velocity_on_curve(curve, force)
        with pytest.raises(ValueError, match=word):
            pk.rhs_nonlinear(curve, p, force=force)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True),
       st.floats(0.5, 2.0, exclude_min=True, exclude_max=True),
       st.floats(0.52, 0.98), st.integers(2, 6))
def test_runs_below_the_threshold_meet_the_energy_certificate(seed, a_mu, a_e,
                                                              frac, kmax):
    """The theorem as a property: a random circle plus a deviation on modes
    2..kmax and the decaying (I + J)/2 component of mode 1, scaled to
    x0 = frac k(a_mu), meets the balance and decay certificate under both
    schemes."""
    rng = np.random.default_rng(seed)
    m, n = 16, 64
    phase = rng.uniform(-np.pi, np.pi)
    circle = pk.circle_curve(np.cos(phase), np.sin(phase),
                             *rng.uniform(-1.0, 1.0, size=2), m, n)
    dev = np.zeros((2 * m + 1, 2), complex)
    dev[m + 2:m + kmax + 1] = rng.normal(size=(kmax - 1, 2, 2)) @ [1, 1j]
    w = rng.normal(size=(2, 2)) @ [1, 1j]
    dev[m + 1] = 0.5 * (w + [-1j * w[1], 1j * w[0]])
    dev = hermitize(dev)
    dev *= frac * pk.k_threshold(a_mu)["k"] / pk.fnorm(pk.FourierCurve(dev, n))
    curve = circle.with_coeffs(circle.coeffs + dev)
    p = pk.PhysicsParams.from_contrast(a_mu, a_e)
    for scheme in ("exponential-euler", "etdrk2"):
        cfg = pk.StepperConfig(dt=1e-3, t_final=0.2, scheme=scheme,
                               record_every=10)
        rec = pk.run(curve, p, cfg)
        cert = pk.energy_certificate(rec, p, x0=rec.x0, nu_m=cfg.nu_max)
        assert rec.failure is None and cert.ok, (
            "%s: balance margin %+.3e, decay margin %+.3e, failure %s"
            % (scheme, cert.balance_margin, cert.decay_margin, rec.failure))


def test_phi_functions_match_series_and_exact():
    zs = np.array([-2.0, -1e-3, -1e-7, 0.0, 1e-7, 0.5])
    for z in zs:
        if z == 0.0:
            assert _phi1(z) == 1.0 and _phi2(z) == 0.5
        else:
            assert _phi1(z) == pytest.approx(np.expm1(z) / z, rel=1e-12)
            assert _phi2(z) == pytest.approx((np.expm1(z) - z) / (z * z),
                                             rel=1e-9)


@pytest.mark.parametrize("scheme", ["exponential-euler", "etdrk2"])
@pytest.mark.parametrize("h", [None, 0.01 - 3 * 0.003], ids=["dt", "rest"])
def test_step_matches_the_y_frame_formula(scheme, h):
    """The step advances X-frame coefficients through closed-form factors;
    it agrees with the schemes written out in the Y frame, mode by mode,

        y1 = e^{h lam} y + h phi1(h lam) ny  (+ h phi2(h lam) (ny_mid - ny)),

    for a whole step (dt = 0.003) and for the partial last step of
    t_final = 0.01."""
    p = pk.PhysicsParams.from_contrast(-0.5, 1.3)
    c = small_deviation_curve(2e-2, max_mode=8, grid_size=32, mode=3)
    cfg = pk.StepperConfig(dt=0.003, t_final=0.01, scheme=scheme)
    hh = cfg.dt if h is None else h
    absk = np.abs(c.ks)[:, None].astype(float)
    z = np.where(absk == 0, 0.0,
                 -0.5 * p.a_e * hh * np.hstack([absk + 1.0, absk - 1.0]))
    zs = np.where(z == 0.0, 1.0, z)
    phi1 = np.where(z == 0.0, 1.0, np.expm1(z) / zs)
    phi2 = np.where(z == 0.0, 0.5, (np.expm1(z) - z) / zs**2)

    def ny(curve):
        return pk.to_Y(pk.rhs_nonlinear(curve, p)).coeffs

    y, n0 = pk.to_Y(c).coeffs, ny(c)
    y1 = np.exp(z) * y + hh * phi1 * n0
    if scheme == "etdrk2":
        mid = pk.from_Y(c.with_coeffs(y1))
        y1 = y1 + hh * phi2 * (ny(mid) - n0)
    expect = pk.from_Y(c.with_coeffs(y1)).coeffs
    got = pk.step(pk.SimulationState.make(0.0, c, p), cfg, h=h).curve.coeffs
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(c.coeffs))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(0.1, 3.0),
       st.floats(1e-9, 0.5), st.floats(-3.0, 3.0))
def test_step_factors_match_the_frame_change(seed, m, a_e, h, log_scale):
    """lo c + gap (c + J c) equals P diag(d) P^{-1} c through to_Y / from_Y
    for d = e^{h lam}, h phi1(h lam), h phi2(h lam), and L c equals
    P diag(|k| + 1, |k| - 1) P^{-1} c (zero at k = 0).  A step keeps a
    conjugate-symmetric curve exactly symmetric (+0.0 and -0.0 taken as one
    value), and each operator is exactly d0 = 1, h, h/2 on the mean and on
    a circle."""
    rng = np.random.default_rng(seed)
    n = 2 * m + 1
    ks = np.arange(-m, m + 1)
    c = 10.0**log_scale * hermitize(rng.normal(size=(n, 2, 2)) @ [1, 1j])
    absk = np.abs(ks)[:, None].astype(float)
    rates = np.where(absk == 0, 0.0, np.hstack([absk + 1.0, absk - 1.0]))

    def by_frame(diag, coeffs):
        y = pk.to_Y(_symmetric_curve(coeffs, n)).coeffs
        return pk.from_Y(_symmetric_curve(diag * y, n)).coeffs

    scale = np.max(np.abs(c))
    hl = h * (-0.5 * a_e * rates)
    circle = pk.circle_curve(*rng.normal(size=4), max_mode=m).coeffs
    factors = _step_factors(m, a_e, h)
    for f, d, d0 in zip(factors, (np.exp(hl), h * _phi1(hl), h * _phi2(hl)),
                        (1.0, h, 0.5 * h)):
        assert f[0].shape == f[1].shape == (n, 1)
        assert not (f[0].flags.writeable or f[1].flags.writeable)
        assert np.max(np.abs(_apply(f, c) - by_frame(d, c))) <= (
            1e-15 * d0 * scale)
        assert np.array_equal(_apply(f, circle), d0 * circle)
    assert np.max(np.abs(_l_action(c, ks) - by_frame(rates, c))) <= (
        1e-15 * m * scale)

    nx = hermitize(rng.normal(size=(n, 2, 2)) @ [1, 1j])
    cfg = pk.StepperConfig(dt=h, t_final=1.0, scheme="etdrk2")
    p = pk.PhysicsParams.from_contrast(0.0, a_e)
    state = pk.SimulationState.make(0.0, _symmetric_curve(c, 4 * m), p)
    out = pk.step(state, cfg, nonlinearity=lambda curve, p: curve.with_coeffs(
        nx + 1e-3 * curve.coeffs)).curve.coeffs
    assert (out[::-1] + 0.0).tobytes() == (np.conj(out) + 0.0).tobytes()


@pytest.mark.parametrize("m, a_e, h", [(1, 1.0, 1e-3), (16, 1.0, 1e-3),
                                       (7, 2.7, 0.3), (33, 0.1, 1e-9)])
def test_step_operators_are_exactly_conjugate_symmetric(m, a_e, h):
    """The 2x2 operator that `_apply` makes of each closed-form factor pair
    at -k is the conjugate of the one at k bit for bit (+0.0 and -0.0 taken
    as one value), so the X-frame step keeps curves conjugate-symmetric
    without a projection; on the mean the operators are exactly 1, h and
    h/2 times the identity."""
    n = 2 * m + 1
    for f, d0 in zip(_step_factors(m, a_e, h), (1.0, h, 0.5 * h)):
        assert f[0].shape == f[1].shape == (n, 1)
        assert not (f[0].flags.writeable or f[1].flags.writeable)
        op = np.stack([_apply(f, np.tile(e, (n, 1)).astype(complex))
                       for e in np.eye(2)], axis=-1)
        assert (op[::-1] + 0.0).tobytes() == (np.conj(op) + 0.0).tobytes()
        assert np.array_equal(op[m], d0 * np.eye(2))


def test_run_splits_the_circle_once_per_recorded_row(monkeypatch):
    """A recorded row reads the state's one X-frame circle split."""
    calls = []

    def counted(curve):
        calls.append(curve)
        return _split(curve)

    monkeypatch.setattr(pk.evolution, "_split", counted)
    p = pk.PhysicsParams.from_contrast(0.5, 1.0)
    cfg = pk.StepperConfig(dt=1e-3, t_final=0.02, record_every=5)
    rec = pk.run(small_deviation_curve(1e-5), p, cfg)
    assert rec.t.size == 5 and len(calls) == 5


@pytest.mark.parametrize("scheme", ["exponential-euler", "etdrk2"])
def test_run_makes_no_frame_change(monkeypatch, scheme):
    """Steps, rows and the threshold work in the X frame: a run completes
    with to_Y and from_Y made to raise."""
    def no_frame(curve):
        raise AssertionError("frame change on the run path")

    for module, name in ((pk.spectral, "to_Y"), (pk.spectral, "from_Y"),
                         (pk.evolution, "to_Y")):
        monkeypatch.setattr(module, name, no_frame)
    p = pk.PhysicsParams.from_contrast(-0.5, 1.0)
    cfg = pk.StepperConfig(dt=1e-3, t_final=0.01, scheme=scheme,
                           record_every=5)
    rec = pk.run(small_deviation_curve(1e-5), p, cfg)
    assert rec.failure is None and rec.t.size == 3


@pytest.mark.parametrize("scheme", ["exponential-euler", "etdrk2"])
def test_run_reads_only_force_samples(monkeypatch, scheme):
    """The velocity is one block apply of the force samples: a run calls
    log_convolve at most once, to build V's weight for a new band and grid,
    none once that table is warm, and it analyzes no force."""
    calls = []
    log_convolve, from_samples = pk.log_convolve, pk.ForceDensity.from_samples

    def counted_log_convolve(f):
        calls.append("log_convolve")
        return log_convolve(f)

    def counted_from_samples(cls, *args, **kwargs):
        calls.append("from_samples")
        return from_samples(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "peskin2d" or name.startswith("peskin2d."):
            for attr, value in list(vars(module).items()):
                if value is log_convolve:
                    monkeypatch.setattr(module, attr, counted_log_convolve)
    monkeypatch.setattr(pk.ForceDensity, "from_samples",
                        classmethod(counted_from_samples))
    _workspace.cache_clear()
    p = pk.PhysicsParams.from_contrast(-0.5, 1.0)
    cfg = pk.StepperConfig(dt=1e-3, t_final=0.01, scheme=scheme,
                           record_every=5)
    counts = []
    for _ in range(2):  # a cold table, then a warm one
        calls.clear()
        rec = pk.run(small_deviation_curve(1e-5), p, cfg)
        assert rec.failure is None and rec.t.size == 3
        counts.append((calls.count("log_convolve"),
                       calls.count("from_samples")))
    assert counts[0][0] <= 1 and counts[1][0] == 0
    assert counts[0][1] == counts[1][1] == 0


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


def test_run_reaches_a_t_final_far_below_dt():
    """A t_final below 1e-9 dt is one partial step, not zero steps: the run
    records t = 0 and t = t_final."""
    p = pk.PhysicsParams.from_contrast(0.3, 1.0)
    c = small_deviation_curve(1e-4)
    cfg = pk.StepperConfig(dt=1e-3, t_final=1e-12)
    rec = pk.run(c, p, cfg)
    assert rec.t.tolist() == [0.0, 1e-12]
    assert rec.final_state.t == 1e-12
    state = pk.step(pk.SimulationState.make(0.0, c, p), cfg, h=1e-12)
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
    """The state's split is the X-frame `_split`, made on first read; it
    agrees with the Y-frame reference circle_decompose to round-off."""
    c = small_deviation_curve(1e-3)
    state = pk.SimulationState.make(0.0, c, pk.PhysicsParams.from_contrast(0.0, 1.0))
    assert "_split" not in vars(state)
    circle, dev = _split(c)
    assert state.circle == circle
    assert np.array_equal(state.deviation.coeffs, dev.coeffs)
    assert "_split" in vars(state)
    ref_circle, ref_dev = pk.circle_decompose(c)
    assert np.allclose([circle.a, circle.b, circle.c, circle.d],
                       [ref_circle.a, ref_circle.b, ref_circle.c, ref_circle.d],
                       rtol=0.0, atol=1e-15)
    assert np.max(np.abs(dev.coeffs - ref_dev.coeffs)) <= 1e-15


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
    assert (back.x0, back.script_C) == (rec.x0, rec.script_C)
    assert np.isfinite(back.script_C) and back.failure is None


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
    above it runs the scan on each recorded row and on each right-hand
    side, and completes; the column still holds the bound."""
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
    assert len(scans) == 25  # 5 rows + 20 exponential-Euler steps
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


@pytest.mark.filterwarnings("ignore:initial deviation norm",
                            "ignore:constants chain out of regime")
def test_schemes_reach_their_order_on_the_nonlinear_problem():
    """Exponential Euler is first order and ETDRK2 second order on the full
    nonlinear problem: a deviation of 0.03/k^2 on modes 2..6 at M 16 / N 64,
    a_mu -0.5, run to T 0.2 at dt 0.02, 0.01 and 0.005 and measured against
    ETDRK2 at dt 0.005/8.  The data lies above the certified threshold, so
    the out-of-regime warnings are expected.  Measured orders: 1.010 and
    1.005 for Euler, 2.004 and 2.017 for ETDRK2."""
    m, n = 16, 64
    base = pk.circle_curve(max_mode=m, grid_size=n)
    dev = np.zeros_like(base.coeffs)
    for k in range(2, 7):
        dev[m + k] = (0.03 / k**2) * np.array([1.0, 1j])
    curve = base.with_coeffs(base.coeffs + hermitize(dev))
    p = pk.PhysicsParams.from_contrast(-0.5, 1.0)

    def final(scheme, dt):
        cfg = pk.StepperConfig(dt=dt, t_final=0.2, scheme=scheme,
                               record_every=1000)
        return pk.run(curve, p, cfg).final_state.curve.coeffs

    ref = final("etdrk2", 0.005 / 8)
    for scheme, order in (("exponential-euler", 1.0), ("etdrk2", 2.0)):
        errs = [np.max(np.abs(final(scheme, dt) - ref))
                for dt in (0.02, 0.01, 0.005)]
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all(np.abs(orders - order) < 0.1), (scheme, orders)


def test_pooled_certified_runs_equal_serial_ones():
    """The `cert_runs` fixture runs across processes: a short certified run
    gives bitwise the same columns and final coefficients either way."""
    jobs = [cert_job(-0.5, DATASET_A, 0.05), cert_job(0.5, DATASET_B, 0.05)]
    for serial, pooled in zip(run_all(jobs, workers=1),
                              run_all(jobs, workers=2)):
        for name in pk.evolution.CSV_HEADER.split(","):
            assert np.array_equal(getattr(serial, name), getattr(pooled, name))
        assert np.array_equal(serial.final_state.curve.coeffs,
                              pooled.final_state.curve.coeffs)


def test_warm_step_allocates_no_pair_table():
    """The (N, N) tables of the force and velocity quadratures live in one
    reused workspace per grid size, so after a warm-up step an ETDRK2 step
    at M 64 / N 256 allocates less than one such table (8 N^2 bytes)."""
    n = 256
    p = pk.PhysicsParams.from_contrast(-0.5, 1.0)
    c = small_deviation_curve(1e-3, max_mode=64, grid_size=n)
    cfg = pk.StepperConfig(dt=1e-3, t_final=1.0, scheme="etdrk2")
    state = pk.step(pk.SimulationState.make(0.0, c, p), cfg)
    tracemalloc.start()
    try:
        pk.step(state, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n
