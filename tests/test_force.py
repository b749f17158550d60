import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import peskin2d as pk
from peskin2d.force import (_apply_blocks, _dense_system, _pair_geometry,
                            _workspace)
from peskin2d.spectral import hermitize


def apply_s(curve, force):
    """S(F, X) on the grid: the Nystrom matrix applied to the (N, 2) samples
    of F."""
    return (pk.s_operator_matrix(curve) @ force.reshape(-1)).reshape(-1, 2)


def direct_solve(curve, params):
    """The reference force: the dense LU of (I - 2 a_mu S) F = 2 a_e X'' on
    the S tables of one sweep, as (N, 2) samples."""
    dds, s, _ = _pair_geometry(curve, with_s=True)
    b = (2.0 * params.a_e * dds).reshape(-1)
    return np.linalg.solve(_dense_system(s, params.a_mu), b).reshape(-1, 2)


def perturbed_circle(eps, seed=3, max_mode=16, grid_size=64, kmax=5):
    rng = np.random.default_rng(seed)
    c = pk.circle_curve(max_mode=max_mode, grid_size=grid_size)
    add = np.zeros_like(c.coeffs)
    m = max_mode
    for k in range(2, kmax + 1):
        add[m + k] = rng.normal(size=2) + 1j * rng.normal(size=2)
    pert = hermitize(add)
    pert *= eps / pk.fnorm(pk.FourierCurve(pert, grid_size), s=1.0)
    return c.with_coeffs(c.coeffs + pert)


# ------------------------------------------------------------------- params


def test_params_validation():
    with pytest.raises(ValueError):
        pk.PhysicsParams(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        pk.PhysicsParams(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        pk.PhysicsParams.from_contrast(1.0, 1.0)
    for bad in ((np.inf, 1.0, 1.0), (np.nan, 1.0, 1.0), (1.0, np.inf, 1.0),
                (1.0, 1.0, np.inf), (1.0, 1.0, np.nan)):
        with pytest.raises(ValueError):
            pk.PhysicsParams(*bad)
    for a_e in (np.inf, np.nan):
        with pytest.raises(ValueError):
            pk.PhysicsParams.from_contrast(0.2, a_e)
    # positive, finite values whose a_mu is +-1 or a_e 0 in floats used to
    # construct, and the constants chain raised inside run
    for mu1, mu2 in ((1e300, 1e-300), (1e-300, 1e300), (1.0, 1e-17)):
        with pytest.raises(ValueError, match=r"^a_mu of the viscosities must "
                                             r"be in \(-1, 1\), got -?1\.0$"):
            pk.PhysicsParams(mu1, mu2, 1.0)
    with pytest.raises(ValueError, match=r"^a_e of k0 / \(mu1 \+ mu2\) must "
                       r"be positive and finite, got 0\.0$"):
        pk.PhysicsParams(1e300, 1e300, 1e-300)
    p = pk.PhysicsParams(1.0, 3.0, 2.0)
    assert p.a_mu == pytest.approx(0.5)
    assert p.a_e == pytest.approx(0.5)


def test_from_contrast_roundtrip():
    for a_mu in (-0.9, -0.5, 0.0, 0.3, 0.95):
        p = pk.PhysicsParams.from_contrast(a_mu, 2.5)
        assert p.a_mu == pytest.approx(a_mu)
        assert p.a_e == pytest.approx(2.5)
        assert p.mu1 + p.mu2 == pytest.approx(1.0)


# ------------------------------------------------------------ elastic force


def test_elastic_force_is_minus_k_squared():
    c = perturbed_circle(0.1)
    f = pk.elastic_force(c, pk.PhysicsParams.from_contrast(0.0, 1.0))  # k0 1
    ks = c.ks
    assert np.array_equal(pk.derivative(c).coeffs, 1j * ks[:, None] * c.coeffs)
    assert np.allclose(pk.analyze(f, c.max_mode).coeffs,
                       -(ks[:, None] ** 2) * c.coeffs)


def test_elastic_force_scales_with_k0():
    p = pk.PhysicsParams.from_contrast(0.0, 3.0)
    c = pk.circle_curve(max_mode=4, grid_size=16)
    f = pk.elastic_force(c, p)
    # circle: X'' = -e_r, scaled by k0 = a_e (mu1 + mu2) = 3
    th = pk.theta_grid(16)
    er = np.stack([np.cos(th), np.sin(th)], axis=-1)
    assert np.allclose(f, -3.0 * er, atol=1e-13)


# ------------------------------------------------------------- S on circles


def test_s_operator_circle_eigenfunctions():
    """Radial fields are fixed up to +1/2, tangential up to -1/2."""
    c = pk.circle_curve(max_mode=8, grid_size=48)
    th = pk.theta_grid(48)
    er = np.stack([np.cos(th), np.sin(th)], axis=-1)
    et = np.stack([-np.sin(th), np.cos(th)], axis=-1)
    assert np.allclose(apply_s(c, er), 0.5 * er, atol=1e-13)
    assert np.allclose(apply_s(c, et), -0.5 * et, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.2, 5.0), st.floats(-np.pi, np.pi), st.floats(-3.0, 3.0),
       st.floats(-3.0, 3.0), st.sampled_from([16, 32, 64]),
       st.integers(0, 2**32 - 1))
def test_s_operator_on_circles_has_rank_four(radius, phase, cx, cy, n, seed):
    """-1/2 on the constants and e_t, +1/2 on e_r, zero on the rest."""
    c = pk.circle_curve(radius * np.cos(phase), radius * np.sin(phase), cx, cy,
                        max_mode=n // 4, grid_size=n)
    mat = pk.s_operator_matrix(c)
    th = pk.theta_grid(n) + phase
    er = np.stack([np.cos(th), np.sin(th)], axis=1).reshape(-1)
    et = np.stack([-np.sin(th), np.cos(th)], axis=1).reshape(-1)
    ex = np.tile([1.0, 0.0], n)
    ey = np.tile([0.0, 1.0], n)
    for field, value in ((ex, -0.5), (ey, -0.5), (et, -0.5), (er, 0.5)):
        assert np.max(np.abs(mat @ field - value * field)) <= 1e-12
    # the four fields are orthogonal on the grid, each with squared norm N
    w = np.random.default_rng(seed).normal(size=2 * n)
    for field in (ex, ey, et, er):
        w -= (field @ w / n) * field
    assert np.max(np.abs(mat @ w)) <= 1e-12 * np.max(np.abs(w))


def test_s_operator_translation_invariance():
    c = pk.circle_curve(c=1.3, d=-0.7, max_mode=8, grid_size=48)
    th = pk.theta_grid(48)
    er = np.stack([np.cos(th), np.sin(th)], axis=-1)
    assert np.allclose(apply_s(c, er), 0.5 * er, atol=1e-13)


def test_s_operator_degenerate_curve():
    # a figure-eight-ish curve self-intersects: mode 2 dominating mode 1
    m = 4
    coeffs = np.zeros((2 * m + 1, 2), complex)
    coeffs[m + 2] = (0.5, -0.5j)
    coeffs[m - 2] = (0.5, 0.5j)
    c = pk.FourierCurve(coeffs, 32)
    with pytest.raises(pk.CurveDegenerateError):
        pk.s_operator_matrix(c)


def dense_s_reference(curve):
    """S assembled as (N, N, 2, 2) blocks through einsum, as a reference."""
    xp = pk.derivative(curve)
    xs, ds = pk.synthesize(curve), pk.synthesize(xp)
    dds = pk.synthesize(pk.derivative(xp))
    perp = np.stack([-ds[:, 1], ds[:, 0]], axis=1)
    n = xs.shape[0]
    diff = xs[:, None, :] - xs[None, :, :]
    chord = np.sqrt(np.sum(diff**2, axis=2))
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.einsum("tej,tj->te", diff, perp) / (np.pi * chord**4)
        blocks = scale[..., None, None] * (diff[..., :, None] * diff[..., None, :])
    speed2 = np.sum(ds**2, axis=1)
    dscale = -np.einsum("tj,tj->t", dds, perp) / (2.0 * np.pi * speed2**2)
    idx = np.arange(n)
    blocks[idx, idx] = dscale[:, None, None] * (ds[:, :, None] * ds[:, None, :])
    return (2.0 * np.pi / n) * blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([32, 48, 64, 96, 128]),
       st.floats(1e-3, 0.2))
@example(seed=1, n=256, eps=0.1)
@example(seed=2, n=300, eps=0.1)
def test_s_operator_matches_dense_reference(seed, n, eps):
    """The draws are one row tile of the pair sweep; the examples take
    several (four full ones at N 256; at N 300 the last of six is partial)."""
    c = perturbed_circle(eps, seed=seed, max_mode=n // 4, grid_size=n)
    ref = dense_s_reference(c)
    mat = pk.s_operator_matrix(c)
    assert np.max(np.abs(mat - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([32, 48, 64, 96, 128]),
       st.floats(1e-3, 0.2))
def test_blocked_s_apply_matches_dense_reference(seed, n, eps):
    """The three table reads of the solver's apply, on the sweep's (g, c, e)
    form of S, equal the dense matrix times the interleaved field."""
    c = perturbed_circle(eps, seed=seed, max_mode=n // 4, grid_size=n)
    f = np.random.default_rng(seed).normal(size=2 * n)
    ref = dense_s_reference(c) @ f
    out = _apply_blocks(_pair_geometry(c, with_s=True)[1], f)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@settings(max_examples=20, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-6.0, 0.0),
       st.integers(0, 2**32 - 1))
@example(cx=1e6, cy=-1e6, log_r=-6.0, seed=0)
def test_rank2_differences_are_bitwise_subtractions(cx, cy, log_r, seed):
    """The sweep takes dX from the rank-2 products [x_t, 1][1; -x_e]: both
    terms are exact and round once, so each is bitwise x_t - x_e, on every
    row tile of N 300 (the last of six partial), for centres up to 1e6 and
    radii down to 1e-6."""
    n, m, r = 300, 75, 10.0 ** log_r
    coeffs = pk.circle_curve(a=r, c=cx, d=cy, max_mode=m,
                             grid_size=n).coeffs.copy()
    rng = np.random.default_rng(seed)
    for k in range(2, 6):
        v = 0.02 * r * (rng.normal(size=2) + 1j * rng.normal(size=2)) / k
        coeffs[m + k] += v
        coeffs[m - k] += np.conj(v)
    _pair_geometry(pk.FourierCurve(coeffs, n), 0.0, with_v=True)
    ws = _workspace(m, n)
    xs = ws.lhs[:, :, 0]
    assert np.all(ws.lhs[:, :, 1] == 1.0) and np.all(ws.rhs[:, 0] == 1.0)
    assert np.array_equal(ws.rhs[:, 1], -xs)
    rows = ws.tile.shape[1]
    out = np.empty((2, rows, n))
    for t0 in range(0, n, rows):  # the sweep's call, x and y in one
        d = out[:, :min(rows, n - t0)]
        np.matmul(ws.lhs[:, t0:t0 + rows], ws.rhs, out=d)
        assert np.array_equal(d, xs[:, t0:t0 + rows, None] - xs[:, None, :])


@pytest.mark.parametrize("n", [64, 300])
def test_combined_sweep_writes_the_tables_of_single_sweeps(n):
    """An S + V sweep writes S tables equal to those of an S-only sweep and
    V tables equal to those of a V-only sweep, on one row tile (N 64) and on
    six (N 300, the last partial).  The tile's dX diagonal holds X' while
    V's smooth limits are read from it, and -X''/2 only once S's weight
    reads it; a sweep that rewrote it too early would give V another
    diagonal."""
    c = perturbed_circle(0.1, seed=3, max_mode=n // 4, grid_size=n)
    _, s, v = _pair_geometry(c, with_s=True, with_v=True)
    both = [t.copy() for t in s + v]
    alone = (_pair_geometry(c, with_s=True)[1]
             + _pair_geometry(c, with_v=True)[2])
    for table, single in zip(both, alone):
        assert np.array_equal(table, single)


@pytest.mark.parametrize("a_mu, method", [(-0.5, "richardson"), (0.5, "direct"),
                                          (0.0, "richardson")])
def test_results_do_not_alias_the_workspace(monkeypatch, a_mu, method):
    """The S and V tables of a grid size are reused from call to call, but
    the force (of the Richardson iteration, or of its dense LU fallback
    when `method` is "direct"), the velocity and the matrix of
    `s_operator_matrix` are arrays of their own: the same calls on a second
    curve of the grid leave them unchanged.  The sweep's S tables are
    read-only, and a sweep writes only the tables its caller reads: one for
    a velocity (standalone, or a right-hand side at a_mu = 0) leaves
    earlier S views unchanged, a standalone force solve or S leaves V
    unchanged, and a force solve at a_mu = 0 makes no sweep and builds no
    workspace."""
    if method == "direct":
        monkeypatch.setattr(pk.force, "_richardson", lambda *args: None)
    p = pk.PhysicsParams.from_contrast(a_mu, 1.0)
    c1, c2 = perturbed_circle(0.05, seed=1), perturbed_circle(0.1, seed=2)
    f1 = pk.solve_force(c1, p)
    u1 = pk.velocity_on_curve(c1, f1)
    kept = [a.copy() for a in (f1, u1)]
    f2 = pk.solve_force(c2, p)
    pk.velocity_on_curve(c2, f2)
    for now, before in zip((f1, u1), kept):
        assert np.array_equal(now, before)
    ws = _workspace(c1.max_mode, c1.grid_size)
    mat = pk.s_operator_matrix(c1)
    assert not any(np.shares_memory(mat, t) for t in (ws.s, ws.v))
    tables = _pair_geometry(c1, with_s=True)[1]
    kept = [t.copy() for t in tables]
    pk.velocity_on_curve(c2, f2)
    pk.rhs_nonlinear(c2, pk.PhysicsParams.from_contrast(0.0, 1.0))
    for table, before in zip(tables, kept):
        assert np.array_equal(table, before)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
    pk.velocity_on_curve(c1, f1)
    kept = ws.v.copy()
    pk.solve_force(c2, p)
    pk.s_operator_matrix(c2)
    assert np.array_equal(ws.v, kept)
    if a_mu == 0.0:
        _workspace.cache_clear()
        f0 = pk.solve_force(c2, p)
        assert _workspace.cache_info().currsize == 0
        el = pk.elastic_force(c2, p)
        assert np.array_equal(f0, 2.0 * el)


def test_rhs_nonlinear_guards_figure_eight():
    """The one guard covers a_mu = 0 too, where S is never assembled, and
    direct force solves as well as right-hand sides."""
    m = 4
    coeffs = np.zeros((2 * m + 1, 2), complex)
    coeffs[m + 2] = (0.5, -0.5j)
    coeffs[m - 2] = (0.5, 0.5j)
    c = pk.FourierCurve(coeffs, 32)
    for a_mu in (0.0, 0.5):
        p = pk.PhysicsParams.from_contrast(a_mu, 1.0)
        with pytest.raises(pk.CurveDegenerateError):
            pk.rhs_nonlinear(c, p)
        with pytest.raises(pk.CurveDegenerateError):
            pk.solve_force(c, p)


# -------------------------------------------------------------- force solve


def test_solve_force_steady_circle():
    for a_mu in (-0.5, 0.0, 0.5):
        p = pk.PhysicsParams.from_contrast(a_mu, 1.0)
        c = pk.circle_curve(max_mode=16, grid_size=64)
        f = pk.solve_force(c, p)
        th = pk.theta_grid(64)
        er = np.stack([np.cos(th), np.sin(th)], axis=-1)
        expect = -(2 * p.a_e / (1 - p.a_mu)) * er
        assert np.max(np.abs(f - expect)) < 1e-12


def test_solve_force_methods_agree():
    p = pk.PhysicsParams.from_contrast(0.4, 1.0)
    c = perturbed_circle(0.05)
    fd = direct_solve(c, p)
    fp = pk.solve_force(c, p)
    assert np.max(np.abs(fd - fp)) < 1e-10


class _CountLU:
    """Counts the dense factorizations behind np.linalg.solve."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self._solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", self)

    def __call__(self, *args):
        self.calls += 1
        return self._solve(*args)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-0.95, 0.95),
       st.floats(-6.0, 0.0), st.sampled_from([32, 64, 128]))
def test_default_solve_matches_direct(seed, a_mu, log_eps, n):
    p = pk.PhysicsParams.from_contrast(a_mu, 1.0)
    c = perturbed_circle(10.0**log_eps, seed=seed, max_mode=n // 4,
                         grid_size=n)
    try:
        fd = direct_solve(c, p)
    except pk.CurveDegenerateError:
        reject()
    f = pk.solve_force(c, p)
    assert np.max(np.abs(f - fd)) <= 1e-12 * np.max(np.abs(fd))


@pytest.mark.parametrize("a_mu, eps, factorizations",
                         [(-0.5, 1e-4, 0), (0.5, 1e-2, 0), (0.95, 0.8, 1)])
def test_default_solve_falls_back_to_lu(monkeypatch, a_mu, eps, factorizations):
    """Near a circle the iteration needs no factorization; at a_mu = 0.95
    and a deviation of 0.8 it diverges and the dense LU takes over."""
    p = pk.PhysicsParams.from_contrast(a_mu, 1.0)
    c = perturbed_circle(eps)
    fd = direct_solve(c, p)
    lu = _CountLU(monkeypatch)
    f = pk.solve_force(c, p)
    assert lu.calls == factorizations
    assert np.max(np.abs(f - fd)) <= 1e-12 * np.max(np.abs(fd))


def clockwise_unit_circle(m=8, n=32):
    """X = (cos t, -sin t): c_1 = (1/2, i/2), so a + ib = c_1[0] + i c_1[1]
    is 0 and the circle part has radius 0."""
    c = np.zeros((2 * m + 1, 2), complex)
    c[m + 1] = (0.5, 0.5j)
    c[m - 1] = np.conj(c[m + 1])
    return pk.FourierCurve(c, n)


def test_zero_radius_circle_part_goes_straight_to_lu(monkeypatch):
    """With no circle to precondition on, the solve skips the iteration and
    makes one factorization, bitwise that of the dense reference."""
    curve = clockwise_unit_circle()
    p = pk.PhysicsParams.from_contrast(0.5, 1.0)
    assert pk.spectral.circle_part(curve).radius == 0.0
    fd = direct_solve(curve, p)
    lu = _CountLU(monkeypatch)
    f = pk.solve_force(curve, p)
    assert lu.calls == 1
    assert np.array_equal(f, fd)


def test_a_residual_above_tolerance_raises_solver_error(monkeypatch):
    curve = clockwise_unit_circle()
    p = pk.PhysicsParams.from_contrast(0.5, 1.0)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.zeros_like(b))
    with pytest.raises(pk.SolverError,
                       match=r"force system residual \S+ \(condition number "):
        pk.solve_force(curve, p)


def test_run_with_direct_and_default_force_agree(monkeypatch):
    p = pk.PhysicsParams.from_contrast(-0.5, 1.0)
    c = perturbed_circle(5e-5, max_mode=8, grid_size=32)  # below k(-0.5)
    cfg = pk.StepperConfig(dt=1e-2, t_final=0.2, scheme="etdrk2")

    def direct(curve, params, arc_chord_floor):
        """The right-hand side u + (a_e/2)(|k| c + J c) of the dense
        reference force, with J(k) = [[0, -i sgn k], [i sgn k, 0]]."""
        f = direct_solve(curve, params)
        u = pk.analyze(pk.velocity_on_curve(curve, f), curve.max_mode)
        c, ks = curve.coeffs, curve.ks
        jc = 1j * np.sign(ks)[:, None] * np.column_stack([-c[:, 1], c[:, 0]])
        lc = np.abs(ks)[:, None] * c + jc
        return curve.with_coeffs(u.coeffs + 0.5 * params.a_e * lc)

    state = pk.SimulationState.make(0.0, c, p)
    with monkeypatch.context() as patch:  # pk.run below takes the default
        patch.setattr(pk.evolution, "rhs_nonlinear", direct)
        for _ in range(20):
            state = pk.step(state, cfg)
    default = pk.run(c, p, cfg).final_state
    assert state.t == pytest.approx(default.t, abs=1e-15)
    assert np.max(np.abs(state.curve.coeffs - default.curve.coeffs)) <= 1e-12


def test_solve_force_matched_viscosity_shortcut():
    p = pk.PhysicsParams.from_contrast(0.0, 1.0)
    c = perturbed_circle(0.05)
    f = pk.solve_force(c, p)
    # F = 2 a_e X'' exactly when a_mu = 0  (elastic_force carries k0 = a_e)
    el = pk.elastic_force(c, p)
    assert np.allclose(f, 2 * el, atol=1e-13)


def test_solve_force_spectral_convergence():
    """Nystrom values on a fixed smooth curve converge fast in N."""
    p = pk.PhysicsParams.from_contrast(0.5, 1.0)
    sols = {}
    for n in (64, 128, 256):
        c = perturbed_circle(0.1, max_mode=24, grid_size=n)
        f = pk.solve_force(c, p)
        sols[n] = pk.evaluate(pk.analyze(f, 24), np.array([0.3, 2.1]))
    e1 = np.max(np.abs(sols[64] - sols[256]))
    e2 = np.max(np.abs(sols[128] - sols[256]))
    assert e2 < 1e-10 and e1 < 1e-6


# ------------------------------------------------------- zeroth/linear split


def test_force_zero_on_circle():
    p = pk.PhysicsParams.from_contrast(0.5, 1.0)
    c = pk.circle_curve(max_mode=8, grid_size=32)
    f0, fl = pk.force_zero_linear(c, p)
    full = pk.solve_force(c, p)
    assert np.max(np.abs(fl)) < 1e-14
    assert np.max(np.abs(f0 - full)) < 1e-12


def test_linearized_force_matches_frechet_derivative():
    """F_L Z = d/de F(circle + e Z) at e = 0, via central differences."""
    p = pk.PhysicsParams.from_contrast(0.5, 1.0)
    base = pk.circle_curve(max_mode=12, grid_size=64)
    rng = np.random.default_rng(5)
    add = np.zeros_like(base.coeffs)
    for k in (2, 3, 4):
        add[12 + k] = rng.normal(size=2) + 1j * rng.normal(size=2)
    z = hermitize(add)
    eps = 1e-6
    fp = pk.solve_force(base.with_coeffs(base.coeffs + eps * z), p)
    fm = pk.solve_force(base.with_coeffs(base.coeffs - eps * z), p)
    dnum = (pk.analyze(fp, 12).coeffs - pk.analyze(fm, 12).coeffs) / (2 * eps)
    _, fl = pk.force_zero_linear(base.with_coeffs(base.coeffs + z), p)
    # fl is linear in the deviation so evaluating at z directly is exact
    scale = np.max(np.abs(dnum))
    assert np.max(np.abs(dnum - pk.analyze(fl, 12).coeffs)) < 1e-4 * scale


def test_nonlinear_remainder_is_quadratic():
    p = pk.PhysicsParams.from_contrast(0.5, 1.0)
    res = []
    eps_list = (1e-2, 1e-3, 1e-4)
    for eps in eps_list:
        c = perturbed_circle(eps, seed=7, max_mode=32, grid_size=128)
        f = pk.solve_force(c, p)
        f0, fl = pk.force_zero_linear(c, p)
        res.append(pk.fnorm(pk.analyze(f - f0 - fl, 32), s=0.0))
    slopes = np.diff(np.log(res)) / np.diff(np.log(eps_list))
    assert np.all(slopes > 1.9) and np.all(slopes < 2.1)
