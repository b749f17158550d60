import numpy as np
import pytest

import peskin2d as pk
from peskin2d.spectral import hermitize


def test_stokeslet_values():
    g = pk.stokeslet(np.array([1.0, 0.0]))
    # at |x| = 1 the log drops; x ox x / |x|^2 = diag(1, 0)
    assert np.allclose(g, np.array([[1.0, 0.0], [0.0, 0.0]]) / (4 * np.pi))
    g2 = pk.stokeslet(np.array([0.0, 2.0]))
    expect = (-np.log(2.0) * np.eye(2) + np.array([[0, 0], [0, 1.0]])) / (4 * np.pi)
    assert np.allclose(g2, expect)


def test_stokeslet_symmetry_and_evenness():
    x = np.array([0.3, -1.2])
    g = pk.stokeslet(x)
    assert np.allclose(g, g.T)          # symmetric tensor
    assert np.allclose(g, pk.stokeslet(-x))  # even kernel


def test_stokeslet_is_bitwise_the_old_formula():
    """G(x) from the shared modulus helper equals the former sum of squares
    bit for bit."""
    scales = 10.0 ** np.arange(-3, 4)[:, None]  # one per column of 7
    x = np.random.default_rng(5).normal(size=(300, 7, 2)) * scales
    r = np.sqrt(np.sum(x**2, axis=-1))
    outer = x[..., :, None] * x[..., None, :]
    old = (-np.log(r)[..., None, None] * np.eye(2)
           + outer / (r**2)[..., None, None]) / (4.0 * np.pi)
    assert np.array_equal(pk.stokeslet(x), old)


def test_stokeslet_singularity():
    with pytest.raises(pk.SingularEvaluation):
        pk.stokeslet(np.zeros(2))


# -------------------------------------------------------------- log convolve


def test_log_multiplier_frozen():
    """Diagonal action is 1/(4|k|): frozen against adaptive quadrature of
    int -(1/4pi) log(2|sin(z/2)|) cos(kz) dz."""
    m = 8
    for k in range(1, m + 1):
        c = np.zeros((2 * m + 1, 2), complex)
        c[m + k, 0] = 0.5
        c[m - k, 0] = 0.5  # cos(k theta) in component 1
        out = pk.log_convolve(pk.FourierCurve(c, 64))
        th = pk.theta_grid(64)
        assert np.allclose(out[:, 0], np.cos(k * th) / (4 * k), atol=1e-14)
        assert np.allclose(out[:, 1], 0.0, atol=1e-15)


def test_log_convolve_spot_value():
    # (K * cos)(0.7) = cos(0.7)/4 = 0.191210546821122 (frozen)
    m = 8
    c = np.zeros((2 * m + 1, 2), complex)
    c[m + 1, 0] = 0.5
    c[m - 1, 0] = 0.5
    fac = np.zeros(2 * m + 1)
    ks = np.arange(-m, m + 1)
    fac[ks != 0] = 1.0 / (4 * np.abs(ks[ks != 0]))
    conv = pk.FourierCurve(c * fac[:, None], 64)
    val = pk.evaluate(conv, 0.7)[0, 0]
    assert val == pytest.approx(0.191210546821122, abs=1e-14)


def test_log_convolve_kills_mean():
    m = 4
    c = np.zeros((2 * m + 1, 2), complex)
    c[m] = (2.0, -1.0)
    out = pk.log_convolve(pk.FourierCurve(c, 16))
    assert np.max(np.abs(out)) < 1e-15


def test_log_convolve_vs_direct_quadrature():
    """Spectral multiplier vs singularity-subtracted midpoint rule."""
    rng = np.random.default_rng(11)
    m, n = 8, 32
    nq = 1 << 17
    h = 2 * np.pi / nq
    z = -np.pi + (np.arange(nq) + 0.5) * h
    kern = -np.log(2.0 * np.abs(np.sin(0.5 * z))) / (4.0 * np.pi)
    for _ in range(3):
        c = hermitize(rng.normal(size=(2 * m + 1, 2))
                      + 1j * rng.normal(size=(2 * m + 1, 2)))
        curve = pk.FourierCurve(c, n)
        out = pk.log_convolve(curve)
        th = pk.theta_grid(n)
        for ti in (0, 9, 21):
            fv = pk.evaluate(curve, th[ti] - z)
            f0 = pk.evaluate(curve, np.array([th[ti]]))[0]
            direct = h * np.sum(kern[:, None] * (fv - f0[None, :]), axis=0)
            assert np.max(np.abs(direct - out[ti])) < 1e-10


# -------------------------------------------------------- off-curve velocity


def test_velocity_field_far_from_unit_circle():
    params = pk.PhysicsParams.from_contrast(0.0, 1.0)
    curve = pk.circle_curve(max_mode=16, grid_size=64)
    force = pk.solve_force(curve, params)
    # far away the net zero force makes u decay; just check it is finite/small
    u = pk.eval_velocity_field(np.array([[10.0, 0.0]]), curve, force)
    assert np.all(np.isfinite(u))
    assert np.linalg.norm(u) < 0.2


def test_velocity_field_warns_near_interface():
    params = pk.PhysicsParams.from_contrast(0.0, 1.0)
    curve = pk.circle_curve(max_mode=8, grid_size=32)
    force = pk.solve_force(curve, params)
    with pytest.warns(RuntimeWarning):
        pk.eval_velocity_field(np.array([[1.01, 0.0]]), curve, force)
    with pytest.raises(pk.SingularEvaluation):
        xs = pk.synthesize(curve)
        pk.eval_velocity_field(xs[3], curve, force)


def test_velocity_field_is_bitwise_the_stokeslet_quadrature():
    """One modulus table serves the clearance check and the Stokeslet: the
    velocities are bit for bit those of G(x) = (-log|x| I + x x^T/|x|^2)/4pi
    taken from a modulus of its own, summed against the force."""
    rng = np.random.default_rng(5)
    c = hermitize(rng.normal(size=(17, 2)) + 1j * rng.normal(size=(17, 2)))
    curve = pk.FourierCurve(0.01 * c + pk.circle_curve(max_mode=8).coeffs, 32)
    force = rng.normal(size=(32, 2))
    points = np.array([[3.0, 0.5], [-0.2, 0.1], [0.0, -2.5]])
    x = points[:, None, :] - pk.synthesize(curve)[None, :, :]
    r = np.sqrt(np.einsum("...i,...i->...", x, x))
    g = (-np.log(r)[..., None, None] * np.eye(2)
         + x[..., :, None] * x[..., None, :] / (r**2)[..., None, None])
    want = np.tensordot(g / (4.0 * np.pi), force, ([1, 3], [0, 1])) * (
        2.0 * np.pi / 32)
    got = pk.eval_velocity_field(points, curve, force)
    assert np.array_equal(got, want)
