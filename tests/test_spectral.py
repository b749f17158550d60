import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import peskin2d as pk
from peskin2d.spectral import _modulus, hermitize


def random_curve(rng, m=8, n=32, amp=0.1):
    c = amp * (rng.normal(size=(2 * m + 1, 2)) + 1j * rng.normal(size=(2 * m + 1, 2)))
    return pk.FourierCurve(hermitize(c), n)


# ---------------------------------------------------------------- transforms


def test_theta_grid_endpoints():
    th = pk.theta_grid(8)
    assert th[0] == -np.pi
    assert th[-1] == pytest.approx(np.pi - 2 * np.pi / 8)


def test_synthesize_single_mode():
    # c_1 = (1/2, -i/2) plus conjugate is (cos, sin)
    m = 4
    c = np.zeros((2 * m + 1, 2), complex)
    c[m + 1] = (0.5, -0.5j)
    c[m - 1] = np.conj(c[m + 1])
    xs = pk.synthesize(pk.FourierCurve(c, 16))
    th = pk.theta_grid(16)
    assert np.allclose(xs[:, 0], np.cos(th), atol=1e-14)
    assert np.allclose(xs[:, 1], np.sin(th), atol=1e-14)


def test_analyze_inverts_synthesize():
    rng = np.random.default_rng(0)
    curve = random_curve(rng, m=16, n=64)
    back = pk.analyze(pk.synthesize(curve), 16)
    assert np.max(np.abs(back.coeffs - curve.coeffs)) < 1e-14


def test_analyze_refuses_samples_that_are_not_planar_points():
    with pytest.raises(ValueError, match=r"samples must have shape \(N, 2\)"):
        pk.analyze(np.zeros((16, 3)), 4)


def test_a_mode_beyond_the_band_is_zero():
    curve = pk.circle_curve(max_mode=4, grid_size=16)
    for k in (5, -5):
        assert np.array_equal(curve.mode(k), np.zeros(2, dtype=complex))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_roundtrip_property(seed, m):
    rng = np.random.default_rng(seed)
    curve = random_curve(rng, m=m, n=4 * m)
    back = pk.analyze(pk.synthesize(curve), m)
    assert np.max(np.abs(back.coeffs - curve.coeffs)) < 1e-12


def test_aliasing_guard():
    c = np.zeros((17, 2), complex)  # M = 8
    with pytest.raises(pk.AliasingError):
        pk.FourierCurve(c, 10)  # < 2M+1
    with pytest.raises(pk.AliasingError):
        pk.analyze(np.zeros((16, 2)), 8)
    # a band FourierCurve would reject is refused, not truncated
    for m in (-1, 0, 2.7):
        with pytest.raises(ValueError, match="whole number"):
            pk.analyze(np.zeros((16, 2)), m)
    assert pk.analyze(np.zeros((16, 2)), np.float64(7.0)).max_mode == 7


def test_conjugate_symmetry_enforced():
    with pytest.raises(ValueError, match="shape"):
        pk.FourierCurve([[1, 2]])  # max mode 0: a point, not a curve
    c = np.zeros((5, 2), complex)
    c[3] = (1.0, 0.0)  # mode +1 without its mirror
    with pytest.raises(ValueError):
        pk.FourierCurve(c, 16)
    # an asymmetry far below the 1e-8 tolerance is accepted and projected
    c[1] = (1.0, 1e-12j)
    curve = pk.FourierCurve(c, 16)
    assert np.array_equal(curve.coeffs, hermitize(c))
    assert np.array_equal(curve.coeffs, np.conj(curve.coeffs[::-1]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)],
                         ids=repr)
def test_non_finite_coefficients_are_refused(bad):
    """A non-finite coefficient made the asymmetry test NaN, which passed:
    the curve was built, with numpy's RuntimeWarnings on the way."""
    c = np.zeros((5, 2), complex)
    c[1, 0], c[3, 0] = 0.5, 0.5
    c[2, 1] = bad  # mode 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            pk.FourierCurve(c, 16)
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            pk.circle_curve(c=bad.real, d=bad.imag)


@pytest.mark.parametrize("n", [sys.maxsize + 1, 10 ** 400],
                         ids=["maxsize+1", "huge"])
def test_a_grid_size_no_array_can_have_is_refused(n):
    # it used to pass, and numpy's FFT refused it inside a run
    with pytest.raises(ValueError, match="^grid_size is larger than any "
                                         "array$"):
        pk.FourierCurve(np.zeros((5, 2), complex), n)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from([3, 0]))
@example(seed=0, m=16, pad=0)
def test_internal_curves_are_exactly_symmetric(seed, m, pad):
    """Curves derived from other curves are built without the symmetry
    check; that is sound because their coefficients are exactly
    conjugate-symmetric, which the checked constructor accepts.  The grids
    are odd (n = 4m + 3) and even (n = 4m, a run's grid, where the real FFT
    of `analyze` has a Nyquist bin)."""
    rng = np.random.default_rng(seed)
    n = 4 * m + pad
    curve = random_curve(rng, m=m, n=n)
    near_circle = pk.circle_curve(max_mode=m, grid_size=n).coeffs
    near_circle = pk.FourierCurve(near_circle + 1e-2 * curve.coeffs, n)
    params = pk.PhysicsParams.from_contrast(0.4, 1.0)
    steps = [pk.step(pk.SimulationState.make(0.0, near_circle, params),
                     pk.StepperConfig(dt=1e-3, t_final=1.0, scheme=scheme))
             for scheme in ("exponential-euler", "etdrk2")]
    for out in (pk.analyze(rng.normal(size=(n, 2)), m), pk.to_Y(curve),
                pk.from_Y(curve), pk.circle_decompose(curve)[1],
                pk.derivative(curve), pk.derivative(pk.derivative(curve)),
                pk.rhs_nonlinear(near_circle, params),
                steps[0].curve, steps[1].curve):
        assert np.array_equal(out.coeffs, np.conj(out.coeffs[::-1]))
        again = pk.FourierCurve(out.coeffs, out.grid_size)
        assert again.grid_size == out.grid_size == n


def test_evaluate_matches_grid():
    rng = np.random.default_rng(2)
    curve = random_curve(rng)
    th = pk.theta_grid(curve.grid_size)
    assert np.allclose(pk.evaluate(curve, th), pk.synthesize(curve), atol=1e-13)


# ---------------------------------------------------------------- multipliers


def test_derivative_multiplier():
    curve = pk.circle_curve(max_mode=4, grid_size=16)
    d = pk.derivative(curve)
    th = pk.theta_grid(16)
    expect = np.stack([-np.sin(th), np.cos(th)], axis=1)
    assert np.allclose(pk.synthesize(d), expect, atol=1e-14)


# ---------------------------------------------------------------------- norms


def test_weighted_norm_simple():
    m = 4
    c = np.zeros((2 * m + 1, 2), complex)
    c[m + 2] = (0.5, 0.0)
    c[m - 2] = (0.5, 0.0)
    curve = pk.FourierCurve(c, 16)
    # two modes |k|=2, each |c| = 1/2: sum = 2 * 2 * 0.5 = 2
    assert pk.fnorm(curve, 1.0) == pytest.approx(2.0)
    assert pk.fnorm(curve, 2.0) == pytest.approx(4.0)


def test_exponential_weight():
    m = 3
    c = np.zeros((2 * m + 1, 2), complex)
    c[m + 1] = (1.0, 0.0)
    c[m - 1] = (1.0, 0.0)
    curve = pk.FourierCurve(c, 16)
    assert pk.fnorm(curve, 1.0, nu=0.3) == pytest.approx(2 * math.exp(0.3))


def test_inhomogeneous_adds_mean():
    m = 2
    c = np.zeros((2 * m + 1, 2), complex)
    c[m] = (3.0, 4.0)
    c[m + 1] = (0.5, 0.0)
    c[m - 1] = (0.5, 0.0)
    curve = pk.FourierCurve(c, 16)
    assert pk.fnorm(curve, 0.0) == pytest.approx(1.0)


def old_fnorm(curve, s=1.0, nu=0.0):
    """The full-spectrum formula fnorm used before it summed k = 1..M:
    complex abs squared over all 2M+1 rows, the mean masked out."""
    ks = curve.ks
    mags = np.sqrt(np.sum(np.abs(curve.coeffs) ** 2, axis=1))
    absk = np.abs(ks).astype(float)
    nz = ks != 0
    return float(np.sum(np.exp(nu * absk[nz]) * absk[nz] ** s * mags[nz]))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.floats(-8.0, 2.0),
       st.sampled_from([0.0, 1.0, 2.0, 0.5]), st.floats(0.0, 0.5))
def test_fnorm_matches_the_full_spectrum_formula(seed, m, log_scale, s, nu):
    """Summing the modes k >= 1 twice changes fnorm by round-off only."""
    rng = np.random.default_rng(seed)
    curve = random_curve(rng, m, 2 * m + 1, 10.0**log_scale)
    assert pk.fnorm(curve, s, nu) == pytest.approx(old_fnorm(curve, s, nu),
                                                   rel=1e-15, abs=0.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.floats(-8.0, 2.0))
def test_guard_moduli_are_the_old_einsum(seed, m, log_scale):
    """The guard's tail moduli from the shared helper are bitwise those of
    its former row einsum."""
    curve = random_curve(np.random.default_rng(seed), m, 2 * m + 1,
                         10.0**log_scale)
    tail = curve.coeffs[m + 2:].view(float)
    assert np.array_equal(_modulus(tail),
                          np.sqrt(np.einsum("ij,ij->i", tail, tail)))


def test_fortran_ordered_coefficients_are_stored_row_contiguous():
    """The moduli read each coefficient row as one float view, so a curve
    built from a Fortran-ordered array stores its rows contiguously."""
    c = pk.circle_curve(max_mode=4, grid_size=16).coeffs
    curve = pk.FourierCurve(np.asfortranarray(c), 16)
    assert curve.coeffs.flags.c_contiguous
    assert pk.fnorm(curve) == pk.fnorm(pk.FourierCurve(c, 16))
    assert pk.geometry_diagnostics(curve)["arc_chord"] > 0.6


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
def test_norm_homogeneity(seed, scale):
    rng = np.random.default_rng(seed)
    curve = random_curve(rng)
    scaled = curve.with_coeffs(scale * curve.coeffs)
    assert pk.fnorm(scaled, 1.0) == pytest.approx(
        scale * pk.fnorm(curve, 1.0), rel=1e-12
    )


# ------------------------------------------------------------------- Y frame
# Per-mode matrices of the linearized dynamics and its diagonalizing frame:
# the reference for the closed-form frame change in to_Y / from_Y.

SQRT2 = math.sqrt(2.0)


def l_matrix(k):
    """L(k) = [[|k|, -i sgn k], [i sgn k, |k|]]; L(0) = 0."""
    s = np.sign(k)
    a = abs(k)
    return np.array([[a, -1j * s], [1j * s, a]], dtype=complex)


def p_matrix(k):
    if k == 0:
        return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / SQRT2
    s = np.sign(k)
    return np.array([[-1j * s, 1.0], [1.0, -1j * s]], dtype=complex) / SQRT2


def p_inverse(k):
    if k == 0:
        return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) * SQRT2
    # unitary for k != 0, so the inverse is the conjugate transpose;
    # P is symmetric, hence P^{-1} = conj(P).
    return np.conj(p_matrix(k))


def d_matrix(k):
    return np.array([[abs(k) + 1.0, 0.0], [0.0, abs(k) - 1.0]], dtype=complex)


def test_p_unitary_and_diagonalizes():
    for k in (-5, -1, 1, 2, 3, 7):
        P = p_matrix(k)
        Pi = p_inverse(k)
        assert np.allclose(P @ Pi, np.eye(2), atol=1e-15)
        assert np.allclose(P @ np.conj(P.T), np.eye(2), atol=1e-15)  # unitary
        assert np.allclose(P @ d_matrix(k) @ Pi, l_matrix(k), atol=1e-14)


def test_l_annihilates_circle_direction():
    # mode-one coefficient of any circle is proportional to (1, -i)
    assert np.allclose(l_matrix(1) @ np.array([1.0, -1.0j]), 0.0, atol=1e-15)
    assert np.allclose(l_matrix(-1) @ np.array([1.0, 1.0j]), 0.0, atol=1e-15)


def test_to_Y_roundtrip_preserves_norm():
    rng = np.random.default_rng(5)
    curve = random_curve(rng)
    y = pk.to_Y(curve)
    back = pk.from_Y(y)
    assert np.max(np.abs(back.coeffs - curve.coeffs)) < 1e-13
    # P(k) unitary for k != 0: per-mode magnitudes agree off the mean
    mags_x = np.linalg.norm(curve.coeffs, axis=1)
    mags_y = np.linalg.norm(y.coeffs, axis=1)
    nz = curve.ks != 0
    assert np.allclose(mags_x[nz], mags_y[nz], atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 24))
def test_closed_form_frame_matches_per_mode_matrices(seed, m):
    """to_Y / from_Y equal P(k)^{-1} c_k / P(k) y_k mode by mode, and
    round-trip to round-off."""
    curve = random_curve(np.random.default_rng(seed), m=m, n=4 * m + 2, amp=1.0)
    y = pk.to_Y(curve).coeffs
    x = pk.from_Y(curve).coeffs
    for row, k in enumerate(curve.ks):
        assert np.allclose(y[row], p_inverse(k) @ curve.coeffs[row],
                           rtol=0, atol=1e-15)
        assert np.allclose(x[row], p_matrix(k) @ curve.coeffs[row],
                           rtol=0, atol=1e-15)
    back = pk.from_Y(pk.to_Y(curve)).coeffs
    assert np.max(np.abs(back - curve.coeffs)) <= 1e-15 * np.max(
        np.abs(curve.coeffs))


def test_circle_decompose_recovers_parameters():
    cp = pk.CirclePart(1.0, 0.0, 0.3, -0.2)
    circle, dev = pk.circle_decompose(cp.as_curve(6, 24))
    assert (circle.a, circle.b, circle.c, circle.d) == pytest.approx(
        (1.0, 0.0, 0.3, -0.2)
    )
    assert pk.fnorm(dev, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_circle_decompose_splits_deviation():
    rng = np.random.default_rng(6)
    cp = pk.CirclePart(0.9, 0.1, -0.4, 0.25)
    base = cp.as_curve(8, 32)
    c = base.coeffs.copy()
    add = 0.02 * (rng.normal(size=2) + 1j * rng.normal(size=2))
    c[8 + 3] += add
    c[8 - 3] += np.conj(add)
    circle, dev = pk.circle_decompose(pk.FourierCurve(c, 32))
    assert circle.a == pytest.approx(0.9)
    assert circle.d == pytest.approx(0.25)
    # deviation holds exactly the added mode
    assert np.allclose(dev.mode(3), add, atol=1e-14)
    assert abs(pk.to_Y(dev).coeffs[8][0]) < 1e-15  # no zero mode left
    # and recombining gives back the curve
    recon = circle.as_curve(8, 32).coeffs + dev.coeffs
    assert np.max(np.abs(recon - c)) < 1e-14


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.floats(-3.0, 3.0))
def test_circle_part_reads_the_circle_of_circle_decompose(seed, m, log_scale):
    """circle_part reads modes 0 and 1 in O(1); it is the circle that
    circle_decompose zeroes in the Y frame, to round-off."""
    rng = np.random.default_rng(seed)
    curve = random_curve(rng, m=m, n=4 * m + 1, amp=10.0**log_scale)
    fast = pk.spectral.circle_part(curve)
    ref = pk.circle_decompose(curve)[0]
    got = np.array([fast.a, fast.b, fast.c, fast.d])
    want = np.array([ref.a, ref.b, ref.c, ref.d])
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_radius_and_rotation_convention():
    # (a, b) = (0, 1) is the tangential circle: starts at (0, ..) going -x
    cv = pk.circle_curve(0.0, 1.0, max_mode=2, grid_size=16)
    xs = pk.synthesize(cv)
    th = pk.theta_grid(16)
    assert np.allclose(xs[:, 0], -np.sin(th), atol=1e-14)
    assert np.allclose(xs[:, 1], np.cos(th), atol=1e-14)
    assert pk.CirclePart(3.0, 4.0, 0, 0).radius == pytest.approx(5.0)


# ------------------------------------------------------------------ geometry


def test_enclosed_area_unit_circle():
    assert pk.enclosed_area(pk.circle_curve(max_mode=4, grid_size=16)) == (
        pytest.approx(np.pi, abs=1e-15)
    )


def test_enclosed_area_ellipse():
    # x = 2cos, y = sin: area 2 pi
    m = 4
    c = np.zeros((2 * m + 1, 2), complex)
    c[m + 1] = (1.0, -0.5j)
    c[m - 1] = np.conj(c[m + 1])
    assert pk.enclosed_area(pk.FourierCurve(c, 32)) == pytest.approx(2 * np.pi)


def test_arc_chord_unit_circle_frozen():
    # inf over separations of chord/arc on the unit circle = 2/pi at d = pi
    val = pk.arc_chord_constant(pk.circle_curve(max_mode=4, grid_size=16))
    assert val == pytest.approx(0.636619772367581, abs=1e-12)
    assert val == pytest.approx(2 / np.pi, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8),
       st.floats(1e-3, 0.3))
def test_arc_chord_grid_value_is_the_pair_minimum(seed, m, amp):
    """The offset scan finds the brute-force minimum over all n x n pairs."""
    rng = np.random.default_rng(seed)
    c = pk.circle_curve(max_mode=m, grid_size=4 * m).coeffs.copy()
    for k in range(2, m + 1):
        v = amp * (rng.normal(size=2) + 1j * rng.normal(size=2)) / k**2
        c[m + k] += v
        c[m - k] += np.conj(v)
    curve = pk.FourierCurve(c, 4 * m)
    n = 4 * curve.grid_size
    th = pk.theta_grid(n)
    pts = pk.evaluate(curve, th)
    chord = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    sep = np.abs(np.mod(th[:, None] - th[None, :] + np.pi, 2 * np.pi) - np.pi)
    off = ~np.eye(n, dtype=bool)
    brute = np.min(chord[off] / sep[off])
    assert pk.arc_chord_constant(curve) == pytest.approx(
        brute, rel=1e-13)
    assert pk.arc_chord_constant(curve) <= brute * (1 + 1e-13)


def _pair_minimum(curve, n):
    """min over all pairs of an n-point grid of chord / circle distance."""
    pts = pk.evaluate(curve, pk.theta_grid(n))
    return min(np.min(np.linalg.norm(np.roll(pts, -d, axis=0) - pts, axis=1))
               / (2 * np.pi * d / n) for d in range(1, n // 2 + 1))


def _perturbed_circle(seed, m, amp, radius, phase, cx, cy):
    """Circle of the given radius, phase and center plus random modes
    2..m with amplitudes up to amp/k^2."""
    rng = np.random.default_rng(seed)
    c = pk.circle_curve(radius * math.cos(phase), radius * math.sin(phase),
                        cx, cy, max_mode=m, grid_size=4 * m).coeffs.copy()
    for k in range(2, m + 1):
        v = amp * (rng.normal(size=2) + 1j * rng.normal(size=2)) / k**2
        c[m + k] += v
        c[m - k] += np.conj(v)
    return pk.FourierCurve(c, 4 * m)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 14), st.floats(0.0, 0.3),
       st.floats(0.2, 5.0), st.floats(-np.pi, np.pi), st.floats(-3.0, 3.0),
       st.floats(-3.0, 3.0))
def test_arc_chord_bound_is_below_the_fine_pair_minimum(seed, m, amp, radius,
                                                        phase, cx, cy):
    """2R/pi - ||Z||_{F^{1,1}} never exceeds the pair minimum on a grid 8x
    finer than the scan's, nor the scan itself.  On a circle the two are
    equal, so they may differ by round-off in either direction."""
    curve = _perturbed_circle(seed, m, amp, radius, phase, cx, cy)
    bound = pk.geometry_diagnostics(curve, arc_chord_floor=-np.inf)["arc_chord"]
    fine = _pair_minimum(curve, 8 * 4 * curve.grid_size)
    assert bound <= fine + 1e-14 * radius
    assert fine <= pk.arc_chord_constant(curve) * (1 + 1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.floats(0.1, 10.0), st.floats(-np.pi, np.pi),
       st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
def test_arc_chord_bound_on_circles_is_two_r_over_pi(m, radius, phase, cx, cy):
    """On a circle the deviation vanishes and the bound is the exact
    constant 2R/pi (oracles/oracle_arc_chord.py at R = 1)."""
    curve = pk.circle_curve(radius * math.cos(phase), radius * math.sin(phase),
                            cx, cy, max_mode=m)
    bound = pk.geometry_diagnostics(curve)["arc_chord"]
    assert bound == pytest.approx(2 * radius / np.pi, rel=1e-14)
    unit = pk.geometry_diagnostics(pk.circle_curve(max_mode=m))["arc_chord"]
    assert unit == pytest.approx(0.636619772367581, rel=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.floats(0.0, 1.5),
       st.floats(0.0, 0.7))
def test_geometry_guard_fails_exactly_when_the_scan_does(seed, m, amp, floor):
    """The bound only skips the scan when it already clears the floor, so
    the guard's verdict is the scan's verdict, for the recorded rows and for
    the right-hand side alike."""
    curve = _perturbed_circle(seed, m, amp, 1.0, 0.0, 0.0, 0.0)
    params = pk.PhysicsParams.from_contrast(0.0, 1.0)
    expected = pk.arc_chord_constant(curve) < floor
    for guarded in (
            lambda: pk.geometry_diagnostics(curve, arc_chord_floor=floor),
            lambda: pk.rhs_nonlinear(curve, params, arc_chord_floor=floor)):
        try:
            guarded()
            raised = False
        except pk.CurveDegenerateError:
            raised = True
        assert raised == expected


def test_geometry_diagnostics_keys_and_floor():
    d = pk.geometry_diagnostics(pk.circle_curve(max_mode=4, grid_size=16))
    assert set(d) == {"area", "arc_chord"}
    with pytest.raises(pk.CurveDegenerateError):
        pk.geometry_diagnostics(
            pk.circle_curve(max_mode=4, grid_size=16), arc_chord_floor=0.99
        )


def test_degenerate_curve_detected():
    # a figure-eight-ish curve: mode 2 only, passes through itself
    m = 4
    c = np.zeros((2 * m + 1, 2), complex)
    c[m + 2] = (0.5, -0.5j)
    c[m - 2] = np.conj(c[m + 2])
    with pytest.raises(pk.CurveDegenerateError):
        pk.geometry_diagnostics(pk.FourierCurve(c, 32), arc_chord_floor=0.05)
