import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import peskin2d as pk


TWO_PI = 2 * np.pi


# ----------------------------------------------------------- I_n quadrature


def test_In_frozen_values():
    assert pk.integral_In(2, (1, 0)) == 0j
    assert pk.integral_In(2, (1, -1)) == pytest.approx(0.5j * np.pi, abs=1e-12)
    assert pk.integral_In(3, (1, -2)) == pytest.approx(2.0943951023931957j,
                                                       abs=1e-12)
    assert pk.integral_In(1, (2, 0, 3, 1)) == pytest.approx(
        -0.7853981633974476j, abs=1e-12)


def test_In_zero_conventions():
    # k = k_1 or two adjacent k_j equal: the multiplier difference vanishes
    assert pk.integral_In(4, (4, 1)) == 0j
    assert pk.integral_In(2, (5, 5, 1, 0)) == 0j
    assert pk.integral_In(2, (5, 1, 1, 0)) == 0j


def test_In_purely_imaginary():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = rng.integers(1, 4)
        ks = rng.integers(-9, 10, size=2 * n)
        val = pk.integral_In(int(rng.integers(-9, 10)), tuple(int(v) for v in ks))
        assert abs(val.real) < 1e-10


def test_In_uniform_bound():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        ks = tuple(int(v) for v in rng.integers(-15, 16, size=2 * n))
        k = int(rng.integers(-15, 16))
        assert abs(pk.integral_In(k, ks)) <= TWO_PI * (1 + 1e-12)


# -------------------------------------------------- S_n exact vs quadrature


def test_S1_closed_form():
    # 2 pi sgn(k1+k2) min(|k1-k2|, |k1+k2|) / |k1-k2|
    assert pk.integral_S1_closed(3, 1) == pytest.approx(TWO_PI)
    assert pk.integral_S1_closed(1, -2) == pytest.approx(-TWO_PI / 3)
    assert pk.integral_S1_closed(2, -2) == 0.0
    assert pk.integral_S1_closed(4, 4) == 0.0  # b = 0 convention


def test_S1_closed_vs_exact_vs_quadrature_exhaustive():
    for k1 in range(-12, 13):
        for k2 in range(-12, 13):
            closed = pk.integral_S1_closed(k1, k2)
            exact = pk.integral_Sn_exact((k1, k2))
            assert closed == pytest.approx(exact, abs=1e-12)


def test_Sn_exact_matches_quadrature():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        ks = tuple(int(v) for v in rng.integers(-10, 11, size=2 * n))
        q = pk.integral_Sn_quadrature(ks)
        e = pk.integral_Sn_exact(ks)
        assert q == pytest.approx(e, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(-20, 20),
       st.lists(st.integers(-20, 20), min_size=2, max_size=6)
       .filter(lambda v: len(v) % 2 == 0))
def test_property_uniform_bound(k, ks):
    assert abs(pk.integral_In(k, tuple(ks))) <= TWO_PI * (1 + 1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(-15, 15), st.integers(-15, 15))
def test_property_S1_sign_symmetry(k1, k2):
    # flipping both signs flips the integral (odd integrand in eta)
    assert pk.integral_Sn_exact((k1, k2)) == pytest.approx(
        -pk.integral_Sn_exact((-k1, -k2)), abs=1e-12)
