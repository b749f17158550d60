import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import peskin2d as pk
from peskin2d import multipliers
from peskin2d.cli import _random_tuple


TWO_PI = 2 * np.pi


def _s_ratio(b, eta):
    """sin(b*eta/2)/sin(eta/2) with the eta=0 limit b; b may be any integer."""
    b = int(b)
    if b == 0:
        return np.zeros_like(eta)
    s = np.sin(0.5 * eta)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.sin(0.5 * b * eta) / s
    return np.where(np.abs(s) < 1e-12, float(b), vals)


def _nodes(lead, bs, half_cos):
    """The node count that integrates the product exactly."""
    fmax = 0.5 * (sum(abs(b) for b in bs) + abs(lead)) - 0.5 * len(bs) - 0.5
    if half_cos:
        fmax += 0.5
    return multipliers._nodes_for(int(np.ceil(fmax)))


def _loop_quadrature(lead, bs, half_cos):
    """The per-factor loop that `_product_quadrature` replaces: the reference
    it must match bit for bit."""
    n = _nodes(lead, bs, half_cos)
    eta = -np.pi + 2.0 * np.pi * np.arange(n) / n
    vals = _s_ratio(lead, eta)
    if half_cos:
        vals = np.cos(0.5 * eta) * vals
    for b in bs:
        vals = vals * (_s_ratio(b, eta) / b)
    return float(np.sum(vals)) * (2.0 * np.pi / n)


def _quadratures(k, ks):
    """The (lead, bs, half_cos) arguments of I'_n and I''_n for a tuple
    whose differences are all nonzero."""
    bs = [k - ks[0]] + [ks[j] - ks[j + 1] for j in range(len(ks) - 1)]
    out = [(ks[0] + ks[-1], bs[1:], False), (k + ks[-1], bs, True)]
    return [q for q in out if q[0] != 0]


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


# ------------------------------------------ factor table vs per-factor loop


def test_product_quadrature_matches_the_loop_bitwise():
    rng = np.random.default_rng(21)
    compared = 0
    for _ in range(2000):
        k, ks = _random_tuple(rng, 3, 20)
        for args in _quadratures(k, ks):
            assert multipliers._product_quadrature(*args) == \
                _loop_quadrature(*args), (k, ks, args)
            compared += 1
    assert compared > 3000


_nonzero_b = st.integers(10, 40).flatmap(
    lambda v: st.sampled_from([v, -v]))


@settings(max_examples=10, deadline=None)
@given(_nonzero_b, st.lists(_nonzero_b, min_size=100, max_size=200),
       st.booleans())
def test_property_long_products_match_the_loop(lead, bs, half_cos):
    # |b| >= 10 over >= 100 factors needs >= 1024 nodes, so a block holds at
    # most 64 rows and the product spans several blocks
    assert multipliers._product_quadrature(lead, bs, half_cos) == \
        _loop_quadrature(lead, bs, half_cos)


def test_product_of_201_factors_holds_one_block_at_a_time():
    # an --nmax 100 tuple: 200 frequencies, so I''_n has 201 factor rows
    rng = np.random.default_rng(100)
    ks = [int(rng.integers(-20, 21))]
    while len(ks) < 200:
        v = int(rng.integers(-20, 21))
        if v != ks[-1]:
            ks.append(v)
    (lead, bs, half_cos), = [q for q in _quadratures(25, ks) if q[2]]
    assert len(bs) + 1 == 201
    want = _loop_quadrature(lead, bs, half_cos)
    tracemalloc.start()
    try:
        got = multipliers._product_quadrature(lead, bs, half_cos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    # the grid, one row and the accumulator; the whole table would be 201
    # rows of 4096 nodes, 6.6 MB
    assert peak < 1.5 * 8 * 2**16, peak


# ------------------------------------------------------------- row cache


def _cold_caches():
    multipliers._grid.cache_clear()
    multipliers._cached_row.cache_clear()


def _caches():
    return multipliers._grid.cache_info(), multipliers._cached_row.cache_info()


def test_cold_and_warm_rows_give_the_same_bits():
    rng = np.random.default_rng(23)
    args = [q for _ in range(300) for q in _quadratures(*_random_tuple(rng, 3, 20))]
    _cold_caches()
    cold = [multipliers._product_quadrature(*a) for a in args]
    warm = [multipliers._product_quadrature(*a) for a in args]
    assert cold == warm
    assert _caches()[1].hits > 0


def test_row_cache_stays_within_its_budget():
    """250 tuples of at most 6 frequencies in [-20, 20] (a verify batch)
    need at most 256 nodes and under 512 distinct rows: the cache builds
    each once and evicts none, and its rows hold at most 2^17 values.  A
    200-frequency tuple, on more nodes, keeps nothing."""
    rng = np.random.default_rng(61)
    batch = [_random_tuple(rng, 3, 20) for _ in range(250)]
    keys = set()
    for k, ks in batch:
        for lead, bs, half_cos in _quadratures(k, ks):
            n = _nodes(lead, bs, half_cos)
            keys |= {(lead, n, False)} | {(b, n, True) for b in bs}
    _cold_caches()
    for _ in range(2):
        for k, ks in batch:
            pk.integral_In(k, ks)
            pk.integral_Sn_quadrature(ks)
    grids, rows = _caches()
    assert max(n for _, n, _ in keys) == multipliers._CACHED_NODES
    assert rows.misses == rows.currsize == len(keys)
    assert grids.misses == grids.currsize == 3  # 64, 128 and 256 nodes
    assert sum(n for _, n, _ in keys) <= 2**17
    assert rows.maxsize * multipliers._CACHED_NODES <= 2**17
    k, ks = _random_tuple(np.random.default_rng(100), 100, 20)
    pk.integral_In(k, ks)
    pk.integral_Sn_quadrature(ks)
    assert _caches() == (grids, rows)


@settings(max_examples=10, deadline=None)
@given(_nonzero_b, st.lists(_nonzero_b, min_size=100, max_size=200),
       st.booleans())
def test_property_long_products_keep_the_row_budget(lead, bs, half_cos):
    # >= 1024 nodes, above the cached node counts: nothing is kept
    before = _caches()
    multipliers._product_quadrature(lead, bs, half_cos)
    assert _caches() == before


def test_a_grid_larger_than_the_budget_is_not_kept():
    """One quadrature on 2^22 nodes builds a node grid and two factor rows
    of 32 MB each: none of them stays cached (the grid used to, about
    100 MB, for the rest of the process)."""
    before = _caches()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        pk.integral_Sn_quadrature([2000001, -2000000])
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert kept < 8 * 2**16, kept
    assert _caches() == before
    big = multipliers._product_quadrature(40001, [30000], True)
    assert big == _loop_quadrature(40001, [30000], True)
    assert _caches() == before


def test_a_quadrature_builds_at_most_one_grid(monkeypatch):
    """Every factor row of one quadrature comes from one node grid, both
    when the grid is built for the call (2^17 nodes) and when it is
    cached (64 nodes)."""
    built = []
    theta_grid = multipliers.theta_grid
    monkeypatch.setattr(multipliers, "theta_grid",
                        lambda n: built.append(n) or theta_grid(n))
    _cold_caches()
    for lead, bs, nodes in [(40001, [30000, -7, 11, 30000], 1 << 17),
                            (3, [2, -5, 7, 2], 64)]:
        built.clear()
        got = multipliers._product_quadrature(lead, bs, True)
        assert built == [nodes]
        assert got == _loop_quadrature(lead, bs, True)


def test_cached_rows_refuse_writes():
    _cold_caches()
    multipliers._product_quadrature(3, [2, -5], True)
    assert _caches()[1].currsize == 3
    rows = [multipliers._cached_row(b, 64, divided)
            for b, divided in [(3, False), (2, True), (-5, True)]]
    for row in rows + list(multipliers._grid(64)):
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.0
    assert _caches()[1].misses == 3


# ---------------------------------------------------------- lattice count


def _four_call_exact(ks):
    """integral_Sn_exact with the lattice count that the in-place one
    replaces (cumsum, zeros_like, slice copy, subtract per cap): the
    reference it must equal bit for bit."""
    sigma = ks[0] + ks[-1]
    bs = [ks[j] - ks[j + 1] for j in range(len(ks) - 1)]
    if sigma == 0 or 0 in bs:
        return 0.0
    caps = [abs(b) for b in bs] + [abs(sigma)]
    s = sum(caps)
    if (s - len(caps)) % 2 != 0:
        return 0.0
    target = (s - len(caps)) // 2
    counts = np.zeros(target + 1, dtype=float)
    counts[0] = 1.0
    for cap in caps:
        new = np.cumsum(counts)
        shifted = np.zeros_like(new)
        if cap <= target:
            shifted[cap:] = new[:-cap]
        counts = new - shifted
    denom = 1.0
    for b in bs:
        denom *= abs(b)
    return 2.0 * np.pi * np.copysign(1.0, sigma) * float(counts[target]) / denom


def test_lattice_count_equals_the_four_call_count():
    rng = np.random.default_rng(22)
    nonzero = 0
    for _ in range(2000):
        ks = _random_tuple(rng, 3, 20)[1]
        want = _four_call_exact(ks)
        assert pk.integral_Sn_exact(ks) == want, ks
        nonzero += want != 0.0
    assert nonzero > 1500
    # caps whose product, about 2e297, is just below the scaled path's 2**1000
    ks = [300, -300] * 53 + [300, -299]
    assert pk.integral_Sn_exact(ks) == _four_call_exact(ks) != 0.0


@settings(max_examples=10, deadline=None)
@given(st.integers(-20, 20),
       st.lists(st.integers(1, 10).flatmap(lambda v: st.sampled_from([v, -v])),
                min_size=99, max_size=199)
       .filter(lambda d: len(d) % 2 == 1))
def test_property_long_lattice_counts_equal_the_four_call_count(k1, diffs):
    # 100 to 200 neighbour-distinct frequencies from k_1 and their steps
    ks = [k1]
    for d in diffs:
        ks.append(ks[-1] - d)
    assert pk.integral_Sn_exact(ks) == _four_call_exact(ks)


def test_a_lattice_count_past_1e308_stays_finite():
    """The count and prod |b_j| of this tuple both pass 1e308; the plain
    float count's ratio is inf / inf = NaN."""
    ks = [300, -300] * 59 + [300, -299]
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(_four_call_exact(ks))
    exact = pk.integral_Sn_exact(ks)
    assert math.isfinite(exact)
    assert abs(exact - pk.integral_Sn_quadrature(ks)) < 1e-8


# ---------------------------------------------------------- whole frequencies


_NOT_WHOLE = [2.9, 1.7, True, np.bool_(False), "3", float("nan"),
              float("inf"), None, 1 + 0j]


@pytest.mark.parametrize("bad", _NOT_WHOLE, ids=repr)
def test_fractional_or_non_numeric_frequencies_are_refused(bad):
    calls = [
        ("k", lambda: pk.integral_In(bad, (1, -1))),
        ("frequency", lambda: pk.integral_In(2, (bad, -1))),
        ("frequency", lambda: pk.integral_Sn_exact((3, bad))),
        ("frequency", lambda: pk.integral_Sn_quadrature((bad, 1))),
        ("k1", lambda: pk.integral_S1_closed(bad, 1)),
        ("k2", lambda: pk.integral_S1_closed(3, bad)),
    ]
    # a float is a number, refused as not whole; the rest are no numbers
    kind = "a whole number" if isinstance(bad, float) else "a number"
    for name, call in calls:
        with pytest.raises(ValueError, match="^%s must be %s, got %s$"
                           % (name, kind, re.escape(repr(bad)))):
            call()


@pytest.mark.parametrize("ks", [(), (1,), (1, 2, 3), [4, -2, 7, 1, 3]])
def test_an_odd_or_empty_frequency_list_is_refused(ks):
    for call in (lambda: pk.integral_In(0, ks),
                 lambda: pk.integral_Sn_exact(ks),
                 lambda: pk.integral_Sn_quadrature(ks)):
        with pytest.raises(ValueError, match="k_1..k_{2n} with n >= 1"):
            call()


def test_whole_floats_and_numpy_integers_are_accepted():
    assert pk.integral_In(2.0, (np.int64(1), -1.0)) == pk.integral_In(2, (1, -1))
    assert pk.integral_Sn_exact((np.int32(3), 1.0)) == \
        pk.integral_Sn_exact((3, 1))
    assert pk.integral_Sn_quadrature([np.float64(2.0), -5]) == \
        pk.integral_Sn_quadrature([2, -5])
    assert pk.integral_S1_closed(np.int16(1), -2.0) == \
        pk.integral_S1_closed(1, -2)
