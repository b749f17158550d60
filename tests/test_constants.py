import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import peskin2d as pk


def test_chain_is_unity_at_origin():
    rep = pk.constants_chain(0.0, 0.0, 0.0)
    for i in range(1, 18):
        assert rep.C[i] == pytest.approx(1.0, abs=1e-12), f"C{i}"
    for i in range(1, 6):
        assert rep.D[i] == pytest.approx(1.0, abs=1e-12), f"D{i}"


def test_first_links_closed_form():
    # C1 = 1/sqrt(1 - x^2/2), C8 = sqrt(1 + x^2/2)
    x = 0.1
    rep = pk.constants_chain(x, 0.0, 0.0)
    assert rep.C[1] == pytest.approx(1.0 / math.sqrt(1 - x * x / 2), rel=1e-14)
    assert rep.C[8] == pytest.approx(math.sqrt(1 + x * x / 2), rel=1e-14)


def test_monotone_in_x():
    xs = np.linspace(0.0, 2e-3, 40)
    prev = None
    for x in xs:
        d5 = pk.constants_chain(float(x), 0.3, 0.2).D[5]
        if prev is not None:
            assert d5 >= prev
        prev = d5


def test_out_of_regime_names_the_guard():
    with pytest.raises(pk.OutOfRegimeError) as e1:
        pk.constants_chain(1.5, 0.0, 0.0)   # C1 blows up at x = sqrt(2)
    assert e1.value.constant_name == "C1"
    with pytest.raises(pk.OutOfRegimeError) as e2:
        pk.constants_chain(0.5, 0.0, 0.0)   # geometric factor in C2 exceeds 1 first
    assert e2.value.constant_name == "C2"
    with pytest.raises(pk.OutOfRegimeError) as e3:
        pk.constants_chain(5e-3, 0.97, 0.0)  # contrast-heavy guard
    assert e3.value.constant_name == "C17"


def test_margin_frozen_value():
    # script C at (x, a_mu, nu_m) = (5e-4, 0, 0), a_e = 1
    val = pk.margin(5e-4, 0.0, 0.0, a_e=1.0)
    assert val == pytest.approx(0.5209787083495983, rel=1e-12)


def test_margin_needs_elastic_scale_with_weight():
    rep = pk.constants_chain(1e-4, 0.0, nu_m=0.1)  # no a_e given
    assert rep.script_C is None
    rep2 = pk.constants_chain(1e-4, 0.0, nu_m=0.1, a_e=1.0)
    assert rep2.script_C is not None


def test_threshold_lower_bound_at_zero():
    assert pk.threshold_lower_bound(0.0) == pytest.approx(
        1.0 / (676 * math.sqrt(2.0)), rel=1e-14)


def test_threshold_frozen_values():
    expected = {
        -0.95: 6.556172e-6,
        -0.5: 9.764994e-5,
        0.0: 1.041390e-3,
        0.5: 3.642645e-5,
        0.95: 2.058782e-7,
    }
    for a_mu, want in expected.items():
        out = pk.k_threshold(a_mu)
        assert out["k"] == pytest.approx(want, rel=1e-5)
        assert abs(out["residual"]) <= 1e-9
        # the root of the margin always sits below the closed-form bound,
        # because that bound solves the same equation with D5 frozen at 0
        # while D5 is strictly increasing
        assert out["k"] < out["lower_bound"]


def test_threshold_brackets_below_the_closed_form(monkeypatch):
    """The closed form is an upper bound on k: the margin is not positive
    there, the iteration stays inside [0, closed form], and a closed form
    with a positive margin is an error, not a silent re-bracketing."""
    for a_mu in np.linspace(-0.95, 0.95, 9):
        out = pk.k_threshold(float(a_mu))
        assert pk.margin(out["lower_bound"], float(a_mu)) <= 0.0
        assert 0.0 < out["k"] < out["lower_bound"]
        assert out["residual"] <= 1e-12
    monkeypatch.setattr(pk.constants, "threshold_lower_bound",
                        lambda a_mu: 1e-9)
    with pytest.raises(RuntimeError):
        pk.k_threshold(0.0)


def test_closed_form_frozen_values():
    """(1-a_mu)/(676 sqrt2 D5(0)), with D5(0) from the chain, against values
    of an independent hand expansion of D5(0)."""
    expected = {
        -0.95: 6.6217402863813845e-06,
        -0.5: 9.8464553637191e-05,
        0.5: 3.653920944535694e-05,
    }
    for a_mu, want in expected.items():
        assert pk.threshold_lower_bound(a_mu) == pytest.approx(want, rel=1e-14)


def test_threshold_takes_at_most_ten_margin_calls(monkeypatch):
    calls = []
    real = pk.constants.margin

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pk.constants, "margin", counted)
    for a_mu in list(np.linspace(-0.999, 0.999, 201)) + [0.0]:
        calls.clear()
        pk.k_threshold(float(a_mu))
        assert 2 <= len(calls) <= 10, (a_mu, len(calls))


@settings(max_examples=200, deadline=None)
@given(st.floats(-0.999, 0.999))
def test_threshold_is_the_sign_change_of_the_margin(a_mu):
    k = pk.k_threshold(a_mu)["k"]
    assert pk.margin(k * (1 - 1e-12), a_mu) > 0.0 >= pk.margin(
        k * (1 + 1e-12), a_mu)


def test_threshold_vanishes_toward_extreme_contrast():
    ks = [pk.k_threshold(a)["k"] for a in (0.0, 0.5, 0.9, 0.95)]
    assert all(ks[i] > ks[i + 1] for i in range(len(ks) - 1))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("x, a_mu, nu_m, a_e", [
    (_NAN, 0.0, 0.0, None),
    (_INF, 0.0, 0.0, None),
    (1e-3, 0.0, _NAN, 1.0),
    (1e-3, 0.0, _INF, 1.0),
    (1e-3, 0.0, 0.05, _NAN),
    (1e-3, 0.0, 0.05, _INF),
    (1e-3, 0.0, 0.0, _NAN),
])
def test_non_finite_input_is_refused(x, a_mu, nu_m, a_e):
    for call in (pk.constants_chain, pk.margin):
        with pytest.raises(ValueError, match="finite") as exc:
            call(x, a_mu, nu_m, a_e)
        assert not isinstance(exc.value, pk.OutOfRegimeError)


def test_a_contrast_outside_the_open_interval_is_refused():
    with pytest.raises(ValueError, match=r"^a_mu must be in \(-1, 1\), got 1\.5$"):
        pk.constants_chain(1e-4, 1.5)


def _chain_outcome(call, *args):
    try:
        return call(*args)
    except pk.OutOfRegimeError as exc:
        return exc.constant_name


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.5), st.floats(-0.999, 0.999), st.floats(0.0, 0.2),
       st.none() | st.floats(0.01, 10.0))
def test_property_margin_is_the_reports_script_C(x, a_mu, nu_m, a_e):
    report = _chain_outcome(pk.constants_chain, x, a_mu, nu_m, a_e)
    got = _chain_outcome(pk.margin, x, a_mu, nu_m, a_e)
    want = report if isinstance(report, str) else report.script_C
    assert type(got) is type(want) and got == want


def test_flat_dict_keys():
    d = pk.constants_chain(1e-4, 0.2, 0.0, a_e=1.0).as_flat_dict()
    assert list(d) == ["x", "a_mu", "nu_m", *("C%d" % i for i in range(1, 18)),
                       *("D%d" % i for i in range(1, 6)), "script_C", "tilde_C"]
    assert d["tilde_C"] == pytest.approx(
        d["D5"] / ((1 - 0.2) * d["script_C"]), rel=1e-12)


# --------------------------------------------------------- energy certificate


class _FakeRecord:
    def __init__(self, t, n11, n21, cx=None, cy=None):
        self.t = np.asarray(t, float)
        self.norm_f11 = np.asarray(n11, float)
        self.norm_f21 = np.asarray(n21, float)
        self.center_x = np.zeros_like(self.t) if cx is None else np.asarray(cx)
        self.center_y = np.zeros_like(self.t) if cy is None else np.asarray(cy)


def test_certificate_accepts_true_decay():
    params = pk.PhysicsParams.from_contrast(0.0, 1.0)
    x0 = 5e-4
    sc = pk.margin(x0, 0.0, 0.0, a_e=1.0)
    rate = 0.25 * 1.0 * sc
    t = np.linspace(0, 10, 2001)
    n11 = x0 * np.exp(-rate * t)
    rec = _FakeRecord(t, n11, n11)  # weighted norm below plain norm: fine
    cert = pk.energy_certificate(rec, params, x0=x0)
    # margins measure excess over the bound; pass means <= slack
    assert cert.ok
    assert cert.balance_margin <= 0.01
    assert cert.decay_margin <= 0.01


def test_certificate_rejects_growth():
    params = pk.PhysicsParams.from_contrast(0.0, 1.0)
    x0 = 5e-4
    t = np.linspace(0, 5, 501)
    n11 = x0 * np.exp(+0.05 * t)  # growing: must fail both checks
    rec = _FakeRecord(t, n11, n11)
    cert = pk.energy_certificate(rec, params, x0=x0)
    assert not cert.ok
    assert cert.decay_margin > 0.01


def test_certificate_margins_skip_the_first_row():
    """The margins report rows after t0, so true decay shows its slack; the
    verdicts still read every row, t0 included."""
    params = pk.PhysicsParams.from_contrast(0.0, 1.0)
    x0 = 5e-4
    t = np.linspace(0, 10, 101)
    n11 = x0 * np.exp(-0.5 * pk.margin(x0, 0.0, 0.0, a_e=1.0) * t)
    cert = pk.energy_certificate(_FakeRecord(t, n11, n11), params, x0=x0)
    assert cert.ok
    assert cert.balance_margin < 0.0 and cert.decay_margin < 0.0
    # an x0 2% below the first norm: only the t0 row breaks the bounds
    n11 = np.r_[1e-4, np.full(10, 0.5e-4)]
    low = pk.energy_certificate(_FakeRecord(np.linspace(0, 1, 11), n11,
                                            np.zeros(11)),
                                params, x0=0.98e-4)
    assert low.balance_margin < 0.0 and low.decay_margin < 0.0
    assert not low.balance_pass and not low.decay_pass and not low.ok


def test_certificate_needs_two_rows():
    params = pk.PhysicsParams.from_contrast(0.0, 1.0)
    with pytest.raises(ValueError, match="need at least two recorded rows"):
        pk.energy_certificate(_FakeRecord([0.0], [1e-4], [1e-4]), params,
                              x0=1e-4)


def test_certificate_names_x0_outside_its_domain():
    """A negative x0 is refused under its own name, not as the chain's x."""
    params = pk.PhysicsParams.from_contrast(0.0, 1.0)
    with pytest.raises(ValueError, match=r"^x0 must be nonnegative and "
                                         r"finite, got -0\.001$"):
        pk.energy_certificate(_FakeRecord([0.0, 1.0], [1e-4] * 2, [1e-4] * 2),
                              params, x0=-1e-3)


def test_certificate_above_the_threshold_names_script_C():
    params = pk.PhysicsParams.from_contrast(0.0, 1.0)
    t = np.linspace(0, 1, 11)
    x0 = 2.0 * pk.k_threshold(0.0)["k"]
    with pytest.raises(pk.OutOfRegimeError, match="margin not positive") as exc:
        pk.energy_certificate(_FakeRecord(t, np.full(11, x0), np.full(11, x0)),
                              params, x0=x0)
    assert exc.value.constant_name == "script_C"


def test_certificate_of_a_circle_has_zero_excess():
    params = pk.PhysicsParams.from_contrast(0.0, 1.0)
    t = np.linspace(0, 1, 11)
    cert = pk.energy_certificate(_FakeRecord(t, np.zeros(11), np.zeros(11)),
                                 params, x0=0.0)
    assert cert.balance_margin == cert.decay_margin == 0.0
    assert cert.ok


def test_certificate_lines_are_printable():
    params = pk.PhysicsParams.from_contrast(0.0, 1.0)
    t = np.linspace(0, 1, 11)
    rec = _FakeRecord(t, np.full(11, 1e-4), np.full(11, 1e-4))
    cert = pk.energy_certificate(rec, params, x0=2e-4)
    txt = "\n".join(cert.lines())
    assert "balance" in txt and "decay" in txt
