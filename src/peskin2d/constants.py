"""Explicit constants chain, smallness threshold, and energy certificates.

Every bound in the nonlinear stability argument is tracked through an
explicit chain of constants C1..C17, D1..D5, each a nondecreasing function
of the analytic deviation norm x = ||X||_{F^{1,1}_nu} that equals 1 at
x = 0 (with contrast a_mu = 0 and analyticity weight nu_m = 0).  The chain
culminates in the dissipation-vs-nonlinearity margin

    script_C = 1 - 4 nu_m / a_e - 676 sqrt2 D5(x) x / (1 - a_mu),

which must be positive for the energy balance

    x(t) + (a_e/4) script_C  int_0^t ||X||_{F^{2,1}_nu} dtau  <=  x(0)

and the decay  x(t) <= x(0) exp(-(a_e/4) script_C t)  to hold.  The
medium-size threshold k(a_mu) is the positive root of the margin at
nu_m = 0; below it the certificate applies.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .spectral import _CONTRAST, _NONNEGATIVE, _POSITIVE, _number

__all__ = ["OutOfRegimeError", "constants_chain", "energy_certificate",
           "k_threshold", "margin", "threshold_lower_bound"]

_SQRT2 = math.sqrt(2.0)
_MARGIN_SLOPE = 676.0 * _SQRT2  # coefficient of D5(x) x/(1-a_mu) in the margin


class OutOfRegimeError(ValueError):
    """The constants chain left its domain (a denominator hit zero)."""

    def __init__(self, constant_name, message):
        super().__init__(message)
        self.constant_name = constant_name


@dataclass(frozen=True)
class ConstantsReport:
    """The full chain at one evaluation point."""

    x: float
    a_mu: float
    nu_m: float
    C: dict = field(repr=False)   # {1: C1, ..., 17: C17}
    D: dict = field(repr=False)   # {1: D1, ..., 5: D5}
    script_C: float | None        # margin; None when nu_m > 0 and a_e unknown
    tilde_C: float | None         # center-drift constant; None if margin <= 0

    def as_flat_dict(self):
        out = {}  # the fields in order, C and D spelled out as C1.. and D1..
        for f in fields(self):
            value = getattr(self, f.name)
            out.update({f.name + str(i): v for i, v in sorted(value.items())}
                       if isinstance(value, dict) else {f.name: value})
        return out


def _chain(x, a_mu, nu_m):
    """The point (x, a_mu, nu_m) as floats (`_number`), and (C1..C17) and
    (D1..D5) as tuples there; raises as `constants_chain` does, a_e aside."""
    x = _number(x, "x", domain=_NONNEGATIVE)
    a_mu = _number(a_mu, "a_mu", domain=_CONTRAST)
    nu_m = _number(nu_m, "nu_m", domain=_NONNEGATIVE)

    e1 = math.exp(nu_m)
    e2 = math.exp(2 * nu_m)
    e3 = math.exp(3 * nu_m)
    e4 = math.exp(4 * nu_m)
    e5 = math.exp(5 * nu_m)
    am = abs(a_mu)
    mu_ratio = am * (1 + am) / ((1 - a_mu) * (1 + a_mu))

    den1 = 1.0 - 0.5 * x * x
    if den1 <= 0:
        raise OutOfRegimeError("C1", "x = %.6g >= sqrt(2): C1 undefined" % x)
    c1 = 1.0 / math.sqrt(den1)
    c8 = math.sqrt(1.0 + 0.5 * x * x)

    # the recurring bracket 1 + (1/2sqrt2) e^{-nu_m} C1 x
    q = 1.0 + (1.0 / (2.0 * _SQRT2)) / e1 * c1 * x
    den2 = 1.0 - 2.0 * _SQRT2 * e1 * c1 * x * q
    if den2 <= 0:
        raise OutOfRegimeError("C2", "x = %.6g too large: C2 denominator <= 0" % x)
    c2 = q / den2
    c3 = c2 / q
    c4 = (2.0 / 9.0) * (4.0 * e2 * c2 + 0.5 * c3)
    c5 = 1.0 + 2.0 * _SQRT2 * e1 * c1 * x
    c6 = (1.0 / 9.0) * (1.0 + 8.0 * e2 * q * c2)
    # C7 uses 1/C8 (not C1) inside its bracket
    q8 = 1.0 + (1.0 / (2.0 * _SQRT2)) / (c8 * e1) * x
    c7 = (16.0 / 17.0) * e2 * c2 * c3 * (
        1.0 - (_SQRT2 / c8) * e1 * x * q8
    ) + c3 * c3 / 17.0
    c9 = (2.0 / 147.0) * (
        4.5 * c4
        + c5
        + 16.0 * e2
        + 18.0 * e2 * c6
        + 34.0 * e2 * c7
        + (_SQRT2 + 18.0 * _SQRT2 * c6 + 34.0 * _SQRT2 * c7) * e1 * c1 * x
        + (9.0 * c6 + 17.0 * c7) * (c1 * x) ** 2
    )
    c10 = (4.0 / 9.0) * (
        0.25 + 2.0 * e2 + 11.0 * _SQRT2 * e3 * c1 * x + 73.5 * c9 * (c1 * x) ** 2
    )
    c11 = (1.0 / (11.0 * _SQRT2)) * (11.0 * _SQRT2 * e3 + 73.5 * c9 * c1 * x)
    c12 = (1.0 / 11.0) * (11.0 * e2 + 4.0 * _SQRT2 * e1 * c1 * x + (c1 * x) ** 2)
    c13 = 0.5 * (2.0 * e4 + 6.0 * _SQRT2 * e3 * c1 * x + 11.0 * c12 * (c1 * x) ** 2)
    c14 = (1.0 / 104.0) * (
        72.0 * c6
        + 32.0 * e2
        + 144.0 * _SQRT2 * e1 * c6 * c1 * x
        + 324.0 * c6 * c6 * (c1 * x) ** 2
    )
    c15 = (1.0 / 222.0) * (
        104.0 * c13 * c14
        + 8.0 * _SQRT2 * e1 * (6.0 * _SQRT2 * e3 + 11.0 * c12 * c1 * x)
        + 22.0 * c12
    )
    c16 = (1.0 / (28.0 * _SQRT2)) * (28.0 * _SQRT2 * e5 + 222.0 * c15 * c1 * x)
    den17 = 1.0 - 56.0 * _SQRT2 * mu_ratio * c16 * c1 * x
    if den17 <= 0:
        raise OutOfRegimeError(
            "C17", "x = %.6g too large at a_mu = %.3g: C17 denominator <= 0"
            % (x, a_mu)
        )
    c17 = 1.0 / den17

    d1 = c11 * c1
    d2 = c9 * c1 * c1
    d3 = c10
    d4 = (1.0 / 1000.0) * c1 * c17 * (
        112.0 * (1.0 - a_mu + am) * c16 + 888.0 * e1 * c8 * c1 * c15
    )
    d5 = (1.0 / 169.0) * (
        22.0 * (1.0 - a_mu + am) * d1
        + 147.0 * e1 * d2 * c8
        + 2250.0 * mu_ratio * d3 * d4
    )

    return ((x, a_mu, nu_m), (c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11,
            c12, c13, c14, c15, c16, c17), (d1, d2, d3, d4, d5))


def _script_c(x, a_mu, nu_m, a_e, d5):
    """The margin from D5 at the chain's point; None when nu_m > 0 and a_e
    is None.  Raises ValueError unless a given a_e is positive and finite."""
    a_e = None if a_e is None else _number(a_e, "a_e", domain=_POSITIVE)
    nonlinear_term = _MARGIN_SLOPE * d5 * x / (1.0 - a_mu)
    if nu_m == 0.0:
        return 1.0 - nonlinear_term
    if a_e is None:
        return None
    return 1.0 - 4.0 * nu_m / a_e - nonlinear_term


def constants_chain(x, a_mu=0.0, nu_m=0.0, a_e=None):
    """Evaluate C1..C17, D1..D5 and the margin at deviation norm x.

    Raises ValueError on a non-finite, negative or out-of-range input, and
    OutOfRegimeError (naming the first failing constant) when x is too
    large for the chain: C1 needs x < sqrt2, C2 a smallness condition, and
    C17 another one that takes over near |a_mu| -> 1.
    """
    (x, a_mu, nu_m), cs, ds = _chain(x, a_mu, nu_m)
    script_c = _script_c(x, a_mu, nu_m, a_e, ds[4])
    tilde_c = None
    if script_c is not None and script_c > 0:
        # center-drift constant, with D5 standing in for its F^{0,1} analogue
        tilde_c = ds[4] / ((1.0 - a_mu) * script_c)
    return ConstantsReport(x, a_mu, nu_m, dict(enumerate(cs, 1)),
                           dict(enumerate(ds, 1)), script_c, tilde_c)


def margin(x, a_mu, nu_m=0.0, a_e=None):
    """1 - 4 nu_m/a_e - 676 sqrt2 D5(x) x/(1-a_mu); the certificate needs > 0.
    The same value, and the same errors, as constants_chain(...).script_C."""
    (x, a_mu, nu_m), _, ds = _chain(x, a_mu, nu_m)
    return _script_c(x, a_mu, nu_m, a_e, ds[4])


def threshold_lower_bound(a_mu):
    """Closed form (1-a_mu)/(676 sqrt2 D5(0)), D5(0) taken from the chain at
    x = 0: the root of the margin with D5 frozen there.  D5(0) is 1 only at
    a_mu = 0 (15.9 at a_mu = -0.5, 14.3 at 0.5 and 308 at -0.95).  Since D5
    increases with x, the margin is not positive at the closed form, so this
    is an *upper* bound on k(a_mu); the name is kept for its callers."""
    (_, a_mu, _), _, ds = _chain(0.0, a_mu, 0.0)
    return (1.0 - a_mu) / (_MARGIN_SLOPE * ds[4])


def k_threshold(a_mu):
    """Root of the margin: largest x with 1 - 676 sqrt2 D5(x) x/(1-a_mu) > 0.

    Returns a dict with the root `k`, the closed form under the key
    `lower_bound` (an upper bound on k, see `threshold_lower_bound`), and
    the `residual` |margin(k)|.  k is the fixed point of x = c/D5(x),
    c = (1-a_mu)/(676 sqrt2), iterated as x <- x/(1 - margin(x)) from the
    closed form c/D5(0) (the first iterate from x = 0); a positive margin
    there raises a RuntimeError.  D5 increases with x, so the iterates
    alternate around k: a positive margin makes an iterate a lower bound,
    any other an upper one.  The loop stops when the next iterate comes
    within 1e-15 (relative) of an end of the bracket, one of which is the
    last iterate, or falls on or outside it (round-off).  The iterates stay
    in the chain's domain: they lie in (0, closed form], the closed form is
    at most 1.05e-3 for every a_mu in (-1, 1), and there the terms that C2's
    and C17's denominators subtract from 1 stay below 0.0030 and 0.0102.
    """
    closed = threshold_lower_bound(a_mu)
    m = margin(closed, a_mu)
    if m > 0.0:
        raise RuntimeError("margin %.3e positive at the closed-form bound %.6e"
                           % (m, closed))
    lo, hi, x = 0.0, closed, closed / (1.0 - m)
    while min(x - lo, hi - x) > 1e-15 * hi:
        m = margin(x, a_mu)
        if m > 0.0:
            lo = x
        else:
            hi = x
        x = x / (1.0 - m)
    return {"k": x, "lower_bound": closed, "residual": abs(margin(x, a_mu))}


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of checking a trajectory against the a-priori estimates."""

    script_C: float
    x0: float
    balance_pass: bool
    balance_margin: float   # max over t > t0 of LHS/x0 - 1 (negative = slack)
    decay_pass: bool
    decay_margin: float     # max over t > t0 of norm/(x0 e^{-rt}) - 1
    center_pass: bool       # advisory (uses the D5 stand-in constant)
    center_margin: float
    ok: bool

    def lines(self):
        def verdict(b):
            return "PASS" if b else "FAIL"

        return [
            "margin script_C = %.6f  (x0 = %.6g)" % (self.script_C, self.x0),
            "balance  %s  (worst relative excess %+.3e)"
            % (verdict(self.balance_pass), self.balance_margin),
            "decay    %s  (worst relative excess %+.3e)"
            % (verdict(self.decay_pass), self.decay_margin),
            "center   %s  (advisory; worst excess %+.3e)"
            % (verdict(self.center_pass), self.center_margin),
        ]


def balance_lhs(t, n11, n21, rate):
    """Left side of the energy balance at every recorded row,

        x(t) + rate int_{t0}^t ||X||_{F^{2,1}_nu} dtau,   rate = (a_e/4) script_C,

    with the integral a trapezoid sum over the rows (t, n11 = F^{1,1} norm,
    n21 = F^{2,1} norm).  A NaN rate (no certified margin) gives NaN rows.
    """
    t = np.asarray(t, dtype=float)
    n21 = np.asarray(n21, dtype=float)
    cumint = np.concatenate(
        [[0.0], np.cumsum(0.5 * (n21[1:] + n21[:-1]) * np.diff(t))]
    )
    return np.asarray(n11, dtype=float) + rate * cumint


def energy_certificate(record, params, x0, nu_m=0.0, slack=0.01):
    """Check the balance inequality, the decay bound, and the center bound.

    `record` needs arrays t, norm_f11, norm_f21, center_x, center_y (a
    TrajectoryRecord works); `x0` is the run's initial deviation norm.
    The balance left side is `balance_lhs` over the recorded rows.
    The center check is advisory: its constant borrows D5 in place of the
    (unexhibited) zero-mode analogue, so it does not affect `ok`.
    """
    t = np.asarray(record.t, dtype=float)
    n11 = np.asarray(record.norm_f11, dtype=float)
    n21 = np.asarray(record.norm_f21, dtype=float)
    if t.size < 2:
        raise ValueError("need at least two recorded rows")
    x0 = _number(x0, "x0", domain=_NONNEGATIVE)
    a_e = params.a_e
    rep = constants_chain(x0, params.a_mu, nu_m, a_e)
    sc = rep.script_C
    if sc is None or sc <= 0:
        raise OutOfRegimeError(
            "script_C", "margin not positive at x0 = %.6g (got %s)" % (x0, sc)
        )
    rate = 0.25 * a_e * sc

    lhs = balance_lhs(t, n11, n21, rate)
    bound = x0 * np.exp(-rate * (t - t[0]))
    if x0 > 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(bound > 0, n11 / bound, 0.0)
        balance_excess, decay_excess = lhs / x0 - 1.0, ratios - 1.0
    else:
        balance_excess = decay_excess = np.zeros_like(t)
    # the margins report the rows after t0, where the t0 row (0 when x0 is
    # the first norm) cannot hide the slack; the verdicts read every row
    balance_margin = float(np.max(balance_excess[1:]))
    balance_pass = float(np.max(balance_excess)) <= slack
    decay_margin = float(np.max(decay_excess[1:]))
    decay_pass = float(np.max(decay_excess)) <= slack

    cx = np.asarray(record.center_x, dtype=float)
    cy = np.asarray(record.center_y, dtype=float)
    drift = np.hypot(cx, cy)
    allowed = drift[0] + rep.tilde_C * x0 * x0
    center_margin = float(np.max(drift) - allowed)
    center_pass = center_margin <= slack * max(1.0, allowed)

    return CertificateReport(
        script_C=sc,
        x0=x0,
        balance_pass=balance_pass,
        balance_margin=balance_margin,
        decay_pass=decay_pass,
        decay_margin=decay_margin,
        center_pass=center_pass,
        center_margin=center_margin,
        ok=balance_pass and decay_pass,
    )
