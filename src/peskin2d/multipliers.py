"""Principal-value multiplier integrals from the small-deviation expansion.

The expansion of the velocity about the circle family produces, at order n
in the deviation, principal-value integrals

    I_n(k; k_1..k_{2n}) = pv int_{-pi}^{pi} m(k - k_1, eta)
        prod_{j=1}^{2n-1} [ sin(b_j eta/2) / (b_j sin(eta/2)) ]
        e^{-i (k_1 + k_{2n}) eta / 2}  deta

with differences b_0 = k - k_1, b_j = k_j - k_{j+1}, and the multiplier

    m(k, eta) = [ 1 - e^{-ik eta/2} sin(k eta/2) / (k tan(eta/2)) ]
                / (2 sin(eta/2)).

Everything here reduces to integrals of *trigonometric polynomials*: with
s_b(eta) = sin(b eta/2)/sin(eta/2) (a degree-(|b|-1) cosine polynomial up
to sign) one can rewrite, with sigma = k_1 + k_{2n},

    I_n = -(i/2) * (I'_n - I''_n),
    I'_n  = int s_sigma(eta) prod_{j=1}^{2n-1} s_{b_j}(eta)/b_j  deta,
    I''_n = int cos(eta/2) s_{k + k_{2n}}(eta) prod_{j=0}^{2n-1} s_{b_j}(eta)/b_j deta,

both of which the uniform trapezoid rule integrates *exactly* once the
node count exceeds the integrand bandwidth.  I'_n additionally has the
combinatorial closed form

    I'_n = 2 pi sgn(sigma) T / prod_{j=1}^{2n-1} |b_j|,

where T counts lattice points (m_0..m_{2n-1}), 0 <= m_j <= B_j - 1, with
sum m_j = (sum B_j)/2 - n, for B_j = |b_j| (j < 2n-1 shifted by one index)
and B_{2n-1} = |sigma|.  Since T <= prod_{j=1}^{2n-1} B_j, every |I'_n|
(and by the same counting |I_n|) is bounded by 2 pi.
"""

import functools
import math

import numpy as np

from .spectral import _WHOLE, _number, theta_grid

__all__ = ["integral_In", "integral_S1_closed", "integral_Sn_exact",
           "integral_Sn_quadrature"]

_CACHED_NODES = 256  # grids and factor rows of up to this many nodes are kept
_CACHED_VALUES = 1 << 17  # factor-row values kept at most (1 MB)


def _nodes_for(fmax):
    n = 64
    while n <= 2 * fmax + 2:
        n *= 2
    return n


@functools.lru_cache(maxsize=None)  # called for n <= _CACHED_NODES: 3 keys
def _grid(n):
    """Read-only rows (eta, sin(eta/2), cos(eta/2)) on the n trapezoid nodes
    of [-pi, pi).  eta is exactly 0 at index n/2; there sin(eta/2) holds 1
    in place of 0, and the row builder writes the limit."""
    eta = theta_grid(n)
    grid = np.stack([eta, np.sin(0.5 * eta), np.cos(0.5 * eta)])
    grid[1, n // 2] = 1.0
    grid.flags.writeable = False
    return tuple(grid)  # its three rows, read-only views


def _row(b, n, divided, grid):
    """The read-only factor row s_b = sin(b eta/2)/sin(eta/2) on the n-node
    `grid`, with the eta = 0 limit b, divided by b when `divided`."""
    row = np.sin(np.multiply(0.5 * b, grid[0]))
    row /= grid[1]
    row[n // 2] = b
    if divided:
        row /= b
    row.flags.writeable = False
    return row


@functools.lru_cache(maxsize=_CACHED_VALUES // _CACHED_NODES)
def _cached_row(b, n, divided):
    """`_row` on the kept grid of n <= _CACHED_NODES nodes."""
    return _row(b, n, divided, _grid(n))


def _product_quadrature(lead, bs, half_cos):
    """Trapezoid integral of [cos(eta/2)] s_lead(eta) prod_b s_b(eta)/b over
    [-pi, pi), with enough nodes to be exact for the integrand's bandwidth
    (`half_cos` adds the cos(eta/2) factor, which raises it by 1/2).

    The factor rows, all off one grid, are multiplied in order into one
    accumulator of n values.  Up to _CACHED_NODES nodes the grid and rows
    are the cached ones; above, the grid and rows are built for this call
    and dropped.  lead and every b != 0."""
    fmax = 0.5 * (sum(abs(b) for b in bs) + abs(lead)) - 0.5 * len(bs) - 0.5
    if half_cos:
        fmax += 0.5
    n = _nodes_for(int(math.ceil(fmax)))
    cached = n <= _CACHED_NODES
    grid = _grid(n) if cached else _grid.__wrapped__(n)  # the uncached build
    row = _cached_row if cached else functools.partial(_row, grid=grid)
    vals = row(lead, n, False) * (grid[2] if half_cos else 1.0)
    for b in bs:
        vals *= row(b, n, True)
    return float(vals.sum()) * (2.0 * np.pi / n)


def _parse(ks):
    """The whole frequencies k_1 .. k_{2n} and their differences
    [b_1 .. b_{2n-1}], b_j = k_j - k_{j+1}; ValueError unless their number
    is even and positive."""
    ks = [_number(v, "frequency", domain=_WHOLE) for v in ks]
    if len(ks) % 2 != 0 or not ks:
        raise ValueError("need frequencies k_1..k_{2n} with n >= 1")
    return ks, [ks[j] - ks[j + 1] for j in range(len(ks) - 1)]


def integral_Sn_quadrature(ks):
    """I'_n by bandwidth-exact trapezoid quadrature.

    ks : the 2n frequencies (k_1 .. k_{2n}).  Returns a float (the
    integrand is even, hence the integral real).
    """
    ks, bs = _parse(ks)
    sigma = ks[0] + ks[-1]
    if sigma == 0 or 0 in bs:  # a zero factor: I'_n vanishes
        return 0.0
    return _product_quadrature(sigma, bs, False)


def integral_In(k, ks):
    """The full pv integral I_n(k; k_1..k_{2n}) = -(i/2)(I'_n - I''_n).

    Returns a purely imaginary complex number.  Conventions: the integral
    vanishes when k = k_1 or when any two consecutive k_j coincide (a
    difference factor degenerates and pairs with the pv to give zero).
    """
    k = _number(k, "k", domain=_WHOLE)
    ks, diffs = _parse(ks)
    bs = [k - ks[0]] + diffs
    if 0 in bs:
        return 0j
    sigma, sig2 = ks[0] + ks[-1], k + ks[-1]
    ip = _product_quadrature(sigma, diffs, False) if sigma else 0.0
    idp = _product_quadrature(sig2, bs, True) if sig2 else 0.0
    return -0.5j * (ip - idp)


def integral_Sn_exact(ks):
    """Closed form for I'_n by counting bounded lattice compositions.

    T = #{ (m_1..m_{2n-1}, m_sigma) : 0 <= m_j < B_j, sum m_j = S/2 - n }
    with B_j = |b_j|, B_sigma = |sigma|, S = sum B_j + B_sigma; then
    I'_n = 2 pi sgn(sigma) T / prod B_j  (product over the b_j only).
    """
    ks, bs = _parse(ks)
    sigma = ks[0] + ks[-1]
    if sigma == 0 or 0 in bs:  # a zero factor: I'_n vanishes
        return 0.0
    caps = [abs(b) for b in bs] + [abs(sigma)]
    # Each factor sin(B phi)/sin(phi) = sum over exponents B-1-2m, m=0..B-1;
    # the product's constant Fourier mode needs sum(B_j - 1 - 2 m_j) = 0.
    # exact: sum(caps) = 2 k_1 (mod 2) and there are 2n caps, so it is even
    target = (sum(caps) - len(caps)) // 2
    # T <= prod(caps): past 2**1000, carry T / prod(caps) so no float overflows
    scaled = math.prod(caps) > 2 ** 1000
    # digit DP: number of (m_j), 0 <= m_j <= caps_j - 1, summing to target
    counts = np.zeros(target + 1, dtype=float)
    counts[0] = 1.0
    for cap in caps:
        np.cumsum(counts, out=counts)
        counts[cap:] -= counts[:-cap]  # numpy buffers the overlapping read
        if scaled:
            counts /= cap
    t = float(counts[target])
    denom = 1.0 / abs(sigma) if scaled else math.prod(map(abs, bs), start=1.0)
    return 2.0 * np.pi * math.copysign(1.0, sigma) * t / denom


def integral_S1_closed(k1, k2):
    """n = 1 special case: I'_1 = 2 pi sgn(k1+k2) min(|k1-k2|, |k1+k2|)/|k1-k2|."""
    k1 = _number(k1, "k1", domain=_WHOLE)
    k2 = _number(k2, "k2", domain=_WHOLE)
    if k1 == k2 or k1 + k2 == 0:
        return 0.0
    return (
        2.0
        * np.pi
        * math.copysign(1.0, k1 + k2)
        * min(abs(k1 - k2), abs(k1 + k2))
        / abs(k1 - k2)
    )
