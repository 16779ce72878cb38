"""Small-k expansion of the half-line S coefficient: `expansion_coeffs`.

S_r(x, k) = 1/2 + sum_n a_n (ik)^n near k = 0.  Orders up to 2 are closed
forms in Q and the brackets [+-], [-+], [+-+] over (`period_start(x)`, x],
prefixes of the alternating tails whose t = ik series of the one-period
matrix gives orders 3 and 4; the overlap of the two routes is checked.
"""

from __future__ import annotations

import math

import numpy as np

from .iterint import alternating_tail_values, cell_Q
from .potential import CellConstants, cell_constants
from .transfer import _series_coeffs

__all__ = ["expansion_coeffs"]


class ExtrapolationError(RuntimeError):
    """The bracket series of the one-period matrix disagrees with the
    closed forms at orders 0-2, or is not finite."""


MAX_RBAR_ORDER = 4


def _taylor_coeffs_a(pot, x: float, N: int) -> np.ndarray:
    """Taylor coefficients a_0 .. a_N of S_r(x, k) - 1/2 in powers of t = ik.

    S_r = 2 beta_+ / (alpha_+ - alpha_- + 2 beta_+ - 2iZ) from the
    one-period matrix at x, whose t-series come from the alternating
    brackets (`transfer._series_coeffs`).  On the one-period window
    beta_+ and alpha_+ - alpha_- vanish at t = 0, so t cancels from
    numerator and denominator; W = (Y^2 - 1)/t^2 starts at L0^2, and
    Z = -it sqrt(W) is the branch Z ~ k L0, so -2iZ = -2t sqrt(W).
    """
    ap, am, bp, _ = _series_coeffs(pot, x, pot.period_start(x), N + 2)
    Y = 0.5 * (ap + am)
    W = np.convolve(Y, Y)[2:N + 3]
    root = np.zeros(N + 1)  # sqrt(W), term by term
    root[0] = np.sqrt(W[0])
    for n in range(1, N + 1):
        root[n] = (W[n] - np.dot(root[1:n], root[n - 1:0:-1])) / (2.0 * root[0])
    num = 2.0 * bp[1:N + 2]
    den = (ap - am + 2.0 * bp)[1:N + 2] - 2.0 * root
    a = np.zeros(N + 1)  # num / den, term by term
    for n in range(N + 1):
        a[n] = (num[n] - np.dot(a[:n], den[n:0:-1])) / den[0]
    a[0] -= 0.5
    return a


def _own_cell_constants(pot, cc: CellConstants | None) -> CellConstants:
    """cell_constants(pot); a `cc` passed by a caller must equal it."""
    own = cell_constants(pot)
    if cc is not None and cc != own:
        raise ValueError("cc must equal cell_constants(pot)")
    return own


# largest disagreement of the series route with the closed forms at orders
# 0-2, relative to max(1, max |a_0..a_2|)
OVERLAP_TOL = 1e-7


def expansion_coeffs(pot, x: float, N: int, cc: CellConstants | None = None):
    """Coefficient arrays (a_0..a_N, s_0..s_N), 0 <= N <= MAX_RBAR_ORDER,
    of the half-line S expansion.

    Orders up to 2 come from the bracket-integral closed forms, higher ones
    from the bracket series of the one-period matrix (`_taylor_coeffs_a`),
    whose overlap with the closed forms is checked, so a non-finite or
    unsound series cannot pass silently.  Odd s entries are zero.  `cc`,
    if given, must be `cell_constants(pot)`.
    """
    if not 0 <= N <= MAX_RBAR_ORDER:
        raise ValueError(f"N must be in 0..{MAX_RBAR_ORDER}, got {N}")
    cc = _own_cell_constants(pot, cc)
    a = np.zeros(N + 1)
    pref = math.exp(pot.V(x) - cc.V0)
    a[0] = -0.5 * pref
    if N >= 1:
        start = pot.period_start(x)
        plus, minus = (alternating_tail_values(pot, start, x, sign, 3 if N <= 2 else N + 2)
                       for sign in (1, -1))
        if not (math.isfinite(plus[2]) and math.isfinite(minus[1])):
            raise OverflowError(f"brackets over ({start}, {x}] overflowed")
        a[1] = pref * (plus[1] - minus[1]) / (4.0 * cc.L0)
    if N >= 2:
        try:
            L0_4 = cc.L0 ** 4
        except OverflowError:
            raise OverflowError(f"L0**4 of the order-2 coefficient leaves the float "
                                f"range (cell scale L0 = {cc.L0:.6g})") from None
        a[2] = 0.5 * (pref / cc.L0 * (math.exp(-cc.V0) * plus[2]
                                      - (L0_4 / 4.0 + cell_Q(pot)) / (2.0 * cc.L0)))
    if N >= 3:
        a_series = _taylor_coeffs_a(pot, x, N)
        mismatch = float(np.abs(a_series[: 3] - a[: 3]).max())
        scale = max(1.0, float(np.abs(a[: 3]).max()))
        if not (mismatch <= OVERLAP_TOL * scale < math.inf
                and np.all(np.isfinite(a_series))):
            raise ExtrapolationError(
                f"series route disagrees with closed forms by {mismatch:.2e} "
                f"(tolerance {OVERLAP_TOL * scale:.2e}) at x = {x}, or is not finite there")
        a[3:] = a_series[3:]
    s = np.zeros(N + 1)
    s[0::2] = 2.0 * a[0::2]
    return a, s
