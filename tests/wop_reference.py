"""Reference routes for the expansion tests: the W-only factor operator of
the expansion algebra, the W -> -infinity limit extraction run on numeric
coefficient profiles, and the contour route to the Taylor coefficients of
S_r.  The package computes expansion coefficients by closed forms and the
bracket series of the one-period matrix; the tests use these to check the
grid operators, the numeric profiles and the series against them.
"""

import math

import numpy as np
from numpy.polynomial import chebyshev as _np_cheb

from bloch_green.halfline import _s_values
from bloch_green.potential import cell_constants
from bloch_green.transfer import evolve
from bloch_green.wop import ExtrapolationError
from wop_engine import WGridFunction, WopGrid


def k_op(grid: WopGrid, sigma: int, sigma_prime: int, values: np.ndarray) -> np.ndarray:
    """The W-only factor operator of the expansion algebra.

    Applies e^{sigma W}(1 + sigma d/dW), multiplies by e^{sigma' W}, centers
    at V0 and divides by sinh(V0 - W) with the removable point handled by
    the interpolant.  Acts along the last axis.
    """
    w = grid.w_nodes
    j = np.exp(sigma * w) * (values + sigma * grid.w_derivative(values))
    t = np.exp(sigma_prime * w) * j
    flat = t.reshape(-1, w.size)
    out = np.empty_like(flat)
    for i, row in enumerate(flat):
        out[i] = -sigma_prime * grid.ratio_D(row)
    return out.reshape(t.shape)


def limit_profile(grid: WopGrid, rb: WGridFunction, x: float, vx: float,
                   tol: float) -> float:
    """lim_{W -> -inf} e^{-W + V(x)} rbar_n(x, W).

    In the variable u = tanh((W - V0)/2) the coefficient profiles are
    polynomials of low degree, the limit point is u = -1, and the
    exponential weight turns into (1 - u)/(1 + u); since the profile
    vanishes at u = -1 the limit equals 2 e^{V(x) - V0} p'(-1).  The
    profile is fit in u over the healthy part of the window, with a
    residual gate against non-polynomial behavior.
    """
    prof = rb.eval_x(x)
    u = np.tanh(0.5 * (grid.w_nodes - grid.w_center))
    scale = max(1.0, float(np.abs(prof).max()))
    fit_gate = max(1e-9, 0.1 * tol) * scale
    coeffs = None
    for deg in (4, 6, 10, 14, 18, 24):
        if deg >= u.size:
            break
        c = _np_cheb.chebfit(u, prof, deg)
        resid = float(np.abs(_np_cheb.chebval(u, c) - prof).max())
        if resid <= fit_gate:
            coeffs = c
            break
    if coeffs is None:
        raise ExtrapolationError(
            f"profile at x = {x} is not polynomial in tanh((W-V0)/2) within "
            f"tolerance (residual {resid:.2e})")
    p_end = float(_np_cheb.chebval(-1.0, coeffs))
    if abs(p_end) > tol * scale:
        raise ExtrapolationError(
            f"profile does not vanish in the limit (p(-1) = {p_end:.2e}); "
            "the weighted limit would diverge")
    dp_end = float(_np_cheb.chebval(-1.0, _np_cheb.chebder(coeffs)))
    return 2.0 * math.exp(vx - grid.w_center) * dp_end


def contour_coeffs_a(pot, x: float, N: int, rho: float | None = None,
                     npts: int = 64) -> np.ndarray:
    """Taylor coefficients of S_r(x, k) - 1/2 in powers of ik.

    The half-line quantities are analytic in a disk around k = 0 (the
    nearest singularities are the band edges), so the coefficients follow
    from trapezoid quadrature on a circle in the ik plane.  The multiplier
    branch inside the disk is fixed by continuity with Z ~ k L0.
    """
    L0 = cell_constants(pot).L0
    if rho is None:
        rho = 0.4 / L0
    theta = 2.0 * np.pi * np.arange(npts) / npts
    zeta = rho * np.exp(1j * theta)
    vals = np.empty(npts, dtype=complex)
    for j, z in enumerate(zeta):
        k = -1j * z
        U = evolve(pot, x, pot.period_start(x), k)
        Y = 0.5 * (U.alpha_plus + U.alpha_minus)
        s = np.sqrt((1.0 - Y) * (1.0 + Y) + 0j)
        if (s / (k * L0)).real < 0.0:
            s = -s
        vals[j] = _s_values(U, s, x, k)[0] - 0.5
    spectrum = np.fft.fft(vals) / npts
    return (spectrum[: N + 1] / rho ** np.arange(N + 1)).real
