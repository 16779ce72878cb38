"""Operator engine for the small-k expansion of reflection coefficients.

Functions h(x, W) live on a tensor grid: a segment-aligned Chebyshev panel
mesh over one cell in x, times a Chebyshev-Lobatto grid in the auxiliary
level W.  The three grid operators are

  * B: multiply-and-differentiate in W,
  * A_inv: the periodic right-inverse of d/dx, whose additive "constant"
    in x is a W-dependent profile fixed by a cell-window double integral,
  * the expansion map: r_0 = -tanh((W - V0)/2) and r_n = (2 A_inv B) r_{n-1}.

The W = V0 point of the A_inv prefactor 1/sinh(W - V0) is removable (the
centered difference vanishes there); it is evaluated through the Chebyshev
interpolant, and the W grid uses an odd polynomial order so no node falls
exactly on V0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _np_cheb

from ._spectral import (cheb_definite_integral_weights, coeffs_to_vals,
                        cumulative_integral, lobatto_nodes, vals_to_coeffs)
from .iterint import bracket, cell_Q
from .potential import CellConstants, cell_constants

__all__ = [
    "WopGrid",
    "WGridFunction",
    "ExpansionSeries",
    "DomainError",
    "GridResolutionError",
    "op_B",
    "op_A",
    "op_A_inv",
    "rbar_numeric",
    "rbar_closed",
    "expansion_coeffs",
]


class DomainError(ValueError):
    """Input function violates a domain condition of the operator."""


class GridResolutionError(RuntimeError):
    """The W grid is too coarse to resolve the function being operated on."""


class ExtrapolationError(RuntimeError):
    """A limit extraction (large-negative-W profile or contour route)
    did not settle within tolerance."""


class WopGrid:
    """Shared tensor grid over one cell x window [x0 - L, x0] and a W window."""

    def __init__(self, pot, cc: CellConstants | None = None, x_order: int = 20,
                 w_order: int = 40, w_span: float = 3.0):
        self.pot = pot
        self.cc = cc if cc is not None else cell_constants(pot)
        if w_order % 2 == 0:
            w_order += 1  # odd order keeps W = V0 off the grid
        self.w_order = w_order
        self.w_half = float(w_span)
        self.w_center = self.cc.V0
        self.w_nodes = self.w_center + self.w_half * lobatto_nodes(w_order)
        L = pot.period
        self.x_top = pot.offset + L
        self.mesh = pot.mesh(self.x_top - L, self.x_top, x_order, max_panel=L / 3.0)
        self.v_nodes = pot.V_on_mesh(self.mesh)          # (npanels, x_order+1)
        self._ccw = cheb_definite_integral_weights(self.mesh.order)
        # integrals of e^{V} and e^{-V} from x0 - L
        self.cum_plus = cumulative_integral(np.exp(self.v_nodes), self.mesh.half)
        self.cum_minus = cumulative_integral(np.exp(-self.v_nodes), self.mesh.half)

    # -- x-axis calculus on (npanels, nx, nW) value arrays --------------------

    def x_cell_integral(self, values: np.ndarray) -> np.ndarray:
        c = vals_to_coeffs(values, axis=1)
        per_panel = np.tensordot(c, self._ccw, axes=([1], [0])) * self.mesh.half[:, None]
        return per_panel.sum(axis=0)

    def x_derivative(self, values: np.ndarray) -> np.ndarray:
        c = vals_to_coeffs(values, axis=1)
        cd = _np_cheb.chebder(np.moveaxis(c, 1, 0))
        cd = np.concatenate([cd, np.zeros_like(cd[:1])], axis=0)
        return np.moveaxis(coeffs_to_vals(cd, axis=0), 0, 1) / self.mesh.half[:, None, None]

    # -- W-axis calculus -------------------------------------------------------

    def w_coeffs(self, values: np.ndarray) -> np.ndarray:
        return vals_to_coeffs(values, axis=-1)

    def w_derivative(self, values: np.ndarray) -> np.ndarray:
        c = self.w_coeffs(values)
        cd = _np_cheb.chebder(np.moveaxis(c, -1, 0)) / self.w_half
        cd = np.concatenate([cd, np.zeros_like(cd[:1])], axis=0)
        return np.moveaxis(coeffs_to_vals(cd, axis=0), 0, -1)

    def ratio_D(self, fw: np.ndarray) -> np.ndarray:
        """(F(W) - F(V0)) / sinh(W - V0) on the W nodes, for F given on them."""
        c = vals_to_coeffs(fw)
        f0 = _np_cheb.chebval(0.0, c)
        dw = self.w_nodes - self.w_center
        out = (fw - f0) / np.sinh(dw)
        tiny = np.abs(dw) < 1e-6 * self.w_half
        if np.any(tiny):
            fp0 = _np_cheb.chebval(0.0, _np_cheb.chebder(c)) / self.w_half
            out[tiny] = fp0
        return out

    def sample(self, fn) -> "WGridFunction":
        """fn(v, w) with v = V(x) per node; vectorized over the tensor grid."""
        return WGridFunction(self, fn(self.v_nodes[:, :, None], self.w_nodes[None, None, :]))

    def w_tail(self, values: np.ndarray) -> float:
        """Relative size of the last few W-Chebyshev coefficients."""
        c = np.abs(self.w_coeffs(values))
        top = c.max()
        if top == 0.0:
            return 0.0
        return float(c[..., -3:].max() / top)

    def w_filter(self, values: np.ndarray, rel: float = 1e-13) -> np.ndarray:
        """Drop W coefficients below rel * max; keeps operator chains from
        accumulating differentiation noise in the resolved tail."""
        c = self.w_coeffs(values)
        mags = np.abs(c)
        c[mags < rel * mags.max()] = 0.0
        return coeffs_to_vals(c, axis=-1)


@dataclass
class WGridFunction:
    grid: WopGrid
    values: np.ndarray

    def eval_x(self, x: float) -> np.ndarray:
        """Profile over the W nodes at a single x (right-continuous at breaks).

        x is reduced into the cell window by periodicity.
        """
        mesh = self.grid.mesh
        L = self.grid.pot.period
        x = mesh.a + math.fmod(x - mesh.a, L)
        if x < mesh.a:
            x += L
        i = int(mesh.panel_of(np.asarray([x]))[0])
        xi = (x - mesh.mid[i]) / mesh.half[i]
        c = vals_to_coeffs(self.values[i], axis=0)
        return _np_cheb.chebval(xi, c)

    def seam_mismatch(self) -> float:
        """Gap between the two cell-window ends; zero for a function whose
        periodic extension is continuous at the seam."""
        return float(np.abs(self.values[-1, -1, :] - self.values[0, 0, :]).max())

    def eval(self, x: float, w: float) -> float:
        prof = self.eval_x(x)
        c = vals_to_coeffs(prof)
        return float(_np_cheb.chebval((w - self.grid.w_center) / self.grid.w_half, c))

    def cell_mean_residual(self) -> float:
        return float(np.abs(self.grid.x_cell_integral(self.values)).max())

    def __add__(self, other):
        return WGridFunction(self.grid, self.values + _vals(other))

    def __sub__(self, other):
        return WGridFunction(self.grid, self.values - _vals(other))

    def __mul__(self, other):
        return WGridFunction(self.grid, self.values * _vals(other))

    __rmul__ = __mul__


def _vals(obj):
    return obj.values if isinstance(obj, WGridFunction) else obj


# ---------------------------------------------------------------------------
# operators

W_TAIL_TOL = 1e-7


def op_B(pot, h: WGridFunction) -> WGridFunction:
    """cosh(W - V) h + sinh(W - V) dh/dW, through the W interpolant."""
    grid = h.grid
    tail = grid.w_tail(h.values)
    if tail > W_TAIL_TOL:
        raise GridResolutionError(
            f"W-coefficient tail {tail:.2e} exceeds {W_TAIL_TOL:g}; refine the W grid")
    arg = grid.w_nodes[None, None, :] - grid.v_nodes[:, :, None]
    return WGridFunction(grid, np.cosh(arg) * h.values + np.sinh(arg) * grid.w_derivative(h.values))


def op_A(h: WGridFunction) -> WGridFunction:
    """d/dx on the grid (panel-wise; only meaningful for x-smooth h)."""
    return WGridFunction(h.grid, h.grid.x_derivative(h.values))


def op_A_inv(pot, g: WGridFunction, mean_tol: float = 1e-6) -> WGridFunction:
    """The periodic inverse of d/dx.

    Requires g periodic in x with zero cell mean at every W; the result is
    the cumulative integral from the cell top plus a W profile fixed by the
    weighted cell-window double integral, so that the inverse lands in the
    domain of the forward operator.  Mean residuals below mean_tol are
    treated as quadrature noise and projected out; anything larger is a
    genuine domain violation.
    """
    grid = g.grid
    means = grid.x_cell_integral(g.values)
    scale = max(1.0, float(np.abs(g.values).max()) * pot.period)
    worst = float(np.abs(means).max())
    if worst > mean_tol * scale:
        raise DomainError(
            f"not in range of A: cell mean residual {worst:.3e} exceeds "
            f"{mean_tol:g} * {scale:g}")
    gv = g.values - means[None, None, :] / pot.period
    cum = cumulative_integral(gv, grid.mesh.half)
    cum = cum - cum[-1:, -1:, :]
    wexp = np.exp(grid.w_nodes)
    weight = (grid.cum_plus[:, :, None] / wexp[None, None, :]
              - grid.cum_minus[:, :, None] * wexp[None, None, :])
    t_of_w = grid.x_cell_integral(weight * gv)
    c_of_w = grid.ratio_D(t_of_w) / (2.0 * grid.cc.L0)
    return WGridFunction(grid, grid.w_filter(cum - c_of_w[None, None, :]))


# ---------------------------------------------------------------------------
# expansion coefficients

@dataclass
class ExpansionSeries:
    """Expansion data: rbar[n] are W-grid functions (or None for closed-form
    only runs); a[n] and s[n] are per-x numbers once the W -> -infinity limit
    has been taken."""
    order: int
    rbar: list
    a: np.ndarray | None = None
    s: np.ndarray | None = None


MAX_RBAR_ORDER = 4


def rbar_numeric(pot, n: int, grid: WopGrid | None = None) -> ExpansionSeries:
    """Expansion coefficients r_0 .. r_n as grid functions, by operator iteration."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_RBAR_ORDER:
        raise ValueError(f"n exceeds the configured max {MAX_RBAR_ORDER}")
    if grid is None:
        grid = WopGrid(pot)
    v0 = grid.cc.V0
    r0 = grid.sample(lambda v, w: -np.tanh(0.5 * (w - v0)) * np.ones_like(v))
    rbars = [r0]
    cur = grid.sample(lambda v, w: np.tanh(0.5 * (w - v)) - np.tanh(0.5 * (w - v0)))
    for _ in range(n):
        cur = 2.0 * op_A_inv(pot, op_B(pot, cur))
        rbars.append(cur)
    return ExpansionSeries(order=n, rbar=rbars)


def rbar_closed(pot, x: float, W: float, n: int, cc: CellConstants | None = None,
                tol: float = 1e-12) -> float:
    """Closed forms of the first three expansion coefficients."""
    if n not in (0, 1, 2):
        raise ValueError("closed forms exist for n in {0, 1, 2} only")
    if cc is None:
        cc = cell_constants(pot, tol)
    dw = W - cc.V0
    if n == 0:
        return -math.tanh(0.5 * dw)
    L = pot.period
    pm = bracket(pot, "+-", x - L, x, tol)
    mp = bracket(pot, "-+", x - L, x, tol)
    if n == 1:
        return (pm - mp) / (4.0 * cc.L0 * math.cosh(0.5 * dw) ** 2)
    pmp = bracket(pot, "+-+", x - L, x, tol)
    mpm = bracket(pot, "-+-", x - L, x, tol)
    q = cell_Q(pot, tol)
    brace = (math.exp(-0.5 * (W + cc.V0)) * pmp
             - math.exp(0.5 * (W + cc.V0)) * mpm
             + (cc.L0 ** 4 / 4.0 + q) / cc.L0 * math.sinh(0.5 * dw))
    return brace / (4.0 * cc.L0 * math.cosh(0.5 * dw) ** 3)


def _taylor_coeffs_a(pot, x: float, N: int, cc: CellConstants,
                     rho: float | None = None, npts: int = 64) -> np.ndarray:
    """Taylor coefficients of S_r(x, k) - 1/2 in powers of ik.

    The half-line quantities are analytic in a disk around k = 0 (the
    nearest singularities are the band edges), so the coefficients follow
    from trapezoid quadrature on a circle in the ik plane.  The multiplier
    branch inside the disk is fixed by continuity with Z ~ k L0.
    """
    from .halfline import _s_values
    from .transfer import evolve

    if rho is None:
        rho = 0.4 / cc.L0
    theta = 2.0 * np.pi * np.arange(npts) / npts
    zeta = rho * np.exp(1j * theta)
    vals = np.empty(npts, dtype=complex)
    for j, z in enumerate(zeta):
        k = -1j * z
        U = evolve(pot, x, x - pot.period, k)
        Y = 0.5 * (U.alpha_plus + U.alpha_minus)
        s = np.sqrt((1.0 - Y) * (1.0 + Y) + 0j)
        if (s / (k * cc.L0)).real < 0.0:
            s = -s
        vals[j] = _s_values(U, s, x, k)[0] - 0.5
    spectrum = np.fft.fft(vals) / npts
    return (spectrum[: N + 1] / rho ** np.arange(N + 1)).real


def expansion_coeffs(pot, x: float, N: int, cc: CellConstants | None = None,
                     tol: float = 1e-12, consistency_tol: float = 1e-7):
    """Coefficient arrays (a_0..a_N, s_0..s_N) of the half-line S expansion.

    Orders up to 2 come from the bracket-integral closed forms.  Higher
    orders are Taylor coefficients of S_r - 1/2 extracted by contour
    quadrature; the overlap with the closed forms is checked so a bad
    contour or branch cannot pass silently.  Odd s entries are zero.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if cc is None:
        cc = cell_constants(pot, tol)
    L = pot.period
    vx = pot.V(x)
    a = np.zeros(N + 1)
    pref = math.exp(vx - cc.V0)
    a[0] = -0.5 * pref
    if N >= 1:
        pm = bracket(pot, "+-", x - L, x, tol)
        mp = bracket(pot, "-+", x - L, x, tol)
        a[1] = pref * (pm - mp) / (4.0 * cc.L0)
    if N >= 2:
        pmp = bracket(pot, "+-+", x - L, x, tol)
        q = cell_Q(pot, tol)
        a[2] = (pref / (2.0 * cc.L0)
                * (math.exp(-cc.V0) * pmp - (cc.L0 ** 4 / 4.0 + q) / (2.0 * cc.L0)))
    if N >= 3:
        a_taylor = _taylor_coeffs_a(pot, x, N, cc)
        mismatch = float(np.abs(a_taylor[: 3] - a[: 3]).max())
        if mismatch > consistency_tol:
            raise ExtrapolationError(
                f"contour route disagrees with closed forms by {mismatch:.2e} "
                f"at x = {x}; contour radius or branch is unsound here")
        a[3:] = a_taylor[3:]
    s = np.zeros(N + 1)
    s[0::2] = 2.0 * a[0::2]
    return a, s
