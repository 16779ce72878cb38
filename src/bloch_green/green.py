"""Exact and low-energy-expanded Green functions, with the periodic square
potential closed form as an oracle.

The exact route propagates the solution that decays to the right: its
amplitude pair at the source point is fixed by the half-line data alone,
(S_l(y), 1 - S_l(y)), and the Wronskian with the left-decaying partner is
2ik(1 - S(y)).  Everything is rational in the one-period matrix elements
and the branch-resolved Z, so no square-root branch ever needs choosing,
and real k needs nothing beyond the real-axis Z rule of `monodromy`.

The one-period data come from `monodromy` (Z and the band class of a real
k, read off one propagation of the cell window) and from the half-line S
formulas of `halfline` evaluated on the one-period matrix based at y; with
U(x, y) that makes at most three propagations per value, at every k.

The textbook assembly - exponentiate the line integral of S along [y, x]
over a square-root endpoint factor - lives in the test suite as a
cross-check route.  It is branch-ambiguous in the gaps and its integrand
develops near-poles close to band edges, which is why it is not the
primary path.

The low-energy series expands that same assembly in t = ik around k = 0,
where no branch question arises: 2ik G = E(t) exp(q_1 t + q_3 t^3 + ...)
with the endpoint factor E = ((1 - S(x, t))(1 - S(y, t)))^(-1/2).  It
carries G through order k^3.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .halfline import _s_values
from .iterint import bracket, cell_Q
from .potential import CellConstants, PeriodicPotential, cell_constants
from .transfer import DEFAULT_RTOL, BandClass, branch_Z, evolve, monodromy
from .wop import expansion_coeffs

__all__ = [
    "GreenValue",
    "SquareWellParams",
    "GreenSeries",
    "green_exact",
    "square_well_oracle",
    "green_series",
]


@dataclass(frozen=True)
class GreenValue:
    G_S: complex
    G_F: complex
    x: float
    y: float
    k: complex
    band_class: BandClass | None


@dataclass(frozen=True)
class SquareWellParams:
    """Two-level cell: V = 0 on (0, a), C on (a, L)."""
    C: float
    L: float
    a: float

    def __post_init__(self):
        if not 0 < self.a < self.L:
            raise ValueError("need 0 < a < L")

    @property
    def b(self) -> float:
        return self.L - self.a

    @property
    def A(self) -> float:
        return -math.tanh(0.5 * self.C)

    def discriminant(self, k: complex) -> complex:
        """Half-trace of the one-period matrix, in closed form."""
        A2 = self.A * self.A
        return (cmath.cos(k * self.L) - A2 * cmath.cos(k * (self.L - 2 * self.b))) / (1 - A2)


@dataclass(frozen=True)
class GreenSeries:
    """Low-energy coefficients:
    G(k) ~ g_m1/(ik) + g_0 + ik g_1 + (ik)^2 g_2 + (ik)^3 g_3.

    q_1 and q_3 are the coefficients of the exponent q_1 ik + q_3 (ik)^3 of
    the line-integral factor.  g_3 defaults to zero, the order-k^2 series.
    """
    g_m1: float
    g_0: float
    g_1: float
    g_2: float
    q_1: float
    q_3: float
    x: float
    y: float
    g_3: float = 0.0

    def __call__(self, k: complex) -> complex:
        ik = 1j * complex(k)
        return (self.g_m1 / ik + self.g_0 + ik * self.g_1 + ik * ik * self.g_2
                + ik * ik * ik * self.g_3)


# ---------------------------------------------------------------------------
# exact Green function

def _green_at(pot, x: float, y: float, kc: complex, Z: complex,
              rtol: float) -> complex:
    """Green function by propagating the right-decaying solution.

    Its amplitude pair at y is (S_l(y), 1 - S_l(y)) and the Wronskian with
    the left-decaying partner is 2ik(1 - S(y)); the value is the solution
    at x over the Wronskian.  Rational in the matrix elements and Z, so
    the branch is carried entirely by Z.
    """
    U = evolve(pot, y, y - pot.period, kc, rtol)
    _, sl_y, s_y = _s_values(U, Z, y, kc)
    denom = 2j * kc * (1.0 - s_y)
    if denom == 0:
        raise ArithmeticError(f"degenerate Wronskian at k = {kc} (band edge)")
    if x == y:
        return 1.0 / denom
    U = evolve(pot, x, y, kc, rtol)
    chi = ((U.alpha_plus + U.beta_plus) * sl_y
           + (U.beta_minus + U.alpha_minus) * (1.0 - sl_y))
    return chi / denom


def green_exact(pot: PeriodicPotential, x: float, y: float, k: complex,
                rtol: float = DEFAULT_RTOL) -> GreenValue:
    """Green functions of the periodic operator at (x, y; k).

    Both orderings of (x, y) are accepted; k = 0 is excluded.  Real k is
    the boundary limit from Im k > 0, carried by the limit branch of Z;
    band_class records whether k sits in a band, a gap, or within
    tolerance of an edge (where the limit degenerates).
    """
    k = complex(k)
    if k == 0:
        raise ValueError("k = 0 is singular; use the series route")
    if k.imag < 0:
        raise ValueError("defined for Im k >= 0")
    x = float(x)
    y = float(y)
    if x < y:
        x, y = y, x
    mono = monodromy(pot, k, rtol=rtol)
    gs = _green_at(pot, x, y, k, mono.Z, rtol)
    gf = math.exp(-0.5 * (pot.V(x) - pot.V(y))) * gs
    return GreenValue(G_S=gs, G_F=gf, x=x, y=y, k=k, band_class=mono.band)


def square_well_oracle(p: SquareWellParams, x: float, y: float, k: complex) -> complex:
    """Closed-form Green function of the two-level cell for 0 < y <= x < a.

    Independent of the propagation machinery: the discriminant is evaluated
    from its trigonometric closed form, and the in-band sign of
    sqrt(1 - Y^2) comes from the epsilon limit of `branch_Z`, not from the
    one-period matrix that `monodromy` reads it from.
    """
    if not (0 < y <= x < p.a):
        raise ValueError("closed form covers 0 < y <= x < a only")
    k = complex(k)
    if k == 0:
        raise ValueError("k = 0 is singular")
    Z = branch_Z(p.discriminant, k)
    A = p.A
    b = p.b
    L = p.L
    K = cmath.sin(k * L) - A * A * cmath.sin(k * (L - 2 * b)) - (1 - A * A) * Z
    sinb = cmath.sin(k * b)
    num1 = 2 * A * cmath.exp(2j * k * x) * cmath.exp(-1j * k * (L - b)) * sinb - K
    num2 = 2 * A * cmath.exp(-2j * k * y) * cmath.exp(1j * k * (L - b)) * sinb - K
    den = 2j * k * cmath.exp(1j * k * (x - y)) * (4 * A * A * sinb * sinb - K * K)
    return num1 * num2 / den


# ---------------------------------------------------------------------------
# low-energy series

def _s2_profile(pot, z: float, cc: CellConstants, q: float, tol: float) -> float:
    L = pot.period
    pmp = bracket(pot, "+-+", z - L, z, tol)
    return (math.exp(pot.V(z) - cc.V0) / cc.L0
            * (math.exp(-cc.V0) * pmp - (cc.L0 ** 4 / 4.0 + q) / (2.0 * cc.L0)))


def _endpoint_factor(pot, z: float, cc: CellConstants, tol: float):
    """(c_2, c_4) with ((1 - S(z, t)) / (1 - S(z, 0)))^(-1/2)
    = 1 + c_2 t^2 + c_4 t^4 + O(t^6), from s_0, s_2, s_4 at z."""
    _, s = expansion_coeffs(pot, z, 4, cc=cc, tol=tol)
    u2 = float(s[2] / s[0])
    u4 = float(s[4] / s[0])
    return -0.5 * u2, 0.375 * u2 * u2 - 0.5 * u4


MAX_SERIES_ORDER = 3


def green_series(pot: PeriodicPotential, x: float, y: float,
                 cc: CellConstants | None = None, tol: float = 1e-12,
                 quad_order: int = 16, order: int = MAX_SERIES_ORDER) -> GreenSeries:
    """Low-energy coefficients of the Green function through order k^order.

    `order` runs from 0 to 3; coefficients above it are returned as zero,
    and so is q_3 below order 2.  g_m1 .. g_2 are bracket-integral closed
    forms.  g_3 is the t^4 coefficient of 2t G = E(t) exp(q_1 t + q_3 t^3)
    and needs s_4 at both endpoints, which only the contour route of
    `expansion_coeffs` gives (64 one-period propagations per endpoint).

    Raises `ExtrapolationError` at order 3 when that contour disagrees
    with the closed forms at either endpoint.
    """
    if not 0 <= order <= MAX_SERIES_ORDER:
        raise ValueError(f"order must be in 0..{MAX_SERIES_ORDER}")
    x = float(x)
    y = float(y)
    if x < y:
        x, y = y, x
    if cc is None:
        cc = cell_constants(pot, tol)
    L = pot.period
    vx = pot.V(x)
    vy = pot.V(y)
    envelope = math.exp(-0.5 * (vx + vy))
    plus_xy = bracket(pot, "+", y, x, tol) if x > y else 0.0
    q_1 = math.exp(-cc.V0) * plus_xy
    g_m1 = 0.5 * envelope * math.exp(cc.V0)
    g_0 = 0.5 * envelope * plus_xy
    g_1 = g_2 = g_3 = q_3 = 0.0
    if order >= 1:
        q = cell_Q(pot, tol)
        pmp_x = bracket(pot, "+-+", x - L, x, tol)
        pmp_y = bracket(pot, "+-+", y - L, y, tol)
        g_1 = (envelope / (4.0 * cc.L0)
               * (pmp_x + pmp_y + cc.L0 * math.exp(-cc.V0) * plus_xy ** 2
                  - math.exp(cc.V0) / cc.L0 * (cc.L0 ** 4 / 4.0 + q)))
    if order >= 2:
        if x > y:
            mesh = pot.mesh(y, x, quad_order, max_panel=pot.period / 2.0)
            nodes, weights = mesh.gauss_rule(quad_order)
            int_s2 = float(np.dot(weights, [_s2_profile(pot, z, cc, q, tol) for z in nodes]))
        else:
            int_s2 = 0.0
        q_3 = -int_s2
        g_2 = (q_1 * g_1
               - (math.exp(-3.0 * cc.V0) / 3.0 * plus_xy ** 3 + int_s2) * g_m1)
    if order >= 3:
        c2x, c4x = _endpoint_factor(pot, x, cc, tol)
        c2y, c4y = (c2x, c4x) if x == y else _endpoint_factor(pot, y, cc, tol)
        g_3 = g_m1 * (c4x + c4y + c2x * c2y + 0.5 * (c2x + c2y) * q_1 ** 2
                      + q_1 ** 4 / 24.0 + q_1 * q_3)
    return GreenSeries(g_m1=g_m1, g_0=g_0, g_1=g_1, g_2=g_2, q_1=q_1, q_3=q_3,
                       x=x, y=y, g_3=g_3)
