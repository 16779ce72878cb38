"""Exact and low-energy-expanded Green functions, with the periodic square
potential closed form as an oracle.

The exact route propagates the solution that decays to the right: its
amplitude pair at the source point is fixed by the half-line data alone,
(S_l(y), 1 - S_l(y)), and the Wronskian with the left-decaying partner is
2ik(1 - S(y)).  Everything is rational in the one-period matrix elements
and the branch-resolved Z, so no square-root branch ever needs choosing,
and real k needs nothing beyond the real-axis Z rule of the one-period data.

One one-period matrix, based at y, gives Z and the band class of a real k
(`transfer._period_monodromy`) and S_l(y) and S(y) (the half-line formulas
of `halfline`); U(x, y) reuses it as its period matrix when x - y spans two
periods or more.  That makes two propagations per value, at every k.

The textbook assembly - exponentiate the line integral of S along [y, x]
over a square-root endpoint factor - lives in the test suite as a
cross-check route.  It is branch-ambiguous in the gaps and its integrand
develops near-poles close to band edges, which is why it is not the
primary path.

The low-energy series expands that same assembly in t = ik around k = 0,
where no branch question arises: 2ik G = E(t) exp(q_1 t + q_3 t^3 + ...)
with the endpoint factor E = ((1 - S(x, t))(1 - S(y, t)))^(-1/2).  It
carries G through order k^3.  The series keeps this endpoint form because
`green_exact`'s formula in series arithmetic loses g_2 on strong cells:
1e-5 relative on the V = 20 half cell at (0.77, 0.1), against 3.1e-9.  The
endpoint factor is read off the half-line expansion s_0, s_2, s_4 at x
and at y, q_1 = e^{-V0} [+](y, x), and q_3 = -int_y^x s_2 is a bracket
identity, not a quadrature.  With
B(z) = [+-+](z - L, z) and D(z) = ([+-] - [-+])(z - L, z) over the cell
window, dB/dz = e^V D and dD/dz = 2 (P e^{-V} - M e^V), so integrating
from y gives

    q_3 = (q_1 s_2(y) + 2 q_1^2 a_1(y)) / s_0(y) + q_1^3 / 3
          - 2 e^{-V0} [-++](y, x).

The cell invariant Q cancels, and the only new bracket lies over [y, x].
The q_1^3 terms cancel as the window grows, so a window of n >= 1 whole
periods plus a remainder r is taken as q_3(y, y + r) + n q_3(y, y + L).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .halfline import _period_data, _s_values
from .iterint import bracket
from .potential import CellConstants, PeriodicPotential
from .transfer import BandClass, EvolutionMatrix, _evolve, _upper_k, branch_Z
from .wop import _own_cell_constants, expansion_coeffs

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

def _green_at(pot, x: float, y: float, kc: complex, U: EvolutionMatrix,
              Z: complex) -> complex:
    """Green function for x >= y by propagating the right-decaying solution,
    given the one-period matrix U = U(y, y - L; kc) and Z.

    Its amplitude pair at y is (S_l(y), 1 - S_l(y)) and the Wronskian with
    the left-decaying partner is 2ik(1 - S(y)); the value is the solution
    at x over the Wronskian.  Rational in the matrix elements and Z, so
    the branch is carried entirely by Z.
    """
    _, sl_y, s_y = _s_values(U, Z, y, kc)
    denom = 2j * kc * (1.0 - s_y)
    if denom == 0:
        raise ArithmeticError(f"degenerate Wronskian at k = {kc} (band edge)")
    if x == y:
        return 1.0 / denom
    U = _evolve(pot, x, y, kc, period=U.matrix)
    chi = ((U.alpha_plus + U.beta_plus) * sl_y
           + (U.beta_minus + U.alpha_minus) * (1.0 - sl_y))
    return chi / denom


def green_exact(pot: PeriodicPotential, x: float, y: float, k: complex) -> GreenValue:
    """Green functions of the periodic operator at (x, y; k).

    Both orderings of (x, y) are accepted; k = 0 is excluded.  Real k is
    the boundary limit from Im k > 0, carried by the limit branch of Z;
    band_class records whether k sits in a band, a gap, or within
    tolerance of an edge (where the limit degenerates).
    """
    k = _upper_k(k)
    if k == 0:
        raise ValueError("k = 0 is singular; use the series route")
    x = float(x)
    y = float(y)
    if x < y:
        x, y = y, x
    U, mono = _period_data(pot, y, k)
    gs = _green_at(pot, x, y, k, U, mono.Z)
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

MAX_SERIES_ORDER = 3


def _exp_series(p, n: int) -> list:
    """[t^0 .. t^n] of exp(p(t)) for a power series p with p(0) = 0, from
    (e^p)' = p' e^p."""
    e = [1.0]
    for m in range(1, n + 1):
        e.append(sum(j * p[j] * e[m - j] for j in range(1, m + 1)) / m)
    return e


def _q_3(pot, V0: float, y: float, z: float, a_1: float, s) -> float:
    """-int_y^z s_2 by the bracket identity of the module docstring, from
    a_1 and s = (s_0, s_1, s_2) at y."""
    q_1 = math.exp(-V0) * bracket(pot, "+", y, z)
    return float((q_1 * s[2] + 2.0 * q_1 ** 2 * a_1) / s[0] + q_1 ** 3 / 3.0
                 - 2.0 * math.exp(-V0) * bracket(pot, "-++", y, z))


def green_series(pot: PeriodicPotential, x: float, y: float,
                 cc: CellConstants | None = None, order: int = MAX_SERIES_ORDER) -> GreenSeries:
    """Low-energy coefficients of the Green function through order k^order.

    With t = ik, 2t G = 2 g_m1 E_x(t) E_y(t) exp(q_1 t + q_3 t^3), and
    g_{n-1} = g_m1 [t^n] of that product.  The endpoint factor
    E_z = (1 + u_2 t^2 + u_4 t^4)^(-1/2) = 1 + c_2 t^2 + c_4 t^4 + ...,
    u_j = s_j(z) / s_0(z), and 2 g_m1 = (s_0(x) s_0(y))^(-1/2) come from
    `expansion_coeffs` at z; q_1 and q_3 from the brackets [+] and [-++]
    over [y, x], or over its remainder and one period when it spans one
    or more (module docstring).

    `order` runs from 0 to 3; coefficients above it are returned as zero,
    and so is q_3 below order 2.  Order 3 needs s_4 at both endpoints,
    which `expansion_coeffs` reads off the alternating-bracket series of
    the one-period matrix (two nested passes per endpoint); it raises
    `ExtrapolationError` when that series disagrees with the closed forms
    at either endpoint.  `cc`, if given, must be `cell_constants(pot)`.
    """
    if not 0 <= order <= MAX_SERIES_ORDER:
        raise ValueError(f"order must be in 0..{MAX_SERIES_ORDER}")
    x = float(x)
    y = float(y)
    if x < y:
        x, y = y, x
    cc = _own_cell_constants(pot, cc)
    N = (0, 2, 2, 4)[order]  # s_0 .. s_{order+1} at each endpoint
    ax, sx = expansion_coeffs(pot, x, N)
    ay, sy = (ax, sx) if x == y else expansion_coeffs(pot, y, N)
    q_1 = math.exp(-cc.V0) * bracket(pot, "+", y, x)
    q_3 = 0.0
    if order >= 2:
        L = pot.period
        n = int((x - y) // L)
        q_3 = _q_3(pot, cc.V0, y, max(y, x - n * L), ay[1], sy)
        if n:
            q_3 += n * _q_3(pot, cc.V0, y, y + L, ay[1], sy)
    # exponent of 2t G / (2 g_m1): q_1 t + q_3 t^3 plus log E_x + log E_y,
    # log E_z = -u_2 t^2 / 2 + (u_2^2 / 4 - u_4 / 2) t^4
    u = [[float(v / s[0]) for v in s] + [0.0] * (4 - N) for s in (sx, sy)]
    p = [0.0, q_1, -0.5 * (u[0][2] + u[1][2]), q_3,
         0.25 * (u[0][2] ** 2 + u[1][2] ** 2) - 0.5 * (u[0][4] + u[1][4])]
    g_m1 = 0.5 / math.sqrt(sx[0] * sy[0])
    g = [g_m1 * e for e in _exp_series(p, order + 1)[1:]] + [0.0] * (3 - order)
    return GreenSeries(g_m1=g_m1, g_0=g[0], g_1=g[1], g_2=g[2], q_1=q_1, q_3=q_3,
                       x=x, y=y, g_3=g[3])
