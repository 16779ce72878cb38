"""Evolution matrices over finite intervals, one-period monodromy, and
finite-interval scattering coefficients.

The 2x2 evolution matrix propagates the pair of wave amplitudes across an
interval.  Smooth stretches with constant drift (const and linear segments)
have closed-form propagators.  Cosine and table stretches are propagated by
a fixed-step 6th-order Magnus integrator sampled at 3 Gauss-Legendre nodes
per step, split at table knots, with the step length set by |k| and the
drift for a relative accuracy of MAGNUS_RTOL; each step is the closed-form
exponential of a traceless 2x2 matrix, so step products are unimodular.
Spans of two periods or more take the one-period matrix to a power by
repeated squaring.  Potential jumps are applied as exact hyperbolic factor
matrices.  A jump sitting exactly at a point p is counted by intervals with
xprime < p <= x.  A matrix that overflows floating point raises
OverflowError.

A one-period matrix at any base point gives Y, the branch of
Z = sqrt(1 - Y^2) and the band class of a real k; `branch_Z` computes the
same branch from a half-trace function by the k + i*eps limit, as a
reference that shares no propagation with it.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .iterint import alternating_tail_values

__all__ = [
    "EvolutionMatrix",
    "ScatteringCoeffs",
    "GeneralizedScattering",
    "Monodromy",
    "BandClass",
    "SingularIntervalError",
    "SeriesDivergenceError",
    "evolve",
    "series_evolution",
    "scattering",
    "generalize",
    "monodromy",
    "classify_band",
    "branch_Z",
]

MAGNUS_RTOL = 1e-12  # relative accuracy the Magnus step length is chosen for
DEFAULT_ATOL = 1e-14
EDGE_TOL = 1e-10  # a real k with |Y^2 - 1| <= EDGE_TOL is a band edge


class SingularIntervalError(ArithmeticError):
    pass


class SeriesDivergenceError(RuntimeError):
    """Raised when the power-series route needs too many terms; use evolve."""


class BandClass(enum.Enum):
    BAND = "band"
    GAP = "gap"
    EDGE = "edge"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class EvolutionMatrix:
    """Elements of U(x, xprime; k): alpha_plus = alpha(k), beta_plus = beta(k),
    and the sign-flipped partners alpha_minus = alpha(-k), beta_minus = beta(-k)."""
    alpha_plus: complex
    alpha_minus: complex
    beta_plus: complex
    beta_minus: complex
    x: float
    xprime: float
    k: complex

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.alpha_plus, self.beta_minus],
                         [self.beta_plus, self.alpha_minus]])

    @property
    def det(self) -> complex:
        return self.alpha_plus * self.alpha_minus - self.beta_plus * self.beta_minus

    @classmethod
    def from_matrix(cls, U, x, xprime, k) -> "EvolutionMatrix":
        return cls(alpha_plus=complex(U[0, 0]), alpha_minus=complex(U[1, 1]),
                   beta_plus=complex(U[1, 0]), beta_minus=complex(U[0, 1]),
                   x=float(x), xprime=float(xprime), k=complex(k))

    def inverse(self) -> "EvolutionMatrix":
        """U(xprime, x; k); uses unimodularity."""
        return EvolutionMatrix(alpha_plus=self.alpha_minus, alpha_minus=self.alpha_plus,
                               beta_plus=-self.beta_plus, beta_minus=-self.beta_minus,
                               x=self.xprime, xprime=self.x, k=self.k)


@dataclass(frozen=True)
class ScatteringCoeffs:
    tau: complex
    R_r: complex
    R_l: complex


@dataclass(frozen=True)
class GeneralizedScattering:
    tau_bar: complex
    Rr_bar: complex
    Rl_bar: complex
    W: float
    xi: float


@dataclass(frozen=True)
class Monodromy:
    """One-period data: Y is the half-trace, Z the branch-resolved sqrt(1-Y^2),
    lambda = Y - iZ the large Floquet multiplier, gamma = 1/lambda^2.
    band is the band/gap/edge class of a real k (None off the real axis)."""
    Y: complex
    Z: complex
    lam: complex
    gamma: complex
    k: complex
    band: BandClass | None = None


# ---------------------------------------------------------------------------
# elementary factors

def _jump_matrix(delta: float) -> np.ndarray:
    c = math.cosh(0.5 * delta)
    s = math.sinh(0.5 * delta)
    return np.array([[c, -s], [-s, c]], dtype=complex)


def _const_drift_matrix(f: float, d: float, k: complex) -> np.ndarray:
    """exp(d*[[-ik, f], [f, ik]]), exact for constant drift."""
    mu2 = f * f - k * k
    mu = cmath.sqrt(mu2)
    if abs(mu * d) < 1e-8:
        ch = 1.0 + mu2 * d * d / 2.0
        shm = d * (1.0 + mu2 * d * d / 6.0)  # sinh(mu d)/mu
    else:
        ch = cmath.cosh(mu * d)
        shm = cmath.sinh(mu * d) / mu
    ik = 1j * k
    return np.array([[ch - ik * shm, f * shm],
                     [f * shm, ch + ik * shm]])


# 3-point Gauss-Legendre nodes on [0, 1]: the samples of the 6th-order Magnus step
_GL_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * (math.sqrt(15.0) / 10.0)
# step length h = _STEP_SCALE * MAGNUS_RTOL**(1/6) / rate; per-step error ~ (h*rate)**7
_STEP_SCALE = 2.0
# steps multiplied per array pass; bounds the kernel's memory at large |k| * length
_CHUNK = 4096
_RATE_SAMPLES = np.linspace(0.0, 1.0, 9)  # where _step_edges samples a piece's drift


def _magnus_product(seg, seg_start: float, edges: np.ndarray, k: complex) -> np.ndarray:
    """U(edges[-1], edges[0]; k) inside one smooth segment, by one 6th-order
    Magnus step per interval of edges (Blanes, Casas, Oteo & Ros, Phys. Rep.
    470 (2009); Iserles & Norsett, Phil. Trans. R. Soc. A 357 (1999)).

    In the Pauli basis A(x) = f(x) sigma_x - ik sigma_z is the 3-vector
    (f, 0, -ik), and [u.sigma, v.sigma] = 2i (u x v).sigma.  With A_j at the
    Gauss nodes, a1 = h A_2, a2 = (sqrt(15)/3) h (A_3 - A_1),
    a3 = (10/3) h (A_3 - 2 A_2 + A_1), C1 = [a1, a2],
    C2 = -[a1, 2 a3 + C1]/60, the step exponent is
    Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240.  Below, the cross
    products are written out for a1 = (p1, 0, w), a2 = (p2, 0, 0),
    a3 = (p3, 0, 0).  exp(Omega) = cosh(mu) + sinh(mu)/mu * Omega.sigma with
    mu^2 = Omega.Omega, so every step is unimodular by construction.
    """
    h = np.diff(edges)
    t = edges[:-1] + h * _GL_NODES[:, None]
    f = -0.5 * np.asarray(seg.slope(t - seg_start), dtype=float)  # f[node, step]
    p1 = h * f[1]
    p2 = (math.sqrt(15.0) / 3.0) * h * (f[2] - f[0])
    p3 = (10.0 / 3.0) * h * (f[2] - 2.0 * f[1] + f[0])
    w = -1j * k * h
    c = 2j * w * p2  # C1 = (0, c, 0)
    # u = -20 a1 - a3 + C1 and v = a2 + C2
    ux, uy, uz = -20.0 * p1 - p3, c, -20.0 * w
    vx, vy, vz = p2 + (1j / 30.0) * w * c, (-1j / 15.0) * w * p3, (-1j / 30.0) * p1 * c
    om = np.array([p1 + p3 / 12.0 + (1j / 120.0) * (uy * vz - uz * vy),
                   (1j / 120.0) * (uz * vx - ux * vz),
                   w + (1j / 120.0) * (ux * vy - uy * vx)])
    mu2 = om[0] * om[0] + om[1] * om[1] + om[2] * om[2]
    mu = np.sqrt(mu2)
    # cosh and sinh from one expm1: sinh(mu) = expm1(mu) (1 + e^-mu) / 2 keeps
    # its relative accuracy at small mu
    em1 = np.expm1(mu)
    einv = 1.0 / (1.0 + em1)
    ch = 0.5 * (1.0 + em1 + einv)
    small = np.abs(mu) < 1e-8
    shm = np.where(small, 1.0 + mu2 / 6.0,
                   0.5 * em1 * (1.0 + einv) / np.where(small, 1.0, mu))  # sinh(mu)/mu
    # rows U00, U01, U10, U11 of the step matrices, in step order
    steps = np.array([ch + shm * om[2], shm * (om[0] - 1j * om[1]),
                      shm * (om[0] + 1j * om[1]), ch - shm * om[2]])
    # ordered product E[n-1] ... E[0] by pairwise tree reduction
    while steps.shape[1] > 1:
        n = steps.shape[1]
        lo, hi = steps[:, 0:n - 1:2], steps[:, 1:n:2]
        paired = np.array([hi[0] * lo[0] + hi[1] * lo[2], hi[0] * lo[1] + hi[1] * lo[3],
                           hi[2] * lo[0] + hi[3] * lo[2], hi[2] * lo[1] + hi[3] * lo[3]])
        steps = np.concatenate([paired, steps[:, n - 1:]], axis=1) if n % 2 else paired
    return steps[:, 0].reshape(2, 2)


def _step_edges(seg, seg_start: float, a: float, b: float, k: complex) -> np.ndarray:
    """Magnus step edges on [a, b]: pieces split at the segment's smoothness
    knots, each cut into equal steps no longer than h."""
    cuts = [seg_start + t for t in seg.knots]
    breaks = np.array([a] + [c for c in cuts if a < c < b] + [b])
    # rates of the drift system, sampled on each piece: |k|, |f| and
    # sqrt|f'|; the last sets the step where f varies fast but stays small
    s = (breaks[:-1, None] + np.diff(breaks)[:, None] * _RATE_SAMPLES
         - seg_start).ravel()
    f0 = 0.5 * float(np.max(np.abs(seg.slope(s))))
    f1 = 0.5 * float(np.max(np.abs(seg.curvature(s))))
    rate = max(1.0, abs(k), f0, math.sqrt(f1))
    h = _STEP_SCALE * MAGNUS_RTOL ** (1.0 / 6.0) / rate
    parts = [np.linspace(lo, hi, max(1, math.ceil((hi - lo) / h)) + 1)[:-1]
             for lo, hi in zip(breaks[:-1], breaks[1:])]
    return np.concatenate(parts + [[b]])


def _magnus_piece(seg, seg_start: float, a: float, b: float, k: complex) -> np.ndarray:
    """U(b, a; k) inside one cosine or table segment."""
    edges = _step_edges(seg, seg_start, a, b, k)
    U = np.eye(2, dtype=complex)
    for lo in range(0, edges.size - 1, _CHUNK):
        U = _magnus_product(seg, seg_start, edges[lo:lo + _CHUNK + 1], k) @ U
    return U


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call: only the DOP853
    reference route below integrates, and importing scipy.integrate takes
    most of the package's import time."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _ode_piece(pot, a: float, b: float, k: complex, U0: np.ndarray, rtol: float,
               t_eval=None):
    """Integrate dU/dx = [[-ik, f],[f, ik]] U from a to b inside one segment
    with DOP853.  Reference route for the tests; the package propagates
    with the Magnus kernel."""
    seg, seg_start = pot.segment_at(0.5 * (a + b))
    ik = 1j * k

    def rhs(t, y):
        fv = -0.5 * float(seg.slope(t - seg_start))
        return (-ik * y[0] + fv * y[2], -ik * y[1] + fv * y[3],
                fv * y[0] + ik * y[2], fv * y[1] + ik * y[3])

    sol = solve_ivp(rhs, (a, b), np.asarray(U0, dtype=complex).ravel(),
                    method="DOP853", rtol=rtol, atol=DEFAULT_ATOL, t_eval=t_eval)
    if not sol.success:
        raise RuntimeError(f"propagation failed on [{a}, {b}]: {sol.message}")
    return sol.y.reshape(2, 2, -1)


def _piece_matrix(pot, a: float, b: float, k: complex, U0: np.ndarray):
    """U(b, a) @ U0 across one smooth stretch (no interior boundaries)."""
    if b == a:
        return U0
    seg, seg_start = pot.segment_at(0.5 * (a + b))
    if seg.kind in ("const", "linear"):
        return _const_drift_matrix(-0.5 * float(seg.slope(0.0)), b - a, k) @ U0
    return _magnus_piece(seg, seg_start, a, b, k) @ U0


def _span_matrix(pot, b: float, a: float, k: complex) -> np.ndarray:
    """U(b, a; k) for b >= a by marching across boundaries; jumps on (a, b]."""
    U = np.eye(2, dtype=complex)
    cur = a
    for pos, delta in pot.boundaries_in(a, b):
        U = _piece_matrix(pot, cur, min(pos, b), k, U)
        if delta != 0.0:
            U = _jump_matrix(delta) @ U
        cur = pos
    if cur < b:
        U = _piece_matrix(pot, cur, b, k, U)
    return U


def _matrix_power(U: np.ndarray, n: int) -> np.ndarray:
    """U^n by repeated squaring."""
    result = np.eye(2, dtype=complex)
    base = U
    while n:
        if n & 1:
            result = base @ result
        n >>= 1
        if n:  # a last squaring would go unused, and may overflow
            base = base @ base
    return result


def _near_jump(pot, t: float) -> bool:
    """Whether a segment-boundary translate lies within 1e-9 L of t."""
    reach = 1e-9 * pot.period
    _, start = pot._locate(t)
    return t - start < reach or pot._locate(t + reach)[1] != start


# ---------------------------------------------------------------------------
# public operations

def evolve(pot, x: float, xprime: float, k: complex) -> EvolutionMatrix:
    """Evolution matrix U(x, xprime; k) of the drift system; OverflowError
    when it does not fit in floating point (strong jumps, long spans)."""
    return _evolve(pot, x, xprime, k)


def _evolve(pot, x, xprime, k, period=None) -> EvolutionMatrix:
    """`evolve`; its power path takes `period`, if given, as U(xprime + L, xprime)."""
    k = complex(k)
    x = float(x)
    xprime = float(xprime)
    if not (math.isfinite(x) and math.isfinite(xprime)):
        raise ValueError("endpoints must be finite")
    if not cmath.isfinite(k):
        raise ValueError(f"k must be finite, got {k}")
    if x == xprime:
        return EvolutionMatrix(1.0, 1.0, 0.0, 0.0, x, xprime, k)
    if x < xprime:
        return _evolve(pot, xprime, x, k).inverse()
    if k == 0:
        half = 0.5 * (pot.V(xprime) - pot.V(x))
        return EvolutionMatrix(alpha_plus=math.cosh(half), alpha_minus=math.cosh(half),
                               beta_plus=math.sinh(half), beta_minus=math.sinh(half),
                               x=x, xprime=xprime, k=k)
    L = pot.period
    if x - xprime < 2.0 * L:
        U = _span_matrix(pot, x, xprime, k)
    else:
        # the period at a base m to the power n, then the march from m + nL
        # to the literal x; m is xprime or, where that is within rounding
        # distance of a jump, the middle of the longest segment after it
        m = xprime
        if _near_jump(pot, xprime):
            i = max(range(len(pot.segments)), key=lambda j: pot.segments[j].length)
            mid = pot._origins[i] + 0.5 * pot.segments[i].length
            m = mid + (pot._last_translate(mid, xprime) + 1) * L
            period = None
        n = int(math.floor((x - m) / L))
        n -= m + n * L > x
        if period is None:
            period = _span_matrix(pot, m + L, m, k)
        U = _span_matrix(pot, x, m + n * L, k) @ _matrix_power(period, n)
        if m > xprime:
            U = U @ _span_matrix(pot, m, xprime, k)
    if not np.all(np.isfinite(U)):
        raise OverflowError(f"U({x}, {xprime}; k = {k}) overflowed to a non-finite value")
    return EvolutionMatrix.from_matrix(U, x, xprime, k)


def scattering(U: EvolutionMatrix) -> ScatteringCoeffs:
    """Transmission and reflection coefficients of a finite interval."""
    if U.alpha_plus == 0:
        raise SingularIntervalError("alpha(k) = 0: interval is singular at this k")
    return ScatteringCoeffs(tau=1.0 / U.alpha_plus,
                            R_r=U.beta_plus / U.alpha_plus,
                            R_l=-U.beta_minus / U.alpha_plus)


def generalize(U: EvolutionMatrix, W: float, Vx: float) -> GeneralizedScattering:
    """Scattering coefficients dressed by the hyperbolic rotation to level W.

    Vx is the potential value at the right endpoint of U's interval; the
    plain coefficients are recovered at W = Vx.
    """
    half = 0.5 * (W - Vx)
    c = math.cosh(half)
    s = math.sinh(half)
    abar_p = c * U.alpha_plus - s * U.beta_plus
    bbar_p = c * U.beta_plus - s * U.alpha_plus
    bbar_m = c * U.beta_minus - s * U.alpha_minus
    if abar_p == 0:
        raise SingularIntervalError("generalized alpha(k) = 0")
    return GeneralizedScattering(tau_bar=1.0 / abar_p,
                                 Rr_bar=bbar_p / abar_p,
                                 Rl_bar=-bbar_m / abar_p,
                                 W=W, xi=math.tanh(half))


def _uhp_Z(Y: complex) -> complex:
    """Branch of sqrt(1 - Y^2) making |Y - iZ| the larger eigenvalue."""
    s = cmath.sqrt((1.0 - Y) * (1.0 + Y))
    if abs(Y - 1j * s) >= abs(Y + 1j * s):
        return s
    return -s


def _classify(Y: float) -> BandClass:
    """Band/gap/edge class of a real k from its real half-trace Y."""
    y2 = Y * Y
    if y2 < 1.0 - EDGE_TOL:
        return BandClass.BAND
    if y2 > 1.0 + EDGE_TOL:
        return BandClass.GAP
    return BandClass.EDGE


def _real_Z(Y: float, band: BandClass, sign: float) -> complex:
    """Upper-half-plane limit of Z at a real k: the closed form in a gap,
    sqrt(1 - Y^2) carrying the given sign in a band and at an edge."""
    if band is BandClass.GAP:
        # sqrt(Y^2 - 1) rounds to |Y| long before Y^2 overflows
        root = abs(Y) if abs(Y) > 1e150 else math.sqrt(Y * Y - 1.0)
        return 1j * math.copysign(1.0, Y) * root
    return complex(math.copysign(math.sqrt(max(0.0, 1.0 - Y * Y)), sign))


def branch_Z(Y_of_k, k: complex) -> complex:
    """sqrt(1 - Y^2) with the large-multiplier branch, from a half-trace
    function alone; the epsilon-limit reference for `monodromy`.

    For Im k > 0 the branch is fixed by |lambda| > 1.  On the real axis the
    value is the boundary limit from above: inside gaps it has the closed
    form i*sign(Y)*sqrt(Y^2-1); inside bands and at edges its sign is
    obtained by evaluating at k + i*eps and k + i*eps/2, with
    eps = 1e-7*max(1, |k|), and extrapolating linearly to eps = 0.
    """
    k = complex(k)
    if k.imag < 0:
        raise ValueError("defined for Im k >= 0 only")
    Y = complex(Y_of_k(k))
    if k.imag > 0:
        return _uhp_Z(Y)
    Y = Y.real
    band = _classify(Y)
    if band is BandClass.GAP:
        return _real_Z(Y, band, 1.0)
    eps = 1e-7 * max(1.0, abs(k))
    z_lim = 2.0 * _uhp_Z(Y_of_k(k + 0.5j * eps)) - _uhp_Z(Y_of_k(k + 1j * eps))
    return _real_Z(Y, band, z_lim.real)


def _upper_k(k: complex) -> complex:
    k = complex(k)
    if not cmath.isfinite(k):
        raise ValueError(f"k must be finite, got {k}")
    if k.imag < 0:
        raise ValueError("defined for Im k >= 0 only")
    return k


def _period_monodromy(U: EvolutionMatrix) -> Monodromy:
    """Eigenvalue data and band class from a one-period matrix
    U(x, x - L; k) at any base point x.

    A shift of base point conjugates U, so Y = tr U / 2 is the same at every
    x.  Off the real axis Z is the branch with |lambda| > 1; in a gap it is
    i*sign(Y)*sqrt(Y^2 - 1).  In a band and at an edge it is the limit from
    above, -sign(Im alpha_plus)*sqrt(1 - Y^2): for real k the drift system
    is pseudo-unitary, so |alpha_plus|^2 = 1 + |beta_plus|^2 > Y^2 keeps
    Im alpha_plus away from zero inside a band, its sign is the same at
    every base point, and dY/dk is its integral over base points;
    |lambda| > 1 above the axis needs sign(Z) = -sign(dY/dk).
    """
    k = U.k
    Y = 0.5 * (U.alpha_plus + U.alpha_minus)
    if k.imag > 0:
        band = None
        Z = _uhp_Z(Y)
    else:
        Y = complex(Y.real)
        band = _classify(Y.real)
        Z = _real_Z(Y.real, band, -U.alpha_plus.imag)
    lam = Y - 1j * Z
    return Monodromy(Y=Y, Z=Z, lam=lam, gamma=1.0 / (lam * lam), k=k, band=band)


def monodromy(pot, k: complex) -> Monodromy:
    """One-period eigenvalue data and the band class of a real k (branch rules
    at `_period_monodromy`), from the cell window [offset, offset + L]."""
    return _period_monodromy(evolve(pot, pot.offset + pot.period, pot.offset, _upper_k(k)))


def classify_band(pot, k: float) -> BandClass:
    """Band/gap/edge classification of a real wavenumber from Y^2 vs 1."""
    return monodromy(pot, float(k)).band


# the power-series route sums at most SERIES_TERMS powers of t = ik and
# stops where two successive terms fall below SERIES_TOL
SERIES_TERMS = 60
SERIES_TOL = 1e-10


def _series_coeffs(pot, x: float, xprime: float, n: int) -> np.ndarray:
    """[t^0 .. t^n] in t = ik of (alpha_plus, alpha_minus, beta_plus,
    beta_minus) of U(x, xprime) for x >= xprime, as a (4, n + 1) array.

    The alternating words of lengths 1..n over [xprime, x] that start with
    -1 (+1) are the t^1..t^n coefficients of a series whose even part
    (with 1 at t^0) and odd part, rotated by the endpoint values of V,
    give the matrix elements.
    """
    vx, vp = pot.V(x), pot.V(xprime)
    tails = np.ones((2, n + 1))
    tails[0, 1:] = alternating_tail_values(pot, xprime, x, -1, n)
    tails[1, 1:] = alternating_tail_values(pot, xprime, x, +1, n)
    odd = np.arange(n + 1) % 2 == 1
    at_p, at_m = np.where(odd, 0.0, tails) * [[math.exp(-0.5 * (vx - vp))],
                                              [math.exp(0.5 * (vx - vp))]]
    bt_p, bt_m = np.where(odd, tails, 0.0) * [[math.exp(0.5 * (vx + vp))],
                                              [math.exp(-0.5 * (vx + vp))]]
    return 0.5 * np.array([at_p + at_m - bt_p - bt_m, at_p + at_m + bt_p + bt_m,
                           at_p - at_m + bt_p - bt_m, at_p - at_m - bt_p + bt_m])


def series_evolution(pot, x: float, xprime: float, k: complex) -> EvolutionMatrix:
    """Evolution matrix from the iterated-integral power series in k.

    Practical for |k|*(x - xprime) up to order unity; raises
    SeriesDivergenceError when SERIES_TERMS powers leave the tail above
    SERIES_TOL (use evolve instead there).
    """
    k = complex(k)
    x = float(x)
    xprime = float(xprime)
    if not (math.isfinite(x) and math.isfinite(xprime) and cmath.isfinite(k)):
        raise ValueError(f"x, xprime and k must be finite, got {x}, {xprime}, {k}")
    if x == xprime:
        return EvolutionMatrix(1.0, 1.0, 0.0, 0.0, x, xprime, k)
    if x < xprime:
        return series_evolution(pot, xprime, x, k).inverse()
    powers = (1j * k) ** np.arange(SERIES_TERMS + 1)
    terms = _series_coeffs(pot, x, xprime, SERIES_TERMS) * powers
    mags = np.abs(terms).max(axis=0)
    # powers m + 1 and m + 2 both below the tolerance, m >= 0
    cut = np.flatnonzero((mags[1:-1] < SERIES_TOL) & (mags[2:] < SERIES_TOL))
    if not cut.size:
        raise SeriesDivergenceError(
            f"series tail still {mags[-1]:.2e} after {SERIES_TERMS} terms; "
            "use evolve for this k")
    return EvolutionMatrix(*map(complex, terms[:, :cut[0] + 3].sum(axis=1)), x, xprime, k)
