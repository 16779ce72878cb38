"""Evolution matrices over finite intervals, one-period monodromy, and
finite-interval scattering coefficients.

The 2x2 evolution matrix propagates the pair of wave amplitudes across an
interval.  Smooth stretches with constant drift (const and linear segments)
have closed-form propagators; other smooth stretches are integrated with an
adaptive high-order Runge-Kutta scheme; potential jumps are applied as exact
hyperbolic factor matrices.  A jump sitting exactly at a point p is counted
by intervals with xprime < p <= x.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

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

DEFAULT_RTOL = 1e-12
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


def _ode_piece(pot, a: float, b: float, k: complex, U0: np.ndarray, rtol: float,
               t_eval=None):
    """Integrate dU/dx = [[-ik, f],[f, ik]] U from a to b inside one segment."""
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


def _piece_matrix(pot, a: float, b: float, k: complex, U0: np.ndarray, rtol: float):
    """U(b, a) @ U0 across one smooth stretch (no interior boundaries)."""
    if b == a:
        return U0
    seg, seg_start = pot.segment_at(0.5 * (a + b))
    if seg.kind == "const":
        return _const_drift_matrix(0.0, b - a, k) @ U0
    if seg.kind == "linear":
        f = -0.5 * float(seg.slope(0.0))
        return _const_drift_matrix(f, b - a, k) @ U0
    return _ode_piece(pot, a, b, k, U0, rtol)[:, :, -1]


def _span_matrix(pot, b: float, a: float, k: complex, rtol: float) -> np.ndarray:
    """U(b, a; k) for b >= a by marching across boundaries; jumps on (a, b]."""
    U = np.eye(2, dtype=complex)
    cur = a
    for pos, delta in pot.boundaries_in(a, b):
        U = _piece_matrix(pot, cur, min(pos, b), k, U, rtol)
        if delta != 0.0:
            U = _jump_matrix(delta) @ U
        cur = pos
    if cur < b:
        U = _piece_matrix(pot, cur, b, k, U, rtol)
    return U


def _matrix_power(U: np.ndarray, n: int) -> np.ndarray:
    """U^n for a unimodular 2x2 matrix, by eigenvalues when safely hyperbolic."""
    if n == 0:
        return np.eye(2, dtype=complex)
    if n == 1:
        return U.copy()
    Y = 0.5 * (U[0, 0] + U[1, 1])
    disc = 1.0 - Y * Y
    if abs(disc) > 1e-8:
        s = cmath.sqrt(disc)
        lam = Y - 1j * s
        lam_n = lam ** n
        inv_n = lam ** (-n)
        denom = lam - 1.0 / lam
        alpha = U[0, 0]
        return np.array([
            [(inv_n * (lam - alpha) - lam_n * (1.0 / lam - alpha)) / denom,
             U[0, 1] * (lam_n - inv_n) / denom],
            [U[1, 0] * (lam_n - inv_n) / denom,
             (lam_n * (lam - alpha) - inv_n * (1.0 / lam - alpha)) / denom],
        ])
    # near-degenerate multipliers: repeated squaring avoids the 1/(lam - 1/lam) blowup
    result = np.eye(2, dtype=complex)
    base = U.copy()
    m = n
    while m:
        if m & 1:
            result = base @ result
        base = base @ base
        m >>= 1
    return result


def _near_jump(pot, t: float, rel: float = 1e-9) -> bool:
    """Whether t sits within rounding reach of a segment-boundary translate."""
    L = pot.period
    xi = pot._reduce(t)
    tol = rel * L
    for start in pot.starts:
        d = abs(xi - start)
        if min(d, L - d) < tol:
            return True
    return False


# ---------------------------------------------------------------------------
# public operations

def evolve(pot, x: float, xprime: float, k: complex,
           rtol: float = DEFAULT_RTOL) -> EvolutionMatrix:
    """Evolution matrix U(x, xprime; k) of the drift system."""
    k = complex(k)
    x = float(x)
    xprime = float(xprime)
    if not (math.isfinite(x) and math.isfinite(xprime)):
        raise ValueError("endpoints must be finite")
    if x == xprime:
        return EvolutionMatrix(1.0, 1.0, 0.0, 0.0, x, xprime, k)
    if x < xprime:
        return evolve(pot, xprime, x, k, rtol).inverse()
    if k == 0:
        half = 0.5 * (pot.V(xprime) - pot.V(x))
        return EvolutionMatrix(alpha_plus=math.cosh(half), alpha_minus=math.cosh(half),
                               beta_plus=math.sinh(half), beta_minus=math.sinh(half),
                               x=x, xprime=xprime, k=k)
    L = pot.period
    span = x - xprime
    nper = int(math.floor(span / L))
    if nper >= 2 and not (_near_jump(pot, xprime) or _near_jump(pot, x)):
        # power decomposition works with the rounded span; endpoints within
        # rounding distance of a jump keep the exact-comparison direct path
        rem = span - nper * L
        if rem < 0.0:
            nper -= 1
            rem = span - nper * L
        mono = _span_matrix(pot, xprime + L, xprime, k, rtol)
        U = _matrix_power(mono, nper)
        if rem > 0.0:
            U = _span_matrix(pot, xprime + rem, xprime, k, rtol) @ U
        return EvolutionMatrix.from_matrix(U, x, xprime, k)
    U = _span_matrix(pot, x, xprime, k, rtol)
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


def _classify(Y: float, tol: float = EDGE_TOL) -> BandClass:
    """Band/gap/edge class of a real k from its real half-trace Y."""
    y2 = Y ** 2
    if y2 < 1.0 - tol:
        return BandClass.BAND
    if y2 > 1.0 + tol:
        return BandClass.GAP
    return BandClass.EDGE


def _branch_Z(Y_of_k, k: complex, Y: complex, band: BandClass | None,
              eps: float | None) -> complex:
    """Z at k from Y = Y_of_k(k) and, for real k, its class."""
    if k.imag > 0:
        return _uhp_Z(Y)
    Y = Y.real
    if band is BandClass.GAP:
        return 1j * math.copysign(1.0, Y) * math.sqrt(Y * Y - 1.0)
    if eps is None:
        eps = 1e-7 * max(1.0, abs(k))
    z1 = _uhp_Z(Y_of_k(k + 1j * eps))
    z2 = _uhp_Z(Y_of_k(k + 0.5j * eps))
    z_lim = 2.0 * z2 - z1
    # inside a band the limit is real with |Z| = sqrt(1 - Y^2) exactly; the
    # extrapolation only has to decide the sign
    s = math.sqrt(max(0.0, 1.0 - Y * Y))
    return complex(math.copysign(s, z_lim.real))


def branch_Z(Y_of_k, k: complex, eps: float | None = None) -> complex:
    """sqrt(1 - Y^2) with the large-multiplier branch.

    For Im k > 0 the branch is fixed by |lambda| > 1.  On the real axis the
    value is the boundary limit from above: inside gaps it has the closed
    form i*sign(Y)*sqrt(Y^2-1); inside bands and at edges it is obtained by
    evaluating at k + i*eps for two eps values and extrapolating linearly
    to eps = 0.
    """
    k = complex(k)
    if k.imag < 0:
        raise ValueError("defined for Im k >= 0 only")
    Y = complex(Y_of_k(k))
    band = _classify(Y.real) if k.imag == 0 else None
    return _branch_Z(Y_of_k, k, Y, band, eps)


def _cell_Y(pot, k: complex, rtol: float) -> complex:
    """Half-trace of the one-period matrix over the cell [offset, offset + L]."""
    U = evolve(pot, pot.offset + pot.period, pot.offset, k, rtol)
    return 0.5 * (U.alpha_plus + U.alpha_minus)


def monodromy(pot, k: complex, eps: float | None = None,
              rtol: float = DEFAULT_RTOL) -> Monodromy:
    """One-period eigenvalue data (Y is base-independent), with the band
    class of a real k."""
    k = complex(k)
    if k.imag < 0:
        raise ValueError("defined for Im k >= 0 only")

    def Y_of_k(kk):
        return _cell_Y(pot, kk, rtol)

    Y = Y_of_k(k)
    band = None
    if k.imag == 0:
        Y = complex(Y.real)
        band = _classify(Y.real)
    Z = _branch_Z(Y_of_k, k, Y, band, eps)
    lam = Y - 1j * Z
    return Monodromy(Y=Y, Z=Z, lam=lam, gamma=1.0 / (lam * lam), k=k, band=band)


def classify_band(pot, k: float, tol: float = EDGE_TOL,
                  rtol: float = DEFAULT_RTOL) -> BandClass:
    """Band/gap/edge classification of a real wavenumber from Y^2 vs 1."""
    return _classify(_cell_Y(pot, float(k), rtol).real, tol)


def series_evolution(pot, x: float, xprime: float, k: complex,
                     tol: float = 1e-10, max_terms: int = 60) -> EvolutionMatrix:
    """Evolution matrix from the iterated-integral power series in k.

    Practical for |k|*(x - xprime) up to order unity; raises
    SeriesDivergenceError when the term count exceeds max_terms without the
    tail falling below tol (use evolve instead there).
    """
    k = complex(k)
    x = float(x)
    xprime = float(xprime)
    if x == xprime:
        return EvolutionMatrix(1.0, 1.0, 0.0, 0.0, x, xprime, k)
    if x < xprime:
        return series_evolution(pot, xprime, x, k, tol, max_terms).inverse()

    vx = pot.V(x)
    vp = pot.V(xprime)
    prev = None
    for order in (30, 45, 64):
        tail_p = alternating_tail_values(pot, xprime, x, -1, max_terms, order)
        tail_m = alternating_tail_values(pot, xprime, x, +1, max_terms, order)
        ikp = np.cumprod(np.full(max_terms, 1j * k))  # (ik)^m, m = 1..max_terms
        terms_p = ikp * tail_p
        terms_m = ikp * tail_m
        scale = max(math.exp(abs(vx)), math.exp(abs(vp))) ** 2
        mags = np.maximum(np.abs(terms_p), np.abs(terms_m)) * scale
        cut = None
        for m in range(1, max_terms):
            if mags[m] < tol and mags[m - 1] < tol:
                cut = m + 1
                break
        if cut is None:
            raise SeriesDivergenceError(
                f"series tail still {mags[-1]:.2e} after {max_terms} terms; "
                "use evolve for this k")
        even_p = 1.0 + np.sum(terms_p[1:cut:2])  # m = 2, 4, ...
        odd_p = np.sum(terms_p[0:cut:2])         # m = 1, 3, ...
        even_m = 1.0 + np.sum(terms_m[1:cut:2])
        odd_m = np.sum(terms_m[0:cut:2])
        at_p = math.exp(-0.5 * (vx - vp)) * even_p
        bt_p = math.exp(0.5 * (vx + vp)) * odd_p
        at_m = math.exp(0.5 * (vx - vp)) * even_m
        bt_m = math.exp(-0.5 * (vx + vp)) * odd_m
        alpha_p = 0.5 * (at_p + at_m - bt_p - bt_m)
        alpha_m = 0.5 * (at_p + at_m + bt_p + bt_m)
        beta_p = 0.5 * (at_p - at_m + bt_p - bt_m)
        beta_m = 0.5 * (at_p - at_m - bt_p + bt_m)
        out = EvolutionMatrix(alpha_p, alpha_m, beta_p, beta_m, x, xprime, k)
        if prev is not None:
            delta = max(abs(out.alpha_plus - prev.alpha_plus),
                        abs(out.alpha_minus - prev.alpha_minus),
                        abs(out.beta_plus - prev.beta_plus),
                        abs(out.beta_minus - prev.beta_minus))
            if delta <= tol:
                return out
        prev = out
    return prev
