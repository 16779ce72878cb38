"""Independent references for the benchmark's correctness checks.

Nothing here imports bloch_green.  Cells are described by the same plain
segment dicts the workload generator renders into potential files.

Smooth and mixed cells are checked by shooting in (psi, chi) variables,
chi = psi' - f psi with drift f = -V'/2.  The Schrodinger operator
-psi'' + (f^2 + f') psi factors as (-d/dx - f)(d/dx - f), so

    psi' = f psi + chi,    chi' = -f chi - k^2 psi

between segment boundaries, and a jump of V by delta multiplies psi by
exp(-delta/2) and chi by exp(+delta/2) exactly.  Away from jumps this is
the (psi, psi') system of tests/test_independent_oracles.py.  The Green
function is built from the Floquet eigenvectors of the one-period map at
the source point, so it needs no long transient to decay and also covers
real k (as the limit from Im k > 0).

The square cell is checked against the closed-form two-level Green
function, expanded around k = 0 by contour quadrature.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

RTOL = 1e-12
ATOL = 1e-14
# offset into the upper half plane, relative to max(1, |k|), at which the
# branch of Z is read off; grids stay 1e-4 from band edges, so |Z| stays
# above about 1e-4 and this moves Z by far less than the distance 2|Z|
# between its two branches
ZETA = 1e-7
# contour radius and node count of the square cell's Taylor expansion
RHO = 0.25
NPTS = 32


class RefCell:
    """One period of a segment list: V, drift f and jumps, plus the
    smoothness knots that an integration piece must not straddle."""

    def __init__(self, period, segments):
        self.period = float(period)
        self.pieces = []  # (local start, length, V(s), f(s), interior knots)
        start = 0.0
        for seg in segments:
            self.pieces.append((start, seg["len"]) + _segment_functions(seg))
            start += seg["len"]
        if abs(start - self.period) > 1e-12 * self.period:
            raise ValueError("segment lengths do not sum to the period")
        self.starts = [p[0] for p in self.pieces]
        self.jumps = []  # V(right limit) - V(left limit) at each segment start
        for i, (_, _, v, _, _) in enumerate(self.pieces):
            _, plen, pv, _, _ = self.pieces[i - 1]
            self.jumps.append(float(v(0.0)) - float(pv(plen)))

    def _locate(self, x):
        xi = x % self.period
        i = max(j for j, s in enumerate(self.starts) if s <= xi)
        return i, xi

    def V(self, x):
        i, xi = self._locate(x)
        return float(self.pieces[i][2](xi - self.starts[i]))

    def f(self, x):
        i, xi = self._locate(x)
        return float(self.pieces[i][3](xi - self.starts[i]))

    def _events(self, a, b):
        """Sorted (position, jump or None) strictly inside (a, b]; None marks
        a smoothness knot."""
        out = []
        L = self.period
        for i, (start, _, _, _, knots) in enumerate(self.pieces):
            for local, delta in [(start, self.jumps[i])] + [(start + t, None) for t in knots]:
                p0 = local
                j = math.ceil((a - p0) / L)
                p = p0 + j * L
                while p <= a:
                    j += 1
                    p = p0 + j * L
                while p <= b:
                    out.append((p, delta))
                    j += 1
                    p = p0 + j * L
        out.sort(key=lambda t: t[0])
        return out

    def propagate(self, a, b, k, y0):
        """Solution matrix columns y0 (shape (2, m) in (psi, chi)) carried
        from a to b >= a."""
        y = np.array(y0, dtype=complex)
        cur = a
        for pos, delta in self._events(a, b) + [(b, None)]:
            if pos > cur:
                y = self._smooth(cur, pos, k, y)
                cur = pos
            if delta:
                y[0] *= math.exp(-0.5 * delta)
                y[1] *= math.exp(0.5 * delta)
        return y

    def _smooth(self, a, b, k, y):
        i, xi = self._locate(0.5 * (a + b))
        start = 0.5 * (a + b) - xi + self.starts[i]
        f = self.pieces[i][3]
        k2 = k * k
        m = y.shape[1]

        def rhs(t, u):
            fv = f(t - start)
            u = u.reshape(2, m)
            return np.concatenate((fv * u[0] + u[1], -fv * u[1] - k2 * u[0]))

        sol = solve_ivp(rhs, (a, b), y.ravel(), method="DOP853", rtol=RTOL, atol=ATOL)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        return sol.y[:, -1].reshape(2, m)

    def period_map(self, base, k):
        return self.propagate(base, base + self.period, k, np.eye(2))

    def half_trace(self, k):
        T = self.period_map(0.0, k)
        return 0.5 * (T[0, 0] + T[1, 1])

    def branch_Z(self, k):
        """Z = sqrt(1 - Y^2) on the branch whose multiplier Y - iZ is the
        large Floquet multiplier at k + i*ZETA (the limit from Im k > 0)."""
        kk = complex(k) + 1j * ZETA * max(1.0, abs(k))
        T = self.period_map(0.0, kk)
        mus = np.linalg.eigvals(T)
        return 1j * (mus[np.argmax(np.abs(mus))] - 0.5 * (T[0, 0] + T[1, 1]))

    def _floquet(self, base, k):
        """(mu, v) for the right-decaying and the left-decaying Bloch
        solutions at base; real k takes the limit from Im k > 0."""
        T = self.period_map(base, k)
        mus, vecs = np.linalg.eig(T)
        if k.imag > 0:
            right = int(np.argmin(np.abs(mus)))
        else:
            shifted = np.linalg.eigvals(self.period_map(base, k + 1e-6j * max(1.0, abs(k))))
            target = shifted[np.argmin(np.abs(shifted))]
            right = int(np.argmin(np.abs(mus - target)))
        return (mus[right], vecs[:, right]), (mus[1 - right], vecs[:, 1 - right])

    def green(self, x, y, k):
        """Schrodinger-form Green function G_S(x, y; k)."""
        k = complex(k)
        if x < y:
            x, y = y, x
        (mu_r, v_r), (_, v_l) = self._floquet(y, k)
        n = int(math.floor((x - y) / self.period))
        rest = x - y - n * self.period
        carried = v_r if rest <= 0.0 else self.propagate(y, y + rest, k, v_r[:, None])[:, 0]
        wronskian = v_r[1] * v_l[0] - v_r[0] * v_l[1]
        return mu_r ** n * carried[0] * v_l[0] / wronskian

    def m_functions(self, x, k):
        """Weyl-Titchmarsh pair: psi'/psi of the right-decaying solution and
        -psi'/psi of the left-decaying one (psi' = f psi + chi)."""
        (_, v_r), (_, v_l) = self._floquet(x, complex(k))
        f = self.f(x)
        return f + v_r[1] / v_r[0], -f - v_l[1] / v_l[0]

    def s_functions(self, x, k):
        """(S_r, S_l, S) from the m-functions: m_minus = ik(1 - 2 S_r) - f and
        m_plus = ik(1 - 2 S_l) + f."""
        ik = 1j * complex(k)
        f = self.f(x)
        m_plus, m_minus = self.m_functions(x, k)
        sr = (ik - f - m_minus) / (2.0 * ik)
        sl = (ik + f - m_plus) / (2.0 * ik)
        return sr, sl, sr + sl


def _segment_functions(seg):
    kind = seg["kind"]
    if kind == "const":
        level = seg["V"]
        return (lambda s: level), (lambda s: 0.0), ()
    if kind == "linear":
        v0, v1, length = seg["V0"], seg["V1"], seg["len"]
        g = (v1 - v0) / length
        return (lambda s: v0 + g * s), (lambda s: -0.5 * g), ()
    if kind == "cosine":
        amp, phase, length = seg["amp"], seg.get("phase", 0.0), seg["len"]
        w = 2.0 * math.pi / length
        return ((lambda s: amp * math.cos(w * s + phase)),
                (lambda s: 0.5 * amp * w * math.sin(w * s + phase)), ())
    if kind == "table":
        interp = PchipInterpolator(np.asarray(seg["xs"]), np.asarray(seg["vs"]))
        slope = interp.derivative()
        return ((lambda s: float(interp(s))), (lambda s: -0.5 * float(slope(s))),
                tuple(seg["xs"][1:-1]))
    raise ValueError(f"unknown segment kind {kind!r}")


# ---------------------------------------------------------------------------
# two-level (square) cell: V = 0 on (0, a), C on (a, L)

class SquareCell:
    def __init__(self, C, L, a):
        self.C, self.L, self.a = float(C), float(L), float(a)
        self.b = self.L - self.a
        self.A = -math.tanh(0.5 * self.C)
        M = self.a + self.b * math.exp(-self.C)
        P = self.a + self.b * math.exp(self.C)
        self.L0 = math.sqrt(P * M)
        self.V0 = 0.5 * math.log(P / M)

    def half_trace(self, k):
        """Y(k) in closed form; k may be complex or an array."""
        A2 = self.A * self.A
        return (np.cos(k * self.L) - A2 * np.cos(k * (self.L - 2 * self.b))) / (1 - A2)

    def green(self, x, y, k, Z):
        """Closed form for 0 < y <= x < a (cell coordinates), given the
        branch Z of sqrt(1 - Y^2)."""
        A, b, L = self.A, self.b, self.L
        K = cmath.sin(k * L) - A * A * cmath.sin(k * (L - 2 * b)) - (1 - A * A) * Z
        sinb = cmath.sin(k * b)
        num1 = 2 * A * cmath.exp(2j * k * x) * cmath.exp(-1j * k * (L - b)) * sinb - K
        num2 = 2 * A * cmath.exp(-2j * k * y) * cmath.exp(1j * k * (L - b)) * sinb - K
        den = 2j * k * cmath.exp(1j * k * (x - y)) * (4 * A * A * sinb * sinb - K * K)
        return num1 * num2 / den

    def branch_Z(self, k):
        """Z at k + i*ZETA on the branch with |Y - iZ| > 1, Y in closed form."""
        kk = complex(k) + 1j * ZETA * max(1.0, abs(k))
        Y = complex(self.half_trace(kk))
        s = cmath.sqrt((1.0 - Y) * (1.0 + Y))
        return s if abs(Y - 1j * s) >= abs(Y + 1j * s) else -s

    def series(self, x, y):
        """(g_m1, g_0, g_1, g_2): Taylor coefficients of ik G in powers of ik.

        Trapezoid quadrature on a circle of radius RHO in the ik plane.
        Inside the disk Z is continued from Z ~ k L0, so the contour may
        cross the real axis.
        """
        zeta = RHO * np.exp(2j * np.pi * np.arange(NPTS) / NPTS)
        vals = np.empty(NPTS, dtype=complex)
        for j, z in enumerate(zeta):
            k = -1j * z
            Y = self.half_trace(k)
            s = cmath.sqrt((1.0 - Y) * (1.0 + Y))
            if (s / (k * self.L0)).real < 0.0:
                s = -s
            vals[j] = z * self.green(x, y, k, s)
        spectrum = np.fft.fft(vals) / NPTS
        return (spectrum[:4] / RHO ** np.arange(4)).real
