"""High-precision oracle for piecewise-constant cells.

Inside a constant segment the drift vanishes, so the amplitude pair only
picks up phases, diag(e^{-ikd}, e^{ikd}); a jump delta of V is the exact
factor [[cosh(delta/2), -sinh(delta/2)], [-sinh(delta/2), cosh(delta/2)]].
The oracle multiplies these factors in 40-digit arithmetic, takes the
Floquet eigenvectors of the one-period matrix at y (the boundary value
from Im k > 0 via k + 1e-25i), and assembles G from the decaying
solutions and their Wronskian.  It shares no code with the package.
"""

import mpmath
import numpy as np
import pytest

from bloch_green.green import green_exact
from bloch_green.potential import load_potential
from bloch_green.transfer import BandClass

DPS = 40
ETA = mpmath.mpf("1e-25")

# (period, offset, [(V, len), ...]) and the package's spec of the same cell
CELLS = {
    "square": ((1, 0, [(0, "0.6"), (1, "0.4")]),
               "period=1; const V=0 len=0.6; const V=1 len=0.4", 0.4, 0.1),
    "offset_v4": ((1, "0.3", [(0, "0.6"), (4, "0.4")]),
                  "period=1; offset=0.3; const V=0 len=0.6; const V=4 len=0.4", 1.7, 0.35),
}


def _mul(A, B):
    return ((A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
            (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]))


def _apply(A, v):
    return (A[0][0] * v[0] + A[0][1] * v[1], A[1][0] * v[0] + A[1][1] * v[1])


class ConstCell:
    def __init__(self, period, offset, segs):
        self.L = mpmath.mpf(period)
        self.offset = mpmath.mpf(offset)
        levels = [mpmath.mpf(v) for v, _ in segs]
        starts = [mpmath.mpf(0)]
        for _, length in segs[:-1]:
            starts.append(starts[-1] + mpmath.mpf(length))
        # jump at each segment start: right level minus left level
        self.marks = [(s, levels[i] - levels[i - 1]) for i, s in enumerate(starts)]

    def factors(self, a, b):
        """Sorted (position, jump) pairs with a < p <= b."""
        out = []
        for s, delta in self.marks:
            p0 = self.offset + s
            j = mpmath.ceil((a - p0) / self.L)
            p = p0 + j * self.L
            if p == a:
                p += self.L
            while p <= b:
                out.append((p, delta))
                p += self.L
        return sorted(out, key=lambda t: t[0])

    def U(self, b, a, k):
        M = ((mpmath.mpf(1), mpmath.mpf(0)), (mpmath.mpf(0), mpmath.mpf(1)))
        cur = a
        for p, delta in self.factors(a, b) + [(b, mpmath.mpf(0))]:
            d = p - cur
            M = _mul(((mpmath.exp(-1j * k * d), 0), (0, mpmath.exp(1j * k * d))), M)
            if delta:
                c, s = mpmath.cosh(delta / 2), mpmath.sinh(delta / 2)
                M = _mul(((c, -s), (-s, c)), M)
            cur = p
        return M

    def green(self, x, y, k):
        """G_S(x, y; k) for x >= y, with Im k > 0."""
        M = self.U(y, y - self.L, k)
        Y = (M[0][0] + M[1][1]) / 2
        root = mpmath.sqrt(Y * Y - 1)
        lams = sorted((Y + root, Y - root), key=abs)

        def eigvec(lam):
            v1 = (M[0][1], lam - M[0][0])
            v2 = (lam - M[1][1], M[1][0])
            return v1 if abs(v1[0]) + abs(v1[1]) >= abs(v2[0]) + abs(v2[1]) else v2

        up = eigvec(lams[0])  # decays to the right: multiplier |lambda| < 1
        um = eigvec(lams[1])  # decays to the left
        wronskian = 1j * k * ((um[0] + um[1]) * (up[1] - up[0])
                              - (up[0] + up[1]) * (um[1] - um[0]))
        ux = _apply(self.U(x, y, k), up)
        return (ux[0] + ux[1]) * (um[0] + um[1]) / wronskian


@pytest.mark.parametrize("name", sorted(CELLS))
def test_green_matches_40_digit_factor_product(name):
    data, spec, x, y = CELLS[name]
    pot = load_potential(spec)
    with mpmath.workdps(DPS):
        oracle = ConstCell(*data)
        xm, ym = mpmath.mpf(repr(x)), mpmath.mpf(repr(y))
        worst = 0.0
        checked = 0
        for k in np.linspace(0.01, 12.0, 600):
            gv = green_exact(pot, x, y, float(k))
            if gv.band_class is BandClass.EDGE:
                continue
            want = complex(oracle.green(xm, ym, mpmath.mpf(float(k)) + 1j * ETA))
            worst = max(worst, abs(gv.G_S - want) / abs(want))
            checked += 1
    assert checked >= 590
    assert worst <= 1e-10, worst


HALF_CELL_LEVELS = (1, 5, 10, 20)


def _contour_a(cell, x, L0, N, npts=64):
    """a_0 .. a_N of S_r(x, k) - 1/2 in powers of ik, by trapezoid quadrature
    on the circle |ik| = 0.2 / L0 of S_r from the one-period factor product,
    with the branch Z ~ k L0."""
    rho = mpmath.mpf("0.2") / L0
    acc = [mpmath.mpc(0)] * (N + 1)
    for j in range(npts):
        zeta = rho * mpmath.expjpi(mpmath.mpf(2 * j) / npts)
        k = -1j * zeta
        M = cell.U(x, x - cell.L, k)
        ap, bm, bp, am = M[0][0], M[0][1], M[1][0], M[1][1]
        Y = (ap + am) / 2
        Z = mpmath.sqrt((1 - Y) * (1 + Y))
        if mpmath.re(Z / (k * L0)) < 0:
            Z = -Z
        val = 2 * bp / (ap - am + 2 * bp - 2j * Z) - mpmath.mpf(1) / 2
        for n in range(N + 1):
            acc[n] += val / zeta ** n
    return [float(mpmath.re(v)) / npts for v in acc]


@pytest.mark.parametrize("V", HALF_CELL_LEVELS)
def test_expansion_coeffs_match_50_digit_contour(V):
    # the bracket series of the one-period matrix behind a_3 and a_4 stays
    # exact on half cells with a strong level, where a double-precision
    # contour loses its overlap with the closed forms
    from bloch_green.wop import _taylor_coeffs_a
    pot = load_potential(f"period=1; const V=0 len=0.5; const V={V} len=0.5")
    with mpmath.workdps(50):
        cell = ConstCell(1, 0, [(0, "0.5"), (V, "0.5")])
        L0 = mpmath.sqrt((1 + mpmath.exp(V)) * (1 + mpmath.exp(-V))) / 2
        for x in (0.13, 0.41, 0.77):
            want = _contour_a(cell, mpmath.mpf(repr(x)), L0, 4)
            got = _taylor_coeffs_a(pot, x, 4)
            for n in range(5):
                assert got[n] == pytest.approx(want[n], rel=1e-11, abs=0.0), (V, x, n)


@pytest.mark.parametrize("V", (15, 20))
def test_expansion_coeffs_on_strong_half_cells_past_the_absolute_overlap(V):
    # |a_2| is 3e7 to 2e11 at these points, so the closed forms and the
    # bracket series differ by 3e-7 to 3e-2 in absolute terms while both
    # agree to 2e-13 relative; the overlap check is relative
    from bloch_green.green import green_series
    from bloch_green.wop import expansion_coeffs
    pot = load_potential(f"period=1; const V=0 len=0.5; const V={V} len=0.5")
    with mpmath.workdps(50):
        cell = ConstCell(1, 0, [(0, "0.5"), (V, "0.5")])
        L0 = mpmath.sqrt((1 + mpmath.exp(V)) * (1 + mpmath.exp(-V))) / 2
        for x in (0.6, 0.77, 0.9):
            want = _contour_a(cell, mpmath.mpf(repr(x)), L0, 4)
            got, _ = expansion_coeffs(pot, x, 4)
            for n in range(5):
                assert got[n] == pytest.approx(want[n], rel=1e-11, abs=0.0), (V, x, n)
            gs = green_series(pot, x, 0.1, order=3)
            assert all(np.isfinite((gs.g_m1, gs.g_0, gs.g_1, gs.g_2, gs.g_3))), (V, x)


def _contour_tG(cell, x, y, L0, npts=128):
    """[t^0 .. t^4] of tG(x, y) = chi / (2(1 - S(y))), t = ik, by trapezoid
    quadrature on the circle |t| = 0.2 / L0: S_l(y), S(y) from the
    one-period factor product at y with the branch Z ~ k L0, and chi from
    U(x, y) applied to the amplitude pair (S_l(y), 1 - S_l(y))."""
    rho = mpmath.mpf("0.2") / L0
    acc = [mpmath.mpc(0)] * 5
    for j in range(npts):
        zeta = rho * mpmath.expjpi(mpmath.mpf(2 * j) / npts)
        k = -1j * zeta
        M = cell.U(y, y - cell.L, k)
        ap, bm, bp, am = M[0][0], M[0][1], M[1][0], M[1][1]
        Y = (ap + am) / 2
        Z = mpmath.sqrt((1 - Y) * (1 + Y))
        if mpmath.re(Z / (k * L0)) < 0:
            Z = -Z
        sl = -2 * bm / (ap - am - 2 * bm - 2j * Z)
        s = 1 + 2j * Z / (ap - am + bp - bm)
        U = cell.U(x, y, k)
        chi = (U[0][0] + U[1][0]) * sl + (U[0][1] + U[1][1]) * (1 - sl)
        val = chi / (2 * (1 - s))
        for n in range(5):
            acc[n] += val / zeta ** n
    return [float(mpmath.re(v)) / npts for v in acc]


@pytest.mark.parametrize("V", (10, 15, 20))
def test_green_series_on_strong_half_cells_matches_50_digit_contour(V):
    # g_{n-1} = [t^n] tG; the endpoint form of the series keeps g_2 within
    # 3.1e-9 relative on these cells, its worst coefficient
    from bloch_green.green import green_series
    pot = load_potential(f"period=1; const V=0 len=0.5; const V={V} len=0.5")
    gs = green_series(pot, 0.77, 0.1, order=3)
    with mpmath.workdps(50):
        cell = ConstCell(1, 0, [(0, "0.5"), (V, "0.5")])
        L0 = mpmath.sqrt((1 + mpmath.exp(V)) * (1 + mpmath.exp(-V))) / 2
        want = _contour_tG(cell, mpmath.mpf("0.77"), mpmath.mpf("0.1"), L0)
    got = (gs.g_m1, gs.g_0, gs.g_1, gs.g_2, gs.g_3)
    for n in range(5):
        assert got[n] == pytest.approx(want[n], rel=1e-8, abs=0.0), (V, n)
