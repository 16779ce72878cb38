import cmath
import math

import numpy as np
import pytest

from bloch_green.green import (GreenSeries, SquareWellParams, green_exact,
                               green_series, square_well_oracle)
from bloch_green.transfer import BandClass

A, B, C = 0.6, 0.4, 1.0
K_EDGE1 = 2.2060048074714694

# independently computed reference values (40-digit arithmetic on the
# closed form, boundary limit from above)
G_REF = {
    0.5: 0.1494381324735992214977 - 1.516210470936162146814j,
    2.0: 0.1411606183487588393002 - 0.675440028577463934162j,
    3.0: 0.2922934412192488265820 + 0.0j,
}


@pytest.fixture(scope="module")
def sq_params():
    return SquareWellParams(C=C, L=1.0, a=A)


def test_free_green_closed_form(pot_free):
    for k in (0.5, 2.0, 1.3 + 0.4j):
        gv = green_exact(pot_free, 0.7, 0.2, k)
        want = cmath.exp(1j * k * 0.5) / (2j * k)
        assert gv.G_S == pytest.approx(want, abs=1e-10)
        assert gv.G_F == pytest.approx(want, abs=1e-10)


def test_oracle_regression_fixtures(pot_square, sq_params):
    for k, want in G_REF.items():
        got = square_well_oracle(sq_params, 0.4, 0.1, k)
        assert got == pytest.approx(want, rel=1e-10)
        exact = green_exact(pot_square, 0.4, 0.1, k).G_S
        assert exact == pytest.approx(want, rel=1e-8)


def test_oracle_free_limit():
    # the closed form degenerates to 0/0 as the step height vanishes, so
    # probe the limit at moderate heights and require first-order shrinkage
    k = 0.8
    want = cmath.exp(1j * k * 0.3) / (2j * k)
    errs = []
    for height in (1e-2, 1e-3, 1e-4):
        p = SquareWellParams(C=height, L=1.0, a=0.6)
        got = square_well_oracle(p, 0.4, 0.1, k)
        errs.append(abs(got - want) / abs(want))
    assert errs[0] < 1e-2
    assert errs[1] < 0.2 * errs[0]
    assert errs[2] < 0.2 * errs[1]


def test_oracle_low_k_leading_terms(pot_square, sq_params, cc_square):
    # ik G -> g_{-1} as k -> 0, with the next correction ik g_0
    gs = green_series(pot_square, 0.4, 0.1, cc=cc_square)
    for k in (1e-3, 3e-3):
        val = square_well_oracle(sq_params, 0.4, 0.1, k)
        assert 1j * k * val == pytest.approx(gs.g_m1 + 1j * k * gs.g_0, abs=5e-5)


def test_oracle_wedge_validation(sq_params):
    with pytest.raises(ValueError):
        square_well_oracle(sq_params, 0.7, 0.1, 0.5)
    with pytest.raises(ValueError):
        square_well_oracle(sq_params, 0.4, 0.0, 0.5)
    with pytest.raises(ValueError):
        square_well_oracle(sq_params, 0.4, 0.1, 0.0)


def test_square_params_validation():
    with pytest.raises(ValueError):
        SquareWellParams(C=1.0, L=1.0, a=1.0)
    with pytest.raises(ValueError):
        SquareWellParams(C=1.0, L=1.0, a=0.0)


def test_exact_equals_oracle_across_bands(pot_square, sq_params):
    # 50 in-band wavenumbers over the first three bands
    ks = np.linspace(0.05, 7.0, 300)
    in_band = [float(k) for k in ks
               if abs(sq_params.discriminant(float(k)).real) < 0.97]
    ks_sel = in_band[:: max(1, len(in_band) // 50)][:50]
    assert len(ks_sel) >= 40
    for k in ks_sel:
        exact = green_exact(pot_square, 0.4, 0.1, k).G_S
        ref = square_well_oracle(sq_params, 0.4, 0.1, k)
        assert abs(exact - ref) <= 1e-8 * abs(ref), k


@pytest.mark.parametrize("excess", [2e-10, 5e-10, 9e-10])
def test_near_edge_gap_uses_gap_branch(pot_square, sq_params, excess):
    # just inside the first gap, above the edge tolerance: the gap closed
    # form for Z applies and the Wronskian stays finite
    from scipy.optimize import brentq

    from bloch_green.transfer import classify_band, monodromy
    k = brentq(lambda kk: sq_params.discriminant(kk).real ** 2 - 1.0 - excess,
               K_EDGE1, K_EDGE1 + 1e-6, xtol=1e-16)
    mono = monodromy(pot_square, k)
    Y = mono.Y.real
    assert classify_band(pot_square, k) is BandClass.GAP
    assert mono.band is BandClass.GAP
    assert mono.Z == 1j * math.copysign(1.0, Y) * math.sqrt(Y * Y - 1.0)
    gv = green_exact(pot_square, 0.4, 0.1, k)
    assert gv.band_class is BandClass.GAP
    ref = square_well_oracle(sq_params, 0.4, 0.1, k)
    assert abs(gv.G_S - ref) <= 1e-5 * abs(ref)


def test_gap_values_are_real(pot_square):
    for k in (2.5, 3.0, 6.3, 9.6):
        gv = green_exact(pot_square, 0.4, 0.1, k)
        if gv.band_class is BandClass.GAP:
            assert abs(gv.G_S.imag) <= 1e-9


def test_fokker_planck_weight(pot_square):
    # x in the high segment, y in the low one: G_F carries e^{-(V(x)-V(y))/2}
    gv = green_exact(pot_square, 0.8, 0.2, 1.1)
    assert gv.G_F == pytest.approx(math.exp(-0.5 * C) * gv.G_S, rel=1e-14)


def test_symmetry_in_arguments(pot_square):
    g1 = green_exact(pot_square, 0.4, 0.1, 1.3)
    g2 = green_exact(pot_square, 0.1, 0.4, 1.3)
    assert g1.G_S == pytest.approx(g2.G_S, rel=1e-14)


def test_coincident_points_finite(pot_square):
    gv = green_exact(pot_square, 0.4, 0.4, 0.9)
    assert np.isfinite(gv.G_S.real) and np.isfinite(gv.G_S.imag)


def test_translation_covariance(pot_square):
    # shifting both arguments by a period leaves the kernel unchanged
    for k in (0.7, 1.9 + 0.4j):
        g0 = green_exact(pot_square, 0.4, 0.1, k).G_S
        g1 = green_exact(pot_square, 1.4, 1.1, k).G_S
        assert g1 == pytest.approx(g0, rel=1e-11)


def test_defect_equation_multi_period_span(pot_cosine):
    # the x side several periods away from the source still satisfies the
    # homogeneous equation
    k = 0.6 + 0.25j
    y, x0, h = 0.2, 4.9, 1e-3
    g = {d: green_exact(pot_cosine, x0 + d * h, y, k).G_S for d in (-1, 0, 1)}
    second = (g[1] - 2 * g[0] + g[-1]) / h ** 2
    vs = pot_cosine.schrodinger_potential(x0)
    resid = second + (k * k - vs) * g[0]
    assert abs(resid) <= 1e-5 * abs(g[0]) * max(1.0, abs(k) ** 4)


def test_zero_k_rejected(pot_square):
    with pytest.raises(ValueError):
        green_exact(pot_square, 0.4, 0.1, 0.0)


def test_band_edge_flagged_and_large(pot_square):
    # at (numerically) the first edge the kernel blows up; the value is
    # returned with the edge flag rather than crashing
    gv = green_exact(pot_square, 0.4, 0.1, K_EDGE1)
    assert gv.band_class is BandClass.EDGE
    assert abs(gv.G_S) > 1e3


def test_defect_equation_smooth_potential(pot_cosine):
    # centered second difference reproduces (V_S - k^2) G away from y
    k = 0.5 + 0.3j
    x0, y = 0.7, 0.2
    h = 1e-3
    g = {d: green_exact(pot_cosine, x0 + d * h, y, k).G_S for d in (-1, 0, 1)}
    second = (g[1] - 2 * g[0] + g[-1]) / h ** 2
    vs = pot_cosine.schrodinger_potential(x0)
    resid = second + (k * k - vs) * g[0]
    assert abs(resid) <= 1e-5 * abs(g[0]) * max(1.0, abs(k) ** 4)


def test_delta_normalization_jump(pot_cosine):
    # d/dx G jumps by exactly one across x = y
    k = 0.9 + 0.2j
    y = 0.2
    h = 5e-4

    def G(x):
        return green_exact(pot_cosine, x, y, k).G_S

    right = (-3 * G(y) + 4 * G(y + h) - G(y + 2 * h)) / (2 * h)
    left = (3 * G(y) - 4 * G(y - h) + G(y - 2 * h)) / (2 * h)
    assert right - left == pytest.approx(1.0, abs=1e-6)


# -- low-energy series ---------------------------------------------------------

def test_series_free_coefficients(pot_free):
    d = 0.05
    gs = green_series(pot_free, 0.15, 0.10)
    assert gs.g_m1 == pytest.approx(0.5, abs=1e-12)
    assert gs.g_0 == pytest.approx(d / 2, abs=1e-12)
    assert gs.g_1 == pytest.approx(d * d / 4, abs=1e-10)
    assert gs.g_2 == pytest.approx(d ** 3 / 12, abs=1e-10)
    assert gs.g_3 == pytest.approx(d ** 4 / 48, abs=1e-14)


def test_series_g3_square_reference(pot_square, cc_square):
    # reference: Laurent expansion of the closed form in 50-digit arithmetic
    gs = green_series(pot_square, 0.4, 0.1, cc=cc_square)
    assert gs.g_3 == pytest.approx(0.00816921732413618, abs=1e-12)


SERIES_CELLS = (
    ("period=1; const V=0 len=0.6; const V=1 len=0.4", ((0.4, 0.1), (3.7, 0.2))),
    ("period=2; cosine amp=0.3 len=2", ((1.1, 0.3), (3.7, 0.2))),
    ("period=1.5; const V=0.3 len=0.4; cosine amp=0.7 phase=0.4 len=0.5; "
     "linear V0=-0.5 V1=1.2 len=0.6", ((1.1, 0.3), (3.7, 0.2))),
)


def int_s2(pot, a, b):
    """int_a^b s_2 by Gauss quadrature of its closed form, 32 points per
    panel on panels of at most L/8."""
    from green_line_integral import gauss_rule
    from wop_engine import mesh
    from bloch_green.wop import expansion_coeffs
    nodes, weights = gauss_rule(mesh(pot, a, b, 32, max_panel=pot.period / 8.0), 32)
    return float(np.dot(weights, [expansion_coeffs(pot, z, 2)[1][2] for z in nodes]))


def test_series_endpoint_expansion_reproduces_closed_forms():
    # the series read off the endpoint expansion reproduces the cell-window
    # bracket closed form of g_1, and q_3 = -int_y^x s_2 from a converged
    # Gauss quadrature of the s_2 closed form
    from bloch_green.iterint import bracket, cell_Q
    from bloch_green.potential import cell_constants, load_potential
    for spec, points in SERIES_CELLS:
        pot = load_potential(spec)
        cc = cell_constants(pot)
        L = pot.period
        for x, y in points:
            gs = green_series(pot, x, y, order=2)
            envelope = math.exp(-0.5 * (pot.V(x) + pot.V(y)))
            pmp_x = bracket(pot, "+-+", x - L, x)
            pmp_y = bracket(pot, "+-+", y - L, y)
            g_1 = (envelope / (4.0 * cc.L0)
                   * (pmp_x + pmp_y + cc.L0 * math.exp(cc.V0) * gs.q_1 ** 2
                      - math.exp(cc.V0) / cc.L0 * (cc.L0 ** 4 / 4.0 + cell_Q(pot))))
            assert gs.g_1 == pytest.approx(g_1, rel=1e-12), (spec, x, y)
            assert gs.q_3 == pytest.approx(-int_s2(pot, y, x), rel=1e-12), (spec, x, y)


def test_series_q3_over_many_periods_and_tiny_windows():
    # s_2 has period L, so the reference integrates it by quadrature over
    # one period and the remainder; the bracket identity alone loses 1e-10
    # to cancellation at 30 periods.  Windows shorter than the mesh's merge
    # distance, as [y, x] itself or as the remainder, stay finite.
    from bloch_green.potential import load_potential
    y, n = 0.2, 30
    for spec, _ in SERIES_CELLS[::2]:
        pot = load_potential(spec)
        L = pot.period
        per_period = -int_s2(pot, y, y + L)
        x = y + n * L + 0.35 * L
        want = n * per_period - int_s2(pot, y, y + 0.35 * L)
        assert green_series(pot, x, y, order=2).q_3 == pytest.approx(want, rel=1e-12), spec
        for d in (1e-14, 1e-16):
            assert abs(green_series(pot, y + d, y, order=2).q_3) < 1e-12
            gs = green_series(pot, y + n * L + d, y, order=2)
            assert gs.q_3 == pytest.approx(n * per_period, rel=1e-12), (spec, d)


def test_series_order_truncates(pot_square, cc_square):
    full = green_series(pot_square, 0.4, 0.1, cc=cc_square)
    for order in (0, 1, 2):
        gs = green_series(pot_square, 0.4, 0.1, cc=cc_square, order=order)
        kept = (gs.g_1, gs.g_2, gs.g_3)[:order]
        assert kept == (full.g_1, full.g_2, full.g_3)[:order]
        assert all(g == 0.0 for g in (gs.g_1, gs.g_2, gs.g_3)[order:])
        assert (gs.g_m1, gs.g_0, gs.q_1) == (full.g_m1, full.g_0, full.q_1)
    for order in (-1, 4):
        with pytest.raises(ValueError):
            green_series(pot_square, 0.4, 0.1, cc=cc_square, order=order)


@pytest.mark.parametrize("cell, x, y", [("square", 0.4, 0.1), ("cosine", 1.1, 0.3)])
def test_series_truncation_order_slopes(request, cell, x, y):
    # the first neglected imaginary term is (ik)^5 g_5 at the default order
    # and (ik)^3 g_3 at order 2; the exact route shares no code with g_3
    pot = request.getfixturevalue(f"pot_{cell}")
    ks = np.array([0.05, 0.1, 0.2, 0.4])
    exact = np.array([green_exact(pot, x, y, float(k)).G_S for k in ks])
    for order, (lo, hi) in ((3, (4.7, 5.3)), (2, (2.7, 3.3))):
        gs = green_series(pot, x, y, order=order)
        err = np.abs(np.array([gs(float(k)) for k in ks]).imag - exact.imag)
        slope = float(np.polyfit(np.log(ks), np.log(err), 1)[0])
        assert lo <= slope <= hi, (order, slope)


def test_series_order3_contour_mismatch_raises(pot_square, cc_square, monkeypatch):
    # s_4 comes from a route whose overlap with the closed forms is checked;
    # a NaN there must raise too, not come back as a NaN g_3
    from bloch_green import wop
    good = wop._taylor_coeffs_a
    for skew in (1e-5, math.nan):
        def skewed(*args, **kwargs):
            a = good(*args, **kwargs)
            a[1] += skew
            return a

        monkeypatch.setattr(wop, "_taylor_coeffs_a", skewed)
        with pytest.raises(wop.ExtrapolationError):
            green_series(pot_square, 0.4, 0.1, cc=cc_square)
        gs = green_series(pot_square, 0.4, 0.1, cc=cc_square, order=2)
        assert gs.g_3 == 0.0


@pytest.mark.parametrize("V", [10, 15, 20])
def test_series_default_order_on_strong_half_cells(V):
    # the order-3 coefficients come from exact const-piece brackets, so a
    # strong half cell keeps a finite g_3
    from bloch_green.potential import load_potential
    pot = load_potential(f"period=1; const V=0 len=0.5; const V={V} len=0.5")
    gs = green_series(pot, 0.4, 0.1)
    assert all(math.isfinite(g) for g in (gs.g_m1, gs.g_0, gs.g_1, gs.g_2, gs.g_3))
    assert gs.g_3 != 0.0


def test_series_leading_coefficients_closed_form(pot_square, cc_square):
    from bloch_green.iterint import bracket
    x, y = 0.4, 0.1
    gs = green_series(pot_square, x, y, cc=cc_square)
    env = 0.5 * math.exp(-0.5 * (pot_square.V(x) + pot_square.V(y)))
    assert gs.g_m1 == pytest.approx(env * math.exp(cc_square.V0), rel=1e-12)
    assert gs.g_0 == pytest.approx(env * bracket(pot_square, "+", y, x), rel=1e-12)
    assert gs.q_1 == pytest.approx(math.exp(-cc_square.V0) * (x - y), rel=1e-12)


def test_series_swaps_arguments(pot_square):
    gs1 = green_series(pot_square, 0.4, 0.1)
    gs2 = green_series(pot_square, 0.1, 0.4)
    assert gs1.g_1 == pytest.approx(gs2.g_1, rel=1e-14)
    assert gs1.g_3 == pytest.approx(gs2.g_3, rel=1e-14)


def test_series_accuracy_in_lowest_band(pot_square, cc_square, sq_params):
    # order-k^3 series (the default): the real part stays within 2% across
    # the lower 60% of the band and the magnitude across the lower half
    # (the order-k^2 truncation alone reaches 4.1% of |G| at 0.6 k_edge,
    # 1.3% with the imaginary k^3 term); error grows monotonically toward
    # the edge
    gs = green_series(pot_square, 0.4, 0.1, cc=cc_square)
    for k in np.linspace(0.05, 0.6 * K_EDGE1, 12):
        exact = square_well_oracle(sq_params, 0.4, 0.1, float(k))
        approx = gs(float(k))
        assert abs(approx.real - exact.real) <= 0.02 * abs(exact.real)
        if k <= 0.5 * K_EDGE1:
            assert abs(abs(approx) - abs(exact)) <= 0.02 * abs(exact)
    errs = []
    for k in np.linspace(0.5 * K_EDGE1, 0.95 * K_EDGE1, 14):
        exact = square_well_oracle(sq_params, 0.4, 0.1, float(k))
        errs.append(abs(abs(gs(float(k))) - abs(exact)) / abs(exact))
    assert all(e2 > e1 for e1, e2 in zip(errs, errs[1:]))


def test_line_integral_route_agrees(pot_square):
    # the textbook assembly (quadrature of S plus endpoint roots) matches
    # the propagation route wherever its principal roots are safe
    from green_line_integral import _green_by_line_integral
    from bloch_green.transfer import monodromy
    for k in (0.5, 1.2, 2.0, 0.8 + 0.3j):
        mono = monodromy(pot_square, complex(k))
        via_line = _green_by_line_integral(pot_square, 0.4, 0.1, complex(k),
                                           mono.Z, 40, 1e-12)
        direct = green_exact(pot_square, 0.4, 0.1, k).G_S
        assert via_line == pytest.approx(direct, rel=1e-10)
    # offset cells: the scan is based at the offset, where the cell's own
    # jump sits
    from bloch_green.potential import ConstSegment, PeriodicPotential, load_potential
    segments = [ConstSegment(0.0, 0.6), ConstSegment(1.0, 0.4)]
    for i in range(1, 51):
        off = i * 0.0037
        pot = PeriodicPotential(1.0, segments, offset=off)
        mono = monodromy(pot, 1.2)
        via_line = _green_by_line_integral(pot, 0.4 + off, 0.1 + off, 1.2 + 0j,
                                           mono.Z, 40, 1e-12)
        direct = green_exact(pot, 0.4 + off, 0.1 + off, 1.2).G_S
        assert via_line == pytest.approx(direct, rel=1e-10), off
    # a smooth offset cell: the scan integrates with DOP853, green_exact
    # propagates with the Magnus kernel
    pot = load_potential("period=2; offset=0.3; cosine amp=0.3 len=2")
    for k in (0.5, 1.2, 0.8 + 0.3j):
        mono = monodromy(pot, complex(k))
        via_line = _green_by_line_integral(pot, 1.1, 0.45, complex(k), mono.Z, 40, 1e-12)
        direct = green_exact(pot, 1.1, 0.45, k).G_S
        assert via_line == pytest.approx(direct, rel=1e-10), k


def test_series_eval_form():
    gs = GreenSeries(g_m1=1.0, g_0=2.0, g_1=3.0, g_2=4.0, q_1=0.0, q_3=0.0,
                     x=0.0, y=0.0)
    k = 0.3
    ik = 1j * k
    assert gs(k) == pytest.approx(1.0 / ik + 2.0 + 3.0 * ik + 4.0 * ik * ik)
