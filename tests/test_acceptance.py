"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Criterion 5 asserts the stated bound verbatim; the line it prints also
gives the largest k up to which the |G| bound holds.
"""

import cmath
import math
import time

import numpy as np
import pytest

from bloch_green.cli import EXIT_OK, RunConfig, run
from bloch_green.green import (SquareWellParams, green_exact, green_series,
                               square_well_oracle)
from bloch_green.halfline import m_functions, reflect_halfline, s_functions
from bloch_green.potential import cell_constants, load_potential, square_potential
from bloch_green.transfer import evolve, monodromy, series_evolution

import wop_engine as wop

A, B, C = 0.6, 0.4, 1.0
A_HYP = -math.tanh(C / 2)

POT_POOL_SPECS = [
    "period=1; const V=0 len=0.6; const V=1 len=0.4",
    "period=2; cosine amp=0.3 len=2",
    "period=1; linear V0=-0.4 V1=0.6 len=0.5; linear V0=0.6 V1=-0.4 len=0.5",
    "period=1.5; const V=0.2 len=0.5; cosine amp=0.25 len=0.6; linear V0=0.1 V1=0.6 len=0.4",
]


def Y_closed(k):
    a2 = A_HYP * A_HYP
    return (cmath.cos(k) - a2 * cmath.cos(k * (1 - 2 * B))) / (1 - a2)


def report(num, ok, name, detail):
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def pool():
    return [load_potential(s) for s in POT_POOL_SPECS]


@pytest.fixture(scope="module")
def pot():
    return square_potential(C, 1.0, A)


@pytest.fixture(scope="module")
def cc(pot):
    return cell_constants(pot)


@pytest.fixture(scope="module")
def params():
    return SquareWellParams(C=C, L=1.0, a=A)


def test_criterion_1_unimodularity_and_composition(pool):
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst_det = 0.0
    worst_comp = 0.0
    for i in range(100):
        p = pool[i % len(pool)]
        x1, x2, x3 = np.sort(rng.uniform(-2.0, 2.0, size=3))
        k = complex(rng.uniform(0.05, 3.0), rng.uniform(0.0, 1.0) * (i % 3 != 0))
        U21 = evolve(p, x2, x1, k)
        U32 = evolve(p, x3, x2, k)
        U31 = evolve(p, x3, x1, k)
        worst_det = max(worst_det, abs(U21.det - 1.0), abs(U32.det - 1.0),
                        abs(U31.det - 1.0))
        worst_comp = max(worst_comp, float(
            np.abs(U32.matrix @ U21.matrix - U31.matrix).max()))
    dt = time.perf_counter() - t0
    ok = worst_det <= 1e-12 and worst_comp <= 1e-10 and dt < 10.0
    report(1, ok, "unimodularity & composition",
           f"|det-1| {worst_det:.2e} (<=1e-12), composition {worst_comp:.2e} "
           f"(<=1e-10), {dt:.1f}s (<10s)")
    assert worst_det <= 1e-12
    assert worst_comp <= 1e-10
    assert dt < 10.0


def test_criterion_2_series_matches_ode(pot):
    t0 = time.perf_counter()
    ks = [0.5, -0.5, 0.5j, 0.3 + 0.4j, -0.2 + 0.3j, 0.1, 0.05j,
          0.35 - 0.0j, 0.25 + 0.25j, 0.45j]
    spans = [(1.3, 0.2), (0.9, -0.6), (2.0, 0.0)]
    worst = 0.0
    for k in ks:
        for x, xp in spans:
            d = np.abs(series_evolution(pot, x, xp, k).matrix
                       - evolve(pot, x, xp, k).matrix).max()
            worst = max(worst, float(d))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 5.0
    report(2, ok, "series-ODE agreement",
           f"elementwise {worst:.2e} (<=1e-8), {dt:.1f}s (<5s)")
    assert worst <= 1e-8
    assert dt < 5.0


def test_criterion_3_band_structure(pot):
    t0 = time.perf_counter()
    ks = np.linspace(12.0 / 500, 12.0, 500)
    worst = 0.0
    yvals = np.empty(500)
    for i, k in enumerate(ks):
        y = monodromy(pot, float(k)).Y.real
        yvals[i] = y
        worst = max(worst, abs(y - Y_closed(float(k)).real))

    def bisect(f, lo, hi, iters=52):
        flo = f(lo)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if f(mid) * flo > 0:
                lo, flo = mid, f(mid)
            else:
                hi = mid
        return 0.5 * (lo + hi)

    crossings = []
    g = np.abs(yvals) - 1.0
    for i in range(len(ks) - 1):
        if g[i] == 0.0 or g[i] * g[i + 1] < 0:
            crossings.append((float(ks[i]), float(ks[i + 1])))
    worst_edge = 0.0
    for lo, hi in crossings:
        e1 = bisect(lambda k: abs(Y_closed(k).real) - 1.0, lo, hi)
        e2 = bisect(lambda k: abs(monodromy(pot, k).Y.real) - 1.0, lo, hi)
        worst_edge = max(worst_edge, abs(e1 - e2))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and worst_edge <= 1e-8 and dt < 10.0
    report(3, ok, "band structure",
           f"|Y - closed| {worst:.2e} (<=1e-10) on 500 k, {len(crossings)} edges "
           f"agree to {worst_edge:.2e} (<=1e-8), {dt:.1f}s (<10s)")
    assert worst <= 1e-10
    assert worst_edge <= 1e-8
    assert dt < 10.0


def test_criterion_4_green_oracle(pot, params):
    t0 = time.perf_counter()
    grid = np.linspace(0.05, 7.0, 400)
    in_band = [float(k) for k in grid
               if abs(params.discriminant(float(k)).real) < 0.97]
    ks = in_band[:: max(1, len(in_band) // 50)][:50]
    assert len(ks) == 50
    worst = 0.0
    for k in ks:
        exact = green_exact(pot, 0.4, 0.1, k).G_S
        oracle = square_well_oracle(params, 0.4, 0.1, k)
        worst = max(worst, abs(exact - oracle) / abs(oracle))
    gaps = [float(k) for k in grid
            if abs(params.discriminant(float(k)).real) > 1.05][::12][:10]
    worst_im = 0.0
    for k in gaps:
        worst_im = max(worst_im, abs(green_exact(pot, 0.4, 0.1, k).G_S.imag))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and worst_im <= 1e-9 and dt < 30.0
    report(4, ok, "Green-function oracle",
           f"rel err {worst:.2e} (<=1e-8) on 50 in-band k, gap |Im G| "
           f"{worst_im:.2e} (<=1e-9) on {len(gaps)} k, {dt:.1f}s (<30s)")
    assert worst <= 1e-8
    assert worst_im <= 1e-9
    assert dt < 30.0


def test_criterion_5_expansion_quality(pot, cc, params):
    # stated bound: Re G and |G| within 2% for 0 < k <= 0.6 k_edge1.
    # green_series carries G through order k^3, with coefficients verified
    # against a 50-digit expansion of the closed form.  The order-k^2
    # truncation would miss the |G| part (4.1% at the window top, 2% held
    # only up to ~0.51 k_edge1); the imaginary (ik)^3 g_3 term brings it to
    # 1.3%.  Re G stays at 0.02% and growth toward the edge is monotone.
    k_edge = 2.2060048074714694
    gs = green_series(pot, 0.4, 0.1, cc=cc)
    worst_re = 0.0
    worst_abs = 0.0
    k_ok_abs = 0.0
    for k in np.linspace(0.02, 0.6 * k_edge, 30):
        exact = square_well_oracle(params, 0.4, 0.1, float(k))
        approx = gs(float(k))
        worst_re = max(worst_re, abs(approx.real - exact.real) / abs(exact.real))
        rel_abs = abs(abs(approx) - abs(exact)) / abs(exact)
        worst_abs = max(worst_abs, rel_abs)
        if rel_abs <= 0.02:
            k_ok_abs = float(k)
    errs = []
    for k in np.linspace(0.6 * k_edge, 0.95 * k_edge, 10):
        exact = square_well_oracle(params, 0.4, 0.1, float(k))
        errs.append(abs(abs(gs(float(k))) - abs(exact)) / abs(exact))
    monotone = all(b > a for a, b in zip(errs, errs[1:]))
    ok = worst_re <= 0.02 and worst_abs <= 0.02 and monotone
    report(5, ok, "low-energy expansion quality",
           f"Re G rel {worst_re:.4f} (<=0.02), |G| rel {worst_abs:.4f} "
           f"(<=0.02, holds up to k = {k_ok_abs:.3f} = "
           f"{k_ok_abs / k_edge:.2f} k_edge1), monotone growth {monotone}")
    assert worst_re <= 0.02
    assert monotone
    assert worst_abs <= 0.02


def test_series_default_order_on_pool(pool):
    # the s_4 contour behind g_3 agrees with the closed forms on every
    # pool cell, so the default order never raises ExtrapolationError
    for p in pool:
        for x, y in ((0.4, 0.1), (0.7, 0.7)):
            gs = green_series(p, x, y)
            assert math.isfinite(gs.g_3) and gs.g_3 != 0.0


def test_criterion_6_operator_identities(pot):
    cc = cell_constants(pot)
    grid = wop.WopGrid(pot)
    rng = np.random.default_rng(7)
    L = pot.period
    xs = grid.mesh.nodes[:, :, None]
    w = grid.w_nodes[None, None, :]

    def rand_zero_mean():
        vals = np.zeros(np.broadcast_shapes(xs.shape, w.shape))
        for m in range(1, 4):
            cm, dm = rng.normal(size=2)
            prof = (np.cos(0.35 * m * (w - cc.V0))
                    + 0.2 * rng.normal() * (w - cc.V0) / grid.w_half)
            vals = vals + (cm * np.sin(2 * np.pi * m * xs / L)
                           + dm * np.cos(2 * np.pi * m * xs / L)) * prof
        return wop.WGridFunction(grid, vals)

    def rand_admissible():
        base = rand_zero_mean()
        shift = rng.normal()
        sh = np.sinh(w - grid.v_nodes[:, :, None])
        iw = grid.x_cell_integral(sh * (base.values + shift))
        psi = -grid.ratio_D(iw) / cc.L0
        return wop.WGridFunction(grid, base.values + shift + psi[None, None, :])

    worst_fwd = worst_bwd = worst_mean = 0.0
    for _ in range(20):
        g = rand_zero_mean()
        h = wop.op_A_inv(pot, g)
        worst_fwd = max(worst_fwd, float(np.abs(wop.op_A(h).values - g.values).max()))
        worst_mean = max(worst_mean, wop.op_B(pot, h).cell_mean_residual())
        hh = rand_admissible()
        back = wop.op_A_inv(pot, wop.op_A(hh))
        worst_bwd = max(worst_bwd, float(np.abs(back.values - hh.values).max()))
    ok = max(worst_fwd, worst_bwd, worst_mean) <= 1e-8
    report(6, ok, "operator identities",
           f"A(A^-1 g) {worst_fwd:.2e}, A^-1(A h) {worst_bwd:.2e}, "
           f"cell mean of B A^-1 g {worst_mean:.2e} (all <=1e-8)")
    assert worst_fwd <= 1e-8
    assert worst_bwd <= 1e-8
    assert worst_mean <= 1e-8


def test_criterion_7_coefficient_cross_validation(pot, cc):
    cos_pot = load_potential("period=2; cosine amp=0.3 len=2")
    cc_cos = cell_constants(cos_pot)
    worst = 0.0
    for p, c, xs in ((pot, cc, (0.15, 0.4, 0.83)), (cos_pot, cc_cos, (0.3, 1.1))):
        grid = wop.WopGrid(p)
        series = wop.rbar_numeric(p, 2, grid=grid)
        for n in (0, 1, 2):
            for x in xs:
                for dw in (-1.3, 0.4, 2.0):
                    got = series.rbar[n].eval(x, c.V0 + dw)
                    want = wop.rbar_closed(p, x, c.V0 + dw, n)
                    worst = max(worst, abs(got - want))
    # truncation-order slope test at the band bottom
    x = 0.4
    wv = pot.V(x)
    ks = np.logspace(-3, -1, 9)
    rb = [wop.rbar_closed(pot, x, wv, n) for n in (0, 1, 2)]
    refl = np.array([reflect_halfline(pot, x, float(k))[0] for k in ks])
    slopes = []
    for N in (0, 1, 2):
        approx = sum((1j * ks) ** n * rb[n] for n in range(N + 1))
        err = np.abs(approx - refl)
        slopes.append(float(np.polyfit(np.log(ks), np.log(err), 1)[0]))
    slopes_ok = all(N + 0.7 <= s <= N + 1.3 for N, s in enumerate(slopes))
    ok = worst <= 1e-6 and slopes_ok
    report(7, ok, "coefficient cross-validation",
           f"numeric-vs-closed {worst:.2e} (<=1e-6); slopes "
           + ", ".join(f"N={N}: {s:.2f}" for N, s in enumerate(slopes))
           + " (in [N+0.7, N+1.3])")
    assert worst <= 1e-6
    assert slopes_ok


def test_criterion_8_m_function_consistency(pot, params):
    grid = np.linspace(0.03, 7.0, 700)
    in_band = [float(k) for k in grid
               if abs(params.discriminant(float(k)).real) < 0.985]
    ks = in_band[:: max(1, len(in_band) // 100)][:100]
    assert len(ks) == 100
    worst_rec = 0.0
    worst_sym = 0.0
    for k in ks:
        mp_, mm = m_functions(pot, 0.3, k)
        Sr, Sl, S = s_functions(pot, 0.3, k)
        worst_rec = max(worst_rec, abs((1j / (2 * k)) * (mp_ + mm) + 1.0 - S))
        Sr_m, Sl_m, _ = s_functions(pot, 0.3, -k)
        worst_sym = max(worst_sym, abs(Sr - Sl_m), abs(Sl - Sr_m))
    ok = worst_rec <= 1e-10 and worst_sym <= 1e-10
    report(8, ok, "m-function consistency",
           f"S reconstruction {worst_rec:.2e}, S_r(k) = S_l(-k) {worst_sym:.2e} "
           f"(both <=1e-10) on 100 in-band k")
    assert worst_rec <= 1e-10
    assert worst_sym <= 1e-10


def test_criterion_9_cli_determinism(tmp_path):
    spec = tmp_path / "sq.pot"
    spec.write_text("period=1\nsegment const V=0 len=0.6\nsegment const V=1 len=0.4\n")
    configs = [
        RunConfig(command="bands", potential_path=str(spec), k_min=0.02,
                  k_max=12.0, k_count=80, out=""),
        RunConfig(command="green", potential_path=str(spec), k_min=0.3,
                  k_max=3.0, k_count=25, out=""),
        RunConfig(command="compare", potential_path=str(spec), k_min=0.05,
                  k_max=1.2, k_count=15, out=""),
    ]
    identical = True
    for i, cfg in enumerate(configs):
        blobs = []
        for rep in range(2):
            out = tmp_path / f"{cfg.command}_{rep}.csv"
            cfg.out = str(out)
            assert run(cfg) == EXIT_OK
            blobs.append(out.read_bytes())
        identical = identical and blobs[0] == blobs[1]
    report(9, identical, "CLI determinism",
           f"{len(configs)} commands re-run byte-identical: {identical}")
    assert identical
