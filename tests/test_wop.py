import math

import numpy as np
import pytest

from bloch_green import wop
from bloch_green.halfline import reflect_halfline
from bloch_green.iterint import bracket
from bloch_green.wop import expansion_coeffs
from wop_engine import (DomainError, GridResolutionError, WGridFunction, WopGrid, op_A,
                        op_A_inv, op_B, rbar_closed, rbar_numeric, slope_on_mesh)
from wop_reference import contour_coeffs_a, k_op, limit_profile

A, B, C = 0.6, 0.4, 1.0


@pytest.fixture(scope="module")
def grid_square(pot_square):
    return WopGrid(pot_square)


@pytest.fixture(scope="module")
def grid_cosine(pot_cosine):
    return WopGrid(pot_cosine)


def random_zero_mean(grid, rng):
    """Random periodic zero-cell-mean function, analytic in W."""
    xs = grid.mesh.nodes[:, :, None]
    w = grid.w_nodes[None, None, :]
    L = grid.pot.period
    vals = np.zeros(np.broadcast_shapes(xs.shape, w.shape))
    for m in range(1, 4):
        cm, dm = rng.normal(size=2)
        prof = (np.cos(0.35 * m * (w - grid.w_center))
                + 0.2 * rng.normal() * (w - grid.w_center) / grid.w_half)
        vals = vals + (cm * np.sin(2 * np.pi * m * xs / L)
                       + dm * np.cos(2 * np.pi * m * xs / L)) * prof
    return WGridFunction(grid, vals)


def random_admissible(grid, rng):
    """Random h in the domain of the forward operator: periodic, and the
    cell integral of B h is W-independent (arranged by an x-constant
    correction profile)."""
    base = random_zero_mean(grid, rng)
    shift = rng.normal()
    sh = np.sinh(grid.w_nodes[None, None, :] - grid.v_nodes[:, :, None])
    iw = grid.x_cell_integral(sh * (base.values + shift))
    psi = -grid.ratio_D(iw) / grid.cc.L0
    return WGridFunction(grid, base.values + shift + psi[None, None, :])


# -- operator basics ---------------------------------------------------------

def test_B_kills_constants(grid_square, pot_square):
    one = grid_square.sample(lambda v, w: np.ones(np.broadcast_shapes(v.shape, w.shape)))
    got = op_B(pot_square, one).values
    want = np.cosh(grid_square.w_nodes[None, None, :] - grid_square.v_nodes[:, :, None])
    assert np.abs(got - want).max() < 1e-9


def test_B_on_seed_function(grid_square, pot_square, cc_square):
    # B applied to the order-zero seed has the known sech^2 profile and
    # integrates to zero over the cell
    v0 = cc_square.V0
    seed = grid_square.sample(
        lambda v, w: np.tanh(0.5 * (w - v)) - np.tanh(0.5 * (w - v0)))
    got = op_B(pot_square, seed)
    want = (np.sinh(v0 - grid_square.v_nodes[:, :, None])
            / (2.0 * np.cosh(0.5 * (grid_square.w_nodes[None, None, :] - v0)) ** 2))
    assert np.abs(got.values - want).max() < 1e-9
    assert got.cell_mean_residual() < 1e-9


def test_A_inv_of_drift_source(grid_cosine, pot_cosine, cc_cosine):
    # smooth potential: (1 - xi^2) f maps to xi - tanh((W - V0)/2)
    f = -0.5 * slope_on_mesh(pot_cosine, grid_cosine.mesh)
    xi = np.tanh(0.5 * (grid_cosine.w_nodes[None, None, :]
                        - grid_cosine.v_nodes[:, :, None]))
    g = WGridFunction(grid_cosine, (1.0 - xi ** 2) * f[:, :, None])
    h = op_A_inv(pot_cosine, g)
    want = xi - np.tanh(0.5 * (grid_cosine.w_nodes - cc_cosine.V0))[None, None, :]
    assert np.abs(h.values - want).max() < 1e-9


def test_A_inv_requires_zero_mean(grid_square, pot_square):
    bad = grid_square.sample(lambda v, w: np.exp(0.1 * (w - v)))
    with pytest.raises(DomainError, match="not in range"):
        op_A_inv(pot_square, bad)


def test_forward_after_inverse(grid_square, pot_square, rng):
    for _ in range(20):
        g = random_zero_mean(grid_square, rng)
        h = op_A_inv(pot_square, g)
        assert np.abs(op_A(h).values - g.values).max() < 1e-8


def test_inverse_after_forward(grid_square, pot_square, rng):
    for _ in range(20):
        h = random_admissible(grid_square, rng)
        h2 = op_A_inv(pot_square, op_A(h))
        assert np.abs(h2.values - h.values).max() < 1e-8


def test_inverse_lands_in_forward_domain(grid_square, pot_square, rng):
    for _ in range(10):
        g = random_zero_mean(grid_square, rng)
        assert op_B(pot_square, op_A_inv(pot_square, g)).cell_mean_residual() < 1e-8


def test_k_op_closed_form(grid_square, cc_square):
    v0 = cc_square.V0
    dw = grid_square.w_nodes - v0
    u = np.broadcast_to(1.0 / np.cosh(0.5 * dw) ** 2,
                        (1, 1, dw.size)).copy()
    for s in (1, -1):
        for sp in (1, -1):
            got = k_op(grid_square, -s, -sp, u)[0, 0]
            want = (sp * np.exp(-(s + sp) * v0) / np.sinh(dw)
                    * (np.exp(-(s / 2 + sp) * dw) / np.cosh(0.5 * dw) ** 3 - 1.0))
            assert np.abs(got - want).max() < 1e-9


# -- expansion coefficients ---------------------------------------------------

def test_rbar0_uniform_in_x(grid_square, pot_square, cc_square):
    series = rbar_numeric(pot_square, 0, grid=grid_square)
    for x in (0.1, 0.5, 0.9):
        for w in (cc_square.V0 - 2.0, cc_square.V0 + 1.0):
            assert series.rbar[0].eval(x, w) == pytest.approx(
                -math.tanh(0.5 * (w - cc_square.V0)), abs=1e-12)
    assert rbar_closed(pot_square, 0.3, cc_square.V0, 0) == 0.0


def test_rbar1_square_polynomial(pot_square, cc_square):
    # [+-] - [-+] = 2 b sinh(C) (2x - a) inside the low segment
    for x in (0.2, 0.4):
        val = rbar_closed(pot_square, x, cc_square.V0, 1)
        want = 2 * B * math.sinh(C) * (2 * x - A) / (4.0 * cc_square.L0)
        assert val == pytest.approx(want, abs=1e-12)


def test_rbar1_vanishes_for_free(pot_free):
    assert rbar_closed(pot_free, 0.3, 0.5, 1) == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_rbar_numeric_matches_closed(n, pot_square, pot_cosine, cc_square,
                                     cc_cosine, grid_square, grid_cosine):
    for pot, cc, grid, xs in ((pot_square, cc_square, grid_square, (0.15, 0.4, 0.83)),
                              (pot_cosine, cc_cosine, grid_cosine, (0.3, 1.1))):
        series = rbar_numeric(pot, n, grid=grid)
        for x in xs:
            for w in (cc.V0 - 1.3, cc.V0 + 0.4, cc.V0 + 2.0):
                got = series.rbar[n].eval(x, w)
                want = rbar_closed(pot, x, w, n)
                assert got == pytest.approx(want, abs=1e-6), (pot, n, x, w)


def test_rbar_numeric_validates_order(pot_square):
    with pytest.raises(ValueError):
        rbar_numeric(pot_square, wop.MAX_RBAR_ORDER + 1)
    with pytest.raises(ValueError):
        rbar_closed(pot_square, 0.3, 0.0, 3)


def test_expansion_coeffs_closed_forms(pot_square, cc_square):
    a, s = expansion_coeffs(pot_square, 0.4, 2, cc=cc_square)
    assert a[0] == pytest.approx(-0.5 * math.exp(-cc_square.V0), abs=1e-12)
    pm = bracket(pot_square, "+-", -0.6, 0.4)
    mp_ = bracket(pot_square, "-+", -0.6, 0.4)
    assert a[1] == pytest.approx(
        math.exp(-cc_square.V0) * (pm - mp_) / (4 * cc_square.L0), abs=1e-12)
    assert s[0] == pytest.approx(2 * a[0], abs=1e-15)
    assert s[1] == 0.0
    assert s[2] == pytest.approx(2 * a[2], abs=1e-15)


def test_expansion_coeffs_free_vanish(pot_free):
    # the free Green function has no cell corrections at all
    a, s = expansion_coeffs(pot_free, 0.3, 2)
    assert s[0] == pytest.approx(-1.0, abs=1e-12)
    assert s[2] == pytest.approx(0.0, abs=1e-12)


def test_expansion_limit_reproduces_closed_orders(pot_square, cc_square):
    # the W -> -infinity extraction, run on the numeric grid functions,
    # must reproduce the closed-form a_1 and a_2
    grid = WopGrid(pot_square, w_order=49)
    series = rbar_numeric(pot_square, 2, grid=grid)
    a_closed, _ = expansion_coeffs(pot_square, 0.4, 2, cc=cc_square)
    x = 0.4
    for n in (1, 2):
        limit = limit_profile(grid, series.rbar[n], x, pot_square.V(x), 1e-6)
        assert 0.25 * limit == pytest.approx(a_closed[n], abs=2e-9)


def test_contour_route_on_smooth_potential(pot_cosine, cc_cosine):
    # the contour extraction is not specific to piecewise-constant cells
    t = contour_coeffs_a(pot_cosine, 0.7, 3)
    a, _ = expansion_coeffs(pot_cosine, 0.7, 2, cc=cc_cosine)
    assert np.abs(t[:3] - a).max() < 1e-8


def test_expansion_coeffs_higher_orders_contour_stable(pot_square, cc_square):
    # no closed form exists at order >= 3; require agreement across two
    # independent contour radii, and against the closed overlap orders
    x = 0.4
    a1, s1 = expansion_coeffs(pot_square, x, 4, cc=cc_square)
    t1 = contour_coeffs_a(pot_square, x, 4, rho=0.25)
    t2 = contour_coeffs_a(pot_square, x, 4, rho=0.5, npts=96)
    assert np.all(np.isfinite(a1))
    assert s1[3] == 0.0
    assert s1[4] == pytest.approx(2 * a1[4], abs=1e-15)
    assert np.abs(t1[:3] - a1[:3]).max() < 1e-10
    for n in (3, 4):
        assert t1[n] == pytest.approx(t2[n], rel=1e-8, abs=1e-11)
        assert a1[n] == pytest.approx(t1[n], rel=1e-8, abs=1e-11)


def _count_walks(monkeypatch):
    from bloch_green import iterint
    calls = []
    real = iterint._nested_pass

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(iterint, "_nested_pass", counting)
    return calls


@pytest.mark.parametrize("spec", ["period=1; const V=0 len=0.6; const V=1 len=0.4",
                                  "period=2; cosine amp=0.3 len=2"])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_expansion_coeffs_walks_each_tail_once(spec, N, monkeypatch):
    # a fresh potential with its cell data warm: the closed forms read
    # prefixes of the two tails the series walks, and a repeat walks none
    from bloch_green.iterint import cell_Q
    from bloch_green.potential import cell_constants, load_potential
    pot = load_potential(spec)
    cell_constants(pot)
    cell_Q(pot)
    calls = _count_walks(monkeypatch)
    first = expansion_coeffs(pot, 0.7, N)
    assert len(calls) == 2
    again = expansion_coeffs(pot, 0.7, N)
    assert len(calls) == 2
    assert all(np.array_equal(u, v) for u, v in zip(first, again))


def test_closed_orders_do_not_depend_on_the_tail_length():
    # const walks carry each prefix by its own sum, so the longer tails of
    # N = 4 give a_0 .. a_2 bit for bit
    from bloch_green.potential import square_potential
    for x in (0.13, 0.4, 0.6, 0.77):
        a2, _ = expansion_coeffs(square_potential(1.0, 1.0, 0.6), x, 2)
        a4, _ = expansion_coeffs(square_potential(1.0, 1.0, 0.6), x, 4)
        assert a4[:3].tolist() == a2.tolist(), x


@pytest.mark.parametrize("N", [-1, 5, 70])
def test_expansion_coeffs_rejects_orders_out_of_range(pot_square, N):
    with pytest.raises(ValueError, match="N must be in"):
        expansion_coeffs(pot_square, 0.3, N)


def test_truncation_order_slopes(pot_square):
    # |sum_0^N (ik)^n rbar_n - R_r| scales like k^{N+1} at the band bottom
    x = 0.4
    w = pot_square.V(x)
    ks = np.logspace(-3, -1, 9)
    rb = [rbar_closed(pot_square, x, w, n) for n in (0, 1, 2)]
    refl = np.array([reflect_halfline(pot_square, x, float(k))[0] for k in ks])
    for N in (0, 1, 2):
        approx = sum((1j * ks) ** n * rb[n] for n in range(N + 1))
        err = np.abs(approx - refl)
        slope = np.polyfit(np.log(ks), np.log(err), 1)[0]
        assert N + 0.7 <= slope <= N + 1.3, (N, slope)


def test_truncated_series_matches_dressed_reflection(pot_square, cc_square):
    # away from W = V(x) the series approximates the level-dressed
    # half-line coefficient (the Mobius image of the plain one)
    x = 0.4
    W = cc_square.V0 + 0.3
    rb = [rbar_closed(pot_square, x, W, n) for n in (0, 1, 2)]
    worst = 0.0
    for k in (5e-3, 1e-2, 2e-2):
        Rr, _ = reflect_halfline(pot_square, x, k)
        xi = math.tanh(0.5 * (W - pot_square.V(x)))
        dressed = (Rr - xi) / (1.0 - xi * Rr)
        approx = sum((1j * k) ** n * rb[n] for n in range(3))
        worst = max(worst, abs(approx - dressed) / k ** 3)
    # error is O(k^3) with a bounded constant
    assert worst < 1.0


def test_dressed_reflection_route_via_generalize(pot_square, cc_square):
    # generalize() applied to a long finite interval approaches the
    # half-line dressed coefficient
    from bloch_green.transfer import evolve, generalize
    x, W, k = 0.4, cc_square.V0 + 0.3, 0.1 + 0.05j
    Rr, _ = reflect_halfline(pot_square, x, k)
    xi = math.tanh(0.5 * (W - pot_square.V(x)))
    dressed = (Rr - xi) / (1.0 - xi * Rr)
    g = generalize(evolve(pot_square, x, x - 60.0, k), W, pot_square.V(x))
    assert g.Rr_bar == pytest.approx(dressed, abs=5e-3)


def test_rbar_periodic_extension_consistent(pot_square, cc_square, grid_square):
    # the coefficient profiles are periodic in x: windowed brackets are
    # continuous across the seam even though V jumps there
    series = rbar_numeric(pot_square, 2, grid=grid_square)
    for n in (1, 2):
        assert series.rbar[n].seam_mismatch() < 1e-10
        prof_a = series.rbar[n].eval_x(0.4)
        prof_b = series.rbar[n].eval_x(0.4 + 3 * pot_square.period)
        assert np.abs(prof_a - prof_b).max() < 1e-12


def test_eval_x_same_at_every_translate():
    # right-continuous at the jump at every translate x = p0 + j L, also on
    # an offset cell: the point is located as the potential locates it
    from bloch_green.potential import load_potential
    for spec in ("period=1; const V=0 len=0.6; const V=1 len=0.4",
                 "period=1; offset=0.3; const V=0 len=0.6; const V=1 len=0.4"):
        pot = load_potential(spec)
        v = WopGrid(pot).sample(lambda v, w: v * np.ones_like(w))
        p0 = pot.offset + 0.6
        want = v.eval_x(p0)
        assert want == pytest.approx(1.0, abs=1e-12)
        for j in range(-8, 9):
            assert np.array_equal(v.eval_x(p0 + j * pot.period), want), (spec, j)


def test_grid_w_resolution_guard(pot_square, cc_square):
    # a deliberately coarse W grid cannot resolve the seed profile
    grid = WopGrid(pot_square, w_order=7, w_span=6.0)
    seed = grid.sample(lambda v, w: np.tanh(0.5 * (w - v))
                       - np.tanh(0.5 * (w - cc_square.V0)))
    with pytest.raises(GridResolutionError):
        op_B(pot_square, seed)
