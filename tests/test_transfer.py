import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloch_green.iterint import bracket
from bloch_green.potential import square_potential
from bloch_green.transfer import (BandClass, SeriesDivergenceError,
                                  SingularIntervalError, _span_matrix, branch_Z,
                                  classify_band, evolve, generalize, monodromy,
                                  scattering, series_evolution)

A, B, C = 0.6, 0.4, 1.0
A_HYP = -math.tanh(C / 2)  # hyperbolic amplitude of the square cell
K_EDGE1 = 2.2060048074714694  # first solution of Y(k) = -1, frozen


def square_alpha_beta(x, k):
    """Closed-form one-period elements for the square cell, 0 < x < a."""
    L = 1.0
    a2 = A_HYP * A_HYP
    alpha = cmath.exp(-1j * k * L) * (1 - a2 * cmath.exp(2j * k * B)) / (1 - a2)
    beta = (A_HYP / (1 - a2) * cmath.exp(2j * k * x) * cmath.exp(-1j * k * L)
            * (cmath.exp(2j * k * B) - 1))
    return alpha, beta


def Y_square(k):
    a2 = A_HYP * A_HYP
    return (cmath.cos(k) - a2 * cmath.cos(k * (1 - 2 * B))) / (1 - a2)


def test_free_evolution(pot_free):
    k = 0.7 + 0.3j
    U = evolve(pot_free, 2.3, 0.4, k)
    assert U.alpha_plus == pytest.approx(cmath.exp(-1j * k * 1.9), abs=1e-12)
    assert U.alpha_minus == pytest.approx(cmath.exp(1j * k * 1.9), abs=1e-12)
    assert abs(U.beta_plus) < 1e-14
    assert abs(U.beta_minus) < 1e-14


def test_zero_k_closed_form(pot_square):
    U = evolve(pot_square, 0.7, 0.3, 0.0)
    half = 0.5 * (pot_square.V(0.3) - pot_square.V(0.7))
    assert U.alpha_plus == pytest.approx(math.cosh(half), abs=1e-15)
    assert U.beta_plus == pytest.approx(math.sinh(half), abs=1e-15)


def test_square_one_period_closed_form(pot_square):
    for x in (0.1, 0.4, 0.55):
        for k in (0.5, 1.7, 0.3 + 0.2j):
            U = evolve(pot_square, x, x - 1.0, k)
            alpha, beta = square_alpha_beta(x, k)
            assert U.alpha_plus == pytest.approx(alpha, abs=1e-12)
            assert U.beta_plus == pytest.approx(beta, abs=1e-12)


def test_unimodularity_and_composition_random(pot_square, pot_cosine, rng):
    for pot in (pot_square, pot_cosine):
        for _ in range(20):
            x1, x2, x3 = np.sort(rng.uniform(-2.0, 2.0, size=3))
            k = complex(rng.uniform(0.05, 3.0), rng.uniform(0.0, 1.0))
            U21 = evolve(pot, x2, x1, k)
            U32 = evolve(pot, x3, x2, k)
            U31 = evolve(pot, x3, x1, k)
            assert abs(U21.det - 1.0) < 1e-12
            assert np.abs(U32.matrix @ U21.matrix - U31.matrix).max() < 1e-10


def test_translation_invariance(pot_cosine):
    k = 0.8 + 0.1j
    L = pot_cosine.period
    Ua = evolve(pot_cosine, 1.4 + L, 0.2 + L, k)
    Ub = evolve(pot_cosine, 1.4, 0.2, k)
    assert np.abs(Ua.matrix - Ub.matrix).max() < 1e-10


def test_multi_period_power_path(pot_square):
    k = 0.9 + 0.2j
    direct = evolve(pot_square, 5.4, 2.4, k).matrix @ evolve(pot_square, 2.4, 0.1, k).matrix
    powered = evolve(pot_square, 5.4, 0.1, k).matrix
    assert np.abs(powered - direct).max() < 1e-11
    # n = 2..8 periods by repeated squaring against the direct march, at a
    # band k, a gap k and a complex k on each pool cell
    from test_acceptance import POT_POOL_SPECS

    from bloch_green.potential import load_potential
    for spec in POT_POOL_SPECS:
        pot = load_potential(spec)
        L = pot.period
        ks = np.linspace(0.05, 8.0, 160)
        Ys = [abs(monodromy(pot, k).Y.real) for k in ks]
        band_k, gap_k = float(ks[np.argmin(Ys)]), float(ks[np.argmax(Ys)])
        assert monodromy(pot, band_k).band is BandClass.BAND
        assert monodromy(pot, gap_k).band is BandClass.GAP
        xprime = pot.offset + 0.23 * L
        for k in (band_k, gap_k, 0.8 + 0.3j):
            for n in range(2, 9):
                x = xprime + (n + 0.41) * L
                powered = evolve(pot, x, xprime, k).matrix
                direct = _span_matrix(pot, x, xprime, complex(k))
                err = np.abs(powered - direct).max() / max(1.0, np.abs(direct).max())
                assert err < 1e-11, (spec, k, n, err)


def test_long_spans_from_a_jump_take_the_power_path(pot_square):
    # an end on a jump translate marches to the middle of a segment, powers
    # the period matrix there and marches on: 1e5 periods take a few
    # matrix squarings, not 1e5 period marches
    import time
    for xprime, x in ((0.6, 0.6 + 1e5), (0.3, 0.6 + 1e5), (0.6, 0.3 + 1e5)):
        t0 = time.perf_counter()
        U = evolve(pot_square, x, xprime, 1.0)
        assert time.perf_counter() - t0 < 0.05, (xprime, x)
        assert abs(U.det - 1.0) < 1e-8
    # against the whole-span march over 1e3 periods, with a jump at either end
    for xprime, x in ((0.6, 1000.6), (0.6, 1000.3), (0.3, 1000.6), (1.0, 1001.0)):
        for k in (1.0, 2.5, 0.3 + 0.2j):
            powered = evolve(pot_square, x, xprime, k).matrix
            direct = _span_matrix(pot_square, x, xprime, complex(k))
            err = np.abs(powered - direct).max() / np.abs(direct).max()
            assert err < 1e-10, (xprime, x, k, err)


def test_real_k_conjugation(pot_square, pot_cosine):
    for pot in (pot_square, pot_cosine):
        U = evolve(pot, 1.1, -0.4, 1.3)
        assert U.alpha_minus == pytest.approx(U.alpha_plus.conjugate(), abs=1e-12)
        assert U.beta_minus == pytest.approx(U.beta_plus.conjugate(), abs=1e-12)


def test_reversed_interval_is_inverse(pot_square):
    k = 0.6 + 0.4j
    U = evolve(pot_square, 1.2, 0.3, k)
    V = evolve(pot_square, 0.3, 1.2, k)
    assert np.abs(U.matrix @ V.matrix - np.eye(2)).max() < 1e-12


# -- series route ------------------------------------------------------------

def test_series_zero_order_is_zero_k_form(pot_square):
    U = series_evolution(pot_square, 0.9, 0.2, 0.0)
    U0 = evolve(pot_square, 0.9, 0.2, 0.0)
    assert U.alpha_plus == pytest.approx(U0.alpha_plus, abs=1e-14)
    assert U.beta_plus == pytest.approx(U0.beta_plus, abs=1e-14)


def test_series_matches_ode_small_k(pot_square, pot_cosine):
    for pot in (pot_square, pot_cosine):
        for k in (0.1j, 0.3, 0.2 + 0.2j, -0.25):
            Us = series_evolution(pot, 1.3, 0.2, k)
            Ue = evolve(pot, 1.3, 0.2, k)
            assert np.abs(Us.matrix - Ue.matrix).max() < 1e-9


def test_series_first_order_coefficient(pot_square):
    # d(alpha)/d(ik) at k = 0 equals -(e^{(V1+V2)/2}[-] + e^{-(V1+V2)/2}[+])/2
    x2, x1 = 1.3, 0.2
    h = 1e-5
    d_num = (series_evolution(pot_square, x2, x1, 1j * h).alpha_plus
             - series_evolution(pot_square, x2, x1, -1j * h).alpha_plus) / (2j * 1j * h)
    v1, v2 = pot_square.V(x1), pot_square.V(x2)
    minus = bracket(pot_square, "-", x1, x2)
    plus = bracket(pot_square, "+", x1, x2)
    want = -0.5 * (math.exp(0.5 * (v1 + v2)) * minus + math.exp(-0.5 * (v1 + v2)) * plus)
    assert d_num == pytest.approx(want, rel=1e-8)


def test_series_diverges_gracefully(pot_square):
    with pytest.raises(SeriesDivergenceError, match="evolve"):
        series_evolution(pot_square, 40.0, 0.0, 30.0)


@pytest.mark.parametrize("args", [(1.0, 0.0, math.nan), (math.inf, 0.0, 0.3),
                                  (1.0, math.nan, 0.3), (1.0, 0.0, complex(0.2, math.inf))])
def test_series_rejects_non_finite_input(pot_square, args):
    with pytest.raises(ValueError, match="finite"):
        series_evolution(pot_square, *args)


def test_series_makes_one_nested_pass_per_tail(monkeypatch):
    # both tails over a const window are exact: no order ladder; a fresh
    # potential, since the tails are memoised on it, and a window seen
    # before makes no pass at any k
    from bloch_green import iterint
    pot = square_potential(1.0, 1.0, 0.6)
    calls = []
    real = iterint._nested_pass

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(iterint, "_nested_pass", counting)
    series_evolution(pot, 1.3, 0.2, 0.3)
    assert len(calls) == 2
    series_evolution(pot, 1.3, 0.2, 0.1 + 0.2j)
    assert len(calls) == 2


# -- scattering --------------------------------------------------------------

def test_scattering_free(pot_free):
    k = 0.8
    sc = scattering(evolve(pot_free, 1.5, 0.2, k))
    assert sc.tau == pytest.approx(cmath.exp(1j * k * 1.3), abs=1e-13)
    assert abs(sc.R_r) < 1e-14 and abs(sc.R_l) < 1e-14


def test_scattering_zero_k(pot_square):
    sc = scattering(evolve(pot_square, 0.7, 0.3, 0.0))
    want = math.tanh(0.5 * (pot_square.V(0.3) - pot_square.V(0.7)))
    assert sc.R_r == pytest.approx(want, abs=1e-14)


def test_transmission_contracts_upper_half_plane(pot_square):
    sc = scattering(evolve(pot_square, 2.0, 0.3, 0.3 + 0.2j))
    assert abs(sc.tau) < 1.0


def test_generalize_reduces_at_local_level(pot_square):
    U = evolve(pot_square, 0.7, 0.3, 0.5)
    plain = scattering(U)
    g = generalize(U, pot_square.V(0.7), pot_square.V(0.7))
    assert g.Rr_bar == pytest.approx(plain.R_r, abs=1e-14)
    assert g.Rl_bar == pytest.approx(plain.R_l, abs=1e-14)
    assert g.tau_bar == pytest.approx(plain.tau, abs=1e-14)
    assert g.xi == 0.0


def test_generalize_zero_k_closed_forms(pot_square):
    W = 0.8
    x, xp = 0.7, 0.3
    g = generalize(evolve(pot_square, x, xp, 0.0), W, pot_square.V(x))
    half = 0.5 * (W - pot_square.V(xp))
    assert g.Rr_bar == pytest.approx(-math.tanh(half), abs=1e-14)
    assert g.Rl_bar == pytest.approx(math.tanh(half), abs=1e-14)
    assert g.tau_bar == pytest.approx(1.0 / math.cosh(half), abs=1e-14)
    assert -1.0 < g.xi < 1.0


# -- monodromy and bands -----------------------------------------------------

def test_discriminant_square_closed_form(pot_square):
    for k in (0.5, 2.0, 3.3, 7.7, 11.2):
        mono = monodromy(pot_square, k)
        assert mono.Y == pytest.approx(Y_square(k), abs=1e-12)


def test_discriminant_free_is_cos(pot_free):
    for k in (0.5, 2.0, 4.0):
        assert monodromy(pot_free, k).Y == pytest.approx(math.cos(k), abs=1e-12)


def test_free_Z_branch_is_sin(pot_free):
    # the boundary-limit branch continues smoothly through band interiors
    for k in (0.5, 2.0, 4.0, 5.5):
        assert monodromy(pot_free, k).Z == pytest.approx(math.sin(k), abs=1e-6)


def test_eigenvalue_relations(pot_square):
    for k in (0.4, 1.9, 3.0, 2.5 + 0.2j):
        mono = monodromy(pot_square, k)
        assert mono.lam * (1.0 / mono.lam) == pytest.approx(1.0, abs=1e-14)
        assert mono.lam + 1.0 / mono.lam == pytest.approx(2.0 * mono.Y, abs=1e-11)
        assert mono.Z ** 2 == pytest.approx(1.0 - mono.Y ** 2, abs=1e-10)
        assert mono.gamma == pytest.approx(1.0 / mono.lam ** 2, abs=1e-12)


def test_multiplier_exceeds_one_upper_half_plane(pot_square, pot_cosine):
    for pot in (pot_square, pot_cosine):
        for k in (0.3 + 0.1j, 1.5 + 0.5j, 3.0 + 0.05j):
            assert abs(monodromy(pot, k).lam) > 1.0


def test_lambda_reflection_real_k(pot_square):
    for k in (0.5, 1.1, 2.0):
        lam_p = monodromy(pot_square, k).lam
        lam_m = monodromy(pot_square, -k).lam
        assert lam_m == pytest.approx(1.0 / lam_p, abs=1e-9)


def test_discriminant_base_independence(pot_square, pot_cosine, rng):
    for pot in (pot_square, pot_cosine):
        k = 1.3
        vals = []
        for _ in range(5):
            x = float(rng.uniform(-1.0, 1.0))
            U = evolve(pot, x, x - pot.period, k)
            vals.append(0.5 * (U.alpha_plus + U.alpha_minus))
        assert np.ptp(np.real(vals)) < 1e-10
        assert np.max(np.abs(np.imag(vals))) < 1e-10


def test_small_k_expansions(pot_square, cc_square):
    # Y = 1 - (k L0)^2/2 + O(k^4) and Z = k L0 + O(k^3)
    L0 = cc_square.L0
    for k in (1e-2, 3e-2):
        mono = monodromy(pot_square, k)
        assert mono.Y.real == pytest.approx(1.0 - 0.5 * (k * L0) ** 2, abs=5 * k ** 4)
        assert mono.Z.real == pytest.approx(k * L0, abs=5 * k ** 3)


def test_gap_branch_consistent_with_limit_rule(pot_square):
    from bloch_green.transfer import _uhp_Z  # the shared upper-half-plane rule

    def Y_of_k(kk):
        return Y_square(kk)

    for k in (2.5, 3.0, 6.3):
        fast = branch_Z(Y_of_k, k)
        eps = 1e-7
        slow = 2.0 * _uhp_Z(Y_of_k(k + 0.5j * eps)) - _uhp_Z(Y_of_k(k + 1j * eps))
        assert fast == pytest.approx(slow, abs=1e-7)
        lam = Y_of_k(k) - 1j * fast
        assert abs(lam) > 1.0


def test_classify_band_examples(pot_square):
    assert classify_band(pot_square, 0.5) is BandClass.BAND
    assert classify_band(pot_square, 0.01) is BandClass.BAND
    assert classify_band(pot_square, 3.0) is BandClass.GAP


def test_first_edge_by_bisection(pot_square):
    # Y(k) = -1 at the first edge; bisection on the closed form and on the
    # monodromy route must agree, and the edge classifies as EDGE
    def bisect(f, lo, hi, iters=60):
        flo = f(lo)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if f(mid) * flo > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    k_closed = bisect(lambda k: Y_square(k).real + 1.0, 2.0, 2.5)
    k_mono = bisect(lambda k: monodromy(pot_square, k).Y.real + 1.0, 2.0, 2.5)
    assert k_closed == pytest.approx(K_EDGE1, abs=1e-10)
    assert k_mono == pytest.approx(k_closed, abs=1e-8)
    assert classify_band(pot_square, k_mono) is BandClass.EDGE


_coords = st.floats(min_value=-2.0, max_value=2.0,
                    allow_nan=False, allow_infinity=False)


from hypothesis import example


@settings(max_examples=40, deadline=None)
@example(xs=(0.0, 2.0, -1.085508287128562e-248), kre=1.0, kim=0.0)
@given(xs=st.tuples(_coords, _coords, _coords),
       kre=st.floats(min_value=0.05, max_value=4.0),
       kim=st.floats(min_value=0.0, max_value=1.0))
def test_unimodularity_and_composition_property(xs, kre, kim):
    # exact-factor path of the two-level cell: fast enough to fuzz
    pot = square_potential(1.0, 1.0, 0.6)
    x1, x2, x3 = sorted(xs)
    k = complex(kre, kim)
    U21 = evolve(pot, x2, x1, k)
    U32 = evolve(pot, x3, x2, k)
    U31 = evolve(pot, x3, x1, k)
    assert abs(U21.det - 1.0) < 1e-12
    assert np.abs(U32.matrix @ U21.matrix - U31.matrix).max() < 1e-10


def test_composition_with_endpoints_on_jumps(pot_square):
    # intermediate and outer points sitting exactly on (or one ulp off)
    # jump positions must still satisfy the composition identity
    k = 0.8 + 0.1j
    specials = [0.6, 1.0, np.nextafter(0.6, 0.0), np.nextafter(0.6, 1.0),
                np.nextafter(1.0, 2.0), 2.0, -0.4]
    for x2 in specials:
        for x1, x3 in ((-0.7, 1.9), (0.6, 2.6), (-1.0, 3.0)):
            if not x1 <= x2 <= x3:
                continue
            lhs = evolve(pot_square, x3, x2, k).matrix @ evolve(pot_square, x2, x1, k).matrix
            rhs = evolve(pot_square, x3, x1, k).matrix
            assert np.abs(lhs - rhs).max() < 1e-11, (x1, x2, x3)


def test_staircase_many_jumps():
    # arbitrary finite jump counts per period are supported
    from bloch_green.potential import load_potential
    pot = load_potential(
        "period=1.2; const V=0 len=0.2; const V=0.5 len=0.2; const V=1.1 len=0.2;"
        " const V=0.3 len=0.2; const V=-0.4 len=0.2; const V=0.8 len=0.2")
    k = 0.7 + 0.2j
    U21 = evolve(pot, 0.9, -0.3, k)
    U32 = evolve(pot, 1.7, 0.9, k)
    U31 = evolve(pot, 1.7, -0.3, k)
    assert abs(U21.det - 1.0) < 1e-13
    assert np.abs(U32.matrix @ U21.matrix - U31.matrix).max() < 1e-12
    # half-trace stays base-independent with six jumps in play
    vals = []
    for x in (0.05, 0.31, 0.77, 1.13):
        U = evolve(pot, x, x - pot.period, 1.1)
        vals.append(0.5 * (U.alpha_plus + U.alpha_minus))
    assert np.ptp(np.real(vals)) < 1e-12


def test_table_potential_propagation(tmp_path):
    from bloch_green.potential import load_potential
    xs = np.linspace(0.0, 1.0, 41)
    vs = 0.4 * np.sin(np.pi * xs) ** 2
    path = tmp_path / "bump.csv"
    np.savetxt(path, np.column_stack([xs, vs]), delimiter=",")
    pot = load_potential(f"period=1; table file={path} len=1")
    U = evolve(pot, 1.3, 0.1, 0.6 + 0.3j)
    assert abs(U.det - 1.0) < 1e-11
    mono = monodromy(pot, 0.9)
    assert abs(mono.lam * (1 / mono.lam) - 1.0) < 1e-13


@pytest.mark.parametrize("k", [math.nan, math.inf, complex(1.0, math.nan),
                               complex(-math.inf, 0.5)])
def test_non_finite_k_rejected(pot_square, pot_cosine, k):
    for pot in (pot_square, pot_cosine):
        with pytest.raises(ValueError, match="finite"):
            evolve(pot, 1.3, 0.2, k)
        with pytest.raises(ValueError, match="finite"):
            monodromy(pot, k)


def test_scattering_rejects_singular():
    from bloch_green.transfer import EvolutionMatrix
    U = EvolutionMatrix(0.0, 1.0, 0.5, 0.5, 1.0, 0.0, 1.0)
    with pytest.raises(SingularIntervalError):
        scattering(U)


def test_offset_cells_match_closed_form():
    # the one-period window sits on [offset, offset + L]: the jump at the
    # cell origin is counted once however the offset rounds
    from bloch_green.green import SquareWellParams
    from bloch_green.potential import ConstSegment, PeriodicPotential
    p = SquareWellParams(C=C, L=1.0, a=A)
    segments = [ConstSegment(0.0, A), ConstSegment(C, B)]
    for i in range(1, 51):
        pot = PeriodicPotential(1.0, segments, offset=i * 0.0037)
        for k in (0.5, 1.0, 3.0, 0.8 + 0.3j):
            mono = monodromy(pot, k)
            want = p.discriminant(k)
            assert abs(mono.Y - want) <= 1e-12, (i, k)
            if isinstance(k, float):
                cls = BandClass.BAND if want.real ** 2 < 1.0 else BandClass.GAP
                assert mono.band is cls, (i, k)
                assert classify_band(pot, k) is cls, (i, k)
            else:
                assert mono.band is None


def _cell_Y_of_k(pot):
    def Y_of_k(k):
        U = evolve(pot, pot.offset + pot.period, pot.offset, k)
        return 0.5 * (U.alpha_plus + U.alpha_minus)
    return Y_of_k


def _edges(Y_of_k, ks):
    """Band edges between grid points, bisected on Y^2 - 1."""
    g = [Y_of_k(k).real ** 2 - 1.0 for k in ks]
    out = []
    for lo, hi, glo, ghi in zip(ks[:-1], ks[1:], g[:-1], g[1:]):
        if glo * ghi < 0:
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if (Y_of_k(mid).real ** 2 - 1.0) * glo > 0:
                    lo = mid
                else:
                    hi = mid
            out.append(0.5 * (lo + hi))
    return out


def test_band_Z_sign_matches_epsilon_limit():
    # monodromy reads the in-band sign of Z off Im alpha_plus of the cell
    # window; branch_Z takes it from the k + i*eps limit of the same Y
    from test_acceptance import POT_POOL_SPECS

    from bloch_green.potential import load_potential
    specs = POT_POOL_SPECS + [
        "period=1; offset=0.3; const V=0 len=0.6; const V=4 len=0.4"]
    ks = np.linspace(0.01, 12.0, 151)
    counts = {BandClass.BAND: 0, BandClass.EDGE: 0}
    for spec in specs:
        pot = load_potential(spec)
        Y_of_k = _cell_Y_of_k(pot)
        edges = _edges(Y_of_k, ks)
        for k in list(ks) + [-k for k in ks[::10]] + edges + [-e for e in edges]:
            mono = monodromy(pot, k)
            if mono.band is BandClass.GAP:
                continue
            counts[mono.band] += 1
            assert mono.Z == branch_Z(Y_of_k, k), (spec, k)
    assert counts[BandClass.BAND] > 500 and counts[BandClass.EDGE] >= 40, counts


def test_band_class_and_gap_Z_past_square_overflow():
    # Y^2 overflows past |Y| ~ 1.3e154; neither the class nor Z may need it
    from bloch_green.transfer import _classify, _real_Z
    for Y in (1e200, -1e200, 1e151, -3e300):
        assert _classify(Y) is BandClass.GAP
        assert _real_Z(Y, BandClass.GAP, 1.0) == 1j * Y
    for Y in (1.5, -1e8, 1e150):
        assert _real_Z(Y, BandClass.GAP, 1.0) == 1j * math.copysign(math.sqrt(Y * Y - 1.0), Y)
