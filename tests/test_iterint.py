import itertools
import math

import bracket_reference as ref
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev

from bloch_green import iterint
from bloch_green._spectral import PanelMesh, cumulative_integral, lobatto_nodes
from bloch_green.cli import EXIT_OK, RunConfig, run
from bloch_green.green import green_series
from bloch_green.iterint import SignWord, alternating_tail_values, bracket, cell_Q, insertions
from bloch_green.potential import cell_constants, load_potential
from bloch_green.wop import expansion_coeffs
from wop_engine import vals_to_coeffs

A, B, C = 0.6, 0.4, 1.0

CONST_CELLS = (
    "period=1; const V=0 len=0.6; const V=1 len=0.4",
    "period=1; offset=0.3; const V=0 len=0.6; const V=1 len=0.4",
    "period=2; const V=0.2 len=0.3; const V=-1.5 len=0.9; const V=2 len=0.8",
)
SMOOTH_CELLS = (
    "period=2; cosine amp=0.3 len=2",
    "period=1; linear V0=-0.4 V1=0.6 len=0.5; linear V0=0.6 V1=-0.4 len=0.5",
)
# every sign word of length 1 to 4 (30 words)
WORDS_4 = [w for n in range(1, 5) for w in itertools.product((1, -1), repeat=n)]
# windows over several periods whose ends sit inside pieces
WINDOWS = ((0.1, 3.7), (-2.3, 1.05), (-5.1, 4.2), (0.35, 0.9))


def test_sign_word_parsing():
    assert SignWord.parse("+-").signs == (1, -1)
    assert SignWord.parse([1, -1, 1]).signs == (1, -1, 1)
    assert str(SignWord.parse("-+-+")) == "-+-+"
    with pytest.raises(ValueError):
        SignWord.parse("")
    with pytest.raises(ValueError):
        SignWord.parse("+x")
    with pytest.raises(ValueError):
        SignWord.parse("+" * 9)  # longer than the configured max


def test_unit_integrand_is_interval_length(pot_free):
    assert bracket(pot_free, "+", 0.0, 0.7) == pytest.approx(0.7, abs=1e-14)


def test_free_brackets_are_simplex_volumes(pot_free):
    for word in ("+", "-", "+-", "-+-", "+-+-"):
        n = len(word)
        val = bracket(pot_free, word, 0.1, 0.9)
        assert val == pytest.approx(0.8 ** n / math.factorial(n), rel=1e-13)


def test_square_pair_words_cell_identities(pot_square, cc_square):
    top = 1.0
    P, M = cc_square.P, cc_square.M
    assert bracket(pot_square, "++", top - 1, top) == pytest.approx(P * P / 2, rel=1e-13)
    assert bracket(pot_square, "--", top - 1, top) == pytest.approx(M * M / 2, rel=1e-13)
    pm = bracket(pot_square, "+-", top - 1, top)
    mp_ = bracket(pot_square, "-+", top - 1, top)
    assert pm + mp_ == pytest.approx(P * M, rel=1e-13)


def test_square_pm_closed_form(pot_square):
    # exact polynomial-in-x expression of [+-] over the trailing cell, 0 < x < a
    for x in (0.11, 0.4, 0.59):
        val = bracket(pot_square, "+-", x - 1.0, x)
        want = (0.5 * (A * A + B * B) + math.exp(-C) * B * (A - x)
                + math.exp(C) * B * x)
        assert val == pytest.approx(want, abs=1e-13)


def test_cell_Q_square_closed_form(pot_square):
    q = cell_Q(pot_square)
    want = ((A ** 4 + 6 * A ** 2 * B ** 2 + B ** 4) / 12
            + (A * B / 3) * (A ** 2 + B ** 2) * math.cosh(C))
    assert q == pytest.approx(want, abs=1e-12)


def test_cell_Q_free_is_L4_over_12(pot_free):
    assert cell_Q(pot_free) == pytest.approx(1.0 / 12.0, abs=1e-13)


def test_cell_Q_window_invariance(pot_square, pot_cosine):
    # invariance at shifted windows is built into cell_Q; also check directly
    for pot in (pot_square, pot_cosine):
        top = pot.offset + pot.period
        L = pot.period
        q1 = (bracket(pot, "-+-+", top - 0.8 * L - L, top - 0.8 * L)
              + bracket(pot, "+-+-", top - 0.8 * L - L, top - 0.8 * L))
        q2 = (bracket(pot, "-+-+", top - 0.3 * L - L, top - 0.3 * L)
              + bracket(pot, "+-+-", top - 0.3 * L - L, top - 0.3 * L))
        assert q1 == pytest.approx(q2, abs=1e-10)


_WORDS = st.lists(st.sampled_from([1, -1]), min_size=1, max_size=3)


@settings(max_examples=25, deadline=None)
@given(word=_WORDS, sigma=st.sampled_from([1, -1]))
def test_multiplication_rule(word, sigma):
    # single-letter product expands into the sum over all insertions
    from bloch_green.potential import square_potential
    pot = square_potential(1.0, 1.0, 0.6)
    a, b = -0.3, 0.9
    lhs = bracket(pot, word, a, b) * bracket(pot, [sigma], a, b)
    rhs = sum(bracket(pot, w, a, b) for w in insertions(word, sigma))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_window_derivative_rule(pot_cosine):
    # d/dx of a trailing-cell bracket: end-weighted lower words
    pot = pot_cosine
    L = pot.period
    word = (1, -1, 1)
    h = 1e-5

    def windowed(x):
        return bracket(pot, word, x - L, x)

    for x in (0.33, 1.2):
        fd = (windowed(x + h) - windowed(x - h)) / (2 * h)
        lead = bracket(pot, word[:-1], x - L, x) * math.exp(word[-1] * pot.V(x))
        trail = bracket(pot, word[1:], x - L, x) * math.exp(word[0] * pot.V(x))
        assert fd == pytest.approx(lead - trail, rel=1e-7, abs=1e-8)


def test_bracket_validates_window(pot_free):
    with pytest.raises(ValueError):
        bracket(pot_free, "+", 1.0, 0.0)
    with pytest.raises(ValueError):
        bracket(pot_free, "+", 0.0, math.inf)
    assert bracket(pot_free, "+-", 0.5, 0.5) == 0.0


def test_bracket_over_window_below_merge_distance(pot_square):
    # a window shorter than the breakpoint merge distance is one short panel
    for d in (1e-14, 1e-16):
        b = 0.3 + d
        w = b - 0.3
        assert bracket(pot_square, "+", 0.3, b) == pytest.approx(w, rel=1e-12)
        assert bracket(pot_square, "+-", 0.3, b) == pytest.approx(w * w / 2, rel=1e-12)


def test_bracket_cache_consistency(pot_square):
    v1 = bracket(pot_square, "+-", 0.0, 1.0)
    v2 = bracket(pot_square, "+-", 0.0, 1.0)
    assert v1 == v2


def test_cumulative_integral_matches_chebint_reference(rng):
    # the cached matrix sums in another order than a per-panel chebint and
    # chebval pass; both integrate the same interpolant
    for order in (16, 30, 64):
        mesh = PanelMesh(np.sort(rng.uniform(-2.0, 3.0, 6)), order)
        values = np.exp(np.sin(3.0 * mesh.nodes))[:, :, None] * rng.normal(size=3)
        ref = np.empty_like(values)
        total = np.zeros(3)
        for i in range(mesh.npanels):
            ci = chebyshev.chebint(vals_to_coeffs(values[i], axis=0), lbnd=-1)
            ref[i] = total + chebyshev.chebval(lobatto_nodes(order), ci).T * mesh.half[i]
            total = ref[i, -1]
        scale = np.abs(values).max() * (mesh.breaks[-1] - mesh.breaks[0])
        assert np.abs(cumulative_integral(values, mesh.half) - ref).max() <= 1e-14 * scale
        flat = cumulative_integral(values[:, :, 0], mesh.half)  # no trailing axis
        assert np.abs(flat - ref[:, :, 0]).max() <= 1e-14 * scale


def test_const_piece_is_its_closed_form():
    # one const piece of level V and length h: prod e^{sigma_i V} h^n/n!,
    # against 40-digit arithmetic, for levels up to 700 where no partial
    # sign sum of the word overflows e^{|V c|}
    levels = np.linspace(-700.0, 700.0, 57).tolist() + [-654.321, -1.7, 0.3, 123.456, 699.9]
    worst = 0.0
    with mpmath.workdps(40):
        for V in levels:
            pot = load_potential(f"period=1; const V={V!r} len=1")
            for w in WORDS_4:
                if abs(V) * max(abs(c) for c in itertools.accumulate(w)) > 700:
                    continue
                for a, b in ((0.125, 0.75), (0.3125, 0.9375)):  # b - a is exact
                    want = (mpmath.exp(mpmath.mpf(V) * sum(w)) * mpmath.mpf(b - a) ** len(w)
                            / math.factorial(len(w)))
                    worst = max(worst, float(abs(bracket(pot, w, a, b) - want) / want))
    assert worst <= 1e-15, worst


def test_const_walk_matches_whole_window_reference():
    # the walk against one whole-window Chebyshev pass, all 30 words
    worst = 0.0
    for spec in CONST_CELLS:
        pot = load_potential(spec)
        for (a, b), w in itertools.product(WINDOWS, WORDS_4):
            want = ref.bracket(pot, w, a, b)
            worst = max(worst, abs(bracket(pot, w, a, b) - want) / want)
    assert worst <= 1e-14, worst


def test_alternating_tails_match_whole_window_reference(pot_square):
    for (a, b), first in itertools.product(((0.1, 1.3), (-0.7, 2.2)), (1, -1)):
        signs = [first * (-1) ** m for m in range(12)]
        got = alternating_tail_values(pot_square, a, b, first, 12)
        want = ref.nested_pass(pot_square, signs, a, b, 30)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_windows_with_an_infinite_end_raise(pot_square):
    for a, b in ((0.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            alternating_tail_values(pot_square, a, b, 1, 3)
        with pytest.raises(ValueError, match="finite"):
            pot_square.boundaries_in(a, b)
        with pytest.raises(ValueError, match="finite"):
            pot_square.breakpoints(a, b)


def test_shuffle_rule_on_const_cells():
    # [w][sigma] = sum of the insertions of sigma into w; all terms >= 0
    for spec in CONST_CELLS:
        pot = load_potential(spec)
        for (a, b), sigma in itertools.product(WINDOWS, (1, -1)):
            for w in WORDS_4[:14]:  # lengths 1 to 3
                lhs = bracket(pot, w, a, b) * bracket(pot, [sigma], a, b)
                rhs = sum(bracket(pot, v, a, b) for v in insertions(w, sigma))
                assert lhs == pytest.approx(rhs, rel=1e-14, abs=0.0)


def test_strong_const_cells_do_not_raise(tmp_path):
    # the V = 700 half cell: [+-+-] spans e^{+-700} across its pieces
    pot = load_potential("period=1; const V=0 len=0.5; const V=700 len=0.5")
    cc = cell_constants(pot)
    assert cc.P == pytest.approx(0.5 * (1.0 + math.exp(700.0)), rel=1e-14)
    want_q = 0.5 ** 4 * (8.0 / 12.0 + (2.0 / 3.0) * math.cosh(700.0))  # square-cell Q
    assert cell_Q(pot) == pytest.approx(want_q, rel=1e-14)
    # a level-700 cell is free: V0 = 700, and the series is e^{t|x - y|}/2
    for level in (700, -700):
        spec = f"period=1; const V={level} len=1"
        pot = load_potential(spec)
        assert cell_constants(pot).V0 == pytest.approx(level, rel=1e-15)
        assert cell_Q(pot) == pytest.approx(1.0 / 12.0, rel=1e-14)
        gs = green_series(pot, 0.3, 0.1, order=2)
        for got, want in zip((gs.g_m1, gs.g_0, gs.g_1, gs.g_2), (0.5, 0.1, 0.01, 0.0008 / 1.2)):
            assert got == pytest.approx(want, rel=1e-13)
        path = tmp_path / f"const{level}.pot"
        path.write_text(spec + "\n")
        cfg = RunConfig(command="expand", potential_path=str(path), k_count=8,
                        out=str(tmp_path / f"expand{level}.csv"))
        assert run(cfg) == EXIT_OK


def test_const_windows_make_no_spectral_pass(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return cumulative_integral(*args)

    monkeypatch.setattr(iterint, "cumulative_integral", counting)
    for spec in CONST_CELLS:
        pot = load_potential(spec)
        cell_constants(pot)
        cell_Q(pot)
        expansion_coeffs(pot, 0.45, 2)
        green_series(pot, 2.9, 0.2)
        for (a, b), w in itertools.product(WINDOWS, WORDS_4):
            bracket(pot, w, a, b)
        alternating_tail_values(pot, 0.1, 1.3, 1, 12)
    assert not calls
    bracket(load_potential(SMOOTH_CELLS[0]), "+-", 0.1, 1.7)
    assert calls  # a smooth run still takes the spectral pass


def test_smooth_brackets_bit_identical_to_reference():
    # a window with no const interval takes the whole-window arithmetic
    for spec in SMOOTH_CELLS:
        pot = load_potential(spec)
        for (a, b), w in itertools.product(WINDOWS[:3], WORDS_4):
            assert bracket(pot, w, a, b) == ref.bracket(pot, w, a, b), (spec, w, a, b)


def test_mixed_cell_brackets_match_reference():
    # const and smooth intervals in one window: within the ladder's tolerance
    pot = load_potential("period=1.5; const V=0.2 len=0.5; cosine amp=0.25 len=0.6; "
                         "linear V0=0.1 V1=0.6 len=0.4")
    for (a, b), w in itertools.product(WINDOWS, WORDS_4):
        want = ref.bracket(pot, w, a, b)
        assert bracket(pot, w, a, b) == pytest.approx(want, rel=iterint.BRACKET_TOL)


def test_steep_smooth_run_gets_panels_by_its_range():
    # amplitude 8: e^V spans e^16 over one period, and one panel per period
    # stalls near 5e-11 between ladder orders; on panels set by the range of
    # V the ladder converges, to the pass on eight 64-point panels
    pot = load_potential("period=1; cosine amp=8 len=1")
    mesh = PanelMesh(np.linspace(0.0, 1.0, 9), 64)
    v = pot.V_on_mesh(mesh)
    J = 1.0
    for s in (-1, 1, -1, 1):
        J = cumulative_integral(J * np.exp(s * v), mesh.half)
    assert bracket(pot, "-+-+", 0.0, 1.0) == pytest.approx(J[-1, -1], rel=1e-12)


def test_const_pieces_beyond_the_float_range():
    # e^{-800}: a prefix that underflows leaves the bracket 0, as it is
    # to double precision; e^{800} overflows, and the bracket says so
    pot = load_potential("period=1; const V=-400 len=1")
    for w in ("++", "+-++"):
        assert bracket(pot, w, 0.5, 2.7) == 0.0
    pot = load_potential("period=1; const V=0 len=0.5; const V=800 len=0.5")
    with pytest.raises(OverflowError, match="overflowed"):
        bracket(pot, "+", 0.1, 0.9)
