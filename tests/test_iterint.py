import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev

from bloch_green._spectral import PanelMesh, cumulative_integral, lobatto_nodes, vals_to_coeffs
from bloch_green.iterint import SignWord, bracket, cell_Q, insertions

A, B, C = 0.6, 0.4, 1.0


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
