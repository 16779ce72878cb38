import math

import numpy as np
import pytest

from bloch_green.iterint import bracket
from bloch_green.potential import (CellConstants, ConstSegment, CosineSegment,
                                   LinearSegment, ParseError, PeriodicPotential,
                                   PotentialError, TableSegment, cell_constants,
                                   load_potential, square_potential)

A, B, C = 0.6, 0.4, 1.0


def test_parse_square_example(pot_square):
    pot = load_potential("period=1; const V=0 len=0.6; const V=1 len=0.4")
    assert pot.period == 1.0
    assert pot.V(0.3) == 0.0
    assert pot.V(0.7) == 1.0
    assert pot.fingerprint == pot_square.fingerprint


def test_parse_free():
    pot = load_potential("period=1; const V=0 len=1")
    xs = np.linspace(-3, 3, 101)
    assert np.all(pot.V(xs) == 0.0)
    assert np.all(pot.f(xs) == 0.0)


def test_parse_cosine():
    pot = load_potential("period=2; cosine amp=0.3 len=2")
    xs = np.linspace(-2, 4, 37)
    assert np.allclose(pot.V(xs), 0.3 * np.cos(np.pi * xs), atol=1e-14)


def test_parse_multiline_with_comments():
    text = """
    # a comment
    period=1
    segment const V=0 len=0.6   # trailing comment
    segment const V=1 len=0.4
    """
    pot = load_potential(text)
    assert pot.V(0.7) == 1.0


def test_parse_offset_and_ordering():
    pot = load_potential("period=1; offset=0.25; const V=0 len=1")
    assert pot.offset == 0.25
    with pytest.raises(ParseError, match="first entry"):
        load_potential("offset=0.25; period=1; const V=0 len=1")
    with pytest.raises(ParseError, match="duplicate offset"):
        load_potential("period=1; offset=0.1; offset=0.2; const V=0 len=1")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        load_potential("period=1\nconst V=0 foo=1 len=1")
    with pytest.raises(ParseError, match="period"):
        load_potential("const V=0 len=1")
    with pytest.raises(ParseError, match="non-positive"):
        load_potential("period=-2; const V=0 len=-2")
    with pytest.raises(ParseError):
        load_potential("period=1")
    with pytest.raises(ParseError):
        load_potential("")


@pytest.mark.parametrize("spec", [
    "period=nan; const V=0 len=1",
    "period=inf; const V=0 len=1",
    "period=1; offset=nan; const V=0 len=1",
    "period=1; offset=-inf; const V=0 len=1",
    "period=1; const V=nan len=1",
    "period=1; const V=inf len=1",
    "period=1; linear V0=0 V1=-inf len=1",
    "period=1; cosine amp=0.3 phase=nan len=1",
    "period=1; cosine amp=inf len=1",
    "period=1; const V=0 len=nan",
])
def test_parse_rejects_non_finite(spec):
    with pytest.raises(ParseError, match="non-finite"):
        load_potential(spec)


@pytest.mark.parametrize("build", [
    lambda: square_potential(float("nan"), 1.0, 0.6),
    lambda: square_potential(1.0, float("inf"), 0.6),
    lambda: PeriodicPotential(1.0, [ConstSegment(0.0, 1.0)], offset=float("nan")),
    lambda: PeriodicPotential(1.0, [LinearSegment(0.0, float("-inf"), 1.0)]),
    lambda: PeriodicPotential(1.0, [CosineSegment(0.3, float("nan"), 1.0)]),
    lambda: PeriodicPotential(1.0, [CosineSegment(float("inf"), 0.0, 1.0)]),
], ids=["square-height", "square-period", "offset", "linear", "cosine-phase",
        "cosine-amp"])
def test_construction_rejects_non_finite(build):
    # the parser is not the only way in: a NaN height used to give Y = nan
    # classified as an edge
    with pytest.raises(PotentialError):
        build()


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_evaluation_rejects_non_finite_point(pot_square, x):
    # a NaN point used to evaluate to V = 1.0
    for evaluate in (pot_square.V, pot_square.f, pot_square.eval, pot_square.segment_at):
        with pytest.raises(ValueError, match="finite"):
            evaluate(x)
    with pytest.raises(ValueError, match="finite"):
        pot_square.V(np.array([0.3, x]))


@pytest.mark.parametrize("entry", ["nan", "inf"])
def test_parse_rejects_non_finite_table_entry(tmp_path, entry):
    path = tmp_path / "profile.csv"
    path.write_text(f"0.0,0.0\n0.5,{entry}\n1.0,0.0\n")
    with pytest.raises(ParseError, match="non-finite"):
        load_potential(f"period=1; table file={path} len=1")


def test_parse_reports_bad_float_and_unreadable_table(tmp_path):
    with pytest.raises(ParseError, match="bad float"):
        load_potential("period=1; const V=abc len=1")
    path = tmp_path / "profile.csv"
    path.write_text("0.0,0.0\n0.5,oops\n1.0,0.0\n")
    with pytest.raises(ParseError, match="cannot read table file"):
        load_potential(f"period=1; table file={path} len=1")
    path.write_text("0.0\n0.5\n1.0\n")
    with pytest.raises(ParseError, match="two columns"):
        load_potential(f"period=1; table file={path} len=1")


@pytest.mark.parametrize("rows", ["0.0,0.0\n0.2,1.0\n0.4,0.0\n",   # ends short of len
                                  "0.1,0.0\n0.5,1.0\n1.0,0.0\n",   # starts after 0
                                  "-0.1,0.0\n0.5,1.0\n1.0,0.0\n",  # starts before 0
                                  "0.0,0.0\n0.5,1.0\n1.2,0.0\n"])  # runs past len
def test_parse_rejects_table_not_spanning_its_segment(tmp_path, rows):
    # the interpolant would otherwise be extrapolated over the rest of the
    # segment: samples 0, 0.2, 0.4 of len=1 reached V = -18.3 at s = 0.99
    path = tmp_path / "profile.csv"
    path.write_text(rows)
    with pytest.raises(ParseError, match=r"line 1: table file .*profile\.csv.*span"):
        load_potential(f"period=1; table file={path} len=1")
    # within 1e-12 len of the ends is a span
    path.write_text("0.0,0.0\n0.5,1.0\n0.9999999999999,0.0\n")
    assert load_potential(f"period=1; table file={path} len=1").V(0.5) == 1.0


def random_table(rng):
    """Samples on [0, len] with uneven spacing, sign changes, monotone runs
    and flat stretches; len from 0.1 to 10 and value steps from 1e-3 to 10."""
    n = int(rng.integers(2, 40))
    length = 10.0 ** rng.uniform(-1.0, 1.0)
    gaps = rng.uniform(0.05, 1.0, n - 1)
    xs = length * np.concatenate(([0.0], np.cumsum(gaps) / gaps.sum()))
    xs[-1] = length
    vs = 10.0 ** rng.uniform(-3.0, 1.0) * rng.normal(size=n)
    if rng.uniform() < 0.3:
        vs = np.cumsum(np.abs(vs))
    for j in np.flatnonzero(rng.uniform(size=n - 1) < 0.25):
        vs[j + 1] = vs[j]
    return xs, vs, length


def test_table_interpolant_matches_scipy_pchip():
    from scipy.interpolate import PchipInterpolator

    bounds = (1e-13, 1e-11, 1e-10)  # value, slope, curvature
    for seed in range(200):
        rng = np.random.default_rng([seed, 23])
        xs, vs, length = random_table(rng)
        seg = TableSegment(tuple(xs), tuple(vs), length)
        ref = PchipInterpolator(xs, vs)
        s = np.concatenate((xs, rng.uniform(0.0, length, 64)))
        for order, (evaluate, bound) in enumerate(zip(
                (seg.value, seg.slope, seg.curvature), bounds)):
            want = ref(s, order)
            got = evaluate(s)
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert err.max() <= bound, (seed, order, err.max())
            # the scalar path repeats the array path's operations
            assert [evaluate(t) for t in s[::7]] == got[::7].tolist(), (seed, order)


def test_table_interpolant_is_monotone_between_samples():
    xs = np.array([0.0, 0.1, 0.15, 0.5, 0.9, 1.0])
    vs = np.array([0.0, 0.0, 1.0, 1.2, 3.0, 3.0])
    seg = TableSegment(tuple(xs), tuple(vs), 1.0)
    s = np.linspace(0.0, 1.0, 2001)
    v = seg.value(s)
    assert np.all(np.diff(v) >= -1e-15)
    assert v.min() == 0.0 and v.max() == 3.0
    assert np.all(seg.value(np.linspace(0.0, 0.1, 11)) == 0.0)  # flat stretch stays flat


def test_segment_lengths_must_sum_to_period():
    with pytest.raises(PotentialError):
        PeriodicPotential(1.0, square_potential(1.0, 1.0, 0.6).segments[:1])


def test_eval_inside_and_at_jump(pot_square):
    pe = pot_square.eval(0.3)
    assert pe.V == 0.0 and pe.f == 0.0 and not pe.has_jump
    pe = pot_square.eval(0.6)
    assert pe.has_jump and pe.jump == pytest.approx(C, abs=1e-15)
    pe = pot_square.eval(1.0)  # seam: V drops from C back to 0
    assert pe.has_jump and pe.jump == pytest.approx(-C, abs=1e-15)


def test_periodicity_exact(pot_square, pot_cosine):
    # dyadic points with unit/two period keep x + L exactly representable
    xs = np.arange(0, 64) / 64.0
    for pot in (pot_square, pot_cosine):
        for x in xs * pot.period:
            assert pot.eval(x + pot.period) == pot.eval(x)
            assert pot.eval(x - pot.period) == pot.eval(x)


def test_drift_is_minus_half_slope():
    pot = load_potential("period=1; linear V0=0 V1=2 len=0.5; linear V0=2 V1=0 len=0.5")
    assert pot.f(0.2) == pytest.approx(-2.0, abs=1e-14)
    assert pot.f(0.8) == pytest.approx(2.0, abs=1e-14)


def test_table_segment(tmp_path):
    xs = np.linspace(0.0, 1.0, 21)
    vs = 0.5 * xs * (1 - xs)
    path = tmp_path / "profile.csv"
    np.savetxt(path, np.column_stack([xs, vs]), delimiter=",")
    pot = load_potential(f"period=1; table file={path} len=1")
    assert pot.V(0.5) == pytest.approx(0.125, abs=1e-12)
    # drift from the monotone interpolant derivative (cubic-level accuracy)
    assert pot.f(0.25) == pytest.approx(-0.5 * 0.5 * (1 - 2 * 0.25), rel=0.05)


def test_cell_constants_on_table_segment(tmp_path):
    # the monotone cubic is only C1 at its sample knots; the quadrature
    # mesh must split there or the 1e-12 tolerance is unreachable
    xs = np.linspace(0.0, 0.3, 16)
    vs = 0.2 * xs * (0.3 - xs) / 0.0225
    np.savetxt(tmp_path / "prof.csv", np.column_stack([xs, vs]), delimiter=",")
    pot = load_potential(
        f"period=1; const V=0.1 len=0.7; table file={tmp_path / 'prof.csv'} len=0.3")
    cc = cell_constants(pot)
    assert bracket(pot, "-", 0.43, 1.43) == pytest.approx(cc.M, abs=1e-12)
    assert cc.L0 ** 2 == pytest.approx(cc.P * cc.M, rel=1e-13)


def test_cell_constants_square_closed_form(cc_square):
    assert cc_square.M == pytest.approx(A + B * math.exp(-C), abs=1e-13)
    assert cc_square.P == pytest.approx(A + B * math.exp(C), abs=1e-13)
    # frozen high-precision values of the derived constants
    assert cc_square.L0 == pytest.approx(1.1227994944384848, abs=1e-13)
    assert cc_square.V0 == pytest.approx(0.4073120483746352, abs=1e-13)


def test_cell_constants_free(pot_free):
    cc = cell_constants(pot_free)
    assert cc.M == pytest.approx(1.0, abs=1e-14)
    assert cc.P == pytest.approx(1.0, abs=1e-14)
    assert cc.L0 == pytest.approx(1.0, abs=1e-14)
    assert cc.V0 == pytest.approx(0.0, abs=1e-14)


def test_cell_constants_identities(cc_square, cc_cosine):
    for cc in (cc_square, cc_cosine):
        assert cc.L0 ** 2 == pytest.approx(cc.P * cc.M, rel=1e-14)
        assert cc.V0 == pytest.approx(0.5 * math.log(cc.P / cc.M), abs=1e-14)


def test_cell_constants_window_invariance(pot_square, pot_cosine, rng):
    # M and P are the [-] and [+] brackets over any one-period window
    for pot in (pot_square, pot_cosine):
        ref = cell_constants(pot)
        for _ in range(10):
            x_top = float(rng.uniform(-2, 2))
            a = x_top - pot.period
            assert bracket(pot, "-", a, x_top) == pytest.approx(ref.M, abs=1e-12)
            assert bracket(pot, "+", a, x_top) == pytest.approx(ref.P, abs=1e-12)


@pytest.mark.parametrize("height", [600.0, 700.0])
def test_cell_constants_strong_cell(height):
    # P is about 2e260 (5e303): the constants converge to a relative tolerance
    pot = load_potential(f"period=1; const V=0 len=0.5; const V={height} len=0.5")
    cc = cell_constants(pot)
    for got, want in ((cc.M, 0.5 * (1.0 + math.exp(-height))),
                      (cc.P, 0.5 * (1.0 + math.exp(height)))):
        assert abs(got - want) <= 1e-14 * want, (got, want)


def test_offset_representation_invariance(pot_square):
    # the same potential written with a shifted cell origin: identical
    # values, cell constants, band data and Green functions
    from bloch_green.green import green_exact
    from bloch_green.transfer import monodromy

    rotated = load_potential(
        "period=1; offset=0.3; const V=0 len=0.3; const V=1 len=0.4; const V=0 len=0.3")
    xs = np.linspace(-1.0, 2.0, 61)
    assert np.allclose(rotated.V(xs), pot_square.V(xs), atol=0)
    cc_a = cell_constants(pot_square)
    cc_b = cell_constants(rotated)
    assert cc_b.M == pytest.approx(cc_a.M, rel=1e-13)
    assert cc_b.V0 == pytest.approx(cc_a.V0, rel=1e-13)
    for k in (0.5, 2.5):
        assert monodromy(rotated, k).Y == pytest.approx(
            monodromy(pot_square, k).Y, abs=1e-12)
        ga = green_exact(pot_square, 0.4, 0.1, k).G_S
        gb = green_exact(rotated, 0.4, 0.1, k).G_S
        assert gb == pytest.approx(ga, rel=1e-11)


from hypothesis import given, settings
from hypothesis import strategies as st

_lens = st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=1, max_size=4)
_levels = st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=4, max_size=4)


@settings(max_examples=30, deadline=None)
@given(lens=_lens, levels=_levels)
def test_random_step_potentials_well_formed(lens, levels):
    period = sum(lens)
    parts = "; ".join(f"const V={levels[i]} len={ln}" for i, ln in enumerate(lens))
    pot = load_potential(f"period={period}; {parts}")
    # sample segment interiors; points on boundaries are ulp-sensitive
    starts = np.concatenate(([0.0], np.cumsum(lens)))[:-1]
    xs = np.concatenate([s + np.array([0.25, 0.5, 0.75]) * ln
                         for s, ln in zip(starts, lens)])
    for shift in (-period, period):
        assert np.all(pot.V(xs + shift) == pot.V(xs))
    cc = cell_constants(pot)
    assert cc.L0 ** 2 == pytest.approx(cc.P * cc.M, rel=1e-12)
    assert cc.M > 0 and cc.P > 0


def test_immutability(pot_square):
    assert isinstance(cell_constants(pot_square), CellConstants)
    with pytest.raises(AttributeError):
        cell_constants(pot_square).M = 2.0
