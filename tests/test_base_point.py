"""One-period data at any base point.

A shift of base point conjugates the one-period matrix U(x, x - L; k), so
Y, Z and the band class read off it cannot depend on x, and S(x) and
G(x + d, x) are periodic in x.  The base points include every segment
boundary translate, where the rounded lower end x - L of the window can
fall on either side of the translate one period down.
"""

import math
import pickle

import numpy as np
import pytest

from bloch_green.green import green_exact
from bloch_green.halfline import s_functions
from bloch_green.potential import (ConstSegment, CosineSegment, LinearSegment,
                                   PeriodicPotential, TableSegment, load_potential)
from bloch_green.transfer import BandClass, _period_monodromy, evolve, monodromy

SQUARE = "period=1; const V=0 len=0.6; const V=1 len=0.4"
OFFSET_V4 = "period=1; offset=0.3; const V=0 len=0.6; const V=4 len=0.4"
LONG_CELL = "period=2.5; offset=0.1; const V=0 len=1.1; const V=2 len=1.4"
POOL = [
    SQUARE,
    "period=2; cosine amp=0.3 len=2",
    "period=1; linear V0=-0.4 V1=0.6 len=0.5; linear V0=0.6 V1=-0.4 len=0.5",
    "period=1.5; const V=0.2 len=0.5; cosine amp=0.25 len=0.6; linear V0=0.1 V1=0.6 len=0.4",
]


def mixed_cell(seed=1):
    """The jumpy const/cosine/linear/table cell of the field-mixed benchmark."""
    rng = np.random.default_rng([seed, 7])
    xs = np.linspace(0.0, 0.4, 4)
    vs = 0.05 + 0.1 * np.sin(3.0 * xs) + rng.uniform(-0.01, 0.01, xs.size)
    return PeriodicPotential(2.0, [
        ConstSegment(0.4, 0.5),
        CosineSegment(0.3, 0.7, 0.6),
        LinearSegment(-0.2, 0.5, 0.5),
        TableSegment(tuple(xs), tuple(vs), 0.4),
    ])


def cell(name):
    return mixed_cell() if name == "mixed" else load_potential(name)


def translates(pot, j):
    """Each segment boundary's translate j periods from the cell."""
    return [pot.offset + start + j * pot.period for start in pot.starts]


@pytest.mark.parametrize("name", [SQUARE, OFFSET_V4, "mixed", LONG_CELL])
@pytest.mark.parametrize("shift", [0.0, 1e-9, -1e-9])
def test_values_periodic_across_boundary_translates(name, shift):
    pot = cell(name)
    for k in (1.3, 0.7 + 0.2j):
        for i, p0 in enumerate(translates(pot, 0)):
            y0 = p0 + shift
            s_ref = s_functions(pot, y0, k)[2]
            g_ref = green_exact(pot, y0 + 0.37, y0, k).G_S
            for j in range(-8, 9):
                y = translates(pot, j)[i] + shift
                s = s_functions(pot, y, k)[2]
                g = green_exact(pot, y + 0.37, y, k).G_S
                assert abs(s - s_ref) <= 1e-6 * abs(s_ref), (y, k, s, s_ref)
                assert abs(g - g_ref) <= 1e-6 * abs(g_ref), (y, k, g, g_ref)


def band_ks(pot, n=3):
    """Real k well inside bands, spread over the first few bands."""
    ks = [k for k in np.linspace(0.05, 8.0, 160)
          if abs(monodromy(pot, k).Y.real) < 0.9]
    return [float(k) for k in ks[::max(1, len(ks) // n)]]


@pytest.mark.parametrize("spec", POOL + [OFFSET_V4])
def test_Z_and_band_class_at_any_base_point(spec):
    pot = load_potential(spec)
    L = pot.period
    rng = np.random.default_rng(5)
    jumps = [p for j in (-2, 0, 1, 3) for p in translates(pot, j)]
    bases = jumps + list(pot.offset + rng.uniform(-3 * L, 4 * L, 50 - len(jumps)))
    assert len(bases) == 50
    for k in band_ks(pot):
        ref = monodromy(pot, k)
        assert ref.band is BandClass.BAND
        for x in bases:
            mono = _period_monodromy(evolve(pot, x, pot.period_start(x), k))
            assert mono.band is BandClass.BAND, (x, k)
            assert np.sign(mono.Z.real) == np.sign(ref.Z.real), (x, k)
            assert abs(mono.Z - ref.Z) <= 1e-10, (x, k, mono.Z, ref.Z)


def test_table_cell_pickles_with_its_interpolants():
    pot = mixed_cell()
    copy = pickle.loads(pickle.dumps(pot))
    s = np.linspace(0.0, 0.4, 7)
    for a, b in zip(pot.segments, copy.segments):
        assert np.array_equal(a.slope(s), b.slope(s))
        assert np.array_equal(a.curvature(s), b.curvature(s))
    assert green_exact(copy, 5.3, 0.2, 1.0).G_S == green_exact(pot, 5.3, 0.2, 1.0).G_S


@pytest.mark.parametrize("xs", [(-1.0, -2.2250738585e-313, 0.0), (3.6, 4.6 - 1.0, 4.6)])
def test_evolve_keeps_literal_endpoints(xs):
    # the one-period window is chosen by period_start; evolve itself counts
    # the boundaries on (xprime, x] of the endpoints it is given, so that
    # composition holds exactly also when xprime is a rounded x - L
    pot = load_potential(SQUARE)
    x1, x2, x3 = sorted(xs)
    U21, U32, U31 = (evolve(pot, b, a, 1.0).matrix for b, a in ((x2, x1), (x3, x2), (x3, x1)))
    assert np.abs(U32 @ U21 - U31).max() < 1e-12


@pytest.mark.parametrize("name", [SQUARE, OFFSET_V4])
def test_boundary_translates_located_like_the_cell(name):
    # a point on a boundary translate j periods out is located by the same
    # p0 + j*L arithmetic that places the translate, so it sits at the start
    # of the segment beginning there, as its j = 0 partner does
    from bloch_green.wop import expansion_coeffs

    pot = load_potential(name)
    for i, p0 in enumerate(translates(pot, 0)):
        seg0, start0 = pot.segment_at(p0)
        pe0 = pot.eval(p0)
        coeffs0 = expansion_coeffs(pot, p0, 4)
        g0 = green_exact(pot, p0 + 0.37, p0, 1.3).G_F
        assert start0 == p0 and pe0.has_jump
        for j in range(-8, 9):
            x = translates(pot, j)[i]
            seg, start = pot.segment_at(x)
            assert seg is seg0 and start == x, (x, start)
            assert pot.V(x) == pot.V(p0) and pot.eval(x) == pe0, x
            for got, want in zip(expansion_coeffs(pot, x, 4), coeffs0):
                assert np.abs(got - want).max() <= 1e-9, (x, got, want)
            g = green_exact(pot, x + 0.37, x, 1.3).G_F
            assert abs(g - g0) <= 1e-12 * abs(g0), (x, g, g0)


def _scan(pot, p0, a, b):
    """The translates p0 + j*L with a < p <= b, by trying every j near the
    window in the same arithmetic."""
    L = pot.period
    js = range(math.floor((a - p0) / L) - 2, math.ceil((b - p0) / L) + 3)
    return [p0 + j * L for j in js if a < p0 + j * L <= b]


@pytest.mark.parametrize("name", [SQUARE, OFFSET_V4, LONG_CELL])
def test_translates_match_a_brute_force_scan(name):
    # boundaries_in and breakpoints against the definition: every boundary
    # translate in (a, b], and breakpoints as the merged set of the ends and
    # the interior translates
    pot = load_potential(name)
    L = pot.period
    rng = np.random.default_rng(17)
    windows = []
    for _ in range(1500):
        a = float(rng.uniform(-50.0, 50.0)) * L
        windows.append((a, a + float(rng.uniform(0.0, 5.0)) * L))
    for _ in range(1500):
        # ends on translates, one or both
        p, q = (pot._origins[i] + int(j) * L
                for i, j in zip(rng.integers(len(pot._origins), size=2),
                                rng.integers(-60, 60, size=2)))
        lo, hi = min(p, q), max(p, q)
        windows += [(lo, hi), (lo, hi + float(rng.uniform(0.0, 1.0)) * L),
                    (lo - float(rng.uniform(0.0, 1.0)) * L, hi)]
    merge = 1e-13 * max(1.0, L)
    for a, b in windows:
        want = sorted((p, float(delta)) for p0, delta in zip(pot._origins, pot._jumps)
                      for p in _scan(pot, p0, a, b))
        assert pot.boundaries_in(a, b) == want, (a, b)
        pts = sorted({a, b} | {p for p, _ in want if p < b})
        kept = pts[:1] + [q for p, q in zip(pts, pts[1:]) if q - p > merge]
        assert pot.breakpoints(a, b).tolist() == (kept if len(kept) > 1 else [a, b]), (a, b)
