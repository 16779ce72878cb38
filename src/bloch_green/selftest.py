"""Built-in invariant battery behind the CLI selftest command.

A fast, deterministic miniature of the full test suite: propagation
identities, cell constants, the two routes to the expansion coefficients
and their orders 3 and 4, the square-cell oracle and the low-energy
series.  Each check prints one PASS/FAIL line.
"""

from __future__ import annotations

import math

import numpy as np

from . import wop
from .green import SquareWellParams, green_exact, green_series, square_well_oracle
from .halfline import m_functions, s_functions
from .iterint import bracket, cell_Q
from .potential import cell_constants, load_potential, square_potential
from .transfer import evolve, monodromy, series_evolution

_COSINE = "period=2; cosine amp=0.3 len=2"


def _checks():
    pot = square_potential(1.0, 1.0, 0.6)
    cosv = load_potential(_COSINE)
    cc = cell_constants(pot)

    def unimodularity():
        worst = 0.0
        for p, k in ((pot, 0.7), (pot, 0.4 + 0.2j), (cosv, 1.1), (cosv, 0.3 + 0.5j)):
            worst = max(worst, abs(evolve(p, 1.3, -0.4, k).det - 1.0))
        return worst, 1e-12

    def composition():
        worst = 0.0
        for p, k in ((pot, 0.9), (cosv, 0.6 + 0.1j)):
            lhs = evolve(p, 2.1, 0.8, k).matrix @ evolve(p, 0.8, -0.3, k).matrix
            rhs = evolve(p, 2.1, -0.3, k).matrix
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        return worst, 1e-10

    def cell_identity():
        return max(abs(cc.L0 ** 2 - cc.P * cc.M),
                   abs(cc.V0 - 0.5 * math.log(cc.P / cc.M))), 1e-12

    def const_brackets():
        # square cell, pieces of widths a = 0.6 and b = 0.4 at levels 0 and
        # 1: the invariant Q, and [+-] over the cell ending at x in (0, a)
        a, b, ch = 0.6, 0.4, math.cosh(1.0)
        worst = abs(cell_Q(pot) - ((a ** 4 + 6 * a * a * b * b + b ** 4) / 12
                                   + (a * b / 3) * (a * a + b * b) * ch))
        for x in (0.11, 0.4):
            want = 0.5 * (a * a + b * b) + math.exp(-1.0) * b * (a - x) + math.e * b * x
            worst = max(worst, abs(bracket(pot, "+-", x - 1.0, x) - want))
        return worst, 1e-14

    def series_route():
        worst = 0.0
        for k in (0.3, 0.1j, 0.25 + 0.25j):
            d = np.abs(series_evolution(pot, 1.2, 0.1, k).matrix
                       - evolve(pot, 1.2, 0.1, k).matrix).max()
            worst = max(worst, float(d))
        return worst, 1e-8

    def discriminant():
        p = SquareWellParams(C=1.0, L=1.0, a=0.6)
        worst = 0.0
        for k in (0.5, 1.7, 4.4, 9.9):
            worst = max(worst, abs(monodromy(pot, k).Y - p.discriminant(k)))
        return worst, 1e-10

    def expansion_overlap():
        # bracket series of the one-period matrix against the closed forms
        worst = 0.0
        for p in (pot, cosv):
            for x in (0.25, 0.7):
                closed, _ = wop.expansion_coeffs(p, x, 2)
                worst = max(worst, float(np.abs(wop._taylor_coeffs_a(p, x, 4)[:3]
                                                - closed).max()))
        return worst, 1e-12

    def expansion_high_orders():
        # a_3, a_4 of the square cell from a 50-digit contour of the exact
        # factor product (tests/test_mpmath_oracle.py)
        want = {0.25: (0.0014747887358114759, 0.002392270829022862),
                0.7: (-0.02095288193195951, -0.005874134161987744)}
        worst = 0.0
        for x, ref in want.items():
            a, _ = wop.expansion_coeffs(pot, x, 4)
            worst = max(worst, max(abs(a[3 + i] - r) / abs(r) for i, r in enumerate(ref)))
        return worst, 1e-11

    def oracle_match():
        p = SquareWellParams(C=1.0, L=1.0, a=0.6)
        worst = 0.0
        for k in (0.5, 2.0):
            exact = green_exact(pot, 0.4, 0.1, k).G_S
            ref = square_well_oracle(p, 0.4, 0.1, k)
            worst = max(worst, abs(exact - ref) / abs(ref))
        return worst, 1e-8

    def series_match(order, tol):
        gs = green_series(pot, 0.4, 0.1, order=order)
        exact = green_exact(pot, 0.4, 0.1, 0.05).G_S
        return abs(gs(0.05) - exact) / abs(exact), tol

    def m_reconstruction():
        worst = 0.0
        for k in (0.5, 1.0):
            mp, mm = m_functions(pot, 0.3, k)
            _, _, S = s_functions(pot, 0.3, k)
            worst = max(worst, abs((1j / (2 * k)) * (mp + mm) + 1.0 - S))
        return worst, 1e-10

    return [
        ("unimodularity", unimodularity),
        ("composition", composition),
        ("cell-constants", cell_identity),
        ("const-brackets", const_brackets),
        ("series-vs-ode", series_route),
        ("discriminant", discriminant),
        ("expansion-overlap", expansion_overlap),
        ("expansion-orders-3-4", expansion_high_orders),
        ("green-oracle", oracle_match),
        ("green-series", lambda: series_match(2, 1e-6)),
        ("green-series-order3", lambda: series_match(3, 1e-9)),
        ("m-reconstruction", m_reconstruction),
    ]


def run_selftest(out=None) -> int:
    """Run every check; returns the number of failures."""
    import sys

    out = out or sys.stdout
    failures = 0
    for name, check in _checks():
        try:
            worst, tol = check()
            ok = worst <= tol
        except Exception as exc:  # a crash is a failure, not an abort
            out.write(f"FAIL {name}: {type(exc).__name__}: {exc}\n")
            failures += 1
            continue
        if ok:
            out.write(f"PASS {name} (worst {worst:.3e} <= {tol:g})\n")
        else:
            out.write(f"FAIL {name} (worst {worst:.3e} > {tol:g})\n")
            failures += 1
    return failures
