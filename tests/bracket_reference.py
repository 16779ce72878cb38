"""Reference route for the bracket walk: one nested Chebyshev pass over the
whole window, const intervals included.

The package walks a window interval by interval, in closed form on const
intervals and by a seeded pass on each run of smooth ones.  This route
meshes the whole window with panels of at most one period and takes one
cumulative antiderivative per letter across it, climbing the same order
ladder; the tests compare the two.
"""

import numpy as np

from bloch_green._spectral import cumulative_integral
from bloch_green.iterint import _ORDERS, BRACKET_TOL, SignWord
from bloch_green.potential import QuadratureError
from wop_engine import mesh as panel_mesh


def nested_pass(pot, signs, a, b, order) -> np.ndarray:
    """End values of the nested integrals J_1 .. J_n of the word `signs` over
    [a, b], one antiderivative pass per letter on one panel mesh."""
    mesh = panel_mesh(pot, a, b, order, max_panel=pot.period)
    v = pot.V_on_mesh(mesh)
    weights = {s: np.exp(s * v) for s in set(signs)}
    out = np.empty(len(signs))
    J = 1.0
    for m, s in enumerate(signs):
        J = cumulative_integral(J * weights[s], mesh.half)
        out[m] = J[-1, -1]
    return out


def bracket(pot, word, a, b) -> float:
    """The bracket of `word` over [a, b] by whole-window passes at the
    orders of the package's ladder, until two successive orders agree."""
    signs = SignWord.parse(word).signs
    prev = None
    for order in _ORDERS:
        val = float(nested_pass(pot, signs, a, b, order)[-1])
        if prev is not None and abs(val - prev) <= BRACKET_TOL * max(1.0, abs(val)):
            return val
        prev = val
    raise QuadratureError(f"reference bracket {word} over [{a}, {b}] did not converge")
