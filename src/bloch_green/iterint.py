"""Ordered iterated integrals of exp(sum sigma_j V(z_j)) over simplices.

The n-fold simplex integral for a sign word (sigma_1 .. sigma_n) is computed
by the nested cumulative scheme J_m(t) = integral_a^t e^{sigma_m V} J_{m-1},
one spectral antiderivative pass per letter, so the cost is linear in the
word length.  Bracket values and the cell invariant are memoised on the
potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._spectral import cumulative_integral
from .potential import QuadratureError

__all__ = ["SignWord", "bracket", "cell_Q", "insertions", "alternating_tail_values"]

MAX_WORD_LEN = 8

_ORDERS = (20, 30, 45, 64, 96)

# relative convergence tolerance of every bracket
BRACKET_TOL = 1e-12


@dataclass(frozen=True)
class SignWord:
    """A nonempty word of +1/-1 letters, innermost integration variable first."""
    signs: tuple

    def __post_init__(self):
        if not self.signs:
            raise ValueError("sign word must be nonempty")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("letters must be +1 or -1")
        if len(self.signs) > MAX_WORD_LEN:
            raise ValueError(f"word longer than the configured max {MAX_WORD_LEN}")

    @classmethod
    def parse(cls, word) -> "SignWord":
        if isinstance(word, SignWord):
            return word
        if isinstance(word, str):
            table = {"+": 1, "-": -1, "−": -1}
            try:
                return cls(tuple(table[ch] for ch in word.replace(" ", "")))
            except KeyError as exc:
                raise ValueError(f"bad sign character {exc.args[0]!r}") from None
        return cls(tuple(int(s) for s in word))

    def __len__(self):
        return len(self.signs)

    def __str__(self):
        return "".join("+" if s > 0 else "-" for s in self.signs)


def insertions(word, sigma: int):
    """All words obtained by inserting a single letter; the multiplication
    rule states bracket(word)*bracket([sigma]) equals the sum over these."""
    w = SignWord.parse(word).signs
    return [SignWord(w[:i] + (sigma,) + w[i:]) for i in range(len(w) + 1)]


def _nested_pass(pot, signs, a, b, order) -> np.ndarray:
    """End values of the nested integrals J_1 .. J_n of the word `signs` over
    [a, b], one antiderivative pass per letter on one panel mesh."""
    mesh = pot.mesh(a, b, order, max_panel=pot.period)
    v = pot.V_on_mesh(mesh)
    weights = {s: np.exp(s * v) for s in set(signs)}
    out = np.empty(len(signs))
    J = 1.0
    for m, s in enumerate(signs):
        J = cumulative_integral(J * weights[s], mesh.half)
        out[m] = J[-1, -1]
    return out


def bracket(pot, word, a: float, b: float) -> float:
    """Simplex integral of the given word over a <= z_1 <= ... <= z_n <= b."""
    w = SignWord.parse(word)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("window must be finite")
    if b < a:
        raise ValueError("need a <= b")
    if b == a:
        return 0.0

    def compute():
        prev = None
        for order in _ORDERS:
            val = float(_nested_pass(pot, w.signs, a, b, order)[-1])
            if prev is not None and abs(val - prev) <= BRACKET_TOL * max(1.0, abs(val)):
                return val
            prev = val
        raise QuadratureError(
            f"bracket {w} over [{a}, {b}] did not converge to {BRACKET_TOL:g}")

    return pot._cached(("bracket", w.signs, float(a), float(b)), compute)


def cell_Q(pot) -> float:
    """The cell invariant [-+-+] + [+-+-], checked against a shifted window."""
    def compute():
        top = pot.offset + pot.period
        L = pot.period
        q = bracket(pot, "-+-+", top - L, top) + bracket(pot, "+-+-", top - L, top)
        shifted = top - 0.37109375 * L
        q2 = (bracket(pot, "-+-+", shifted - L, shifted)
              + bracket(pot, "+-+-", shifted - L, shifted))
        if abs(q - q2) > 50 * BRACKET_TOL * max(1.0, abs(q)):
            raise QuadratureError(
                f"cell invariant not window-independent: {q!r} vs {q2!r}")
        return q

    return pot._cached(("cell_Q",), compute)


def alternating_tail_values(pot, a: float, b: float, first_sign: int, count: int,
                            order: int) -> np.ndarray:
    """End values of the alternating-word integrals of lengths 1..count.

    Word m starts with first_sign and alternates; these are the building
    blocks of the power-series form of the evolution matrix.
    """
    if b < a:
        raise ValueError("need a <= b")
    if b == a:
        return np.zeros(count)
    signs = [first_sign if m % 2 == 0 else -first_sign for m in range(count)]
    return _nested_pass(pot, signs, a, b, order)
