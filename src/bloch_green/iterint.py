"""Ordered iterated integrals of exp(sum sigma_j V(z_j)) over simplices.

The n-fold simplex integral for a sign word (sigma_1 .. sigma_n) is computed
by the nested cumulative scheme J_m(t) = integral_a^t e^{sigma_m V} J_{m-1},
one spectral antiderivative pass per letter, so the cost is linear in the
word length.  Cell-window values are cached per potential.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ._spectral import PanelFunction
from .potential import QuadratureError

__all__ = ["SignWord", "bracket", "cell_Q", "insertions", "alternating_tail_values"]

MAX_WORD_LEN = 8

_ORDERS = (20, 30, 45, 64)

_cache: dict = {}
_cache_lock = threading.Lock()


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
    weights = {1: np.exp(v), -1: np.exp(-v)}
    out = np.empty(len(signs))
    J = None
    for m, s in enumerate(signs):
        cur = PanelFunction(mesh, weights[s]) if J is None else J * weights[s]
        J = cur.antiderivative()
        out[m] = float(J.end_value())
    return out


def bracket(pot, word, a: float, b: float, tol: float = 1e-12) -> float:
    """Simplex integral of the given word over a <= z_1 <= ... <= z_n <= b."""
    w = SignWord.parse(word)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("window must be finite")
    if b < a:
        raise ValueError("need a <= b")
    if b == a:
        return 0.0
    key = (pot.fingerprint, w.signs, float(a), float(b), float(tol))
    with _cache_lock:
        if key in _cache:
            return _cache[key]
    prev = None
    val = None
    for order in _ORDERS:
        val = float(_nested_pass(pot, w.signs, a, b, order)[-1])
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            break
        prev = val
    else:
        raise QuadratureError(
            f"bracket {w} over [{a}, {b}] did not converge to {tol:g}")
    with _cache_lock:
        _cache[key] = val
    return val


def cell_Q(pot, tol: float = 1e-12) -> float:
    """The cell invariant [-+-+] + [+-+-], checked against a shifted window."""
    top = pot.offset + pot.period
    L = pot.period
    q = bracket(pot, "-+-+", top - L, top, tol) + bracket(pot, "+-+-", top - L, top, tol)
    shifted = top - 0.37109375 * L
    q2 = (bracket(pot, "-+-+", shifted - L, shifted, tol)
          + bracket(pot, "+-+-", shifted - L, shifted, tol))
    if abs(q - q2) > 50 * tol * max(1.0, abs(q)):
        raise QuadratureError(
            f"cell invariant not window-independent: {q!r} vs {q2!r}")
    return q


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
