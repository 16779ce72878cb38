"""Ordered iterated integrals of exp(sum sigma_j V(z_j)) over simplices.

The n-fold simplex integral of a sign word (sigma_1 .. sigma_n) over [a, b]
is the last of the nested integrals J_m(t) = integral_a^t e^{sigma_m V} J_{m-1},
J_0 = 1.  One walk over the intervals between the window's breakpoints
carries J_1 .. J_n across each interval boundary, which is Chen's identity
for one word.  A const interval updates them in closed form, a finite sum
of nonnegative terms; a run of smooth intervals takes one spectral
antiderivative pass per letter on a mesh of the run, seeded with the
carried values, and climbs the one order ladder _ORDERS until its last
carried value settles.  So the cost is linear in the word length on smooth
runs, and a window of const intervals is exact with no ladder at all.
Each walk keeps J_1 .. J_n, its word's prefix values, memoised on the potential.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._spectral import PanelMesh, cumulative_integral
from .potential import QuadratureError

__all__ = ["SignWord", "bracket", "cell_Q", "insertions", "alternating_tail_values"]

MAX_WORD_LEN = 8

_ORDERS = (20, 30, 45, 64, 96)

# a smooth interval gets at least one panel per this much variation of V
# over its segment, so that one panel never spans a wide range of e^{+-V}
V_RANGE_PER_PANEL = 4.0

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


@functools.cache
def _partial_sums(signs):
    """c_0 = 0 and c_m = sigma_1 + .. + sigma_m, and their negatives."""
    c = (0,) + tuple(itertools.accumulate(signs))
    return c, tuple(-x for x in c)


def _powers(level, exps):
    """e^{|level| x} for each integer x, as integer powers of e^{|level|}, so
    that |level| x is never rounded; inf or 0.0 where they overflow."""
    try:
        base = math.exp(abs(level))
        return [base ** x for x in exps]
    except OverflowError:
        with np.errstate(over="ignore", divide="ignore"):
            return (np.exp(abs(level)) ** np.array(exps, dtype=float)).tolist()


def _const_update(J, signs, level, h):
    """J_0 .. J_n carried across a const interval of the given level and
    length: J_m <- sum_{i<=m} J_i e^{level (c_m - c_i)} h^{m-i}/(m-i)!, a
    sum of terms >= 0, taken as e^{level c_m} times the Taylor shift by h
    of the scaled J_i e^{-level c_i}."""
    c, neg = _partial_sums(signs)
    up = _powers(level, c if level >= 0 else neg)
    down = _powers(level, neg if level >= 0 else c)
    coeff = [1.0]
    for k in range(1, len(signs) + 1):
        coeff.append(coeff[-1] * (h / k))
    # an empty J_i stays empty where its scale overflows
    scaled = [j * d if j else 0.0 for j, d in zip(J, down)]
    out = []
    for m, u in enumerate(up):
        acc = 0.0
        for i in range(m + 1):
            acc += scaled[i] * coeff[m - i]
        out.append(u * acc)
    return out


def _smooth_update(pot, J, signs, run):
    """J_0 .. J_n carried across a run of smooth intervals by one cumulative
    pass per letter, on panels of at most one period and at least one per
    V_RANGE_PER_PANEL of the segment's range of V.  The run climbs _ORDERS
    Lobatto points per panel until the last carried value agrees with the
    rung below to BRACKET_TOL."""
    breaks = [run[0][0]]
    for lo, hi, seg in run:
        nsub = max(1, math.ceil((hi - lo) / pot.period),
                   math.ceil(seg.v_range / V_RANGE_PER_PANEL))
        breaks.extend(lo + (hi - lo) * (j + 1) / nsub for j in range(nsub))
    breaks = np.array(breaks)
    prev = None
    for order in _ORDERS:
        mesh = PanelMesh(breaks, order)
        v = pot.V_on_mesh(mesh)
        weights = {s: np.exp(s * v) for s in set(signs)}
        out = list(J)
        cum = out[0]
        for m, s in enumerate(signs, start=1):
            cum = cumulative_integral(cum * weights[s], mesh.half) + out[m]
            out[m] = float(cum[-1, -1])
        val = out[-1]
        # a non-finite value is the caller's to report
        if not math.isfinite(val) or (
                prev is not None and abs(val - prev) <= BRACKET_TOL * max(1.0, abs(val))):
            return out
        prev = val
    raise QuadratureError(f"nested integrals over [{breaks[0]}, {breaks[-1]}] "
                          f"did not converge to {BRACKET_TOL:g}")


def _nested_pass(pot, signs, a, b) -> np.ndarray:
    """End values of the nested integrals J_1 .. J_n of the word `signs` over
    the intervals between the breakpoints of [a, b]: const intervals in
    closed form, each maximal run of smooth ones by `_smooth_update`."""
    J = [1.0] + [0.0] * len(signs)
    run = []
    pts = pot.breakpoints(a, b).tolist()
    for lo, hi in zip(pts[:-1], pts[1:]):
        seg = pot.segment_at(0.5 * (lo + hi))[0]
        if seg.kind != "const":
            run.append((lo, hi, seg))
            continue
        if run:
            J = _smooth_update(pot, J, signs, run)
            run = []
        J = _const_update(J, signs, seg.level, hi - lo)
    if run:
        J = _smooth_update(pot, J, signs, run)
    return np.array(J[1:])


def _walk(pot, signs, a: float, b: float) -> np.ndarray:
    """`_nested_pass` as a read-only array memoised on the potential: the
    values of every prefix of the word over [a, b], zeros if b == a."""
    if not (math.isfinite(a) and a <= b):
        raise ValueError(f"need a finite window a <= b, got [{a}, {b}]")

    def compute():
        J = _nested_pass(pot, signs, a, b) if b > a else np.zeros(len(signs))
        J.flags.writeable = False
        return J

    return pot._cached(("walk", signs, float(a), float(b)), compute)


def bracket(pot, word, a: float, b: float) -> float:
    """Simplex integral of the given word over a <= z_1 <= ... <= z_n <= b."""
    w = SignWord.parse(word)
    val = float(_walk(pot, w.signs, a, b)[-1])
    if not math.isfinite(val):
        raise OverflowError(f"bracket {w} over [{a}, {b}] overflowed to {val!r}")
    return val


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


def alternating_tail_values(pot, a: float, b: float, first_sign: int,
                            count: int) -> np.ndarray:
    """End values of the alternating-word integrals of lengths 1..count.

    Word m starts with first_sign and alternates; these are the building
    blocks of the power-series form of the evolution matrix.
    """
    signs = tuple(first_sign if m % 2 == 0 else -first_sign for m in range(count))
    return _walk(pot, signs, a, b)
