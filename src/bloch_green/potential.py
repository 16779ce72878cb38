"""Periodic potential representation and cell constants.

A potential is an ordered list of segments covering one period; evaluation
finds the segment owning a point from the boundary translates p0 + j*L,
the same points the propagators cross.  Jump discontinuities are
first-class: they are stored as segment-boundary events and never smoothed
into ramps.  The drift is f = -V'/2.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PotentialError",
    "ParseError",
    "QuadratureError",
    "PointEval",
    "PeriodicPotential",
    "CellConstants",
    "load_potential",
    "cell_constants",
    "square_potential",
]


class PotentialError(ValueError):
    pass


class ParseError(PotentialError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class QuadratureError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# segments; local coordinate s runs over [0, length)

@dataclass(frozen=True)
class ConstSegment:
    level: float
    length: float
    kind = "const"

    def value(self, s):
        return np.broadcast_to(self.level, np.shape(s)).copy() if np.ndim(s) else self.level

    def slope(self, s):
        return np.zeros(np.shape(s)) if np.ndim(s) else 0.0

    def curvature(self, s):
        return np.zeros(np.shape(s)) if np.ndim(s) else 0.0

    @property
    def knots(self):
        return ()

    @property
    def v_range(self):
        return 0.0


@dataclass(frozen=True)
class LinearSegment:
    v_start: float
    v_end: float
    length: float
    kind = "linear"

    def value(self, s):
        return self.v_start + (self.v_end - self.v_start) * np.asarray(s) / self.length

    def slope(self, s):
        g = (self.v_end - self.v_start) / self.length
        return np.full(np.shape(s), g) if np.ndim(s) else g

    def curvature(self, s):
        return np.zeros(np.shape(s)) if np.ndim(s) else 0.0

    @property
    def knots(self):
        return ()

    @property
    def v_range(self):
        return abs(self.v_end - self.v_start)


@dataclass(frozen=True)
class CosineSegment:
    amp: float
    phase: float
    length: float
    kind = "cosine"

    def _arg(self, s):
        return 2.0 * np.pi * np.asarray(s) / self.length + self.phase

    def value(self, s):
        return self.amp * np.cos(self._arg(s))

    def slope(self, s):
        return -self.amp * (2.0 * np.pi / self.length) * np.sin(self._arg(s))

    def curvature(self, s):
        return -self.amp * (2.0 * np.pi / self.length) ** 2 * np.cos(self._arg(s))

    @property
    def knots(self):
        return ()

    @property
    def v_range(self):
        # the argument sweeps one full turn over the segment
        return 2.0 * abs(self.amp)


def _pchip_coefficients(xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Power-basis coefficients (c0..c3, highest first) of the monotone
    piecewise cubic through (xs, vs), one column per interval, in the local
    coordinate h = s - xs[i] (Fritsch & Carlson, SIAM J. Numer. Anal. 17
    (1980)).  Interior slopes are Fritsch & Butland's weighted harmonic mean
    of the neighbouring secants (SIAM J. Sci. Stat. Comput. 5 (1984)), zero
    where the secants change sign or one is flat; end slopes are the
    shape-preserving three-point rule.  This is the PCHIP of scipy and
    MATLAB."""
    h = np.diff(xs)
    m = np.diff(vs) / h
    d = np.full(vs.shape, m[0])
    if xs.size > 2:
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        ok = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
        d[1:-1] = 0.0
        d[1:-1][ok] = (w1 + w2)[ok] / (w1[ok] / m[:-1][ok] + w2[ok] / m[1:][ok])
        for end, h0, h1, m0, m1 in ((0, h[0], h[1], m[0], m[1]),
                                    (-1, h[-1], h[-2], m[-1], m[-2])):
            slope = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            if np.sign(slope) != np.sign(m0):
                slope = 0.0
            elif np.sign(m0) != np.sign(m1) and abs(slope) > 3.0 * abs(m0):
                slope = 3.0 * m0
            d[end] = slope
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.array([t / h, (m - d[:-1]) / h - t, d[:-1], vs[:-1]])


@dataclass(frozen=True)
class TableSegment:
    """Samples (xs, vs) spanning [0, length], joined by the monotone
    piecewise cubic of `_pchip_coefficients`."""
    xs: tuple
    vs: tuple
    length: float
    kind = "table"
    # interior sample points: floats for bisect on scalars, an array for
    # searchsorted on arrays
    _knots: tuple = field(default=(), compare=False, repr=False)
    _inner: object = field(default=None, compare=False, repr=False)
    # per derivative order d: rows xs[:-1], then the Horner coefficients of
    # the d-th derivative, highest power first; scaled once here, since
    # scaling the gathered value coefficients on each call made `slope`
    # slower than scipy's compiled evaluation
    _tables: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        vs = np.asarray(self.vs, dtype=float)
        if xs.size < 2 or np.any(np.diff(xs) <= 0):
            raise PotentialError("table segment needs strictly increasing sample points")
        tol = 1e-12 * self.length
        if abs(xs[0]) > tol or abs(xs[-1] - self.length) > tol:
            raise PotentialError(f"table samples span [{xs[0]!r}, {xs[-1]!r}], "
                                 f"not the segment [0, {self.length!r}]")
        c0, c1, c2, c3 = _pchip_coefficients(xs, vs)
        x0 = xs[:-1]
        object.__setattr__(self, "_knots", tuple(xs[1:-1].tolist()))
        object.__setattr__(self, "_inner", xs[1:-1].copy())
        object.__setattr__(self, "_tables", (np.array([x0, c0, c1, c2, c3]),
                                             np.array([x0, 3.0 * c0, 2.0 * c1, c2]),
                                             np.array([x0, 6.0 * c0, 2.0 * c1])))

    def _horner(self, s, order):
        """The order-th derivative at s: interval i counts the interior knots
        <= s, so no point falls outside the first and last intervals; one
        gather of column i, then Horner's rule in h = s - xs[i]."""
        table = self._tables[order]
        if not isinstance(s, np.ndarray) or s.ndim == 0:
            if np.ndim(s) == 0:
                # the same operations on Python floats: scalar and array agree
                s = float(s)
                x0, out, *rest = table[:, bisect.bisect_right(self._knots, s)].tolist()
                h = s - x0
                for c in rest:
                    out = out * h + c
                return out
            s = np.asarray(s, dtype=float)
        # the Magnus kernel calls this per segment piece: keep it to a few
        # array operations, in place
        rows = table.take(np.searchsorted(self._inner, s, side="right"), axis=1)
        h = s - rows[0]
        out = rows[1] * h
        for j in range(2, len(rows) - 1):
            out += rows[j]
            out *= h
        out += rows[-1]
        return out

    def value(self, s):
        return self._horner(s, 0)

    def slope(self, s):
        return self._horner(s, 1)

    def curvature(self, s):
        return self._horner(s, 2)

    @property
    def knots(self):
        # the monotone cubic is only C1 at its sample points; quadrature
        # panels must not straddle them
        return self._knots

    @property
    def v_range(self):
        # on [0, length] the monotone cubic does not overshoot its samples
        return max(self.vs) - min(self.vs)


@dataclass(frozen=True)
class PointEval:
    """V, drift f and jump information at a single point."""
    V: float
    f: float
    has_jump: bool = False
    jump: float = 0.0


class PeriodicPotential:
    """Period-L piecewise potential; immutable after construction.  Data
    that depend on it alone are memoised on it and die with it."""

    def __init__(self, period: float, segments, offset: float = 0.0):
        if not (period > 0 and math.isfinite(period)):
            raise PotentialError("period must be positive and finite")
        if not math.isfinite(offset):
            raise PotentialError(f"offset must be finite, got {offset!r}")
        segments = tuple(segments)
        if not segments:
            raise PotentialError("empty segment list")
        for seg in segments:
            for name, value in vars(seg).items():
                if not name.startswith("_") and not np.all(np.isfinite(value)):
                    raise PotentialError(f"non-finite {name} in a {seg.kind} segment")
        total = math.fsum(s.length for s in segments)
        if abs(total - period) > 1e-9 * period:
            raise PotentialError(
                f"segment lengths sum to {total!r}, expected period {period!r}")
        self.period = float(period)
        self.offset = float(offset)
        self.segments = segments
        self.starts = np.concatenate(([0.0], np.cumsum([s.length for s in segments])))[:-1]
        self._origins = (self.offset + self.starts).tolist()  # boundary positions p0
        self._jumps = self._boundary_jumps()
        self._memo = {}
        self._memo_lock = threading.Lock()

    def _cached(self, key, compute):
        """compute(), memoised under key.  The lock guards the dict only:
        compute runs outside it, so it may use the memo itself.  Two threads
        that miss together both compute the same deterministic value, and
        the first one stored is kept."""
        with self._memo_lock:
            if key in self._memo:
                return self._memo[key]
        value = compute()
        with self._memo_lock:
            return self._memo.setdefault(key, value)

    def __getstate__(self):
        with self._memo_lock:
            state = dict(self.__dict__, _memo=dict(self._memo))
        del state["_memo_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._memo_lock = threading.Lock()

    def _boundary_jumps(self):
        # delta at each segment start = right limit - left limit there
        deltas = []
        n = len(self.segments)
        for i in range(n):
            left = self.segments[i - 1]
            right = self.segments[i]
            delta = float(right.value(0.0)) - float(left.value(left.length))
            if abs(delta) < 1e-14 * max(1.0, abs(delta) + abs(float(right.value(0.0)))):
                delta = 0.0
            deltas.append(delta)
        return np.array(deltas)

    @property
    def fingerprint(self) -> str:
        """SHA-1 of the defining data (the segment reprs omit interpolants)."""
        return self._cached("fingerprint", lambda: hashlib.sha1(
            repr((self.period, self.offset, self.segments)).encode()).hexdigest())

    # -- locating points ------------------------------------------------------

    def _last_translate(self, p0: float, x: float) -> int:
        """The j of the last translate p0 + j*L <= x."""
        L = self.period
        j = math.floor((x - p0) / L)  # off by at most one
        return j + (p0 + (j + 1) * L <= x) - (p0 + j * L > x)

    def _locate(self, x: float):
        """(index, start) of the segment owning x: the boundary whose last
        translate p = p0 + j*L <= x is the latest, with p in the arithmetic of
        `_translates`, so a point on a boundary translate sits at the start
        of the segment beginning there."""
        if not math.isfinite(x):
            raise ValueError(f"x must be finite, got {x!r}")
        best_i, best_p = 0, -math.inf
        for i, p0 in enumerate(self._origins):
            p = p0 + self._last_translate(p0, x) * self.period
            if p > best_p:
                best_i, best_p = i, p
        return best_i, best_p

    # -- evaluation ----------------------------------------------------------

    def _per_segment(self, x, fn):
        """fn(segment, local coordinates) evaluated at x, dispatched to the
        owning segment; scalar in, scalar out."""
        if np.ndim(x) == 0:
            i, start = self._locate(float(x))
            return float(fn(self.segments[i], float(x) - start))
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        located = [self._locate(t) for t in flat.tolist()]
        idx = np.array([i for i, _ in located], dtype=int)
        starts = np.array([p for _, p in located])
        out = np.empty(flat.shape, dtype=float)
        for i in np.unique(idx):
            sel = idx == i
            out[sel] = fn(self.segments[i], flat[sel] - starts[sel])
        return out.reshape(x.shape)

    def V(self, x):
        return self._per_segment(x, lambda seg, s: seg.value(s))

    def f(self, x):
        """Drift -V'/2; the classical derivative inside segments."""
        return self._per_segment(x, lambda seg, s: -0.5 * np.asarray(seg.slope(s)))

    def schrodinger_potential(self, x):
        """f^2 + f'; only meaningful away from jump points."""
        def fn(seg, s):
            fv = -0.5 * np.asarray(seg.slope(s))
            fp = -0.5 * np.asarray(seg.curvature(s))
            return fv * fv + fp

        return self._per_segment(x, fn)

    def eval(self, x: float) -> PointEval:
        x = float(x)
        i, start = self._locate(x)
        seg = self.segments[i]
        s = x - start
        v = float(seg.value(s))
        fv = -0.5 * float(seg.slope(s))
        if x == start and self._jumps[i] != 0.0:
            return PointEval(V=v, f=fv, has_jump=True, jump=float(self._jumps[i]))
        return PointEval(V=v, f=fv)

    # -- structure queries ---------------------------------------------------

    def boundaries_in(self, a: float, b: float):
        """Segment boundaries p with a < p <= b, as sorted (position, jump) pairs."""
        if b < a:
            raise ValueError("need a <= b")
        out = [(p, float(delta)) for p0, delta in zip(self._origins, self._jumps)
               for p in self._translates(p0, a, b)]
        out.sort(key=lambda t: t[0])
        return out

    def period_start(self, x: float) -> float:
        """Lower end a of the one-period window (a, x]: the rounded x - L,
        moved by rounding where needed so that the window holds each segment
        boundary once, at its translate p <= x < p + L."""
        L = self.period
        a = x - L
        if not math.isfinite(a):
            return a  # evolve rejects it
        for p0 in self._origins:
            j = self._last_translate(p0, x)
            a = max(a, p0 + (j - 1) * L)  # same arithmetic as _translates
            if p0 + j * L <= a:
                a = math.nextafter(p0 + j * L, -math.inf)
        return a

    def _translates(self, p0: float, a: float, b: float) -> list:
        """The points p0 + j*L with a < p <= b."""
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"window ({a!r}, {b!r}] must be finite")
        j = self._last_translate(p0, a) + 1
        p = p0 + j * self.period
        out = []
        while p <= b:
            out.append(p)
            j += 1
            p = p0 + j * self.period
        return out

    def breakpoints(self, a: float, b: float) -> np.ndarray:
        """Mesh breakpoints for [a, b]: endpoints, interior segment
        boundaries, and interior smoothness knots of table segments.
        Points closer than 1e-13 max(1, L) are merged; a window shorter than
        that keeps its two ends."""
        pts = [a, b]
        pts.extend(p for p, _ in self.boundaries_in(a, b) if a < p < b)
        for p0, seg in zip(self._origins, self.segments):
            for knot in seg.knots:
                pts.extend(p for p in self._translates(p0 + knot, a, b)
                           if p < b)
        pts = sorted(set(pts))
        tol = 1e-13 * max(1.0, self.period)
        kept = pts[:1] + [q for p, q in zip(pts, pts[1:]) if q - p > tol]
        return np.array(kept if len(kept) > 1 else [a, b])

    def segment_at(self, x: float):
        """(segment, absolute start) of the segment owning x."""
        i, start = self._locate(float(x))
        return self.segments[i], start

    def V_on_mesh(self, mesh) -> np.ndarray:
        """V at mesh nodes, one-sided per panel.

        Panels are segment-aligned, so each panel is evaluated from the
        segment owning its interior; a node sitting exactly on a jump takes
        the limit from inside the panel rather than the right limit.
        """
        out = np.empty_like(mesh.nodes)
        for i in range(mesh.npanels):
            seg, seg_start = self.segment_at(mesh.mid[i])
            out[i] = seg.value(mesh.nodes[i] - seg_start)
        return out


def square_potential(height: float, period: float, well_width: float) -> PeriodicPotential:
    """V = 0 on (0, a), height on (a, L); the standard two-level cell."""
    if not 0 < well_width < period:
        raise PotentialError("well width must lie strictly inside the period")
    return PeriodicPotential(period, [
        ConstSegment(0.0, well_width),
        ConstSegment(height, period - well_width),
    ])


# ---------------------------------------------------------------------------
# parsing

_KINDS = {"const", "linear", "cosine", "table"}


def _parse_kv(tokens, lineno):
    kv = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(f"expected key=value, got {tok!r}", lineno)
        key, _, val = tok.partition("=")
        kv[key.strip()] = val.strip()
    return kv


def _get_float(kv, key, lineno):
    if key not in kv:
        raise ParseError(f"missing {key!r}", lineno)
    text = kv.pop(key)
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"bad float for {key!r}: {text!r}", lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value for {key!r}: {text!r}", lineno)
    return value


def load_potential(text: str, base_dir: str = ".") -> PeriodicPotential:
    """Parse the line-oriented potential description.

    Lines (or ';'-separated fields) are `period=<float>`, optionally
    `offset=<float>`, then segment entries `[segment] <kind> key=val ...`
    with kinds const(V,len), linear(V0,V1,len), cosine(amp[,phase],len),
    table(file,len).  `#` starts a comment.
    """
    period = None
    offset = None
    segments = []
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for part in line.split(";"):
            part = part.strip()
            if part:
                entries.append((lineno, part))
    if not entries:
        raise ParseError("empty potential description")
    for lineno, entry in entries:
        tokens = entry.split()
        head = tokens[0]
        if head.startswith("period="):
            if period is not None:
                raise ParseError("duplicate period", lineno)
            period = _get_float(_parse_kv([head], lineno), "period", lineno)
            if period <= 0:
                raise ParseError("non-positive period", lineno)
            continue
        if head.startswith("offset="):
            if period is None:
                raise ParseError("period must be the first entry", lineno)
            if offset is not None:
                raise ParseError("duplicate offset", lineno)
            offset = _get_float(_parse_kv([head], lineno), "offset", lineno)
            continue
        if period is None:
            raise ParseError("period must come before segments", lineno)
        if head == "segment":
            tokens = tokens[1:]
            if not tokens:
                raise ParseError("segment kind missing", lineno)
            head = tokens[0]
        if head not in _KINDS:
            raise ParseError(f"unknown segment kind {head!r}", lineno)
        kv = _parse_kv(tokens[1:], lineno)
        if head == "const":
            level = _get_float(kv, "V", lineno)
            length = _get_float(kv, "len", lineno)
            seg = ConstSegment(level, length)
        elif head == "linear":
            v0 = _get_float(kv, "V0", lineno)
            v1 = _get_float(kv, "V1", lineno)
            length = _get_float(kv, "len", lineno)
            seg = LinearSegment(v0, v1, length)
        elif head == "cosine":
            amp = _get_float(kv, "amp", lineno)
            phase = _get_float(kv, "phase", lineno) if "phase" in kv else 0.0
            length = _get_float(kv, "len", lineno)
            seg = CosineSegment(amp, phase, length)
        else:  # table
            if "file" not in kv:
                raise ParseError("table segment needs file=<csv path>", lineno)
            path = kv.pop("file")
            length = _get_float(kv, "len", lineno)
            full = path if os.path.isabs(path) else os.path.join(base_dir, path)
            try:
                data = np.loadtxt(full, delimiter=",", ndmin=2)
            except (OSError, ValueError) as exc:
                raise ParseError(f"cannot read table file {path!r}: {exc}", lineno) from None
            if data.shape[1] != 2:
                raise ParseError(f"table file {path!r} needs two columns (x, V)", lineno)
            if not np.all(np.isfinite(data)):
                raise ParseError(f"non-finite entry in table file {path!r}", lineno)
            try:
                seg = TableSegment(tuple(data[:, 0]), tuple(data[:, 1]), length)
            except PotentialError as exc:
                raise ParseError(f"table file {path!r}: {exc}", lineno) from None
        if kv:
            raise ParseError(f"unexpected keys {sorted(kv)}", lineno)
        if length <= 0:
            raise ParseError("segment length must be positive", lineno)
        segments.append(seg)
    if period is None:
        raise ParseError("missing period")
    if not segments:
        raise ParseError("no segments given")
    try:
        return PeriodicPotential(period, segments,
                                 offset=0.0 if offset is None else offset)
    except PotentialError as exc:
        raise ParseError(str(exc)) from None


def load_potential_file(path: str) -> PeriodicPotential:
    with open(path, "r", encoding="utf-8") as fh:
        return load_potential(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# cell constants

@dataclass(frozen=True)
class CellConstants:
    """One-cell integrals of e^{-V} (M) and e^{V} (P), with L0 = sqrt(PM)
    and the effective level V0 = log(P/M)/2."""
    M: float
    P: float
    L0: float
    V0: float


def cell_constants(pot: PeriodicPotential) -> CellConstants:
    """Cell constants from the one-letter brackets [-] and [+] over the cell
    window [offset, offset + L], memoised on the potential."""
    from .iterint import bracket  # iterint imports this module

    def compute():
        a = pot.offset
        M = bracket(pot, "-", a, a + pot.period)
        P = bracket(pot, "+", a, a + pot.period)
        # the logs apart: P/M overflows on strong cells
        return CellConstants(M=M, P=P, L0=math.sqrt(P * M),
                             V0=0.5 * (math.log(P) - math.log(M)))

    return pot._cached("cell_constants", compute)
