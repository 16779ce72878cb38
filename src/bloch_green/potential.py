"""Periodic potential representation and cell constants.

A potential is an ordered list of segments covering one period; evaluation
reduces the coordinate to the fundamental cell.  Jump discontinuities are
first-class: they are stored as segment-boundary events and never smoothed
into ramps.  The drift is f = -V'/2.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from ._spectral import PanelFunction, PanelMesh

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


@dataclass(frozen=True)
class TableSegment:
    xs: tuple
    vs: tuple
    length: float
    kind = "table"
    _interp: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        from scipy.interpolate import PchipInterpolator

        xs = np.asarray(self.xs, dtype=float)
        vs = np.asarray(self.vs, dtype=float)
        if xs.size < 2 or np.any(np.diff(xs) <= 0):
            raise PotentialError("table segment needs strictly increasing sample points")
        object.__setattr__(self, "_interp", PchipInterpolator(xs, vs))

    def value(self, s):
        return self._interp(np.asarray(s))

    def slope(self, s):
        return self._interp.derivative()(np.asarray(s))

    def curvature(self, s):
        return self._interp.derivative(2)(np.asarray(s))

    @property
    def knots(self):
        # the monotone cubic is only C1 at its sample points; quadrature
        # panels must not straddle them
        return tuple(float(t) for t in self.xs[1:-1])


@dataclass(frozen=True)
class PointEval:
    """V, drift f and jump information at a single point."""
    V: float
    f: float
    has_jump: bool = False
    jump: float = 0.0


class PeriodicPotential:
    """Period-L piecewise potential; immutable after construction."""

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
        self._jumps = self._boundary_jumps()
        self._fingerprint = None

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
        if self._fingerprint is None:
            text = repr((self.period, self.offset,
                         tuple((s.kind, tuple(sorted(s.__dict__.items()))
                                if not isinstance(s, TableSegment)
                                else (s.xs, s.vs, s.length))
                               for s in self.segments)))
            self._fingerprint = hashlib.sha1(text.encode()).hexdigest()
        return self._fingerprint

    # -- coordinate reduction ------------------------------------------------

    def _reduce(self, x: float) -> float:
        xi = math.fmod(x - self.offset, self.period)
        if xi < 0.0:
            xi += self.period
        return xi

    def _locate(self, xi: float) -> int:
        idx = int(np.searchsorted(self.starts, xi, side="right")) - 1
        return min(max(idx, 0), len(self.segments) - 1)

    # -- evaluation ----------------------------------------------------------

    def _per_segment(self, x, fn):
        """fn(segment, local coordinates) evaluated at x, reduced to the cell
        and dispatched to the owning segment; scalar in, scalar out."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xi = np.fmod(x - self.offset, self.period)
        xi = np.where(xi < 0.0, xi + self.period, xi)
        idx = np.clip(np.searchsorted(self.starts, np.atleast_1d(xi), side="right") - 1,
                      0, len(self.segments) - 1)
        out = np.empty(idx.shape, dtype=float)
        flat_xi = np.atleast_1d(xi)
        for i in np.unique(idx):
            sel = idx == i
            out[sel] = fn(self.segments[i], flat_xi[sel] - self.starts[i])
        return float(out[0]) if scalar else out.reshape(np.shape(x))

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
        xi = self._reduce(x)
        i = self._locate(xi)
        s = xi - self.starts[i]
        v = float(self.segments[i].value(s))
        fv = -0.5 * float(self.segments[i].slope(s))
        if xi == self.starts[i] and self._jumps[i] != 0.0:
            return PointEval(V=v, f=fv, has_jump=True, jump=float(self._jumps[i]))
        return PointEval(V=v, f=fv)

    # -- structure queries ---------------------------------------------------

    def boundaries_in(self, a: float, b: float):
        """Segment boundaries p with a < p <= b, as sorted (position, jump) pairs."""
        if b < a:
            raise ValueError("need a <= b")
        out = [(p, float(delta)) for start, delta in zip(self.starts, self._jumps)
               for p in self._translates(self.offset + start, a, b)]
        out.sort(key=lambda t: t[0])
        return out

    def _translates(self, p0: float, a: float, b: float) -> list:
        """The points p0 + j*L with a < p <= b."""
        j = math.ceil((a - p0) / self.period)
        p = p0 + j * self.period
        while p <= a:  # enforce strict a < p against rounding
            j += 1
            p = p0 + j * self.period
        out = []
        while p <= b:
            out.append(p)
            j += 1
            p = p0 + j * self.period
        return out

    def breakpoints(self, a: float, b: float) -> np.ndarray:
        """Mesh breakpoints for [a, b]: endpoints, interior segment
        boundaries, and interior smoothness knots of table segments."""
        pts = [a, b]
        pts.extend(p for p, _ in self.boundaries_in(a, b) if a < p < b)
        for start, seg in zip(self.starts, self.segments):
            for knot in seg.knots:
                pts.extend(p for p in self._translates(self.offset + start + knot, a, b)
                           if p < b)
        pts = np.array(sorted(set(pts)))
        keep = np.concatenate(([True], np.diff(pts) > 1e-13 * max(1.0, self.period)))
        return pts[keep]

    def mesh(self, a: float, b: float, order: int, max_panel: float | None = None) -> PanelMesh:
        breaks = self.breakpoints(a, b)
        if max_panel is not None:
            refined = [breaks[0]]
            for lo, hi in zip(breaks[:-1], breaks[1:]):
                nsub = max(1, int(math.ceil((hi - lo) / max_panel)))
                refined.extend(lo + (hi - lo) * (j + 1) / nsub for j in range(nsub))
            breaks = np.array(refined)
        return PanelMesh(breaks, order)

    def segment_at(self, x: float):
        xi = self._reduce(x)
        i = self._locate(xi)
        return self.segments[i], self.offset + self.starts[i] + (x - self.offset - xi)

    def V_on_mesh(self, mesh, derivative: int = 0) -> np.ndarray:
        """V (or its derivative) at mesh nodes, one-sided per panel.

        Panels are segment-aligned, so each panel is evaluated from the
        segment owning its interior; a node sitting exactly on a jump takes
        the limit from inside the panel rather than the right limit.
        """
        out = np.empty_like(mesh.nodes)
        which = {0: "value", 1: "slope", 2: "curvature"}[derivative]
        for i in range(mesh.npanels):
            seg, seg_start = self.segment_at(mesh.mid[i])
            out[i] = getattr(seg, which)(mesh.nodes[i] - seg_start)
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
            seg = TableSegment(tuple(data[:, 0]), tuple(data[:, 1]), length)
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


def _cell_integral(pot: PeriodicPotential, weight_sign: int, x_top: float, tol: float) -> float:
    """integral of e^{sign*V} over [x_top - L, x_top] with order refinement."""
    a = x_top - pot.period
    prev = None
    for order in (16, 24, 36, 54):
        mesh = pot.mesh(a, x_top, order, max_panel=pot.period / 2)
        val = float(PanelFunction(mesh, np.exp(weight_sign * pot.V_on_mesh(mesh))).integral())
        if prev is not None and abs(val - prev) <= tol:
            return val
        prev = val
    raise QuadratureError(
        f"cell integral did not converge to {tol:g} (last delta {abs(val - prev):g})")


def cell_constants(pot: PeriodicPotential, tol: float = 1e-12,
                   x_top: float | None = None) -> CellConstants:
    """Cell constants to absolute quadrature tolerance tol; window start is
    immaterial and may be overridden for invariance checks."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if x_top is None:
        x_top = pot.offset + pot.period
    M = _cell_integral(pot, -1, x_top, tol)
    P = _cell_integral(pot, +1, x_top, tol)
    L0 = math.sqrt(P * M)
    V0 = 0.5 * math.log(P / M)
    return CellConstants(M=M, P=P, L0=L0, V0=V0)
