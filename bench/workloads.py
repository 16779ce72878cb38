"""Seeded inputs for the four workloads.

Every input is a pure function of (workload, seed, child, unit index), so
children can draw units lazily for as long as their time slice lasts.  The
unit dicts travel with the results, so the checker needs nothing else.
Unit 0 of child 1 repeats unit 0 of child 0, so that two processes run
one configuration and their outputs can be compared byte for byte.

A unit is the smallest piece of work that yields one latency sample:
  * kgrid-*: `bands` then `green` on the same KGRID_N-point k grid (two
    cli.run calls),
  * lowk-square: one `expand` over EXPAND_N x points, on its own offset copy
    of the square cell,
  * field-mixed: one (x, y) pair, swept over the fixed k values; each k is
    one row of three calls (green_exact, s_functions, m_functions) and
    yields one sample, the mean time per call of its row.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from reference import SquareCell

WORKLOADS = ("kgrid-cosine", "kgrid-square", "lowk-square", "field-mixed")

COSINE = {"period": 2.0, "segments": [{"kind": "cosine", "amp": 0.3, "phase": 0.0, "len": 2.0}]}
SQUARE = {"period": 1.0, "segments": [{"kind": "const", "V": 0.0, "len": 0.6},
                                      {"kind": "const", "V": 1.0, "len": 0.4}]}
SQUARE_CELL = SquareCell(C=1.0, L=1.0, a=0.6)

# Band edges of the cosine cell below k = 6, from the (psi, chi) shooting
# reference in reference.py (brentq on Y^2 - 1): two gaps, plus the point
# near pi where the second gap almost closes (Y^2 - 1 = -4e-10), which is
# as ill-conditioned as an edge.
COSINE_GAPS = ((1.344330103484, 1.814909106705), (4.725298741727, 4.725958403759))
COSINE_EDGES = tuple(e for gap in COSINE_GAPS for e in gap) + (math.pi,)

# k grids stay this far from a band edge: at an edge the boundary value of
# G degenerates (the documented ill-conditioned case), which is not what
# these workloads measure.
EDGE_MARGIN = 1e-4

# Grid sizes.  The CLI's users sweep 600 k points and 64 x points per run.
# An expand unit is the full 64 points.  A k grid of 600 cosine points
# would take a minute, so a unit has 40, on both cells: a kernel batched
# over the k grid, or a table built once per potential, then still shares
# its fixed cost among 40 or more rows.
KGRID_N = 40
EXPAND_N = 64
# kmin is drawn per unit and kmax = 2 KMID - kmin, so grid points land
# anywhere in [0.05, 5.95] and each grid crosses several bands and gaps,
# while the mean k, which sets the ODE step count, is the same for every
# grid
KMIN = (0.05, 1.6)
KMID = 3.0

# field-mixed: fixed k values, two real (well inside a band and a gap for
# every seeded table) and one in the upper half plane.  A band row costs
# about 1.6 times the others (the band limit rule adds two solves), so a
# third of the samples sit in a slower mode: p50 falls inside the fast mode
# and the tail inside the slow one, never on the boundary between them.
FIELD_KS = (1.0, 3.1, complex(0.8, 0.3))
FIELD_MAX_PERIODS = 4.0


def mixed_cell(seed: int) -> dict:
    """Jumpy four-segment cell whose table segment is drawn from the seed.

    The seeded part of the table is small (+-0.01), so the ODE work, which
    follows the table's kinks, changes by under 2% from seed to seed."""
    rng = np.random.default_rng([seed, 7])
    xs = np.linspace(0.0, 0.4, 4)
    vs = 0.05 + 0.1 * np.sin(3.0 * xs) + rng.uniform(-0.01, 0.01, xs.size)
    return {"period": 2.0, "segments": [
        {"kind": "const", "V": 0.4, "len": 0.5},
        {"kind": "cosine", "amp": 0.3, "phase": 0.7, "len": 0.6},
        {"kind": "linear", "V0": -0.2, "V1": 0.5, "len": 0.5},
        {"kind": "table", "xs": [float(v) for v in xs], "vs": [float(v) for v in vs],
         "len": 0.4, "file": "table.csv"},
    ]}


def render(cell: dict, offset: float = 0.0) -> str:
    """Potential-file text for a cell dict (floats written exactly)."""
    lines = [f"period={cell['period']!r}"]
    if offset:
        lines.append(f"offset={offset!r}")
    for seg in cell["segments"]:
        kind = seg["kind"]
        if kind == "const":
            lines.append(f"const V={seg['V']!r} len={seg['len']!r}")
        elif kind == "linear":
            lines.append(f"linear V0={seg['V0']!r} V1={seg['V1']!r} len={seg['len']!r}")
        elif kind == "cosine":
            lines.append(f"cosine amp={seg['amp']!r} phase={seg['phase']!r} len={seg['len']!r}")
        else:
            lines.append(f"table file={seg['file']} len={seg['len']!r}")
    return "\n".join(lines) + "\n"


def write_cell(cell: dict, path: str, offset: float = 0.0) -> str:
    """Write the potential file (and any table CSV beside it); returns path."""
    for seg in cell["segments"]:
        if seg["kind"] == "table":
            table = os.path.join(os.path.dirname(path), seg["file"])
            with open(table, "w", encoding="utf-8") as fh:
                fh.writelines(f"{x!r},{v!r}\n" for x, v in zip(seg["xs"], seg["vs"]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(cell, offset))
    return path


def cell_for(workload: str, seed: int) -> dict:
    if workload == "kgrid-cosine":
        return COSINE
    if workload == "field-mixed":
        return mixed_cell(seed)
    return SQUARE


def _square_edges(kmax=6.5):
    from scipy.optimize import brentq

    g = lambda k: SQUARE_CELL.half_trace(k) ** 2 - 1.0  # noqa: E731
    ks = np.linspace(1e-3, kmax, 20001)
    vals = g(ks)
    return tuple(brentq(g, ks[i], ks[i + 1], xtol=1e-14)
                 for i in np.nonzero(vals[:-1] * vals[1:] < 0)[0])


@functools.cache
def band_edges(workload: str):
    return COSINE_EDGES if workload == "kgrid-cosine" else _square_edges()


def k_class(workload: str, k: float) -> str:
    """band, gap or edge (within EDGE_MARGIN of an edge), independently of
    the program."""
    if np.abs(np.asarray(band_edges(workload)) - k).min() < EDGE_MARGIN:
        return "edge"
    if workload == "kgrid-cosine":
        return "gap" if any(lo < k < hi for lo, hi in COSINE_GAPS) else "band"
    return "gap" if SQUARE_CELL.half_trace(k) ** 2 > 1.0 else "band"


# The input that sets most of a unit's cost (where its k grid starts, the y
# of an expand run, the span of an (x, y) pair) is drawn stratified, so that
# seeds move the inputs, not the cost.  Child 0 takes the strata in
# STRATUM_ORDER, whose every prefix spreads over the range, and child 1
# mirrors it (stratum s becomes STRATA - 1 - s).  The two workers then cover
# the range evenly however many units each finishes: a k sweep or an expand
# run finishes only 2-4 units per worker, and the y of an expand run alone
# moves its cost by half.
STRATA = 8
STRATUM_ORDER = (3, 5, 1, 6, 2, 4, 0, 7)


def _stratified(rng, lo, hi, stratum):
    return lo + (hi - lo) * (stratum + float(rng.uniform())) / STRATA


def _k_grid(workload, rng, stratum):
    n = KGRID_N
    kmin = _stratified(rng, *KMIN, stratum)
    kmax = 2.0 * KMID - kmin
    edges = np.asarray(band_edges(workload))
    # shift the whole grid up until every point clears the edges
    while np.abs(np.linspace(kmin, kmax, n)[:, None] - edges[None, :]).min() < EDGE_MARGIN:
        kmin += 2.1 * EDGE_MARGIN
        kmax += 2.1 * EDGE_MARGIN
    return kmin, kmax, n


def unit(job: dict, index: int) -> dict:
    """Unit `index` of the job's child.  Potential files go to the job's
    workdir (their path is echoed in the CSV header, so a repeated unit
    reuses it), outputs to its outdir."""
    workload, seed, child = job["workload"], job["seed"], job["child"]
    drawn = 0 if (child, index) == (1, 0) else child
    rng = np.random.default_rng([seed, drawn, index])
    stratum = STRATUM_ORDER[index % STRATA]
    if drawn == 1:
        stratum = STRATA - 1 - stratum
    workdir, outdir, cell_path = job["workdir"], job["outdir"], job["cell_path"]
    tag = f"c{drawn}u{index}"
    if workload.startswith("kgrid"):
        kmin, kmax, n = _k_grid(workload, rng, stratum)
        if workload == "kgrid-square":
            # inside the well, where the two-level closed form applies
            y = float(rng.uniform(0.02, 0.3))
            x = float(rng.uniform(y, 0.58))
        else:
            y = float(rng.uniform(0.0, COSINE["period"]))
            x = y + float(rng.uniform(0.0, COSINE["period"]))
        runs = [{"command": cmd, "potential_path": cell_path, "k_min": kmin, "k_max": kmax,
                 "k_count": n, "x": x, "y": y,
                 "out": os.path.join(outdir, f"{tag}-{cmd}.csv")}
                for cmd in ("bands", "green")]
        return {"kind": "cli", "tag": tag, "runs": runs}
    if workload == "lowk-square":
        # a fresh offset gives a fresh potential fingerprint, so each unit
        # starts from a cold bracket cache, as one CLI process would
        offset = float(rng.uniform(0.02, 0.98))
        y = offset + _stratified(rng, 0.05, 0.55, stratum)
        path = write_cell(SQUARE, os.path.join(workdir, f"{tag}.pot"), offset)
        return {"kind": "cli", "tag": tag, "offset": offset, "runs": [
            {"command": "expand", "potential_path": path, "k_count": EXPAND_N, "y": y,
             "out": os.path.join(outdir, f"{tag}-expand.csv")}]}
    period = cell_for(workload, seed)["period"]
    y = float(rng.uniform(0.0, period))
    x = y + _stratified(rng, 0.0, FIELD_MAX_PERIODS * period, stratum)
    rows = []
    for k in FIELD_KS:
        k = [complex(k).real, complex(k).imag]
        rows.append([{"fn": "green_exact", "args": [x, y], "k": k},
                     {"fn": "s_functions", "args": [x], "k": k},
                     {"fn": "m_functions", "args": [y], "k": k}])
    return {"kind": "lib", "tag": tag, "x": x, "y": y, "rows": rows}
