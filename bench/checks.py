"""Correctness checks on the children's outputs, run after the timed region.

Each output row (CLI) or call (library) is checked; a row fails if its
command failed, if it holds a non-finite value, or if any check on it is
outside tolerance.  Failing rows are counted, never dropped.  The tolerance
of every check is fixed here, next to the check.
"""

from __future__ import annotations

import math

import numpy as np

import workloads
from reference import RefCell

TOL = {
    "bands.Y_closed_form": 1e-10,    # |Y - Y_closed|, square cell, every row
    "bands.Y_shooting": 1e-9,        # |Y - Y_ref|, smooth cell, subsample
    "bands.Z_squared": 1e-9,         # |Z^2 - (1 - Y^2)|, every row
    "bands.Z_branch": 1e-2,          # |Z - Z_ref| / |Z + Z_ref|, see _branch
    "band_flag": 0.0,                # flag column equals workloads.k_class
    "green.G_oracle": 1e-8,          # relative, square_well_oracle, every row
    "green.G_shooting": 1e-6,        # relative, smooth and mixed cells, subsample
    "green.G_F": 1e-12,              # relative, G_F = exp(-(V(x)-V(y))/2) G_S
    "expand.a0": 1e-11,              # relative, -exp(V(x) - V0)/2 and s = 2a
    "expand.g_m1": 1e-11,            # relative, exp(V0 - (V(x)+V(y))/2)/2
    "expand.g_series": 1e-9,         # absolute, contour Taylor of the closed form
    "halfline.S_shooting": 1e-6,     # chordal (see _chordal), subsample
    "halfline.m_shooting": 1e-6,     # chordal (see _chordal), subsample
    "determinism": 0.0,              # a unit run by two processes: identical output
}
SUBSAMPLE = 12  # rows per check kind that get the (slow) shooting reference


class Report:
    def __init__(self):
        self.attempted = 0
        self.failed = set()
        self.worst = {}  # check -> (largest residual, rows checked)
        self.notes = []

    def row(self, key):
        self.attempted += 1
        return key

    def fail(self, key, why):
        if key not in self.failed and len(self.notes) < 10:
            self.notes.append(f"{key}: {why}")
        self.failed.add(key)

    def check(self, key, name, residual):
        worst, n = self.worst.get(name, (0.0, 0))
        residual = float(residual)
        ok = math.isfinite(residual) and residual <= TOL[name]
        self.worst[name] = (max(worst, residual) if math.isfinite(residual) else math.inf, n + 1)
        if not ok:
            self.fail(key, f"{name} residual {residual:.3e} > tol {TOL[name]:g}")

    @property
    def err_over_tol(self):
        ratios = [w / TOL[n] for n, (w, _) in self.worst.items() if TOL[n] > 0]
        return max(ratios, default=0.0)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _chordal(a, b):
    """Chordal distance on the Riemann sphere.  S and m are meromorphic in
    the position: near a zero of the decaying solution they pass through a
    pole, where any relative error is amplified by |m|.  The chordal
    distance is the conditioning-free comparison there and equals half the
    absolute difference for values of order one."""
    return abs(a - b) / (math.sqrt(1.0 + abs(a) ** 2) * math.sqrt(1.0 + abs(b) ** 2))


def _branch(z, ref):
    """Distance of Z to the reference branch over its distance to the other
    branch: about 1e-3 or less when the branch is right (the reference is
    read a little above the real axis), above 1 when it is wrong."""
    return abs(z - ref) / max(abs(z + ref), 1e-300)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def check_run(workload, seed, results, pkg, rng):
    """Check every unit of every child; returns a Report."""
    rep = Report()
    cell = workloads.cell_for(workload, seed)
    ref = RefCell(cell["period"], cell["segments"])
    sq = workloads.SQUARE_CELL
    params = pkg.SquareWellParams(C=sq.C, L=sq.L, a=sq.a)

    def oracle(x, y, k):
        # the package's closed form, which shares no code with propagation
        return pkg.square_well_oracle(params, max(x, y), min(x, y), k)

    rows = []  # (key, kind, payload) for rows that passed the cheap checks
    for c, res in enumerate(results):
        for u, unit in enumerate(res["units"]):
            if unit["kind"] == "cli":
                for run in unit["runs"]:
                    rows += _cli_rows(rep, workload, (c, u, run["command"]), run, unit,
                                      ref, sq, oracle)
            else:
                for i, call in enumerate(call for row in unit["rows"] for call in row):
                    key = rep.row((c, u, i))
                    if "error" in call:
                        rep.fail(key, call["error"])
                    elif not np.all(np.isfinite(call["out"])):
                        rep.fail(key, "non-finite output")
                    else:
                        rows.append((key, call["fn"], call))
    # the slow shooting reference runs on a seeded subsample per row kind
    if workload in ("kgrid-cosine", "field-mixed"):
        by_kind = {}
        for row in rows:
            by_kind.setdefault(row[1], []).append(row)
        for kind, group in sorted(by_kind.items()):
            pick = rng.choice(len(group), size=min(SUBSAMPLE, len(group)), replace=False)
            for j in sorted(pick):
                _shooting_check(rep, ref, *group[j])
    _determinism(rep, results)
    return rep


def _cli_rows(rep, workload, key0, run, unit, ref, sq, oracle):
    n = run["rows"]
    keys = [rep.row(key0 + (i,)) for i in range(n)]
    if run["rc"] != 0:
        for key in keys:
            rep.fail(key, f"command exit {run['rc']}")
        return []
    table = read_csv(run["out"])
    if len(table) != n:
        for key in keys:
            rep.fail(key, f"{len(table)} rows written, {n} expected")
        return []
    out = []
    for key, fields in zip(keys, table):
        cmd = run["command"]
        try:
            vals = [float(v) for v in fields if v not in ("band", "gap", "edge")]
        except ValueError:
            rep.fail(key, f"unparsable row {fields}")
            continue
        if not all(math.isfinite(v) for v in vals):
            rep.fail(key, "non-finite value")
            continue
        if cmd in ("bands", "green"):
            # the grids keep EDGE_MARGIN away from band edges, so the
            # program's band/gap decision is unambiguous on every row
            flag = fields[2] if cmd == "bands" else fields[-1]
            want = workloads.k_class(workload, vals[0])
            rep.check(key, "band_flag", 0.0 if flag == want else 1.0)
        if cmd == "bands":
            k, Y, Z = vals[0], vals[1], complex(vals[2], vals[3])
            rep.check(key, "bands.Z_squared", abs(Z ** 2 - (1.0 - Y * Y)))
            if workload == "kgrid-square":
                rep.check(key, "bands.Y_closed_form", abs(Y - sq.half_trace(k).real))
                rep.check(key, "bands.Z_branch", _branch(Z, sq.branch_Z(k)))
            else:
                out.append((key, "bands", {"k": k, "Y": Y, "Z": Z}))
        elif cmd == "green":
            k, gs, gf = vals[0], complex(vals[1], vals[2]), complex(vals[3], vals[4])
            x, y = run["x"], run["y"]
            rep.check(key, "green.G_F", _rel(gf, math.exp(-0.5 * (ref.V(x) - ref.V(y))) * gs))
            if workload == "kgrid-square":
                rep.check(key, "green.G_oracle", _rel(gs, oracle(x, y, k)))
            else:
                out.append((key, "green", {"k": k, "x": x, "y": y, "G_S": gs}))
        else:  # expand
            _expand_checks(rep, key, vals, run, unit, ref, sq)
    return out


def _expand_checks(rep, key, vals, run, unit, ref, sq):
    """ref is the square cell at offset 0, so it takes cell coordinates."""
    x, a0, a1, a2, s0, s2, g_m1, g0, g1, g2 = vals
    xr = (x - unit["offset"]) % sq.L
    yr = (run["y"] - unit["offset"]) % sq.L
    rep.check(key, "expand.a0", max(_rel(a0, -0.5 * math.exp(ref.V(xr) - sq.V0)),
                                    _rel(s0, 2.0 * a0), _rel(s2, 2.0 * a2)))
    rep.check(key, "expand.g_m1",
              _rel(g_m1, 0.5 * math.exp(sq.V0 - 0.5 * (ref.V(xr) + ref.V(yr)))))
    hi, lo = max(xr, yr), min(xr, yr)
    if 0.0 < lo and hi < sq.a:
        want = sq.series(hi, lo)
        rep.check(key, "expand.g_series", float(np.abs(np.array([g_m1, g0, g1, g2]) - want).max()))


def _shooting_check(rep, ref, key, kind, row):
    if kind == "bands":
        rep.check(key, "bands.Y_shooting", abs(row["Y"] - ref.half_trace(row["k"]).real))
        rep.check(key, "bands.Z_branch", _branch(row["Z"], ref.branch_Z(row["k"])))
        return
    if kind == "green":
        rep.check(key, "green.G_shooting", _rel(row["G_S"], ref.green(row["x"], row["y"], row["k"])))
        return
    k = complex(*row["k"])
    got = [complex(*v) for v in row["out"]]
    if kind == "green_exact":
        x, y = row["args"]
        g = ref.green(x, y, k)
        gf = math.exp(-0.5 * (ref.V(max(x, y)) - ref.V(min(x, y)))) * g
        rep.check(key, "green.G_shooting", max(_rel(got[0], g), _rel(got[1], gf)))
    elif kind == "s_functions":
        want = ref.s_functions(row["args"][0], k)
        rep.check(key, "halfline.S_shooting", max(_chordal(a, b) for a, b in zip(got, want)))
    else:
        want = ref.m_functions(row["args"][0], k)
        rep.check(key, "halfline.m_shooting", max(_chordal(a, b) for a, b in zip(got, want)))


def _determinism(rep, results):
    """Units drawn alike (same tag) in different processes must give
    byte-identical CSVs and bit-identical library results.  Each comparison
    of one command, or of one library call, counts as one row."""
    first = {}
    pairs = 0
    for c, res in enumerate(results):
        for unit in res["units"]:
            if unit["tag"] not in first:
                first[unit["tag"]] = (c, unit)
                continue
            c0, base = first[unit["tag"]]
            if unit["kind"] == "cli":
                for run, run0 in zip(unit["runs"], base["runs"]):
                    key = rep.row((c, unit["tag"], run["command"], f"same as child {c0}"))
                    if run["rc"] != 0 or run0["rc"] != 0:
                        rep.fail(key, "nothing to compare: a command failed")
                        continue
                    with open(run["out"], "rb") as a, open(run0["out"], "rb") as b:
                        same = a.read() == b.read()
                    rep.check(key, "determinism", 0.0 if same else 1.0)
                    pairs += 1
            else:
                calls0 = [call for row in base["rows"] for call in row]
                calls = [call for row in unit["rows"] for call in row]
                for i, (call, call0) in enumerate(zip(calls, calls0)):
                    key = rep.row((c, unit["tag"], i, f"same as child {c0}"))
                    if "out" not in call or "out" not in call0:
                        rep.fail(key, "nothing to compare: a call failed")
                        continue
                    rep.check(key, "determinism", 0.0 if call["out"] == call0["out"] else 1.0)
                    pairs += 1
    if not pairs:
        rep.fail(rep.row(("determinism",)), "no unit ran twice, nothing was compared")
