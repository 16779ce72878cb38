"""Outside-in tracer: spans around calls into each layer's public functions.

The package is not modified.  Every module binding of a public function is
replaced by a wrapper, not only the defining module's: green, halfline,
wop and cli import evolve, monodromy, bracket and friends by name, so
patching the defining module alone would miss their calls.  The
`solve_ivp` binding in transfer is wrapped too, to count ODE solves and
right-hand-side evaluations.

Spans (name, parent, start, end, info) are kept in memory and written out
when the run ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter

LAYERS = ("potential", "transfer", "halfline", "green", "iterint", "wop", "cli")
# public names missing from __all__: cli's entry point, and the file loader
# that cli imports
EXTRA_PUBLIC = {"cli": ("run",), "potential": ("load_potential_file",)}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, t0, t1, info]
        self._stack = []
        self.bindings = []  # "module.attr" names that were replaced

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "bloch_green" or name.startswith("bloch_green.")}
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = mods[f"bloch_green.{layer}"]
            names = tuple(getattr(mod, "__all__", ())) + EXTRA_PUBLIC.get(layer, ())
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        transfer = mods["bloch_green.transfer"]
        solve = transfer.solve_ivp
        wrappers[id(solve)] = self._wrap("transfer.ode", solve)
        for mname, mod in sorted(mods.items()):
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and val is not wrappers[id(val)]:
                    setattr(mod, attr, wrappers[id(val)])
                    self.bindings.append(f"{mname}.{attr}")

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        info_of = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if info_of is not None:
                rec[4] = info_of(args, kwargs, out)  # only calls that returned
            return out

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, t0, t1, info in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "t0": t0, "t1": t1,
                                     "info": info}) + "\n")


def _evolve_info(args, kwargs, out):
    pot, x, xprime = args[0], float(args[1]), float(args[2])
    return {"period": abs(abs(x - xprime) - pot.period) <= 1e-12 * pot.period}


def _ode_info(args, kwargs, sol):
    return {"nfev": int(sol.nfev)}


def _bracket_info(args, kwargs, out):
    pot, word, a, b = args[:4]
    return {"key": [pot.fingerprint, str(word), float(a), float(b)]}


_INFO = {"transfer.evolve": _evolve_info, "transfer.ode": _ode_info,
         "iterint.bracket": _bracket_info}


def _median_ms(durations):
    return 1e3 * statistics.median(durations) if durations else 0.0


def layer_metrics(spans, rows, lo=0, hi=None):
    """Per-layer metrics from spans[lo:hi] (the measured pass), per output row.

    Potential loading and cell constants are taken over all spans, because
    the library workloads only pay them in set-up.
    """
    hi = len(spans) if hi is None else hi
    child_time = [0.0] * len(spans)
    children = [[] for _ in spans]
    for i, (_, parent, t0, t1, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += t1 - t0
            children[parent].append(i)
    by_name = {}
    self_s = {}
    for i in range(lo, hi):
        name, _, t0, t1, _ = spans[i]
        by_name.setdefault(name, []).append(i)
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child_time[i])

    def of(name):
        return by_name.get(name, [])

    def per_row(v):
        return v / rows

    def p50_ms(name):
        return _median_ms([spans[i][3] - spans[i][2] for i in of(name)])

    def self_ms(*names):
        return per_row(1e3 * sum(self_s.get(n, 0.0) for n in names))

    def info(i, key):
        return (spans[i][4] or {}).get(key)  # None when the call raised

    def everywhere(name):
        return [s[3] - s[2] for s in spans if s[0] == name]

    branch = of("transfer.branch_Z")
    band_rule = sum(1 for i in branch
                    if sum(spans[c][0] == "transfer.evolve" for c in children[i]) > 1)
    keys = [tuple(info(i, "key")) for i in of("iterint.bracket") if info(i, "key")]
    halfline = [n for n in self_s if n.startswith("halfline.")]
    return {
        "potential.load_ms": _median_ms(everywhere("potential.load_potential_file")
                                        or everywhere("potential.load_potential")),
        "potential.cell_constants_ms": _median_ms(everywhere("potential.cell_constants")),
        "transfer.evolve.calls_per_row": per_row(len(of("transfer.evolve"))),
        "transfer.evolve.period_calls_per_row": per_row(
            sum(1 for i in of("transfer.evolve") if info(i, "period"))),
        "transfer.evolve.self_ms_per_row": self_ms("transfer.evolve"),
        "transfer.monodromy.calls_per_row": per_row(len(of("transfer.monodromy"))),
        "transfer.classify_band.calls_per_row": per_row(len(of("transfer.classify_band"))),
        "transfer.branch_Z.band_rule_share": band_rule / len(branch) if branch else 0.0,
        "transfer.ode.solves_per_row": per_row(len(of("transfer.ode"))),
        "transfer.ode.rhs_evals_per_row": per_row(
            sum(info(i, "nfev") or 0 for i in of("transfer.ode"))),
        "transfer.ode.ms_per_row": per_row(
            1e3 * sum(spans[i][3] - spans[i][2] for i in of("transfer.ode"))),
        "halfline.s_functions.ms_p50": p50_ms("halfline.s_functions"),
        "halfline.m_functions.ms_p50": p50_ms("halfline.m_functions"),
        "halfline.self_ms_per_row": self_ms(*halfline),
        "green.green_exact.ms_p50": p50_ms("green.green_exact"),
        "green.green_exact.self_ms_per_row": self_ms("green.green_exact"),
        "green.green_series.ms_p50": p50_ms("green.green_series"),
        "green.green_series.self_ms_per_row": self_ms("green.green_series"),
        "iterint.bracket.calls_per_row": per_row(len(of("iterint.bracket"))),
        "iterint.bracket.ms_p50": p50_ms("iterint.bracket"),
        "iterint.bracket.self_ms_per_row": self_ms("iterint.bracket"),
        "iterint.bracket.repeat_ratio": 1.0 - len(set(keys)) / len(keys) if keys else 0.0,
        "iterint.bracket.distinct_windows": float(len({(k[0], k[2], k[3]) for k in keys})),
        "iterint.cell_Q.calls_per_row": per_row(len(of("iterint.cell_Q"))),
        "wop.expansion_coeffs.ms_p50": p50_ms("wop.expansion_coeffs"),
        "wop.expansion_coeffs.self_ms_per_row": self_ms("wop.expansion_coeffs"),
        "cli.self_ms_per_row": self_ms("cli.run"),
    }


def work_counts(spans, lo=0, hi=None):
    """Exact call counts per span name, plus ODE right-hand-side evaluations
    and one-period evolve calls, over spans[lo:hi]."""
    counts = Counter()
    for name, _, _, _, info in spans[lo:hi]:
        info = info or {}
        counts[name] += 1
        if name == "transfer.ode":
            counts["transfer.ode.nfev"] += info.get("nfev", 0)
        elif name == "transfer.evolve" and info.get("period"):
            counts["transfer.evolve.period"] += 1
    return dict(sorted(counts.items()))
