"""One measured process: set up, then run units in a closed loop.

Usage (started by run.py, one child at a time):
    python3 child.py JOB.json RESULT.json LAUNCHED

The job names the workload, seed, child index and time slice; LAUNCHED is
the CLOCK_MONOTONIC time at which run.py started this process, so set-up time
covers interpreter start, imports, loading the potential and computing
its cell constants.  Units run back to back, each waiting for the previous
one, until the slice is used up (or, for a trace pass, a fixed count); a
set-up-only child stops after set-up.
A unit of a k sweep or an expand run takes seconds, so the next one starts
only if it is expected to end at most half a unit after the slice does:
the measured time then averages to the slice.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(job_path, result_path, launched):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    import bloch_green
    import bloch_green.cli

    if not os.path.abspath(bloch_green.__file__).startswith(job["src"] + os.sep):
        raise SystemExit(f"bloch_green imported from {bloch_green.__file__}, not {job['src']}")
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    pot = bloch_green.load_potential_file(job["cell_path"])
    bloch_green.cell_constants(pot)
    setup_s = _now() - launched

    import workloads

    pass_lo = len(tracer.spans) if tracer else 0
    os.makedirs(job["outdir"], exist_ok=True)
    units = []
    start = _now()
    last = 0.0
    while not job["setup_only"] and ((len(units) < job["units"]) if job["units"] else (
            not units or _now() - start + 0.5 * last < job["slice"])):
        spec = workloads.unit(job, len(units))
        t0 = _now()
        if spec["kind"] == "cli":
            _run_cli(bloch_green.cli, spec)
        else:
            # a library unit has several rows, so the slice is also checked per row
            _run_lib(bloch_green, pot, spec, None if job["units"] else start + job["slice"])
        last = _now() - t0
        units.append(spec)
    busy = _now() - start

    result = {"setup_s": setup_s, "busy_s": busy, "units": units,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        pass_hi = len(tracer.spans)
        rows = sum(_rows(u) for u in units)
        result["layers"] = tracing.layer_metrics(tracer.spans, rows, pass_lo, pass_hi)
        result["pass_counts"] = tracing.work_counts(tracer.spans, pass_lo, pass_hi)
        if job["probes"]:
            result["probes"] = _probes(bloch_green, tracer, job)
        result["bindings"] = tracer.bindings
        tracer.dump(os.path.join(job["outdir"], "spans.jsonl"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _rows(spec):
    if spec["kind"] == "cli":
        return sum(r["rows"] for r in spec["runs"])
    return sum(len(row) for row in spec["rows"])


def _run_cli(cli, spec):
    for run in spec["runs"]:
        config = cli.RunConfig(**run)
        t0 = time.perf_counter()
        try:
            rc = cli.run(config)
        except Exception as exc:  # an escaping exception fails the command's rows
            rc = f"{type(exc).__name__}: {exc}"
        run["t"] = time.perf_counter() - t0
        run["rc"] = rc
        run["rows"] = config.k_count


def _run_lib(pkg, pot, spec, deadline):
    for i in range(len(spec["rows"])):
        if i and deadline is not None and _now() >= deadline:
            del spec["rows"][i:]
            return
        for call in spec["rows"][i]:
            call.update(lib_call(pkg, pot, call))


def lib_call(pkg, pot, call):
    """Time one library call; returns its time and output (or error)."""
    fn = getattr(pkg, call["fn"])
    t0 = time.perf_counter()
    try:
        out = fn(pot, *call["args"], complex(*call["k"]))
    except Exception as exc:  # a failing call is a failed row, not a crash
        return {"t": time.perf_counter() - t0, "error": f"{type(exc).__name__}: {exc}"}
    t = time.perf_counter() - t0
    if call["fn"] == "green_exact":
        out = (out.G_S, out.G_F)
    return {"t": t, "out": [[complex(v).real, complex(v).imag] for v in out]}


# Fixed single-row probes whose work counts are recorded in seed_counts.json.
PROBES = {
    "kgrid-cosine": [("green_exact", "cosine", (0.4, 0.1, 1.0)),
                     ("green_exact", "cosine", (0.4, 0.1, 1.6)),
                     ("bands_row", "cosine", (1.0,))],
    "kgrid-square": [("green_exact", "square", (0.4, 0.1, 1.0)),
                     ("bands_row", "square", (1.0,))],
    "lowk-square": [("expand_row", "square", (0.3, 0.1))],
    "field-mixed": [("green_exact", "mixed", (5.3, 0.2, complex(0.8, 0.3))),
                    ("s_functions", "mixed", (0.9, 1.0)),
                    ("m_functions", "mixed", (0.9, 1.0))],
}


def _probes(pkg, tracer, job):
    import workloads
    from tracer import work_counts

    # probes use fixed cells (the mixed one with seed 0's table), so their
    # counts do not depend on the run's seed
    cells = {"cosine": workloads.COSINE, "square": workloads.SQUARE,
             "mixed": workloads.mixed_cell(0)}
    probe_dir = os.path.join(job["outdir"], "probe")
    os.makedirs(probe_dir, exist_ok=True)
    out = {}
    for fn, cell, args in PROBES[job["workload"]]:
        path = workloads.write_cell(cells[cell], os.path.join(probe_dir, f"{cell}.pot"))
        pot = pkg.load_potential_file(path)
        lo = len(tracer.spans)
        if fn == "bands_row":
            pkg.monodromy(pot, args[0])
            pkg.classify_band(pot, args[0])
        elif fn == "expand_row":
            cc = pkg.cell_constants(pot)
            pkg.expansion_coeffs(pot, args[0], 2, cc=cc)
            pkg.green_series(pot, args[0], args[1], cc=cc)
            lo += 1  # the cell_constants span is set-up, not row work
        else:
            getattr(pkg, fn)(pot, *args)
        out[f"{fn}:{cell}:{','.join(repr(a) for a in args)}"] = work_counts(tracer.spans, lo)
    return out


if __name__ == "__main__":
    try:
        main(sys.argv[1], sys.argv[2], float(sys.argv[3]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
