"""bloch-green benchmark: seeded workloads, end-to-end metrics, layer traces.

Run from the root of a checkout (it imports the package from ./src):

    python3 bench/run.py --workload kgrid-cosine --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics: SETUPS fresh processes, one
after another, each single-threaded and each setting up; the first WORKERS
of them then run units in a closed loop for their share of --seconds.
--trace 1 runs a fixed pass of units in TRACE_PASSES untraced and as many
traced processes, taking turns, and reports per-layer metrics from the
traced ones.  Either way the outputs are checked afterwards
(checks.py), and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3
WORKERS = 2
# units in one trace pass: a few seconds of work untraced
TRACE_UNITS = {"kgrid-cosine": 1, "kgrid-square": 60, "lowk-square": 1, "field-mixed": 4}
TRACE_PASSES = 3
CHILD_TIMEOUT_S = 120.0

END_TO_END = {"setup_s": "s", "rows_per_s": "1/s", "call_ms_p50": "ms",
              "call_ms_tail": "ms", "peak_rss_mb": "MB"}


def _layer_unit(name):
    if name.endswith("ms_per_row"):
        return "ms/row"
    if name.endswith("_per_row"):
        return "1/row"
    if name.endswith(("_ms", "_p50")):
        return "ms"
    if name.endswith("distinct_windows"):
        return "count"
    return "ratio"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bloch_green", "__init__.py")):
        print(f"error: {root} holds no src/bloch_green; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, ".work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cell_path = workloads.write_cell(workloads.cell_for(args.workload, args.seed),
                                     os.path.join(workdir, "cell.pot"))

    def job(tag, child, trace=0, units=0, slice_s=0.0, probes=False, setup_only=False):
        return {"src": src, "workload": args.workload, "seed": args.seed, "child": child,
                "trace": trace, "units": units, "slice": slice_s, "probes": probes,
                "setup_only": setup_only, "workdir": workdir, "outdir": os.path.join(workdir, tag),
                "cell_path": cell_path, "tag": tag}

    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    env_record = _environment()
    print("env: " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    if args.trace:
        # untraced and traced passes take turns, so a drift in the host's
        # speed reaches both alike; every pass runs the same units
        units = TRACE_UNITS[args.workload]
        plain, traced = [], []
        for p in range(TRACE_PASSES):
            plain.append(_launch(job(f"plain{p}", 0, units=units), env, root))
            traced.append(_launch(job(f"traced{p}", 0, trace=1, units=units,
                                      probes=p == TRACE_PASSES - 1), env, root))
        results = plain + traced
    else:
        slice_s = args.seconds / WORKERS
        results = [_launch(job(f"c{c}", c, slice_s=slice_s, setup_only=c >= WORKERS), env, root)
                   for c in range(SETUPS)]

    sys.path.insert(0, src)
    import bloch_green
    import bloch_green.cli  # noqa: F401

    rep = checks.check_run(args.workload, args.seed, results, bloch_green,
                           np.random.default_rng([args.seed, 99]))
    # every trace pass runs the same units; describe them once
    inputs = _inputs(args.workload, args.seed, plain[:1] if args.trace else results)
    print("inputs: " + json.dumps(inputs, sort_keys=True))
    for name, (worst, n) in sorted(rep.worst.items()):
        print(f"check {name}: max residual {worst:.3e} (tol {checks.TOL[name]:g}) over {n} rows")
    print(f"check fail_frac = {len(rep.failed)}/{rep.attempted} rows")
    for note in rep.notes:
        print(f"check failure: {note}")

    if args.trace:
        # times: median over the traced passes; counts are the same in each
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_frac"] = (statistics.median(r["busy_s"] for r in traced)
                                          / statistics.median(r["busy_s"] for r in plain) - 1.0)
        metrics["check.err_over_tol"] = rep.err_over_tol
        for r in traced:
            print(f"pass work counts ({r['tag']}): " + json.dumps(r["pass_counts"], sort_keys=True))
        print("busy_s per pass: " + " ".join(f"{r['tag']}={r['busy_s']:.4f}" for r in results))
        print("wrapped bindings: " + " ".join(traced[0]["bindings"]))
        _report_probes(args.workload, traced[-1]["probes"])
        units_of = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = _end_to_end(results)
        units_of = END_TO_END
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units_of[name]}")

    record = {"args": vars(args), "env": env_record, "inputs": inputs, "metrics": metrics,
              "checks": {n: {"max": w, "rows": c, "tol": checks.TOL[n]}
                         for n, (w, c) in rep.worst.items()}}
    with open(os.path.join(workdir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not rep.failed, "attempted": rep.attempted, "failed": len(rep.failed),
        "metrics": {n: {"value": v, "unit": units_of[n]} for n, v in metrics.items()}}))
    return 0


def _launch(job, env, root):
    """Run one child to completion; returns its result dict."""
    tag = job["tag"]
    job_path = os.path.join(job["workdir"], f"job-{tag}.json")
    result_path = os.path.join(job["workdir"], f"result-{tag}.json")
    log_path = os.path.join(job["workdir"], f"log-{tag}.txt")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), job_path, result_path]
    with open(log_path, "w", encoding="utf-8") as log:
        job_launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd + [repr(job_launched)], env=env, cwd=root,
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=job["slice"] + CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = "timeout"
    if rc != 0:
        with open(log_path, encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise SystemExit(f"error: benchmark child {tag} ended with {rc}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["tag"] = tag
    return result


def _tail(samples):
    """(value, percentile): the highest percentile up to p90 with at least
    10 samples above it, by nearest rank.  Below 110 samples that is the
    11th largest sample, at percentile 100 (n - 10) / n, which moves
    smoothly with the sample count.  With fewer than 11 samples it is the
    maximum.  The cap keeps the tail off the host's own hiccups: on a
    shared 2-vCPU host about 1% of the 36-ms kgrid-square samples were
    caught in a short slow spell of the host, so p99 read either the
    program or that spell, and spread by 0.42 over ten runs."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    i = min(n - 11, math.ceil(0.9 * n) - 1)
    return s[i], 100.0 * (i + 1) / n


def _samples(result):
    """Latency samples in ms per row: cli.run time over rows for each CLI
    unit, mean time per call for each library row.  Also the child's rows
    (CLI output rows or library calls) and its busy time."""
    samples, rows, busy = [], 0, 0.0
    for unit in result["units"]:
        groups = ([[(r["t"], r["rows"]) for r in unit["runs"]]] if unit["kind"] == "cli"
                  else [[(c["t"], 1) for c in row] for row in unit["rows"]])
        for group in groups:
            t = sum(g[0] for g in group)
            n = sum(g[1] for g in group)
            samples.append(1e3 * t / n)
            rows += n
            busy += t
    return samples, rows, busy


def _end_to_end(results):
    workers = [r for r in results if r["units"]]
    per_child = [_samples(r) for r in workers]
    samples = [s for child, _, _ in per_child for s in child]
    tail, pct = _tail(samples)
    if len(samples) > 10:
        print(f"latency samples: {len(samples)}; call_ms_tail is p{pct:.1f}, "
              f"with {round(len(samples) * (1 - pct / 100))} samples above it")
    else:
        print(f"latency samples: {len(samples)}; call_ms_tail is their maximum")
    print("setup_s per child: " + " ".join(f"{r['setup_s']:.4f}" for r in results))
    print("rows_per_s per worker: " + " ".join(f"{n / t:.6g}" for _, n, t in per_child))
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "rows_per_s": sum(n for _, n, _ in per_child) / sum(t for _, _, t in per_child),
        "call_ms_p50": statistics.median(samples),
        "call_ms_tail": tail,
        "peak_rss_mb": max(r["rss_mb"] for r in workers),
    }



def _inputs(workload, seed, results):
    units = [u for r in results for u in r["units"]]
    out = {"seed": seed, "units": len(units)}
    if workload.startswith("kgrid"):
        ks = [float(k) for u in units
              for k in np.linspace(u["runs"][0]["k_min"], u["runs"][0]["k_max"],
                                   u["runs"][0]["k_count"])]
        classes = [workloads.k_class(workload, k) for k in ks]
        out["k_points"] = len(ks)
        out["k_share"] = {c: round(classes.count(c) / len(ks), 4) for c in ("band", "gap", "edge")}
    elif workload == "lowk-square":
        yr = [u["runs"][0]["y"] - u["offset"] for u in units]
        out["x_points"] = len(units) * workloads.EXPAND_N
        out["y_in_cell_quartiles"] = [round(v, 4) for v in np.quantile(yr, [0, .25, .5, .75, 1])]
    else:
        period = workloads.cell_for(workload, seed)["period"]
        spans = np.array([(u["x"] - u["y"]) / period for u in units])
        out["pairs"] = len(units)
        out["span_periods_quartiles"] = [round(v, 4) for v in np.quantile(spans, [0, .25, .5, .75, 1])]
        out["span_share_ge_2_periods"] = round(float(np.mean(spans >= 2.0)), 4)
        out["k"] = [str(k) for k in workloads.FIELD_KS]
    return out


def _environment():
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": json.dumps(model), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads": ",".join(f"{v}=1" for v in THREAD_VARS)}


def _report_probes(workload, probes):
    with open(os.path.join(HERE, "seed_counts.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)["probes"]
    for name, counts in probes.items():
        same = recorded.get(name) == counts
        print(f"probe {name}: {json.dumps(counts, sort_keys=True)} "
              f"(recorded seed counts {'match' if same else 'differ'})")


if __name__ == "__main__":
    sys.exit(main())
