#!/usr/bin/env python3
"""chaoslink benchmark: one workload per run, closed loop with one caller.

    python3 perfbench/run.py --workload ber_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout, never from an installed copy. One process, one thread: each
pass starts when the previous one returns, sweeps run with
``max_workers=1``, the CLI with ``--threads 1``, and BLAS is pinned to one
thread. Passes repeat until ``--seconds`` would be exceeded (at least
three; two untraced and two traced with ``--trace 1``).

Each step of a pass is timed on its own, between two timings of a fixed
reference kernel. The pass time is the sum of per-step medians, in seconds
(``wall_s``, printed) and in reference-kernel units (``wall_ref``, the
end-to-end metric), which cancels most of the host's speed drift.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced passes interleaved with untraced ones, plus the tracing
overhead. The last line of stdout is the JSON result; the lines before it
are a readable summary and the run metadata, which are also written to
``perfbench/results/``. ``--smoke`` runs every workload at a tiny size in
both modes and checks that each metric named in BENCHMARK.json is emitted
with its unit.
"""

from __future__ import annotations

import os

# Single-threaded numerics; must be set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ber_sweep", "file_link", "codec_bulk", "dynamics")
SETUP_PROBES = 2  # extra set-ups in child processes; setup_s is the median of 3
REFERENCE_ITERATIONS = 70_000  # about 10 ms interpreted
PROBE_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here (library missing or not the checkout's)."""


def import_workloads():
    """Import chaoslink from this checkout's src/ and return the workloads module."""
    if not (SRC / "chaoslink" / "__init__.py").is_file():
        raise BenchError(f"chaoslink sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    location = Path(workloads.chaoslink.__file__).resolve()
    if SRC not in location.parents:
        raise BenchError(f"imported chaoslink from {location}, not from {SRC}")
    return workloads


def timed_setup(name, seed, smoke):
    """Import the library, generate the workload's inputs, warm the kernels."""
    t0 = perf_counter()
    wl = import_workloads()
    workdir = HERE / ".work" / f"{name}-{os.getpid()}"
    work = wl.WORKLOADS[name](seed, smoke, workdir)
    wl.warm_kernels()
    return wl, work, perf_counter() - t0


def probe_setup(name, seed):
    """Time one complete set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def reference_kernel():
    """Fixed interpreted float loop shaped like the library's interpreted map kernels."""
    x, y, z = 0.1, 0.2, 0.3
    for _ in range(REFERENCE_ITERATIONS):
        u = (1.3 * x - 0.4 * y + 0.2 * z + 1.0) % 2.0 - 1.0
        x, y, z = u, x, y
    return x


def timed_reference():
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


def run_pass(work, out, step_s):
    """One pass: every step in order, each timed on its own into ``step_s``.

    The reference kernel runs before the first step and after every step,
    so each step sits between two reference timings taken moments apart.
    ``step_s[name]`` gets ``(seconds, seconds / mean of those two)``.
    Returns the reference timings of the pass.
    """
    references = [timed_reference()]
    for name, step in work.steps():
        t0 = perf_counter()
        step(out)
        elapsed = perf_counter() - t0
        references.append(timed_reference())
        step_s[name].append((elapsed, 2.0 * elapsed / sum(references[-2:])))
    return references


def pass_time(step_s, column=0):
    """One pass as the sum of per-step medians: seconds, or reference units (1)."""
    return sum(statistics.median(t[column] for t in times) for times in step_s.values())


def measure(wl, work, seconds, trace, min_passes):
    """Closed loop over passes; with ``trace`` alternate untraced and traced passes."""
    tracer = layertrace.Tracer() if trace else None
    out = wl.Outcome()
    untraced, traced = defaultdict(list), defaultdict(list)
    passes = {False: 0, True: 0}
    pass_s, references, layer_rows, glue, spans = [], [], [], [], []
    start = perf_counter()
    while True:
        with_trace = bool(trace) and passes[True] < passes[False]
        t0 = perf_counter()
        if with_trace:
            with tracer:
                pass_references = run_pass(work, out, traced)
            wall = perf_counter() - t0
            references.extend(pass_references)
            layer_rows.append(layertrace.layer_metrics(tracer))
            glue.append(wall - sum(pass_references) - tracer.covered_s())
            spans = tracer.dump()
        else:
            references.extend(run_pass(work, out, untraced))
            wall = perf_counter() - t0
        pass_s.append(wall)
        passes[with_trace] += 1
        enough = passes[False] >= min_passes and (not trace or passes[True] >= min_passes)
        if enough and perf_counter() - start + statistics.median(pass_s) > seconds:
            break
    return {
        "untraced": untraced,
        "traced": traced,
        "passes": passes,
        "reference_s": references,
        "layer_rows": layer_rows,
        "glue": glue,
        "attempted": out.attempted,
        "problems": out.problems,
        "spans": spans,
    }


def step_summary(step_s):
    """Per step: median and quartiles in seconds, median in reference units, count."""
    summary = {}
    for name, times in step_s.items():
        seconds = [t[0] for t in times]
        q1, _, q3 = statistics.quantiles(seconds, n=4) if len(seconds) > 1 else seconds * 3
        summary[name] = {
            "median_s": statistics.median(seconds),
            "q1_s": q1,
            "q3_s": q3,
            "median_ref": statistics.median(t[1] for t in times),
            "n": len(times),
        }
    return summary


def build_result(wl, work, run, setup_samples, trace):
    """Final JSON result plus the detail record (metadata, rates, spans)."""
    import numpy  # already loaded by the set-up; imported here to keep it out of the timing
    import scipy

    wall = pass_time(run["untraced"])
    failed = len(run["problems"])
    attempted = max(run["attempted"], 1)
    if trace:
        metrics = {
            name: {
                "value": statistics.median(row[name] for row in run["layer_rows"]),
                "unit": layertrace.unit_of(name),
            }
            for name in layertrace.LAYER_METRICS
        }
        metrics["trace.overhead_s"] = {
            "value": pass_time(run["traced"]) - wall, "unit": "s"}
        metrics["trace.glue_s"] = {"value": statistics.median(run["glue"]), "unit": "s"}
    else:
        metrics = {
            "wall_ref": {"value": pass_time(run["untraced"], 1), "unit": "ref"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    extra = {
        "wall_s": {"value": wall, "unit": "s"},
        "reference_s": {"value": statistics.median(run["reference_s"]), "unit": "s"},
        "failed_fraction": {"value": failed / attempted, "unit": "ratio"},
    }
    if work.link_samples:
        extra["link_samples_per_s"] = {"value": work.link_samples / wall, "unit": "1/s"}
    if work.payload_bits:
        extra["payload_bits_per_s"] = {"value": work.payload_bits / wall, "unit": "1/s"}
    meta = {
        "workload": work.name,
        "seed": work.seed,
        "trace": int(trace),
        "backend": "numba" if wl.chaoslink._kernels.HAVE_NUMBA else "interpreted",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "sizes": work.sizes(),
        "passes_untraced": run["passes"][False],
        "passes_traced": run["passes"][True],
        "wall_s": "sum over the steps of a pass of each step's median untraced time",
        "step_s_untraced": step_summary(run["untraced"]),
        "step_s_traced": step_summary(run["traced"]),
        "setup_s_samples": setup_samples,
        "loop": "closed, one caller, one process, one thread",
        "waiting_time": "not applicable: no layer queues work in this batch simulator",
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {"meta": meta, "extra": extra, "problems": run["problems"], "spans": run["spans"]}
    return result, detail


def report(result, detail):
    """Readable summary, then metadata, then the JSON result as the last line."""
    meta = detail["meta"]
    print(f"workload {meta['workload']} seed {meta['seed']} trace {meta['trace']}: "
          f"{meta['passes_untraced']} untraced + {meta['passes_traced']} traced passes, "
          f"backend {meta['backend']}")
    for name, m in {**result["metrics"], **detail["extra"]}.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    for problem in detail["problems"]:
        print(f"  FAILED {problem}")
    print("meta " + json.dumps(meta))
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json"
    path.write_text(json.dumps({"result": result, **detail}, indent=1) + "\n")
    print(json.dumps(result), flush=True)


def smoke():
    """Tiny pass of every workload in both modes; every declared metric must appear."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            wl, work, setup_s = timed_setup(name, 1, smoke=True)
            try:
                run = measure(wl, work, 0, trace, min_passes=1)
            finally:
                work.close()
            result, _ = build_result(wl, work, run, [setup_s], trace)
            declared = spec["per_layer" if trace else "end_to_end"]
            emitted = result["metrics"]
            wrong = [m["name"] for m in declared
                     if emitted.get(m["name"], {}).get("unit") != m["unit"]]
            undeclared = sorted(set(emitted) - {m["name"] for m in declared})
            good = not wrong and not undeclared
            ok = ok and good
            print(f"smoke {name} trace {trace}: {'ok' if good else 'MISMATCH'} "
                  f"({len(emitted)} metrics, {result['attempted']} operations)"
                  + (f" missing/wrong unit: {wrong}" if wrong else "")
                  + (f" undeclared: {undeclared}" if undeclared else ""))
    return 0 if ok else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.setup_probe:
            _, work, setup_s = timed_setup(args.workload, args.seed, smoke=False)
            work.close()
            print(repr(setup_s))
            return 0
        if not (SRC / "chaoslink" / "__init__.py").is_file():
            raise BenchError(f"chaoslink sources not found under {SRC}")
        setup_samples = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        wl, work, setup_s = timed_setup(args.workload, args.seed, smoke=False)
        try:
            run = measure(wl, work, args.seconds, args.trace, min_passes=2 if args.trace else 3)
        finally:
            work.close()
        result, detail = build_result(wl, work, run, setup_samples + [setup_s], args.trace)
        report(result, detail)
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
