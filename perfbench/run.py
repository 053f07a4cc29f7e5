"""jacbif benchmark: one workload per run, one caller, cases in sequence.

    python3 perfbench/run.py --workload fold-ref --seed 0 --seconds 36 --trace 0

Run it from the repository root; it imports the program from ``src/``.  A run
repeats passes over the workload's cases until ``--seconds`` are used up.
Each pass starts cold: it clears the program's lru caches, builds what the
cases need (timed as set-up), then solves every case (timed as solve) and
checks each result against ``refs.json``.  A case that raises or misses its
reference counts as failed and the run goes on.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics of BENCHMARK.json, medians over the passes.  With
``--trace 1`` untraced and traced passes alternate, and the object holds the
per-layer metrics of BENCHMARK.json, medians over the traced passes; the
spans themselves are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 4  # cold set-ups per run besides those of the passes


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def timed_setup(wl, cases):
    gc.collect()
    t0 = perf_counter()
    inputs = wl.setup(cases)
    return inputs, perf_counter() - t0


def cold_setup_s(wl, cases, caches) -> float:
    for fn in caches:
        fn.cache_clear()
    return timed_setup(wl, cases)[1]


def run_pass(wl, cases, refs, caches, tracer=None):
    """One cold pass over the cases; returns its record and the outcomes."""
    import workloads as W

    for fn in caches:
        fn.cache_clear()
    capture = W.TableCapture()
    capture.install()
    if tracer:
        tracer.install()
        tracer.phase = "setup"
    inputs, setup_s = timed_setup(wl, cases)
    if tracer:
        tracer.phase = "solve"
    gc.collect()
    results = []
    c0, t0 = process_time(), perf_counter()
    for case in cases:
        if tracer:
            tracer.case = case.key
        try:
            results.append(wl.solve(case, inputs, capture))
        except Exception as exc:  # a failing case is counted, and the run goes on
            results.append(exc)
    solve_s, cpu_s = perf_counter() - t0, process_time() - c0
    counts = tracer.uninstall() if tracer else {}
    capture.uninstall()

    outcomes = []
    for case, result in zip(cases, results):
        out = W.Outcome(case.key)
        ref = refs[wl.kind].get(case.key)
        if isinstance(result, Exception):
            out.problems.append("".join(traceback.format_exception_only(result)).strip())
            outcomes.append(out)
            continue
        out.points, out.branch_points = wl.work(case, result)
        if ref is None:
            out.problems.append("no reference for this case")
        else:
            try:
                wl.check(case, result, ref, out)
            except Exception as exc:  # malformed output is a failed case too
                out.problems.append("check raised " + "".join(traceback.format_exception_only(exc)).strip())
        outcomes.append(out)
    record = {
        "traced": tracer is not None,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "cpu_s": cpu_s,
        "points": sum(o.points for o in outcomes),
        "branch_points": sum(o.branch_points for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.problems),
    }
    return record, counts, outcomes


def load_program() -> str | None:
    """Pin the BLAS threads, then import jacbif from the checkout's src/.
    Returns an error message, or None on success."""
    for var in THREAD_VARS:  # before numpy loads OpenBLAS
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "jacbif" / "__init__.py").is_file():
        return f"no program source under {src}; run from a checkout of the repository"
    sys.path.insert(0, str(src))
    import jacbif

    if Path(jacbif.__file__).resolve().parent != (src / "jacbif").resolve():
        return f"jacbif imported from {jacbif.__file__}, not from {src}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    error = load_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import spans as S
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((HERE / "refs.json").read_text())
    wl = W.WORKLOADS[args.workload]
    cases = wl.cases(args.seed)
    caches = S.program_caches()
    machine = machine_record()
    print("machine " + json.dumps(machine, sort_keys=True))

    passes, layer, traced_spans = [], [], []
    min_passes = 2 if args.trace else 1
    start = perf_counter()
    setups = [] if args.trace else [cold_setup_s(wl, cases, caches) for _ in range(SETUP_REPEATS)]
    while True:
        tracer = S.Tracer() if args.trace and len(passes) % 2 == 1 else None
        t0 = perf_counter()
        record, counts, outcomes = run_pass(wl, cases, refs, caches, tracer)
        passes.append(record)
        for o in outcomes:
            for problem in o.problems:
                print(f"FAILED {o.key}: {problem}", file=sys.stderr)
        print(f"pass {len(passes) - 1}{' traced' if tracer else ''}: setup {record['setup_s']:.4f} s, "
              f"solve {record['solve_s']:.4f} s, {record['points']} points, "
              f"{record['attempted'] - record['failed']}/{record['attempted']} ok")
        if tracer:
            layer.append(S.layer_metrics(tracer.spans, counts, record["solve_s"],
                                         record["branch_points"], record["points"]))
            traced_spans.append(tracer.spans)
        # start another pass only if it should end within half a pass of --seconds
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed + 0.5 * (perf_counter() - t0) > args.seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    med = statistics.median
    if args.trace:
        values = {m["name"]: med(pass_values.get(m["name"], 0) for pass_values in layer)
                  for m in spec["per_layer"]}
        values["trace.solve_s"] = med(p["solve_s"] for p in traced)
        values["trace.overhead_s"] = values["trace.solve_s"] - med(p["solve_s"] for p in plain)
        chosen = spec["per_layer"]
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "machine": machine, "passes": passes,
            "span_fields": ["name", "start", "end", "parent", "case", "phase"],
            "spans": traced_spans, "per_layer": values,
        }))
    else:
        values = {
            "solve_s": med(p["solve_s"] for p in plain),
            "setup_s": med(setups + [p["setup_s"] for p in plain]),
            "cpu_s": med(p["cpu_s"] for p in plain),
            "points_per_s": med(p["points"] / p["solve_s"] for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        chosen = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in chosen}
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {attempted} cases attempted, "
          f"{failed} failed, fail_frac {failed / attempted:.4g}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
