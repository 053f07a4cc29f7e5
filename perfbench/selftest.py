"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in about a minute:
  1. a perturbed reference makes its case count as failed, for a fold value,
     a fold count and an exact digest, while the true references pass;
  2. two traced runs of fold-ref at seed 0 give identical counts;
  3. both kinds of run print exactly the metrics BENCHMARK.json names;
  4. in a directory holding only BENCHMARK.json and perfbench/, the benchmark
     exits with a nonzero code and prints no result.
Exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "count/point", "B"}
failures = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def result_of(argv, cwd=HERE.parent):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def perturbed_references() -> None:
    import spans as S
    import workloads as W

    refs = json.loads((HERE / "refs.json").read_text())
    caches = S.program_caches()
    fold = W.WORKLOADS["fold-ref"]
    fold_case = [c for c in fold.cases(0) if c.k == 1]
    sign = W.WORKLOADS["exact-sq"]
    sign_case = [c for c in sign.cases(0) if c.k == 2][:1]

    def failed(wl, cases, refs):
        return run.run_pass(wl, cases, refs, caches)[0]["failed"]

    check(failed(fold, fold_case, refs) == 0, "fold case passes against its reference")
    check(failed(sign, sign_case, refs) == 0, "sign case passes against its reference")
    key = fold_case[0].key
    bad = copy.deepcopy(refs)
    bad["fold"][key]["lambda_star"] *= 1.0 + 1e-8
    check(failed(fold, fold_case, bad) == 1, "lambda_star off by 1e-8 relative fails the case")
    bad = copy.deepcopy(refs)
    bad["fold"][key]["crossings"] += 1
    check(failed(fold, fold_case, bad) == 1, "a wrong crossing count fails the case")
    bad = copy.deepcopy(refs)
    bad["sign"][sign_case[0].key]["sha256"] = "0" * 64
    check(failed(sign, sign_case, bad) == 1, "a wrong exact digest fails the case")


def main() -> int:
    error = run.load_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    perturbed_references()

    runs = [result_of(["--workload", "fold-ref", "--seed", "0", "--seconds", "1", "--trace", "1"])
            for _ in range(2)]
    check(all(code == 0 and res and res["correct"] for code, res in runs), "traced runs succeed")
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in res["metrics"].items() if units[k] in COUNT_UNITS}
              for _, res in runs]
    check(counts[0] == counts[1], "two traced runs of seed 0 give identical counts")
    print(f"      jacobi.jacobi_table.scalar.calls = {counts[0]['jacobi.jacobi_table.scalar.calls']:.0f}")
    check(set(runs[0][1]["metrics"]) == set(units), "traced run prints every per-layer metric")

    code, res = result_of(["--workload", "fold-ref", "--seed", "1", "--seconds", "1", "--trace", "0"])
    check(code == 0 and res is not None and res["correct"], "untraced run succeeds")
    check(res is not None and set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]},
          "untraced run prints every end-to-end metric")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    code, res = result_of(["--workload", "fold-ref", "--seed", "0", "--seconds", "1"], cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and res is None, "without the program source the run fails and prints no result")

    print("self-test " + ("failed: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
