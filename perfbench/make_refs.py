"""Recompute the stored references in refs.json from the program in src/.

    python3 perfbench/make_refs.py [fold64] [fold256] [sign]

References hold what the program computed when they were made: the fold
value lambda_star with its crossing and critical-point counts for every
k <= 3 grid case at N=64 and every k <= 2 grid case at N=256 (a case that
raised is stored with its error), and for each (alpha, beta, k) of the sign
grid the SHA-256 of the exact coefficients C_k^i with their signs.  Parts
named on the command line are recomputed; the others are kept.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PARTS = ("fold64", "fold256", "sign")


def main(argv) -> int:
    parts = argv or list(PARTS)
    if not set(parts) <= set(PARTS):
        print(f"usage: make_refs.py [{'] ['.join(PARTS)}]", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import cases as C
    import workloads as W
    from spans import program_caches

    path = HERE / "refs.json"
    refs = json.loads(path.read_text()) if path.exists() else {"fold": {}, "sign": {}}
    todo = []
    if "fold64" in parts:
        todo += [("fold", c, W.fold_reference) for c in C.fold_grid((1, 2, 3), 64)]
    if "fold256" in parts:
        todo += [("fold", c, W.fold_reference) for c in C.fold_grid((1, 2), 256)]
    if "sign" in parts:
        todo += [("sign", c, W.sign_reference) for c in C.sign_cases(0)]
    for kind, case, make in todo:
        for fn in program_caches():
            fn.cache_clear()
        refs[kind][case.key] = make(case)
        print(case.key, refs[kind][case.key], flush=True)
    for kind in refs:
        refs[kind] = dict(sorted(refs[kind].items()))
    path.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
