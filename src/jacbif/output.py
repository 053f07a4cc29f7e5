"""JSON and CSV emission for branches and coefficient tables.

JSON is the canonical format; CSV is a lossy flattening for plotting.  Floats
are serialized with 17 significant digits so runs round-trip exactly, and the
writers are fully deterministic: identical inputs give byte-identical output.
"""

from __future__ import annotations

import io
import json

import numpy as np

from .continuation import Branch, FoldRecord
from .linearization import LinearizationTable, SignReport

__all__ = [
    "format_float",
    "to_json",
    "branch_to_dict",
    "branch_to_json",
    "branch_to_csv",
    "linearization_to_dict",
    "linearization_to_json",
]

CSV_COLUMNS = (
    "s",
    "lambda",
    "u_at_minus1",
    "u_at_plus1",
    "sigma_min",
    "crossings",
    "critical_points",
)


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _write_json(obj, out: io.StringIO, indent: int) -> None:
    pad = " " * indent
    if isinstance(obj, dict):
        out.write("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.write(",")
            out.write("\n" + pad + "  " + json.dumps(key) + ": ")
            _write_json(val, out, indent + 2)
        out.write("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)) and all(isinstance(v, (float, np.floating)) for v in obj):
        # the coefficient vectors: one join, the bytes of the loop below
        out.write("[" + ", ".join(map(format_float, obj)) + "]")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for i, val in enumerate(obj):
            if i:
                out.write(", ")
            _write_json(val, out, indent)
        out.write("]")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(format_float(obj))
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    elif obj is None:
        out.write("null")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def to_json(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    out = io.StringIO()
    _write_json(obj, out, 0)
    out.write("\n")
    return out.getvalue()


def _fold_to_dict(rec: FoldRecord) -> dict:
    return {
        "lambda_star": rec.lambda_star,
        "coeffs": list(rec.point.u.coeffs),
        "null_direction": list(rec.null_direction.coeffs),
        "crossings": rec.point.crossings,
        "critical_points": rec.point.critical_points,
    }


def branch_to_dict(branch: Branch) -> dict:
    spec = branch.spec
    return {
        "spec": {
            "alpha": spec.params.alpha,
            "beta": spec.params.beta,
            "q": spec.q,
            "N": spec.N,
            "M": spec.M,
        },
        "k": branch.k,
        "direction": branch.direction,
        "points": [
            {
                "s": p.s,
                "lambda": p.lam,
                "coeffs": list(p.u.coeffs),
                "sigma_min": p.sigma_min,
                "crossings": p.crossings,
                "critical_points": p.critical_points,
                "residual_norm": p.residual_norm,
            }
            for p in branch.points
        ],
        "folds": [_fold_to_dict(rec) for rec in branch.folds],
    }


def branch_to_json(branch: Branch) -> str:
    return to_json(branch_to_dict(branch))


def branch_to_csv(branch: Branch) -> str:
    """One row per accepted point; endpoint values are evaluated on the fly."""
    lines = [",".join(CSV_COLUMNS)]
    for p in branch.points:
        ends = p.u(np.array([-1.0, 1.0]))
        lines.append(
            ",".join(
                (
                    format_float(p.s),
                    format_float(p.lam),
                    format_float(ends[0]),
                    format_float(ends[1]),
                    format_float(p.sigma_min),
                    str(p.crossings),
                    str(p.critical_points),
                )
            )
        )
    return "\n".join(lines) + "\n"


def linearization_to_dict(table: LinearizationTable, report: SignReport | None = None) -> dict:
    params = table.params
    return {
        "k": table.k,
        "alpha": params.alpha,
        "beta": params.beta,
        "coeffs": list(table.coeffs),
        "i3": table.i3,
        "h_k": table.h_k,
        "classification": list(report.signs) if report is not None else [],
    }


def linearization_to_json(table: LinearizationTable, report: SignReport | None = None) -> str:
    return to_json(linearization_to_dict(table, report))
