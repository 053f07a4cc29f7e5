"""Command-line front-end.

Subcommands: sphere (parameter map and spectral table), linearize (expansion
coefficients of P_k^2 as JSON), trace (branch continuation to JSON/CSV), and
verify (acceptance suites).

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure,
4 verification-suite failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import re
import sys
import typing
from fractions import Fraction

from .continuation import (
    ContinuationSettings,
    ProblemSpec,
    bifurcation_lambda,
    branch_switch,
    continue_branch,
    detect_fold,
)
from .errors import NoFoldBracketError, NumericalError, ParameterError
from .geometry import params_from_sphere, sphere_eigenvalue
from .jacobi import jacobi_params
from .linearization import linearization_coeffs, sign_classification, supercritical_threshold
from .output import branch_to_csv, branch_to_json, linearization_to_json
from .verification import SUITE_NAMES, run_suite

OUTPUT_DIR_ENV = "JACBIF_OUTPUT_DIR"


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _real(text: str) -> float:
    """What float() reads ("1.5", "inf", for ProblemSpec to check), else a
    rational literal ("3/2", _fraction) rounded once from its exact value."""
    try:
        return float(text)
    except ValueError:
        value = _fraction(text)
    try:
        return float(value)
    except OverflowError:  # beyond the float range, refused as inf is
        return math.inf if value > 0 else -math.inf


def _exponents_joined(argv: list[str]) -> list[str]:
    """argv with "--alpha -1/2" joined into "--alpha=-1/2", likewise for --beta.

    argparse takes a token after an option as its value only if the token
    does not start with "-" or looks like a negative int or decimal, so a
    negative fraction after a space would read as a missing value.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--alpha", "--beta") and re.match(r"-\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _direction(text: str) -> int:
    if text in ("+1", "1", "plus"):
        return 1
    if text in ("-1", "minus"):
        return -1
    raise argparse.ArgumentTypeError("direction must be +1 or -1")


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _params_from_args(args):
    """RunConfig invariant: exactly one of (alpha, beta) or (n, d, c)."""
    have_ab = args.alpha is not None or args.beta is not None
    have_ndc = args.n is not None or args.d is not None or args.c is not None
    if have_ab == have_ndc:
        raise ParameterError("give exactly one of --alpha/--beta or --n/--d/--c")
    if have_ab:
        if args.alpha is None or args.beta is None:
            raise ParameterError("both --alpha and --beta are required")
        return jacobi_params(args.alpha, args.beta)
    if args.n is None or args.d is None or args.c is None:
        raise ParameterError("all of --n, --d and --c are required")
    return params_from_sphere(args.n, args.d, args.c)


def cmd_sphere(args) -> int:
    if args.q is not None and not args.q > 1:
        raise ParameterError(f"q={args.q} must be > 1")
    if args.kmax < 1:
        raise ParameterError(f"kmax={args.kmax} must be >= 1")
    params = params_from_sphere(args.n, args.d, args.c)
    al, be = params.exact
    lines = [f"alpha = {al}", f"beta = {be}"]
    header = "i\tmu_di"
    if args.q is not None:
        header += "\tlambda_i"
    lines.append(header)
    for i in range(1, args.kmax + 1):
        row = f"{i}\t{sphere_eigenvalue(i, args.n, args.d)}"
        if args.q is not None:
            row += f"\t{bifurcation_lambda(i, al + be + 1, args.q)}"
        lines.append(row)
    lines.append(f"q_f = {supercritical_threshold(params)}")
    _emit("\n".join(lines) + "\n", _resolve_output(args.output))
    return 0


def cmd_linearize(args) -> int:
    params = jacobi_params(args.alpha, args.beta)
    try:
        report = sign_classification(args.k, params)
    except ParameterError:
        report = None  # outside the sign-theorem hypotheses: emit coefficients only
    table = report.table if report is not None else linearization_coeffs(args.k, params)
    _emit(linearization_to_json(table, report), _resolve_output(args.output))
    return 0


def cmd_trace(args) -> int:
    params = _params_from_args(args)
    spec = ProblemSpec(params, args.q, N=args.n_modes, M=args.quad_order)
    settings = ContinuationSettings(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(ContinuationSettings)}
    )
    start = branch_switch(args.k, spec, args.s0, args.direction)
    branch = continue_branch(start, spec, settings)
    if not args.no_fold_detect:
        try:
            branch.folds.append(detect_fold(branch))
        except NoFoldBracketError:
            pass  # no turning point in the traced window
    text = branch_to_json(branch) if args.format == "json" else branch_to_csv(branch)
    _emit(text, _resolve_output(args.output))
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed)
    for res in results:
        print(res.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 4 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacbif",
        description=(
            "Jacobi spectral data, expansion-coefficient signs, and traced "
            "bifurcation branches of the weighted interval ODE"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sphere = sub.add_parser("sphere", help="sphere-parameter map and eigenvalue table")
    p_sphere.add_argument("--n", type=int, required=True, help="sphere dimension (>= 3)")
    p_sphere.add_argument("--d", type=int, required=True, help="degree (1, 2, 3, 4 or 6)")
    p_sphere.add_argument("--c", type=int, required=True, help="multiplicity difference (<= 0)")
    p_sphere.add_argument("--q", type=_fraction, help="nonlinearity exponent (> 1)")
    p_sphere.add_argument("--kmax", type=int, default=5, help="number of table rows")
    p_sphere.add_argument("-o", "--output", help="write to file instead of stdout")
    p_sphere.set_defaults(func=cmd_sphere)

    p_lin = sub.add_parser("linearize", help="expansion of P_k^2 as JSON")
    p_lin.add_argument("--k", type=int, required=True)
    p_lin.add_argument("--alpha", type=_fraction, required=True)
    p_lin.add_argument("--beta", type=_fraction, required=True)
    p_lin.add_argument("-o", "--output", help="write to file instead of stdout")
    p_lin.set_defaults(func=cmd_linearize)

    p_trace = sub.add_parser("trace", help="trace one branch, emit JSON or CSV")
    p_trace.add_argument("--k", type=int, required=True, help="bifurcation mode index")
    p_trace.add_argument("--alpha", type=_fraction)
    p_trace.add_argument("--beta", type=_fraction)
    p_trace.add_argument("--n", type=int, help="sphere dimension (alternative input)")
    p_trace.add_argument("--d", type=int)
    p_trace.add_argument("--c", type=int)
    p_trace.add_argument("--q", type=_real, required=True)
    p_trace.add_argument("--n-modes", type=int, default=ProblemSpec.N, help="Jacobi modes N")
    p_trace.add_argument("--quad-order", type=int, default=ProblemSpec.M, help="quadrature order M")
    p_trace.add_argument("--s0", type=float, default=1e-3, help="first tangent amplitude")
    p_trace.add_argument("--direction", type=_direction, default=1)
    # one flag per ContinuationSettings field, with the field's type and default
    types = typing.get_type_hints(ContinuationSettings)
    for f in dataclasses.fields(ContinuationSettings):
        kind = {"action": "store_true"} if types[f.name] is bool else {"type": types[f.name]}
        p_trace.add_argument("--" + f.name.replace("_", "-"), default=f.default, **kind)
    p_trace.add_argument(
        "--no-fold-detect",
        action="store_true",
        help="skip fold localization on the traced branch",
    )
    p_trace.add_argument("--format", choices=("json", "csv"), default="json")
    p_trace.add_argument("-o", "--output", help="write to file instead of stdout")
    p_trace.set_defaults(func=cmd_trace)

    p_verify = sub.add_parser("verify", help="run an acceptance suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_exponents_joined(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
