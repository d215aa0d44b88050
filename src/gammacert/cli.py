"""Command-line interface.

Subcommands:
  verify       run a claim suite, optionally writing a JSON/CSV report
  lambda-star  enclose the monotonicity threshold lambda* in a proven bracket
  compare      pairwise tightness of the gamma bound families at one x
  eval         evaluate one bound family at one point

Exit codes: 0 all claims matched their expected verdicts, 1 at least one
did not, 2 usage or I/O error.  GAMMA_CERTIFY_DIGITS overrides the default
working precision.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import Optional

from .config import DEFAULT_CONFIG, DomainError, NumericalError, ParameterError, PrecisionConfig
from . import bounds, harness, monotone

__all__ = ["main", "build_parser"]


def _parse_grid(text: str) -> harness.GridSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise ParameterError("grid must look like lo:hi:points:log|lin")
    lo, hi, points, spacing = parts
    spacing = {"log": "log", "lin": "linear", "linear": "linear"}.get(spacing)
    if spacing is None:
        raise ParameterError("grid spacing must be 'log' or 'lin'")
    return harness.GridSpec(float(lo), float(hi), int(points), spacing)


def _resolve_config(args) -> PrecisionConfig:
    digits = getattr(args, "digits", None)
    if digits is None:
        env = os.environ.get("GAMMA_CERTIFY_DIGITS")
        if env is not None:
            digits = int(env)
    if digits is None:
        return DEFAULT_CONFIG
    return replace(DEFAULT_CONFIG, working_digits=digits)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammacert",
        description="Verification harness for gamma-function inequality claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a claim suite")
    p_verify.add_argument("--suite", required=True, choices=harness.SUITE_IDS)
    p_verify.add_argument("--digits", type=int, default=None)
    p_verify.add_argument("--grid", type=str, default=None, help="lo:hi:points:log|lin")
    p_verify.add_argument("--out", type=str, default=None)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")

    p_ls = sub.add_parser("lambda-star", help="enclose the threshold lambda* in a proven bracket")
    p_ls.add_argument("--tol", type=float, default=1e-8)
    p_ls.add_argument("--digits", type=int, default=None)

    p_cmp = sub.add_parser("compare", help="compare gamma bound families at x")
    p_cmp.add_argument("--x", type=float, required=True)
    p_cmp.add_argument("--digits", type=int, default=None)

    p_eval = sub.add_parser("eval", help="evaluate one bound family at x")
    p_eval.add_argument("--family", required=True,
                        choices=[f.value for f in bounds.FamilyId])
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--lam", type=float, default=None,
                        help="shape parameter (QiGammaGeneric only)")
    p_eval.add_argument("--digits", type=int, default=None)

    return parser


def _cmd_verify(args, cfg: PrecisionConfig) -> int:
    grid = _parse_grid(args.grid) if args.grid else None
    reports = harness.run_suite(args.suite, cfg, grid_override=grid)
    if args.out:
        harness.emit_report(reports, args.format, args.out)
    else:
        sys.stdout.write(harness.render_reports(reports, args.format))
    for rep in reports:
        print(f"{rep.claim_id}: {rep.verdict} (min_margin={rep.min_margin:.6g} "
              f"at x={rep.argmin_x:.6g})", file=sys.stderr)
    return harness.exit_code(reports)


def _cmd_lambda_star(args, cfg: PrecisionConfig) -> int:
    res = monotone.lambda_star(args.tol, cfg)
    print(f"lambda_star = {res.lambda_star!r}")
    print(f"bracket     = [{res.bracket[0]!r}, {res.bracket[1]!r}]")
    print(f"t_star      = {res.t_star:.6f}")
    print(f"tolerance   = {res.tolerance:g}")
    return 0


def _cmd_compare(args, cfg: PrecisionConfig) -> int:
    cmp = bounds.compare_families(args.x, cfg)
    print(f"x = {cmp.x:g}")
    for o in cmp.orderings:
        print(f"  {o.family_a.id.value} vs {o.family_b.id.value}: "
              f"better_lower={o.better_lower} better_upper={o.better_upper}")
    return 0


def _integer_n(fam_id: bounds.FamilyId, x: float) -> int:
    if not x.is_integer():
        raise ParameterError(f"{fam_id.value} needs an integer n, got --x {x:g}")
    return int(x)


def _fmt_bound(v) -> str:
    """v to 17 significant digits: as a float where it is one, else as the
    mpf (Gamma(x+1) and n! pass the float range near x = 171)."""
    from mpmath import mp
    f = float(v)
    return f"{f:.17g}" if math.isfinite(f) or mp.isinf(v) else mp.nstr(v, 17)


def _cmd_eval(args, cfg: PrecisionConfig) -> int:
    fam_id = bounds.FamilyId(args.family)
    family = bounds.BoundFamily(fam_id, lam=args.lam)
    if fam_id in (bounds.FamilyId.HARMONIC_LOW, bounds.FamilyId.HARMONIC_HIGH):
        pair = bounds.eval_harmonic_bound(family, _integer_n(fam_id, args.x), cfg)
        lower, upper = pair.lower, pair.upper
    elif fam_id in (bounds.FamilyId.BERNOULLI_FRACTION, bounds.FamilyId.BERNOULLI_CLASSIC):
        pair = bounds.eval_bernoulli_fraction_bound(args.x, family, cfg)
        lower, upper = pair.lower, pair.upper
    else:
        # Gamma(x+1) and n! from their ln-space bounds, as mpf: finite past float range
        if fam_id in (bounds.FamilyId.FACTORIAL_LOW, bounds.FamilyId.FACTORIAL_HIGH,
                      bounds.FamilyId.FACTORIAL_AS_PRINTED):
            logs = bounds.factorial_bound_log(family, _integer_n(fam_id, args.x), cfg)
        else:
            logs = bounds.gamma_bound_log(family, args.x, cfg)
        from mpmath import mp
        with mp.workdps(cfg.dps):
            lower, upper = (mp.exp(v) for v in logs)
    print(f"family = {fam_id.value}, x = {args.x:g}")
    print(f"lower  = {_fmt_bound(lower)}")
    print(f"upper  = {_fmt_bound(upper)}")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; preserve both
        return int(exc.code) if exc.code else 0
    cmd = {
        "verify": _cmd_verify,
        "lambda-star": _cmd_lambda_star,
        "compare": _cmd_compare,
        "eval": _cmd_eval,
    }[args.command]
    try:
        cfg = _resolve_config(args)
        return cmd(args, cfg)
    except (DomainError, ParameterError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
