"""Command-line interface.

Four subcommands:

  gen            construct one polynomial (P or E) and print it as JSON:
                 its kind, n and point, then LaurentPoly's var and coeffs
  table          tabulate one scalar family over an index range
  verify         run the identity suite at a given or random parameter point
  random-params  draw certified random parameter points

Rationals are written as "p/q" strings everywhere; floats are rejected so
exactness survives the round trip.  Exit codes:

  0  success: every identity passed
  1  at least one identity failed
  2  invalid input: awlab.scalars.InputError, which the library raises for
     --nmax below 0, --trials or --degree-window below 1 and a point it
     cannot certify or draw (GenericityError and HorizonError are
     InputErrors), and this module for a parse error
  3  internal error: any other exception, a ValueError included (e.g.
     EigenSolveError, ZeroDivisionError, NotSymmetricError), reported as
     one "internal error: ..." line on stderr, so a crash never looks like
     a failed identity or bad input

Each command returns its exit code and its output lines, and `main`
prints them, so the verdict is known before any line is printed.  A
reader that closes stdout early (`awlab verify ... | head`) cuts the
output short but changes neither: the command still exits with its
verdict, and nothing is written to stderr.

The environment variable AWLAB_SEED, when set, overrides --seed for the
commands that take one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .polynomials import askey_wilson_P, nonsymmetric_E
from .scalars import (
    GenericityError,
    InputError,
    alpha_n,
    beta_n,
    check_genericity,
    format_scalar,
    lambda_n,
    mu_n,
    parse_scalar,
    random_param_sets,
)
from .identities import FAULT_TARGETS
from .verify import run_suite, suite_plan

_PARAM_KEYS = ("q", "a", "b", "c", "d")


def parse_param_string(text: str) -> dict:
    """Parse "q=1/2,a=1/3,b=1/5,c=1/7,d=1/11" into a scalar dict."""
    values = {}
    for chunk in text.split(","):
        key, sep, raw = chunk.partition("=")
        key = key.strip()
        if not sep or key not in _PARAM_KEYS:
            raise InputError(
                f"bad parameter chunk {chunk!r}; expected q=..,a=..,b=..,c=..,d=.."
            )
        if key in values:
            raise InputError(f"parameter {key} given twice")
        try:
            values[key] = parse_scalar(raw.strip())
        except ValueError as exc:
            raise InputError(f"parameter {key}: {exc}") from None
    missing = [k for k in _PARAM_KEYS if k not in values]
    if missing:
        raise InputError(f"missing parameter(s): {', '.join(missing)}")
    return values


def cmd_gen(args: argparse.Namespace) -> tuple[int, list[str]]:
    values = parse_param_string(args.params)
    n = args.n
    if args.kind == "P" and n < 0:
        raise InputError("the symmetric family P is indexed by n >= 0")
    p = check_genericity(**values, n_max=abs(n))
    poly = (askey_wilson_P if args.kind == "P" else nonsymmetric_E)(n, p)
    return 0, [json.dumps({"kind": args.kind, "n": n,
                           "params": p.as_json_dict(), **poly.to_json_dict()})]


_TABLE_RANGES = {
    # quantity -> (function, signed range?)
    "lambda": (lambda_n, False),
    "mu": (mu_n, True),
    "alpha": (alpha_n, False),
    "beta": (beta_n, True),
}


def cmd_table(args: argparse.Namespace) -> tuple[int, list[str]]:
    values = parse_param_string(args.params)
    p = check_genericity(**values, n_max=args.nmax)
    fn, signed = _TABLE_RANGES[args.quantity]
    lo = -args.nmax if signed else 0
    rows = [(n, format_scalar(fn(n, p))) for n in range(lo, args.nmax + 1)]
    if args.json:
        doc = {
            "quantity": args.quantity,
            "params": p.as_json_dict(),
            "rows": [{"n": n, "value": val} for n, val in rows],
        }
        return 0, [json.dumps(doc)]
    n_width = max(len(str(n)) for n, _ in rows)
    n_width = max(n_width, len("n"))
    return 0, [f"{'n':>{n_width}}  {args.quantity}",
               *(f"{n:>{n_width}}  {val}" for n, val in rows)]


def cmd_verify(args: argparse.Namespace) -> tuple[int, list[str]]:
    if (args.params is None) == (not args.random):
        raise InputError("choose exactly one of --params or --random")
    if args.random:
        p = random_param_sets(args.seed, 1, args.nmax)[0]
    else:
        p = check_genericity(**parse_param_string(args.params),
                             n_max=args.nmax)
    reports = run_suite(
        p,
        trials=args.trials,
        seed=args.seed,
        degree_window=args.degree_window,
        fault=args.inject_fault,
    )
    n_passed = sum(r.passed for r in reports)
    code = 0 if n_passed == len(reports) else 1
    if args.json:
        return code, [json.dumps(r.as_json_dict(args.seed)) for r in reports]
    lines = []
    for r in reports:
        where = "" if r.n is None else f" n={r.n}"
        if r.passed:
            lines.append(f"PASS  {r.identity_id}{where}")
        else:
            lines.append(f"FAIL  {r.identity_id}{where}  residual {r.residual_witness}")
    for identity_id, ns in suite_plan(args.nmax):
        if ns is not None and len(ns) == 0:
            lines.append(f"SKIP  {identity_id}  (empty index range at nmax={args.nmax})")
    point = ",".join(f"{k}={v}" for k, v in p.as_json_dict().items()
                     if k != "nmax")
    lines.append(f"{n_passed}/{len(reports)} identities passed at {point} "
                 f"(nmax={args.nmax}, trials={args.trials}, seed={args.seed})")
    return code, lines


def cmd_random_params(args: argparse.Namespace) -> tuple[int, list[str]]:
    return 0, [json.dumps(p.as_json_dict())
               for p in random_param_sets(args.seed, args.trials, args.nmax)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="awlab",
        description="Exact construction and verification of Askey-Wilson "
                    "polynomial identities.",
        epilog="AWLAB_SEED in the environment overrides --seed when set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="construct one polynomial and print JSON")
    gen.add_argument("kind", choices=("P", "E"),
                     help="P: symmetric (n >= 0); E: nonsymmetric (any integer)")
    gen.add_argument("--n", type=int, required=True, help="polynomial index")
    gen.add_argument("--params", required=True,
                     help="q=..,a=..,b=..,c=..,d=.. with p/q rational values")
    gen.set_defaults(func=cmd_gen)

    table = sub.add_parser("table", help="tabulate one scalar family")
    table.add_argument("quantity", choices=tuple(_TABLE_RANGES),
                       help="lambda/alpha use n = 0..nmax; mu/beta use -nmax..nmax")
    table.add_argument("--nmax", type=int, required=True)
    table.add_argument("--params", required=True,
                       help="q=..,a=..,b=..,c=..,d=.. with p/q rational values")
    table.add_argument("--json", action="store_true", help="emit one JSON object")
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", help="run the identity suite at one point")
    verify.add_argument("--params",
                        help="q=..,a=..,b=..,c=..,d=.. with p/q rational values")
    verify.add_argument("--random", action="store_true",
                        help="draw one certified random point instead")
    verify.add_argument("--nmax", type=int, default=8, help="horizon (default 8)")
    verify.add_argument("--trials", type=int, default=25,
                        help="random inputs of each window check's linearity "
                             "guard (default 25)")
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--degree-window", type=int, default=6,
                        help="degree window [-w, w] on whose basis the window "
                             "checks prove their relations, and of the guard's "
                             "inputs (default 6)")
    verify.add_argument("--json", action="store_true",
                        help="one JSON report per line instead of text")
    verify.add_argument("--inject-fault", choices=FAULT_TARGETS,
                        default=None, help=argparse.SUPPRESS)
    verify.set_defaults(func=cmd_verify)

    rnd = sub.add_parser("random-params",
                         help="draw certified random parameter points")
    rnd.add_argument("--seed", type=int, default=42)
    rnd.add_argument("--trials", type=int, default=1,
                     help="number of points to draw (default 1)")
    rnd.add_argument("--nmax", type=int, default=8)
    rnd.set_defaults(func=cmd_random_params)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    env_seed = os.environ.get("AWLAB_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"error: AWLAB_SEED must be an integer, got {env_seed!r}",
                  file=sys.stderr)
            return 2
    try:
        code, lines = args.func(args)
        try:
            for line in lines:
                print(line)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe: the verdict stands, and stdout
            # points at the null device so the flush at exit writes nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except GenericityError as exc:
        print(f"GenericityError({exc.condition}): {exc.detail}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
