"""Command-line front end.

Subcommands:
  table        regenerate the frozen-constant table (text/csv/json)
  bound        evaluate a frozen constant and the bound it gives at (n, p)
  nonresidues  smallest prime nonresidues of an order-d character mod p
  verify       run the lemma oracles and emit a JSON report
  scan         scan a prime range against a frozen bound

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage error, 3 resource-cap exhaustion.  NONRES_WORKERS (an integer
>= 1) sets the default worker count for scans; only `scan` reads it.
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import os
import sys
from importlib import resources

from . import bounds as bd
from . import scan as sc
from .characters import DEFAULT_SEARCH_CAP, SearchCapExceededError, prime_nonresidues
from .primes import is_prime

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

TABLE_DEFAULT_N0 = "1..8"
TABLE_DEFAULT_P0 = "1e7,1e8,1e9,1e10,1e15,1e20,1e25,1e30,1e35"


def schema_path(name: str) -> str:
    """Filesystem path of a shipped JSON schema (e.g. "scan_summary")."""
    return str(resources.files("nonresidues.schemas").joinpath(f"{name}.schema.json"))


class UsageError(argparse.ArgumentTypeError):
    """Invalid input: exit 2.  As an ArgumentTypeError it is also refused by
    argparse, with exit 2 and its message, when a `type=` parser raises it."""


def _parse_int_spec(spec: str) -> list[int]:
    """Integer list: "3", "1,2,5" or "1..8"."""
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    if not out:
        raise UsageError(f"empty integer spec: {spec!r}")
    return out


def _parse_finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"not a finite number: {text!r}")
    return value


def _parse_float_list(spec: str) -> list[float]:
    """Float list, scientific notation welcome: "1e7,1e8" or "1e7,1e8,...,1e12"
    (the ellipsis continues the ratio of the two preceding entries).  Values
    must be finite: "inf", "nan" and overflowing literals such as "1e400"
    are refused."""
    parts = [s.strip() for s in spec.split(",") if s.strip()]
    out: list[float] = []
    i = 0
    while i < len(parts):
        if parts[i] in ("...", ".."):
            if len(out) < 2 or i + 1 >= len(parts):
                raise UsageError("'...' needs two values before and one after")
            ratio = out[-1] / out[-2]
            stop = _parse_finite(parts[i + 1])
            if ratio <= 1 or out[-1] >= stop:
                raise UsageError("'...' requires an increasing progression")
            v = out[-1] * ratio
            while v < stop * (1 - 1e-9):
                out.append(v)
                v *= ratio
            out.append(stop)
            i += 2
        else:
            out.append(_parse_finite(parts[i]))
            i += 1
    if not out:
        raise UsageError(f"empty float list: {spec!r}")
    return out


def _parse_exact_int(text: str) -> int:
    """An integer in plain or scientific notation ("1e7", "1.0001e7"), read
    exactly; non-integral values are refused, never rounded.  Scan bounds
    must lie below 2^63, where the range sieve's int64 arithmetic ends."""
    try:
        value = decimal.Decimal(text.strip())
    except decimal.InvalidOperation:
        raise UsageError(f"not a number: {text!r}") from None
    if not value.is_finite():
        raise UsageError(f"not a number: {text!r}")
    if value.copy_abs() >= 2**63:
        raise UsageError(f"{text!r} is out of range: must be below 2^63")
    if value != value.to_integral_value():
        raise UsageError(f"not an integer: {text!r}")
    return int(value)


def _positive_int(text: str) -> int:
    """A grid bound, count or cap: an integer >= 1 (argparse refuses others)."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return int(text)


def _write_out(text: str, path: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> int:
    n0s = _parse_int_spec(args.n0)
    p0s = _parse_float_list(args.p0)
    table = bd.make_table(n0s, p0s)
    if args.format == "text":
        _write_out(bd.render_table_text(table), args.out)
    elif args.format == "csv":
        _write_out(bd.render_table_csv(table), args.out)
    else:
        _write_out(json.dumps(bd.table_to_json_obj(table), indent=2), args.out)
    return EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    n, p = args.n, args.p
    n0 = args.n0 if args.n0 is not None else n
    p0 = args.p0 if args.p0 is not None else p
    c, failed = bd.reference_g(n0, p0)
    bound, warnings = None, []
    if c is not None:
        bound = bd.compute_bound(n, p, c)
        if p < p0:
            warnings.append(f"p={p} is below p0={p0}: the frozen bound does not cover it")
        if n > n0:
            warnings.append(f"n={n} exceeds n0={n0}: the frozen bound does not cover it")
    if args.format == "json":
        _write_out(json.dumps({
            "n": n, "p": p, "n0": n0, "p0": p0, "c": c, "bound": bound,
            "reference_valid": c is not None, "failed_conditions": list(failed),
            "warnings": warnings,
        }, indent=2), args.out)
    elif c is None:
        print(f"reference pair (n0={n0}, p0={p0}) is invalid: {', '.join(failed)}",
              file=sys.stderr)
    else:
        lines = [
            f"C = g({n0}, {p0:g}) = {c:.6f} (publishable: {bd.ceil_3dp(c):.3f})",
            f"bound at (n={n}, p={p:g}): q_{n} <= {bound:.3f}",
        ]
        lines += [f"warning: {w}" for w in warnings]
        _write_out("\n".join(lines), args.out)
    return EXIT_USAGE if c is None else EXIT_OK


def cmd_nonresidues(args: argparse.Namespace) -> int:
    if not is_prime(args.p):
        raise UsageError(f"p={args.p} is not prime")
    cap_hit = False
    try:
        q = prime_nonresidues(args.p, args.d, args.n, search_cap=args.cap)
    except SearchCapExceededError as e:
        q = e.found
        cap_hit = True
    if args.format == "json":
        _write_out(json.dumps({
            "p": args.p, "d": args.d, "count": args.n, "q": q,
            "cap_exhausted": cap_hit, "search_cap": args.cap,
        }, indent=2), args.out)
    else:
        _write_out(" ".join(map(str, q)) if q else "", args.out)
        if cap_hit:
            print(
                f"search cap {args.cap} exhausted after {len(q)} of {args.n}",
                file=sys.stderr,
            )
    return EXIT_CAP if cap_hit else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import lemmas as lm  # only verify loads the lemma sweeps

    if args.all:
        selected = list(lm.LEMMA_NAMES)
    elif args.lemma:
        selected = []
        for spec in args.lemma:
            selected.extend(s.strip() for s in spec.split(",") if s.strip())
    else:
        print("error: select lemmas with --all or --lemma NAME", file=sys.stderr)
        return EXIT_USAGE

    cfg = lm.VerifyConfig(seed=args.seed)
    if args.r_max is not None:
        cfg.stirling_r_max = args.r_max
        cfg.convexity_r_max = args.r_max
        cfg.s_upper_r_max = min(args.r_max, cfg.s_upper_r_max)
    if args.x_max is not None:
        cfg.totient_x_max = args.x_max
    if args.h_max is not None:
        cfg.convexity_h_max = args.h_max
        cfg.s_upper_h_max = min(args.h_max, cfg.s_upper_h_max)
    if args.p_max is not None:
        cfg.s_upper_p_max = min(args.p_max, cfg.s_upper_p_max)
        cfg.disjoint_p_max = args.p_max
        cfg.proposition_p_limit = args.p_max
        cfg.shifted_p_limit = min(args.p_max, cfg.shifted_p_limit)
    if args.trials is not None:
        cfg.disjoint_trials = args.trials
    if args.instances is not None:
        cfg.proposition_instances = args.instances

    report = lm.run_verification(selected, cfg)
    for name, rep in report["lemmas"].items():
        status = "PASS" if rep["failures"] == 0 else "FAIL"
        print(
            f"{status} {name}: {rep['instances_run']} instances, "
            f"{rep['failures']} failures, {rep['vacuous_skips']} vacuous, "
            f"{rep['elapsed_s']:.1f}s"
        )
    _write_out(json.dumps(report, indent=2), args.report or None)
    return EXIT_OK if report["all_passed"] else EXIT_FAIL


def _order_policy(spec: str) -> sc.OrderPolicy:
    if spec == "quadratic":
        return sc.OrderPolicy.quadratic()
    if spec.startswith("upto:"):
        return sc.OrderPolicy.divisors_up_to(int(spec[5:]))
    if spec.startswith("set:"):
        return sc.OrderPolicy.fixed_set([int(x) for x in spec[4:].split(",")])
    raise UsageError(
        f"bad order policy {spec!r}; use quadratic, upto:D or set:d1,d2,..."
    )


def _env_workers() -> int:
    """The default scan worker count: NONRES_WORKERS, or 1 if it is unset."""
    text = os.environ.get("NONRES_WORKERS", "1")
    try:
        return _positive_int(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"NONRES_WORKERS must be an integer >= 1, got {text!r}") from None


def cmd_scan(args: argparse.Namespace) -> int:
    workers = args.workers if args.workers is not None else _env_workers()
    policy = _order_policy(args.orders)
    task = sc.ScanTask.make(
        p_lo=_parse_exact_int(args.p_lo),
        p_hi=_parse_exact_int(args.p_hi),
        policy=policy,
        n_max=args.n_max,
        n0=args.n0,
        p0=args.p0,
        c=args.c,
        search_cap=args.cap,
        shard_width=args.shard_width,
        check_bound=not args.no_bound_check,
    )
    try:
        summary = sc.run_scan(
            task,
            out_path=args.out,
            fmt=args.format,
            workers=workers,
            checkpoint_path=args.checkpoint,
            stop_after_shards=args.stop_after_shards,
            raise_on_violation=not args.keep_going,
        )
    except sc.ScanViolationError as e:
        print(f"BOUND VIOLATION (implementation bug): {e}", file=sys.stderr)
        return EXIT_FAIL
    except sc.TaskMismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    _write_out(summary.to_json(), args.summary)
    if summary.aggregate.violations > 0:
        return EXIT_FAIL
    if summary.aggregate.cap_exhausted > 0:
        return EXIT_CAP
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nonres",
        description="Explicit bounds for small prime nonresidues: constants, "
        "characters, lemma verification and range scanning.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="regenerate the frozen-constant table")
    t.add_argument("--n0", default=TABLE_DEFAULT_N0, help="rows, e.g. 1..8 or 2,4")
    t.add_argument("--p0", default=TABLE_DEFAULT_P0,
                   help="columns, e.g. 1e7,1e8 (scientific notation ok)")
    t.add_argument("--format", choices=("text", "csv", "json"), default="text")
    t.add_argument("--out", default=None, help="output path (default stdout)")
    t.set_defaults(func=cmd_table)

    b = sub.add_parser("bound", help="frozen constant and bound at (n, p)")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--p", type=_parse_finite, required=True)
    b.add_argument("--n0", type=int, default=None, help="reference n0 (default n)")
    b.add_argument("--p0", type=_parse_finite, default=None, help="reference p0 (default p)")
    b.add_argument("--format", choices=("text", "json"), default="text")
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bound)

    q = sub.add_parser("nonresidues", help="smallest prime nonresidues")
    q.add_argument("--p", type=int, required=True, help="odd prime modulus")
    q.add_argument("--d", type=int, required=True, help="character order, d | p-1")
    q.add_argument("--n", type=_positive_int, required=True, help="how many")
    q.add_argument("--cap", type=_positive_int, default=DEFAULT_SEARCH_CAP, help="search cap on q")
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_nonresidues)

    v = sub.add_parser("verify", help="run lemma oracles")
    v.add_argument("--all", action="store_true", help="run every lemma sweep")
    v.add_argument("--lemma", action="append", default=None,
                   help="a lemma to run (repeatable, comma-separated); --all runs "
                        "every one, and an unknown name is refused with the valid list")
    v.add_argument("--small", action="store_true",
                   help="no effect: the default grid runs with or without it "
                        "(kept for compatibility)")
    for opt in ("--r-max", "--x-max", "--h-max", "--p-max", "--trials", "--instances"):
        v.add_argument(opt, type=_positive_int, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--report", default=None, help="write the JSON report here")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("scan", help="scan a prime range against a frozen bound")
    s.add_argument("--p-lo", required=True, help="integer, e.g. 10000019 or 1e7")
    s.add_argument("--p-hi", required=True, help="integer, e.g. 1.01e7")
    s.add_argument("--orders", default="quadratic",
                   help="quadratic | upto:D | set:d1,d2,...")
    s.add_argument("--n-max", type=int, default=1)
    s.add_argument("--n0", type=int, default=None, help="reference n0 (default n-max)")
    s.add_argument("--p0", type=_parse_finite, default=None,
                   help="reference p0 (default p-lo)")
    s.add_argument("--c", type=_parse_finite, default=None,
                   help="frozen constant (default: g(n0,p0) rounded up)")
    s.add_argument("--cap", type=_positive_int, default=DEFAULT_SEARCH_CAP)
    s.add_argument("--shard-width", type=int, default=sc.DEFAULT_SHARD_WIDTH)
    s.add_argument("--workers", type=_positive_int, default=None,
                   help="worker processes, started only for a scan of more than one "
                        "2^17-integer batch, at most one per batch "
                        "(default: NONRES_WORKERS, else 1)")
    s.add_argument("--out", default=None, help="record stream path")
    s.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    s.add_argument("--summary", default=None, help="summary path (default stdout)")
    s.add_argument("--checkpoint", default=None, help="checkpoint file; resumes if present")
    s.add_argument("--stop-after-shards", type=_positive_int, default=None,
                   help="stop early after N shards (for interruption testing)")
    s.add_argument("--keep-going", action="store_true",
                   help="record violations instead of halting")
    s.add_argument("--no-bound-check", action="store_true",
                   help="skip the reference constant entirely (the summary's "
                   "c is then null unless --c is given)")
    s.set_defaults(func=cmd_scan)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
