"""Command-line front end.

Commands: compute, verify, expand, oracle, bench.  Results go to standard
output (or --out PATH), diagnostics to standard error.  Exit codes are a
stable contract for CI: 0 success or all-pass, 1 verification failure,
2 usage or parse error.  PODIUM_ORDER sets the default truncation order;
an explicit --order flag wins.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from typing import Optional

from . import __version__
from .dsl import parse, evaluate
from .manifest import (
    ManifestError,
    bundled_manifest,
    load_manifest,
    run_oracle_suite,
    run_suite,
)
from .partitions import DEFAULT_CAPS, FunctionId, gf_series, table

FALLBACK_ORDER = 300


def nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def default_order() -> int:
    """PODIUM_ORDER if set, else FALLBACK_ORDER; a bad value is a usage error."""
    env = os.environ.get("PODIUM_ORDER")
    if env is None:
        return FALLBACK_ORDER
    try:
        return nonneg_int(env)
    except argparse.ArgumentTypeError as exc:
        print(f"podium: PODIUM_ORDER={env!r}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _emit(text: str, out_path: Optional[str]):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii") as handle:
            handle.write(text)


def _format_values(name: str, values, fmt: str) -> str:
    if fmt == "csv":
        lines = ["n,value"] + [f"{n},{v}" for n, v in enumerate(values)]
        return "\n".join(lines) + "\n"
    if fmt == "bfile":
        return "".join(f"{n} {v}\n" for n, v in enumerate(values))
    width_n = len(str(len(values) - 1))
    width_v = max(len(str(v)) for v in values)
    header = f"{'n':>{width_n}}  {name}(n)"
    rows = [f"{n:>{width_n}}  {str(v):>{width_v}}" for n, v in enumerate(values)]
    return "\n".join([header] + rows) + "\n"


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_compute(args) -> int:
    fid = FunctionId.from_name(args.function)
    values = table(fid, args.nmax)
    _emit(_format_values(fid.value, values, args.format), args.out)
    return 0


def cmd_verify(args) -> int:
    try:
        records = bundled_manifest() if args.manifest is None else load_manifest(args.manifest)
    except (ManifestError, OSError) as exc:
        print(f"podium: {exc}", file=sys.stderr)
        return 2
    if args.id is not None:
        records = [r for r in records if r.id == args.id]
        if not records:
            print(f"podium: no identity with id {args.id!r}", file=sys.stderr)
            return 2
    order = args.order if args.order is not None else default_order()
    report = run_suite(records, order=order)
    _emit("\n".join(report.lines()) + "\n", args.out)
    print(f"({report.seconds:.2f}s)", file=sys.stderr)
    return 0 if report.all_pass else 1


def cmd_expand(args) -> int:
    order = args.order if args.order is not None else default_order()
    try:
        series = evaluate(parse(args.expression), order)
    except ValueError as exc:
        print(f"podium: {exc}", file=sys.stderr)
        return 2
    _emit(" ".join(str(c) for c in series) + "\n", args.out)
    return 0


def cmd_oracle(args) -> int:
    functions = None
    if args.function is not None:
        functions = [FunctionId.from_name(args.function)]
    caps = None
    if args.cap is not None:
        targets = functions if functions is not None else list(FunctionId)
        caps = {fid: args.cap for fid in targets}
    report = run_oracle_suite(caps=caps, functions=functions)
    _emit("\n".join(report.lines()) + "\n", args.out)
    print(f"({report.seconds:.2f}s)", file=sys.stderr)
    return 0 if report.all_pass else 1


def _sha256_of(series) -> str:
    payload = ",".join(str(c) for c in series).encode("ascii")
    return hashlib.sha256(payload).hexdigest()


def cmd_bench(args) -> int:
    order = args.order if args.order is not None else default_order()
    lines = [f"order={order}"]

    started = time.perf_counter()
    pod = gf_series(FunctionId.POD, order)
    build_ms = (time.perf_counter() - started) * 1000.0
    lines.append(f"pod_build_ms={build_ms:.1f}")
    lines.append(f"pod_sha256={_sha256_of(pod)}")

    started = time.perf_counter()
    product = pod * pod
    mul_ms = (time.perf_counter() - started) * 1000.0
    lines.append(f"mul_ms={mul_ms:.1f}")
    lines.append(f"mul_sha256={_sha256_of(product)}")

    started = time.perf_counter()
    report = run_suite(order=order)
    verify_ms = (time.perf_counter() - started) * 1000.0
    lines.append(f"verify_ms={verify_ms:.1f}")
    lines.append(f"verify_passed={report.passed}/{report.total}")

    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="podium",
        description="Exact q-series tables, expansion, and identity verification.",
    )
    parser.add_argument("--version", action="version", version=f"podium {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    names = [f.value for f in FunctionId]

    p = sub.add_parser("compute", help="print a table of one counting function")
    p.add_argument("function", choices=names, metavar="FUNCTION",
                   help="one of: " + ", ".join(names))
    p.add_argument("nmax", type=nonneg_int, help="largest index to print")
    p.add_argument("--format", choices=("table", "csv", "bfile"), default="table")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="check the identity manifest")
    p.add_argument("--manifest", metavar="PATH", default=None,
                   help="external manifest file (defaults to the bundled one)")
    p.add_argument("--order", type=nonneg_int, default=None,
                   help="raise every record to at least this order")
    p.add_argument("--id", metavar="SLUG", default=None, help="check a single record")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("expand", help="evaluate an expression to coefficients")
    p.add_argument("expression")
    p.add_argument("--order", type=nonneg_int, default=None)
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("oracle", help="enumeration versus series cross-check")
    p.add_argument("--function", choices=names, metavar="NAME", default=None,
                   help="restrict to one function")
    p.add_argument("--cap", type=nonneg_int, default=None,
                   help="override the enumeration cap (hard ceiling still applies)")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="time the heavy paths and print checksums")
    p.add_argument("--order", type=nonneg_int, default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
