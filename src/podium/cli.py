"""Command-line front end.

Commands: compute, verify, expand, oracle, bench.  Results go to standard
output (or --out PATH), diagnostics to standard error.  Exit codes are a
stable contract for CI: 0 success or all-pass, 1 verification failure,
2 usage or parse error, an order past MAX_ORDER, an unreadable manifest
or an unwritable output path.  Only `main` turns an error into exit 2,
with one "podium: ..." line on standard error.  PODIUM_ORDER sets the
default truncation order; an explicit --order flag wins.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from typing import Optional

from . import __version__
from .dsl import parse, evaluate
from .manifest import (
    MAX_ORDER,
    bundled_manifest,
    load_manifest,
    run_oracle_suite,
    run_suite,
)
from .partitions import FunctionId, gf_series, table

FALLBACK_ORDER = 300


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error for main to report, instead of printing usage."""

    def error(self, message: str):
        raise ValueError(message)


def nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def bounded_order(value: int, name: str) -> int:
    """`value` if it is at most MAX_ORDER; past it, a ValueError."""
    if value > MAX_ORDER:
        raise ValueError(f"{name}={value}: must be <= {MAX_ORDER}")
    return value


def resolve_order(flag: Optional[int]) -> int:
    """The --order flag, else PODIUM_ORDER, else FALLBACK_ORDER.

    A PODIUM_ORDER that is not a non-negative integer, and either value
    past MAX_ORDER, is a usage error (ValueError).
    """
    if flag is not None:
        return bounded_order(flag, "--order")
    env = os.environ.get("PODIUM_ORDER")
    if env is None:
        return FALLBACK_ORDER
    try:
        value = nonneg_int(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"PODIUM_ORDER={env!r}: {exc}") from None
    return bounded_order(value, "PODIUM_ORDER")


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
    values = table(fid, bounded_order(args.nmax, "NMAX"))
    _emit(_format_values(fid.value, values, args.format), args.out)
    return 0


def _emit_report(report, out_path: Optional[str]) -> int:
    """Emit a suite report and its timing line; 0 if every entry passed, else 1."""
    _emit("\n".join(report.lines()) + "\n", out_path)
    print(f"({report.seconds:.2f}s)", file=sys.stderr)
    return 0 if report.all_pass else 1


def cmd_verify(args) -> int:
    records = bundled_manifest() if args.manifest is None else load_manifest(args.manifest)
    if args.id is not None:
        records = [r for r in records if r.id == args.id]
        if not records:
            raise ValueError(f"no identity with id {args.id!r}")
    return _emit_report(run_suite(records, order=resolve_order(args.order)), args.out)


def cmd_expand(args) -> int:
    series = evaluate(parse(args.expression), resolve_order(args.order))
    # str() of a coefficient past the int-to-string digit limit raises ValueError
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
    return _emit_report(run_oracle_suite(caps=caps, functions=functions), args.out)


def _sha256_of(series) -> str:
    payload = ",".join(str(c) for c in series).encode("ascii")
    return hashlib.sha256(payload).hexdigest()


def _bench_run(order: int) -> dict:
    """Time the pod build, one pod*pod product and the bundled suite.

    The build leaves pod's expansion in dsl.evaluate's memo, where the
    suite finds it; a record's seconds include only the eta quotients it
    expands, not those it finds in the memo.
    """
    started = time.perf_counter()
    pod = gf_series(FunctionId.POD, order)
    build_ms = (time.perf_counter() - started) * 1000.0

    started = time.perf_counter()
    product = pod * pod
    mul_ms = (time.perf_counter() - started) * 1000.0

    started = time.perf_counter()
    report = run_suite(order=order)
    verify_ms = (time.perf_counter() - started) * 1000.0

    return {
        "order": order,
        "pod_build_ms": build_ms,
        "pod_sha256": _sha256_of(pod),
        "mul_ms": mul_ms,
        "mul_sha256": _sha256_of(product),
        "verify_ms": verify_ms,
        "verify_passed": f"{report.passed}/{report.total}",
        "record_seconds": {entry.name: entry.seconds for entry in report.entries},
    }


def cmd_bench(args) -> int:
    orders = [resolve_order(order) for order in args.order or [None]]
    runs = []
    for order in orders:
        run = _bench_run(order)
        runs.append(run)
        lines = [
            f"{key}={value:.1f}" if key.endswith("_ms") else f"{key}={value}"
            for key, value in run.items()
            if key != "record_seconds"
        ]
        sys.stdout.write("\n".join(lines) + "\n")
    if args.json is not None:
        document = {
            "python_version": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "runs": runs,
        }
        with open(args.json, "w", encoding="ascii") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    p.add_argument("--order", type=nonneg_int, nargs="+", default=None,
                   help="one or more orders, each run in turn")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the timings, per-record seconds and checksums as JSON")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"podium: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
