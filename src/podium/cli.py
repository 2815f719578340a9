"""Command-line front end.

Commands: compute, verify, expand, oracle, bench.  Results go to standard
output (or --out PATH), diagnostics to standard error.  Exit codes are a
stable contract for CI: 0 success or all-pass, 1 verification failure,
2 usage or parse error, an order past MAX_ORDER, an unreadable manifest
or an unwritable output path.  Only `main` turns an error into exit 2,
with one "podium: ..." line on standard error.  With no --order,
verify, expand and bench use order FALLBACK_ORDER (300).
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
from .dsl import FunctionId, evaluate, parse
from .manifest import (
    MAX_ORDER,
    bundled_manifest,
    load_manifest,
    run_oracle_suite,
    run_suite,
)
from .partitions import gf_series, table
from .series import _ETA_MEMO, pochhammer

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


def order_int(text: str) -> int:
    """A non-negative integer at most MAX_ORDER: an --order, or compute's nmax."""
    value = nonneg_int(text)
    if value > MAX_ORDER:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_ORDER}")
    return value


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


def _emit_report(report, out_path: Optional[str]) -> int:
    """Emit a suite report and its timing line; 0 if every entry passed, else 1."""
    _emit("\n".join(report.lines()) + "\n", out_path)
    print(f"({report.seconds:.2f}s)", file=sys.stderr)
    return 0 if report.all_pass else 1


def cmd_verify(args) -> int:
    records = bundled_manifest() if args.manifest is None else load_manifest(args.manifest)
    if not records:
        raise ValueError(f"{args.manifest}: no [identity] record to check")
    if args.id is not None:
        records = [r for r in records if r.id == args.id]
        if not records:
            raise ValueError(f"no identity with id {args.id!r}")
    return _emit_report(run_suite(records, order=args.order), args.out)


def cmd_expand(args) -> int:
    series = evaluate(parse(args.expression), args.order)
    texts = []
    for n, c in enumerate(series):
        try:
            texts.append(str(c))
        except ValueError:  # past the interpreter's int-to-string digit limit
            raise ValueError(f"coefficient {n} has {c.bit_length()} bits, too many to print") from None
    _emit(" ".join(texts) + "\n", args.out)
    return 0


def cmd_oracle(args) -> int:
    functions = None
    if args.function is not None:
        functions = [FunctionId.from_name(args.function)]
    return _emit_report(run_oracle_suite(args.cap, functions), args.out)


def _sha256_of(series) -> str:
    payload = ",".join(str(c) for c in series).encode("ascii")
    return hashlib.sha256(payload).hexdigest()


def _timed_ms(work):
    """work() and its wall time in milliseconds."""
    started = time.perf_counter()
    value = work()
    return value, (time.perf_counter() - started) * 1000.0


def _bench_run(order: int) -> dict:
    """Time the pod build, one pod*pod product and the bundled suite.

    The caller loads the bundled manifest first, so verify_ms is the
    suite's checks alone.  Each order starts cold: the eta memo of
    podium.series and pochhammer's cache are emptied first, since an
    expansion at one order answers every lower one, and an order run
    before would leave its work there.  The build then leaves pod's
    expansion in the memo, where the suite finds it; a record's seconds
    include only the eta passes it runs, not the expansions or plan
    prefixes it finds in the memo.
    """
    _ETA_MEMO.clear()
    pochhammer.cache_clear()
    pod, build_ms = _timed_ms(lambda: gf_series(FunctionId.POD, order))
    product, mul_ms = _timed_ms(lambda: pod * pod)
    report, verify_ms = _timed_ms(lambda: run_suite(order=order))

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


def _bench_document(orders) -> dict:
    """Run and print each order in turn; the runs and the host, as JSON."""
    # Load the bundled manifest before any timed run, so that its parse is
    # not charged to the first order's verify_ms.
    _, manifest_ms = _timed_ms(bundled_manifest)
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
    return {
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "manifest_ms": manifest_ms,
        "runs": runs,
    }


def cmd_bench(args) -> int:
    if args.json is None:
        _bench_document(args.order)
        return 0
    # Open the JSON path before the first run, so that an unwritable one
    # fails at once rather than after every order has run.
    with open(args.json, "w", encoding="ascii") as handle:
        json.dump(_bench_document(args.order), handle, indent=2)
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
    p.add_argument("nmax", type=order_int, help="largest index to print")
    p.add_argument("--format", choices=("table", "csv", "bfile"), default="table")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="check the identity manifest")
    p.add_argument("--manifest", metavar="PATH", default=None,
                   help="external manifest file (defaults to the bundled one)")
    p.add_argument("--order", type=order_int, default=FALLBACK_ORDER,
                   help="raise every record to at least this order")
    p.add_argument("--id", metavar="SLUG", default=None, help="check a single record")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("expand", help="evaluate an expression to coefficients")
    p.add_argument("expression")
    p.add_argument("--order", type=order_int, default=FALLBACK_ORDER)
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
    p.add_argument("--order", type=order_int, nargs="+", default=[FALLBACK_ORDER],
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
