"""The bundled identity manifest and the suite runners.

Identities live as data: a line-oriented text file of records, each
holding two expressions in the identity language, a truncation order, an
optional modulus, and its literature anchor.  :func:`run_suite` checks
every record coefficient by coefficient; :func:`run_oracle_suite` checks
each partition function's product form against its enumeration oracle.
"""

from __future__ import annotations

import os
import re
import time
from functools import lru_cache
from typing import Dict, Iterable, Optional, Sequence, Tuple

from . import dsl
from ._value import Value
from .dsl import FunctionId
from .partitions import DEFAULT_CAPS, count_by_enumeration, gf_series


# The largest truncation order accepted from outside: a manifest's
# order=, and the command line's --order and compute's nmax.  The
# bundled records use at most 300; gf(pod) checked against its product
# form takes about 2.1 s and 33 MB peak RSS at this order (`verify
# --manifest` of that one record, median of 3; whole process, 2-core
# host, CPython 3.11.7), so a larger request is refused before any work.
MAX_ORDER = 100_000


class ManifestError(ValueError):
    """A manifest file could not be parsed or validated."""

    def __init__(self, message: str, source: str, line: int):
        self.source = source
        self.line = line
        super().__init__(f"{source}:{line}: {message}")


class IdentityRecord(Value):
    """One named identity: two expressions plus checking parameters."""

    __slots__ = ("id", "lhs", "rhs", "order", "modulus", "description", "ref", "quote")
    _defaults = {"modulus": None, "description": "", "ref": "", "quote": ""}

    @property
    def anchor(self) -> str:
        return f"{self.ref}: {self.quote}" if self.ref else self.quote


_KNOWN_KEYS = ("id", "desc", "ref", "quote", "lhs", "rhs", "order", "mod")
_REQUIRED_KEYS = ("id", "lhs", "rhs", "order")
# Anything but tab, the line breaks CR and LF, and the printable ASCII
# 0x20-0x7e: a control character could reach the terminal verbatim, and
# a form feed or vertical tab would be a line break to str.splitlines.
_NOT_PRINTABLE = re.compile(r"[^\t\n\r -~]")


def _integer(value: str, key: str, low: int, high: Optional[int], source: str, line: int) -> int:
    """A record's `key=` field as an integer from `low` to `high`, or to
    any size when `high` is None."""
    try:
        number = int(value)
    except ValueError:
        raise ManifestError(f"{key}= must be an integer", source, line) from None
    if number < low:
        raise ManifestError(f"{key}= must be >= {low}", source, line)
    if high is not None and number > high:
        raise ManifestError(f"{key}= must be <= {high}", source, line)
    return number


def _add_record(fields: Dict[str, str], records: dict, source: str, line: int) -> None:
    """Check the fields of the record that starts at `line`, and add it to
    `records`, the records read before it by id."""
    for key in _REQUIRED_KEYS:
        if key not in fields:
            raise ManifestError(f"record is missing {key}=", source, line)
    rec_id = fields["id"]
    if rec_id in records:
        raise ManifestError(f"duplicate record id {rec_id!r}", source, line)
    order = _integer(fields["order"], "order", 0, MAX_ORDER, source, line)
    modulus = _integer(fields["mod"], "mod", 2, None, source, line) if "mod" in fields else None
    for side in ("lhs", "rhs"):
        try:
            dsl.parse(fields[side])
        except dsl.ParseError as exc:
            raise ManifestError(
                f"record {rec_id!r} {side} does not parse: {exc}", source, line
            ) from exc
    records[rec_id] = IdentityRecord(
        id=rec_id,
        lhs=fields["lhs"],
        rhs=fields["rhs"],
        order=order,
        modulus=modulus,
        description=fields.get("desc", ""),
        ref=fields.get("ref", ""),
        quote=fields.get("quote", ""),
    )


def parse_manifest(text: str, source: str = "<manifest>") -> Tuple[IdentityRecord, ...]:
    """Parse manifest text into records, validating every expression.

    Each line is checked as it is read: the 7-bit printable rule, the one
    rule on a manifest's characters (load_manifest and bundled_manifest
    both decode Latin-1, so every byte reaches it), then its key.  A
    record is checked when the next `[identity]` line or the end of the
    text is read, so a bad line inside a record is reported before the
    record's own error, and a bad record before any bad line after the
    next `[identity]`.
    """
    records: Dict[str, IdentityRecord] = {}
    fields: Optional[Dict[str, str]] = None
    start_line = 0
    for line_no, raw in enumerate(text.splitlines(keepends=True), start=1):
        if _NOT_PRINTABLE.search(raw):
            raise ManifestError("manifest must be 7-bit printable", source, line_no)
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[identity]":
            if fields is not None:
                _add_record(fields, records, source, start_line)
            fields, start_line = {}, line_no
            continue
        if "=" not in line:
            raise ManifestError(f"expected key=value, got {line!r}", source, line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ManifestError(f"unknown key {key!r}", source, line_no)
        if fields is None:
            raise ManifestError("key=value outside any [identity] record", source, line_no)
        if key in fields:
            raise ManifestError(f"duplicate key {key!r}", source, line_no)
        fields[key] = value.strip()
    if fields is not None:
        _add_record(fields, records, source, start_line)
    return tuple(records.values())


def load_manifest(path: str) -> Tuple[IdentityRecord, ...]:
    """Read and parse a manifest file."""
    # Latin-1 decodes every byte, so a byte past 7 bits reaches the
    # printable check and is reported with its line, not as a decode error;
    # bundled_manifest decodes alike.
    with open(path, "r", encoding="latin-1") as handle:
        return parse_manifest(handle.read(), source=path)


@lru_cache(maxsize=1)
def bundled_manifest() -> Tuple[IdentityRecord, ...]:
    """The identity manifest shipped with the package."""
    # The module's own loader reads the file, from a directory or a zip
    # alike; importlib.resources would cost start-up, since from CPython
    # 3.12 it imports inspect.
    path = os.path.join(os.path.dirname(__file__), "data", "identities.txt")
    text = __spec__.loader.get_data(path).decode("latin-1")
    return parse_manifest(text, source="bundled identities.txt")


# ----------------------------------------------------------------------
# suite running
# ----------------------------------------------------------------------

class SuiteEntry(Value):
    """Outcome of one checked identity or one oracle comparison.

    `status` is "pass", "mismatch" (the sides differ; `detail` says
    where) or "error" (the check raised; `detail` is its message).
    `seconds` is the check's own wall time.  Sides that share an eta
    quotient, or a prefix of its plan, share its expansion in the eta memo
    of podium.series (see series.eta_quotient), which answers its order
    and every lower one: the record that expands it is charged, and a
    later one that finds it, at the same order or a lower one, is not.
    """

    __slots__ = ("name", "status", "order", "seconds", "detail", "anchor")
    _defaults = {"detail": "", "anchor": ""}

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        out = f"{verdict}  {self.name}  order={self.order}"
        if self.detail:
            out += f"  {self.detail}"
        if self.anchor:
            out += f"  [{self.anchor}]"
        return out


class SuiteReport(Value):
    """Entries in manifest order plus summary counters.

    The body (:meth:`lines`) is deterministic for fixed inputs; wall
    times are kept out of it.
    """

    __slots__ = ("entries",)

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def passed(self) -> int:
        return sum(1 for e in self.entries if e.passed)

    @property
    def all_pass(self) -> bool:
        return self.passed == self.total

    @property
    def seconds(self) -> float:
        return sum(e.seconds for e in self.entries)

    def lines(self) -> list:
        body = [entry.line() for entry in self.entries]
        body.append(f"passed {self.passed}/{self.total}")
        return body


def _timed(name: str, order: int, anchor: str, check, *args) -> SuiteEntry:
    """Time `check(*args)`, which returns a mismatch or None, as one entry.

    A ValueError from the check is an error entry, never raised.
    """
    started = time.perf_counter()
    try:
        mismatch = check(*args)
    except ValueError as exc:
        status, detail = "error", str(exc)
    else:
        status = "pass" if mismatch is None else "mismatch"
        detail = "" if mismatch is None else str(mismatch)
    return SuiteEntry(name, status, order, time.perf_counter() - started, detail, anchor)


def _check_record(rec: IdentityRecord, order: int) -> Optional[dsl.Mismatch]:
    return dsl.check(dsl.parse(rec.lhs), dsl.parse(rec.rhs), order, rec.modulus)


def _check_oracle(fid: FunctionId, cap: int) -> Optional[str]:
    series = gf_series(fid, cap)
    for n in range(cap + 1):
        counted = count_by_enumeration(fid, n, cap=cap)
        if counted != series[n]:
            return f"n={n}: enumeration {counted} != series {series[n]}"
    return None


def run_suite(
    records: Optional[Sequence[IdentityRecord]] = None,
    order: Optional[int] = None,
) -> SuiteReport:
    """Check every record; evaluation errors are captured, never raised.

    With an order override each record runs at the larger of its own
    default and the override.  Entries keep manifest order.
    """
    if records is None:
        records = bundled_manifest()
    entries = []
    for rec in records:
        effective = rec.order if order is None else max(rec.order, order)
        entries.append(_timed(rec.id, effective, rec.anchor, _check_record, rec, effective))
    return SuiteReport(tuple(entries))


def run_oracle_suite(
    cap: Optional[int] = None,
    functions: Optional[Iterable[FunctionId]] = None,
) -> SuiteReport:
    """Compare enumeration against series coefficients for each function.

    Checks f(n) for every n up to `cap`, or up to each function's default
    cap when it is None.  Cap refusals and other ValueErrors surface as
    error entries, not exceptions.
    """
    entries = []
    for fid in functions if functions is not None else list(FunctionId):
        limit = DEFAULT_CAPS[fid] if cap is None else cap
        entries.append(_timed(fid.value, limit, "", _check_oracle, fid, limit))
    return SuiteReport(tuple(entries))
