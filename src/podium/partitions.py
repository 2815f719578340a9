"""The partition-counting functions, each realized two independent ways.

Every function has a closed product form, a line of identity-language
text in :data:`PRODUCT_FORMS` that :func:`gf_series` evaluates from its
one parse, :func:`podium.dsl.product_form`, and a brute-force
combinatorial count, :func:`count_by_enumeration`, that generates the
defining objects one by one.  The two paths share no code beyond integer
arithmetic, so each one is an oracle for the other; the oracle suite in
:mod:`podium.manifest` compares them coefficient by coefficient.

The count comes from one depth-first walk per (function, limit) that
visits every object of total <= limit exactly once, the classical
one-object-per-step partition generation (Knuth, TAOCP vol. 4A,
§7.2.1.4), and adds its weight at its own total.  The per-total table is
cached, so checking f(0..cap) one n at a time costs a single walk.

Each function's oracle is one row of data: a rule giving the allowed
part sizes with their multiplicity bound and colors, a weight, an
optional filter, and, since enumeration is exponential in spirit, a
default cap and a hard ceiling past which it refuses to run; a refused
call generates nothing.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Optional

from . import dsl
from ._value import Value
# pochhammer is not called here, but benchmark/test_benchmark.py checks this binding
from .series import Series, pochhammer  # noqa: F401


class CapExceededError(ValueError):
    """Enumeration was asked to run past its safety cap."""


class FunctionId(enum.Enum):
    """The sixteen counting functions; values are the CLI-facing names."""

    P = "p"            # unrestricted partitions
    POD = "pod"        # odd parts distinct
    PED = "ped"        # even parts distinct
    QDIST = "qdist"    # all parts distinct
    QODD = "qodd"      # distinct odd parts only
    PEO = "peo"        # (-1)^{#parts} over all partitions
    QEO = "qeo"        # (-1)^{#odd parts} over distinct-part partitions
    OPBAR = "opbar"    # overpartitions
    OPODD = "opodd"    # overpartitions into odd parts
    AFUN = "afun"      # (-1)^{#parts} over 2-colored-even partitions
    CUBIC = "cubic"    # even parts in two colors
    P3 = "p3"          # all parts in three colors
    P2MOD4 = "p2mod4"  # parts congruent to 2 mod 4
    QODD3 = "qodd3"    # distinct odd parts in three colors
    EO = "eo"          # every even part below every odd part
    EOBAR = "eobar"    # EO, odd multiplicity only at the largest even part

    @classmethod
    def from_name(cls, name: str) -> "FunctionId":
        for fid in cls:
            if fid.value == name:
                return fid
        known = ", ".join(f.value for f in cls)
        raise ValueError(f"unknown function {name!r}; known: {known}")


# ----------------------------------------------------------------------
# product-form generating series
# ----------------------------------------------------------------------
#
# POD's other classical quotients are verified as manifest identities, not
# used as alternates; EO's (1-q) is a plain two-term polynomial.

PRODUCT_FORMS = {
    FunctionId.P: "1 / poch(q^1, q^1)",
    FunctionId.POD: "poch(q^2, q^2) / (poch(q^1, q^1) * poch(q^4, q^4))",
    FunctionId.PED: "poch(q^4, q^4) / poch(q^1, q^1)",
    FunctionId.QDIST: "poch(-q^1, q^1)",
    FunctionId.QODD: "poch(-q^1, q^2)",
    FunctionId.PEO: "1 / poch(-q^1, q^1)",
    FunctionId.QEO: "1 / poch(-q^1, q^2)",
    FunctionId.OPBAR: "poch(q^2, q^2) * poch(q^1, q^1)^-2",
    FunctionId.OPODD: "poch(q^2, q^2)^3 / (poch(q^1, q^1)^2 * poch(q^4, q^4))",
    FunctionId.AFUN: "poch(q^1, q^1) / poch(q^4, q^4)",
    FunctionId.CUBIC: "1 / (poch(q^1, q^1) * poch(q^2, q^2))",
    FunctionId.P3: "poch(q^1, q^1)^-3",
    FunctionId.P2MOD4: "1 / poch(q^2, q^4)",
    FunctionId.QODD3: "poch(-q^1, q^2)^3",
    FunctionId.EO: "1 / ((1 - q^1) * poch(q^2, q^2))",
    FunctionId.EOBAR: "poch(q^4, q^4)^3 * poch(q^2, q^2)^-2",
}


@lru_cache(maxsize=64)
def gf_series(fid: FunctionId, order: int) -> Series:
    """Generating series of `fid` truncated at `order`, via its product form."""
    return dsl.evaluate(dsl.product_form(fid), order)


def table(fid: FunctionId, nmax: int) -> list:
    """Values f(0..nmax) as a plain list, computed from the product form."""
    return list(gf_series(fid, nmax).coeffs)


# ----------------------------------------------------------------------
# enumeration oracles
# ----------------------------------------------------------------------
#
# Each function's oracle is one row of _RULES.  Its objects are built from
# "slots": (size, max multiplicity) pairs in descending size order.  A
# c-colored part value appears as c slots of the same size, so
# color-multiplicity splits are enumerated explicitly.

Slots = list
Parts = tuple  # tuple of (size, multiplicity), multiplicity >= 1


def _weight_one(parts):
    return 1


def _weight_alt_parts(parts):
    return -1 if sum(m for _, m in parts) % 2 else 1


def _weight_alt_odd_parts(parts):
    return -1 if sum(m for s, m in parts if s % 2) % 2 else 1


def _keep_eo(parts):
    evens = [s for s, _ in parts if s % 2 == 0]
    odds = [s for s, _ in parts if s % 2 == 1]
    return not evens or not odds or max(evens) < min(odds)


def _keep_eobar(parts):
    # Only the largest even part may (and, when present, must) appear an
    # odd number of times; with no even part every multiplicity is even.
    if not _keep_eo(parts):
        return False
    odd_mult = {s for s, m in parts if m % 2 == 1}
    evens = [s for s, _ in parts if s % 2 == 0]
    if evens:
        return odd_mult == {max(evens)}
    return not odd_mult


class _Rule(Value):
    """One function's oracle as data.

    `cap` is the default enumeration bound and `ceiling` the hard one:
    caps keep the exhaustive counts to seconds, and the ceiling blocks an
    accidental exponential blowup even when a caller overrides the cap.
    `part(v)` gives (max multiplicity or None, colors) for an allowed part
    size v, else None; by default every size is allowed, uncolored and
    unbounded.  `weight(parts)` is an object's signed weight (1 by
    default), `keep(parts)`, when given, decides whether an object counts,
    and `overlined` counts each distinct part value both plain and
    overlined.
    """

    __slots__ = ("cap", "ceiling", "part", "weight", "keep", "overlined")
    _defaults = {
        "part": lambda v: (None, 1),
        "weight": _weight_one,
        "keep": None,
        "overlined": False,
    }

    def slots(self, n: int) -> Slots:
        """The slots of every allowed part size up to n, largest first."""
        out = []
        for v in range(n, 0, -1):
            allowed = self.part(v)
            if allowed is not None:
                most, colors = allowed
                out.extend([(v, most)] * colors)
        return out


# One row per function: default cap, hard ceiling, part rule, then any
# weight, filter or overlining.  DEFAULT_CAPS and HARD_CAPS read the rows.
_RULES = {
    FunctionId.P: _Rule(35, 60),
    FunctionId.POD: _Rule(35, 60, lambda v: (1 if v % 2 else None, 1)),
    FunctionId.PED: _Rule(35, 60, lambda v: (None if v % 2 else 1, 1)),
    FunctionId.QDIST: _Rule(35, 60, lambda v: (1, 1)),
    FunctionId.QODD: _Rule(35, 60, lambda v: (1, 1) if v % 2 else None),
    FunctionId.PEO: _Rule(35, 60, weight=_weight_alt_parts),
    FunctionId.QEO: _Rule(35, 60, lambda v: (1, 1), weight=_weight_alt_odd_parts),
    FunctionId.P2MOD4: _Rule(35, 60, lambda v: (None, 1) if v % 4 == 2 else None),
    FunctionId.EO: _Rule(35, 60, keep=_keep_eo),
    FunctionId.EOBAR: _Rule(35, 60, keep=_keep_eobar),
    FunctionId.OPBAR: _Rule(22, 30, overlined=True),
    FunctionId.OPODD: _Rule(22, 30, lambda v: (None, 1) if v % 2 else None, overlined=True),
    FunctionId.AFUN: _Rule(22, 30, lambda v: (None, 1 if v % 2 else 2), weight=_weight_alt_parts),
    FunctionId.CUBIC: _Rule(22, 30, lambda v: (None, 1 if v % 2 else 2)),
    FunctionId.QODD3: _Rule(22, 30, lambda v: (1, 3) if v % 2 else None),
    FunctionId.P3: _Rule(18, 24, lambda v: (None, 3)),
}

DEFAULT_CAPS = {fid: rule.cap for fid, rule in _RULES.items()}
HARD_CAPS = {fid: rule.ceiling for fid, rule in _RULES.items()}


@lru_cache(maxsize=64)
def _enumeration_table(fid: FunctionId, limit: int) -> tuple:
    """Signed counts f(0..limit) from one depth-first walk over every object.

    Each node of the walk is one object of total <= limit; it adds its
    weight at its own total, then extends itself by one more slot past the
    last one it uses.  The loop starts at the first slot whose size still
    fits, so every step makes a new object and no branch is a dead end.
    """
    rule = _RULES[fid]
    slots = rule.slots(limit)
    # first_fit[r]: index of the first slot of size <= r (sizes descend)
    first_fit = [sum(1 for size, _ in slots if size > r) for r in range(limit + 1)]
    keep, weight, overlined = rule.keep, rule.weight, rule.overlined
    counts = [0] * (limit + 1)
    n_slots = len(slots)

    def visit(parts: Parts, start: int, total: int):
        if keep is None or keep(parts):
            w = weight(parts)
            # each distinct part value may or may not be overlined
            counts[total] += w << len(parts) if overlined else w
        remaining = limit - total
        first = first_fit[remaining]
        for i in range(start if start > first else first, n_slots):
            size, cap = slots[i]
            top = remaining // size
            if cap is not None and cap < top:
                top = cap
            for used in range(size, size * top + 1, size):
                visit(parts + ((size, used // size),), i + 1, total + used)

    visit((), 0, 0)
    return tuple(counts)


def count_by_enumeration(fid: FunctionId, n: int, cap: Optional[int] = None) -> int:
    """Exact signed count of the objects behind `fid` at n, by generation.

    `cap` overrides the per-function default bound but may not pass the
    hard ceiling; both violations refuse loudly, before any object is
    generated, rather than grind.  The count is read from a cached table
    that one walk fills for every total up to `cap` when it is given (so
    a caller stepping n = 0..cap walks once) and up to n otherwise.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    limit = DEFAULT_CAPS[fid] if cap is None else cap
    if limit > HARD_CAPS[fid]:
        raise CapExceededError(
            f"cap {limit} for {fid.value} is past the hard ceiling {HARD_CAPS[fid]}"
        )
    if n > limit:
        raise CapExceededError(
            f"{fid.value} enumeration at n={n} is past its cap {limit}"
        )
    return _enumeration_table(fid, n if cap is None else cap)[n]
