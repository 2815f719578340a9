"""The partition-counting functions, each realized two independent ways.

Every function has a closed product form, a line of identity-language
text in :data:`PRODUCT_FORMS` that :func:`gf_series` evaluates through
:func:`podium.dsl.expand`, and a brute-force combinatorial count,
:func:`count_by_enumeration`, that generates the defining objects one by
one.  The two paths share no code beyond integer arithmetic, so each one
is an oracle for the other; the oracle suite in :mod:`podium.manifest`
compares them coefficient by coefficient.

Enumeration is exponential in spirit, so each function carries a default
cap and a hard ceiling past which it refuses to run.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional

from . import dsl
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


# Caps keep the exhaustive counts to seconds; the hard ceilings block
# accidental exponential blowups even when a caller overrides the cap.
DEFAULT_CAPS = {
    FunctionId.P: 35,
    FunctionId.POD: 35,
    FunctionId.PED: 35,
    FunctionId.QDIST: 35,
    FunctionId.QODD: 35,
    FunctionId.PEO: 35,
    FunctionId.QEO: 35,
    FunctionId.P2MOD4: 35,
    FunctionId.EO: 35,
    FunctionId.EOBAR: 35,
    FunctionId.OPBAR: 22,
    FunctionId.OPODD: 22,
    FunctionId.AFUN: 22,
    FunctionId.CUBIC: 22,
    FunctionId.QODD3: 22,
    FunctionId.P3: 18,
}

HARD_CAPS = {
    FunctionId.P: 60,
    FunctionId.POD: 60,
    FunctionId.PED: 60,
    FunctionId.QDIST: 60,
    FunctionId.QODD: 60,
    FunctionId.PEO: 60,
    FunctionId.QEO: 60,
    FunctionId.P2MOD4: 60,
    FunctionId.EO: 60,
    FunctionId.EOBAR: 60,
    FunctionId.OPBAR: 30,
    FunctionId.OPODD: 30,
    FunctionId.AFUN: 30,
    FunctionId.CUBIC: 30,
    FunctionId.QODD3: 30,
    FunctionId.P3: 24,
}


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
    return dsl.expand(PRODUCT_FORMS[fid], order)


def table(fid: FunctionId, nmax: int) -> list:
    """Values f(0..nmax) as a plain list, computed from the product form."""
    return list(gf_series(fid, nmax).coeffs)


# ----------------------------------------------------------------------
# enumeration oracles
# ----------------------------------------------------------------------
#
# The generator below walks "slots": (size, max multiplicity) pairs in
# descending size order.  A c-colored part value appears as c slots of
# the same size, so color-multiplicity splits are enumerated explicitly.

Slots = list
Parts = tuple  # tuple of (size, multiplicity), multiplicity >= 1


def _iter_partitions(n: int, slots: Slots) -> Iterator[Parts]:
    acc = []

    def rec(i, remaining):
        if remaining == 0:
            yield tuple(acc)
            return
        if i == len(slots):
            return
        size, cap = slots[i]
        top = remaining // size
        if cap is not None and cap < top:
            top = cap
        for mult in range(top, 0, -1):
            acc.append((size, mult))
            yield from rec(i + 1, remaining - size * mult)
            acc.pop()
        yield from rec(i + 1, remaining)

    yield from rec(0, n)


def _slots_plain(n, allow=None, cap=None, colors=1):
    out = []
    for v in range(n, 0, -1):
        if allow is not None and not allow(v):
            continue
        out.extend([(v, cap)] * colors)
    return out


def _slots_pod(n):
    return [(v, 1 if v % 2 else None) for v in range(n, 0, -1)]


def _slots_ped(n):
    return [(v, None if v % 2 else 1) for v in range(n, 0, -1)]


def _slots_two_colored_even(n):
    out = []
    for v in range(n, 0, -1):
        out.extend([(v, None)] * (2 if v % 2 == 0 else 1))
    return out


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


@dataclass(frozen=True)
class _Rule:
    slots: Callable[[int], Slots]
    weight: Callable[[Parts], int] = _weight_one
    keep: Optional[Callable[[Parts], bool]] = None
    overlined: bool = False


_RULES = {
    FunctionId.P: _Rule(_slots_plain),
    FunctionId.POD: _Rule(_slots_pod),
    FunctionId.PED: _Rule(_slots_ped),
    FunctionId.QDIST: _Rule(lambda n: _slots_plain(n, cap=1)),
    FunctionId.QODD: _Rule(lambda n: _slots_plain(n, allow=lambda v: v % 2 == 1, cap=1)),
    FunctionId.PEO: _Rule(_slots_plain, weight=_weight_alt_parts),
    FunctionId.QEO: _Rule(lambda n: _slots_plain(n, cap=1), weight=_weight_alt_odd_parts),
    FunctionId.OPBAR: _Rule(_slots_plain, overlined=True),
    FunctionId.OPODD: _Rule(
        lambda n: _slots_plain(n, allow=lambda v: v % 2 == 1), overlined=True
    ),
    FunctionId.AFUN: _Rule(_slots_two_colored_even, weight=_weight_alt_parts),
    FunctionId.CUBIC: _Rule(_slots_two_colored_even),
    FunctionId.P3: _Rule(lambda n: _slots_plain(n, colors=3)),
    FunctionId.P2MOD4: _Rule(lambda n: _slots_plain(n, allow=lambda v: v % 4 == 2)),
    FunctionId.QODD3: _Rule(
        lambda n: _slots_plain(n, allow=lambda v: v % 2 == 1, cap=1, colors=3)
    ),
    FunctionId.EO: _Rule(_slots_plain, keep=_keep_eo),
    FunctionId.EOBAR: _Rule(_slots_plain, keep=_keep_eobar),
}


def count_by_enumeration(fid: FunctionId, n: int, cap: Optional[int] = None) -> int:
    """Exact signed count of the objects behind `fid` at n, by generation.

    `cap` overrides the per-function default bound but may not pass the
    hard ceiling; both violations refuse loudly rather than grind.
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
    rule = _RULES[fid]
    total = 0
    for parts in _iter_partitions(n, rule.slots(n)):
        if rule.keep is not None and not rule.keep(parts):
            continue
        w = rule.weight(parts)
        if rule.overlined:
            # each distinct part value may or may not be overlined
            for _ in itertools.product((False, True), repeat=len(parts)):
                total += w
        else:
            total += w
    return total
