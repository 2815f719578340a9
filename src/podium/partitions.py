"""The partition-counting functions, each realized two independent ways.

Every function (:class:`podium.dsl.FunctionId`) has a closed product
form, a line of identity-language text in
:data:`podium.dsl.PRODUCT_FORMS`, and a brute-force combinatorial count,
:func:`count_by_enumeration`, that generates the defining objects one
by one.  The two paths share no code beyond integer arithmetic, so each
one is an oracle for the other; the oracle suite in
:mod:`podium.manifest` compares them coefficient by coefficient.

The names and the texts belong to the identity language that expands
them.  This module keeps the work that no other module does: the
enumeration oracles, :func:`gf_series` and :func:`table`.

A product form has one route to a series: :func:`gf_series` and the
text ``gf(f)`` both evaluate its one parse,
:func:`podium.dsl.product_form`, through :func:`podium.dsl.evaluate`.
No cache here holds the result; the eta memo of :mod:`podium.series`
holds a whole eta quotient, bounded by its coefficients' bytes.

The count comes from one depth-first walk per (function, limit), the
classical one-object-per-step partition generation (Knuth, TAOCP vol.
4A, §7.2.1.4), that makes each object of total <= limit at most once
and adds its weight at its own total.  An object is counted in its
parent's loop, so a leaf, which cannot be extended, costs no call of its
own; an unweighted rule's objects weigh 1 and are counted without
building their parts.  A weight is a fold over an object's parts: the
walk carries each object's state, takes one step to a child's state,
and so does constant work per object.  When a prefix breaks a rule that
no extension can mend (eo and eobar: parts come largest first, so an
odd part after an even one stays wrong), its state is dead, and the walk
makes none of its extensions.  The per-total table is cached, so
checking f(0..cap) one n at a time costs a single walk.

Each function's oracle is one row of data: a default cap and a hard
ceiling past which it refuses to run, since enumeration is exponential
in spirit (a refused call generates nothing); a rule giving the allowed
part sizes with their multiplicity bound and colors; and a weight step.
An object the function does not count weighs 0, and an overpartition
weighs 2^(number of distinct part values), one for each way to overline
them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from . import dsl
from ._value import Value
from .dsl import FunctionId
# pochhammer is not called here, but benchmark/test_benchmark.py checks this binding
from .series import Series, pochhammer  # noqa: F401


class CapExceededError(ValueError):
    """Enumeration was asked to run past its safety cap."""


def gf_series(fid: FunctionId, order: int) -> Series:
    """Generating series of `fid` truncated at `order`: its product form,
    evaluated as the text gf(f) is.  Nothing is cached here; a whole eta
    quotient is found in the eta memo of series.eta_quotient."""
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


# A weighted rule's weight is a fold over an object's parts, largest first
# as the walk builds them: step(state, size, mult) is the state of the
# object extended by `mult` parts of `size`, and every fold starts from the
# state 1 of the empty object.  The state is the object's weight, or None
# when the object and every extension of it weigh 0; the walk makes no
# child of such an object.


def _step_alt_parts(sign, size, mult):
    return -sign if mult & 1 else sign


def _step_alt_odd_parts(sign, size, mult):
    return -sign if size & mult & 1 else sign


def _step_overlined(ways, size, mult):
    # each distinct part value may or may not be overlined
    return ways << 1


# eo and eobar weigh 1 while alive.  Their state is 1 until an even part
# comes, and True after it: equal as weights, told apart by identity.


def _step_eo(even, size, mult):
    # every even part is below every odd part, so no odd part may follow
    # an even one
    if size & 1:
        return None if even is True else 1
    return True


def _step_eobar(even, size, mult):
    # Only the largest even part may (and, when present, must) appear an
    # odd number of times; with no even part every multiplicity is even.
    # There is one color, so no part size appears twice, and the first
    # even part met is the largest.
    if size & 1:
        return None if even is True or mult & 1 else 1
    if even is True:
        return None if mult & 1 else True
    return True if mult & 1 else None


class _Rule(Value):
    """One function's oracle as data.

    `cap` is the default enumeration bound and `ceiling` the hard one:
    caps keep the exhaustive counts to seconds, and the ceiling blocks an
    accidental exponential blowup even when a caller overrides the cap.
    `part(v)` gives (max multiplicity or None, colors) for an allowed part
    size v, else None; by default every size is allowed, uncolored and
    unbounded.  `step` takes an object's state to a child's (see the step
    functions above), and `weight(parts)`, the fold of the step over an
    object's parts, is what the object counts: a sign, 0 for an object
    the function does not count, or the number of its overlinings.  With
    no step (the default) every object weighs 1.
    """

    __slots__ = ("cap", "ceiling", "part", "step")
    _defaults = {"part": lambda v: (None, 1), "step": None}

    def slots(self, n: int) -> Slots:
        """The slots of every allowed part size up to n, largest first."""
        out = []
        for v in range(n, 0, -1):
            allowed = self.part(v)
            if allowed is not None:
                most, colors = allowed
                out.extend([(v, most)] * colors)
        return out

    def weight(self, parts: Parts) -> int:
        """What an object, its (size, multiplicity) pairs largest first,
        adds to the count at its total: the fold of `step` over its parts."""
        state = 1
        if self.step is not None:
            for size, mult in parts:
                state = self.step(state, size, mult)
                if state is None:
                    return 0
        return int(state)


# One row per function: default cap, hard ceiling, part rule and weight step.
# DEFAULT_CAPS and HARD_CAPS read the rows.
_RULES = {
    FunctionId.P: _Rule(35, 60),
    FunctionId.POD: _Rule(35, 60, lambda v: (1 if v % 2 else None, 1)),
    FunctionId.PED: _Rule(35, 60, lambda v: (None if v % 2 else 1, 1)),
    FunctionId.QDIST: _Rule(35, 60, lambda v: (1, 1)),
    FunctionId.QODD: _Rule(35, 60, lambda v: (1, 1) if v % 2 else None),
    FunctionId.PEO: _Rule(35, 60, step=_step_alt_parts),
    FunctionId.QEO: _Rule(35, 60, lambda v: (1, 1), step=_step_alt_odd_parts),
    FunctionId.P2MOD4: _Rule(35, 60, lambda v: (None, 1) if v % 4 == 2 else None),
    FunctionId.EO: _Rule(35, 60, step=_step_eo),
    FunctionId.EOBAR: _Rule(35, 60, step=_step_eobar),
    FunctionId.OPBAR: _Rule(22, 30, step=_step_overlined),
    FunctionId.OPODD: _Rule(22, 30, lambda v: (None, 1) if v % 2 else None, step=_step_overlined),
    FunctionId.AFUN: _Rule(22, 30, lambda v: (None, 1 if v % 2 else 2), step=_step_alt_parts),
    FunctionId.CUBIC: _Rule(22, 30, lambda v: (None, 1 if v % 2 else 2)),
    FunctionId.QODD3: _Rule(22, 30, lambda v: (1, 3) if v % 2 else None),
    FunctionId.P3: _Rule(18, 24, lambda v: (None, 3)),
}

DEFAULT_CAPS = {fid: rule.cap for fid, rule in _RULES.items()}
HARD_CAPS = {fid: rule.ceiling for fid, rule in _RULES.items()}


@lru_cache(maxsize=64)
def _enumeration_table(fid: FunctionId, limit: int) -> tuple:
    """Signed counts f(0..limit) from one depth-first walk over the objects.

    The walk extends each object by one more slot past the last one it
    uses, and the loop starts at the first slot whose size still fits, so
    every extension it tries fits and no branch is a dead end.  Each
    object's weight is added at its own total in its parent's loop; a
    child that cannot be extended (it used the last slot, or less than the
    smallest slot size is left) is a leaf and starts no call of its own.
    Objects of an unweighted rule weigh 1, so they are counted without
    building their parts.  A weighted rule's child takes one step from its
    parent's state, and a dead child (state None) is neither counted nor
    extended, so nothing under it is made.
    """
    rule = _RULES[fid]
    slots = rule.slots(limit)
    # first_fit[r]: index of the first slot of size <= r (sizes descend)
    first_fit = [sum(1 for size, _ in slots if size > r) for r in range(limit + 1)]
    step = rule.step
    counts = [0] * (limit + 1)
    n_slots = len(slots)
    # a child at a total past `deep` has less left than the smallest slot size
    deep = limit - slots[-1][0] if slots else -1

    def count(start: int, total: int):
        remaining = limit - total
        first = first_fit[remaining]
        for i in range(start if start > first else first, n_slots):
            size, cap = slots[i]
            top = remaining // size
            if cap is not None and cap < top:
                top = cap
            grow = deep if i + 1 < n_slots else -1
            for at in range(total + size, total + size * top + 1, size):
                counts[at] += 1
                if at <= grow:
                    count(i + 1, at)

    def visit(state, start: int, total: int):
        remaining = limit - total
        first = first_fit[remaining]
        for i in range(start if start > first else first, n_slots):
            size, cap = slots[i]
            top = remaining // size
            if cap is not None and cap < top:
                top = cap
            grow = deep if i + 1 < n_slots else -1
            at = total
            for mult in range(1, top + 1):
                at += size
                child = step(state, size, mult)
                if child is not None:
                    counts[at] += child
                    if at <= grow:
                        visit(child, i + 1, at)

    counts[0] = rule.weight(())
    if step is None:
        count(0, 0)
    else:
        visit(1, 0, 0)
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
