"""Outside-in span tracer for podium's public functions.

The tracer replaces each traced function at every name it is looked up
under, from outside the package: a module-level function is patched in
every ``podium`` module that holds it (``dsl.pochhammer`` and
``partitions.pochhammer`` are separate bindings of ``series.pochhammer``),
and the Series methods are patched on the class itself.  Nothing under
``src/`` is edited.

Spans stay in memory as ``[name, start, end, parent, item]`` lists, where
``parent`` is the index of the enclosing span (None at top level) and
``item`` is whatever the caller set as the current item.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from functools import wraps

from podium import dsl, manifest, partitions, series, theta
from podium.series import Series

# Traced module-level functions: span name -> (defining module, attribute).
FUNCTIONS = {
    "series.pochhammer": (series, "pochhammer"),
    "series.equal_upto": (series, "equal_upto"),
    "theta.theta_series": (theta, "theta_series"),
    "partitions.gf_series": (partitions, "gf_series"),
    "partitions.count_by_enumeration": (partitions, "count_by_enumeration"),
    "dsl.parse": (dsl, "parse"),
    "dsl.evaluate": (dsl, "evaluate"),
    "dsl.check": (dsl, "check"),
    "manifest.parse_manifest": (manifest, "parse_manifest"),
}

# Traced Series methods: span name -> method.  ``__pow__`` is the same
# function as ``power``, so both class attributes get the power wrapper.
METHODS = {
    "series.mul": Series.__mul__,
    "series.inverse": Series.inverse,
    "series.power": Series.power,
    "series.substitute": Series.substitute,
    "series.reduce_mod": Series.reduce_mod,
}

SPAN_NAMES = tuple(FUNCTIONS) + tuple(METHODS)

# Counters the tracer computes at its boundaries, besides calls and self time.
COUNTERS = (
    "series.mul.coeff_products",
    "series.mul.max_coeff_bits",
    "series.inverse.coeff_products",
    "series.power.exponent_sum",
    "theta.theta_series.scan_steps",
    "dsl.parse.bytes",
    "dsl.parse.rejected",
)


class Tracer:
    """Records spans and counters while installed; restores everything on uninstall."""

    def __init__(self):
        self.spans = []
        self.item = None
        self.counts = Counter()
        self._open = []
        self._restore = []
        self._pochhammer = None
        self._poch_hits = 0

    # ---- patching ----

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self._pochhammer = series.pochhammer
        self._poch_hits = self._pochhammer.cache_info().hits
        pairs = [
            (getattr(module, attr), self._span(name, self._counted(name, getattr(module, attr))))
            for name, (module, attr) in FUNCTIONS.items()
        ]
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "podium"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                for original, wrapper in pairs:
                    if value is original:
                        self._patch(module, attr, wrapper)
        for name, method in METHODS.items():
            wrapper = self._span(name, self._counted(name, method))
            for attr, value in list(vars(Series).items()):
                if value is method:
                    self._patch(Series, attr, wrapper)

    def uninstall(self) -> None:
        self.counts["series.pochhammer.hits"] += (
            self._pochhammer.cache_info().hits - self._poch_hits
        )
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name, fn):
        spans = self.spans
        opened = self._open
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, opened[-1] if opened else None, self.item]
            opened.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                opened.pop()

        return traced

    def _counted(self, name, fn):
        """Wrap `fn` with the counters its span name carries, if any."""
        counts = self.counts
        if name == "series.mul":

            def mul(a, b):
                out = fn(a, b)
                if isinstance(out, Series):
                    n = out.order
                    counts["series.mul.coeff_products"] += (n + 1) * (n + 2) // 2
                    bits = max(abs(c).bit_length() for c in out.coeffs)
                    if bits > counts["series.mul.max_coeff_bits"]:
                        counts["series.mul.max_coeff_bits"] = bits
                return out

            return mul
        if name == "series.inverse":

            def inverse(a):
                n = a.order
                counts["series.inverse.coeff_products"] += n * (n + 1) // 2
                return fn(a)

            return inverse
        if name == "series.power":

            def power(a, k):
                counts["series.power.exponent_sum"] += abs(k)
                return fn(a, k)

            return power
        if name == "theta.theta_series":

            def theta_series(domain, weight, exponent, order):
                # A QuadExp is passed through as it is, so code that
                # dispatches on its type sees it; only plain callables,
                # which the DSL builds, have their evaluations counted.
                if isinstance(exponent, theta.QuadExp):
                    return fn(domain, weight, exponent, order)
                steps = [0]

                def step(n):
                    steps[0] += 1
                    return exponent(n)

                try:
                    return fn(domain, weight, step, order)
                finally:
                    counts["theta.theta_series.scan_steps"] += steps[0]

            return theta_series
        if name == "dsl.parse":

            def parse(text):
                counts["dsl.parse.bytes"] += len(text)
                try:
                    return fn(text)
                except dsl.ParseError:
                    counts["dsl.parse.rejected"] += 1
                    raise

            return parse
        return fn

    # ---- results ----

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def self_seconds(self) -> Counter:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[index]
        return totals

    def top_level_seconds(self) -> float:
        """Time covered by outermost spans that belong to an item."""
        return sum(
            end - start
            for _, start, end, parent, item in self.spans
            if parent is None and item is not None
        )

    def seconds_under(self, name: str, parent_name: str) -> float:
        """Total duration of `name` spans whose direct parent is a `parent_name` span."""
        spans = self.spans
        return sum(
            end - start
            for span_name, start, end, parent, _ in spans
            if span_name == name and parent is not None and spans[parent][0] == parent_name
        )

    def metrics(self) -> dict:
        """Per-layer numbers, named ``<span>.calls``, ``<span>.self_s`` and counters."""
        calls = self.calls()
        self_s = self.self_seconds()
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in COUNTERS:
            out[name] = self.counts[name]
        poch_calls = calls["series.pochhammer"]
        hits = self.counts["series.pochhammer.hits"]
        out["series.pochhammer.hit_ratio"] = hits / poch_calls if poch_calls else 0.0
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="ascii") as handle:
            for name, start, end, parent, item in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "item": item}
                    )
                    + "\n"
                )
