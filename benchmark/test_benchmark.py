"""Tests of the benchmark's own parts: tracer, inputs, metric names and verdicts.

    PYTHONPATH=src python3 -m pytest -q benchmark
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import podium  # noqa: E402
from podium import dsl, partitions, series  # noqa: E402
from podium.series import Series  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_tracer_counts_every_binding():
    # Each count was confirmed by hand: two parses, evaluate on Pow, its Poch
    # child and the Theta side, one power((q;q), 3) made of three multiplies.
    tracer = Tracer()
    tracer.install()
    try:
        mismatch = dsl.check(
            dsl.parse("poch(q^1, q^1)^3"),
            dsl.parse("theta{n in N}((2*n+1)*(-1)^(n); (n*(n+1)) div 2)"),
            20,
        )
    finally:
        tracer.uninstall()
    assert mismatch is None
    calls = tracer.calls()
    assert calls["dsl.parse"] == 2
    assert calls["dsl.evaluate"] == 3
    assert calls["series.power"] == 1
    assert calls["series.mul"] == 3
    assert calls["series.pochhammer"] == 1
    assert calls["theta.theta_series"] == 1
    assert tracer.counts["series.power.exponent_sum"] == 3
    assert tracer.counts["series.mul.coeff_products"] == 3 * (21 * 22 // 2)


def test_tracer_patches_every_alias_and_restores_it():
    originals = {
        (podium, "parse"): dsl.parse,
        (partitions, "pochhammer"): series.pochhammer,
        (dsl, "pochhammer"): series.pochhammer,
        (Series, "__pow__"): Series.power,
    }
    tracer = Tracer()
    tracer.install()
    try:
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} not traced"
        Series([1, 1]) ** 2
        assert tracer.calls()["series.power"] == 1
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original


def test_self_time_excludes_children_and_rejections_are_counted():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.item = 0
        dsl.evaluate(dsl.parse("poch(q^1, q^1)^2"), 10)
        try:
            dsl.parse("poch(")
        except dsl.ParseError:
            pass
    finally:
        tracer.uninstall()
    self_s = tracer.self_seconds()
    total = sum(end - start for _, start, end, parent, _ in tracer.spans if parent is None)
    assert abs(sum(self_s.values()) - total) < 1e-9
    assert tracer.counts["dsl.parse.rejected"] == 1
    assert tracer.counts["dsl.parse.bytes"] == len("poch(q^1, q^1)^2") + len("poch(")


def test_inputs_are_a_function_of_the_seed():
    for workload in inputs.WORKLOADS:
        first = inputs.encode(inputs.generate(workload, 7, ROOT))
        again = inputs.encode(inputs.generate(workload, 7, ROOT))
        assert first == again
    for workload in ("identity-stream", "hostile-text"):
        a = inputs.digest(inputs.generate(workload, 7, ROOT))
        b = inputs.digest(inputs.generate(workload, 8, ROOT))
        assert a != b


def test_identity_stream_known_answers_hold():
    # A small slice of the stream, checked directly against podium.
    items = inputs.generate("identity-stream", 3, ROOT)[:60]
    for item in items:
        mismatch = dsl.check(
            dsl.parse(item["lhs"]), dsl.parse(item["rhs"]), item["order"], item["mod"]
        )
        if item["mismatch_at"] is None:
            assert mismatch is None, item
        else:
            assert mismatch.index == item["mismatch_at"], item


def test_layer_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in declared["per_layer"]]
    assert names == run.layer_names()


def test_layer_probe_reaches_every_traced_layer():
    # With set-up, which a traced pass also traces, the probe alone leaves
    # no per-layer number at 0 on a workload that bypasses a layer.
    worker.podium = podium
    tracer = Tracer()
    tracer.install()
    try:
        podium.manifest.bundled_manifest.__wrapped__()
        wrong = worker.run_checks(worker.layer_probe())
    finally:
        tracer.uninstall()
    assert wrong == []
    for name, value in tracer.metrics().items():
        assert value > 0, name


def run_job(workload, items):
    worker.podium = podium
    job = {"workload": workload, "items": items, "trace": False, "spans": None}
    records = podium.manifest.bundled_manifest()
    return worker.run(job, records, None, [worker.reference_slice()])


def fail_with(exc_type):
    def broken(*args, **kwargs):
        raise exc_type("injected")

    return broken


def test_an_escape_from_a_kernel_makes_the_run_incorrect(monkeypatch):
    monkeypatch.setattr(Series, "__mul__", fail_with(IndexError))
    items = inputs.generate("identity-stream", 3, ROOT)[:10]
    report = run_job("identity-stream", items)
    assert any("raised IndexError" in w for w in report["wrong"])
    assert report["escaped"] == []
    assert run.outcome([report])["correct"] is False

    monkeypatch.setattr(partitions, "count_by_enumeration", fail_with(ZeroDivisionError))
    report = run_job("oracle-caps", inputs.generate("oracle-caps", 0, ROOT)[:2])
    assert any("ZeroDivisionError" in w for w in report["wrong"])
    assert run.outcome([report])["correct"] is False


def test_only_deep_nesting_may_escape_as_recursion_error(monkeypatch):
    monkeypatch.setattr(dsl, "parse", fail_with(RecursionError))
    deep = {"kind": "deep", "text": "((q^1))", "order": 20}
    edit = {"kind": "edit", "text": "q^1", "order": 20}
    report = run_job("hostile-text", [deep, edit])
    assert report["escaped"] == ["item 0: RecursionError"]
    assert report["wrong"][0] == "item 1: raised RecursionError"
    result = run.outcome([report])
    assert result["correct"] is False
    assert result["failed"] >= 2
