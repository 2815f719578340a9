"""The acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they pass.
"""

import time

from podium.cli import main
from podium.dsl import ParseError, named_theta, parse, pretty
from podium.manifest import bundled_manifest, run_oracle_suite, run_suite
from podium.partitions import FunctionId, count_by_enumeration, gf_series
from podium.series import constant, pochhammer

from conftest import run_algebra_trials


def _verdict(number: int, ok: bool, label: str):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_identity_suite():
    started = time.perf_counter()
    report = run_suite(order=300)
    elapsed = time.perf_counter() - started
    ok = report.total >= 38 and report.all_pass and elapsed < 60.0
    for entry in report.entries:
        if not entry.passed:
            print("  " + entry.line())
    _verdict(
        1,
        ok,
        f"identity suite: {report.passed}/{report.total} records pass "
        f"at order 300 in {elapsed:.2f}s",
    )


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    report = run_oracle_suite()
    elapsed = time.perf_counter() - started
    ok = report.total == 16 and report.all_pass and elapsed < 60.0
    for entry in report.entries:
        if not entry.passed:
            print("  " + entry.line())
    _verdict(
        2,
        ok,
        f"oracle equivalence: {report.passed}/{report.total} functions "
        f"at default caps in {elapsed:.2f}s",
    )


def test_criterion_3_spot_values():
    targets = [
        (FunctionId.P, 4, 5),
        (FunctionId.POD, 4, 3),
        (FunctionId.PED, 6, 9),
        (FunctionId.OPBAR, 3, 8),
        (FunctionId.CUBIC, 3, 4),
        (FunctionId.EO, 8, 12),
        (FunctionId.EOBAR, 8, 5),
        (FunctionId.QODD3, 4, 9),
    ]
    failures = []
    for fid, n, expected in targets:
        from_series = gf_series(fid, n)[n]
        from_enum = count_by_enumeration(fid, n)
        if not (from_series == from_enum == expected):
            failures.append((fid.value, n, from_series, from_enum, expected))
    _verdict(
        3,
        not failures,
        f"spot values exact on both paths ({len(targets)} checks)"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_4_mod3_progression():
    pod = gf_series(FunctionId.POD, 300)
    residues = [pod[27 * n + 26] % 3 for n in range(11)]
    ok = residues == [0] * 11
    _verdict(
        4,
        ok,
        f"pod(27n+26) divisible by 3 for n <= 10 (residues {residues})",
    )


def test_criterion_5_mod2_relations():
    n = 300
    pod = gf_series(FunctionId.POD, n)
    checks = {
        "pod = cubic": pod.reduce_mod(2)
        == gf_series(FunctionId.CUBIC, n).reduce_mod(2),
        "pod = three-colored distinct odd": pod.reduce_mod(2)
        == gf_series(FunctionId.QODD3, n).reduce_mod(2),
        "pod self-convolution = dilated three-colored": (pod * pod).reduce_mod(2)
        == gf_series(FunctionId.P3, n).substitute(2).reduce_mod(2),
        "unsigned triangular recurrence": (pod * named_theta("psi", n)).reduce_mod(2)
        == constant(1, n),
    }
    failed = [name for name, ok in checks.items() if not ok]
    _verdict(
        5,
        not failed,
        "mod-2 relations hold to order 300"
        + (f"; failed: {failed}" if failed else f" ({len(checks)} checks)"),
    )


def test_criterion_6_series_algebra_properties():
    cases = run_algebra_trials(seed=2024, rounds=220)
    _verdict(
        6,
        cases >= 1000,
        f"randomized series algebra: {cases} cases at orders <= 64, zero failures",
    )


def test_criterion_7_determinism_and_performance(capsys):
    main(["bench", "--order", "1000"])
    first = capsys.readouterr().out
    main(["bench", "--order", "1000"])
    second = capsys.readouterr().out

    def field(text, key):
        for line in text.splitlines():
            if line.startswith(key + "="):
                return line.split("=", 1)[1]
        raise AssertionError(f"missing {key} in bench output")

    build_ms = float(field(first, "pod_build_ms"))
    mul_ms = float(field(first, "mul_ms"))
    stable = [l for l in first.splitlines() if "sha256" in l or "passed" in l]
    stable2 = [l for l in second.splitlines() if "sha256" in l or "passed" in l]
    ok = build_ms + mul_ms < 10_000.0 and stable == stable2 and len(stable) == 3
    _verdict(
        7,
        ok,
        f"bench at 1000: build+mul {build_ms + mul_ms:.0f}ms < 10s, "
        "checksums byte-identical across runs",
    )


def test_criterion_8_dsl_round_trip():
    bad_round_trips = []
    for rec in bundled_manifest():
        for side in (rec.lhs, rec.rhs):
            ast = parse(side)
            if parse(pretty(ast)) != ast:
                bad_round_trips.append((rec.id, side))
    offset_ok = False
    try:
        parse("gf(pod")
    except ParseError as exc:
        offset_ok = exc.offset == 6 and bool(exc.expected)
    ok = not bad_round_trips and offset_ok
    _verdict(
        8,
        ok,
        f"round trip over {2 * len(bundled_manifest())} manifest expressions; "
        "parse errors carry character offsets"
        + (f"; failures: {bad_round_trips}" if bad_round_trips else ""),
    )
