"""podium's benchmark: one workload, measured for a fixed time.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a podium checkout.  The input list is made from the
seed before anything is timed.  Every pass then runs the whole list in a
fresh interpreter (``worker.py``), one pass after another, until the next
pass would end after S seconds.  Every time is divided by its pass's host
speed, measured with the reference slices in ``worker.py``, and each
metric is the median over the run's passes.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics.  With ``--trace 1`` untraced and traced passes alternate, and the
last line holds the per-layer metrics instead.  The lines before it are a
readable summary and one ``detail`` object with the host facts, the input
digest and the failures.  A run exits non-zero, without a result line,
when it cannot find the podium sources or a pass fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

PASS_TIMEOUT_S = 150


def tail_rank(n: int) -> int:
    """Highest integer percentile with at least ten of n items beyond it.

    Below 20 items no such tail exists, and the maximum (p100) is used.
    """
    return 100 if n < 20 else (100 * (n - 10)) // n


def percentile(sorted_values: list, pct: int) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def git_sha(root: Path):
    """The commit checked out at `root`, or None when it is not a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.decode("ascii").strip() if proc.returncode == 0 else None


def host_facts(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "git_sha": git_sha(root),
    }


def run_pass(workload, items, trace, spans=None) -> dict:
    """Run one pass in a fresh interpreter and return its JSON report."""
    job = {"workload": workload, "items": items, "trace": trace, "spans": spans}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job).encode("ascii"),
        capture_output=True,
        cwd=ROOT,
        env=env,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode("ascii").splitlines()[-1])


def measure(workload, items, seconds, trace, spans) -> tuple:
    """Passes until the next pass would overrun `seconds`.

    Traced runs alternate untraced and traced passes, starting untraced,
    and make at least one of each.
    """
    started = time.perf_counter()
    plain, traced = [], []
    durations = []
    while True:
        with_trace = trace and len(traced) < len(plain)
        t0 = time.perf_counter()
        report = run_pass(workload, items, with_trace, spans if with_trace else None)
        durations.append(time.perf_counter() - t0)
        (traced if with_trace else plain).append(report)
        if trace and not traced:
            continue
        elapsed = time.perf_counter() - started
        if elapsed + max(durations[-2:]) > seconds:
            return plain, traced


def setup_s(report) -> float:
    return report["setup_s"] / report["setup_speed"]


def wall_s(report) -> float:
    return report["wall_s"] / report["speed"]


def end_to_end(passes) -> dict:
    tail = tail_rank(len(passes[0]["item_s"]))
    p50, tails = [], []
    for report in passes:
        times = sorted(t / s for t, s in zip(report["item_s"], report["item_speed"]))
        p50.append(percentile(times, 50) * 1000.0)
        tails.append(percentile(times, tail) * 1000.0)
    return {
        "setup_s": (statistics.median(setup_s(r) for r in passes), "s"),
        "wall_s": (statistics.median(wall_s(r) for r in passes), "s"),
        "item_p50_ms": (statistics.median(p50), "ms"),
        "item_tail_ms": (statistics.median(tails), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MB"),
    }


def layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "coverage")):
        return "ratio"
    if name.endswith("bits"):
        return "bits"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def layer_names() -> list:
    """Every per-layer metric name, in BENCHMARK.json order."""
    from tracing import COUNTERS, SPAN_NAMES

    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_s"]
    names += list(COUNTERS) + ["series.pochhammer.hit_ratio"]
    names += ["trace.overhead_ratio", "trace.top_level_coverage"]
    return names


def per_layer(plain, traced) -> dict:
    values = {}
    for name in traced[0]["layers"]:
        scale = name.endswith("_s")
        values[name] = statistics.median(
            r["layers"][name] / (r["speed"] if scale else 1) for r in traced
        )
    # Each traced pass is compared with the untraced pass just before it,
    # so slow drifts in host speed mostly cancel.
    values["trace.overhead_ratio"] = statistics.median(
        wall_s(t) / wall_s(p) for p, t in zip(plain, traced)
    )
    values["trace.top_level_coverage"] = statistics.median(
        r["top_level_s"] / r["wall_s"] for r in traced
    )
    return {name: (values[name], layer_units(name)) for name in layer_names()}


def suite_seconds(plain) -> dict:
    """Median `SuiteEntry.seconds` per record or function, over the untraced passes."""
    return {
        key: round(statistics.median(r["seconds"][key] / r["speed"] for r in plain), 6)
        for key in plain[0]["seconds"]
    }


def outcome(passes) -> dict:
    """`correct`, `attempted` and `failed` over every pass.

    A pass's `wrong` holds each wrong answer and each escaped exception
    but the known defect; its `escaped` holds the known defect, which
    fails items without making the run incorrect.
    """
    return {
        "correct": not any(r["wrong"] for r in passes),
        "attempted": sum(r["attempted"] for r in passes),
        "failed": sum(len(r["wrong"]) + len(r["escaped"]) for r in passes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="podium benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "podium" / "__init__.py").is_file():
        print(f"no podium sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    facts = host_facts(ROOT)
    items = inputs.generate(args.workload, args.seed, ROOT)
    spans = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = str((OUT / f"spans-{args.workload}-{args.seed}.jsonl").relative_to(ROOT))

    plain, traced = measure(args.workload, items, args.seconds, bool(args.trace), spans)

    passes = plain + traced
    result = outcome(passes)
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain)

    n_items = len(items)
    detail = dict(
        facts,
        workload=args.workload,
        seed=args.seed,
        inputs_sha256=inputs.digest(items),
        items=n_items,
        passes=len(plain),
        pass_raw_wall_s=[round(r["wall_s"], 4) for r in plain],
        pass_speed=[round(r["speed"], 4) for r in plain],
        traced_passes=len(traced),
        tail_percentile=tail_rank(n_items),
        failed_share=f"{failed}/{attempted}",
        wrong=sorted({w for r in passes for w in r["wrong"]})[:20],
        escaped=sorted({e for r in passes for e in r["escaped"]})[:20],
    )
    if plain[0]["seconds"]:
        detail["suite_seconds"] = suite_seconds(plain)
    if traced:
        self_s = {k[: -len(".self_s")]: v for k, (v, _) in metrics.items() if k.endswith(".self_s")}
        detail["dominant_layer"] = max(self_s, key=self_s.get)
        detail["mul_under_power_share"] = statistics.median(
            r["mul_under_power_s"] / r["layers"]["series.mul.self_s"] if r["layers"]["series.mul.self_s"] else 0.0
            for r in traced
        )
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16} {name:40} {value:.6g} {unit}")
    print(f"{args.workload:16} failed_share {failed}/{attempted} = {failed / attempted:.6f}")
    print("detail " + json.dumps(detail, sort_keys=True))
    result["metrics"] = {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
