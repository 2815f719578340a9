import hashlib
import json
import platform
import random
import re
import sys
import time
from importlib import resources

import pytest

from podium import cli, manifest, series
from podium.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_csv_bytes(self, capsys):
        code, out, _ = run(capsys, "compute", "pod", "4", "--format", "csv")
        assert code == 0
        assert out == "n,value\n0,1\n1,1\n2,1\n3,2\n4,3\n"

    def test_bfile_last_line(self, capsys):
        code, out, _ = run(capsys, "compute", "eobar", "8", "--format", "bfile")
        assert code == 0
        assert out.splitlines()[-1] == "8 5"
        assert out.endswith("\n")
        assert not any(line != line.rstrip() for line in out.splitlines())

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "compute", "p", "4")
        assert code == 0
        assert "p(n)" in out.splitlines()[0]
        assert out.splitlines()[-1].split() == ["4", "5"]

    def test_unknown_function_exits_2(self, capsys):
        code, _, err = run(capsys, "compute", "nosuch", "4")
        assert code == 2
        assert "pod" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "pod.csv"
        code, out, _ = run(capsys, "compute", "pod", "2", "--format", "csv", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == "n,value\n0,1\n1,1\n2,1\n"


class TestVerify:
    def test_single_id(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "pod-tri-recurrence", "--order", "50")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("PASS  pod-tri-recurrence")
        assert lines[-1] == "passed 1/1"

    def test_unknown_id_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--id", "nope")
        assert code == 2
        assert "nope" in err

    def test_bad_manifest_syntax_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "corrupted.txt"
        bad.write_text("[identity]\nid=x\nlhs=gf(pod\nrhs=1\norder=5\n")
        code, _, err = run(capsys, "verify", "--manifest", str(bad))
        assert code == 2
        assert "offset" in err

    def test_oversized_literal_in_manifest_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "huge.txt"
        bad.write_text("[identity]\nid=x\nlhs=q^1^" + "9" * 5000 + "\nrhs=1\norder=5\n")
        code, out, err = run(capsys, "verify", "--manifest", str(bad))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "too long" in err and "offset 4" in err

    @pytest.mark.parametrize(
        "raw", [b"\x1b[31m", b"\x07", b"\x00", b"\x0c", b"\x7f", "\u00e9".encode(), b"\xff"]
    )
    def test_unprintable_byte_in_manifest_exits_2(self, capsys, tmp_path, raw):
        bad = tmp_path / "unprintable.txt"
        bad.write_bytes(b"[identity]\nid=x\nref=" + raw + b"\nlhs=1\nrhs=1\norder=5\n")
        code, out, err = run(capsys, "verify", "--manifest", str(bad))
        assert code == 2
        assert out == ""
        assert err == f"podium: {bad}:3: manifest must be 7-bit printable\n"

    @pytest.mark.parametrize("text", ["", "# comments only\n\n# [identity]\n"])
    def test_manifest_with_no_record_exits_2(self, capsys, tmp_path, text):
        empty = tmp_path / "empty.txt"
        empty.write_text(text)
        code, out, err = run(capsys, "verify", "--manifest", str(empty))
        assert code == 2
        assert out == ""
        assert err == f"podium: {empty}: no [identity] record to check\n"

    def test_missing_manifest_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--manifest", str(tmp_path / "none.txt"))
        assert code == 2

    def test_failing_manifest_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "wrong.txt"
        bad.write_text("[identity]\nid=wrong\nlhs=gf(p)\nrhs=1\norder=10\n")
        code, out, _ = run(capsys, "verify", "--manifest", str(bad))
        assert code == 1
        assert out.splitlines()[0].startswith("FAIL  wrong")

    def test_a_mismatch_too_large_to_print_keeps_the_report(self, capsys, tmp_path):
        # both sides are past the int-to-string digit limit, and a record follows
        path = tmp_path / "big.txt"
        path.write_text(
            "[identity]\nid=big\nlhs=2^20000\nrhs=2^20000 + 1\norder=0\n"
            "[identity]\nid=fine\nlhs=gf(pod)\nrhs=gf(pod)\norder=100\n"
        )
        code, out, _ = run(capsys, "verify", "--manifest", str(path), "--order", "0")
        assert code == 1
        assert out.splitlines() == [
            "FAIL  big  order=0  coefficient 0: <20001-bit integer> != <20001-bit integer>",
            "PASS  fine  order=100",
            "passed 1/2",
        ]

    def test_external_manifest_passes(self, capsys, tmp_path):
        good = tmp_path / "extra.txt"
        good.write_text(
            "[identity]\nid=euler\nlhs=theta{n in Z}((-1)^(n); (n*(3*n+1)) div 2)\n"
            "rhs=poch(q^1, q^1)\norder=100\n"
        )
        code, out, _ = run(capsys, "verify", "--manifest", str(good))
        assert code == 0
        assert out.splitlines()[-1] == "passed 1/1"


class TestExpand:
    def test_pentagonal_line(self, capsys):
        code, out, _ = run(capsys, "expand", "poch(q^1,q^1)", "--order", "7")
        assert code == 0
        assert out == "1 -1 -1 0 0 1 0 1\n"

    def test_qodd_composition(self, capsys):
        code, out, _ = run(
            capsys, "expand", "gf(pod) * subst(poch(q^1,q^1), q^2)", "--order", "8"
        )
        assert code == 0
        assert out == "1 1 0 1 1 1 1 1 2\n"

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "expand", "1 div 2")
        assert code == 2
        assert "offset 2" in err

    def test_eval_error_exits_2(self, capsys):
        code, _, err = run(capsys, "expand", "1 / (2 + q^1)", "--order", "4")
        assert code == 2

    @pytest.mark.parametrize("text", ["q^\u00b2", "q^\u0663"])
    def test_non_ascii_digit_exits_2(self, capsys, text):
        code, out, err = run(capsys, "expand", text)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "unexpected character" in err and "offset 2" in err

    def test_oversized_literal_exits_2(self, capsys):
        code, out, err = run(capsys, "expand", "q^1^" + "9" * 5000)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "too long" in err and "offset 4" in err

    def test_oversized_coefficient_exits_2(self, capsys):
        # 2^15000 has 4516 digits, past the interpreter's int-to-string limit
        code, out, err = run(capsys, "expand", "2^15000", "--order", "0")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-string digit limit before CPython 3.10.7")
    @pytest.mark.parametrize("text, order, index", [
        ("2^20000", "0", 0),
        ("1 + q^1 * 2^20000", "2", 1),
    ])
    def test_unprintable_coefficient_is_named(self, capsys, tmp_path, text, order, index):
        path = tmp_path / "out.txt"
        for out_flag in ([], ["--out", str(path)]):
            code, out, err = run(capsys, "expand", text, "--order", order, *out_flag)
            assert code == 2
            assert out == ""
            assert err == f"podium: coefficient {index} has 20001 bits, too many to print\n"
        assert not path.exists()

    def test_large_coefficient_prints(self, capsys):
        code, out, _ = run(capsys, "expand", "2^14000", "--order", "0")
        assert code == 0
        assert out == str(2**14000) + "\n"
        assert len(out.strip()) == 4215

    def test_huge_exponent_is_fast(self, capsys):
        started = time.perf_counter()
        code, out, _ = run(capsys, "expand", "q^1^1000000", "--order", "0")
        assert time.perf_counter() - started < 1.0
        assert code == 0
        assert out == "0\n"

    def test_huge_eta_exponent_past_the_digit_limit_exits_2_at_once(self, capsys):
        started = time.perf_counter()
        code, out, err = run(capsys, "expand", "poch(q^1, q^1)^" + "9" * 60, "--order", "200")
        assert time.perf_counter() - started < 2.0
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1

    def test_huge_exponent_of_a_dense_base_exits_2_at_once(self, capsys):
        started = time.perf_counter()
        code, out, err = run(capsys, "expand", "(1 - q^1)^" + "9" * 60, "--order", "200")
        assert time.perf_counter() - started < 2.0
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "power too large" in err

    def test_eta_to_the_millionth_is_fast(self, capsys):
        started = time.perf_counter()
        code, out, _ = run(capsys, "expand", "poch(q^1, q^1)^1000000", "--order", "200")
        assert time.perf_counter() - started < 1.0
        assert code == 0
        assert out.split()[:2] == ["1", "-1000000"]


class TestOracle:
    def test_single_function_with_cap(self, capsys):
        code, out, _ = run(capsys, "oracle", "--function", "eo", "--cap", "20")
        assert code == 0
        assert out.splitlines()[0] == "PASS  eo  order=20"

    def test_cap_guard_exits_1(self, capsys):
        code, out, _ = run(capsys, "oracle", "--function", "p3", "--cap", "60")
        assert code == 1
        assert out.splitlines()[0].startswith("FAIL  p3")
        assert "ceiling" in out

    def test_all_functions_small_cap(self, capsys):
        code, out, _ = run(capsys, "oracle", "--cap", "8")
        assert code == 0
        body = out.splitlines()
        assert len(body) == 17
        assert body[-1] == "passed 16/16"


class TestBench:
    def test_output_shape(self, capsys):
        code, out, _ = run(capsys, "bench", "--order", "40")
        assert code == 0
        keys = [line.split("=")[0] for line in out.splitlines()]
        assert keys == [
            "order",
            "pod_build_ms",
            "pod_sha256",
            "mul_ms",
            "mul_sha256",
            "verify_ms",
            "verify_passed",
        ]

    def test_checksums_stable(self, capsys):
        _, first, _ = run(capsys, "bench", "--order", "40")
        _, second, _ = run(capsys, "bench", "--order", "40")
        pick = lambda text: [l for l in text.splitlines() if "sha256" in l or "passed" in l]
        assert pick(first) == pick(second)

    def test_json_file_leaves_stdout_alone(self, capsys, tmp_path):
        pick = lambda text: [l for l in text.splitlines() if "_ms=" not in l]
        _, plain, _ = run(capsys, "bench", "--order", "40")
        path = tmp_path / "bench.json"
        code, out, _ = run(capsys, "bench", "--order", "40", "50", "--json", str(path))
        assert code == 0
        blocks = out.split("order=")[1:]
        assert pick("order=" + blocks[0]) == pick(plain)
        document = json.loads(path.read_text())
        assert document["python_version"] == platform.python_version()
        assert document["cpu_count"] >= 1
        assert [run_["order"] for run_ in document["runs"]] == [40, 50]
        first = document["runs"][0]
        lines = plain.splitlines()
        for key in ("pod_sha256", "mul_sha256", "verify_passed"):
            assert f"{key}={first[key]}" in lines
        for key in ("pod_build_ms", "mul_ms", "verify_ms"):
            assert first[key] > 0
        assert len(first["record_seconds"]) == 49
        assert all(seconds > 0 for seconds in first["record_seconds"].values())

    def test_manifest_loaded_before_the_first_timer(self, capsys, tmp_path, monkeypatch):
        """The bundled manifest's parse is timed on its own, as manifest_ms,
        and not charged to the first order's verify_ms: the clock read that
        starts the first verify timer comes after the manifest is loaded."""
        loaded = lambda: manifest.bundled_manifest.cache_info().currsize
        events = []

        class Clock:
            @staticmethod
            def perf_counter():
                events.append(("clock", loaded()))
                return time.perf_counter()

        def run_suite(**kwargs):
            events.append(("suite", loaded()))
            return manifest.run_suite(**kwargs)

        manifest.bundled_manifest.cache_clear()
        monkeypatch.setattr(cli, "time", Clock)
        monkeypatch.setattr(cli, "run_suite", run_suite)
        path = tmp_path / "bench.json"
        code, _, _ = run(capsys, "bench", "--order", "40", "--json", str(path))
        assert code == 0
        first = [what for what, _ in events].index("suite")
        assert events[first - 1] == ("clock", 1)
        assert events[0] == ("clock", 0)  # manifest_ms starts before the load
        assert json.loads(path.read_text())["manifest_ms"] > 0

    @pytest.mark.parametrize("orders", [[300, 300], [1000, 300]])
    def test_every_order_builds_pod_cold(self, capsys, monkeypatch, orders):
        # pod's build at order N is one division of N + 1 coefficients,
        # run again at each order, a repeated or a lower one too
        events = []
        divide = series._divide
        monkeypatch.setattr(series, "_divide", lambda c, *row: events.append(len(c)) or divide(c, *row))
        build = cli.gf_series

        def built(fid, order):
            events.append("pod")
            value = build(fid, order)
            events.append("built")
            return value

        monkeypatch.setattr(cli, "gf_series", built)
        code, _, _ = run(capsys, "bench", "--order", *map(str, orders))
        assert code == 0
        starts = [i for i, event in enumerate(events) if event == "pod"]
        assert [events[i + 1 : i + 3] for i in starts] == [[order + 1, "built"] for order in orders]

    # Recorded before the series kernels were replaced; any change to the
    # arithmetic that moves a single coefficient moves these hashes.
    PINNED = {
        300: (
            "a06c47e9666c99ca98f52fa7b7f7f11b3450ef761591a505618e6c6f39280314",
            "502424361cd6f54c201a1042d721795431e259c6387320a8a3faf51e88a6d879",
        ),
        1000: (
            "fda94374917cd333af34175230ba435deea1ea9cd39e27f556b0152ab6774c90",
            "d652183ef27ba00803c37d854b58218a5b14f6bd26cc8753f65f755a3489ba93",
        ),
    }

    @pytest.mark.parametrize("order", sorted(PINNED))
    def test_checksums_pinned(self, capsys, order):
        code, out, _ = run(capsys, "bench", "--order", str(order))
        assert code == 0
        pod, product = self.PINNED[order]
        lines = out.splitlines()
        assert f"pod_sha256={pod}" in lines
        assert f"mul_sha256={product}" in lines
        assert "verify_passed=49/49" in lines

    # Recorded before operator chains became flat nodes; the report bodies
    # must not move when the evaluator is restructured.
    PINNED_STDOUT = {
        ("verify", "--order", "300"): (
            "2fd3368c5ec4a48fc6881e02fe15dcacf0e16fdc835877f981cb3cda6247c88a"
        ),
        ("oracle",): "80cc7a810a5479b6b83ee62f62ebc43dc985a4d7479a13e80b8e0239be0b433c",
    }

    @pytest.mark.parametrize("argv", sorted(PINNED_STDOUT), ids=" ".join)
    def test_report_stdout_pinned(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_STDOUT[argv]


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "1", "--out", "{missing}/f"],
            ["compute", "pod", "3", "--out", "{dir}"],
            ["bench", "--order", "10", "--json", "{missing}/x.json"],
        ],
    )
    def test_exits_2_with_one_line(self, capsys, tmp_path, argv):
        paths = {"missing": tmp_path / "missing", "dir": tmp_path}
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("podium: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestDefaults:
    def test_the_environment_sets_no_order(self, capsys, monkeypatch):
        monkeypatch.setenv("PODIUM_ORDER", "5")
        code, out, _ = run(capsys, "expand", "gf(p)")
        assert code == 0
        assert len(out.split()) == cli.FALLBACK_ORDER + 1
        code, out, _ = run(capsys, "expand", "gf(p)", "--order", "3")
        assert code == 0
        assert out == "1 1 2 3\n"

    @pytest.mark.parametrize(
        "argv, env, name",
        [
            (["expand", "1", "--order", "100001"], None, "--order"),
            (["verify", "--order", "100001"], None, "--order"),
            (["bench", "--order", "10", "100001"], None, "--order"),
            (["compute", "pod", "100001"], None, "nmax"),
            # an order in the environment neither lifts the ceiling nor
            # stands in for the flag
            (["expand", "1", "--order", "100001"], "5", "--order"),
        ],
    )
    def test_order_past_the_ceiling_exits_2(self, capsys, monkeypatch, argv, env, name):
        if env is not None:
            monkeypatch.setenv("PODIUM_ORDER", env)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"podium: argument {name}: must be <= 100000\n"

    def test_order_at_the_ceiling_is_accepted(self, capsys):
        code, out, _ = run(capsys, "expand", "1", "--order", "100000")
        assert code == 0
        assert out == "1" + " 0" * 100000 + "\n"

    def test_missing_subcommand_exits_2(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "1", "--order", "-5"],
            ["verify", "--order", "many"],
            ["compute", "pod", "x"],
            ["compute", "pod", "-1"],
            ["compute", "nosuch", "4"],
            ["oracle", "--function", "nosuch"],
            [],
            ["frobnicate"],
            ["verify", "--frobnicate"],
            ["expand", "1", "2"],
            ["--frobnicate"],
        ],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("podium: ") and err.count("\n") == 1

    def test_usage_error_names_the_argument(self, capsys):
        _, _, err = run(capsys, "expand", "1", "--order", "-5")
        assert err == "podium: argument --order: must be >= 0\n"

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as err:
            main([flag])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith(("usage: podium", "podium "))


# Stray bytes ride along with the grammar's own tokens, so most texts get
# past the lexer some of the way before they are refused.
SOUP = [
    "poch(", "-q^1", "q^1", "q^2", "q^4", ",", "(", ")", "*", "/", "^", "-", "+",
    "2", "3", "0", "1", "gf(pod)", "gf(", "pod", "subst(", "theta{n in Z}(",
    "theta{n in N}(", "n", "n*n", ";", "div", "ceil2(", "(-1)^(", "}", "{",
    "\x00", "\xff", "\u00e9", "\t", "\n", " ",
]


class TestFuzz:
    """Whole-path fuzzing: any input ends in exit 0, 1 or 2, one stderr line
    on 2, no exception, in bounded time."""

    def outcome(self, capsys, argv):
        started = time.perf_counter()
        code = main(argv)
        took = time.perf_counter() - started
        _, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.count("\n") == 1 and err.startswith("podium: "), (argv, err)
        assert took < 1.0, argv
        return code

    def test_expand_token_soup(self, capsys):
        rng = random.Random(1)
        codes = set()
        for _ in range(1000):
            text = "".join(rng.choice(SOUP) for _ in range(rng.randint(0, 14)))
            order = rng.choice(["0", "1", "5", "31", "32", "40"])
            codes.add(self.outcome(capsys, ["expand", text, "--order", order]))
        assert codes == {0, 2}

    def test_verify_mutated_manifests(self, capsys, tmp_path):
        text = resources.files("podium").joinpath("data/identities.txt").read_text("ascii")
        text = re.sub(r"(?m)^order=\d+$", "order=40", text)
        blocks = ["[identity]" + block for block in text.split("[identity]")[1:]]
        alphabet = [bytes([c]) for c in b"0123456789()+-*/^,;{}=[] qnZN\x00\xff\t\n"]
        alphabet.append("\u00e9".encode())
        rng = random.Random(1)
        path = tmp_path / "fuzzed.txt"
        codes = set()
        for _ in range(250):
            raw = "".join(rng.sample(blocks, 2)).encode()
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(raw))
                cut = rng.choice([0, 1])  # insert, or replace one byte
                raw = raw[:at] + rng.choice(alphabet) + raw[at + cut:]
            path.write_bytes(raw)
            codes.add(self.outcome(capsys, ["verify", "--manifest", str(path)]))
        assert {0, 2} <= codes
