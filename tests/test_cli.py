import pytest

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
        with pytest.raises(SystemExit) as err:
            main(["compute", "nosuch", "4"])
        assert err.value.code == 2
        assert "pod" in capsys.readouterr().err

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

    def test_missing_manifest_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--manifest", str(tmp_path / "none.txt"))
        assert code == 2

    def test_failing_manifest_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "wrong.txt"
        bad.write_text("[identity]\nid=wrong\nlhs=gf(p)\nrhs=1\norder=10\n")
        code, out, _ = run(capsys, "verify", "--manifest", str(bad))
        assert code == 1
        assert out.splitlines()[0].startswith("FAIL  wrong")

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


class TestDefaults:
    def test_env_var_sets_order(self, capsys, monkeypatch):
        monkeypatch.setenv("PODIUM_ORDER", "5")
        code, out, _ = run(capsys, "expand", "gf(p)")
        assert code == 0
        assert out == "1 1 2 3 5 7\n"

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PODIUM_ORDER", "5")
        code, out, _ = run(capsys, "expand", "gf(p)", "--order", "3")
        assert code == 0
        assert out == "1 1 2 3\n"

    def test_bad_env_var(self, capsys, monkeypatch):
        for value in ("many", "-5"):
            monkeypatch.setenv("PODIUM_ORDER", value)
            with pytest.raises(SystemExit) as err:
                main(["expand", "gf(p)"])
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert captured.err.startswith(f"podium: PODIUM_ORDER={value!r}")

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
