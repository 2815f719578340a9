import pytest

from podium import manifest
from podium.cli import main
from podium.dsl import parse
from podium.manifest import (
    IdentityRecord,
    ManifestError,
    bundled_manifest,
    parse_manifest,
    run_oracle_suite,
    run_suite,
)
from podium.partitions import FunctionId


class TestBundled:
    def test_record_count(self):
        assert len(bundled_manifest()) >= 38

    def test_ids_unique_and_expressions_parse(self):
        records = bundled_manifest()
        ids = [r.id for r in records]
        assert len(ids) == len(set(ids))
        for rec in records:
            parse(rec.lhs)
            parse(rec.rhs)

    def test_known_record_present(self):
        ids = {r.id for r in bundled_manifest()}
        assert "pod-tri-recurrence" in ids
        assert "euler-pentagonal" in ids

    def test_every_record_is_anchored(self):
        for rec in bundled_manifest():
            assert rec.quote
            assert rec.description

    def test_orders_and_moduli(self):
        for rec in bundled_manifest():
            assert rec.order in (200, 300)
            assert rec.modulus in (None, 2)


GOOD = """
# comment
[identity]
id=demo
desc=demo record
ref=nowhere
quote=$1=1$
lhs=1
rhs=1
order=10
"""


class TestParseManifest:
    def test_round_trip_fields(self):
        (rec,) = parse_manifest(GOOD)
        assert rec == IdentityRecord(
            id="demo", lhs="1", rhs="1", order=10, modulus=None,
            description="demo record", ref="nowhere", quote="$1=1$",
        )

    def test_modulus_field(self):
        (rec,) = parse_manifest(GOOD + "mod=2\n")
        assert rec.modulus == 2

    def test_missing_required_field(self):
        with pytest.raises(ManifestError):
            parse_manifest("[identity]\nid=x\nlhs=1\norder=5\n")

    def test_duplicate_id(self):
        with pytest.raises(ManifestError):
            parse_manifest(GOOD + GOOD)

    def test_unknown_key(self):
        with pytest.raises(ManifestError) as err:
            parse_manifest(GOOD + "color=blue\n")
        assert "color" in str(err.value)

    def test_unparseable_expression(self):
        bad = GOOD.replace("lhs=1", "lhs=gf(pod")
        with pytest.raises(ManifestError) as err:
            parse_manifest(bad)
        assert "offset" in str(err.value)

    def test_oversized_integer_literal(self):
        bad = GOOD.replace("lhs=1", "lhs=q^1^" + "9" * 5000)
        with pytest.raises(ManifestError) as err:
            parse_manifest(bad)
        assert "too long" in str(err.value) and "offset 4" in str(err.value)

    def test_stray_line(self):
        with pytest.raises(ManifestError):
            parse_manifest("hello world\n")

    def test_non_ascii_rejected(self):
        with pytest.raises(ManifestError):
            parse_manifest("[identity]\nid=démo\nlhs=1\nrhs=1\norder=1\n")

    @pytest.mark.parametrize("char", ["\x1b", "\x07", "\x00", "\x0c", "\x7f", "\u00e9", "\xff"])
    def test_unprintable_character_names_its_line(self, char):
        text = GOOD.replace("ref=nowhere", f"ref=now{char}here")
        with pytest.raises(ManifestError) as err:
            parse_manifest(text)
        assert str(err.value) == "<manifest>:6: manifest must be 7-bit printable"

    def test_tab_inside_a_value_is_accepted(self):
        (rec,) = parse_manifest(GOOD.replace("desc=demo record", "desc=demo\trecord"))
        assert rec.description == "demo\trecord"

    def test_bad_order(self):
        with pytest.raises(ManifestError):
            parse_manifest(GOOD.replace("order=10", "order=ten"))

    def test_bad_modulus(self):
        with pytest.raises(ManifestError):
            parse_manifest(GOOD + "mod=1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (GOOD.replace("order=10", "order=-1"), "<manifest>:3: order= must be >= 0"),
            (
                GOOD.replace("order=10", "order=100001"),
                "<manifest>:3: order= must be <= 100000",
            ),
            (GOOD + "mod=x\n", "<manifest>:3: mod= must be an integer"),
            ("id=x\n" + GOOD, "<manifest>:1: key=value outside any [identity] record"),
            (GOOD + "lhs=2\n", "<manifest>:11: duplicate key 'lhs'"),
        ],
    )
    def test_error_branch(self, text, message):
        with pytest.raises(ManifestError) as err:
            parse_manifest(text)
        assert str(err.value) == message


class TestRunSuite:
    def test_subset_passes(self):
        records = [r for r in bundled_manifest() if r.id.startswith("pod-tri")]
        report = run_suite(records, order=80)
        assert report.total == 2
        assert report.all_pass

    def test_order_override_raises_only(self):
        records = bundled_manifest()[:1]
        report = run_suite(records, order=10)
        assert report.entries[0].order == records[0].order

    def test_corrupted_rhs_reports_mismatch(self):
        rec = IdentityRecord(id="broken", lhs="gf(p)", rhs="1", order=20)
        report = run_suite([rec])
        entry = report.entries[0]
        assert entry.status == "mismatch"
        assert "coefficient 1" in entry.detail
        assert not report.all_pass

    def test_eval_error_captured(self):
        rec = IdentityRecord(id="divergent", lhs="theta{n in N}(1; 0*n)", rhs="1", order=5)
        report = run_suite([rec])
        assert report.entries[0].status == "error"
        assert not report.all_pass

    def test_mod2_records_need_the_modulus(self):
        # congruence records must not hold as exact equalities
        records = {r.id: r for r in bundled_manifest()}
        rec = records["pod-cubic-mod2"]
        exact = IdentityRecord(id="x", lhs=rec.lhs, rhs=rec.rhs, order=60)
        report = run_suite([exact])
        assert report.entries[0].status == "mismatch"

    def test_zero_order_all_pass(self):
        report = run_suite(
            [
                IdentityRecord(id=r.id, lhs=r.lhs, rhs=r.rhs, order=0, modulus=r.modulus)
                for r in bundled_manifest()
            ]
        )
        assert report.all_pass

    def test_report_body_is_deterministic(self):
        records = bundled_manifest()[:5]
        a = run_suite(records, order=40).lines()
        b = run_suite(records, order=40).lines()
        assert a == b


class TestOracleSuite:
    def test_single_function(self):
        report = run_oracle_suite(functions=[FunctionId.EO], caps={FunctionId.EO: 20})
        assert report.total == 1
        assert report.all_pass
        assert report.entries[0].order == 20

    def test_cap_refusal_is_an_entry(self):
        report = run_oracle_suite(
            functions=[FunctionId.P3], caps={FunctionId.P3: 60}
        )
        assert report.entries[0].status == "error"
        assert not report.all_pass

    def test_enumeration_mismatch_is_an_entry(self, monkeypatch, capsys):
        count = manifest.count_by_enumeration
        monkeypatch.setattr(
            manifest,
            "count_by_enumeration",
            lambda fid, n, cap=None: count(fid, n, cap=cap) + (n == 3),
        )
        report = run_oracle_suite(functions=[FunctionId.P], caps={FunctionId.P: 10})
        entry = report.entries[0]
        assert entry.status == "mismatch"
        assert entry.detail == "n=3: enumeration 4 != series 3"
        assert not report.all_pass
        assert main(["oracle", "--function", "p"]) == 1
        assert "FAIL  p  " in capsys.readouterr().out

    def test_bad_cap_is_an_entry(self, no_walk):
        report = run_oracle_suite(functions=[FunctionId.P], caps={FunctionId.P: -1})
        assert report.entries[0].status == "error"
        assert "order must be >= 0" in report.entries[0].detail

    def test_entries_in_declaration_order(self):
        report = run_oracle_suite(
            functions=list(FunctionId),
            caps={fid: 6 for fid in FunctionId},
        )
        assert [e.name for e in report.entries] == [f.value for f in FunctionId]
        assert report.all_pass
