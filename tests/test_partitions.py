import pytest

from conftest import iter_objects, reference_count, reference_weight
from podium import partitions
from podium.partitions import (
    DEFAULT_CAPS,
    HARD_CAPS,
    CapExceededError,
    FunctionId,
    count_by_enumeration,
    gf_series,
    table,
)

SIGNED = {FunctionId.PEO, FunctionId.QEO, FunctionId.AFUN}
WEIGHTED = [fid for fid, rule in partitions._RULES.items() if rule.step is not None]
# for these, once a prefix weighs 0 every extension of it does too
PRUNED = {FunctionId.EO, FunctionId.EOBAR}


class TestNames:
    def test_cli_names(self):
        assert FunctionId.from_name("pod") is FunctionId.POD
        assert FunctionId.from_name("eobar") is FunctionId.EOBAR

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            FunctionId.from_name("nope")

    def test_sixteen_functions(self):
        assert len(list(FunctionId)) == 16
        assert len(DEFAULT_CAPS) == 16
        assert len(HARD_CAPS) == 16

    def test_caps_pinned(self):
        # a cap one lower or a ceiling one higher still agrees with the
        # series, so only this table shows such a change
        names = "p pod ped qdist qodd peo qeo p2mod4 eo eobar opbar opodd afun cubic qodd3 p3"
        expected = [FunctionId.from_name(name) for name in names.split()]
        assert list(DEFAULT_CAPS.items()) == list(zip(expected, [35] * 10 + [22] * 5 + [18]))
        assert list(HARD_CAPS.items()) == list(zip(expected, [60] * 10 + [30] * 5 + [24]))


class TestSpotValues:
    # the published single-value checks for each family
    @pytest.mark.parametrize(
        "fid,n,expected",
        [
            (FunctionId.P, 4, 5),
            (FunctionId.POD, 4, 3),
            (FunctionId.PED, 6, 9),
            (FunctionId.OPBAR, 3, 8),
            (FunctionId.CUBIC, 3, 4),
            (FunctionId.EO, 8, 12),
            (FunctionId.EOBAR, 8, 5),
            (FunctionId.QODD3, 4, 9),
        ],
    )
    def test_both_paths(self, fid, n, expected):
        assert gf_series(fid, n)[n] == expected
        assert count_by_enumeration(fid, n) == expected

    def test_tables(self):
        assert table(FunctionId.POD, 8) == [1, 1, 1, 2, 3, 4, 5, 7, 10]
        assert table(FunctionId.P, 6) == [1, 1, 2, 3, 5, 7, 11]
        assert table(FunctionId.AFUN, 5) == [1, -1, -1, 0, 1, 0]

    def test_eobar_small_values(self):
        # 2: "2" and "1+1"; 4: "4" and "1^4" ("2+2" fails the odd-multiplicity rule)
        assert count_by_enumeration(FunctionId.EOBAR, 2) == 2
        assert count_by_enumeration(FunctionId.EOBAR, 4) == 2
        assert table(FunctionId.EOBAR, 8)[1::2] == [0, 0, 0, 0]


def small_cap(fid):
    return min(DEFAULT_CAPS[fid], 16 if fid is not FunctionId.P3 else 12)


class TestOracleEquivalence:
    @pytest.mark.parametrize("fid", list(FunctionId), ids=lambda f: f.value)
    def test_enumeration_matches_series(self, fid):
        cap = small_cap(fid)
        series = gf_series(fid, cap)
        for n in range(cap + 1):
            assert count_by_enumeration(fid, n, cap=cap) == series[n], (fid, n)

    @pytest.mark.parametrize(
        "fid", [FunctionId.OPBAR, FunctionId.OPODD, FunctionId.EO, FunctionId.EOBAR],
        ids=lambda f: f.value,
    )
    def test_overpartitions_to_the_hard_ceiling(self, fid):
        # the overlining weight 2^(distinct parts) is largest at the ceiling;
        # eo and eobar are cheap there only because a dead prefix is pruned
        cap = HARD_CAPS[fid]
        got = [count_by_enumeration(fid, n, cap=cap) for n in range(cap + 1)]
        assert got == table(fid, cap)

    def test_swapped_formulas_detected(self):
        # ped and pod disagree first at n=2
        assert count_by_enumeration(FunctionId.PED, 2) == 2
        assert count_by_enumeration(FunctionId.POD, 2) == 1
        assert gf_series(FunctionId.PED, 2)[2] != gf_series(FunctionId.POD, 2)[2]


class TestWalkMatchesReference:
    @pytest.mark.parametrize("fid", list(FunctionId), ids=lambda f: f.value)
    def test_tables_equal_per_n_generator(self, fid):
        cap = small_cap(fid)
        expected = [reference_count(fid, n) for n in range(cap + 1)]
        # one walk up to the cap, and one walk per n when no cap is passed
        assert [count_by_enumeration(fid, n, cap=cap) for n in range(cap + 1)] == expected
        assert [count_by_enumeration(fid, n) for n in range(cap + 1)] == expected

    @pytest.mark.parametrize("fid", list(FunctionId), ids=lambda f: f.value)
    def test_weight_equals_its_plain_definition(self, fid):
        # every object the rule's slots make, largest part first as the walk
        # builds it; eo and eobar have one color, so no size repeats
        rule = partitions._RULES[fid]
        reference = reference_weight(fid)
        limit = 12 if fid is FunctionId.P3 else 20
        objects = [parts for n in range(limit + 1) for parts in iter_objects(n, rule.slots(limit))]
        assert [rule.weight(parts) for parts in objects] == [reference(parts) for parts in objects]

    def test_weighted_rows(self):
        names = "peo qeo eo eobar opbar opodd afun"
        assert WEIGHTED == [FunctionId.from_name(name) for name in names.split()]

    @pytest.mark.parametrize("fid", WEIGHTED, ids=lambda f: f.value)
    def test_one_step_per_object_made(self, fid, monkeypatch):
        # The walk makes an object by one step from its parent's state, and
        # makes none whose proper prefix weighs 0 (the empty prefix weighs 1
        # and is made by no step).
        rule = partitions._RULES[fid]
        steps = 0

        def step(state, size, mult):
            nonlocal steps
            steps += 1
            return rule.step(state, size, mult)

        counting = partitions._Rule(rule.cap, rule.ceiling, rule.part, step)
        monkeypatch.setitem(partitions._RULES, fid, counting)
        limit = small_cap(fid)
        got = partitions._enumeration_table.__wrapped__(fid, limit)
        assert list(got) == [reference_count(fid, n) for n in range(limit + 1)]
        reference = reference_weight(fid)
        objects = [parts for n in range(1, limit + 1) for parts in iter_objects(n, rule.slots(limit))]
        made = [parts for parts in objects if all(reference(parts[:k]) for k in range(len(parts)))]
        assert steps == len(made)
        assert (len(made) < len(objects)) == (fid in PRUNED)

    def test_override_cap(self):
        cap = DEFAULT_CAPS[FunctionId.QODD] + 3
        got = [count_by_enumeration(FunctionId.QODD, n, cap=cap) for n in range(cap + 1)]
        assert got == [reference_count(FunctionId.QODD, n) for n in range(cap + 1)]


class TestCaps:
    def test_default_cap_enforced(self, no_walk):
        with pytest.raises(CapExceededError):
            count_by_enumeration(FunctionId.P3, DEFAULT_CAPS[FunctionId.P3] + 1)

    def test_cap_override_allows_deeper(self):
        n = DEFAULT_CAPS[FunctionId.QODD] + 3
        got = count_by_enumeration(FunctionId.QODD, n, cap=n)
        assert got == gf_series(FunctionId.QODD, n)[n]

    def test_hard_ceiling(self, no_walk):
        with pytest.raises(CapExceededError):
            count_by_enumeration(FunctionId.P3, 10, cap=60)

    def test_negative_n(self, no_walk):
        with pytest.raises(ValueError):
            count_by_enumeration(FunctionId.P, -1)


class TestSeriesShape:
    def test_constant_terms_are_one(self):
        for fid in FunctionId:
            assert gf_series(fid, 0)[0] == 1

    def test_unsigned_functions_stay_nonnegative(self):
        for fid in FunctionId:
            series = gf_series(fid, 200)
            if fid in SIGNED:
                assert any(c < 0 for c in series)
            else:
                assert all(c >= 0 for c in series)

    def test_qodd_is_signed_parity_difference(self):
        qodd = table(FunctionId.QODD, 35)
        peo = table(FunctionId.PEO, 35)
        assert all(qodd[n] == (-1) ** n * peo[n] for n in range(36))

    def test_mod2_companions(self):
        pod = gf_series(FunctionId.POD, 200)
        cubic = gf_series(FunctionId.CUBIC, 200)
        qodd3 = gf_series(FunctionId.QODD3, 200)
        assert pod.reduce_mod(2) == cubic.reduce_mod(2)
        assert pod.reduce_mod(2) == qodd3.reduce_mod(2)

    def test_gf_series_returns_the_eta_memos_object(self, cold_memo):
        assert gf_series(FunctionId.POD, 50) is gf_series(FunctionId.POD, 50)
