import dataclasses
import json
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dimasr.corpus import (
    NULL_ASPECT,
    Instance,
    PairID,
    ParseError,
    PreprocessReport,
    Quadruplet,
    RawRecord,
    VAScore,
    check_fields,
    format_va,
    pair_sort_key,
    parse_quadruplet_file,
    parse_va,
    pool_pairs,
    preprocess,
    split_train_validation,
)
from synth import SYNTH_PAIRS, make_instances, make_raw_rows

PAIR = PairID.parse("zho-res")


def quad(aspect, va=None):
    return Quadruplet(aspect=aspect, va=VAScore(*va) if va else None)


def record(rid, quads, text="the crispy duck was superb"):
    return RawRecord(id=rid, text=text, quadruplets=quads, pair=PAIR)


class TestPairID:
    def test_canonical_round_trip(self):
        pair = PairID.parse("zho-res")
        assert (pair.language, pair.domain) == ("zho", "res")
        assert str(pair) == "zho-res"

    def test_bad_form_rejected(self):
        with pytest.raises(ValueError):
            PairID.parse("zhores")

    def test_sort_key_puts_official_first(self):
        pairs = [PairID.parse(p) for p in ("aaa-res", "zho-fin", "eng-res")]
        ordered = sorted(pairs, key=pair_sort_key)
        assert [str(p) for p in ordered] == ["eng-res", "zho-fin", "aaa-res"]


class TestVAWire:
    def test_parse_string(self):
        assert parse_va("7.0#6.5") == VAScore(7.0, 6.5)

    def test_parse_object_form(self):
        assert parse_va({"Valence": 2.5, "Arousal": 8.0}) == VAScore(2.5, 8.0)

    def test_round_trip_through_serializer(self):
        rng = random.Random(7)
        for _ in range(200):
            score = VAScore(rng.uniform(1, 9), rng.uniform(1, 9))
            assert parse_va(format_va(*score)) == score

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_every_finite_value(self, valence, arousal):
        score = VAScore(valence, arousal)
        back = parse_va(format_va(valence, arousal))
        assert back == score
        assert format_va(*back) == format_va(valence, arousal)

    def test_unparseable_string_names_raw_value(self):
        with pytest.raises(ParseError, match="7;5"):
            parse_va("7;5")
        with pytest.raises(ParseError, match="x#y"):
            parse_va("x#y")

    @pytest.mark.parametrize("value, detail", [
        *((text, "not a 'v#a' string") for text in
          ("5_0#5", " 6.5 # \u0665 ", "6.5#\u0665", "\uff15#5", "5#5#5")),
        *((obj, "unparseable VA object") for obj in
          ({"Valence": True, "Arousal": 5.0}, {"Valence": "5_0", "Arousal": 5.0},
           {"Valence": [5.0], "Arousal": 5.0}, {"Valence": 10**400, "Arousal": 5.0})),
    ])
    def test_only_ascii_decimals_and_json_numbers(self, value, detail):
        with pytest.raises(ParseError, match=detail):
            parse_va(value)

    def test_signs_exponents_and_json_numbers_accepted(self):
        assert parse_va("+7.5e0#-0.5") == VAScore(7.5, -0.5)
        assert parse_va({"Valence": 7, "Arousal": "6.5"}) == VAScore(7.0, 6.5)

    @pytest.mark.parametrize("value", [
        "nan#5.0", "5.0#inf", "-inf#5.0", "NaN#NaN",
        {"Valence": float("nan"), "Arousal": 5.0},
        {"Valence": 5.0, "Arousal": "inf"},
    ])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ParseError, match="non-finite"):
            parse_va(value)


class TestParseFile:
    def write(self, tmp_path, rows, name="zho-res.json", jsonl=False):
        path = tmp_path / name
        if jsonl:
            path.write_text("\n".join(json.dumps(r, ensure_ascii=False)
                                      for r in rows), encoding="utf-8")
        else:
            path.write_text(json.dumps(rows, ensure_ascii=False), encoding="utf-8")
        return path

    def rows(self):
        return [
            {"ID": "a", "Text": "great battery",
             "Quadruplets": [{"Aspect": "battery", "Category": "C",
                              "Opinion": "great", "VA": "7.0#6.5"}]},
            {"ID": "b", "Text": "meh", "Quadruplets": []},
        ]

    def test_two_records_order_preserved(self, tmp_path):
        records = parse_quadruplet_file(self.write(tmp_path, self.rows()), PAIR)
        assert [r.id for r in records] == ["a", "b"]
        assert len(records) == 2

    def test_va_decoded(self, tmp_path):
        records = parse_quadruplet_file(self.write(tmp_path, self.rows()), PAIR)
        assert records[0].quadruplets[0].va == VAScore(7.0, 6.5)

    def test_empty_file(self, tmp_path):
        assert parse_quadruplet_file(self.write(tmp_path, []), PAIR) == []

    def test_jsonl_container(self, tmp_path):
        path = self.write(tmp_path, self.rows(), jsonl=True)
        assert [r.id for r in parse_quadruplet_file(path, PAIR)] == ["a", "b"]

    def test_missing_text_names_record_and_field(self, tmp_path):
        rows = [{"ID": "a", "Quadruplets": []}]
        with pytest.raises(ParseError, match=r"record 0.*'Text'"):
            parse_quadruplet_file(self.write(tmp_path, rows), PAIR)

    @pytest.mark.parametrize("rid", [7, ["r1"], None])
    def test_non_string_id_names_record_and_field(self, tmp_path, rid):
        rows = [{"ID": "a", "Text": "t"}, {"ID": rid, "Text": "t"}]
        with pytest.raises(ParseError, match=r"record 1: field 'ID': not a string"):
            parse_quadruplet_file(self.write(tmp_path, rows), PAIR)

    def test_category_and_opinion_ignored(self, tmp_path):
        rows = [{"ID": "a", "Text": "t", "Quadruplets": [
            {"Aspect": "x", "Category": 5, "Opinion": ["y"], "VA": "5#5"}]}]
        records = parse_quadruplet_file(self.write(tmp_path, rows), PAIR)
        assert records[0].quadruplets == [Quadruplet("x", VAScore(5.0, 5.0))]

    def test_bad_va_reports_raw_string(self, tmp_path):
        rows = [{"ID": "a", "Text": "t",
                 "Quadruplets": [{"Aspect": "x", "VA": "oops"}]}]
        with pytest.raises(ParseError, match="oops"):
            parse_quadruplet_file(self.write(tmp_path, rows), PAIR)

    def test_duplicate_id_rejected(self, tmp_path):
        rows = [{"ID": "a", "Text": "t", "Quadruplets": []},
                {"ID": "a", "Text": "u", "Quadruplets": []}]
        with pytest.raises(ParseError, match=r"record 1: field 'ID': duplicate key, "
                                             r"first at record 0$"):
            parse_quadruplet_file(self.write(tmp_path, rows), PAIR)

    def test_blank_aspect_names_record_and_field(self, tmp_path):
        rows = [{"ID": "a", "Text": "t",
                 "Quadruplets": [{"Aspect": "x"}, {"Aspect": " \n"}]}]
        with pytest.raises(ParseError, match=r"record 0: entry 1: field 'Aspect': blank$"):
            parse_quadruplet_file(self.write(tmp_path, rows), PAIR)

    def test_blank_id_names_record_and_field(self, tmp_path):
        rows = [{"ID": "a", "Text": "t", "Quadruplets": []},
                {"ID": " ", "Text": "u", "Quadruplets": []}]
        with pytest.raises(ParseError, match=r"record 1: field 'ID': blank$"):
            parse_quadruplet_file(self.write(tmp_path, rows), PAIR)

    def test_unreadable_file_names_path(self, tmp_path):
        with pytest.raises(ParseError, match=f"^{re.escape(str(tmp_path))}: cannot read"):
            parse_quadruplet_file(tmp_path, PAIR)
        path = tmp_path / "zho-res.json"
        path.write_bytes(b'[{"ID": "a", "Text": "caf\xe9"}]')
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not UTF-8"):
            parse_quadruplet_file(path, PAIR)


class TestPreprocess:
    def test_null_aspect_dropped(self):
        instances, report = preprocess([record("r", [
            quad(NULL_ASPECT, (5.0, 5.0)), quad("battery", (7.0, 6.0))])])
        assert [i.aspect for i in instances] == ["battery"]
        assert report.null_aspect_drops == 1

    def test_absent_aspect_counts_as_null(self):
        instances, report = preprocess([record("r", [quad(None, (5.0, 5.0))])])
        assert instances == []
        assert report.null_aspect_drops == 1

    def test_out_of_range_dropped(self):
        instances, report = preprocess([record("r", [quad("a", (9.5, 5.0))])])
        assert instances == []
        assert report.out_of_range_drops == 1

    def test_component_wise_rule(self):
        _, report = preprocess([record("r", [quad("a", (5.0, 0.5))])])
        assert report.out_of_range_drops == 1

    def test_non_finite_dropped(self):
        _, report = preprocess([record("r", [quad("a", (float("nan"), 5.0))])])
        assert report.out_of_range_drops == 1

    def test_exact_bounds_kept(self):
        instances, report = preprocess([record("r", [
            quad("a", (1.0, 9.0)), quad("b", (9.0, 1.0))])])
        assert len(instances) == 2
        assert report.out_of_range_drops == 0

    def test_multi_aspect_expansion_shares_text(self):
        instances, report = preprocess([record("r", [
            quad("duck", (7.0, 6.0)), quad("service", (3.0, 4.0))])])
        assert len(instances) == 2
        assert instances[0].text == instances[1].text
        assert report.expanded_records == 1

    def test_first_opinion_wins(self):
        instances, report = preprocess([record("r", [
            quad("screen", (7.0, 6.0)), quad("screen", (3.0, 4.0))])])
        assert len(instances) == 1
        assert instances[0].gold == VAScore(7.0, 6.0)
        assert report.duplicate_aspect_drops == 1

    def test_dedup_applies_after_drops(self):
        # First occurrence is range-invalid, so the later one is the keeper.
        instances, report = preprocess([record("r", [
            quad("screen", (9.5, 6.0)), quad("screen", (3.0, 4.0))])])
        assert instances[0].gold == VAScore(3.0, 4.0)
        assert report.out_of_range_drops == 1
        assert report.duplicate_aspect_drops == 0

    def test_missing_va_kept_for_test_data(self):
        instances, _ = preprocess([record("r", [quad("room")])])
        assert len(instances) == 1 and instances[0].gold is None

    def test_counts_reconcile_on_random_corpus(self):
        rows = []
        for pair in SYNTH_PAIRS:
            for raw in make_raw_rows(pair, 50, seed=3):
                quads = [quad(q["Aspect"], tuple(map(float, q["VA"].split("#"))))
                         for q in raw["Quadruplets"]]
                rows.append(RawRecord(id=raw["ID"], text=raw["Text"],
                                      quadruplets=quads, pair=PAIR))
        instances, report = preprocess(rows)
        assert report.reconciles()
        assert report.instances_out == len(instances)
        for inst in instances:
            assert inst.aspect != NULL_ASPECT
            assert inst.gold.in_range()

    def test_idempotent_on_clean_instances(self):
        instances, _ = preprocess([record("r", [
            quad("duck", (7.0, 6.0)), quad("service", (3.0, 4.0))])])
        rewrapped = [RawRecord(id=i.id, text=i.text, pair=i.pair,
                               quadruplets=[Quadruplet(i.aspect, i.gold)])
                     for i in instances]
        again, report = preprocess(rewrapped)
        assert again == instances
        assert (report.null_aspect_drops, report.out_of_range_drops,
                report.duplicate_aspect_drops) == (0, 0, 0)

    def test_report_merge(self):
        a = PreprocessReport(records_in=1, quadruplets_in=2, instances_out=2)
        b = PreprocessReport(records_in=3, quadruplets_in=4, instances_out=3,
                             null_aspect_drops=1)
        m = a.merged(b)
        assert (m.records_in, m.quadruplets_in, m.instances_out,
                m.null_aspect_drops) == (4, 6, 5, 1)


class TestSplit:
    def test_hundred_records_ninety_ten(self):
        instances = make_instances("zho-res", 100, seed=1)
        train, val = split_train_validation(instances, 0.10, seed=5)
        assert (len(train), len(val)) == (90, 10)

    def test_same_seed_same_split(self):
        instances = make_instances("zho-res", 40, seed=1)
        a = split_train_validation(instances, 0.10, seed=9)
        b = split_train_validation(instances, 0.10, seed=9)
        assert a == b

    def test_varying_seed_preserves_sizes(self):
        instances = make_instances("zho-res", 60, seed=1)
        sizes = {tuple(map(len, split_train_validation(instances, 0.10, seed=s)))
                 for s in range(10)}
        assert sizes == {(54, 6)}

    def test_record_disjoint(self):
        instances = []
        for i in range(20):
            base = make_instances("zho-res", 1, seed=i)[0]
            for aspect in ("food", "staff", "room"):
                instances.append(Instance(id=f"rec{i}", text=base.text,
                                          aspect=aspect, gold=base.gold,
                                          pair=base.pair))
        train, val = split_train_validation(instances, 0.10, seed=0)
        assert {i.id for i in train}.isdisjoint({i.id for i in val})
        assert len(train) + len(val) == len(instances)
        assert len(val) >= 6

    def test_single_record_errors(self):
        base = make_instances("zho-res", 1, seed=0)[0]
        instances = [Instance(id="only", text=base.text, aspect=a,
                              gold=base.gold, pair=base.pair)
                     for a in ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j")]
        with pytest.raises(ValueError, match="one record"):
            split_train_validation(instances, 0.10, seed=0)

    def test_bad_fraction(self):
        instances = make_instances("zho-res", 10, seed=0)
        with pytest.raises(ValueError):
            split_train_validation(instances, 0.0, seed=0)
        with pytest.raises(ValueError):
            split_train_validation(instances, 1.0, seed=0)

    def test_min_one_held_out(self):
        instances = make_instances("zho-res", 5, seed=0)
        train, val = split_train_validation(instances, 0.01, seed=0)
        assert len(val) == 1 and len(train) == 4


class TestPool:
    def test_sizes_add_up(self):
        per_pair = {PairID.parse("aaa-res"): make_instances("aaa-res", 3, 0),
                    PairID.parse("bbb-lap"): make_instances("bbb-lap", 2, 0)}
        assert len(pool_pairs(per_pair)) == 5

    def test_single_pair_identity(self):
        instances = make_instances("zho-res", 7, 0)
        assert pool_pairs({PAIR: instances}) == instances

    def test_sum_over_ten_synthetic_pairs(self):
        rng = random.Random(11)
        per_pair = {}
        expected = 0
        for i in range(10):
            name = f"l{i:02d}-dom"
            n = rng.randint(1, 30)
            per_pair[PairID.parse(name)] = make_instances(name, n, i)
            expected += n
        assert len(pool_pairs(per_pair)) == expected

    def test_tags_retained_without_reordering_within_pair(self):
        per_pair = {PairID.parse(p): make_instances(p, 4, 1)
                    for p in SYNTH_PAIRS}
        pooled = pool_pairs(per_pair)
        for pair, instances in per_pair.items():
            assert [i for i in pooled if i.pair == pair] == instances


class TestCheckFields:
    @pytest.mark.parametrize("kinds", [(int, float, bool, str),
                                       ("int", "float", "bool", "str")],
                             ids=["classes", "strings"])
    def test_reads_class_and_string_annotations(self, kinds):
        probe = dataclasses.make_dataclass(
            "Probe", [(name, kind, dataclasses.field(metadata={"min": 0}))
                      if name == "n" else (name, kind)
                      for name, kind in zip(("n", "x", "flag", "name"), kinds)])
        good = probe(n=1, x=2, flag=True, name="a")
        check_fields(good)
        assert type(good.x) is float
        for name, bad in (("n", 1.0), ("n", -1), ("x", "2"), ("x", float("nan")),
                          ("flag", 1), ("name", 5)):
            with pytest.raises(KeyError, match=f"{name} must be"):
                check_fields(probe(**{**dataclasses.asdict(good), name: bad}),
                             KeyError)

    @pytest.mark.parametrize("kinds", [(int | None, "str | None"),
                                       ("int | None", "str | None")],
                             ids=["union", "strings"])
    def test_optional_kind_admits_none_and_checks_the_rest(self, kinds):
        probe = dataclasses.make_dataclass(
            "Probe", [("n", kinds[0], dataclasses.field(metadata={"min": 0})),
                      ("name", kinds[1])])
        check_fields(probe(n=None, name=None))
        check_fields(probe(n=3, name="a"))
        for name, bad, words in (("n", "3", "an int or None"), ("n", -1, ">= 0"),
                                 ("name", 5, "a str or None")):
            with pytest.raises(KeyError, match=f"{name} must be {words}"):
                check_fields(probe(**{"n": 3, "name": "a", name: bad}), KeyError)
