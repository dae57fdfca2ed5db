import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimasr.corpus import PairID, ParseError, VAScore
from dimasr.metrics import Columns, EvalReport, align_columns, evaluate, rmse_va
from synth import make_instances


def brute_force_rmse(preds, golds):
    """Two-pass scalar-loop implementation of the joint VA error."""
    total = 0.0
    for (vp, ap), (vg, ag) in zip(preds, golds):
        total += (vp - vg) ** 2 + (ap - ag) ** 2
    return math.sqrt(total / len(preds))


class TestRmseVA:
    def test_perfect_prediction_is_zero(self):
        vals = [(3.0, 4.0), (5.5, 6.5)]
        assert rmse_va(vals, vals) == 0.0

    def test_worked_sqrt_two(self):
        assert rmse_va([(6.0, 5.0)], [(5.0, 6.0)]) == math.sqrt(2.0)

    def test_worked_sqrt_two_point_five(self):
        # errors (1, 0) and (0, 2): sqrt((1 + 4) / 2)
        got = rmse_va([(6.0, 5.0), (3.0, 7.0)], [(5.0, 5.0), (3.0, 5.0)])
        assert got == math.sqrt(2.5)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(13)
        preds = [(rng.uniform(1, 9), rng.uniform(1, 9)) for _ in range(1000)]
        golds = [(rng.uniform(1, 9), rng.uniform(1, 9)) for _ in range(1000)]
        assert abs(rmse_va(preds, golds) - brute_force_rmse(preds, golds)) < 1e-9

    def test_error_scaling(self, rng):
        golds = rng.uniform(1, 9, size=(50, 2))
        errors = rng.normal(size=(50, 2))
        base = rmse_va(golds + errors, golds)
        for c in (0.5, 2.0, 7.0):
            np.testing.assert_allclose(rmse_va(golds + c * errors, golds),
                                       c * base, rtol=1e-12)

    def test_permutation_invariant(self, rng):
        p = rng.uniform(1, 9, size=(40, 2))
        g = rng.uniform(1, 9, size=(40, 2))
        perm = rng.permutation(40)
        np.testing.assert_allclose(rmse_va(p, g), rmse_va(p[perm], g[perm]),
                                   atol=1e-12)

    def test_accepts_vascore_objects(self):
        p = [VAScore(6.0, 5.0)]
        g = [VAScore(5.0, 6.0)]
        assert rmse_va(p, g) == math.sqrt(2.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            rmse_va([(1, 1)], [(1, 1), (2, 2)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rmse_va([], [])


def columns_for(instances, offset=0.0, source="pred.json"):
    return Columns([i.key for i in instances],
                   np.array([[i.gold.valence + offset, i.gold.arousal]
                             for i in instances]), source)


class TestAlign:
    """align_columns: the one (ID, Aspect) aligner of evaluate and ensemble."""

    def test_equal_order_returns_values_unchanged(self):
        instances = make_instances("zho-res", 10, seed=0)
        cols = columns_for(instances, offset=0.5)
        ref = columns_for(instances, source="gold.json")
        assert align_columns(cols, ref) is cols.values

    def test_alignment_by_key_not_position(self):
        instances = make_instances("zho-res", 10, seed=0)
        cols = columns_for(list(reversed(instances)), offset=0.5)
        ref = columns_for(instances, source="gold.json")
        p = align_columns(cols, ref)
        np.testing.assert_allclose(p[:, 0] - ref.values[:, 0], 0.5)
        np.testing.assert_array_equal(p[:, 1], ref.values[:, 1])

    @settings(max_examples=50, deadline=None)
    @given(perm=st.permutations(range(8)))
    def test_any_order_aligns_row_for_row(self, perm):
        instances = make_instances("zho-res", 8, seed=1)
        shuffled = [instances[i] for i in perm]
        p = align_columns(columns_for(shuffled), columns_for(instances))
        np.testing.assert_array_equal(p, columns_for(instances).values)

    def test_missing_prediction_named(self):
        instances = make_instances("zho-res", 3, seed=0)
        with pytest.raises(ParseError, match=re.escape(
                f"pred.json: (ID, Aspect) keys differ from gold.json: "
                f"first missing key {instances[1].key}")):
            align_columns(columns_for([instances[0], instances[2]]),
                          columns_for(instances, source="gold.json"))

    def test_unknown_prediction_named(self):
        instances = make_instances("zho-res", 3, seed=0)
        extra = make_instances("zho-res", 4, seed=9)[0]
        with pytest.raises(ParseError, match=re.escape(
                f"first extra key {extra.key}")):
            align_columns(columns_for(instances[:1] + [extra] + instances[1:]),
                          columns_for(instances))

    def test_duplicate_key_rejected(self):
        instances = make_instances("zho-res", 3, seed=0)
        with pytest.raises(ParseError, match=re.escape(
                f"duplicate key {instances[0].key}")):
            align_columns(columns_for(instances + instances[:1]),
                          columns_for(instances))

    def test_one_line_message(self):
        instances = make_instances("zho-res", 3, seed=0)
        with pytest.raises(ParseError) as info:
            align_columns(columns_for(instances[1:]), columns_for(instances))
        assert "\n" not in str(info.value)


class TestEvaluate:
    def pair_data(self, names, n=8, offset=0.0):
        """Aligned (n, 2) prediction and gold arrays per pair."""
        gold = {}
        preds = {}
        for seed, name in enumerate(names):
            instances = make_instances(name, n, seed=seed)
            gold[PairID.parse(name)] = columns_for(instances).values
            preds[PairID.parse(name)] = columns_for(instances, offset).values
        return preds, gold

    def test_perfect_predictions_all_zero(self):
        preds, gold = self.pair_data(["aaa-res", "bbb-lap", "ccc-hot"])
        report = evaluate(preds, gold)
        assert all(v == 0.0 for v in report.per_pair.values())
        assert report.average == 0.0

    def test_average_is_unweighted_mean(self):
        p1, g1 = self.pair_data(["aaa-res"], n=4, offset=1.0)   # rmse 1.0
        p2, g2 = self.pair_data(["bbb-lap"], n=20, offset=2.0)  # rmse 2.0
        report = evaluate({**p1, **p2}, {**g1, **g2})
        assert report.average == pytest.approx(1.5, abs=1e-12)
        assert report.n_per_pair[PairID.parse("aaa-res")] == 4
        assert report.n_per_pair[PairID.parse("bbb-lap")] == 20

    def test_ten_pairs_average_matches_external_mean(self):
        names = [f"l{i:02d}-dom" for i in range(10)]
        preds, gold = self.pair_data(names, offset=0.25)
        report = evaluate(preds, gold)
        external = sum(report.per_pair.values()) / 10
        assert report.average == pytest.approx(external, abs=1e-12)

    def test_missing_pair_named(self):
        preds, gold = self.pair_data(["aaa-res", "bbb-lap"])
        del preds[PairID.parse("bbb-lap")]
        with pytest.raises(ValueError, match="bbb-lap"):
            evaluate(preds, gold)

    def test_report_dict_and_table(self):
        preds, gold = self.pair_data(["zho-res", "aaa-res"], offset=1.0)
        report = evaluate(preds, gold)
        d = report.as_dict()
        assert list(d["per_pair"]) == ["zho-res", "aaa-res"]  # official first
        table = report.render_table()
        assert "zho-res" in table and "Avg." in table
        assert "1.0000" in table

    def test_report_is_dataclass_with_values(self):
        preds, gold = self.pair_data(["aaa-res"], offset=3.0)
        report = evaluate(preds, gold)
        assert isinstance(report, EvalReport)
        assert report.per_pair[PairID.parse("aaa-res")] == pytest.approx(3.0)
