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
        assert rmse_va(p, g) == rmse_va(p[perm], g[perm])

    def test_sum_past_the_float_range_is_inf(self):
        # Each square is finite (1.44e308); their sum is not.  The trainer
        # stops a run on a non-finite validation RMSE.
        assert rmse_va([(1.2e154, 5.0)] * 2, [(0.0, 5.0)] * 2) == math.inf

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


# Row counts around the block sizes numpy's pairwise summation switches at
# (8 accumulators, 128-value blocks, 8,192-value buffers on numpy < 2.3).
SUM_SIZES = st.one_of(st.integers(1, 10_500), st.sampled_from(
    [1, 7, 8, 9, 15, 16, 127, 128, 129, 136, 255, 256, 8191, 8192, 8193, 10_000]))


class TestExactSum:
    """rmse_va and the pair average add with math.fsum: exactly rounded, so
    the same bits for any order of rows or pairs and on any numpy."""

    @settings(max_examples=150, deadline=None)
    @given(n=SUM_SIZES, seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-8, 1.0, 1e8]))
    def test_rmse_equals_fsum_oracle(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        p = (rng.uniform(1, 9, (n, 2)) * scale).tolist()
        g = rng.uniform(1, 9, (n, 2)).tolist()
        squares = [(pv - gv) * (pv - gv) + (pa - ga) * (pa - ga)
                   for (pv, pa), (gv, ga) in zip(p, g)]
        assert rmse_va(p, g) == math.sqrt(math.fsum(squares) / n)

    @pytest.mark.parametrize("n", [1, 129, 8193, 10_000, 20_000])
    def test_agrees_with_numpy(self, n):
        rng = np.random.default_rng(n)
        g = rng.uniform(1, 9, (n, 2))
        for scale in (1e-8, 1.0, 1e8):
            p = rng.uniform(1, 9, (n, 2)) * scale
            d = p - g
            expected = float(np.sqrt(np.mean(np.sum(d * d, axis=1))))
            assert rmse_va(p, g) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(n_pairs=st.integers(1, 12), n=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_order_of_rows_and_pairs_leaves_every_bit(self, n_pairs, n, seed):
        rng = np.random.default_rng(seed)
        pairs = [PairID.parse(f"p{i:02d}-dom") for i in range(n_pairs)]
        preds = {pair: rng.uniform(1, 9, (n, 2)) for pair in pairs}
        gold = {pair: rng.uniform(1, 9, (n, 2)) for pair in pairs}
        rows = rng.permutation(n)
        shuffled = evaluate({p: v[rows] for p, v in preds.items()},
                            {p: v[rows] for p, v in gold.items()})
        report = evaluate(preds, gold)
        assert shuffled.per_pair == report.per_pair
        relabel = dict(zip(pairs, [pairs[i] for i in rng.permutation(n_pairs)]))
        moved = evaluate({relabel[p]: v for p, v in preds.items()},
                         {relabel[p]: v for p, v in gold.items()})
        assert moved.average == report.average


def columns_for(instances, offset=0.0, source="pred.json"):
    return Columns([i.key for i in instances],
                   [(i.gold.valence + offset, i.gold.arousal) for i in instances],
                   source)


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
        assert p == [(v + 0.5, a) for v, a in ref.values]

    @settings(max_examples=50, deadline=None)
    @given(perm=st.permutations(range(8)))
    def test_any_order_aligns_row_for_row(self, perm):
        instances = make_instances("zho-res", 8, seed=1)
        shuffled = [instances[i] for i in perm]
        p = align_columns(columns_for(shuffled), columns_for(instances))
        assert p == columns_for(instances).values

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

    def test_report_is_an_eval_report_with_values(self):
        preds, gold = self.pair_data(["aaa-res"], offset=3.0)
        report = evaluate(preds, gold)
        assert isinstance(report, EvalReport)
        assert report.per_pair[PairID.parse("aaa-res")] == pytest.approx(3.0)
