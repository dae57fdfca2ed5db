import math
import random
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimasr import cli
from dimasr.corpus import PairID, ParseError, VAScore
from dimasr.ensemble import (
    CandidatePool,
    EnsembleSelection,
    Member,
    SelectionEntry,
    search,
)
from dimasr.ensemble import apply as apply_selection
from dimasr.metrics import Prediction, rmse_va, va_array
from synth import make_instances

PAIRS = [PairID.parse(p) for p in ("aaa-res", "bbb-lap")]


def preds_from(instances, offsets):
    """Gold shifted by per-instance (dv, da) offsets."""
    return [Prediction(id=i.id, aspect=i.aspect,
                       va=VAScore(i.gold.valence + dv, i.gold.arousal + da))
            for i, (dv, da) in zip(instances, offsets)]


def noisy_member(mid, gold_by_pair, scale, seed):
    rng = np.random.default_rng(seed)
    dev = {}
    test = {}
    for pair, (dev_gold, test_gold) in gold_by_pair.items():
        dev[pair] = preds_from(dev_gold, rng.normal(0, scale, (len(dev_gold), 2)))
        test[pair] = preds_from(test_gold,
                                rng.normal(0, scale, (len(test_gold), 2)))
    return Member(id=mid, dev=dev, test=test)


def gold_fixture(n_dev=12, n_test=6, pairs=PAIRS):
    out = {}
    for k, pair in enumerate(pairs):
        out[pair] = (make_instances(str(pair), n_dev, seed=k),
                     make_instances(str(pair), n_test, seed=100 + k))
    return out


def make_members(n_members=4, scale=0.8, pairs=PAIRS):
    gold = gold_fixture(pairs=pairs)
    members = [noisy_member(f"M{i + 1}", gold, scale, seed=10 + i)
               for i in range(n_members)]
    return members, {p: dev for p, (dev, _) in gold.items()}


def make_pool(n_members=4, scale=0.8, pairs=PAIRS):
    members, gold = make_members(n_members, scale, pairs)
    return CandidatePool(members), gold


def keyed_average(members, pair, split="dev"):
    """apply() of a selection holding every member on `pair`, keyed by
    (id, aspect)."""
    pool = CandidatePool(members)
    entry = SelectionEntry(subset=tuple(m.id for m in members), dev_rmse=0.0,
                           n_scored=1)
    selection = EnsembleSelection(per_pair={pair: entry}, member_ids=pool.ids)
    values = apply_selection(selection, pool, split)[pair]
    return dict(zip(pool.reference[split][pair].keys, map(tuple, values)))


def keyed_apply(selection, pool, split, pair):
    return dict(zip(pool.reference[split][pair].keys,
                    apply_selection(selection, pool, split)[pair]))


class TestPoolValidation:
    def test_size_limits(self):
        gold = gold_fixture()
        one = [noisy_member("M1", gold, 1.0, 0)]
        with pytest.raises(ValueError, match="pool size"):
            CandidatePool(one)
        thirteen = [noisy_member(f"M{i}", gold, 1.0, i) for i in range(13)]
        with pytest.raises(ValueError, match="pool size"):
            CandidatePool(thirteen)

    def test_duplicate_ids_rejected(self):
        gold = gold_fixture()
        members = [noisy_member("M1", gold, 1.0, 0),
                   noisy_member("M1", gold, 1.0, 1)]
        with pytest.raises(ValueError, match="duplicate"):
            CandidatePool(members)

    def test_pair_coverage_mismatch_rejected(self):
        gold = gold_fixture()
        a = noisy_member("M1", gold, 1.0, 0)
        b = noisy_member("M2", gold, 1.0, 1)
        del b.dev[PAIRS[0]]
        with pytest.raises(ValueError, match="covers pairs"):
            CandidatePool([a, b])

    def test_key_misalignment_rejected(self):
        gold = gold_fixture()
        a = noisy_member("M1", gold, 1.0, 0)
        b = noisy_member("M2", gold, 1.0, 1)
        cut = b.dev[PAIRS[0]][-1]
        b.dev[PAIRS[0]] = b.dev[PAIRS[0]][:-1]
        with pytest.raises(ParseError, match=re.escape(
                f"member M2 dev {PAIRS[0]}: (ID, Aspect) keys differ from "
                f"member M1 dev {PAIRS[0]}: first missing key {cut.key}")):
            CandidatePool([a, b])

    def test_rows_follow_the_first_member_whatever_the_file_order(self):
        # `dimasr ensemble` aligns each dev file to the gold keys as it reads
        # it; the pool itself has one rule, the first member's keys.
        gold = gold_fixture()
        a = noisy_member("M1", gold, 1.0, 0)
        b = noisy_member("M2", gold, 1.0, 1)
        shuffled = Member(id="M2", dev={p: list(reversed(v))
                                        for p, v in b.dev.items()})
        pool = CandidatePool([a, shuffled])
        for pair, (dev, _) in gold.items():
            assert pool.reference["dev"][pair].keys == [i.key for i in dev]
            np.testing.assert_array_equal(
                pool.tensors["dev"][pair],
                [va_array([p.va for p in m.dev[pair]]) for m in (a, b)])

    def test_tensors_are_float64_members_by_rows(self):
        members, _ = make_members(3)
        pool = CandidatePool(iter(members))   # drawn one member at a time
        for split in ("dev", "test"):
            for pair in PAIRS:
                tensor = pool.tensors[split][pair]
                n = len(getattr(members[0], split)[pair])
                assert tensor.dtype == np.float64 and tensor.shape == (3, n, 2)

    def test_empty_pair_file_gives_an_empty_tensor(self, tmp_path):
        path = tmp_path / f"{PAIRS[0]}.json"
        path.write_text("[]", encoding="utf-8")
        pool = CandidatePool(Member(id=mid, dev={PAIRS[0]: cli.load_predictions(path)})
                             for mid in ("M1", "M2"))
        tensor = pool.tensors["dev"][PAIRS[0]]
        assert tensor.dtype == np.float64 and tensor.shape == (2, 0, 2)

    def test_duplicate_in_first_test_member_rejected(self):
        # The first member's test file is the reference; a repeated key in
        # it must not pass as "equal to itself".
        gold = gold_fixture()
        a = noisy_member("M1", gold, 1.0, 0)
        b = noisy_member("M2", gold, 1.0, 1)
        a.test[PAIRS[1]] = a.test[PAIRS[1]] + a.test[PAIRS[1]][:1]
        with pytest.raises(ParseError, match=re.escape(
                f"member M1 test {PAIRS[1]}: (ID, Aspect) keys differ from "
                f"member M1 test {PAIRS[1]}: duplicate key "
                f"{a.test[PAIRS[1]][0].key}")):
            CandidatePool([a, b])


class TestAverageSubset:
    """The averaging `apply` does: tensor[list(subset)].mean(axis=0)."""

    def two_members(self, a_va, b_va):
        preds_a = [Prediction(id="r1", aspect="x", va=VAScore(*a_va))]
        preds_b = [Prediction(id="r1", aspect="x", va=VAScore(*b_va))]
        return (Member(id="A", dev={PAIRS[0]: preds_a}),
                Member(id="B", dev={PAIRS[0]: preds_b}))

    def test_midpoint(self):
        a, b = self.two_members((4.0, 6.0), (6.0, 4.0))
        assert keyed_average([a, b], PAIRS[0]) == {("r1", "x"): (5.0, 5.0)}

    def test_identical_members_idempotent(self):
        gold = gold_fixture()
        m = noisy_member("M1", gold, 1.0, 0)
        twin = Member(id="M2", dev=m.dev, test=m.test)
        out = keyed_average([m, twin], PAIRS[0])
        assert list(out.values()) == [tuple(p.va) for p in m.dev[PAIRS[0]]]

    def test_matches_scalar_loop_oracle(self):
        members, _ = make_members(3)
        for pair in PAIRS:
            got = keyed_average(members, pair)
            for key, (v_got, a_got) in got.items():
                vals = []
                for m in members:
                    matching = [p for p in m.dev[pair] if p.key == key]
                    vals.append(matching[0].va)
                v = sum(s.valence for s in vals) / len(vals)
                a = sum(s.arousal for s in vals) / len(vals)
                assert abs(v_got - v) < 1e-12
                assert abs(a_got - a) < 1e-12
            assert list(got) == [p.key for p in members[0].dev[pair]]

    def test_misaligned_keys_rejected(self):
        a, b = self.two_members((4.0, 6.0), (6.0, 4.0))
        a.test[PAIRS[0]] = a.dev[PAIRS[0]]
        b.test[PAIRS[0]] = [Prediction(id="other", aspect="x",
                                       va=VAScore(5.0, 5.0))]
        with pytest.raises(ParseError, match="first missing key"):
            keyed_average([a, b], PAIRS[0], "test")

    def test_empty_subset_rejected(self):
        pool, gold = make_pool(2)
        selection = search(pool, gold)
        selection.per_pair[PAIRS[0]].subset = ()
        with pytest.raises(ValueError, match="empty"):
            apply_selection(selection, pool, "dev")

    def test_average_within_member_envelope(self):
        members, _ = make_members(5)
        for pair in PAIRS:
            avg = keyed_average(members, pair)
            stacks = {p.key: [] for p in members[0].dev[pair]}
            for m in members:
                for p in m.dev[pair]:
                    stacks[p.key].append(p.va)
            for key, vas in stacks.items():
                for dim, attr in enumerate(("valence", "arousal")):
                    values = [getattr(v, attr) for v in vas]
                    got = avg[key][dim]
                    assert min(values) - 1e-12 <= got <= max(values) + 1e-12


def brute_force_best(members, gold, pair, min_size, max_size):
    """Independent exhaustive re-scoring with the documented tie-break."""
    members = sorted(members, key=lambda m: m.id)
    gold_map = {i.key: i.gold for i in gold[pair]}
    best = None
    n_scored = 0
    for k in range(min_size, max_size + 1):
        for subset in combinations(members, k):
            keyed = [{p.key: p.va for p in m.dev[pair]} for m in subset]
            preds, golds = [], []
            for key, g in gold_map.items():
                preds.append((sum(d[key].valence for d in keyed) / len(subset),
                              sum(d[key].arousal for d in keyed) / len(subset)))
                golds.append(tuple(g))
            # Squares as products: `x ** 2` goes through libm pow, which may
            # miss the correctly rounded square by an ulp and so reorder
            # subsets whose averages differ from each other by an ulp.  The
            # sum is exactly rounded, as rmse_va's is: another order of
            # addition reorders such subsets too.
            total = math.fsum((pv - gv) * (pv - gv) + (pa - ga) * (pa - ga)
                              for (pv, pa), (gv, ga) in zip(preds, golds))
            score = math.sqrt(total / len(golds))
            ids = tuple(m.id for m in subset)
            cand = (score, len(ids), ids)
            n_scored += 1
            if best is None or cand < best:
                best = cand
    return best, n_scored


class TestSearch:
    def test_seven_member_pool_scores_120_subsets(self):
        pool, gold = make_pool(7)
        selection = search(pool, gold, min_size=2, max_size=7)
        for entry in selection.per_pair.values():
            assert entry.n_scored == 120

    def test_pool_of_two_forced_choice(self):
        pool, gold = make_pool(2)
        selection = search(pool, gold)
        for entry in selection.per_pair.values():
            assert entry.subset == ("M1", "M2")

    def test_opposite_errors_cancel_and_win(self):
        pair = PAIRS[0]
        instances = make_instances(str(pair), 15, seed=0)
        delta = np.random.default_rng(5).normal(0, 1.0, (15, 2))
        members = [
            Member(id="A", dev={pair: preds_from(instances, delta)}),
            Member(id="B", dev={pair: preds_from(instances, -delta)}),
            Member(id="C", dev={pair: preds_from(
                instances, np.random.default_rng(6).normal(0, 1.0, (15, 2)))}),
        ]
        pool = CandidatePool(members)
        gold = {pair: instances}
        selection = search(pool, gold)
        entry = selection.per_pair[pair]
        assert entry.subset == ("A", "B")
        assert entry.dev_rmse == pytest.approx(0.0, abs=1e-12)
        assert entry.n_scored == 4  # C(3,2) + C(3,3)
        best, n = brute_force_best(members, gold, pair, 2, 3)
        assert n == 4 and best[2] == ("A", "B")

    def test_matches_brute_force_everywhere(self):
        members, gold = make_members(5, scale=1.2)
        selection = search(CandidatePool(members), gold)
        for pair in PAIRS:
            best, n_scored = brute_force_best(members, gold, pair, 2, 5)
            entry = selection.per_pair[pair]
            assert entry.subset == best[2]
            assert entry.dev_rmse == pytest.approx(best[0], abs=1e-12)
            assert entry.n_scored == n_scored

    def test_errors_far_below_value_scale_match_brute_force(self):
        # Direct averaging rounds at the scale of the VA values (~5), here a
        # trillion times the errors; a tolerance sized to the errors alone
        # misses this pool's direct-path argmin.
        pair = PAIRS[0]
        instances = make_instances(str(pair), 6, seed=0)
        rng = np.random.default_rng(154)
        members = [Member(id=f"M{i + 1}", dev={pair: preds_from(
                       instances, rng.normal(0, 1e-11, (6, 2)))})
                   for i in range(8)]
        pool, gold = CandidatePool(members), {pair: instances}
        entry = search(pool, gold, min_size=1).per_pair[pair]
        best, _ = brute_force_best(members, gold, pair, 1, 8)
        assert (entry.subset, entry.dev_rmse) == (best[2], best[0])

    def test_selected_subset_beats_every_other(self):
        members, gold = make_members(5)
        selection = search(CandidatePool(members), gold)
        by_id = {m.id: m for m in sorted(members, key=lambda m: m.id)}
        for pair, entry in selection.per_pair.items():
            gold_list = gold[pair]
            for k in range(2, 6):
                for subset in combinations(by_id, k):
                    keyed = keyed_average([by_id[i] for i in subset], pair)
                    score = rmse_va([keyed[i.key] for i in gold_list],
                                    [i.gold for i in gold_list])
                    assert entry.dev_rmse <= score + 1e-12

    def test_tie_breaks_prefer_smaller_then_lexicographic(self):
        pair = PAIRS[0]
        instances = make_instances(str(pair), 10, seed=0)
        offsets = np.full((10, 2), 0.5)
        # Identical members: every subset scores the same.
        members = [Member(id=mid, dev={pair: preds_from(instances, offsets)})
                   for mid in ("M3", "M1", "M2")]
        selection = search(CandidatePool(members), {pair: instances})
        assert selection.per_pair[pair].subset == ("M1", "M2")

    def test_duplicates_whose_average_moves_an_ulp_match_brute_force(self):
        # Three copies of one member: the triple's average (3x)/3 differs
        # from x by an ulp in the last row and scores an ulp lower than x,
        # which a pow-based square once hid from the oracle.
        pair = PAIRS[0]
        instances = make_instances(str(pair), 5, seed=1)
        values = [(i.gold.valence, i.gold.arousal) for i in instances[:3]]
        values += [(5.192, 7.314), (5.934866658073785, 4.8797354327443445)]
        members = [Member(id=mid, dev={pair: [
                       Prediction(id=i.id, aspect=i.aspect, va=VAScore(*va))
                       for i, va in zip(instances, values)]})
                   for mid in ("M2", "M3", "M1")]
        pool, gold = CandidatePool(members), {pair: instances}
        entry = search(pool, gold, min_size=1).per_pair[pair]
        best, n_scored = brute_force_best(members, gold, pair, 1, 3)
        assert (entry.subset, entry.dev_rmse, entry.n_scored) == \
               (best[2], best[0], n_scored)

    def test_member_order_invariance(self):
        members, gold = make_members(5)
        shuffled = list(members)
        random.Random(3).shuffle(shuffled)
        a = search(CandidatePool(members), gold)
        b = search(CandidatePool(shuffled), gold)
        assert {p: e.subset for p, e in a.per_pair.items()} == \
               {p: e.subset for p, e in b.per_pair.items()}

    def test_dev_instance_order_leaves_every_entry(self):
        sets = gold_fixture(n_dev=300)
        members = [noisy_member(f"M{i + 1}", sets, 0.8, seed=10 + i) for i in range(6)]
        gold = {p: dev for p, (dev, _) in sets.items()}
        expected = search(CandidatePool(members), gold, min_size=1).per_pair
        for seed in range(10):
            rng = random.Random(seed)

            def shuffled(items):
                return rng.sample(items, len(items))
            moved = [Member(id=m.id, dev={p: shuffled(v) for p, v in m.dev.items()})
                     for m in members]
            selection = search(CandidatePool(moved),
                               {p: shuffled(v) for p, v in gold.items()}, min_size=1)
            assert selection.per_pair == expected, seed

    def test_min_size_larger_than_pool_rejected(self):
        pool, gold = make_pool(3)
        with pytest.raises(ValueError, match="min_size"):
            search(pool, gold, min_size=4)

    def test_max_size_below_min_size_rejected(self):
        pool, gold = make_pool(3)
        with pytest.raises(ValueError, match="^max_size 2 is below min_size 3$"):
            search(pool, gold, min_size=3, max_size=2)

    def test_singletons_allowed_when_requested(self):
        pool, gold = make_pool(3)
        selection = search(pool, gold, min_size=1)
        for entry in selection.per_pair.values():
            assert entry.n_scored == 7  # C(3,1)+C(3,2)+C(3,3)

    def test_missing_gold_pair_rejected(self):
        pool, gold = make_pool(3)
        del gold[PAIRS[1]]
        with pytest.raises(ValueError, match=str(PAIRS[1])):
            search(pool, gold)

    def test_search_never_reads_test_predictions(self):
        class RecordingDict(dict):
            reads = 0
            def __getitem__(self, key):
                RecordingDict.reads += 1
                return super().__getitem__(key)
            def get(self, *a, **k):
                RecordingDict.reads += 1
                return super().get(*a, **k)

        gold = gold_fixture()
        members = []
        for i in range(3):
            m = noisy_member(f"M{i + 1}", gold, 1.0, seed=i)
            members.append(Member(id=m.id, dev=m.dev,
                                  test=RecordingDict(m.test)))
        pool = CandidatePool(members)
        RecordingDict.reads = 0
        search(pool, {p: dev for p, (dev, _) in gold.items()})
        assert RecordingDict.reads == 0


@st.composite
def tie_prone_members(draw):
    """Lists of 2..8 members whose dev errors are fresh draws, exact
    duplicates of an earlier member (exact ties) or its negation (pairs that
    cancel to an RMSE of about 0), listed in a drawn order."""
    n = draw(st.integers(1, 6))
    size = draw(st.integers(2, 8))
    entries = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    offsets = []
    for _ in range(size):
        kind = draw(st.sampled_from(["fresh", "duplicate", "mirror"]))
        if kind == "fresh" or not offsets:
            offsets.append(np.array(
                draw(st.lists(entries, min_size=2 * n, max_size=2 * n))
            ).reshape(n, 2))
        else:
            source = offsets[draw(st.integers(0, len(offsets) - 1))]
            offsets.append(source if kind == "duplicate" else -source)
    pair = PAIRS[0]
    instances = make_instances(str(pair), n, seed=draw(st.integers(0, 3)))
    ids = draw(st.permutations([f"M{i + 1}" for i in range(size)]))
    members = [Member(id=mid, dev={pair: preds_from(instances, off)})
               for mid, off in zip(ids, offsets)]
    return members, {pair: instances}


class TestSearchProperties:
    @settings(max_examples=150, deadline=None)
    @given(drawn=tie_prone_members(), min_size=st.integers(1, 3))
    def test_equals_brute_force_and_apply(self, drawn, min_size):
        members, gold = drawn
        pool = CandidatePool(members)
        pair = PAIRS[0]
        min_size = min(min_size, len(pool))
        selection = search(pool, gold, min_size=min_size)
        entry = selection.per_pair[pair]
        best, n_scored = brute_force_best(members, gold, pair, min_size, len(pool))
        assert entry.subset == best[2]
        assert entry.n_scored == n_scored
        assert abs(entry.dev_rmse - best[0]) <= 1e-12
        keyed = keyed_apply(selection, pool, "dev", pair)
        assert entry.dev_rmse == rmse_va([keyed[i.key] for i in gold[pair]],
                                         [i.gold for i in gold[pair]])


class TestApply:
    def test_dev_round_trip_reproduces_recorded_rmse(self):
        pool, gold = make_pool(4)
        selection = search(pool, gold)
        for pair in selection.per_pair:
            keyed = keyed_apply(selection, pool, "dev", pair)
            score = rmse_va([keyed[i.key] for i in gold[pair]],
                            [i.gold for i in gold[pair]])
            assert score == selection.per_pair[pair].dev_rmse

    def test_rows_equal_the_tensor_mean_bit_for_bit(self):
        pool, gold = make_pool(5)
        selection = search(pool, gold, min_size=3)
        for split in ("dev", "test"):
            for pair, rows in apply_selection(selection, pool, split).items():
                chosen = [pool.ids.index(mid) for mid in selection.per_pair[pair].subset]
                mean = pool.tensors[split][pair][chosen].mean(axis=0)
                assert all(type(row) is tuple for row in rows)
                assert [tuple(map(float.hex, row)) for row in rows] == \
                       [tuple(map(float.hex, row)) for row in mean.tolist()]

    def test_single_pair_selection(self):
        pool, gold = make_pool(3, pairs=PAIRS[:1])
        selection = search(pool, gold)
        combined = apply_selection(selection, pool, "test")
        assert list(combined) == [PAIRS[0]]

    def test_missing_test_predictions_named(self):
        gold = gold_fixture()
        members = [Member(id=f"M{i}", dev=noisy_member("x", gold, 1, i).dev)
                   for i in (1, 2)]
        pool = CandidatePool(members)
        selection = search(pool, {p: dev for p, (dev, _) in gold.items()})
        with pytest.raises(ValueError, match="no test predictions"):
            apply_selection(selection, pool, "test")

    def test_unknown_split_rejected(self):
        pool, gold = make_pool(2)
        selection = search(pool, gold)
        with pytest.raises(ValueError, match="split"):
            apply_selection(selection, pool, "train")

    def test_unknown_member_rejected(self):
        pool, gold = make_pool(2)
        selection = search(pool, gold)
        for entry in selection.per_pair.values():
            object.__setattr__(entry, "subset", ("M1", "M9"))
        with pytest.raises(ValueError, match="M9"):
            apply_selection(selection, pool, "dev")


class TestSelectionSerialization:
    def test_membership_matrix_shape(self):
        pool, gold = make_pool(4)
        selection = search(pool, gold)
        text = selection.render_membership_matrix()
        lines = text.splitlines()
        assert len(lines) == 1 + len(PAIRS)
        header = lines[0].split()
        assert header == ["pair", "M1", "M2", "M3", "M4", "Number"]
        for line, pair in zip(lines[1:], sorted(
                selection.per_pair, key=lambda p: str(p))):
            entry = selection.per_pair[pair]
            assert line.count("✓") == len(entry.subset)
            assert line.rstrip().endswith(str(len(entry.subset)))
