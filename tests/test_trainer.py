import dataclasses
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dimasr import encoding, metrics, regressor, trainer
from dimasr.corpus import REGIMES, Instance, PairID, VAScore
from dimasr.encoding import DROPOUT, ORDER, EncoderSpec, EncodingError, draw
from dimasr.trainer import (
    ADAMW_BETAS,
    ADAMW_EPS,
    ADAMW_WEIGHT_DECAY,
    AdamW,
    Checkpoint,
    EarlyStopping,
    TrainConfig,
    TrainingError,
    default_grid,
    train,
    train_grid,
)
from synth import make_instances

SPEC = EncoderSpec(max_len=32, hidden_size=16)


def predict(ckpt, instances):
    """The checkpoint's (n, 2) predictions for `instances`."""
    return ckpt.predict(encoding.instance_features(instances, ckpt.encoder_spec))


def config(**overrides):
    base = dict(batch_size=8, learning_rate=0.05, max_epochs=5, bounded=True,
                seed=42, patience=2, dropout_rate=0.1)
    base.update(overrides)
    return TrainConfig(**base)


def checkpoint(**overrides):
    base = dict(id="M1", config=config(),
                encoder_spec=EncoderSpec(hidden_size=2, trainable_layer=False),
                head=regressor.HeadParams(W=np.zeros((2, 2)), b=np.zeros(2),
                                          dropout_rate=0.1, bounded=True),
                projection=None, best_val_rmse=0.5, epoch_of_best=1)
    return Checkpoint(**{**base, **overrides})


def scripted(values):
    return lambda epoch, model: values[epoch - 1]


class TestEarlyStopping:
    def test_injected_sequence_stops_after_epoch_four(self):
        stopper = EarlyStopping(patience=2)
        seen = []
        for epoch, score in enumerate([1.0, 0.9, 0.95, 0.97], start=1):
            stopper.update(score, epoch)
            seen.append(stopper.should_stop)
        assert seen == [False, False, False, True]
        assert stopper.best_epoch == 2 and stopper.best_score == 0.9

    def test_tie_counts_as_non_improvement(self):
        stopper = EarlyStopping(patience=2)
        stopper.update(1.0, 1)
        assert not stopper.update(1.0, 2)
        assert not stopper.update(1.0 - 1e-7, 3)  # below the 1e-6 delta
        assert stopper.should_stop

    def test_strict_improvement_resets_counter(self):
        stopper = EarlyStopping(patience=2)
        for epoch, score in enumerate([1.0, 0.99, 0.995, 0.98], start=1):
            stopper.update(score, epoch)
        assert not stopper.should_stop
        assert stopper.best_epoch == 4


class TestAdamW:
    def test_zero_learning_rate_is_identity(self, rng):
        params = rng.normal(size=(2, 4))
        before = params.copy()
        opt = AdamW(learning_rate=0.0)
        for _ in range(3):
            opt.step(params, rng.normal(size=(2, 4)))
        np.testing.assert_array_equal(params, before)

    def test_step_moves_parameters(self, rng):
        params = rng.normal(size=(2, 4))
        before = params.copy()
        AdamW(learning_rate=0.01).step(params, np.ones((2, 4)))
        assert np.all(params != before)

    def test_exempt_elements_skip_decay(self):
        params = np.array([10.0, -10.0, 10.0, -10.0])
        AdamW(learning_rate=0.1, decay=np.array([1.0, 1.0, 0.0, 0.0])).step(
            params, np.zeros(4))
        # zero gradient: decayed elements shrink, exempt ones (a bias) are unchanged
        assert np.all(np.abs(params[:2]) < 10.0)
        np.testing.assert_array_equal(params[2:], [10.0, -10.0])

    def test_one_step_equals_update_by_hand(self, rng):
        lr, (beta1, beta2) = 0.05, ADAMW_BETAS
        params, grads = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        decayed = params - lr * ADAMW_WEIGHT_DECAY * params
        m_hat = (1.0 - beta1) * grads / (1.0 - beta1)
        v_hat = (1.0 - beta2) * (grads * grads) / (1.0 - beta2)
        expected = decayed - lr * m_hat / (np.sqrt(v_hat) + ADAMW_EPS)
        AdamW(learning_rate=lr).step(params, grads)
        assert params.tobytes() == expected.tobytes()

    def test_rows_with_own_rates_step_as_separate_optimizers(self, rng):
        rates = [0.05, 0.01, 0.2]
        stacked = rng.normal(size=(3, 6))
        alone = [row.copy() for row in stacked]
        opt = AdamW(np.array([[r] for r in rates]))
        singles = [AdamW(r) for r in rates]
        kept = np.array([True, False, True])
        for t in range(4):
            if t == 2:   # a config leaves the stack
                stacked = stacked[kept]
                opt.keep(kept)
                alone, singles = alone[::2], singles[::2]
            grads = rng.normal(size=stacked.shape)
            opt.step(stacked, grads)
            for row, single, g in zip(alone, singles, grads):
                single.step(row, g)
        assert [row.tobytes() for row in stacked] == [row.tobytes() for row in alone]


class TestTrainLoop:
    def data(self, n=24, seed=3):
        return (make_instances("zho-res", n, seed=seed),
                make_instances("zho-res", 6, seed=seed + 100))

    def test_injected_sequence_restores_epoch_two(self):
        train_set, val_set = self.data()
        vals = [1.0, 0.9, 0.95, 0.97, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]
        long = train(train_set, val_set,
                     config(max_epochs=10, patience=2, seed=7), SPEC,
                     val_metric_fn=scripted(vals))
        assert len(long.history) == 4          # stopped after epoch 4
        assert long.epoch_of_best == 2
        assert long.best_val_rmse == 0.9

        short = train(train_set, val_set,
                      config(max_epochs=2, patience=5, seed=7), SPEC,
                      val_metric_fn=scripted(vals))
        np.testing.assert_array_equal(long.head.W, short.head.W)
        np.testing.assert_array_equal(long.head.b, short.head.b)
        np.testing.assert_array_equal(long.projection, short.projection)

    def test_patience_at_least_max_epochs_runs_all(self):
        train_set, val_set = self.data()
        vals = [1.0, 0.5, 0.6, 0.7, 0.8]
        ckpt = train(train_set, val_set, config(max_epochs=5, patience=5), SPEC,
                     val_metric_fn=scripted(vals))
        assert len(ckpt.history) == 5
        assert ckpt.epoch_of_best == 2 and ckpt.best_val_rmse == 0.5

    def test_deterministic_checkpoints(self, tmp_path):
        train_set, val_set = self.data()
        paths = []
        for name in ("a.ckpt", "b.ckpt"):
            ckpt = train(train_set, val_set, config(), SPEC)
            path = tmp_path / name
            ckpt.save(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_payload(self):
        train_set, val_set = self.data()
        a = train(train_set, val_set, config(seed=1), SPEC)
        b = train(train_set, val_set, config(seed=2), SPEC)
        assert not np.array_equal(a.head.W, b.head.W)

    def test_best_val_rmse_matches_recomputation(self):
        train_set, val_set = self.data()
        ckpt = train(train_set, val_set, config(max_epochs=4), SPEC)
        recomputed = metrics.rmse_va(predict(ckpt, val_set),
                                     [i.gold for i in val_set])
        assert ckpt.best_val_rmse == pytest.approx(recomputed, abs=1e-12)

    def test_returned_rmse_never_exceeds_any_epoch(self):
        train_set, val_set = self.data()
        ckpt = train(train_set, val_set, config(max_epochs=6, patience=6), SPEC)
        assert ckpt.best_val_rmse <= min(h["val_rmse"] for h in ckpt.history)

    def test_epoch_log_lines_recorded(self):
        train_set, val_set = self.data()
        ckpt = train(train_set, val_set, config(max_epochs=3, patience=3), SPEC)
        assert [h["epoch"] for h in ckpt.history] == [1, 2, 3]
        assert all(np.isfinite(h["train_mse"]) and np.isfinite(h["val_rmse"])
                   for h in ckpt.history)

    @pytest.mark.parametrize("bounded", [True, False])
    def test_two_hundred_epochs_reach_a_tenth_of_initial_mse(self, bounded):
        instances = make_instances("zho-res", 20, seed=3)
        val = make_instances("zho-res", 5, seed=4)
        cfg = config(batch_size=8, learning_rate=0.05, max_epochs=200,
                     patience=500, bounded=bounded, dropout_rate=0.0)
        feats = encoding.instance_features(instances, SPEC)
        gold = metrics.va_array([i.gold for i in instances])
        head0 = regressor.init_head(SPEC.hidden_size, cfg.seed,
                                    cfg.dropout_rate, cfg.bounded)
        e0 = encoding.apply_projection(feats, encoding.init_projection(
            SPEC.hidden_size))
        initial = regressor.mse_loss(regressor.predict(e0, head0), gold)
        ckpt = train(instances, val, cfg, SPEC)
        assert len(ckpt.history) == 200
        assert ckpt.history[-1]["train_mse"] < 0.10 * initial

    def assert_one_epoch_equals_per_tensor_steps(self, cfg):
        # One AdamW per tensor, as W, b and A would be stepped alone:
        # decoupled weight decay on W and A, none on b.  The epoch's order
        # is a stable argsort of its (seed, ORDER, 1) draw, and step k takes
        # rows k * batch_size onward of its (seed, DROPOUT, 1) block.
        train_set, val_set = self.data()
        ckpt = train(train_set, val_set, cfg, SPEC)
        feats = encoding.instance_features(train_set, SPEC)
        gold = metrics.va_array([i.gold for i in train_set])
        head = regressor.init_head(SPEC.hidden_size, cfg.seed, cfg.dropout_rate,
                                   cfg.bounded)
        params = {"W": head.W, "b": head.b, "A": encoding.init_projection(SPEC.hidden_size)}
        opts = {name: AdamW(cfg.learning_rate, decay=float(name != "b")) for name in params}
        order = np.argsort(draw((cfg.seed, ORDER, 1), (len(train_set),)), kind="stable")
        block = draw((cfg.seed, DROPOUT, 1), feats.shape)
        for start in range(0, len(train_set), cfg.batch_size):
            rows = slice(start, start + cfg.batch_size)
            _, cache = regressor.forward_cached(feats[order[rows]], head, params["A"],
                                                block[rows], train=True)
            for name, g in regressor.backward(cache, gold[order[rows]]).items():
                opts[name].step(params[name], g)
        got = {"W": ckpt.head.W, "b": ckpt.head.b, "A": ckpt.projection}
        assert {k: v.tobytes() for k, v in got.items()} == \
            {k: v.tobytes() for k, v in params.items()}

    def test_one_epoch_equals_per_tensor_steps_with_bias_exempt(self):
        self.assert_one_epoch_equals_per_tensor_steps(config(max_epochs=1,
                                                             dropout_rate=0.0))

    def test_one_epoch_with_dropout_slices_the_epoch_block_by_step(self):
        self.assert_one_epoch_equals_per_tensor_steps(config(max_epochs=1,
                                                             dropout_rate=0.3))

    def test_each_epoch_feeds_every_instance_once_in_its_own_order(self, monkeypatch):
        train_set, val_set = self.data(n=20)   # batches of 8, 8 and 4
        seen, original = [], regressor.forward_cached

        def recording(feats, *args, train, **kw):
            if train:   # validation runs with train=False
                seen.append(feats)
            return original(feats, *args, train=train, **kw)
        monkeypatch.setattr(regressor, "forward_cached", recording)
        train(train_set, val_set, config(max_epochs=3, patience=3), SPEC)
        feats = encoding.instance_features(train_set, SPEC)
        rows = {row.tobytes(): i for i, row in enumerate(feats)}
        assert len(rows) == len(feats)
        orders = [[rows[r.tobytes()] for batch in seen[k:k + 3] for r in batch]
                  for k in (0, 3, 6)]
        assert len(seen) == 9
        assert all(sorted(order) == list(range(20)) for order in orders)
        assert len({tuple(order) for order in orders}) == 3

    def test_width_one_head_trains_with_dropout(self):
        train_set, val_set = self.data()
        spec = EncoderSpec(max_len=32, hidden_size=1)
        ckpt = train(train_set, val_set, config(max_epochs=3, dropout_rate=0.5), spec)
        assert ckpt.head.W.shape == (2, 1) and ckpt.projection.shape == (1, 1)
        assert len(ckpt.history) == 3
        assert all(np.isfinite(h["train_mse"]) for h in ckpt.history)

    def test_non_finite_loss_aborts_with_diagnostics(self):
        train_set, val_set = self.data()
        poisoned = train_set[:8] + [Instance(
            id="bad", text="boom", aspect="boom",
            gold=VAScore(float("inf"), 5.0), pair=train_set[0].pair)]
        with pytest.raises(TrainingError, match=r"epoch 1, step \d"):
            train(poisoned, val_set, config(batch_size=32), SPEC)

    def test_empty_sets_rejected(self):
        train_set, val_set = self.data()
        with pytest.raises(TrainingError, match="training"):
            train([], val_set, config(), SPEC)
        with pytest.raises(TrainingError, match="validation"):
            train(train_set, [], config(), SPEC)

    def test_missing_gold_rejected(self):
        train_set, val_set = self.data()
        no_gold = make_instances("zho-res", 4, seed=9, with_gold=False)
        with pytest.raises(TrainingError, match="no gold"):
            train(no_gold, val_set, config(), SPEC)


class TestConfig:
    def test_validation(self):
        for bad in (dict(batch_size=0), dict(learning_rate=0.0),
                    dict(max_epochs=0), dict(patience=0), dict(seed=-1)):
            with pytest.raises(ValueError):
                config(**bad)
        with pytest.raises(ValueError):
            config(regime="federated")

    def test_dict_round_trip(self):
        cfg = config(bounded=False, regime="separate")
        assert TrainConfig(**cfg.to_dict()) == cfg


# class: (constructor, the error it raises, a wrong-kind value for every
# field with a rule, an out-of-range value for every bounded field).
SCHEMAS = {
    TrainConfig: (config, ValueError,
                  {"batch_size": 8.0, "learning_rate": "0.05", "max_epochs": True,
                   "bounded": 1, "seed": 4.2, "patience": None, "regime": 0,
                   "dropout_rate": False},
                  {"batch_size": 0, "learning_rate": 0.0, "max_epochs": 0,
                   "seed": -1, "patience": 0, "regime": "federated",
                   "dropout_rate": 1.0}),
    EncoderSpec: (EncoderSpec, EncodingError,
                  {"backend": None, "template": 1, "max_len": 128.0,
                   "hidden_size": "8", "vocab_size": True, "seed": 0.0,
                   "trainable_layer": "true", "model_name": 5},
                  {"backend": "quantum", "template": "gpt", "max_len": 7,
                   "hidden_size": 0, "vocab_size": 3, "seed": -1}),
    Checkpoint: (checkpoint, ValueError,
                 {"id": 1, "best_val_rmse": "abc", "epoch_of_best": 1.0},
                 {"best_val_rmse": -0.5, "epoch_of_best": 0}),
}
# Fields without a rule of their own: nested objects and arrays.
UNCHECKED = {"config", "encoder_spec", "head", "projection", "history"}


class TestFieldSchema:
    @pytest.mark.parametrize("cls", list(SCHEMAS), ids=lambda cls: cls.__name__)
    def test_every_field_with_a_rule_has_a_case(self, cls):
        _, _, kinds, bounds = SCHEMAS[cls]
        names = {f.name for f in dataclasses.fields(cls)}
        assert set(kinds) == names - UNCHECKED
        assert set(bounds) == {f.name for f in dataclasses.fields(cls) if f.metadata}

    @pytest.mark.parametrize("cls,name,value", [
        pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
        for cls, (_, _, kinds, bounds) in SCHEMAS.items()
        for table in (kinds, bounds) for name, value in table.items()])
    def test_bad_value_raises_the_class_error_naming_the_field(self, cls, name,
                                                               value):
        make, error, _, _ = SCHEMAS[cls]
        with pytest.raises(error, match=f"^{name} must be") as caught:
            make(**{name: value})
        assert caught.type is error

    def test_integer_floats_are_stored_as_floats(self):
        cfg = config(learning_rate=1, dropout_rate=0)
        assert cfg == config(learning_rate=1.0, dropout_rate=0.0)
        assert [type(cfg.learning_rate), type(cfg.dropout_rate)] == [float, float]
        assert type(checkpoint(best_val_rmse=1).best_val_rmse) is float

    def test_epoch_of_best_beyond_max_epochs_rejected(self):
        with pytest.raises(ValueError, match="epoch_of_best must be <= max_epochs 5"):
            checkpoint(epoch_of_best=6)

    def test_model_name_only_on_the_pretrained_backend(self):
        assert EncoderSpec(backend=encoding.BACKEND_PRETRAINED,
                           model_name="bert").model_name == "bert"
        with pytest.raises(EncodingError, match="^model_name must be None off"):
            EncoderSpec(model_name="bert")


class TestGrid:
    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid) == 7
        assert [c.bounded for c in grid] == [True, False, True, True, True,
                                             True, False]
        assert [c.batch_size for c in grid] == [16, 32, 32, 32, 32, 32, 32]
        assert [c.learning_rate for c in grid] == [1e-5, 1e-5, 1e-5, 1e-5,
                                                   2e-5, 8e-6, 8e-6]
        assert [c.max_epochs for c in grid] == [7, 3, 5, 7, 5, 3, 7]
        assert all(c.batch_size in (16, 32, 64) and 8e-6 <= c.learning_rate <= 3e-5
                   for c in grid)

    def test_ids_follow_config_order(self):
        train_set = make_instances("zho-res", 16, seed=0)
        val_set = make_instances("zho-res", 4, seed=1)
        configs = [config(max_epochs=1, seed=s) for s in (1, 2, 3)]
        ckpts = train_grid(train_set, val_set, configs, SPEC, ["a", "b", "c"])
        assert [c.id for c in ckpts] == ["a", "b", "c"]
        assert [c.config for c in ckpts] == configs

    def test_duplicate_configs_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            train_grid([], [], [config(), config()], SPEC, ["M1", "M2"])

    def test_same_config_different_seed_distinct_payloads(self, tmp_path):
        train_set = make_instances("zho-res", 16, seed=0)
        val_set = make_instances("zho-res", 4, seed=1)
        ckpts = train_grid(train_set, val_set,
                           [config(max_epochs=2, seed=1),
                            config(max_epochs=2, seed=2)], SPEC, ["M1", "M2"])
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ckpts[0].save(a)
        ckpts[1].save(b)
        assert a.read_bytes() != b.read_bytes()

    def test_grid_encodes_each_set_once(self, monkeypatch):
        calls = []
        real = encoding.instance_features

        def counting(instances, spec):
            calls.append(len(instances))
            return real(instances, spec)

        monkeypatch.setattr(encoding, "instance_features", counting)
        train_set = make_instances("zho-res", 16, seed=0)
        val_set = make_instances("zho-res", 4, seed=1)
        train_grid(train_set, val_set,
                   [config(max_epochs=2, seed=s) for s in (1, 2, 3)], SPEC,
                   ["M1", "M2", "M3"])
        assert calls == [16, 4]

    def test_grid_checkpoints_match_standalone_runs(self, tmp_path):
        train_set = make_instances("zho-res", 16, seed=0)
        val_set = make_instances("zho-res", 4, seed=1)
        configs = [config(max_epochs=3, seed=1),
                   config(max_epochs=2, bounded=False, seed=2),
                   config(batch_size=4, learning_rate=0.01, seed=3)]
        grid = train_grid(train_set, val_set, configs, SPEC, ["M1", "M2", "M3"])
        for ckpt, cfg in zip(grid, configs):
            alone = train(train_set, val_set, cfg, SPEC, ckpt_id=ckpt.id)
            ckpt.save(tmp_path / "grid.ckpt")
            alone.save(tmp_path / "alone.ckpt")
            assert ((tmp_path / "grid.ckpt").read_bytes()
                    == (tmp_path / "alone.ckpt").read_bytes())
            assert ckpt.history == alone.history

    def test_failure_of_the_first_failing_config_in_grid_order_is_raised(self):
        # M1 fails at epoch 3; M2, in a later stack, and M3, in M1's, fail
        # sooner.  Run one after another, the configs would stop at M1, and
        # without M1 at M2, though M4's stack, where M3 fails, trains first.
        train_set = make_instances("zho-res", 16, seed=0)
        val_set = make_instances("zho-res", 4, seed=1)
        raw = dict(max_epochs=4, bounded=False, dropout_rate=0.0)
        configs = [config(batch_size=8, learning_rate=1e20, **raw),
                   config(batch_size=4, learning_rate=1e30, **raw),
                   config(batch_size=8, learning_rate=1e80, **raw),
                   config(batch_size=8, learning_rate=0.01, **raw)]
        with pytest.raises(TrainingError) as alone:
            train(train_set, val_set, configs[0], SPEC)
        assert str(alone.value) == "M1: non-finite loss at epoch 3, step 1"
        with pytest.raises(TrainingError) as caught:
            train_grid(train_set, val_set, configs, SPEC, ["M1", "M2", "M3", "M4"])
        assert str(caught.value) == str(alone.value)
        with pytest.raises(TrainingError, match=r"^M2: non-finite loss at epoch 1, step 3"):
            train_grid(train_set, val_set, [configs[3], configs[1], configs[2]], SPEC,
                       ["M4", "M2", "M3"])

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data(), trainable=st.booleans())
    def test_stacked_grid_equals_runs_one_by_one(self, data, trainable):
        # Few distinct batch sizes, seeds, dropout rates and head types, so
        # most grids hold stacks of several configs.
        entry = st.builds(
            config, batch_size=st.sampled_from([4, 6]),
            seed=st.sampled_from([1, 2]), dropout_rate=st.sampled_from([0.0, 0.3]),
            bounded=st.booleans(), learning_rate=st.sampled_from([0.01, 0.05, 0.3]),
            max_epochs=st.integers(1, 4), patience=st.integers(1, 3))
        configs = data.draw(st.lists(entry, min_size=1, max_size=6, unique=True))
        spec = EncoderSpec(max_len=16, hidden_size=6, trainable_layer=trainable)
        train_set = make_instances("zho-res", 14, seed=5)
        val_set = make_instances("zho-res", 4, seed=6)
        ids = [f"M{i}" for i in range(1, len(configs) + 1)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "m.ckpt")
            for ckpt, cfg in zip(train_grid(train_set, val_set, configs, spec, ids),
                                 configs):
                ckpt.save(path)
                stacked = path.read_bytes()
                alone = train(train_set, val_set, cfg, spec, ckpt_id=ckpt.id)
                alone.save(path)
                assert stacked == path.read_bytes()
                assert [np.array(list(h.values())).tobytes() for h in ckpt.history] == \
                    [np.array(list(h.values())).tobytes() for h in alone.history]

    def test_errors_carry_config_id(self):
        train_set = make_instances("zho-res", 8, seed=9)
        poisoned = train_set + [Instance(
            id="bad", text="boom", aspect="boom",
            gold=VAScore(float("inf"), 5.0), pair=train_set[0].pair)]
        val = make_instances("zho-res", 4, seed=1)
        with pytest.raises(TrainingError, match=r"^M1: non-finite loss at epoch 1"):
            train_grid(poisoned, val, [config(batch_size=32)], SPEC, ["M1"])


def assert_mid_epoch(message: str, ckpt_id: str) -> int:
    """The epoch of a non-finite loss at a step neither the first nor the
    last of the five of its epoch.  Which step overflows moves with the
    BLAS kernel's rounding, so no step is pinned."""
    found = re.fullmatch(rf"{ckpt_id}: non-finite loss at epoch (\d+), step (\d+)",
                         message)
    assert found, message
    assert 0 < int(found[2]) < 4, message
    return int(found[1])


class TestStackExits:
    """A config leaves its stack only at the end of an epoch: one whose loss
    turns non-finite keeps its row, unread, to the end of that epoch."""

    SHARED = dict(batch_size=8, seed=42, dropout_rate=0.1, bounded=True)

    def encoded(self):
        train_set = make_instances("zho-res", 40, seed=3)   # 5 steps per epoch
        val_set = make_instances("zho-res", 6, seed=103)
        return train_set, val_set, (trainer._encode_set(train_set, SPEC, "training"),
                                    trainer._encode_set(val_set, SPEC, "validation"))

    def test_failure_mid_epoch_leaves_the_other_configs_as_run_alone(self, tmp_path):
        train_set, val_set, encoded = self.encoded()
        configs = [config(learning_rate=0.01, max_epochs=5, patience=5, **self.SHARED),
                   config(learning_rate=1e20, max_epochs=4, **self.SHARED),
                   config(learning_rate=0.05, max_epochs=6, patience=6, **self.SHARED)]
        ids = ["M1", "M2", "M3"]
        results = trainer._train_stack(encoded, configs, ids, SPEC)
        with pytest.raises(TrainingError) as alone:
            train(train_set, val_set, configs[1], SPEC, ckpt_id="M2")
        assert isinstance(results[1], TrainingError)
        assert str(results[1]) == str(alone.value)
        assert_mid_epoch(str(alone.value), "M2")
        for i in (0, 2):
            ckpt = train(train_set, val_set, configs[i], SPEC, ckpt_id=ids[i])
            ckpt.save(tmp_path / "alone.ckpt")
            results[i].save(tmp_path / "stacked.ckpt")
            assert ((tmp_path / "stacked.ckpt").read_bytes()
                    == (tmp_path / "alone.ckpt").read_bytes())
            assert results[i].history == ckpt.history
            assert len(ckpt.history) == configs[i].max_epochs   # past M2's epoch

    def test_no_validation_after_an_epoch_that_leaves_no_config(self, monkeypatch):
        train_set, val_set, encoded = self.encoded()
        validated = []
        original = trainer._validation_rmse
        monkeypatch.setattr(trainer, "_validation_rmse",
                            lambda *args: validated.append(args) or original(*args))
        raw = {**self.SHARED, "bounded": False}
        results = trainer._train_stack(
            encoded, [config(learning_rate=1e80, **raw),
                      config(learning_rate=1e150, **raw)], ["M1", "M2"], SPEC)
        assert [str(r) for r in results] == [
            "M1: non-finite loss at epoch 1, step 1",
            "M2: non-finite loss at epoch 1, step 1"]
        assert validated == []
        epochs = []
        with pytest.raises(TrainingError) as failed:
            train(train_set, val_set, config(learning_rate=1e20, max_epochs=4,
                                             **self.SHARED), SPEC,
                  val_metric_fn=lambda epoch, model: epochs.append(epoch) or 1 / epoch)
        epoch = assert_mid_epoch(str(failed.value), "M1")
        assert epochs == list(range(1, epoch))


class TestSeparate:
    """Per-pair runs, as `dimasr train --regime separate` makes them: one
    one-config grid per pair, named after the pair."""

    def per_pair(self, n_pairs=3):
        return {PairID.parse(f"p{i:02d}-dom"):
                make_instances(f"p{i:02d}-dom", 20, seed=i)
                for i in range(n_pairs)}

    def train_separate(self, per_pair):
        return {pair: train_grid(insts[:16], insts[16:],
                                 [config(max_epochs=2, regime="separate")],
                                 SPEC, [str(pair)])[0]
                for pair, insts in per_pair.items()}

    def test_one_checkpoint_per_pair(self):
        result = self.train_separate(self.per_pair())
        assert len(result) == 3
        for pair, ckpt in result.items():
            assert ckpt.id == str(pair)
            assert ckpt.config.regime == "separate"

    def test_cross_pair_prediction_permitted(self):
        result = self.train_separate(self.per_pair(2))
        pairs = list(result)
        other = make_instances(str(pairs[1]), 5, seed=77)
        assert predict(result[pairs[0]], other).shape == (5, 2)

    def test_joint_and_separate_both_yield_reports(self):
        per_pair = self.per_pair()
        sep = self.train_separate(per_pair)
        pooled = [i for insts in per_pair.values() for i in insts]
        joint = train(pooled[:50], pooled[50:], config(max_epochs=2), SPEC)
        dev = {p: make_instances(str(p), 6, seed=500 + k)
               for k, p in enumerate(per_pair)}
        gold = {p: metrics.va_array([i.gold for i in insts])
                for p, insts in dev.items()}

        joint_report = metrics.evaluate(
            {p: predict(joint, insts) for p, insts in dev.items()}, gold)
        sep_report = metrics.evaluate(
            {p: predict(sep[p], insts) for p, insts in dev.items()}, gold)
        assert set(joint_report.per_pair) == set(sep_report.per_pair)


class TestCheckpointObject:
    def test_save_load_predict_identical(self, tmp_path):
        train_set = make_instances("zho-res", 16, seed=0)
        val_set = make_instances("zho-res", 4, seed=1)
        ckpt = train(train_set, val_set, config(max_epochs=2), SPEC)
        path = tmp_path / "m.ckpt"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.id == ckpt.id
        assert loaded.config == ckpt.config
        assert loaded.encoder_spec == ckpt.encoder_spec
        assert loaded.best_val_rmse == ckpt.best_val_rmse
        assert predict(ckpt, val_set).tobytes() == predict(loaded, val_set).tobytes()

    def test_resave_byte_identical(self, tmp_path):
        train_set = make_instances("zho-res", 16, seed=0)
        val_set = make_instances("zho-res", 4, seed=1)
        ckpt = train(train_set, val_set, config(max_epochs=2), SPEC)
        first = tmp_path / "m.ckpt"
        ckpt.save(first)
        second = tmp_path / "m2.ckpt"
        Checkpoint.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(1, 6),
           bounded=st.booleans(), trainable=st.booleans())
    def test_save_load_save_byte_identical_for_any_contents(self, data, d,
                                                            bounded, trainable):
        # Any float64 bit pattern, NaN payloads included, must survive.
        def array(shape):
            return data.draw(hnp.arrays(np.float64, shape,
                                        elements=st.floats(width=64)))

        ints = st.integers(1, 2**31)
        max_epochs = data.draw(ints)
        ckpt = Checkpoint(
            id=data.draw(st.text(min_size=1, max_size=8)),
            config=TrainConfig(
                batch_size=data.draw(ints), max_epochs=max_epochs,
                learning_rate=data.draw(st.floats(1e-300, 1e300)),
                bounded=bounded, seed=data.draw(st.integers(0, 2**63)),
                patience=data.draw(ints),
                regime=data.draw(st.sampled_from(REGIMES)),
                dropout_rate=data.draw(st.floats(0.0, 0.99))),
            encoder_spec=EncoderSpec(max_len=data.draw(st.integers(8, 512)),
                                     hidden_size=d, trainable_layer=trainable),
            head=regressor.HeadParams(W=array((2, d)), b=array((2,)),
                                      dropout_rate=0.1, bounded=bounded),
            projection=array((d, d)) if trainable else None,
            best_val_rmse=data.draw(st.floats(0.0, allow_infinity=False)),
            epoch_of_best=data.draw(st.integers(1, max_epochs)))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.ckpt"), Path(tmp, "b.ckpt")
            ckpt.save(first)
            Checkpoint.load(first).save(second)
            assert first.read_bytes() == second.read_bytes()

    def test_bounded_predictions_inside_range(self):
        train_set = make_instances("zho-res", 16, seed=0)
        val_set = make_instances("zho-res", 4, seed=1)
        ckpt = train(train_set, val_set, config(max_epochs=2, bounded=True),
                     SPEC)
        values = predict(ckpt, val_set)
        assert np.all((1.0 < values) & (values < 9.0))
