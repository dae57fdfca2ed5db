import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dimasr.corpus import ParseError
from dimasr.encoding import DROPOUT, EncoderSpec, draw
from dimasr.regressor import (
    HeadParams,
    backward,
    bound,
    forward_cached,
    init_head,
    mse_loss,
    predict,
    sigmoid,
)
from dimasr.trainer import CHECKPOINT_MAGIC, Checkpoint, TrainConfig


def head(W, b, dropout=0.0, bounded=False):
    return HeadParams(W=np.asarray(W, float), b=np.asarray(b, float),
                      dropout_rate=dropout, bounded=bounded)


class TestForward:
    def test_zero_weights_return_bias(self):
        params = head(np.zeros((2, 5)), [3.0, 4.0])
        np.testing.assert_array_equal(predict(np.ones((1, 5)), params), [[3.0, 4.0]])

    def test_zero_dropout_train_equals_infer(self, rng):
        params = head(rng.normal(size=(2, 6)), rng.normal(size=2))
        e = rng.normal(size=(4, 6))
        np.testing.assert_array_equal(
            forward_cached(e, params, dropout=rng.random((4, 6)))[0], predict(e, params))

    def test_matches_naive_matvec_oracle(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 12))
            W = rng.normal(size=(2, d))
            b = rng.normal(size=2)
            e = rng.normal(size=(3, d))
            got = predict(e, head(W, b))
            expected = [[sum(W[k][j] * row[j] for j in range(d)) + b[k]
                         for k in range(2)] for row in e]
            np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)

    def test_shape_mismatch_rejected(self, rng):
        params = head(rng.normal(size=(2, 6)), rng.normal(size=2))
        with pytest.raises(ValueError, match="does not match"):
            predict(np.ones((2, 5)), params)

    def test_train_mode_with_dropout_needs_one_draw_per_element(self):
        params = head(np.zeros((2, 3)), np.zeros(2), dropout=0.5)
        for dropout in (None, np.zeros((1, 3)), np.zeros((2, 4))):
            with pytest.raises(ValueError, match=r"needs \(2, 3\) uniform draws"):
                forward_cached(np.ones((2, 3)), params, dropout=dropout)

    def test_dropout_rate_bounds(self):
        with pytest.raises(ValueError):
            head(np.zeros((2, 3)), np.zeros(2), dropout=1.0)


class TestBound:
    def test_zero_maps_to_midpoint(self):
        np.testing.assert_array_equal(bound(np.zeros(2)), [5.0, 5.0])

    def test_log3_case(self):
        # sigmoid(ln 3) = 3/4 and sigmoid(-ln 3) = 1/4, so 7.0 and 3.0.
        got = bound(np.array([math.log(3.0), -math.log(3.0)]))
        np.testing.assert_allclose(got, [7.0, 3.0], atol=1e-12, rtol=0)

    def test_limits_approached_never_attained(self):
        z = np.array([10.0, 20.0, 40.0, 100.0, 1e3])
        up = bound(z)
        down = bound(-z)
        assert np.all(up < 9.0) and np.all(up > 8.9)
        assert np.all(down > 1.0) and np.all(down < 1.1)
        assert np.all(np.diff(up) >= 0) and np.all(np.diff(down) <= 0)

    def test_stable_at_extremes(self):
        with np.errstate(over="raise"):
            out = bound(np.array([1e3, -1e3, 1e6, -1e6]))
        assert np.all(np.isfinite(out))

    def test_symmetry(self, rng):
        z = rng.uniform(-50, 50, 1000)
        np.testing.assert_allclose(bound(z) + bound(-z), 10.0, atol=1e-12)

    def test_strictly_inside_interval(self, rng):
        z = rng.uniform(-50, 50, 10_000)
        out = bound(z)
        assert np.all(out > 1.0) and np.all(out < 9.0)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=32))
    def test_strictly_inside_for_every_finite_input(self, values):
        out = bound(np.array(values))
        assert np.all(out > 1.0) and np.all(out < 9.0)

    def test_monotone_on_sorted_input(self, rng):
        z = np.sort(rng.uniform(-50, 50, 10_000))
        assert np.all(np.diff(bound(z)) >= 0)


class TestLoss:
    def test_perfect_fit(self):
        assert mse_loss([(5.0, 5.0)], [(5.0, 5.0)]) == 0.0

    def test_worked_half(self):
        assert mse_loss([(6.0, 5.0)], [(5.0, 5.0)]) == 0.5

    def test_batch_equals_mean_of_instances(self, rng):
        p = rng.normal(size=(10, 2))
        g = rng.normal(size=(10, 2))
        per_instance = [mse_loss(p[i:i + 1], g[i:i + 1]) for i in range(10)]
        np.testing.assert_allclose(mse_loss(p, g), np.mean(per_instance),
                                   atol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros((2, 2)), np.zeros((3, 2)))


def loss_at(theta, shapes, feats, gold, bounded, with_proj):
    """Loss as a flat function of parameters, for finite differencing."""
    d = feats.shape[1]
    idx = 0
    W = theta[idx:idx + 2 * d].reshape(2, d); idx += 2 * d
    b = theta[idx:idx + 2]; idx += 2
    A = theta[idx:idx + d * d].reshape(d, d) if with_proj else None
    params = head(W, b, bounded=bounded)
    pred, _ = forward_cached(feats, params, A, train=False)
    return mse_loss(pred, gold)


def flatten(grads, with_proj):
    parts = [grads["W"].ravel(), grads["b"].ravel()]
    if with_proj:
        parts.append(grads["A"].ravel())
    return np.concatenate(parts)


def fd_gradient(theta, *args, h=1e-5):
    out = np.empty_like(theta)
    for i in range(theta.size):
        up = theta.copy(); up[i] += h
        dn = theta.copy(); dn[i] -= h
        out[i] = (loss_at(up, *args) - loss_at(dn, *args)) / (2 * h)
    return out


class TestBackward:
    def test_zero_error_gives_zero_gradients(self, rng):
        d = 6
        params = head(rng.normal(size=(2, d)), rng.normal(size=2))
        feats = rng.normal(size=(5, d))
        pred, cache = forward_cached(feats, params, None, train=False)
        grads = backward(cache, pred)
        np.testing.assert_array_equal(grads["W"], np.zeros((2, d)))
        np.testing.assert_array_equal(grads["b"], np.zeros(2))

    @pytest.mark.parametrize("bounded", [False, True])
    @pytest.mark.parametrize("with_proj", [False, True])
    def test_matches_finite_differences(self, rng, bounded, with_proj):
        for _ in range(8):
            d = int(rng.integers(2, 17))
            n = int(rng.integers(1, 9))
            feats = rng.normal(size=(n, d))
            gold = rng.uniform(1, 9, size=(n, 2))
            W = rng.normal(size=(2, d)) * 0.5
            b = rng.normal(size=2) * 0.5
            A = np.eye(d) + 0.1 * rng.normal(size=(d, d)) if with_proj else None
            params = head(W, b, bounded=bounded)
            _, cache = forward_cached(feats, params, A, train=False)
            analytic = flatten(backward(cache, gold), with_proj)

            theta = np.concatenate([W.ravel(), b] +
                                   ([A.ravel()] if with_proj else []))
            numeric = fd_gradient(theta, None, feats, gold, bounded, with_proj)
            rel = (np.linalg.norm(analytic - numeric)
                   / max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12))
            assert rel < 1e-4

    def test_bounded_gradient_carries_sigmoid_chain_factor(self, rng):
        # Build one bounded and one raw instance with identical residuals: for
        # a single instance dL/db equals dL/dy, so the two bias gradients must
        # differ exactly by 8 * s * (1 - s) per component.
        d = 4
        W = rng.normal(size=(2, d))
        b = rng.normal(size=2)
        feats = rng.normal(size=(1, d))
        residual = np.array([[0.7, -1.3]])

        raw_params = head(W, b, bounded=False)
        y, cache_raw = forward_cached(feats, raw_params, None, train=False)
        g_raw = backward(cache_raw, y - residual)["b"]

        bnd_params = head(W, b, bounded=True)
        pred, cache_bnd = forward_cached(feats, bnd_params, None, train=False)
        g_bnd = backward(cache_bnd, pred - residual)["b"]

        s = sigmoid(y)
        np.testing.assert_allclose(g_bnd, g_raw * (8.0 * s[0] * (1.0 - s[0])),
                                   rtol=1e-12)

    def test_gold_shape_mismatch_rejected(self, rng):
        params = head(rng.normal(size=(2, 3)), np.zeros(2))
        _, cache = forward_cached(rng.normal(size=(2, 3)), params, None,
                                  train=False)
        with pytest.raises(ValueError):
            backward(cache, np.zeros((5, 2)))


class TestDropout:
    def test_train_mode_expectation_matches_infer(self, rng):
        d, n = 8, 20_000
        params = head(rng.normal(size=(2, d)), rng.normal(size=2), dropout=0.3)
        e = rng.normal(size=(1, d))
        block = draw((0, DROPOUT, 1), (n, d))
        draws, cache = forward_cached(np.tile(e, (n, 1)), params, dropout=block)
        target = predict(e, params)[0]
        se = draws.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - target) <= 3 * se + 1e-12)
        # Inverted dropout: kept where the draw reaches the rate, scaled.
        assert np.array_equal(cache["mask"], (block >= 0.3) / 0.7)


class TestInit:
    def test_seeded_and_in_range(self):
        a = init_head(16, 1, 0.1, True)
        b = init_head(16, 1, 0.1, True)
        np.testing.assert_array_equal(a.W, b.W)
        assert np.all(np.abs(a.W) <= 1 / 4)
        np.testing.assert_array_equal(a.b, np.zeros(2))
        assert init_head(16, 2, 0.1, True).W[0, 0] != a.W[0, 0]


class TestPrediction:
    def test_bounded_head_stays_in_range(self, rng):
        params = head(rng.normal(size=(2, 4)) * 10, rng.normal(size=2),
                      bounded=True)
        out = predict(rng.normal(size=(50, 4)) * 10, params)
        assert np.all(out > 1.0) and np.all(out < 9.0)

    def test_raw_head_can_stray(self):
        params = head(np.zeros((2, 3)), [12.0, -4.0], bounded=False)
        np.testing.assert_array_equal(predict(np.ones((1, 3)), params),
                                      [[12.0, -4.0]])


def edit_header(path, change):
    """Rewrite the header of the checkpoint file `path` through `change`."""
    line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    change(header)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)


def setter(*keys, value):
    """A header change that sets header[keys[0]]...[keys[-1]] to `value`."""
    def change(header):
        for key in keys[:-1]:
            header = header[key]
        header[keys[-1]] = value
    return change


# name: (header change, the text after "<path>: " in the error, as a regex)
BAD_HEADERS = {
    "missing key": (lambda h: h.pop("epoch_of_best"),
                    "checkpoint header lacks key 'epoch_of_best'"),
    "max_len 4": (setter("encoder", "max_len", value=4), "key 'encoder': max_len"),
    "unknown encoder key": (setter("encoder", "colour", value="red"),
                            "key 'encoder':.*'colour'"),
    "batch_size 0": (setter("config", "batch_size", value=0),
                     "key 'config': batch_size"),
    "config a list": (setter("config", value=[1]), "key 'config'"),
    "hidden_size 8.0": (setter("encoder", "hidden_size", value=8.0),
                        "key 'encoder': hidden_size must be an int"),
    "hidden_size not W's width": (setter("encoder", "hidden_size", value=16),
                                  "key 'arrays'"),
    "A without trainable layer": (setter("encoder", "trainable_layer", value=False),
                                  "key 'arrays'"),
    "bounded differs": (setter("bounded", value=False), "key 'bounded'"),
    "seed differs": (setter("seed", value=7), "key 'seed'"),
    "dropout_rate differs": (setter("dropout_rate", value=0.1), "key 'dropout_rate'"),
}


class TestCheckpointFile:
    def make(self, tmp_path, rng):
        ckpt = Checkpoint(
            id="M1",
            config=TrainConfig(batch_size=16, learning_rate=1e-5, max_epochs=7,
                               bounded=True, dropout_rate=0.25),
            encoder_spec=EncoderSpec(hidden_size=8),
            head=head(rng.normal(size=(2, 8)), rng.normal(size=2), dropout=0.25,
                      bounded=True),
            projection=rng.normal(size=(8, 8)), best_val_rmse=0.75, epoch_of_best=3)
        path = tmp_path / "m1.ckpt"
        ckpt.save(path)
        return path, ckpt

    def test_round_trip_values(self, tmp_path, rng):
        path, ckpt = self.make(tmp_path, rng)
        loaded = Checkpoint.load(path)
        for name in ("id", "config", "encoder_spec", "best_val_rmse",
                     "epoch_of_best"):
            assert getattr(loaded, name) == getattr(ckpt, name)
        np.testing.assert_array_equal(loaded.head.W, ckpt.head.W)
        np.testing.assert_array_equal(loaded.head.b, ckpt.head.b)
        np.testing.assert_array_equal(loaded.projection, ckpt.projection)
        assert (loaded.head.bounded, loaded.head.dropout_rate) == (True, 0.25)

    def test_resave_is_byte_identical(self, tmp_path, rng):
        path, _ = self.make(tmp_path, rng)
        again = tmp_path / "again.ckpt"
        Checkpoint.load(path).save(again)
        assert again.read_bytes() == path.read_bytes()

    # Digests of the format's bytes as first written; no training runs, so
    # BLAS cannot move a byte.
    @pytest.mark.parametrize("trainable, digest", [
        (True, "f2091995553f5eb0aeb2538a657895592f491dde1d1066fee4f69524c590d5e4"),
        (False, "1e29a13f55c03fceaad206949ba6d76f0b1a08add7a03921f07d338bf83d078a"),
    ])
    def test_fixed_checkpoint_bytes(self, tmp_path, trainable, digest):
        d = 4
        ckpt = Checkpoint(
            id="M1",
            config=TrainConfig(batch_size=16, learning_rate=1e-5, max_epochs=7,
                               bounded=trainable),
            encoder_spec=EncoderSpec(max_len=32, hidden_size=d,
                                     trainable_layer=trainable),
            head=head(np.arange(-4, 4).reshape(2, d) / 16, [0.25, -0.5],
                      dropout=0.1, bounded=trainable),
            projection=(np.eye(d) + np.arange(d * d).reshape(d, d) / 1024
                        if trainable else None),
            best_val_rmse=0.8125, epoch_of_best=3)
        path = tmp_path / "M1.ckpt"
        ckpt.save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_truncated_payload_detected(self, tmp_path, rng):
        path, _ = self.make(tmp_path, rng)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ParseError, match="payload"):
            Checkpoint.load(path)

    @pytest.mark.parametrize("damage", ["cut-header", "short-payload",
                                        "bad-magic"])
    def test_damaged_file_raises_parse_error_naming_path(self, tmp_path, rng,
                                                         damage):
        path, _ = self.make(tmp_path, rng)
        blob = path.read_bytes()
        path.write_bytes({
            "cut-header": blob[:blob.index(b"\n") - 1],
            "short-payload": blob[:-3],
            "bad-magic": blob.replace(CHECKPOINT_MAGIC.encode(),
                                      b"dimasr-checkpoint-v0", 1),
        }[damage])
        with pytest.raises(ParseError, match=re.escape(str(path))):
            Checkpoint.load(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b'{"format":"something-else"}\n')
        with pytest.raises(ParseError, match="not a"):
            Checkpoint.load(path)

    @pytest.mark.parametrize("name", list(BAD_HEADERS))
    def test_bad_header_raises_parse_error_naming_path(self, tmp_path, rng, name):
        change, expected = BAD_HEADERS[name]
        path, _ = self.make(tmp_path, rng)
        edit_header(path, change)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {expected}"):
            Checkpoint.load(path)
