"""Training loops: one run, and the candidate grid over one instance set.

One run = AdamW over the head (and the toy encoder's trainable projection)
with per-epoch seeded batch shuffling, validation RMSE after every epoch,
and early stopping with best-epoch weight restore.  Everything about a run
is a pure function of (data, config, seed): two runs with identical inputs
produce byte-identical checkpoints.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, asdict, field
from pathlib import Path

import numpy as np

from . import encoding, metrics, regressor
from .corpus import REGIMES, Instance, ParseError, build
from .encoding import EncoderSpec

logger = logging.getLogger(__name__)

# AdamW constants; unstated by the protocol, fixed here and recorded in every
# checkpoint header.
ADAMW_BETAS = (0.9, 0.999)
ADAMW_EPS = 1e-8
ADAMW_WEIGHT_DECAY = 0.01
IMPROVEMENT_DELTA = 1e-6
CHECKPOINT_MAGIC = "dimasr-checkpoint-v1"


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int
    learning_rate: float
    max_epochs: int
    bounded: bool
    seed: int = 42
    patience: int = 2
    regime: str = "joint"
    dropout_rate: float = 0.1

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "seed", "patience"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    def to_dict(self) -> dict:
        return asdict(self)


def default_grid() -> list[TrainConfig]:
    """The seven candidate configurations (M1..M7): five bounded, two raw."""
    rows = [
        (16, 1e-5, 7, True),
        (32, 1e-5, 3, False),
        (32, 1e-5, 5, True),
        (32, 1e-5, 7, True),
        (32, 2e-5, 5, True),
        (32, 8e-6, 3, True),
        (32, 8e-6, 7, False),
    ]
    return [TrainConfig(batch_size=b, learning_rate=lr, max_epochs=e, bounded=s)
            for b, lr, e, s in rows]


class AdamW:
    """Adam with decoupled weight decay; biases are exempt from decay.

    With learning rate 0 a step leaves parameters bit-unchanged (decay is
    multiplied by the learning rate, as in the decoupled formulation).
    """

    def __init__(self, learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        beta1, beta2 = ADAMW_BETAS
        for name, g in grads.items():
            p = params[name]
            if name not in self._m:
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
            if name != "b":   # the head's bias
                p -= self.lr * ADAMW_WEIGHT_DECAY * p
            m = self._m[name]
            v = self._v[name]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            m_hat = m / (1.0 - beta1 ** self.t)
            v_hat = v / (1.0 - beta2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + ADAMW_EPS)


class EarlyStopping:
    """Stop after `patience` consecutive epochs without strict improvement.

    Improvement means the monitored value drops by more than
    IMPROVEMENT_DELTA; ties count as non-improvement.
    """

    def __init__(self, patience: int):
        self.patience = patience
        self.counter = 0
        self.best_score: float | None = None
        self.best_epoch: int | None = None
        self.should_stop = False

    def update(self, score: float, epoch: int) -> bool:
        """Record an epoch result; returns True when this epoch is the new best."""
        if self.best_score is None or score < self.best_score - IMPROVEMENT_DELTA:
            self.best_score = score
            self.best_epoch = epoch
            self.counter = 0
            return True
        self.counter += 1
        if self.counter >= self.patience:
            self.should_stop = True
        return False


@dataclass
class Checkpoint:
    """Frozen parameters of one run plus the metadata to reproduce it.

    Its file is a canonical-JSON header line, then W, b and any projection A
    as flat little-endian float64; a load/save round trip is byte-identical.
    """

    id: str
    config: TrainConfig
    encoder_spec: EncoderSpec
    head: regressor.HeadParams
    projection: np.ndarray | None
    best_val_rmse: float
    epoch_of_best: int
    history: list[dict] = field(default_factory=list)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """(n, 2) VA predictions from `features`, the instances'
        `encoding.instance_features` under this checkpoint's encoder spec."""
        e = encoding.apply_projection(features, self.projection)
        return regressor.predict(e, self.head)

    def save(self, path) -> None:
        arrays = [a for a in (self.head.W, self.head.b, self.projection) if a is not None]
        header = {
            "id": self.id,
            "encoder": self.encoder_spec.to_dict(),
            "config": self.config.to_dict(),
            "bounded": self.config.bounded,
            "seed": self.config.seed,
            "dropout_rate": self.config.dropout_rate,
            "optimizer": {"betas": list(ADAMW_BETAS), "eps": ADAMW_EPS,
                          "weight_decay": ADAMW_WEIGHT_DECAY},
            "best_val_rmse": self.best_val_rmse,
            "epoch_of_best": self.epoch_of_best,
            "format": CHECKPOINT_MAGIC,
            "arrays": [[name, list(arr.shape)] for name, arr in zip("WbA", arrays)],
        }
        text = json.dumps(header, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False)
        Path(path).write_bytes(text.encode("utf-8") + b"\n" + b"".join(
            np.ascontiguousarray(arr, dtype="<f8").tobytes() for arr in arrays))

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Read a checkpoint file.  A cut, foreign or malformed file, a missing
        header key, an encoder or config its class rejects, an array table
        other than the one `save` writes for the encoder, or a top-level
        copy that differs from `config` is one ParseError naming the path."""
        line, newline, payload = Path(path).read_bytes().partition(b"\n")
        if not newline:
            raise ParseError(f"{path}: truncated checkpoint: no header line")
        try:
            header = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            raise ParseError(f"{path}: unreadable checkpoint header: {exc}") from None
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_MAGIC:
            raise ParseError(f"{path}: not a {CHECKPOINT_MAGIC} file")
        for key in ("id", "encoder", "config", "bounded", "seed", "dropout_rate",
                    "optimizer", "best_val_rmse", "epoch_of_best", "arrays"):
            if key not in header:
                raise ParseError(f"{path}: checkpoint header lacks key {key!r}")
        spec = build(EncoderSpec, header["encoder"], f"{path}: key 'encoder'")
        config = build(TrainConfig, header["config"], f"{path}: key 'config'")
        for key in ("bounded", "seed", "dropout_rate"):   # kept so files keep their bytes
            if header[key] != getattr(config, key):
                raise ParseError(f"{path}: key {key!r}: {header[key]!r} differs "
                                 f"from 'config' {getattr(config, key)!r}")
        d, trainable = spec.hidden_size, spec.trainable_layer
        layout = [["W", [2, d]], ["b", [2]]] + ([["A", [d, d]]] if trainable else [])
        if header["arrays"] != layout:
            raise ParseError(f"{path}: key 'arrays': {header['arrays']}, but the "
                             f"encoder needs {layout}")
        if len(payload) != 8 * (2 * d + 2 + (d * d if trainable else 0)):
            raise ParseError(f"{path}: truncated or padded payload: "
                             f"{len(payload)} bytes for {layout}")
        W, b, A = np.split(np.frombuffer(payload, dtype="<f8").astype(np.float64),
                           [2 * d, 2 * d + 2])
        head = regressor.HeadParams(W=W.reshape(2, d), b=b,
                                    dropout_rate=config.dropout_rate,
                                    bounded=config.bounded)
        return cls(id=header["id"], config=config, encoder_spec=spec, head=head,
                   projection=A.reshape(d, d) if trainable else None,
                   best_val_rmse=header["best_val_rmse"],
                   epoch_of_best=header["epoch_of_best"])


Encoded = tuple[np.ndarray, np.ndarray]   # (features, gold VA), row-aligned


def _encode_set(instances: list[Instance], encoder_spec: EncoderSpec,
               what: str) -> Encoded:
    """Features and gold VA of a nonempty, fully labelled instance set."""
    if not instances:
        raise TrainingError(f"empty {what} set")
    missing = [inst.key for inst in instances if inst.gold is None]
    if missing:
        raise TrainingError(f"{what} instance {missing[0]} has no gold VA")
    golds = metrics.va_array([inst.gold for inst in instances])
    return encoding.instance_features(instances, encoder_spec), golds


def _validation_rmse(feats: np.ndarray, golds: np.ndarray,
                     head: regressor.HeadParams,
                     projection: np.ndarray | None) -> float:
    e = encoding.apply_projection(feats, projection)
    return metrics.rmse_va(regressor.predict(e, head), golds)


# Overflow shows as a non-finite loss or validation RMSE, which stop the run
# with its config id, epoch and step; numpy's own warnings would say less.
@np.errstate(over="ignore", invalid="ignore")
def train(train_set: list[Instance], validation_set: list[Instance],
          config: TrainConfig, encoder_spec: EncoderSpec, *,
          ckpt_id: str = "M1", val_metric_fn=None,
          encoded: tuple[Encoded, Encoded | None] | None = None) -> Checkpoint:
    """Run one training job and return the best-epoch checkpoint.

    `val_metric_fn(epoch, model) -> float`, when given, replaces the
    validation RMSE computation (the early-stopping tests inject scripted
    sequences through it); `model` exposes {"head", "projection"}.
    `encoded`, when given, holds `_encode_set` of the training and validation
    sets, computed once by the caller (the validation part may be None when
    `val_metric_fn` is given).
    """
    if encoded is None:
        encoded = (_encode_set(train_set, encoder_spec, "training"),
                   None if val_metric_fn is not None
                   else _encode_set(validation_set, encoder_spec, "validation"))
    (feats, golds), val_encoded = encoded

    d = encoder_spec.hidden_size
    head = regressor.init_head(d, config.seed, config.dropout_rate, config.bounded)
    projection = encoding.init_projection(d) if encoder_spec.trainable_layer else None

    tensors = {"W": head.W, "b": head.b}
    if projection is not None:
        tensors["A"] = projection
    opt = AdamW(config.learning_rate)
    rng = np.random.default_rng(config.seed)
    stopper = EarlyStopping(config.patience)
    best: dict[str, np.ndarray] = {k: v.copy() for k, v in tensors.items()}
    history: list[dict] = []
    n = len(feats)

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        for step, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start:start + config.batch_size]
            pred, cache = regressor.forward_cached(
                feats[idx], head, projection, rng=rng, train=True)
            loss = regressor.mse_loss(pred, golds[idx])
            if not np.isfinite(loss):
                raise TrainingError(
                    f"{ckpt_id}: non-finite loss at epoch {epoch}, step {step}")
            grads = regressor.backward(cache, golds[idx])
            opt.step(tensors, grads)
            loss_sum += loss * len(idx)
        train_mse = loss_sum / n

        if val_metric_fn is not None:
            val_rmse = float(val_metric_fn(
                epoch, {"head": head, "projection": projection}))
        else:
            val_rmse = _validation_rmse(*val_encoded, head, projection)
        if not np.isfinite(val_rmse):
            raise TrainingError(f"{ckpt_id}: non-finite validation RMSE at epoch {epoch}")
        history.append({"epoch": epoch, "train_mse": train_mse,
                        "val_rmse": val_rmse})
        logger.info("%s epoch %d  train_mse %.6f  val_rmse %.6f",
                    ckpt_id, epoch, train_mse, val_rmse)

        if stopper.update(val_rmse, epoch):
            best = {k: v.copy() for k, v in tensors.items()}
        if stopper.should_stop:
            logger.info("%s early stop after epoch %d (best epoch %d)",
                        ckpt_id, epoch, stopper.best_epoch)
            break

    head.W = best["W"]
    head.b = best["b"]
    return Checkpoint(
        id=ckpt_id, config=config, encoder_spec=encoder_spec, head=head,
        projection=best.get("A"), best_val_rmse=float(stopper.best_score),
        epoch_of_best=int(stopper.best_epoch), history=history,
    )


def train_grid(train_set: list[Instance], validation_set: list[Instance],
               configs: list[TrainConfig], encoder_spec: EncoderSpec,
               ids: list[str]) -> list[Checkpoint]:
    """Train one checkpoint per config, ids[i] naming the run of configs[i].

    Features depend on the encoder spec and the instances only, so both sets
    are encoded once, ahead of the first config, and shared by every run.
    """
    if len(set(configs)) != len(configs):
        raise ValueError("grid configs must be distinct")
    encoded = (_encode_set(train_set, encoder_spec, "training"),
               _encode_set(validation_set, encoder_spec, "validation"))
    return [train(train_set, validation_set, config, encoder_spec,
                  ckpt_id=ckpt_id, encoded=encoded)
            for ckpt_id, config in zip(ids, configs, strict=True)]
