"""Training loops: one run, and the candidate grid over one instance set.

One run = AdamW over the head (and the toy encoder's trainable projection)
with per-epoch seeded batch shuffling, validation RMSE after every epoch,
and early stopping with best-epoch weight restore.  Everything about a run
is a pure function of (data, config, seed): two runs with identical inputs
produce byte-identical checkpoints; every draw is an `encoding.draw`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, field
from pathlib import Path

import numpy as np

from . import encoding, log, metrics, regressor
from .corpus import REGIMES, Instance, ParseError, build, check_fields
from .encoding import DROPOUT, ORDER, EncoderSpec, draw

# AdamW constants; unstated by the protocol, fixed here and recorded in every
# checkpoint header as OPTIMIZER, which `load` requires.
ADAMW_BETAS = (0.9, 0.999)
ADAMW_EPS = 1e-8
ADAMW_WEIGHT_DECAY = 0.01
OPTIMIZER = {"betas": list(ADAMW_BETAS), "eps": ADAMW_EPS,
             "weight_decay": ADAMW_WEIGHT_DECAY}
IMPROVEMENT_DELTA = 1e-6
CHECKPOINT_MAGIC = "dimasr-checkpoint-v1"


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = field(metadata={"min": 1})
    learning_rate: float = field(metadata={"gt": 0})
    max_epochs: int = field(metadata={"min": 1})
    bounded: bool
    seed: int = field(default=42, metadata={"min": 0})
    patience: int = field(default=2, metadata={"min": 1})
    regime: str = field(default="joint", metadata={"choices": REGIMES})
    dropout_rate: float = field(default=0.1, metadata={"min": 0, "below": 1})

    def __post_init__(self):
        check_fields(self)

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
    """Adam with decoupled weight decay, stepping one parameter array in place.

    `learning_rate` is a float or an array that broadcasts against the
    parameters (one rate per row of a stack of configs); `decay` scales the
    weight decay per element and is 0 where a parameter is exempt (the
    head's bias).  With learning rate 0 a step leaves parameters
    bit-unchanged (decay is multiplied by the learning rate, as in the
    decoupled formulation).
    """

    def __init__(self, learning_rate, decay=1.0):
        self.lr = learning_rate
        self.lr_decay = learning_rate * ADAMW_WEIGHT_DECAY * decay
        self.t = 0
        self.m = self.v = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self.t += 1
        beta1, beta2 = ADAMW_BETAS
        if self.m is None:
            self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        params -= self.lr_decay * params
        m, v = self.m, self.v
        m *= beta1
        m += (1.0 - beta1) * grads
        v *= beta2
        v += (1.0 - beta2) * (grads * grads)
        m_hat = m / (1.0 - beta1 ** self.t)
        v_hat = v / (1.0 - beta2 ** self.t)
        params -= self.lr * m_hat / (np.sqrt(v_hat) + ADAMW_EPS)

    def keep(self, rows: np.ndarray) -> None:
        """Keep the state of the stacked configs `rows` (a row mask) only."""
        self.lr, self.lr_decay = self.lr[rows], self.lr_decay[rows]
        if self.m is not None:
            self.m, self.v = self.m[rows], self.v[rows]


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
    best_val_rmse: float = field(metadata={"min": 0})
    epoch_of_best: int = field(metadata={"min": 1})
    history: list[dict] = field(default_factory=list)

    def __post_init__(self):
        check_fields(self)
        if self.epoch_of_best > self.config.max_epochs:
            raise ValueError(f"epoch_of_best must be <= max_epochs "
                             f"{self.config.max_epochs}, got {self.epoch_of_best}")

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
            "optimizer": OPTIMIZER,
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
        header key, a value its class rejects, an optimizer block or array
        table other than the one `save` writes, or a top-level copy that
        differs from `config` is one ParseError naming the path."""
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
            value = getattr(config, key)
            if header[key] != value or type(header[key]) is not type(value):
                raise ParseError(f"{path}: key {key!r}: {header[key]!r} differs "
                                 f"from 'config' {value!r}")
        if header["optimizer"] != OPTIMIZER:
            raise ParseError(f"{path}: key 'optimizer': {header['optimizer']!r} "
                             f"differs from {OPTIMIZER!r}")
        d, trainable = spec.hidden_size, spec.trainable_layer
        layout = [["W", [2, d]], ["b", [2]]] + ([["A", [d, d]]] if trainable else [])
        if header["arrays"] != layout:
            raise ParseError(f"{path}: key 'arrays': {header['arrays']}, but the "
                             f"encoder needs {layout}")
        if len(payload) != 8 * (2 * d + 2 + (d * d if trainable else 0)):
            raise ParseError(f"{path}: truncated or padded payload: "
                             f"{len(payload)} bytes for {layout}")
        W, b, A = _unflatten(np.frombuffer(payload, dtype="<f8").astype(np.float64),
                             d, trainable)
        head = regressor.HeadParams(W=W, b=b, dropout_rate=config.dropout_rate,
                                    bounded=config.bounded)
        scalars = {key: header[key] for key in ("id", "best_val_rmse", "epoch_of_best")}
        return build(cls, dict(scalars, config=config, encoder_spec=spec, head=head,
                               projection=A), str(path))


def _unflatten(flat: np.ndarray, d: int, trainable: bool):
    """W (..., 2, d), b (..., 2) and A (..., d, d), or None without a
    trainable layer: views of the last axis of `flat`, laid out as a
    checkpoint's payload."""
    W, b, A = np.split(flat, [2 * d, 2 * d + 2], axis=-1)
    lead = flat.shape[:-1]
    return W.reshape(lead + (2, d)), b, A.reshape(lead + (d, d)) if trainable else None


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
                     projection: np.ndarray | None) -> list[float]:
    """The validation RMSE of each config of a stacked head."""
    e = encoding.apply_projection(feats, projection)
    gold = golds.tolist()
    return [metrics.rmse_va(pred, gold)
            for pred in regressor.predict(e, head).tolist()]


# Overflow shows as a non-finite loss or validation RMSE, which stop the run
# with its config id, epoch and step; numpy's own warnings would say less.
@np.errstate(over="ignore", invalid="ignore")
def _train_stack(encoded: tuple[Encoded, Encoded | None],
                 configs: list[TrainConfig], ids: list[str],
                 encoder_spec: EncoderSpec, val_metric_fn=None
                 ) -> list[Checkpoint | TrainingError]:
    """Train configs that share batch size, seed, dropout rate and head type
    as one stack, each bit for bit as its own run would: they start from one
    head and draw the same orders and dropout masks.  Their parameters
    are the rows of one buffer, each laid out as a checkpoint's payload, so
    one forward, backward and AdamW step per batch serve them all.  A config
    leaves the stack at the end of the epoch that gives it a result.  Returns
    each config's checkpoint or the TrainingError that stopped it."""
    (feats, golds), val_encoded = encoded
    first, d, trainable = configs[0], encoder_spec.hidden_size, encoder_spec.trainable_layer
    init = regressor.init_head(d, first.seed, first.dropout_rate, first.bounded)
    row = [init.W.ravel(), init.b] + ([encoding.init_projection(d).ravel()]
                                      if trainable else [])
    buf = np.tile(np.concatenate(row), (len(configs), 1))
    decay = np.ones(buf.shape[1])
    _unflatten(decay, d, trainable)[1][:] = 0.0   # the head's bias is not decayed
    opt = AdamW(np.array([[c.learning_rate] for c in configs]), decay)
    stoppers = [EarlyStopping(c.patience) for c in configs]
    best, results = [None] * len(configs), [None] * len(configs)
    history: list[list[dict]] = [[] for _ in configs]
    live = list(range(len(configs)))   # the config of each buffer row
    epoch = 0
    while live:
        epoch += 1
        W, b, projection = _unflatten(buf, d, trainable)
        head = regressor.HeadParams(W=W, b=b, dropout_rate=first.dropout_rate,
                                    bounded=first.bounded)
        order = np.argsort(draw((first.seed, ORDER, epoch), (len(feats),)),
                           kind="stable")
        block = draw((first.seed, DROPOUT, epoch), feats.shape)
        loss_sum = np.zeros(len(live))
        for step, start in enumerate(range(0, len(feats), first.batch_size)):
            rows = slice(start, start + first.batch_size)
            idx = order[rows]
            pred, cache = regressor.forward_cached(feats[idx], head, projection,
                                                   block[rows], train=True)
            loss = regressor.mse_loss(pred, golds[idx])
            grads = regressor.backward(cache, golds[idx])
            opt.step(buf, np.concatenate([g.reshape(len(live), -1)
                                          for g in grads.values()], axis=1))
            loss_sum += loss * len(idx)
            # A failed config's row never mixes with the others: it rides
            # out the epoch unread.
            for row in np.flatnonzero(~np.isfinite(loss)).tolist():
                if results[live[row]] is None:
                    results[live[row]] = TrainingError(
                        f"{ids[live[row]]}: non-finite loss at epoch {epoch}, step {step}")
        pending = [(row, c) for row, c in enumerate(live) if results[c] is None]
        if pending:
            train_mse = (loss_sum / len(feats)).tolist()
            val = ([float(val_metric_fn(epoch, {"head": head, "projection": projection}))]
                   if val_metric_fn is not None
                   else _validation_rmse(*val_encoded, head, projection))
        for row, c in pending:
            if not np.isfinite(val[row]):
                results[c] = TrainingError(
                    f"{ids[c]}: non-finite validation RMSE at epoch {epoch}")
                continue
            history[c].append({"epoch": epoch, "train_mse": train_mse[row],
                               "val_rmse": val[row]})
            log(__name__, f"{ids[c]} epoch {epoch}  train_mse {train_mse[row]:.6f}  "
                          f"val_rmse {val[row]:.6f}")
            stopper = stoppers[c]
            if stopper.update(val[row], epoch):
                best[c] = buf[row].copy()
            if stopper.should_stop:
                log(__name__, f"{ids[c]} early stop after epoch {epoch} "
                              f"(best epoch {stopper.best_epoch})")
            if stopper.should_stop or epoch == configs[c].max_epochs:
                W, b, A = _unflatten(best[c], d, trainable)
                results[c] = Checkpoint(
                    id=ids[c], config=configs[c], encoder_spec=encoder_spec,
                    head=regressor.HeadParams(W=W, b=b, dropout_rate=first.dropout_rate,
                                              bounded=first.bounded),
                    projection=A, best_val_rmse=float(stopper.best_score),
                    epoch_of_best=int(stopper.best_epoch), history=history[c])
        keep = np.array([results[c] is None for c in live])
        buf, live = buf[keep], [c for c, kept in zip(live, keep) if kept]
        opt.keep(keep)
    return results


def train(train_set: list[Instance], validation_set: list[Instance],
          config: TrainConfig, encoder_spec: EncoderSpec, *,
          ckpt_id: str = "M1", val_metric_fn=None) -> Checkpoint:
    """Run one training job and return the best-epoch checkpoint: a stack of
    one config (`_train_stack`).

    `val_metric_fn(epoch, model) -> float`, when given, replaces the
    validation RMSE computation (the early-stopping tests inject scripted
    sequences through it); `model` exposes {"head", "projection"}, stacks
    of one config.
    """
    encoded = (_encode_set(train_set, encoder_spec, "training"),
               None if val_metric_fn is not None
               else _encode_set(validation_set, encoder_spec, "validation"))
    (result,) = _train_stack(encoded, [config], [ckpt_id], encoder_spec,
                             val_metric_fn)
    if isinstance(result, TrainingError):
        raise result
    return result


def train_grid(train_set: list[Instance], validation_set: list[Instance],
               configs: list[TrainConfig], encoder_spec: EncoderSpec,
               ids: list[str]) -> list[Checkpoint]:
    """Train one checkpoint per config, ids[i] naming the run of configs[i].

    Features depend on the encoder spec and the instances only, so both sets
    are encoded once, ahead of the first config, and shared by every run.
    Configs train in stacks (`_train_stack`).  Once all have run, the
    failure of the first failing config in grid order is raised, as a run
    of the configs one after another would have met it.
    """
    if len(set(configs)) != len(configs):
        raise ValueError("grid configs must be distinct")
    encoded = (_encode_set(train_set, encoder_spec, "training"),
               _encode_set(validation_set, encoder_spec, "validation"))
    stacks: dict[tuple, list[int]] = {}
    for i, (c, _) in enumerate(zip(configs, ids, strict=True)):
        stacks.setdefault((c.batch_size, c.seed, c.dropout_rate, c.bounded), []).append(i)
    results: list = [None] * len(configs)
    for members in stacks.values():
        trained = _train_stack(encoded, [configs[i] for i in members],
                               [ids[i] for i in members], encoder_spec)
        for i, result in zip(members, trained):
            results[i] = result
    for result in results:
        if isinstance(result, TrainingError):
            raise result
    return results
