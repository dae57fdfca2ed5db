"""Two-output regression head with optional sigmoid-bounded transform.

Forward path: e = feats A^T (optional trainable projection A), h = Dropout(e),
y = W h + b, with W in R^{2 x d} and b in R^2.  When bounded, predictions are
mapped through sigmoid(y) * 8 + 1 so both components lie strictly inside
(1, 9); the loss is plain MSE on the final (bounded or raw) predictions.
forward_cached() is the one forward path: training runs it with dropout and
keeps its cache for backward(), and predict() runs it with train=False.
backward() returns exact analytic gradients, including the per-output chain
factor 8 * s * (1 - s) for bounded heads and the gradient of the projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOUND_LO = 1.0
BOUND_HI = 9.0
BOUND_SPAN = 8.0


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (sign-split; no overflow)."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bound(y: np.ndarray) -> np.ndarray:
    """Map raw outputs into the open interval (1, 9) via sigmoid(y) * 8 + 1.

    Stable for |y| up to 1e3 and beyond.  Where float64 rounding would
    saturate the result onto an endpoint (|y| > ~36.7) the output is moved
    one ulp into the interior, so the strict-range invariant holds for every
    finite input.
    """
    return _scale_sigmoid(sigmoid(y))


def _scale_sigmoid(s: np.ndarray) -> np.ndarray:
    """bound() from an already computed sigmoid(y): 1 + 8 * s, one ulp inside."""
    return np.clip(BOUND_LO + BOUND_SPAN * s, np.nextafter(BOUND_LO, BOUND_HI),
                   np.nextafter(BOUND_HI, BOUND_LO))


@dataclass
class HeadParams:
    """Learnable head parameters plus the knobs that shape forward_cached()."""

    W: np.ndarray                 # (2, d)
    b: np.ndarray                 # (2,)
    dropout_rate: float
    bounded: bool

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.W.ndim != 2 or self.W.shape[0] != 2:
            raise ValueError(f"W must be (2, d), got {self.W.shape}")
        if self.b.shape != (2,):
            raise ValueError(f"b must be (2,), got {self.b.shape}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def hidden_size(self) -> int:
        return self.W.shape[1]


def init_head(d: int, seed: int, dropout_rate: float, bounded: bool) -> HeadParams:
    """Seeded uniform(-1/sqrt(d), 1/sqrt(d)) weights, zero bias."""
    lim = 1.0 / np.sqrt(d)
    rng = np.random.default_rng(seed)
    return HeadParams(W=rng.uniform(-lim, lim, (2, d)), b=np.zeros(2),
                      dropout_rate=dropout_rate, bounded=bounded)


def _dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    # Inverted dropout: keep-mask scaled by 1/(1-rate) so E[mask * x] = x.
    return (rng.random(shape) >= rate) / (1.0 - rate)


def mse_loss(pred, gold) -> float:
    """Mean squared error over all instances and both output dimensions."""
    pred = np.atleast_2d(np.asarray(pred, dtype=np.float64))
    gold = np.atleast_2d(np.asarray(gold, dtype=np.float64))
    if pred.shape != gold.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gold.shape}")
    if pred.size == 0:
        raise ValueError("mse_loss of an empty batch is undefined")
    diff = pred - gold
    return float(np.mean(diff * diff))


def forward_cached(feats: np.ndarray, params: HeadParams,
                   projection: np.ndarray | None = None,
                   rng: np.random.Generator | None = None,
                   train: bool = True) -> tuple[np.ndarray, dict]:
    """The head's forward pass over (n, d) features; caches intermediates.

    feats -> e = feats @ A^T (if projection A given) -> dropout (train only)
    -> head -> bound (if bounded).  The cache feeds backward().
    """
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    e = feats if projection is None else feats @ projection.T
    if e.shape[1] != params.hidden_size:
        raise ValueError(
            f"feature size {e.shape[1]} does not match head size {params.hidden_size}")
    mask, h = 1.0, e   # no dropout: e * 1.0 would equal e bit for bit
    if train and params.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("training forward with dropout needs an rng")
        mask = _dropout_mask(e.shape, params.dropout_rate, rng)
        h = e * mask
    y = h @ params.W.T + params.b
    if params.bounded:
        s = sigmoid(y)
        pred = _scale_sigmoid(s)
    else:
        s = None
        pred = y
    cache = {"feats": feats, "mask": mask, "h": h, "y": y, "s": s,
             "pred": pred, "params": params, "projection": projection}
    return pred, cache


def predict(e: np.ndarray, params: HeadParams) -> np.ndarray:
    """Inference-mode predictions: bounded when the head is bounded, else raw."""
    return forward_cached(e, params, train=False)[0]


def backward(cache: dict, gold: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of the MSE loss for W, b and the projection (if any).

    With n instances, L = mean over the (n, 2) error matrix of squared error,
    so dL/dpred = (pred - gold) / n.  Bounded heads chain through
    dpred/dy = 8 * s * (1 - s) per component.
    """
    params: HeadParams = cache["params"]
    gold = np.atleast_2d(np.asarray(gold, dtype=np.float64))
    pred = cache["pred"]
    if gold.shape != pred.shape:
        raise ValueError(f"gold shape {gold.shape} does not match batch {pred.shape}")
    n = pred.shape[0]

    g_pred = (pred - gold) / n
    if params.bounded:
        s = cache["s"]
        g_y = g_pred * (BOUND_SPAN * s * (1.0 - s))
    else:
        g_y = g_pred

    grads = {
        "W": g_y.T @ cache["h"],
        "b": g_y.sum(axis=0),
    }
    if cache["projection"] is not None:
        g_h = g_y @ params.W
        g_e = g_h * cache["mask"]
        grads["A"] = g_e.T @ cache["feats"]
    return grads

