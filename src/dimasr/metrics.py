"""Joint valence-arousal RMSE and per-pair evaluation reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Instance, PairID, Prediction, VAScore, pair_sort_key


def va_array(values) -> np.ndarray:
    """Coerce VAScore lists / tuple lists / arrays to an (n, 2) float array."""
    if isinstance(values, np.ndarray):
        arr = values.astype(np.float64)
    else:
        arr = np.array([v.as_tuple() if isinstance(v, VAScore) else tuple(v)
                        for v in values], dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 2) if arr.size else arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (n, 2) VA values, got shape {arr.shape}")
    return arr


def rmse_va(preds, golds) -> float:
    """Root mean squared error over both VA dimensions jointly.

    sqrt( (1/N) * sum_i [ (Vp_i - Vg_i)^2 + (Ap_i - Ag_i)^2 ] ) with N the
    number of instances (the per-instance squared errors of the two
    dimensions are summed, not averaged).
    """
    p = va_array(preds)
    g = va_array(golds)
    if p.shape[0] != g.shape[0]:
        raise ValueError(f"length mismatch: {p.shape[0]} predictions, "
                         f"{g.shape[0]} golds")
    if p.shape[0] == 0:
        raise ValueError("rmse_va of an empty set is undefined")
    diff = p - g
    return float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))


@dataclass
class EvalReport:
    per_pair: dict[PairID, float]
    average: float
    n_per_pair: dict[PairID, int]

    def as_dict(self) -> dict:
        pairs = sorted(self.per_pair, key=pair_sort_key)
        return {
            "per_pair": {str(p): self.per_pair[p] for p in pairs},
            "average": self.average,
            "n_per_pair": {str(p): self.n_per_pair[p] for p in pairs},
        }

    def render_table(self, precision: int = 4) -> str:
        """Column-per-pair table (official order first), average last."""
        pairs = sorted(self.per_pair, key=pair_sort_key)
        names = [str(p) for p in pairs] + ["Avg."]
        values = [f"{self.per_pair[p]:.{precision}f}" for p in pairs]
        values.append(f"{self.average:.{precision}f}")
        counts = [str(self.n_per_pair[p]) for p in pairs] + [""]
        widths = [max(len(a), len(b), len(c))
                  for a, b, c in zip(names, values, counts)]
        def row(label, cells):
            return "  ".join([f"{label:<8}"]
                             + [c.rjust(w) for c, w in zip(cells, widths)])
        return "\n".join([row("pair", names), row("rmse_va", values),
                          row("n", counts)])


def _gold_map(values) -> dict[tuple[str, str], VAScore]:
    out: dict[tuple[str, str], VAScore] = {}
    for item in values:
        if isinstance(item, Instance):
            if item.gold is None:
                raise ValueError(f"instance {item.key} has no gold VA")
            key, va = item.key, item.gold
        else:
            key, va = item.key, item.va
        if key in out:
            raise ValueError(f"duplicate instance key {key}")
        out[key] = va
    return out


def align(preds: list[Prediction], golds) -> tuple[np.ndarray, np.ndarray]:
    """Match predictions to golds by (id, aspect) key, in gold order."""
    pred_map = _gold_map(preds)
    gold_map = _gold_map(golds)
    missing = [k for k in gold_map if k not in pred_map]
    if missing:
        raise ValueError(f"missing predictions for {len(missing)} instances, "
                         f"first: {missing[0]}")
    extra = [k for k in pred_map if k not in gold_map]
    if extra:
        raise ValueError(f"predictions for {len(extra)} unknown instances, "
                         f"first: {extra[0]}")
    keys = list(gold_map)
    return (va_array([pred_map[k] for k in keys]),
            va_array([gold_map[k] for k in keys]))


def evaluate(predictions: dict[PairID, list[Prediction]],
             gold: dict[PairID, list]) -> EvalReport:
    """Per-pair rmse_va plus the unweighted mean over pairs."""
    per_pair: dict[PairID, float] = {}
    n_per_pair: dict[PairID, int] = {}
    for pair in sorted(gold, key=pair_sort_key):
        if pair not in predictions:
            raise ValueError(f"no predictions for pair {pair}")
        p, g = align(predictions[pair], gold[pair])
        per_pair[pair] = rmse_va(p, g)
        n_per_pair[pair] = p.shape[0]
    if not per_pair:
        raise ValueError("no pairs to evaluate")
    average = float(np.mean(list(per_pair.values())))
    return EvalReport(per_pair=per_pair, average=average, n_per_pair=n_per_pair)
