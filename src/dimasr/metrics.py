"""Joint valence-arousal RMSE, per-pair evaluation reports, and the one
(ID, Aspect) aligner of prediction columns.

Nothing here imports numpy at module level, so `dimasr evaluate` scores in
pure Python.  `rmse_va` and the average over pairs sum in numpy's order, so
they equal the numpy expressions they replace bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .corpus import PairID, ParseError, Prediction, VAScore, pair_sort_key  # noqa: F401

if TYPE_CHECKING:
    import numpy as np


def va_array(values) -> np.ndarray:
    """Coerce VAScore lists / tuple lists / arrays to an (n, 2) float array."""
    import numpy as np
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


class Columns(NamedTuple):
    """A prediction or gold file as columns: (ID, Aspect) keys in file order,
    their VA values (an (n, 2) array, or a list of (valence, arousal) rows)
    and the name error messages give the file."""

    keys: list[tuple[str, str]]
    values: np.ndarray | list
    source: str


def align_columns(columns: Columns, ref: Columns) -> np.ndarray | list:
    """`columns.values` reordered to the keys of `ref`, whose keys are unique.

    Equal key lists return the values unchanged.  Otherwise each reference
    key must occur exactly once and no other key may; the first duplicate,
    missing or extra key raises a one-line ParseError naming both sources.
    """
    if columns.keys == ref.keys:
        return columns.values
    where = f"{columns.source}: (ID, Aspect) keys differ from {ref.source}"
    row = {}
    for i, key in enumerate(columns.keys):
        if row.setdefault(key, i) != i:
            raise ParseError(f"{where}: duplicate key {key}")
    missing = next((k for k in ref.keys if k not in row), None)
    if missing is not None:
        raise ParseError(f"{where}: first missing key {missing}")
    if len(row) != len(ref.keys):
        ref_keys = set(ref.keys)
        extra = next(k for k in columns.keys if k not in ref_keys)
        raise ParseError(f"{where}: first extra key {extra}")
    index = [row[k] for k in ref.keys]
    values = columns.values
    return [values[i] for i in index] if isinstance(values, list) else values[index]


# numpy's float64 add.reduce: below 8 values a plain running sum, up to 128
# eight interleaved running sums combined as a tree, above that the two
# halves (the first a multiple of 8 long) summed apiece and added.
_PAIRWISE_BLOCK = 128
_NUMPY_BUFSIZE = 8192   # numpy < 2.3 reduces a vector in blocks this long


def _pairwise_sum(xs: list[float], lo: int, n: int) -> float:
    """numpy's pairwise sum of xs[lo:lo + n], operation for operation."""
    if n < 8:
        total = 0.0
        for x in xs[lo:lo + n]:
            total += x
        return total
    if n <= _PAIRWISE_BLOCK:
        tail = lo + n - n % 8
        acc = []
        for j in range(lo, lo + 8):
            a = xs[j]
            for x in xs[j + 8:tail:8]:
                a += x
            acc.append(a)
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5])
                                                           + (acc[6] + acc[7]))
        for x in xs[tail:lo + n]:
            total += x
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(xs, lo, half) + _pairwise_sum(xs, lo + half, n - half)


@functools.cache
def _numpy_sums_in_blocks() -> bool:
    """Whether the installed numpy (before 2.3) reduces a vector in
    `_NUMPY_BUFSIZE` blocks, each summed pairwise, rather than whole."""
    from importlib.metadata import version
    return tuple(map(int, version("numpy").split(".")[:2])) < (2, 3)


def _mean(xs: list[float]) -> float:
    """np.mean of non-negative floats, bit for bit (on these, starting a
    sum at 0.0 or, as some numpy versions do, at -0.0 gives the same)."""
    n = len(xs)
    if n <= _NUMPY_BUFSIZE or not _numpy_sums_in_blocks():
        return _pairwise_sum(xs, 0, n) / n
    total = 0.0
    for lo in range(0, n, _NUMPY_BUFSIZE):
        total += _pairwise_sum(xs, lo, min(_NUMPY_BUFSIZE, n - lo))
    return total / n


def _as_rows(values) -> list:
    """(valence, arousal) rows of an (n, 2) array or of a list of rows or
    VAScores."""
    if hasattr(values, "tolist"):
        return values.tolist()
    if values and isinstance(values[0], VAScore):
        return [v.as_tuple() for v in values]
    return values


def rmse_va(preds, golds) -> float:
    """Root mean squared error over both VA dimensions jointly.

    sqrt( (1/N) * sum_i [ (Vp_i - Vg_i)^2 + (Ap_i - Ag_i)^2 ] ) with N the
    number of instances (the per-instance squared errors of the two
    dimensions are summed, not averaged).  Equal, bit for bit, to
    `np.sqrt(np.mean(np.sum(d * d, axis=1)))` with d = preds - golds.
    """
    p, g = _as_rows(preds), _as_rows(golds)
    if len(p) != len(g):
        raise ValueError(f"length mismatch: {len(p)} predictions, "
                         f"{len(g)} golds")
    if not p:
        raise ValueError("rmse_va of an empty set is undefined")
    return math.sqrt(_mean([(dv := pv - gv) * dv + (da := pa - ga) * da
                            for (pv, pa), (gv, ga) in zip(p, g)]))


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

    def render_table(self) -> str:
        """Column-per-pair table (official order first), average last; 4 decimals."""
        pairs = sorted(self.per_pair, key=pair_sort_key)
        names = [str(p) for p in pairs] + ["Avg."]
        values = [f"{self.per_pair[p]:.4f}" for p in pairs] + [f"{self.average:.4f}"]
        counts = [str(self.n_per_pair[p]) for p in pairs] + [""]
        widths = [max(len(a), len(b), len(c))
                  for a, b, c in zip(names, values, counts)]
        def row(label, cells):
            return "  ".join([f"{label:<8}"]
                             + [c.rjust(w) for c, w in zip(cells, widths)])
        return "\n".join([row("pair", names), row("rmse_va", values),
                          row("n", counts)])


def evaluate(predictions: dict[PairID, np.ndarray | list],
             gold: dict[PairID, np.ndarray | list]) -> EvalReport:
    """Per-pair rmse_va plus the unweighted mean over pairs, from (n, 2)
    predictions already aligned row for row with the gold (align_columns)."""
    per_pair: dict[PairID, float] = {}
    n_per_pair: dict[PairID, int] = {}
    for pair in sorted(gold, key=pair_sort_key):
        if pair not in predictions:
            raise ValueError(f"no predictions for pair {pair}")
        per_pair[pair] = rmse_va(predictions[pair], gold[pair])
        n_per_pair[pair] = len(gold[pair])
    if not per_pair:
        raise ValueError("no pairs to evaluate")
    average = _mean(list(per_pair.values()))
    return EvalReport(per_pair=per_pair, average=average, n_per_pair=n_per_pair)
