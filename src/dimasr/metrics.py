"""Joint valence-arousal RMSE, per-pair evaluation reports, and the one
(ID, Aspect) aligner of prediction columns.

Nothing here imports numpy at module level, so `dimasr evaluate` scores in
pure Python.  `rmse_va` and the average over pairs add with `math.fsum`,
which rounds the exact sum once: the result does not depend on the order of
rows or pairs, nor on the numpy version, so the ensemble argmin and every
report are the same bytes wherever they run.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .corpus import PairID, ParseError, Prediction, pair_sort_key  # noqa: F401

if TYPE_CHECKING:
    import numpy as np


def va_array(values: list) -> np.ndarray:
    """(valence, arousal) rows, such as VAScores, as an (n, 2) float64 array;
    rows of another width raise ValueError."""
    import numpy as np
    return np.array(values, dtype=np.float64).reshape(len(values), 2)


class Columns(NamedTuple):
    """A prediction or gold file as columns: (ID, Aspect) keys in file order,
    their (valence, arousal) float rows and the name error messages give
    the file."""

    keys: list[tuple[str, str]]
    values: list[tuple[float, float]]
    source: str


def align_columns(columns: Columns, ref: Columns) -> list[tuple[float, float]]:
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
    values = columns.values
    return [values[row[k]] for k in ref.keys]


def _as_rows(values) -> list:
    """(valence, arousal) rows of an (n, 2) array or of a list of rows, such
    as VAScores."""
    return values.tolist() if hasattr(values, "tolist") else values


def rmse_va(preds, golds) -> float:
    """Root mean squared error over both VA dimensions jointly.

    sqrt( (1/N) * sum_i [ (Vp_i - Vg_i)^2 + (Ap_i - Ag_i)^2 ] ) with N the
    number of instances (the per-instance squared errors of the two
    dimensions are summed, not averaged).  The sum is exactly rounded
    (`math.fsum`), so any order of the rows gives the same bits; it agrees
    with `np.sqrt(np.mean(np.sum(d * d, axis=1)))`, d = preds - golds, to
    rounding.
    """
    p, g = _as_rows(preds), _as_rows(golds)
    if len(p) != len(g):
        raise ValueError(f"length mismatch: {len(p)} predictions, "
                         f"{len(g)} golds")
    if not p:
        raise ValueError("rmse_va of an empty set is undefined")
    squares = [(dv := pv - gv) * dv + (da := pa - ga) * da
               for (pv, pa), (gv, ga) in zip(p, g)]
    try:
        return math.sqrt(math.fsum(squares) / len(p))
    except OverflowError:   # finite squares whose sum passes the float range
        return math.inf


class EvalReport(NamedTuple):
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


def evaluate(predictions: dict[PairID, list], gold: dict[PairID, list]) -> EvalReport:
    """Per-pair rmse_va plus the unweighted mean over pairs, from (valence,
    arousal) rows already aligned row for row with the gold (align_columns)."""
    per_pair: dict[PairID, float] = {}
    n_per_pair: dict[PairID, int] = {}
    for pair in sorted(gold, key=pair_sort_key):
        if pair not in predictions:
            raise ValueError(f"no predictions for pair {pair}")
        per_pair[pair] = rmse_va(predictions[pair], gold[pair])
        n_per_pair[pair] = len(gold[pair])
    if not per_pair:
        raise ValueError("no pairs to evaluate")
    average = math.fsum(per_pair.values()) / len(per_pair)
    return EvalReport(per_pair=per_pair, average=average, n_per_pair=n_per_pair)
