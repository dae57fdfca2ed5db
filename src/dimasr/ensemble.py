"""Per-pair adaptive ensembling by exhaustive subset search.

Every candidate checkpoint contributes dev-set (and test-set) predictions for
every pair.  For each pair independently, all member subsets of size
min_size..max_size are scored by the dev RMSE of their element-wise averaged
predictions, and the minimizer wins; ties go to the smaller subset, then to
the lexicographically smallest id tuple, which makes the argmin unique and
the search order-independent.  Test predictions play no role in the search
and are only averaged when a selection is applied.

The pool holds each pair and split as one (members, n, 2) tensor whose rows
follow one reference key list, so the search and `apply` index arrays; an
average is `tensor[list(subset)].mean(axis=0)`, handed back as rows.

The search stays exact and exhaustive but does not average every subset.
With e_m member m's (n, 2) dev error and G_ij = sum(e_i * e_j) the pair's
Gram matrix, the MSE of subset S's average is sum_{i,j in S} G_ij / (n |S|^2),
so one matrix product scores every subset at once.  Gram scores round
differently from direct averaging, so every subset within a tolerance of the
Gram minimum is re-scored directly, and the reported RMSE and the argmin come
from that direct path alone.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .corpus import PairID, ParseError, pair_sort_key
from .metrics import Columns, Prediction, align_columns, rmse_va

MAX_POOL_SIZE = 12   # exhaustive search; beyond this the enumeration explodes


@dataclass
class Member:
    """One candidate model's predictions, keyed by pair and split: per pair,
    a list of Predictions or the columns of a prediction file."""

    id: str
    dev: dict[PairID, list[Prediction] | Columns]
    test: dict[PairID, list[Prediction] | Columns] = field(default_factory=dict)


def _columns(items: list | Columns, source: str) -> Columns:
    """Columns as given, or a list of Predictions or gold-carrying Instances
    turned into columns once, their VAScores as the rows."""
    if isinstance(items, Columns):
        return items
    values = [item.va if isinstance(item, Prediction) else item.gold
              for item in items]
    missing = next((item.key for item, va in zip(items, values) if va is None), None)
    if missing is not None:
        raise ValueError(f"{source}: instance {missing} has no VA")
    return Columns([item.key for item in items], values, source)


class CandidatePool:
    """An ordered pool of 2..12 members covering the same pairs and instances.

    Each pair and split is one (members, n, 2) float64 tensor whose rows
    follow one reference key list, the first member's keys de-duplicated,
    on both splits (`dimasr ensemble` aligns each dev member file to the
    gold keys as it reads it).  Members are drawn one at a time, so a
    generator of members holds one member's rows at once, and aligned to
    it, so a file with a duplicate, missing or extra key fails here, naming
    the file.  A test pair is held only when every member has it.  Of the
    members only their sources are kept, which errors name.
    """

    def __init__(self, members: Iterable[Member]):
        self.ids: list[str] = []
        self.reference: dict[str, dict[PairID, Columns]] = {"dev": {}, "test": {}}
        self.sources: dict[str, dict[PairID, list[str]]] = {"dev": {}, "test": {}}
        arrays: dict[str, dict[PairID, list[np.ndarray]]] = {"dev": {}, "test": {}}
        for m in members:
            pairs = pairs if self.ids else set(m.dev)
            if set(m.dev) != pairs:
                raise ValueError(f"member {m.id} covers pairs "
                                 f"{sorted(map(str, m.dev))}, expected "
                                 f"{sorted(map(str, pairs))}")
            if m.id in self.ids:
                raise ValueError(f"duplicate member ids: {self.ids + [m.id]}")
            for split, held in arrays.items():
                for pair, items in getattr(m, split).items():
                    if pair not in pairs or self.ids and pair not in held:
                        continue   # a test pair the first member lacks is not held
                    cols = _columns(items, f"member {m.id} {split} {pair}")
                    if not self.ids:   # keys only, unique: a repeat here fails below
                        self.reference[split][pair] = cols._replace(
                            keys=list(dict.fromkeys(cols.keys)), values=[])
                    rows = align_columns(cols, self.reference[split][pair])
                    # Flat, as np.array reads a list of tuples at half the speed.
                    held.setdefault(pair, []).append(np.fromiter(
                        chain.from_iterable(rows), np.float64, 2 * len(rows)).reshape(-1, 2))
                    self.sources[split].setdefault(pair, []).append(cols.source)
            self.ids.append(m.id)
            del m   # free this member's rows before the next one is read
        if not 2 <= len(self.ids) <= MAX_POOL_SIZE:
            raise ValueError(f"pool size must be in [2, {MAX_POOL_SIZE}], "
                             f"got {len(self.ids)}")
        self.pairs = sorted(pairs, key=pair_sort_key)
        # Popped as stacked: each pair's member arrays go once copied.
        self.tensors: dict[str, dict[PairID, np.ndarray]] = {
            split: {pair: np.stack(held.pop(pair)) for pair in self.pairs
                    if len(held.get(pair, ())) == len(self.ids)}
            for split, held in arrays.items()}

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class SelectionEntry:
    subset: tuple[str, ...]
    dev_rmse: float
    n_scored: int


@dataclass
class EnsembleSelection:
    per_pair: dict[PairID, SelectionEntry]
    member_ids: list[str]

    def to_dict(self) -> dict:
        return {
            "member_ids": list(self.member_ids),
            "per_pair": {
                str(p): {"subset": list(e.subset), "dev_rmse": e.dev_rmse,
                         "n_scored": e.n_scored}
                for p, e in sorted(self.per_pair.items(),
                                   key=lambda kv: pair_sort_key(kv[0]))
            },
        }

    def render_membership_matrix(self) -> str:
        """Check-mark matrix: one row per pair, one column per member, the
        selected subset size last."""
        pairs = sorted(self.per_pair, key=pair_sort_key)
        header = ["pair"] + list(self.member_ids) + ["Number"]
        rows = [header]
        for pair in pairs:
            entry = self.per_pair[pair]
            marks = ["✓" if mid in entry.subset else ""
                     for mid in self.member_ids]
            rows.append([str(pair)] + marks + [str(len(entry.subset))])
        widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
        return "\n".join(
            "  ".join(cell.ljust(w) if c == 0 else cell.center(w)
                      for c, (cell, w) in enumerate(zip(row, widths)))
            for row in rows)


# Overflow shows as non-finite Gram scores, which raise naming the member;
# numpy's own warnings would say less.
@np.errstate(over="ignore", invalid="ignore")
def search(pool: CandidatePool, dev_gold: dict[PairID, list | Columns],
           min_size: int = 2, max_size: int | None = None) -> EnsembleSelection:
    """Exhaustively score every subset per pair and keep the dev-RMSE minimizer.

    dev_gold maps each pair to gold columns or gold-carrying items
    (Instances or Predictions), aligned to the pool's dev keys by
    (id, aspect).  Deterministic: minimization breaks ties by subset size,
    then by the sorted id tuple.  Errors so large that a subset's score
    overflows raise a ParseError naming the member with the largest.
    """
    if max_size is None:
        max_size = len(pool)
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    if max_size < min_size:
        raise ValueError(f"max_size {max_size} is below min_size {min_size}")
    if len(pool) < min_size:
        raise ValueError(f"pool of {len(pool)} cannot satisfy min_size {min_size}")
    max_size = min(max_size, len(pool))

    order = sorted(range(len(pool)), key=lambda i: pool.ids[i])
    ids = [pool.ids[i] for i in order]
    # Row s - 1 is subset s as a bitmask: bit j set when member j is in it.
    membership = (np.arange(1, 2 ** len(ids))[:, None] >> np.arange(len(ids))) & 1
    sizes = membership.sum(axis=1)
    keep = (sizes >= min_size) & (sizes <= max_size)
    membership, sizes = membership[keep].astype(np.float64), sizes[keep]
    per_pair: dict[PairID, SelectionEntry] = {}
    for pair in pool.pairs:
        if pair not in dev_gold:
            raise ValueError(f"no dev gold for pair {pair}")
        ref = pool.reference["dev"][pair]
        gold_rows = align_columns(_columns(dev_gold[pair], f"dev gold {pair}"),
                                  ref)
        if not ref.keys:
            raise ValueError(f"no dev instances for pair {pair}")
        tensor = pool.tensors["dev"][pair][order]   # members sorted by id
        gold = np.array(gold_rows, dtype=np.float64)

        errors = (tensor - gold).reshape(len(ids), -1)
        gram = errors @ errors.T
        n = len(ref.keys)
        mse = ((membership @ gram) * membership).sum(axis=1) / (n * sizes ** 2)
        if not np.isfinite(mse).all():   # inf, or inf * 0 = nan: no argmin
            worst = order[int(np.argmax(gram.diagonal()))]
            raise ParseError(f"{pool.sources['dev'][pair][worst]}: pair {pair}: "
                             f"squared dev error passes the float range")
        # Gram scores round at the scale of the errors, direct averaging at
        # the scale of the values themselves; the tolerance covers both with
        # a wide margin, so the direct-path argmin is always re-scored.
        worst = np.sqrt(gram.diagonal().max() / n)
        scale = max(np.abs(tensor).max(), np.abs(gold).max())
        tol = 1e-9 * worst * (worst + scale)
        best = min(
            (rmse_va(tensor[rows].mean(axis=0).tolist(), gold_rows), len(rows),
             tuple(ids[j] for j in rows))
            for rows in map(np.flatnonzero, membership[mse <= mse.min() + tol]))
        per_pair[pair] = SelectionEntry(subset=best[2], dev_rmse=best[0],
                                        n_scored=len(membership))
    return EnsembleSelection(per_pair=per_pair, member_ids=pool.ids)


# An average that passes the float range raises naming the pair, the record
# and the members' files; numpy's own warning would say less.
@np.errstate(over="ignore", invalid="ignore")
def apply(selection: EnsembleSelection, pool: CandidatePool,
          split: str) -> dict[PairID, list[tuple[float, float]]]:
    """Average each pair's selected members on the requested split:
    (valence, arousal) rows that follow `pool.reference[split][pair].keys`."""
    if split not in ("dev", "test"):
        raise ValueError(f"split must be 'dev' or 'test', got {split!r}")
    ids = pool.ids
    out: dict[PairID, list[tuple[float, float]]] = {}
    for pair, entry in selection.per_pair.items():
        if not entry.subset:
            raise ValueError(f"cannot average an empty subset for pair {pair}")
        if pair not in pool.tensors[split]:
            raise ValueError(f"some member has no {split} predictions for "
                             f"pair {pair}")
        rows = [ids.index(mid) for mid in entry.subset]   # names an unknown id
        average = pool.tensors[split][pair][rows].mean(axis=0)
        bad = np.flatnonzero(~np.isfinite(average).all(axis=1))
        if bad.size:
            key = pool.reference[split][pair].keys[bad[0]]
            files = ", ".join(pool.sources[split][pair][j] for j in rows)
            raise ParseError(f"pair {pair}: record {bad[0]} {key}: the average of "
                             f"{files} passes the float range")
        out[pair] = list(map(tuple, average.tolist()))
    return out
