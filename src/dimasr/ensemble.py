"""Per-pair adaptive ensembling by exhaustive subset search.

Every candidate checkpoint contributes dev-set (and test-set) predictions for
every pair.  For each pair independently, all member subsets of size
min_size..max_size are scored by the dev RMSE of their element-wise averaged
predictions, and the minimizer wins; ties go to the smaller subset, then to
the lexicographically smallest id tuple, which makes the argmin unique and
the search order-independent.  Test predictions play no role in the search
and are only read when a selection is applied.

The search stays exact and exhaustive but does not average every subset.
With e_m member m's (n, 2) dev error and G_ij = sum(e_i * e_j) the pair's
Gram matrix, the MSE of subset S's average is sum_{i,j in S} G_ij / (n |S|^2),
so one matrix product scores every subset at once.  Gram scores round
differently from direct averaging, so every subset within a tolerance of the
Gram minimum is re-scored directly, and the reported RMSE and the argmin come
from that direct path alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .corpus import PairID, VAScore, pair_sort_key
from .metrics import Prediction, rmse_va, va_array

MAX_POOL_SIZE = 12   # exhaustive search; beyond this the enumeration explodes


@dataclass
class Member:
    """One candidate model's predictions, keyed by pair and split."""

    id: str
    dev: dict[PairID, list[Prediction]]
    test: dict[PairID, list[Prediction]] = field(default_factory=dict)

    def predictions(self, pair: PairID, split: str) -> list[Prediction]:
        store = {"dev": self.dev, "test": self.test}.get(split)
        if store is None:
            raise ValueError(f"unknown split {split!r}")
        if pair not in store:
            raise ValueError(f"member {self.id} has no {split} predictions "
                             f"for pair {pair}")
        return store[pair]


def _keyed(preds: list[Prediction], who: str) -> dict[tuple, VAScore]:
    out = {}
    for p in preds:
        if p.key in out:
            raise ValueError(f"{who}: duplicate prediction key {p.key}")
        out[p.key] = p.va
    return out


class CandidatePool:
    """An ordered pool of 2..12 members covering the same pairs and instances.

    Dev-side alignment is checked up front; the test side is validated only
    when a selection is applied to it.
    """

    def __init__(self, members: list[Member]):
        if not 2 <= len(members) <= MAX_POOL_SIZE:
            raise ValueError(f"pool size must be in [2, {MAX_POOL_SIZE}], "
                             f"got {len(members)}")
        ids = [m.id for m in members]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate member ids: {ids}")
        first = members[0]
        pairs = set(first.dev)
        for m in members[1:]:
            if set(m.dev) != pairs:
                raise ValueError(f"member {m.id} covers pairs "
                                 f"{sorted(map(str, m.dev))}, expected "
                                 f"{sorted(map(str, pairs))}")
        for pair in pairs:
            keys = set(k.key for k in first.dev[pair])
            for m in members[1:]:
                if set(k.key for k in m.dev[pair]) != keys:
                    raise ValueError(f"member {m.id} is misaligned with "
                                     f"{first.id} on pair {pair}")
        self.members = list(members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def ids(self) -> list[str]:
        return [m.id for m in self.members]

    @property
    def pairs(self) -> list[PairID]:
        return sorted(self.members[0].dev, key=pair_sort_key)

    def by_id(self, member_id: str) -> Member:
        for m in self.members:
            if m.id == member_id:
                return m
        raise ValueError(f"no member {member_id!r} in pool {self.ids}")


def average_subset(members: list[Member], pair: PairID,
                   split: str = "dev") -> list[Prediction]:
    """Element-wise mean of the members' valence and arousal predictions.

    Output order follows the first member; all members must predict exactly
    the same (id, aspect) keys for the pair.
    """
    if not members:
        raise ValueError("cannot average an empty subset")
    base = members[0].predictions(pair, split)
    keys = [p.key for p in base]
    stacked = [va_array([p.va for p in base])]
    for m in members[1:]:
        keyed = _keyed(m.predictions(pair, split), m.id)
        if set(keyed) != set(keys):
            raise ValueError(f"member {m.id} is misaligned with {members[0].id} "
                             f"on pair {pair} ({split})")
        stacked.append(va_array([keyed[k] for k in keys]))
    mean = np.mean(stacked, axis=0)
    return [Prediction(id=k[0], aspect=k[1], va=VAScore(float(v), float(a)))
            for k, (v, a) in zip(keys, mean)]


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

    @classmethod
    def from_dict(cls, d: dict) -> "EnsembleSelection":
        per_pair = {
            PairID.parse(name): SelectionEntry(subset=tuple(e["subset"]),
                                               dev_rmse=e["dev_rmse"],
                                               n_scored=e["n_scored"])
            for name, e in d["per_pair"].items()
        }
        return cls(per_pair=per_pair, member_ids=list(d["member_ids"]))

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


def search(pool: CandidatePool, dev_gold: dict[PairID, list],
           min_size: int = 2, max_size: int | None = None) -> EnsembleSelection:
    """Exhaustively score every subset per pair and keep the dev-RMSE minimizer.

    dev_gold maps each pair to gold-carrying items (Instances or Predictions)
    aligned by (id, aspect).  Deterministic: minimization breaks ties by
    subset size, then by the sorted id tuple.
    """
    if max_size is None:
        max_size = len(pool)
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    if len(pool) < min_size:
        raise ValueError(f"pool of {len(pool)} cannot satisfy min_size {min_size}")
    max_size = min(max_size, len(pool))

    members = sorted(pool.members, key=lambda m: m.id)
    subsets = [subset for k in range(min_size, max_size + 1)
               for subset in combinations(range(len(members)), k)]
    membership = np.zeros((len(subsets), len(members)))
    for row, subset in enumerate(subsets):
        membership[row, list(subset)] = 1.0
    sizes = membership.sum(axis=1)
    per_pair: dict[PairID, SelectionEntry] = {}
    for pair in pool.pairs:
        if pair not in dev_gold:
            raise ValueError(f"no dev gold for pair {pair}")
        items = []
        for g in dev_gold[pair]:
            if not isinstance(g, Prediction):
                if g.gold is None:
                    raise ValueError(f"dev gold instance {g.key} has no VA")
                g = Prediction(id=g.id, aspect=g.aspect, va=g.gold)
            items.append(g)
        gold_keyed = _keyed(items, "dev gold")
        keys = [p.key for p in members[0].predictions(pair, "dev")]
        if set(keys) != set(gold_keyed):
            raise ValueError(f"dev gold is misaligned with the pool on pair {pair}")
        if not keys:
            raise ValueError(f"no dev instances for pair {pair}")
        gold_arr = va_array([gold_keyed[k] for k in keys])
        stacks = []
        for m in members:
            keyed = _keyed(m.predictions(pair, "dev"), m.id)
            stacks.append(va_array([keyed[k] for k in keys]))
        tensor = np.stack(stacks)   # (n_members, n_instances, 2)

        errors = (tensor - gold_arr).reshape(len(members), -1)
        gram = errors @ errors.T
        n = len(keys)
        mse = (np.einsum("sm,mk,sk->s", membership, gram, membership)
               / (n * sizes ** 2))
        # Gram scores round at the scale of the errors, direct averaging at
        # the scale of the values themselves; the tolerance covers both with
        # a wide margin, so the direct-path argmin is always re-scored.
        worst = np.sqrt(gram.diagonal().max() / n)
        scale = max(np.abs(tensor).max(), np.abs(gold_arr).max())
        tol = 1e-9 * worst * (worst + scale)
        best = min(
            (rmse_va(tensor[list(subsets[i])].mean(axis=0), gold_arr),
             len(subsets[i]), tuple(members[j].id for j in subsets[i]))
            for i in np.flatnonzero(mse <= mse.min() + tol))
        per_pair[pair] = SelectionEntry(subset=best[2], dev_rmse=best[0],
                                        n_scored=len(subsets))
    return EnsembleSelection(per_pair=per_pair, member_ids=pool.ids)


def apply(selection: EnsembleSelection, pool: CandidatePool,
          split: str) -> dict[PairID, list[Prediction]]:
    """Average each pair's selected members on the requested split."""
    if split not in ("dev", "test"):
        raise ValueError(f"split must be 'dev' or 'test', got {split!r}")
    out: dict[PairID, list[Prediction]] = {}
    for pair, entry in selection.per_pair.items():
        members = [pool.by_id(mid) for mid in entry.subset]
        out[pair] = average_subset(members, pair, split)
    return out
