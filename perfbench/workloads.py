"""Seeded inputs for the stage-chain benchmark.

Everything here is a pure function of (parameters, seed): the same seed
writes the same bytes.  Raw corpora use the README wire format (one JSON
array per `<lang>-<dom>.json`, records with ID / Text / Quadruplets).  Member
prediction sets for the ensemble workload use the `<member>/<pair>.json`
layout that `dimasr predict` writes, and their gold side uses the instance
layout that `dimasr preprocess` writes.

Record lengths and aspect counts are stratified: each value of the allowed
range occurs equally often and the seed only chooses the order.  Token
content, latent scores and gold values still come from the seed, but the
amount of work per pass does not, so run-to-run spread measures the program
and not the luck of the draw.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

PAIRS = ("eng-res", "eng-lap", "jpn-hot", "jpn-fin", "rus-res",
         "tat-res", "ukr-res", "zho-res", "zho-lap", "zho-fin")
SPLITS = ("train", "dev", "test")

# Default toy encoder: 128 positions, bert-style template = 3 special tokens.
MAX_LEN = 128
TEMPLATE_OVERHEAD = 3

# Aspect lexicon: ASPECTS words drawn from vocabulary ranks ASPECT_RANKS,
# a range every corpus's vocabulary holds.
ASPECTS = 12
ASPECT_RANKS = (1_000, 20_000)

_SYLLABLES = [c + v for c in "bcdfghjklmnprstvz" for v in "aeiou"]


def vocabulary(size: int) -> list[str]:
    """`size` distinct letter-only words, each one token for the tokenizer.

    Word i spells i + 85 in base 85 with one syllable per digit, so every
    word has at least two syllables and no two words collide.
    """
    base = len(_SYLLABLES)
    words = []
    for i in range(size):
        n, parts = i + base, []
        while n:
            n, r = divmod(n, base)
            parts.append(_SYLLABLES[r])
        words.append("".join(parts))
    return words


def stratified(rng: np.random.Generator, n: int, lo: int, hi: int) -> np.ndarray:
    """n integers covering lo..hi evenly, in seeded order."""
    return rng.permutation(lo + (np.arange(n) * (hi - lo + 1)) // n)


def _normal_quantiles(n: int) -> np.ndarray:
    """n evenly spaced standard-normal quantiles."""
    normal = NormalDist()
    return np.array([normal.inv_cdf((i + 0.5) / n) for i in range(n)])


class _WordSampler:
    """Zipf(zipf) draws over one seeded rank order.

    The `stopwords` most frequent ranks carry no sentiment, as with function
    words in real reviews.
    """

    def __init__(self, rng: np.random.Generator, vocab_size: int, zipf: float,
                 stopwords: int = 100):
        self.rng, self.vocab_size = rng, vocab_size
        self.order = rng.permutation(vocab_size)
        weights = np.arange(1, vocab_size + 1, dtype=np.float64) ** -zipf
        self.cdf = np.cumsum(weights) / weights.sum()
        self.stop = set(self.order[:stopwords].tolist())

    def draw(self, count: int) -> np.ndarray:
        ranks = np.searchsorted(self.cdf, self.rng.random(count))
        return self.order[np.minimum(ranks, self.vocab_size - 1)]


def _va(score: float) -> str:
    return f"{min(9.0, max(1.0, score)):.2f}"


@dataclass(frozen=True)
class CorpusShape:
    """Per-pair record counts and text statistics of a raw corpus."""

    train: int
    dev: int
    test: int
    vocab_size: int
    zipf: float                      # Zipf exponent of word frequencies
    tokens: tuple[int, int]          # words per text, inclusive
    aspects: tuple[int, int]         # aspects per record, inclusive
    null_share: float = 0.1          # records carrying an implicit NULL aspect


@dataclass
class Inputs:
    """What the checks need to know about the generated inputs."""

    gold: dict[str, dict[str, dict[tuple, tuple]]] = field(default_factory=dict)
    keys: dict[str, dict[str, list[tuple]]] = field(default_factory=dict)
    properties: dict[str, float] = field(default_factory=dict)


def write_corpus(shape: CorpusShape, seed: int, root: Path) -> Inputs:
    """Write raw/<split>/<pair>.json under root for every split with records.

    Gold VA is mostly learnable.  Every aspect comes from one fixed lexicon
    of ASPECTS words, each with its own latent scores z_aspect; the lexicon
    and its scores are the same for every seed and corpus, as a language's
    aspect words are.  Each aspect word also appears in its record's text.
    Valence is

        5 + 2.5 tanh(1.5 z_aspect + 0.2 mean z_text + 0.1 q),

    arousal likewise with its own latents; z_text are seeded per-word scores
    and q is the instance's own opinion strength, which nothing in the text
    carries.  A model that learns the aspect scores beats a constant
    predictor clearly; one that learns nothing does not.  The z_aspect are
    evenly spaced normal quantiles, and the q of a pair's instances too, in
    seeded order, so the spread of gold scores hardly depends on the seed.
    """
    rng = np.random.default_rng([seed, *b"corpus"])
    lexicon = np.random.default_rng(list(b"aspects"))
    words = vocabulary(shape.vocab_size)
    sampler = _WordSampler(rng, shape.vocab_size, shape.zipf)
    latent = rng.normal(size=(2, shape.vocab_size))
    latent[:, list(sampler.stop)] = 0.0
    aspect_ids = lexicon.choice(np.arange(*ASPECT_RANKS), ASPECTS, replace=False)
    aspect_z = np.stack([lexicon.permutation(_normal_quantiles(ASPECTS))
                         for _ in range(2)])
    inputs = Inputs()
    text_uses: Counter[str] = Counter()
    seen_tokens: set[int] = set()
    n_truncated = n_instances = 0

    for split in SPLITS:
        n = getattr(shape, split)
        if not n:
            continue
        with_gold = split != "test"
        inputs.gold[split], inputs.keys[split] = {}, {}
        out_dir = root / "raw" / split
        out_dir.mkdir(parents=True, exist_ok=True)
        for pair in PAIRS:
            lengths = stratified(rng, n, *shape.tokens)
            n_aspects = stratified(rng, n, *shape.aspects)
            nulls = rng.permutation(np.arange(n) < round(shape.null_share * n))
            idx = sampler.draw(int(lengths.sum()))
            strength = np.stack([rng.permutation(_normal_quantiles(
                int(n_aspects.sum()))) for _ in range(2)], axis=1)
            rows, gold, keys = [], {}, []
            start = k = 0
            for i in range(n):
                toks = idx[start:start + lengths[i]].copy()
                start += lengths[i]
                chosen = rng.choice(ASPECTS, n_aspects[i], replace=False)
                toks[rng.choice(toks.size, chosen.size, replace=False)] = \
                    aspect_ids[chosen]
                text = " ".join(words[t] for t in toks)
                text_mean = latent[:, toks].mean(axis=1)
                seen_tokens.update(np.unique(toks).tolist())
                rid = f"{pair}-{split}-{i:05d}"
                quads = []
                for a in chosen:
                    z = np.tanh(1.5 * aspect_z[:, a] + 0.2 * text_mean
                                + 0.1 * strength[k])
                    v, ar = (_va(5 + 2.5 * z[j]) for j in (0, 1))
                    k += 1
                    aspect = words[aspect_ids[a]]
                    quad = {"Aspect": aspect, "Category": "GEN#GENERAL",
                            "Opinion": words[toks[0]]}
                    if with_gold:
                        quad["VA"] = f"{v}#{ar}"
                    quads.append(quad)
                    gold[(rid, aspect)] = (float(v), float(ar))
                    keys.append((rid, aspect))
                    text_uses[text] += 1
                    n_instances += 1
                    n_truncated += toks.size > MAX_LEN - TEMPLATE_OVERHEAD - 1
                if nulls[i]:
                    quad = {"Aspect": "NULL", "Category": "GEN#GENERAL",
                            "Opinion": "implicit"}
                    if with_gold:
                        quad["VA"] = "5.00#5.00"
                    quads.append(quad)
                rows.append({"ID": rid, "Text": text, "Quadruplets": quads})
            (out_dir / f"{pair}.json").write_text(
                json.dumps(rows, ensure_ascii=False), encoding="utf-8")
            inputs.gold[split][pair] = gold
            inputs.keys[split][pair] = keys

    inputs.properties = {
        **{f"instances.{s}": sum(map(len, inputs.keys[s].values()))
           for s in inputs.keys},
        "shared_text_share": sum(c for c in text_uses.values() if c > 1)
        / n_instances,
        "distinct_tokens": len(seen_tokens),
        "truncated_share": n_truncated / n_instances,
    }
    return inputs


@dataclass(frozen=True)
class MemberShape:
    """A pool of externally produced member predictions per pair."""

    members: int
    dev: int
    test: int


def write_members(shape: MemberShape, seed: int, root: Path) -> Inputs:
    """Write gold/dev (instance layout) and members/<split>/<member>/<pair>.json.

    Each member's error on a pair is a per-pair bias plus per-pair-scaled
    noise, half shared across members and half its own, so different pairs
    select different subsets.
    """
    rng = np.random.default_rng([seed, *b"members"])
    member_ids = [f"M{m + 1:02d}" for m in range(shape.members)]
    inputs = Inputs(gold={"dev": {}}, keys={"dev": {}, "test": {}})
    # Stratified member quality: the same spread of biases and noise levels
    # on every pair, assigned to members in a seeded order.
    biases = 0.4 * _normal_quantiles(shape.members)
    sds = 0.4 + 1.2 * (np.arange(shape.members) + 0.5) / shape.members
    for pair in PAIRS:
        bias = np.stack([rng.permutation(biases), rng.permutation(biases)],
                        axis=1)[:, None, :]
        sd = rng.permutation(sds)[:, None, None]
        for split in ("dev", "test"):
            n = getattr(shape, split)
            ids = [f"{pair}-{split}-{i:05d}" for i in range(n)]
            aspects = [f"aspect{i % 7}" for i in range(n)]
            gold = np.round(np.clip(5.0 + 1.5 * np.stack(
                [rng.permutation(_normal_quantiles(n)) for _ in range(2)],
                axis=1), 1, 9), 2)
            shared = rng.normal(size=(1, n, 2))
            own = rng.normal(size=(shape.members, n, 2))
            preds = gold + bias + sd * (0.6 * shared + 0.8 * own)
            keys = list(zip(ids, aspects))
            inputs.keys[split][pair] = keys
            if split == "dev":
                inputs.gold["dev"][pair] = {k: (float(v), float(a))
                                            for k, (v, a) in zip(keys, gold)}
                rows = [{"ID": i, "Text": f"text of {i}", "Aspect": a,
                         "Pair": pair, "VA": f"{float(v)!r}#{float(ar)!r}"}
                        for (i, a), (v, ar) in zip(keys, gold)]
                _write(root / "gold" / "dev" / f"{pair}.json", rows)
            for mid, member in zip(member_ids, preds):
                rows = [{"ID": i, "Aspect": a,
                         "VA": f"{float(v)!r}#{float(ar)!r}"}
                        for (i, a), (v, ar) in zip(keys, member)]
                _write(root / "members" / split / mid / f"{pair}.json", rows)
    inputs.properties = {"members": shape.members,
                         "instances.dev": shape.dev * len(PAIRS),
                         "instances.test": shape.test * len(PAIRS)}
    return inputs


def _write(path: Path, rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rows, ensure_ascii=False), encoding="utf-8")
