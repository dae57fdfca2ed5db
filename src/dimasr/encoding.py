"""Sentence-pair encoding: templates, truncation, and encoder backends.

An (aspect, text) pair is rendered into a fixed-length token sequence using
the backbone's template, then encoded into one d-dimensional vector per pair
(the hidden state at the first special token).  Two backends satisfy the same
contract:

  toy-deterministic      self-contained hash-projection encoder for tests and
                         desk-scale runs (no pretrained weights needed);
  pretrained-multilingual  optional plug-in around a HuggingFace encoder, see
                         hf_backend (never required by the core test suite).

Toy encoding rule
-----------------
Tokens are produced by whitespace/punctuation splitting; each surface token
maps to an id via a seeded BLAKE2 hash into [3, vocab_size).  Ids 0/1/2 are
reserved for padding, the leading special token, and the separator.  Every
non-pad token id t deterministically owns a feature vector v(t) in
[-1, 1)^d, -1 + 2 * draw((seed, TOKENS, t), (d,)): d uniform doubles from the
keyed SplitMix64 draw below, which all of dimasr's randomness but the
validation split comes from.  The embedding of a sequence is the weighted mean

    embed(tokens) = sum_p w_p * v(tokens[p]) / max(1, #non-pad),  w_p = 1/(1+p)

over non-pad positions p (0-based).  An all-padding sequence embeds to the
zero vector.  A trainable square projection may sit atop these frozen
features so the training loop has encoder-side gradients.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, asdict, field
from functools import cache, lru_cache
from itertools import islice

import numpy as np

from .corpus import check_fields

PAD_ID = 0
FIRST_SPECIAL_ID = 1   # [CLS] / <s>
SEP_ID = 2             # [SEP] / </s>
N_RESERVED = 3

TEMPLATE_BERT = "bert-style"
TEMPLATE_ROBERTA = "roberta-style"
TEMPLATES = (TEMPLATE_BERT, TEMPLATE_ROBERTA)

BACKEND_TOY = "toy-deterministic"
BACKEND_PRETRAINED = "pretrained-multilingual"
BACKENDS = (BACKEND_TOY, BACKEND_PRETRAINED)

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)
_CHUNK_ROWS = 1024   # rows per toy-encoder id matrix: its memory stays flat in n


class EncodingError(ValueError):
    pass


@dataclass(frozen=True)
class EncoderSpec:
    """Backend selection plus the shape contract every embedding honors."""

    backend: str = field(default=BACKEND_TOY, metadata={"choices": BACKENDS})
    template: str = field(default=TEMPLATE_BERT, metadata={"choices": TEMPLATES})
    max_len: int = field(default=128, metadata={"min": 8})
    hidden_size: int = field(default=32, metadata={"min": 1})
    vocab_size: int = field(default=50000, metadata={"min": N_RESERVED + 1})
    seed: int = field(default=0, metadata={"min": 0})
    trainable_layer: bool = True
    model_name: str | None = None   # pretrained backend only

    def __post_init__(self):
        check_fields(self, EncodingError)
        if self.backend == BACKEND_PRETRAINED and not self.model_name:
            raise EncodingError(f"backend {BACKEND_PRETRAINED!r} needs model_name")
        if self.backend != BACKEND_PRETRAINED and self.model_name is not None:
            raise EncodingError(f"model_name must be None off backend "
                                f"{BACKEND_PRETRAINED!r}, got {self.model_name!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SentencePairInput:
    """A template-formatted token sequence of length exactly max_len."""

    tokens: tuple[int, ...]


def token_id(token: str, spec: EncoderSpec) -> int:
    """Seeded stable hash of a surface token into [N_RESERVED, vocab_size)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8,
                             key=str(spec.seed).encode("utf-8")).digest()
    return N_RESERVED + int.from_bytes(digest, "little") % (spec.vocab_size - N_RESERVED)


def tokenize(text: str, spec: EncoderSpec) -> list[int]:
    return [token_id(tok, spec) for tok in _TOKEN_RE.findall(text)]


def format_pair(aspect: str, text: str, spec: EncoderSpec) -> SentencePairInput:
    """Render an (aspect, text) pair per the template; see `_template`."""
    return SentencePairInput(tokens=tuple(
        _template(tokenize(aspect, spec), tokenize(text, spec), spec)))


def _template(aspect_ids: list[int], text_ids: list[int], spec: EncoderSpec) -> list[int]:
    """The token ids of a pair per the template, truncated/padded to max_len.

    bert-style:    [CLS] aspect [SEP] text [SEP]
    roberta-style: <s> aspect </s></s> text </s>

    Truncation removes text from the tail only; the aspect is never cut, and
    a blank aspect (no token) or one over max_len - 4 tokens is rejected.
    """
    if not aspect_ids:
        raise EncodingError("aspect must be a nonempty string")
    if len(aspect_ids) > spec.max_len - 4:
        raise EncodingError(
            f"aspect spans {len(aspect_ids)} tokens; limit is max_len - 4 "
            f"= {spec.max_len - 4} so it survives truncation intact")

    overhead = 3 if spec.template == TEMPLATE_BERT else 4
    budget = spec.max_len - overhead - len(aspect_ids)
    text_ids = text_ids[:max(0, budget)]

    if spec.template == TEMPLATE_BERT:
        seq = [FIRST_SPECIAL_ID, *aspect_ids, SEP_ID, *text_ids, SEP_ID]
    else:
        seq = [FIRST_SPECIAL_ID, *aspect_ids, SEP_ID, SEP_ID, *text_ids, SEP_ID]
    seq.extend([PAD_ID] * (spec.max_len - len(seq)))
    return seq


# The purpose word after the seed in each key: no two kinds of draw share a stream.
TOKENS, HEAD, ORDER, DROPOUT = range(4)
_MASK64 = 2**64 - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)   # SplitMix64's increment


def _mix(z):
    """SplitMix64's finalizer, on an int below 2**64 or a uint64 array."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


def draw(key: tuple, shape) -> np.ndarray:
    """Uniform [0, 1) doubles with 53 random bits, a pure function of `key`:
    element i, in C order, is the i-th SplitMix64 output of a stream whose
    state is the key's words folded as state = mix(state ^ word) from the
    increment (0 is a fixed point of mix).  An int below 2**64 is one word;
    a wider one its word count, then its 64-bit words low first.  The last
    word may be an array of m ints below 2**64, one stream each, with
    `shape` (m, width)."""
    *words, ids = key if isinstance(key[-1], np.ndarray) else (*key, None)
    state = int(_GOLDEN)
    for word in words:
        parts = [word >> at & _MASK64 for at in range(0, max(1, word.bit_length()), 64)]
        for part in parts if len(parts) == 1 else (len(parts), *parts):
            state = _mix(state ^ part)
    if ids is None:
        state, width = np.array([state], dtype=np.uint64), math.prod(shape)
    else:
        state, width = _mix(ids.astype(np.uint64) ^ np.uint64(state)), shape[-1]
    raw = _mix(state[:, None] + np.arange(1, width + 1, dtype=np.uint64) * _GOLDEN)
    return ((raw >> np.uint64(11)) * 2.0 ** -53).reshape(shape)


def _token_table(ids: np.ndarray, d: int, seed: int) -> np.ndarray:
    """Row i is the uniform [-1, 1)^d feature vector of token id ids[i]."""
    return -1.0 + 2.0 * draw((seed, TOKENS, ids), (len(ids), d))


@lru_cache(maxsize=200_000)
def _cached_token_vector(tok: int, d: int, seed: int) -> np.ndarray:
    """Kept only for perfbench/tracer.py, which reads its cache_info(); read-only, shared."""
    return np.frombuffer(_token_table(np.array([tok]), d, seed).tobytes())


def _toy_rows(rows, n: int, d: int, seed: int) -> np.ndarray:
    """The toy encoding rule (module docstring) on an iterator of `n` id
    sequences, _CHUNK_ROWS at a time.  Each position adds to the rows with a
    token there, in position order: bit-identical to a loop over each row."""
    out = np.zeros((n, d))
    for start in range(0, n, _CHUNK_ROWS):
        ids = np.array(list(islice(rows, _CHUNK_ROWS)), dtype=np.int64)
        mask = ids != PAD_ID
        # Sort and drop repeats (no PAD_ID is left to repeat): np.unique
        # would import numpy.ma.
        distinct = np.sort(ids[mask])
        distinct = distinct[np.diff(distinct, prepend=PAD_ID) != 0]
        if distinct.size and distinct[0] < 0:   # _token_table reads ids as uint64
            raise EncodingError(f"token ids must be non-negative, got {distinct[0]}")
        table = _token_table(distinct, d, seed)
        index = np.searchsorted(distinct, ids)
        acc = out[start:start + len(ids)]
        for pos in np.flatnonzero(mask.any(axis=0)).tolist():
            at = np.flatnonzero(mask[:, pos])
            acc[at] += table[index[at, pos]] / (1.0 + pos)
        acc /= np.maximum(1, mask.sum(axis=1))[:, None]
    return out


def toy_encode(pair_input: SentencePairInput, d: int, seed: int) -> np.ndarray:
    """Apply the toy encoding rule (module docstring) to one sequence."""
    return _toy_rows(iter([pair_input.tokens]), 1, d, seed)[0]


def apply_projection(feats: np.ndarray, projection: np.ndarray | None) -> np.ndarray:
    if projection is None:
        return feats
    d = feats.shape[-1]
    if projection.shape[-2:] != (d, d):   # (d, d), or (k, d, d) stacked
        raise EncodingError(
            f"projection shape {projection.shape} does not match hidden size {d}")
    return feats @ projection.swapaxes(-1, -2)


def init_projection(d: int) -> np.ndarray:
    # Identity start: initial embeddings equal the frozen features.
    return np.eye(d)


def pair_features(pairs: list[tuple[str, str]], spec: EncoderSpec) -> np.ndarray:
    """Frozen (n, d) base features for (aspect, text) pairs, either backend.

    This is the uniform contract the trainer consumes; any trainable
    projection is applied downstream, not here.  Callers encode each
    instance set once per spec and share the result: `trainer.train_grid`
    its training and validation sets, `dimasr predict` all its pairs'
    instances in one call, so the pretrained backend loads its model once
    per set.
    """
    if spec.backend == BACKEND_TOY:
        # Hash and tokenize once per distinct token and text: texts recur per aspect.
        hashed = cache(lambda tok: token_id(tok, spec))
        ids = cache(lambda s: [hashed(tok) for tok in _TOKEN_RE.findall(s)])
        return _toy_rows((_template(ids(a), ids(t), spec) for a, t in pairs),
                         len(pairs), spec.hidden_size, spec.seed)
    from .hf_backend import PretrainedEncoder
    return PretrainedEncoder(spec).encode_pairs(pairs)


def instance_features(instances, spec: EncoderSpec) -> np.ndarray:
    return pair_features([(inst.aspect, inst.text) for inst in instances], spec)
