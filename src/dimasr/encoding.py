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
non-pad token id t deterministically owns a feature vector v(t) drawn
uniform(-1, 1)^d from a generator seeded with (seed, t), numpy's
default_rng([seed, t]).uniform(-1.0, 1.0, d), and the embedding of a
sequence is the positionally weighted mean

    embed(tokens) = sum_p w_p * v(tokens[p]) / max(1, #non-pad),  w_p = 1/(1+p)

over non-pad positions p (0-based).  An all-padding sequence embeds to the
zero vector.  A trainable square projection may sit atop these frozen
features so the training loop has encoder-side gradients.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, asdict
from functools import cache, lru_cache
from itertools import islice

import numpy as np

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

    backend: str = BACKEND_TOY
    template: str = TEMPLATE_BERT
    max_len: int = 128
    hidden_size: int = 32
    vocab_size: int = 50000
    seed: int = 0
    trainable_layer: bool = True
    model_name: str | None = None   # pretrained backend only

    def __post_init__(self):
        for name in ("max_len", "hidden_size", "vocab_size", "seed"):
            if type(getattr(self, name)) is not int:
                raise EncodingError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.backend not in BACKENDS:
            raise EncodingError(f"unknown backend: {self.backend!r}")
        if self.template not in TEMPLATES:
            raise EncodingError(f"unknown template: {self.template!r}")
        if self.max_len < 8:
            raise EncodingError(f"max_len must be >= 8, got {self.max_len}")
        if self.hidden_size <= 0:
            raise EncodingError(f"hidden_size must be positive, got {self.hidden_size}")
        if self.vocab_size <= N_RESERVED:
            raise EncodingError(f"vocab_size must exceed {N_RESERVED}")
        if self.seed < 0:
            raise EncodingError(f"seed must be non-negative, got {self.seed}")
        if self.backend == BACKEND_PRETRAINED and not self.model_name:
            raise EncodingError(f"backend {BACKEND_PRETRAINED!r} needs model_name")

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


# Kept only for perfbench/tracer.py, which reads its cache_info(); the
# encoder draws through _token_table.
@lru_cache(maxsize=200_000)
def _cached_token_vector(tok: int, d: int, seed: int) -> np.ndarray:
    """The fixed uniform(-1,1)^d feature vector owned by a non-pad token id."""
    vec = np.random.default_rng([seed, tok]).uniform(-1.0, 1.0, d)
    vec.flags.writeable = False
    return vec


# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64 (pcg64.h).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341


def _uint32_words(n: int) -> list[int]:
    """A non-negative int as SeedSequence splits it: 32-bit words, low first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays.  Its running constant
    advances once per call, the same for every row."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ r >> np.uint32(16)


def _seed_state(ids: np.ndarray, seed: int) -> list[np.ndarray]:
    """SeedSequence([seed, id]).generate_state(4, uint64) for each id, as
    four uint64 arrays."""
    n = len(ids)
    seed_words = [np.full(n, w, dtype=np.uint32) for w in _uint32_words(seed)]
    id_hi = (ids >> np.uint64(32)).astype(np.uint32)
    entropy = seed_words + [ids.astype(np.uint32), id_hi]
    length = len(seed_words) + np.where(id_hi != 0, 2, 1)
    hashmix = _hasher(_INIT_A, _MULT_A)
    # A missing entropy word hashes as 0, as does an id's zero high word.
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(n, np.uint32))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        live = length > src
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(live, _mix(pool[dst], hashmix(entropy[src])),
                                 pool[dst])
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return [state[i] | state[i + 1] << np.uint64(32) for i in range(0, 8, 2)]


def _add128(a_hi, a_lo, b_hi, b_lo):
    """a + b mod 2**128 on (hi, lo) uint64 arrays."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """One step of PCG64's 128-bit LCG, state * mult + inc mod 2**128, on
    (hi, lo) uint64 arrays."""
    m32, s32 = np.uint64(_MASK32), np.uint64(32)
    mult_lo = np.uint64(_PCG_MULT_LO)
    m0, m1 = np.uint64(_PCG_MULT_LO & _MASK32), np.uint64(_PCG_MULT_LO >> 32)
    # High 64 bits of lo * mult_lo, in 32-bit limbs.
    l0, l1 = lo & m32, lo >> s32
    t = l1 * m0 + (l0 * m0 >> s32)
    w = l0 * m1 + (t & m32)
    carry_hi = l1 * m1 + (t >> s32) + (w >> s32)
    hi = carry_hi + lo * np.uint64(_PCG_MULT_HI) + hi * mult_lo
    return _add128(hi, lo * mult_lo, inc_hi, inc_lo)


def _token_table(ids, d: int, seed: int) -> np.ndarray:
    """Row i is default_rng([seed, ids[i]]).uniform(-1.0, 1.0, d), bit for
    bit, for every id at once."""
    ids = np.asarray(ids, dtype=np.uint64)
    s_hi, s_lo, i_hi, i_lo = _seed_state(ids, seed)
    # PCG64 seeding: inc = (i << 1) | 1; state = inc + s, stepped twice in all.
    inc_hi = i_hi << np.uint64(1) | i_lo >> np.uint64(63)
    inc_lo = i_lo << np.uint64(1) | np.uint64(1)
    hi, lo = _pcg64_step(*_add128(inc_hi, inc_lo, s_hi, s_lo), inc_hi, inc_lo)
    raw = np.empty((len(ids), d), dtype=np.uint64)
    for k in range(d):
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output: rotate hi ^ lo right by the top 6 bits of hi.
        x, rot = hi ^ lo, hi >> np.uint64(58)
        raw[:, k] = x >> rot | x << (np.uint64(64) - rot & np.uint64(63))
    return -1.0 + 2.0 * ((raw >> np.uint64(11)) * 2.0 ** -53)


def _toy_rows(rows, n: int, d: int, seed: int) -> np.ndarray:
    """The toy encoding rule (module docstring) on an iterator of `n` id
    sequences, _CHUNK_ROWS at a time.  Each position adds to the rows with a
    token there, in position order: bit-identical to a loop over each row."""
    if d < 2:
        raise EncodingError(f"toy encoder needs d >= 2, got {d}")
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
    if projection.shape != (d, d):
        raise EncodingError(
            f"projection shape {projection.shape} does not match hidden size {d}")
    return feats @ projection.T


def init_projection(d: int) -> np.ndarray:
    # Identity start: initial embeddings equal the frozen features.
    return np.eye(d)


def pair_features(pairs: list[tuple[str, str]], spec: EncoderSpec) -> np.ndarray:
    """Frozen (n, d) base features for (aspect, text) pairs, either backend.

    This is the uniform contract the trainer consumes; any trainable
    projection is applied downstream, not here.  Callers encode each
    instance set once per spec and share the result (`trainer.train_grid`,
    `dimasr predict`), so the pretrained backend loads its model once per
    set.
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
