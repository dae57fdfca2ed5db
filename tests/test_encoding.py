import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimasr import encoding
from dimasr.encoding import (
    DROPOUT,
    FIRST_SPECIAL_ID,
    HEAD,
    N_RESERVED,
    ORDER,
    PAD_ID,
    SEP_ID,
    TEMPLATE_BERT,
    TEMPLATE_ROBERTA,
    TOKENS,
    EncoderSpec,
    EncodingError,
    SentencePairInput,
    apply_projection,
    draw,
    format_pair,
    init_projection,
    instance_features,
    pair_features,
    token_id,
    tokenize,
    toy_encode,
)
from synth import WORDS, make_instances

SPEC = EncoderSpec(max_len=32, hidden_size=8)
RSPEC = EncoderSpec(template=TEMPLATE_ROBERTA, max_len=32, hidden_size=8)

MASK64 = 2**64 - 1


def splitmix64(key, n):
    """The first n uniform doubles of the keyed draw, as `draw` documents
    it, in plain int arithmetic: fold each key word through the finalizer
    from the increment (a wide one as its count of 64-bit words, then those
    words), then step the SplitMix64 stream."""
    def mix(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
        return z ^ (z >> 31)
    state = 0x9E3779B97F4A7C15
    for word in key:
        parts = [word & MASK64]
        while word := word >> 64:
            parts.append(word & MASK64)
        for part in parts if len(parts) == 1 else [len(parts)] + parts:
            state = mix(state ^ part)
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        out.append((mix(state) >> 11) / 2**53)
    return out


def token_vector(seed, tok, d):
    """The toy rule's feature vector of token id `tok`."""
    return -1.0 + 2.0 * np.array(splitmix64((seed, TOKENS, tok), d))


def rand_words(rng, lo, hi):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


def assert_template_layout(out, aspect, text, spec):
    """out is first special, the whole aspect, one separator (two for
    roberta-style), the longest text prefix that fits, a separator, padding."""
    aspect_ids, text_ids = tokenize(aspect, spec), tokenize(text, spec)
    toks = list(out.tokens)
    seps = 1 if spec.template == TEMPLATE_BERT else 2
    start = 1 + len(aspect_ids) + seps
    n_text = min(len(text_ids), spec.max_len - start - 1)
    assert toks[:start] == [FIRST_SPECIAL_ID, *aspect_ids] + [SEP_ID] * seps
    end = start + n_text
    assert toks[start:end] == text_ids[:n_text]
    assert toks[end:] == [SEP_ID] + [PAD_ID] * (spec.max_len - end - 1)


class TestSpec:
    def test_defaults(self):
        spec = EncoderSpec()
        assert spec.max_len == 128 and spec.template == TEMPLATE_BERT

    @pytest.mark.parametrize("kwargs", [
        {"max_len": 4}, {"hidden_size": 0}, {"backend": "quantum"},
        {"template": "gpt"}, {"seed": -1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(EncodingError):
            EncoderSpec(**kwargs)

    def test_dict_round_trip(self):
        spec = EncoderSpec(max_len=64, hidden_size=16, seed=3)
        assert EncoderSpec(**spec.to_dict()) == spec


class TestTokenizer:
    def test_ids_in_word_range(self):
        ids = tokenize("great battery, bad 屏幕!", SPEC)
        assert all(N_RESERVED <= t < SPEC.vocab_size for t in ids)

    def test_deterministic_and_seed_sensitive(self):
        assert tokenize("the same text", SPEC) == tokenize("the same text", SPEC)
        other = EncoderSpec(max_len=32, hidden_size=8, seed=99)
        assert token_id("battery", SPEC) != token_id("battery", other)

    def test_punctuation_split(self):
        assert len(tokenize("good, bad.", SPEC)) == 4


class TestFormatPair:
    def test_bert_layout(self):
        out = format_pair("battery", "great battery life", SPEC)
        toks = list(out.tokens)
        assert toks[0] == FIRST_SPECIAL_ID
        first_sep = toks.index(SEP_ID)
        assert toks[1:first_sep] == tokenize("battery", SPEC)

    def test_roberta_doubles_separator(self):
        out = format_pair("battery", "great battery life", RSPEC)
        toks = list(out.tokens)
        first_sep = toks.index(SEP_ID)
        assert toks[first_sep + 1] == SEP_ID

    def test_long_text_truncates_to_max_len(self):
        text = " ".join(random.Random(0).choice(WORDS) for _ in range(500))
        spec = EncoderSpec(max_len=128, hidden_size=8)
        out = format_pair("battery", text, spec)
        assert len(out.tokens) == 128
        assert PAD_ID not in out.tokens

    def test_empty_text_padded(self):
        out = format_pair("battery", "", SPEC)
        assert len(out.tokens) == SPEC.max_len
        assert out.tokens[-1] == PAD_ID
        assert_template_layout(out, "battery", "", SPEC)

    def test_output_length_always_max_len(self):
        rng = random.Random(5)
        for spec in (SPEC, RSPEC):
            for _ in range(50):
                out = format_pair(rand_words(rng, 1, 3), rand_words(rng, 0, 60),
                                  spec)
                assert len(out.tokens) == spec.max_len

    def test_oversized_aspect_rejected(self):
        aspect = " ".join(random.Random(1).choice(WORDS) for _ in range(40))
        with pytest.raises(EncodingError, match="max_len - 4"):
            format_pair(aspect, "short text", SPEC)

    def test_empty_aspect_rejected(self):
        with pytest.raises(EncodingError):
            format_pair("", "text", SPEC)


class TestRoundTrip:
    @pytest.mark.parametrize("spec", [SPEC, RSPEC])
    def test_segments_recovered(self, spec):
        rng = random.Random(8)
        for _ in range(100):
            aspect = rand_words(rng, 1, 4)
            text = rand_words(rng, 0, 50)
            assert_template_layout(format_pair(aspect, text, spec), aspect, text,
                                   spec)

    @pytest.mark.parametrize("spec", [SPEC, RSPEC])
    def test_aspect_never_truncated(self, spec):
        rng = random.Random(9)
        for _ in range(100):
            aspect, text = rand_words(rng, 1, 6), rand_words(rng, 40, 80)
            assert_template_layout(format_pair(aspect, text, spec), aspect, text,
                                   spec)


class TestToyEncode:
    def test_deterministic(self):
        out = format_pair("battery", "great battery life", SPEC)
        a = toy_encode(out, 8, seed=0)
        b = toy_encode(out, 8, seed=0)
        np.testing.assert_array_equal(a, b)

    def test_all_padding_gives_zero(self):
        empty = SentencePairInput(tokens=(PAD_ID,) * 16)
        np.testing.assert_array_equal(toy_encode(empty, 8, 0), np.zeros(8))

    def test_single_token_scaled_by_position_weight(self):
        tok = token_id("battery", SPEC)
        for pos in (0, 3, 7):
            seq = [PAD_ID] * 16
            seq[pos] = tok
            got = toy_encode(SentencePairInput(tokens=tuple(seq)), 8, 0)
            expected = token_vector(0, tok, 8) / (1 + pos)
            np.testing.assert_allclose(got, expected, rtol=0, atol=0)

    def test_matches_independent_recomputation(self):
        # Re-derive the documented rule with explicit loops: seeded per-token
        # vectors, 1/(1+pos) weights, mean over non-pad positions.
        rng = random.Random(3)
        for _ in range(20):
            out = format_pair(rand_words(rng, 1, 3), rand_words(rng, 0, 20), SPEC)
            d, seed = 8, 4
            vecs = []
            for pos, tok in enumerate(out.tokens):
                if tok != PAD_ID:
                    v = token_vector(seed, tok, d)
                    vecs.append(v / (1.0 + pos))
            expected = np.sum(vecs, axis=0) / max(1, len(vecs))
            np.testing.assert_allclose(toy_encode(out, d, seed), expected,
                                       atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 5, 2**40])
    def test_width_one_equals_the_keyed_draw(self, seed):
        # EncoderSpec admits hidden_size 1; the kernel has no floor of its own.
        out = format_pair("battery", "great battery life", SPEC)
        tokens = [t for t in out.tokens if t != PAD_ID]
        expected = sum(token_vector(seed, t, 1) / (1.0 + pos)
                       for pos, t in enumerate(tokens)) / len(tokens)
        assert toy_encode(out, 1, seed).tobytes() == expected.tobytes()


def toy_rows(rows, d, seed):
    """The batched toy kernel on a list of id sequences."""
    return encoding._toy_rows(iter(rows), len(rows), d, seed)


class TestEncodeBatch:
    def batch(self, n=6, seed=2):
        rng = random.Random(seed)
        return [(rand_words(rng, 1, 2), rand_words(rng, 2, 20)) for _ in range(n)]

    def test_shape_and_order(self):
        pairs = self.batch()
        out = pair_features(pairs, SPEC)
        assert out.shape == (len(pairs), SPEC.hidden_size)
        for i, (aspect, text) in enumerate(pairs):
            np.testing.assert_array_equal(
                out[i], toy_encode(format_pair(aspect, text, SPEC), 8, SPEC.seed))

    def test_identical_inputs_identical_embeddings(self):
        pair = self.batch(1)[0]
        out = pair_features([pair, pair], SPEC)
        np.testing.assert_array_equal(out[0], out[1])

    def test_permutation_equivariant(self, rng):
        pairs = self.batch(8)
        perm = rng.permutation(8)
        a = pair_features(pairs, SPEC)[perm]
        b = pair_features([pairs[i] for i in perm], SPEC)
        np.testing.assert_array_equal(a, b)

    def test_projection_applied(self):
        feats = pair_features(self.batch(3), SPEC)
        proj = np.random.default_rng(0).normal(size=(8, 8))
        np.testing.assert_allclose(apply_projection(feats, proj), feats @ proj.T)

    def test_identity_projection_is_noop(self):
        feats = pair_features(self.batch(3), SPEC)
        np.testing.assert_array_equal(apply_projection(feats, init_projection(8)),
                                      feats)

    def test_projection_shape_mismatch_rejected(self):
        with pytest.raises(EncodingError, match="projection"):
            apply_projection(pair_features(self.batch(2), SPEC), np.zeros((4, 4)))

    def test_negative_token_id_rejected(self):
        bad = (FIRST_SPECIAL_ID, -5) + (PAD_ID,) * 30
        with pytest.raises(EncodingError, match="non-negative, got -5"):
            toy_rows([bad], 8, 0)

    def test_instance_features(self):
        instances = make_instances("zho-res", 5, seed=0)
        feats = instance_features(instances, SPEC)
        assert feats.shape == (5, 8)
        assert np.all(np.isfinite(feats))

    def test_apply_projection_none_passthrough(self):
        feats = np.ones((2, 8))
        assert apply_projection(feats, None) is feats


def loop_oracle(tokens, d, seed):
    """The toy rule as the per-row loop the batched encoder replaced, one
    token's vector at a time; the encoder's rows must equal it byte for
    byte."""
    acc = np.zeros(d)
    n = 0
    for pos, tok in enumerate(tokens):
        if tok == PAD_ID:
            continue
        acc += encoding._token_table(np.array([tok]), d, seed)[0] / (1.0 + pos)
        n += 1
    return acc / max(1, n)


def assert_rows_match_oracle(out, rows, d, seed):
    assert out.shape == (len(rows), d)
    for row, tokens in zip(out, rows):
        assert row.tobytes() == loop_oracle(tokens, d, seed).tobytes()


# Few distinct ids, so rows share tokens; PAD_ID anywhere, all-pad rows too.
ids = st.one_of(st.just(PAD_ID), st.integers(FIRST_SPECIAL_ID, 40))


class TestBatchedEncoderBitExact:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), max_len=st.integers(8, 24), d=st.integers(1, 40),
           seed=st.integers(0, 5))
    def test_id_rows(self, data, max_len, d, seed):
        rows = data.draw(st.lists(st.lists(ids, min_size=max_len,
                                           max_size=max_len), max_size=12))
        rows.append([PAD_ID] * max_len)
        assert_rows_match_oracle(toy_rows(rows, d, seed), rows, d, seed)

    @settings(max_examples=40, deadline=None)
    @given(pairs=st.lists(st.tuples(
               st.lists(st.sampled_from(WORDS), min_size=1, max_size=3),
               st.lists(st.sampled_from(WORDS), max_size=30)), min_size=1,
               max_size=10),
           template=st.sampled_from([TEMPLATE_BERT, TEMPLATE_ROBERTA]),
           max_len=st.integers(8, 24), d=st.integers(1, 40),
           seed=st.integers(0, 5))
    def test_templates_with_truncation(self, pairs, template, max_len, d, seed):
        pairs = [(" ".join(a), " ".join(t)) for a, t in pairs]
        spec = EncoderSpec(template=template, max_len=max_len, hidden_size=d,
                           seed=seed)
        rows = [format_pair(a, t, spec).tokens for a, t in pairs]
        assert_rows_match_oracle(pair_features(pairs, spec), rows, d, seed)

    def test_batch_crossing_chunk_boundary(self):
        rng = np.random.default_rng(11)
        n = encoding._CHUNK_ROWS + 5
        rows = rng.integers(0, 30, size=(n, 8))
        rows[rows < 3] = PAD_ID
        assert_rows_match_oracle(toy_rows(rows.tolist(), 5, 3), rows.tolist(), 5, 3)


class TestTokenTableBitExact:
    # Seeds of one to two 64-bit words; ids across 32 bits.
    SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 1]

    @settings(max_examples=80, deadline=None)
    @given(ids=st.lists(st.integers(N_RESERVED, 2**40), unique=True, max_size=40),
           d=st.integers(1, 64), seed=st.sampled_from(SEEDS))
    def test_rows_equal_the_keyed_stream_of_each_id(self, ids, d, seed):
        got = encoding._token_table(np.array(ids, dtype=np.int64), d, seed)
        assert got.shape == (len(ids), d)
        for row, tok in zip(got, ids):
            assert row.tobytes() == token_vector(seed, tok, d).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("ids", [[], [N_RESERVED], [2**32 - 1, 2**32, 2**40]])
    def test_edge_ids(self, ids, seed):
        got = encoding._token_table(np.array(ids, dtype=np.int64), 7, seed)
        assert got.shape == (len(ids), 7)
        expected = [-1.0 + 2.0 * draw((seed, TOKENS, tok), (7,)) for tok in ids]
        assert got.tobytes() == np.array(expected).reshape(len(ids), 7).tobytes()


words = st.integers(0, 2**130)
keys = st.lists(words, min_size=1, max_size=4).map(tuple)
shapes = st.lists(st.integers(0, 6), min_size=1, max_size=3).map(tuple)


class TestDraw:
    @settings(max_examples=80, deadline=None)
    @given(key=keys, shape=shapes)
    def test_equals_the_plain_int_stream(self, key, shape):
        got = draw(key, shape)
        assert got.shape == shape and got.dtype == np.float64
        assert got.ravel().tolist() == splitmix64(key, got.size)

    @settings(max_examples=80, deadline=None)
    @given(key=keys, shape=shapes)
    def test_values_in_unit_interval_on_a_53_bit_grid(self, key, shape):
        got = draw(key, shape)
        assert np.all((got >= 0.0) & (got < 1.0))
        assert np.array_equal(got * 2**53, np.floor(got * 2**53))

    @settings(max_examples=80, deadline=None)
    @given(a=keys, b=keys)
    def test_equal_keys_equal_values_different_keys_different_streams(self, a, b):
        assert draw(a, (8,)).tobytes() == draw(a, (8,)).tobytes()
        if a != b:
            assert draw(a, (8,)).tobytes() != draw(b, (8,)).tobytes()

    # A wide seed against its low word, and against narrow seeds that its
    # 64-bit words would fold as without their count.
    @pytest.mark.parametrize("seed, narrow", [(2**64 + 5, 5), (2**96 + 1, 1),
                                              (2**64, 1), (2**64, 0)])
    def test_wide_seed_draws_its_own_streams(self, seed, narrow):
        for purpose in range(4):
            for epoch in ((), (1,)):
                assert draw((seed, purpose, *epoch), (4,)).tobytes() != \
                    draw((narrow, purpose, *epoch), (4,)).tobytes()
        ids = np.arange(N_RESERVED, 40)
        assert not np.any(encoding._token_table(ids, 4, seed)
                          == encoding._token_table(ids, 4, narrow))

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_purposes_never_share_a_stream(self, seed):
        # Seed 0 too: the fold starts away from 0, which mix maps to itself.
        firsts = [draw((seed, HEAD), (1,))[0],
                  *draw((seed, TOKENS, np.arange(200)), (200, 1))[:, 0],
                  *[draw((seed, purpose, epoch), (1,))[0]
                    for purpose in (ORDER, DROPOUT) for epoch in range(1, 50)]]
        assert len(set(firsts)) == len(firsts)

    def test_each_id_of_an_array_draws_its_own_stream(self):
        ids = np.array([N_RESERVED, 7, 2**40, 2**63 + 9], dtype=np.uint64)
        got = draw((11, TOKENS, ids), (4, 5))
        for row, tok in zip(got, ids.tolist()):
            assert row.tobytes() == draw((11, TOKENS, tok), (5,)).tobytes()
        assert len({row.tobytes() for row in got}) == 4

    def test_uniform_moments(self):
        u = draw((3, TOKENS, 1), (200_000,))
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1 / 12) < 0.002
