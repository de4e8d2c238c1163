"""Tests for the from-scratch transformer encoder classifier."""

from __future__ import annotations

import functools
import hashlib
import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import encoder_gradient_check, make_doc
from ppkmsent.encoder import train as encoder_train
from ppkmsent.encoder.checkpoint import (
    CHECKPOINT_MAGIC,
    load_checkpoint,
    save_checkpoint,
)
from ppkmsent.encoder.config import (
    DESK_PROFILE,
    PAPER_PROFILE,
    EncoderConfig,
    TrainProfile,
    desk_config,
    paper_config,
)
from ppkmsent.encoder.model import (
    FlatTensors,
    _dropout,
    _gelu,
    _gelu_tanh,
    _layer_norm,
    backward,
    cross_entropy,
    forward,
    init_params,
    param_shapes,
    softmax,
)
from ppkmsent.encoder.train import (
    _trim,
    encode_documents,
    fine_tune,
    history_to_csv,
    predict_batch,
)
from ppkmsent.encoder.vocab import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    TokenVocab,
    build_token_vocab,
    format_input,
    input_rows,
)
from ppkmsent.errors import (
    CheckpointFormatError,
    ConfigError,
    EncoderNumericsError,
    TrainingDivergedError,
)
from ppkmsent.preprocess import (
    SentimentLabel,
    label_codes,
    labeled_ids,
    sequence_ids,
    token_ids,
)

NEG, NEU, POS = (
    SentimentLabel.NEGATIVE,
    SentimentLabel.NEUTRAL,
    SentimentLabel.POSITIVE,
)


def tiny_config(**overrides) -> EncoderConfig:
    base = dict(
        num_layers=1,
        num_heads=1,
        hidden_size=4,
        feedforward_size=8,
        max_sequence_length=6,
        vocab_size=10,
        dropout_rate=0.0,
    )
    base.update(overrides)
    return EncoderConfig(**base)


def three_class_docs():
    return [
        make_doc(["rugi", "parah"], NEG, "d0"),
        make_doc(["ppkm", "berlaku"], NEU, "d1"),
        make_doc(["bagus", "sekali"], POS, "d2"),
    ]


def varied_docs():
    """Twelve labelled documents of one to six tokens."""
    words = ["rugi", "parah", "ppkm", "bagus", "sekali", "berlaku"]
    return [
        make_doc(words[: 1 + i % 6], SentimentLabel(i % 3), f"d{i}")
        for i in range(12)
    ]


class TestEncoderConfig:
    def test_head_size(self):
        assert tiny_config(hidden_size=8, num_heads=2).head_size == 4

    def test_validation(self):
        with pytest.raises(ConfigError, match="divisible"):
            tiny_config(hidden_size=6, num_heads=4)
        with pytest.raises(ConfigError, match="num_layers"):
            tiny_config(num_layers=0)
        with pytest.raises(ConfigError, match="max_sequence_length"):
            tiny_config(max_sequence_length=2)
        with pytest.raises(ConfigError, match="dropout_rate"):
            tiny_config(dropout_rate=1.0)
        with pytest.raises(ConfigError, match="num_classes"):
            tiny_config(num_classes=1)
        with pytest.raises(ConfigError, match="vocab_size"):
            tiny_config(vocab_size=-1)
        with pytest.raises(ConfigError, match="layer_norm_eps"):
            tiny_config(layer_norm_eps=0.0)

    def test_dict_round_trip(self):
        config = tiny_config()
        assert EncoderConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            EncoderConfig.from_dict({"num_layers": 1, "window_size": 9})

    def test_full_size_architecture_constants(self):
        config = paper_config(vocab_size=30000)
        assert config.num_layers == 12
        assert config.num_heads == 12
        assert config.hidden_size == 768
        assert config.feedforward_size == 3072
        assert config.max_sequence_length == 128

    def test_desk_architecture_is_small(self):
        config = desk_config(vocab_size=100)
        assert config.num_layers == 2
        assert config.hidden_size == 64
        assert config.vocab_size == 100


class TestTrainProfile:
    def test_defaults_match_the_reference_schedule(self):
        assert PAPER_PROFILE.batch_size == 32
        assert PAPER_PROFILE.epochs == 10
        assert PAPER_PROFILE.learning_rate == 3e-6

    def test_desk_schedule_uses_a_larger_step(self):
        assert DESK_PROFILE.batch_size == 32
        assert DESK_PROFILE.epochs == 10
        assert DESK_PROFILE.learning_rate == 1e-3

    def test_dict_round_trip_is_exact(self):
        profile = PAPER_PROFILE
        reloaded = TrainProfile.from_dict(profile.to_dict())
        assert reloaded == profile
        assert reloaded.learning_rate == 3e-6

    def test_validation(self):
        with pytest.raises(ConfigError, match="batch_size"):
            TrainProfile(batch_size=0)
        with pytest.raises(ConfigError, match="epochs"):
            TrainProfile(epochs=0)
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainProfile(learning_rate=-1e-6)
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainProfile(learning_rate=float("nan"))
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainProfile(learning_rate=float("inf"))
        with pytest.raises(ConfigError, match="betas"):
            TrainProfile(adam_beta1=1.0)
        with pytest.raises(ConfigError, match="adam_epsilon"):
            TrainProfile(adam_epsilon=0.0)
        with pytest.raises(ConfigError, match="seed"):
            TrainProfile(seed=-1)
        # zero is a legal degenerate schedule
        TrainProfile(learning_rate=0.0)


class TestTokenVocab:
    def test_reserved_tokens_occupy_the_first_four_ids(self):
        vocab = build_token_vocab(token_ids([make_doc(["x"], doc_id="a")]))
        assert vocab.tokens_in_id_order()[:4] == ["[PAD]", "[UNK]", "[CLS]", "[SEP]"]
        assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID) == (0, 1, 2, 3)

    def test_content_ranked_by_frequency_then_lexicographic(self):
        docs = [
            make_doc(["b", "b", "c"], doc_id="a"),
            make_doc(["a", "c"], doc_id="b"),
        ]
        vocab = build_token_vocab(token_ids(docs))
        # counts: b=2, c=2, a=1 -> b, c by tie-break then a
        assert vocab.tokens_in_id_order()[4:] == ["b", "c", "a"]

    def test_min_count_threshold(self):
        docs = [make_doc(["a", "a", "b"], doc_id="a")]
        vocab = build_token_vocab(token_ids(docs), min_count=2)
        assert vocab.tokens_in_id_order()[4:] == ["a"]

    def test_reserved_tokens_in_text_are_ignored(self):
        docs = [make_doc(["[PAD]", "[CLS]", "real"], doc_id="a")]
        vocab = build_token_vocab(token_ids(docs))
        assert vocab.tokens_in_id_order()[4:] == ["real"]

    def test_lookup_falls_back_to_unk(self):
        vocab = build_token_vocab(token_ids([make_doc(["x"], doc_id="a")]))
        ids, _ = format_input(["x", "missing"], vocab, 4)
        assert ids.tolist() == [CLS_ID, 4, UNK_ID, SEP_ID]

    def test_validation(self):
        with pytest.raises(ConfigError, match="\\[PAD\\]"):
            TokenVocab(token_to_id={"[PAD]": 1})
        with pytest.raises(ConfigError, match="contiguous"):
            TokenVocab(
                token_to_id={
                    "[PAD]": 0,
                    "[UNK]": 1,
                    "[CLS]": 2,
                    "[SEP]": 3,
                    "gap": 9,
                }
            )
        with pytest.raises(ConfigError, match="min_count"):
            build_token_vocab(token_ids([]), min_count=0)

    def test_dict_round_trip(self):
        vocab = build_token_vocab(token_ids([make_doc(["x", "y"], doc_id="a")]))
        assert TokenVocab.from_dict(vocab.to_dict()) == vocab
        with pytest.raises(ConfigError, match="token list"):
            TokenVocab.from_dict({"tokens": "nope"})


class TestFormatInput:
    def vocab(self):
        return build_token_vocab(
            token_ids([make_doc(["jualan", "saya", "rugi"], doc_id="a")])
        )

    def test_explicit_layout(self):
        vocab = self.vocab()
        # equal counts -> lexicographic: jualan=4, rugi=5, saya=6
        ids, mask = format_input(["jualan", "saya", "rugi"], vocab, 6)
        assert ids.tolist() == [CLS_ID, 4, 6, 5, SEP_ID, PAD_ID]
        assert mask.tolist() == [1.0, 1.0, 1.0, 1.0, 1.0, 0.0]

    def test_unknown_token_becomes_unk(self):
        ids, _ = format_input(["jualan", "asing"], self.vocab(), 5)
        assert ids.tolist() == [CLS_ID, 4, UNK_ID, SEP_ID, PAD_ID]

    def test_truncation_keeps_cls_and_sep(self):
        ids, mask = format_input(["jualan", "saya", "rugi"], self.vocab(), 4)
        assert ids.tolist() == [CLS_ID, 4, 6, SEP_ID]
        assert mask.tolist() == [1.0] * 4

    def test_minimum_length_validated(self):
        with pytest.raises(ConfigError, match="max_sequence_length"):
            format_input(["x"], self.vocab(), 2)

    @given(
        st.lists(
            st.sampled_from(["jualan", "saya", "rugi", "oov1", "oov2"]),
            max_size=12,
        ),
        st.integers(min_value=3, max_value=10),
    )
    @settings(max_examples=300)
    def test_layout_invariants(self, tokens, seq_len):
        ids, mask = format_input(tokens, self.vocab(), seq_len)
        assert ids.shape == (seq_len,) and mask.shape == (seq_len,)
        assert ids[0] == CLS_ID
        assert np.count_nonzero(ids == SEP_ID) == 1
        assert np.count_nonzero(ids == CLS_ID) == 1
        sep_pos = int(np.flatnonzero(ids == SEP_ID)[0])
        assert np.all(ids[sep_pos + 1 :] == PAD_ID)
        assert np.array_equal(mask == 0.0, ids == PAD_ID)
        assert np.all(mask[: sep_pos + 1] == 1.0)
        assert np.all(mask[sep_pos + 1 :] == 0.0)
        assert sep_pos == 1 + min(len(tokens), seq_len - 2)


def reference_format_input(tokens, vocab, max_sequence_length):
    """The per-document layout in plain Python, one token at a time."""
    content = [
        vocab.token_to_id.get(tok, UNK_ID)
        for tok in tokens[: max_sequence_length - 2]
    ]
    ids = [CLS_ID, *content, SEP_ID]
    pad_count = max_sequence_length - len(ids)
    mask = [1.0] * len(ids) + [0.0] * pad_count
    ids.extend([PAD_ID] * pad_count)
    return (
        np.asarray(ids, dtype=np.int64),
        np.asarray(mask, dtype=np.float64),
    )


@given(
    st.lists(
        st.lists(
            st.sampled_from(["jualan", "saya", "rugi", "oov1", "oov2"]),
            max_size=12,
        ),
        max_size=6,
    ),
    st.integers(min_value=3, max_value=10),
)
@example(sequences=[[], ["oov1", "oov2"], ["saya"] * 12, ["rugi"]], seq_len=3)
@settings(max_examples=300)
def test_input_rows_match_the_reference(sequences, seq_len):
    vocab = build_token_vocab(sequence_ids([["jualan", "saya", "rugi"]]))
    ids, mask = input_rows(sequence_ids(sequences), vocab, seq_len)
    assert ids.shape == mask.shape == (len(sequences), seq_len)
    for row, tokens in enumerate(sequences):
        ref_ids, ref_mask = reference_format_input(tokens, vocab, seq_len)
        # every row of the batch, and format_input's one row, element for
        # element and dtype for dtype
        for got_ids, got_mask in (
            (ids[row], mask[row]),
            format_input(tokens, vocab, seq_len),
        ):
            assert (got_ids.dtype, got_mask.dtype) == (np.int64, np.float64)
            assert np.array_equal(got_ids, ref_ids)
            assert np.array_equal(got_mask, ref_mask)


@given(
    st.lists(
        st.lists(
            st.sampled_from(["jualan", "saya", "rugi", "oov1", "oov2"]),
            max_size=12,
        ),
        min_size=1,
        max_size=8,
    ),
    st.integers(min_value=3, max_value=10),
    st.integers(min_value=1, max_value=2),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200)
def test_token_ids_give_the_document_rows_and_vocabulary(
    sequences, seq_len, min_count, random
):
    # ids taken from the whole batch's id table, so some go unused, against
    # the subset's own ids
    docs = [make_doc(tokens, doc_id=str(i)) for i, tokens in enumerate(sequences)]
    rows = np.array(random.sample(range(len(docs)), random.randint(1, len(docs))))
    taken = token_ids(docs).take(rows)
    own = token_ids([docs[i] for i in rows.tolist()])
    vocab = build_token_vocab(own, min_count=min_count)
    assert build_token_vocab(taken, min_count=min_count) == vocab
    config = desk_config(vocab_size=vocab.size)
    config = replace(config, max_sequence_length=seq_len)
    for got, want in zip(
        encode_documents(taken, vocab, config), input_rows(own, vocab, seq_len)
    ):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def assert_views_of_one_buffer(tensors, config, role):
    """Every tensor is a view of ``tensors.flat``, in ``param_shapes``
    order, and together they cover it."""
    flat = tensors.flat
    assert list(tensors) == list(param_shapes(config)), role
    assert flat.flags.c_contiguous and flat.ndim == 1, role
    offset = 0
    for name, tensor in tensors.items():
        assert tensor.base is flat, (role, name)
        start = tensor.ctypes.data - flat.ctypes.data
        assert start == offset * flat.itemsize, (role, name)
        offset += tensor.size
    assert offset == flat.size, role


class TestInitParams:
    def test_shapes_and_constant_tensors(self):
        config = tiny_config(num_layers=2)
        params = init_params(config, seed=0)
        shapes = {name: t.shape for name, t in params.items()}
        assert shapes["token_embedding"] == (10, 4)
        assert shapes["position_embedding"] == (6, 4)
        assert shapes["layers.0.wq"] == (4, 4)
        assert shapes["layers.1.w1"] == (4, 8)
        assert shapes["layers.1.w2"] == (8, 4)
        assert shapes["head_w"] == (4, 3)
        assert shapes["head_b"] == (3,)
        for name, tensor in params.items():
            if name.endswith("_gain"):
                assert np.all(tensor == 1.0)
            elif name.endswith(("_bias", "head_b")):
                assert np.all(tensor == 0.0)
        for num_layers in (1, 3):
            config = tiny_config(num_layers=num_layers)
            params = init_params(config, seed=0)
            assert [(n, t.shape) for n, t in params.items()] == list(
                param_shapes(config).items()
            )
            assert_views_of_one_buffer(params, config, "init")

    def test_truncated_normal_bounds(self):
        params = init_params(tiny_config(vocab_size=200, hidden_size=16,
                                         feedforward_size=32, num_heads=2), seed=1)
        for name, tensor in params.items():
            if name.endswith(("_gain", "_bias", "head_b")):
                continue
            assert float(np.max(np.abs(tensor))) <= 2.0 * 0.02
            assert float(np.std(tensor)) > 0.005

    def test_seed_determinism(self):
        config = tiny_config()
        a = init_params(config, seed=3)
        b = init_params(config, seed=3)
        c = init_params(config, seed=4)
        for (name, ta), (_, tb), (_, tc) in zip(
            a.items(), b.items(), c.items()
        ):
            assert np.array_equal(ta, tb)
            if not name.endswith(("_gain", "_bias", "head_b")):
                assert not np.array_equal(ta, tc)

    def test_zero_vocab_rejected(self):
        with pytest.raises(ConfigError, match="vocab_size"):
            init_params(tiny_config(vocab_size=0), seed=0)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = np.array([[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]])
        out = softmax(x)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_stable_under_large_magnitudes(self):
        out = softmax(np.array([1e6, 0.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)
        out = softmax(np.array([-1e6, -1e6 + 1.0]))
        assert np.isfinite(out).all()
        assert out.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_last_axis_formula_bit_for_bit(self, dtype):
        # attention scores with masked keys, as forward builds them
        rng = np.random.default_rng(0)
        x = (rng.standard_normal((4, 2, 7, 7)) * 30.0).astype(dtype)
        x[0, :, :, 5:] = -np.inf
        x[2, :, :, 1:] = -np.inf
        x[3, 1, 4, 3] = x[3, 1, 4, 2]  # a tied maximum candidate
        want = np.exp(x - np.max(x, -1, keepdims=True))
        want /= np.sum(want, -1, keepdims=True)
        got = softmax(x, axis=-1)
        assert got.dtype == dtype
        assert np.array_equal(got, want)
        assert float(np.max(got[2, :, :, 1:])) == 0.0


class TestAttention:
    def run_tiny(self, ids, mask, **config_overrides):
        config = tiny_config(**config_overrides)
        params = init_params(config, seed=0)
        return (
            config,
            params,
            forward(np.array(ids), np.array(mask), params, config, want_cache=True),
        )

    def test_rows_sum_to_one_and_padding_gets_no_weight(self):
        _, _, result = self.run_tiny(
            [[2, 4, 5, 3], [2, 6, 3, 0]],
            [[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0]],
            max_sequence_length=4,
        )
        (layer,) = result.cache["layers"]
        probs = layer["probs"]
        # the only layer is the last: the [CLS] query attends to every key
        assert probs.shape == (2, 1, 1, 4)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
        # sequence 1 has its last key masked
        assert float(np.max(probs[1, :, :, 3])) < 1e-9

    def test_zero_key_projection_gives_uniform_attention(self):
        config = tiny_config(max_sequence_length=4)
        params = init_params(config, seed=0)
        params["layers.0.wk"][...] = 0.0
        result = forward(
            np.array([[2, 4, 5, 3], [2, 6, 3, 0]]),
            np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0]]),
            params,
            config,
            want_cache=True,
        )
        probs = result.cache["layers"][0]["probs"]
        assert np.allclose(probs[0], 0.25, atol=1e-12)
        assert np.allclose(probs[1, :, :, :3], 1.0 / 3.0, atol=1e-12)

    def test_multi_head_rows_also_normalize(self):
        _, _, result = self.run_tiny(
            [[2, 4, 5, 3]],
            [[1.0, 1.0, 1.0, 1.0]],
            num_heads=2,
            max_sequence_length=4,
        )
        (layer,) = result.cache["layers"]
        probs = layer["probs"]
        assert probs.shape == (1, 2, 1, 4)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)

    def test_appending_padding_leaves_logits_unchanged(self):
        config = tiny_config(max_sequence_length=8)
        params = init_params(config, seed=0)
        short = forward(
            np.array([[2, 4, 5, 3]]), np.array([[1.0, 1.0, 1.0, 1.0]]), params, config
        )
        padded = forward(
            np.array([[2, 4, 5, 3, 0, 0, 0, 0]]),
            np.array([[1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]]),
            params,
            config,
        )
        assert np.allclose(short.logits, padded.logits, atol=1e-6)

    def test_forward_validation(self):
        config = tiny_config(max_sequence_length=4)
        params = init_params(config, seed=0)
        ok_ids = np.array([[2, 4, 5, 3]])
        ok_mask = np.array([[1.0, 1.0, 1.0, 1.0]])
        with pytest.raises(ConfigError, match="mode"):
            forward(ok_ids, ok_mask, params, config, "predict")
        with pytest.raises(ConfigError, match="match"):
            forward(ok_ids, np.array([[1.0, 1.0]]), params, config)
        with pytest.raises(ConfigError, match="exceeds"):
            forward(
                np.array([[2, 4, 5, 3, 0]]),
                np.array([[1.0, 1.0, 1.0, 1.0, 0.0]]),
                params,
                config,
            )
        with pytest.raises(ConfigError, match="vocabulary range"):
            forward(np.array([[2, 4, 99, 3]]), ok_mask, params, config)
        with pytest.raises(ConfigError, match="position 0"):
            forward(ok_ids, np.array([[0.0, 1.0, 1.0, 1.0]]), params, config)

    def test_non_finite_weights_raise(self):
        config = tiny_config(max_sequence_length=4)
        params = init_params(config, seed=0)
        params["layers.0.w2"][...] = float("nan")
        with pytest.raises(EncoderNumericsError), np.errstate(invalid="ignore"):
            forward(
                np.array([[2, 4, 5, 3]]),
                np.array([[1.0, 1.0, 1.0, 1.0]]),
                params,
                config,
            )

    def test_one_dimensional_inputs_treated_as_batch_of_one(self):
        config = tiny_config(max_sequence_length=4)
        params = init_params(config, seed=0)
        flat = forward(np.array([2, 4, 5, 3]), np.ones(4), params, config)
        batched = forward(np.array([[2, 4, 5, 3]]), np.ones((1, 4)), params, config)
        assert np.array_equal(flat.logits, batched.logits)


class TestClsOnlyLastLayer:
    """The head reads position 0 alone, so the last layer computes the
    [CLS] query row only; inner layers run on every real token."""

    def mixed_batch(self):
        config = tiny_config(
            num_layers=3, num_heads=2, hidden_size=8, max_sequence_length=6
        )
        ids = np.array([[2, 4, 5, 6, 7, 3], [2, 8, 3, 0, 0, 0], [2, 3, 0, 0, 0, 0]])
        return config, ids, (ids != PAD_ID).astype(np.float64)

    def test_last_layer_caches_one_query_row(self):
        config, ids, mask = self.mixed_batch()
        params = init_params(config, seed=0)
        result = forward(ids, mask, params, config, want_cache=True)
        *inner, last = result.cache["layers"]
        # the residual stream carries the 6 + 3 + 2 real tokens, attention
        # runs at the batch width
        real = int(mask.sum())
        assert real == 11
        for layer in inner:
            assert layer["probs"].shape == (3, 2, 6, 6)
            assert layer["x_in"].shape == layer["x1"].shape == (real, 8)
            assert layer["hidden"].shape == (real, config.feedforward_size)
        assert last["probs"].shape == (3, 2, 1, 6)
        assert last["x_in"].shape == (real, 8)
        assert last["x_q"].shape == last["x1"].shape == (3, 8)
        assert last["hidden"].shape == (3, config.feedforward_size)
        assert result.cache["cls_vector"].shape == (3, 8)
        # padded keys get no weight in the last layer either
        assert float(np.max(last["probs"][1, :, :, 3:])) == 0.0
        assert float(np.max(last["probs"][2, :, :, 2:])) == 0.0

    def test_logits_equal_a_full_rows_reference(self):
        config, ids, mask = self.mixed_batch()
        params = init_params(config, seed=4, dtype=np.float64)
        for name, tensor in params.items():
            if not name.endswith(("_gain", "_bias", "head_b")):
                tensor *= 25.0
        got = forward(ids, mask, params, config).logits
        want = full_rows_reference_logits(ids, mask, params, config)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # the reference is not degenerate: the rows' logits differ
        assert np.ptp(want, axis=0).min() > 1e-3


def full_rows_reference_logits(ids, mask, params, config):
    """Eval-mode logits with every layer computed at every position, in
    the (batch, seq, hidden) layout, as a plain reading of the model."""
    batch, seq = ids.shape
    heads, size = config.num_heads, config.head_size
    eps = config.layer_norm_eps

    def split(t):
        return t.reshape(batch, seq, heads, size).transpose(0, 2, 1, 3)

    def layer_norm(t, gain, bias):
        centred = t - t.mean(axis=-1, keepdims=True)
        variance = (centred**2).mean(axis=-1, keepdims=True)
        return centred / np.sqrt(variance + eps) * gain + bias

    def gelu(t):
        c = math.sqrt(2.0 / math.pi)
        return 0.5 * t * (1.0 + np.tanh(c * (t + 0.044715 * t**3)))

    x = params["token_embedding"][ids] + params["position_embedding"][:seq]
    for i in range(config.num_layers):
        p = f"layers.{i}."
        q, k, v = (split(x @ params[p + w]) for w in ("wq", "wk", "wv"))
        scores = q @ k.transpose(0, 1, 3, 2)
        scores = np.where(
            mask[:, None, None, :] > 0, scores / math.sqrt(size), -np.inf
        )
        context = softmax(scores) @ v
        context = context.transpose(0, 2, 1, 3).reshape(batch, seq, -1)
        attn = context @ params[p + "wo"]
        x1 = layer_norm(x + attn, params[p + "ln1_gain"], params[p + "ln1_bias"])
        ffn = gelu(x1 @ params[p + "w1"]) @ params[p + "w2"]
        x = layer_norm(x1 + ffn, params[p + "ln2_gain"], params[p + "ln2_bias"])
    return x[:, 0] @ params["head_w"] + params["head_b"]


def python_reference_forward(ids, mask, params, config):
    """Scalar-arithmetic reimplementation of the single-head forward pass."""
    d = config.hidden_size
    eps = config.layer_norm_eps
    scale = 1.0 / math.sqrt(config.head_size)
    gelu_c = math.sqrt(2.0 / math.pi)

    def matmul(a, b):
        return [
            [sum(row[k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for row in a
        ]

    def layer_norm(rows, gain, bias):
        out = []
        for row in rows:
            mean = sum(row) / len(row)
            var = sum((x - mean) ** 2 for x in row) / len(row)
            inv = 1.0 / math.sqrt(var + eps)
            out.append(
                [(x - mean) * inv * g + b for x, g, b in zip(row, gain, bias)]
            )
        return out

    def gelu(x):
        return 0.5 * x * (1.0 + math.tanh(gelu_c * (x + 0.044715 * x**3)))

    tok = params["token_embedding"].tolist()
    pos = params["position_embedding"].tolist()
    x = [[tok[t][j] + pos[i][j] for j in range(d)] for i, t in enumerate(ids)]
    n = len(ids)
    for index in range(config.num_layers):
        p = f"layers.{index}."
        q = matmul(x, params[p + "wq"].tolist())
        k = matmul(x, params[p + "wk"].tolist())
        v = matmul(x, params[p + "wv"].tolist())
        context = []
        for i in range(n):
            scores = [
                scale * sum(q[i][m] * k[j][m] for m in range(d))
                if mask[j] > 0.0
                else None
                for j in range(n)
            ]
            top = max(s for s in scores if s is not None)
            exps = [math.exp(s - top) if s is not None else 0.0 for s in scores]
            total = sum(exps)
            probs = [e / total for e in exps]
            context.append(
                [sum(probs[j] * v[j][m] for j in range(n)) for m in range(d)]
            )
        attn = matmul(context, params[p + "wo"].tolist())
        x1 = layer_norm(
            [[a + b for a, b in zip(xr, ar)] for xr, ar in zip(x, attn)],
            params[p + "ln1_gain"].tolist(),
            params[p + "ln1_bias"].tolist(),
        )
        hidden = matmul(x1, params[p + "w1"].tolist())
        activated = [[gelu(h) for h in row] for row in hidden]
        ffn = matmul(activated, params[p + "w2"].tolist())
        x = layer_norm(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(x1, ffn)],
            params[p + "ln2_gain"].tolist(),
            params[p + "ln2_bias"].tolist(),
        )
    head_w = params["head_w"].tolist()
    head_b = params["head_b"].tolist()
    cls = x[0]
    return [
        sum(cls[m] * head_w[m][c] for m in range(d)) + head_b[c]
        for c in range(config.num_classes)
    ]


class TestScalarReferenceOracle:
    def test_forward_matches_pure_python_reimplementation(self):
        config = EncoderConfig(
            num_layers=1,
            num_heads=1,
            hidden_size=2,
            feedforward_size=3,
            max_sequence_length=4,
            vocab_size=6,
            dropout_rate=0.0,
        )
        params = init_params(config, seed=5, dtype=np.float64)
        cases = [
            ([2, 4, 3], [1.0, 1.0, 1.0]),
            ([2, 4, 3, 0], [1.0, 1.0, 1.0, 0.0]),
            ([2, 5, 4, 3], [1.0, 1.0, 1.0, 1.0]),
        ]
        for ids, mask in cases:
            got = forward(np.array(ids), np.array(mask), params, config).logits[0]
            want = python_reference_forward(ids, mask, params, config)
            assert np.allclose(got, np.array(want), atol=1e-9)

    def test_two_layer_stack_also_matches(self):
        config = EncoderConfig(
            num_layers=2,
            num_heads=1,
            hidden_size=2,
            feedforward_size=3,
            max_sequence_length=4,
            vocab_size=6,
            dropout_rate=0.0,
        )
        params = init_params(config, seed=6, dtype=np.float64)
        ids, mask = [2, 4, 5, 3], [1.0, 1.0, 1.0, 1.0]
        got = forward(np.array(ids), np.array(mask), params, config).logits[0]
        want = python_reference_forward(ids, mask, params, config)
        assert np.allclose(got, np.array(want), atol=1e-9)


class TestLayerNorm:
    def test_normalizes_rows_before_gain_and_bias(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 5)) * 4.0 + 7.0
        out, _ = _layer_norm(x, np.ones(5), np.zeros(5), 1e-12)
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-6)

    def test_gain_and_bias_are_affine(self):
        x = np.array([[1.0, 2.0, 3.0]])
        gain = np.array([2.0, 2.0, 2.0])
        bias = np.array([1.0, 1.0, 1.0])
        plain, _ = _layer_norm(x, np.ones(3), np.zeros(3), 1e-12)
        shifted, _ = _layer_norm(x, gain, bias, 1e-12)
        assert np.allclose(shifted, plain * 2.0 + 1.0, atol=1e-12)


class TestDropout:
    def test_each_site_draws_its_packed_rows_from_its_own_stream(self):
        config = tiny_config(
            num_layers=2, num_heads=2, hidden_size=8, dropout_rate=0.3
        )
        params = init_params(config, seed=0, dtype=np.float64)
        ids = np.array([[2, 4, 5, 6, 3, 0], [2, 7, 3, 0, 0, 0], [2, 3, 0, 0, 0, 0]])
        mask = (ids != PAD_ID).astype(np.float64)
        key = (7, 2, 5)
        result = forward(ids, mask, params, config, "train", key=key, want_cache=True)
        n_real, batch, d = int(mask.sum()), ids.shape[0], config.hidden_size

        def keep(site, rows):
            draws = np.random.default_rng((*key, site)).random((rows, d))
            return (draws >= 0.3).astype(np.float64) / (1.0 - 0.3)

        # the embedding (site 0) and the inner layer's two sites (1, 2) mask
        # every real row, the last layer's two sites (3, 4) one row per
        # sequence
        want = [keep(0, n_real), keep(1, n_real), keep(2, n_real)]
        want += [keep(3, batch), keep(4, batch)]
        inner, last = result.cache["layers"]
        got = [result.cache["emb_keep"]]
        got += [inner["attn_keep"], inner["ffn_keep"]]
        got += [last["attn_keep"], last["ffn_keep"]]
        for site, (g, w) in enumerate(zip(got, want)):
            assert np.array_equal(g, w), site

    def test_trailing_padding_changes_no_train_mode_logit_under_one_key(self):
        config = tiny_config(
            num_layers=2,
            num_heads=2,
            hidden_size=8,
            max_sequence_length=9,
            dropout_rate=0.3,
        )
        params = init_params(config, seed=2, dtype=np.float64)
        ids = np.array([[2, 4, 5, 6, 7, 3], [2, 8, 3, 0, 0, 0], [2, 3, 0, 0, 0, 0]])
        labels = np.array([0, 2, 1])
        outputs = []
        for extra in (0, 3):
            wide = np.pad(ids, ((0, 0), (0, extra)), constant_values=PAD_ID)
            mask = (wide != PAD_ID).astype(np.float64)
            result = forward(
                wide, mask, params, config, "train", key=(4, 1, 0), want_cache=True
            )
            _, dlogits = cross_entropy(result.logits, labels)
            grads = backward(dlogits, params, config, result.cache)
            outputs.append((result.logits, grads, result.cache["emb_keep"]))
        (logits, grads, keep), (wide_logits, wide_grads, wide_keep) = outputs
        assert np.array_equal(wide_keep, keep)
        np.testing.assert_allclose(wide_logits, logits, rtol=0, atol=1e-12)
        for name, grad in grads.items():
            np.testing.assert_allclose(
                wide_grads[name], grad, rtol=0, atol=1e-12, err_msg=name
            )

    def test_zero_rate_is_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out, keep = _dropout(x, 0.0, None)
        assert out is x and keep is None

    def test_train_mode_without_rng_rejected(self):
        with pytest.raises(ConfigError, match="rng"):
            _dropout(np.ones(4), 0.5, None)

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(0)
        x = np.ones((200, 200))
        out, keep = _dropout(x, 0.25, rng)
        zeros = float(np.mean(out == 0.0))
        assert zeros == pytest.approx(0.25, abs=0.02)
        assert np.allclose(out[out != 0.0], 1.0 / 0.75)
        assert float(out.mean()) == pytest.approx(1.0, abs=0.02)
        assert np.array_equal(out, x * keep)

    def test_eval_mode_ignores_dropout(self):
        config = tiny_config(dropout_rate=0.5, max_sequence_length=4)
        params = init_params(config, seed=0)
        ids = np.array([[2, 4, 5, 3]])
        mask = np.ones((1, 4))
        a = forward(ids, mask, params, config, "eval")
        b = forward(ids, mask, params, config, "eval")
        assert np.array_equal(a.logits, b.logits)

    def test_train_mode_depends_on_rng_state(self):
        config = tiny_config(dropout_rate=0.5, max_sequence_length=4)
        params = init_params(config, seed=0)
        ids = np.array([[2, 4, 5, 3]])
        mask = np.ones((1, 4))
        a = forward(ids, mask, params, config, "train", key=(1,))
        b = forward(ids, mask, params, config, "train", key=(1,))
        c = forward(ids, mask, params, config, "train", key=(2,))
        assert np.array_equal(a.logits, b.logits)
        assert not np.array_equal(a.logits, c.logits)
        with pytest.raises(ConfigError, match="rng"):
            forward(ids, mask, params, config, "train")


class TestCrossEntropy:
    def test_uniform_logits_cost_log_num_classes(self):
        loss, _ = cross_entropy(np.zeros((4, 3)), np.array([0, 1, 2, 0]))
        assert loss == pytest.approx(math.log(3.0), abs=1e-12)

    def test_hand_computed_case(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        loss, _ = cross_entropy(logits, np.array([2]))
        want = math.log(math.exp(1) + math.exp(2) + math.exp(3)) - 3.0
        assert loss == pytest.approx(want, abs=1e-12)

    def test_gradient_is_softmax_minus_onehot_over_batch(self):
        logits = np.array([[0.5, -1.0, 2.0], [3.0, 0.0, -2.0]])
        labels = np.array([2, 0])
        _, dlogits = cross_entropy(logits, labels)
        probs = softmax(logits)
        onehot = np.zeros_like(logits)
        onehot[np.arange(2), labels] = 1.0
        assert np.allclose(dlogits, (probs - onehot) / 2.0, atol=1e-12)
        assert np.allclose(dlogits.sum(axis=-1), 0.0, atol=1e-12)

    def test_label_shape_validated(self):
        with pytest.raises(ConfigError, match="labels"):
            cross_entropy(np.zeros((2, 3)), np.array([0]))


class TestGradientCheck:
    def test_analytic_gradients_match_finite_differences(self):
        errors = encoder_gradient_check()
        names = set(errors)
        assert {"token_embedding", "position_embedding", "head_w", "head_b"} <= names
        assert {
            f"layers.0.{n}"
            for n in (
                "wq",
                "wk",
                "wv",
                "wo",
                "ln1_gain",
                "ln1_bias",
                "w1",
                "w2",
                "ln2_gain",
                "ln2_bias",
            )
        } <= names
        worst = max(errors.values())
        assert worst < 1e-4, errors

    def test_two_layers_two_heads_match_finite_differences(self):
        # layer 0 runs on every position and layer 1 on [CLS] alone
        errors = encoder_gradient_check(num_layers=2, num_heads=2)
        # the four embedding and head tensors and ten per layer
        assert len(errors) == 4 + 2 * 10
        assert {"layers.0.wq", "layers.1.wq", "layers.1.ln2_bias"} <= set(errors)
        worst = max(errors.values())
        assert worst < 1e-4, errors


# an empty validation split
NO_DOCUMENTS = labeled_ids([])


class TestFineTune:
    def setup_training(self, **profile_overrides):
        docs = three_class_docs() * 2
        docs = [
            make_doc(d.tokens, d.label, f"{d.id}-{i}") for i, d in enumerate(docs)
        ]
        train = labeled_ids(docs)
        vocab = build_token_vocab(train.documents)
        config = tiny_config(
            vocab_size=vocab.size, hidden_size=8, num_heads=2, max_sequence_length=6
        )
        defaults = dict(batch_size=3, epochs=20, learning_rate=1e-2, seed=0)
        defaults.update(profile_overrides)
        return train, vocab, config, TrainProfile(**defaults)

    def test_deterministic_given_seed(self):
        train, vocab, config, profile = self.setup_training(epochs=3)
        val = train.take(np.arange(2))
        params_a, history_a = fine_tune(train, val, vocab, config, profile)
        params_b, history_b = fine_tune(train, val, vocab, config, profile)
        assert_views_of_one_buffer(params_a, config, "fine_tune")
        for (name, ta), (_, tb) in zip(
            params_a.items(), params_b.items()
        ):
            assert np.array_equal(ta, tb), name
        assert history_a == history_b

    def test_learns_a_separable_three_class_corpus(self):
        train, vocab, config, profile = self.setup_training()
        params, history = fine_tune(train, NO_DOCUMENTS, vocab, config, profile)
        assert len(history) == profile.epochs
        assert history[-1].train_acc == 1.0
        assert history[-1].train_loss < history[0].train_loss
        predicted = predict_batch(train.documents, params, vocab, config)
        assert predicted == train.labels.tolist()

    def test_zero_learning_rate_keeps_initial_weights(self):
        train, vocab, config, profile = self.setup_training(
            epochs=2, learning_rate=0.0
        )
        params, _ = fine_tune(train, NO_DOCUMENTS, vocab, config, profile)
        init_seq, _ = np.random.SeedSequence(profile.seed).spawn(2)
        reference = init_params(config, init_seq)
        for (name, got), (_, want) in zip(
            params.items(), reference.items()
        ):
            assert np.array_equal(got, want), name

    def test_empty_validation_set_records_nan(self):
        train, vocab, config, profile = self.setup_training(epochs=2)
        _, history = fine_tune(train, NO_DOCUMENTS, vocab, config, profile)
        assert all(math.isnan(row.val_loss) for row in history)
        assert all(math.isnan(row.val_acc) for row in history)

    def test_validation_metrics_tracked_when_present(self):
        train, vocab, config, profile = self.setup_training(epochs=2)
        val = train.take(np.arange(3))
        _, history = fine_tune(train, val, vocab, config, profile)
        assert all(math.isfinite(row.val_loss) for row in history)
        assert all(0.0 <= row.val_acc <= 1.0 for row in history)

    def test_enormous_learning_rate_diverges(self):
        train, vocab, config, profile = self.setup_training(
            epochs=3, learning_rate=1e300
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as excinfo:
                fine_tune(train, NO_DOCUMENTS, vocab, config, profile)
        assert excinfo.value.epoch == 1

    def test_epoch_orders_do_not_depend_on_dropout(self, monkeypatch):
        orders: list[list[np.ndarray]] = []
        real_batches = encoder_train._batches

        def recording_batches(ids, mask, batch_size, order=None):
            if order is not None:
                orders[-1].append(order.copy())
            return real_batches(ids, mask, batch_size, order)

        monkeypatch.setattr(encoder_train, "_batches", recording_batches)
        train, vocab, config, profile = self.setup_training(epochs=3)
        for rate in (0.0, 0.1):
            orders.append([])
            rate_config = replace(config, dropout_rate=rate)
            fine_tune(train, NO_DOCUMENTS, vocab, rate_config, profile)
        plain, dropped = orders
        assert len(plain) == len(dropped) == profile.epochs
        for epoch, (a, b) in enumerate(zip(plain, dropped), start=1):
            assert np.array_equal(a, b), epoch
        assert not np.array_equal(plain[1], plain[2])

    def test_unlabeled_document_rejected(self):
        _, vocab, config, profile = self.setup_training(epochs=1)
        docs = three_class_docs()
        docs[0] = make_doc(docs[0].tokens, None, docs[0].id)
        with pytest.raises(ValueError, match=f"document {docs[0].id!r} has no label"):
            fine_tune(labeled_ids(docs), NO_DOCUMENTS, vocab, config, profile)

    def test_empty_training_set_rejected(self):
        _, vocab, config, profile = self.setup_training(epochs=1)
        with pytest.raises(ConfigError, match="empty"):
            fine_tune(NO_DOCUMENTS, NO_DOCUMENTS, vocab, config, profile)


class TestTrainingStep:
    """Each training batch gets one forward and one backward pass, and Adam
    updates in place with the arithmetic of the out-of-place formula."""

    def setup_training(self):
        docs = varied_docs()
        vocab = build_token_vocab(token_ids(docs))
        config = tiny_config(
            vocab_size=vocab.size,
            num_layers=2,
            num_heads=2,
            hidden_size=8,
            feedforward_size=16,
            max_sequence_length=12,
            dropout_rate=0.1,
        )
        profile = TrainProfile(batch_size=5, epochs=3, learning_rate=1e-2, seed=0)
        return docs, vocab, config, profile

    def test_weights_match_the_pinned_digest(self):
        # the digest of the float32 weights that training with one keyed
        # stream per dropout site first gave, under numpy 2.4 and OpenBLAS
        # 0.3 on x86-64, where other SIMD kernels for exp/tanh or matmul may
        # round differently
        docs, vocab, config, profile = self.setup_training()
        params, _ = fine_tune(
            labeled_ids(docs), labeled_ids(docs[:4]), vocab, config, profile
        )
        digest = hashlib.sha256()
        for name, tensor in params.items():
            assert tensor.dtype == np.float32, name
            digest.update(name.encode())
            digest.update(tensor.tobytes())
        assert digest.hexdigest() == (
            "c4a7d1bbdf6d7b7f272a24945f61247a6d1830cf27bfd053ddedb207996bdb1b"
        )

    def test_float64_params_keep_the_float64_digest(self, monkeypatch):
        # the same code on float64 params gives the float64 weights that
        # training with one keyed stream per dropout site first gave, bit
        # for bit
        monkeypatch.setattr(
            encoder_train,
            "init_params",
            functools.partial(init_params, dtype=np.float64),
        )
        docs, vocab, config, profile = self.setup_training()
        params, _ = fine_tune(
            labeled_ids(docs), labeled_ids(docs[:4]), vocab, config, profile
        )
        digest = hashlib.sha256()
        for name, tensor in params.items():
            assert tensor.dtype == np.float64, name
            digest.update(name.encode())
            digest.update(tensor.tobytes())
        assert digest.hexdigest() == (
            "8d7a930588a029f25a91d3f94d20360a1db62d9c18ba23bcfbf67d9c4a495249"
        )

    def test_one_forward_per_batch_and_one_backward_per_train_batch(
        self, monkeypatch
    ):
        docs, vocab, config, profile = self.setup_training()
        calls = {"forward": 0, "backward": 0}
        for name in calls:
            real = getattr(encoder_train, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(encoder_train, name, counting)
        fine_tune(
            labeled_ids(docs), labeled_ids(docs[:4]), vocab, config, profile
        )
        # 12 training documents in batches of 5, and one validation batch
        train_batches, val_batches = 3, 1
        assert calls == {
            "forward": profile.epochs * (train_batches + val_batches),
            "backward": profile.epochs * train_batches,
        }

    def test_one_step_keeps_the_params_dtype(self):
        # encode_documents hands forward float64 masks; if any array upcast
        # float32 params, every later product would run in float64
        docs, vocab, config, profile = self.setup_training()
        ids, mask = _trim(*encode_documents(token_ids(docs[:5]), vocab, config))
        labels = label_codes(docs[:5])
        assert mask.dtype == np.float64

        def cache_arrays(node):
            if isinstance(node, np.ndarray):
                yield node
            elif isinstance(node, dict):
                for value in node.values():
                    yield from cache_arrays(value)
            elif isinstance(node, list):
                for value in node:
                    yield from cache_arrays(value)

        for dtype in (np.float32, np.float64):
            params = init_params(config, seed=0, dtype=dtype)
            result = forward(
                ids,
                mask,
                params,
                config,
                "train",
                key=(0,),
                want_cache=True,
            )
            assert result.logits.dtype == dtype
            ids_array, rows_array, cls_array, *arrays = cache_arrays(result.cache)
            # the real tokens' ids, their rows in the padded layout and each
            # sequence's [CLS] row come first, as integer indices
            assert ids_array is result.cache["ids"]
            assert rows_array is result.cache["rows"]
            assert cls_array is result.cache["cls"]
            for index in (ids_array, rows_array, cls_array):
                assert index.dtype == np.int64
            # the embedding keep mask, cls_vector and 19 per layer, the
            # attention and feed-forward keep masks, the query rows and
            # GELU's tanh among them
            assert len(arrays) == 2 + 19 * config.num_layers
            for array in arrays:
                assert array.dtype == dtype, array.shape
            _, dlogits = cross_entropy(result.logits, labels)
            assert dlogits.dtype == dtype
            grads = backward(dlogits, params, config, result.cache)
            state = encoder_train._AdamState(params)
            encoder_train._adam_step(grads, state, profile)
            for name, tensor in params.items():
                assert grads[name].dtype == dtype, name
                assert tensor.dtype == dtype, name
                assert state.m[name].dtype == state.v[name].dtype == dtype, name

    def test_in_place_adam_equals_the_out_of_place_formula(self):
        # one pass over the flat buffers, against the textbook formula run
        # tensor by tensor
        config = tiny_config(num_layers=2, num_heads=2, hidden_size=8)
        profile = TrainProfile(learning_rate=3e-3)
        beta1, beta2 = profile.adam_beta1, profile.adam_beta2
        for dtype in (np.float32, np.float64):
            params = init_params(config, seed=0, dtype=dtype)
            state = encoder_train._AdamState(params)
            tensors = {name: t.copy() for name, t in params.items()}
            m = {name: np.zeros_like(t) for name, t in tensors.items()}
            v = {name: np.zeros_like(t) for name, t in tensors.items()}
            rng = np.random.default_rng(0)
            for t in range(1, 4):
                grads = FlatTensors(param_shapes(config), dtype)
                for name, g in grads.items():
                    g[...] = rng.standard_normal(g.shape) * 10.0 ** rng.uniform(
                        -6, 2, g.shape
                    )
                for name, g in grads.items():
                    m[name] = beta1 * m[name] + (1.0 - beta1) * g
                    v[name] = beta2 * v[name] + (1.0 - beta2) * g**2
                    m_hat = m[name] / (1.0 - beta1**t)
                    v_hat = v[name] / (1.0 - beta2**t)
                    tensors[name] = tensors[name] - profile.learning_rate * m_hat / (
                        np.sqrt(v_hat) + profile.adam_epsilon
                    )
                encoder_train._adam_step(grads, state, profile)
                for name, tensor in params.items():
                    key = (dtype.__name__, t, name)
                    assert tensor.dtype == state.m[name].dtype == dtype, key
                    assert np.array_equal(tensor, tensors[name]), key
                    assert np.array_equal(state.m[name], m[name]), key
                    assert np.array_equal(state.v[name], v[name]), key

    def test_adam_updates_views_of_one_buffer_per_role(self):
        docs, vocab, config, profile = self.setup_training()
        ids, mask = encode_documents(token_ids(docs[:5]), vocab, config)
        labels = label_codes(docs[:5])
        params = init_params(config, seed=0)
        state = encoder_train._AdamState(params)
        # Adam updates the params themselves, not a copy
        assert state.weights is params
        result = forward(*_trim(ids, mask), params, config, want_cache=True)
        grads = backward(
            cross_entropy(result.logits, labels)[1], params, config, result.cache
        )
        roles = {"weights": params, "grads": grads, "m": state.m, "v": state.v}
        for role, tensors in roles.items():
            assert_views_of_one_buffer(tensors, config, role)

    def test_a_non_finite_weight_is_named(self):
        config = tiny_config(num_layers=2)
        params = init_params(config, seed=0)
        state = encoder_train._AdamState(params)
        encoder_train._check_weights_finite(state.weights, 1, 0)
        params["layers.1.w2"][0, 1] = np.inf
        with pytest.raises(TrainingDivergedError, match=r"layers\.1\.w2"):
            encoder_train._check_weights_finite(state.weights, 2, 3)


class TestEncodeAndPredict:
    def test_encode_documents_shapes(self):
        docs = three_class_docs()
        vocab = build_token_vocab(token_ids(docs))
        config = tiny_config(vocab_size=vocab.size)
        ids, mask = encode_documents(token_ids(docs), vocab, config)
        assert ids.shape == (3, 6)
        assert mask.shape == (3, 6)
        labels = labeled_ids(docs).labels
        assert labels.dtype == np.int64
        assert labels.tolist() == [0, 1, 2]

    def test_unlabeled_documents_encode_but_do_not_train(self):
        docs = [make_doc(["a"], None, "u")]
        vocab = build_token_vocab(token_ids(docs))
        config = tiny_config(vocab_size=vocab.size)
        ids, mask = encode_documents(token_ids(docs), vocab, config)
        assert ids.shape == mask.shape == (1, config.max_sequence_length)
        with pytest.raises(ValueError, match="document 'u' has no label"):
            fine_tune(
                labeled_ids(docs), NO_DOCUMENTS, vocab, config, TrainProfile(epochs=1)
            )

    def test_predict_probabilities_sum_to_one(self):
        docs = three_class_docs()
        vocab = build_token_vocab(token_ids(docs))
        config = tiny_config(vocab_size=vocab.size)
        params = init_params(config, seed=0, dtype=np.float64)
        ids, mask = _trim(
            *format_input(docs[0].tokens, vocab, config.max_sequence_length)
        )
        probs = softmax(forward(ids, mask, params, config).logits)[0]
        (label,) = predict_batch(token_ids(docs[:1]), params, vocab, config)
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert label is SentimentLabel(int(np.argmax(probs)))

    def test_predict_batch_agrees_with_predict(self):
        docs = three_class_docs() + [make_doc(["ppkm", "rugi"], None, "q")]
        vocab = build_token_vocab(token_ids(docs))
        config = tiny_config(vocab_size=vocab.size)
        params = init_params(config, seed=0)
        batched = predict_batch(token_ids(docs), params, vocab, config, batch_size=2)
        single = [predict_batch(token_ids([d]), params, vocab, config)[0] for d in docs]
        assert batched == single


class TestBatchTrimming:
    def test_trimmed_batch_matches_fully_padded_batch(self):
        docs = varied_docs()[:4]
        vocab = build_token_vocab(token_ids(docs))
        config = tiny_config(
            vocab_size=vocab.size,
            num_layers=2,
            num_heads=2,
            hidden_size=8,
            max_sequence_length=12,
        )
        params = init_params(config, seed=3, dtype=np.float64)
        # lift the gradients well above the tolerance, as the gradient check does
        for name, tensor in params.items():
            if not name.endswith(("_gain", "_bias", "head_b")):
                tensor *= 25.0
        ids, mask = encode_documents(token_ids(docs), vocab, config)
        labels = label_codes(docs)
        trimmed = _trim(ids, mask)
        # the longest document is [CLS] + 4 tokens + [SEP]
        assert trimmed[0].shape == trimmed[1].shape == (4, 6)
        outputs = []
        for batch_ids, batch_mask in ((ids, mask), trimmed):
            result = forward(
                batch_ids, batch_mask, params, config, "train", want_cache=True
            )
            _, dlogits = cross_entropy(result.logits, labels)
            grads = backward(dlogits, params, config, result.cache)
            outputs.append((result.logits, grads))
        (full_logits, full_grads), (cut_logits, cut_grads) = outputs
        np.testing.assert_allclose(cut_logits, full_logits, rtol=0, atol=1e-12)
        assert set(cut_grads) == set(full_grads)
        for name, grad in full_grads.items():
            np.testing.assert_allclose(
                cut_grads[name], grad, rtol=0, atol=1e-12, err_msg=name
            )
        assert np.abs(full_grads["position_embedding"][:6]).min() > 1e-6

    def test_appending_pad_columns_changes_no_logit_or_gradient(self):
        config = tiny_config(
            num_layers=3, num_heads=2, hidden_size=8, max_sequence_length=9
        )
        params = init_params(config, seed=2, dtype=np.float64)
        for name, tensor in params.items():
            if not name.endswith(("_gain", "_bias", "head_b")):
                tensor *= 25.0
        ids = np.array([[2, 4, 5, 6, 7, 3], [2, 8, 3, 0, 0, 0], [2, 3, 0, 0, 0, 0]])
        labels = np.array([0, 2, 1])
        outputs = []
        for extra in (0, 3):
            wide = np.pad(ids, ((0, 0), (0, extra)), constant_values=PAD_ID)
            mask = (wide != PAD_ID).astype(np.float64)
            result = forward(wide, mask, params, config, "train", want_cache=True)
            _, dlogits = cross_entropy(result.logits, labels)
            grads = backward(dlogits, params, config, result.cache)
            outputs.append((result.logits, grads))
        (logits, grads), (wide_logits, wide_grads) = outputs
        np.testing.assert_allclose(wide_logits, logits, rtol=0, atol=1e-12)
        for name, grad in grads.items():
            np.testing.assert_allclose(
                wide_grads[name], grad, rtol=0, atol=1e-12, err_msg=name
            )
        # the padded positions' embeddings get no gradient
        assert not wide_grads["position_embedding"][6:].any()
        assert not wide_grads["token_embedding"][PAD_ID].any()

    def test_forward_sees_each_batch_cut_to_its_longest_sequence(
        self, monkeypatch
    ):
        docs = varied_docs()
        vocab = build_token_vocab(token_ids(docs))
        config = tiny_config(
            vocab_size=vocab.size, hidden_size=8, num_heads=2, max_sequence_length=12
        )
        profile = TrainProfile(batch_size=5, epochs=2, learning_rate=1e-2, seed=0)
        masks = []
        real_forward = encoder_train.forward

        def recording_forward(ids, mask, *args, **kwargs):
            masks.append(np.atleast_2d(mask))
            return real_forward(ids, mask, *args, **kwargs)

        monkeypatch.setattr(encoder_train, "forward", recording_forward)
        params, _ = fine_tune(
            labeled_ids(docs), labeled_ids(docs[:4]), vocab, config, profile
        )
        predict_batch(token_ids(docs), params, vocab, config, batch_size=5)
        predict_batch(token_ids(docs[:1]), params, vocab, config)
        # per epoch: 3 train batches and 1 validation batch; then 3
        # predict_batch batches and one single-document batch
        assert len(masks) == 2 * (3 + 1) + 3 + 1
        for mask in masks:
            assert mask.shape[1] == int(mask.sum(axis=1).max())
        assert {mask.shape[1] for mask in masks} == {3, 6, 7, 8}


class TestHistoryCsv:
    def test_schedule_comment_and_rows(self):
        docs = three_class_docs()
        vocab = build_token_vocab(token_ids(docs))
        config = tiny_config(vocab_size=vocab.size)
        profile = TrainProfile(batch_size=3, epochs=2, learning_rate=3e-6, seed=0)
        _, history = fine_tune(
            labeled_ids(docs), labeled_ids(docs), vocab, config, profile
        )
        text = history_to_csv(history, profile)
        lines = text.strip().split("\n")
        assert lines[0] == "# batch_size=3 epochs=2 learning_rate=3e-06"
        assert lines[1] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(lines) == 2 + profile.epochs
        assert lines[2].startswith("1,")

    def test_without_profile_no_comment(self):
        text = history_to_csv([])
        assert text == "epoch,train_loss,train_acc,val_loss,val_acc\n"


class TestCheckpoint:
    def build(self, tmp_path, seed=0):
        config = tiny_config(num_layers=2)
        params = init_params(config, seed=seed)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, config, path)
        return config, params, path

    def test_round_trip_quantizes_to_float32(self, tmp_path):
        # float32 weights come back bit for bit; float64 ones rounded once
        config, params, path = self.build(tmp_path)
        loaded_params, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        assert_views_of_one_buffer(loaded_params, config, "load_checkpoint")
        wide = init_params(config, seed=0, dtype=np.float64)
        save_checkpoint(wide, config, tmp_path / "wide.ckpt")
        assert (tmp_path / "wide.ckpt").read_bytes() == path.read_bytes()
        for (name, original), (_, restored), (_, wide_tensor) in zip(
            params.items(),
            loaded_params.items(),
            wide.items(),
        ):
            assert original.dtype == restored.dtype == np.float32, name
            assert restored.tobytes() == original.tobytes(), name
            assert np.array_equal(restored, wide_tensor.astype(np.float32)), name
            assert restored.flags.writeable, name

    def test_round_trip_preserves_predictions(self, tmp_path):
        config, params, path = self.build(tmp_path)
        loaded_params, loaded_config = load_checkpoint(path)
        ids = np.array([[2, 4, 5, 3]])
        mask = np.ones((1, 4))
        a = forward(ids, mask, params, config).logits
        b = forward(ids, mask, loaded_params, loaded_config).logits
        assert np.allclose(a, b, atol=1e-5)

    def test_file_bytes_are_pinned(self, tmp_path):
        # the on-disk format: magic, version, config header, then each
        # tensor's name, shape and little-endian float32 data
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(tiny_config(), seed=0), tiny_config(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "2e3bd02d9dae1ca8a7e2921e891ceecbcc17a878c9c4a6481e9e12c1164ebf7c"
        )

    def test_magic_guard(self, tmp_path):
        _, _, path = self.build(tmp_path)
        data = path.read_bytes()
        path.write_bytes(b"NOTMAGIC" + data[8:])
        with pytest.raises(
            CheckpointFormatError, match=re.escape(f"{path} is not an encoder")
        ):
            load_checkpoint(path)

    def test_version_guard(self, tmp_path):
        _, _, path = self.build(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(CHECKPOINT_MAGIC)] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(
            CheckpointFormatError, match=re.escape(f"{path}: unsupported") + ".*version"
        ):
            load_checkpoint(path)

    def test_truncation_guard(self, tmp_path):
        _, _, path = self.build(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(
            CheckpointFormatError, match=re.escape(f"{path}: ") + ".*truncated"
        ):
            load_checkpoint(path)

    def test_trailing_bytes_guard(self, tmp_path):
        _, _, path = self.build(tmp_path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(
            CheckpointFormatError, match=re.escape(f"{path}: ") + ".*trailing"
        ):
            load_checkpoint(path)

    def test_config_tensor_shape_mismatch_guard(self, tmp_path):
        _, _, path = self.build(tmp_path)
        data = path.read_bytes()
        # a same-length edit to the embedded config JSON desynchronizes the
        # declared architecture from the stored tensor shapes
        patched = data.replace(b'"vocab_size": 10', b'"vocab_size": 11')
        assert patched != data
        path.write_bytes(patched)
        with pytest.raises(
            CheckpointFormatError, match=re.escape(f"{path}: ") + ".*shape"
        ):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "header",
        [
            lambda h: h.replace(b'"num_layers": 2', b'"num_layers":"2"'),
            lambda h: b"[" + h + b"]",
        ],
        ids=["wrong-typed-value", "not-an-object"],
    )
    def test_config_header_guard(self, tmp_path, header):
        _, _, path = self.build(tmp_path)
        data = path.read_bytes()
        start = len(CHECKPOINT_MAGIC) + 4
        (length,) = struct.unpack("<I", data[start : start + 4])
        original = data[start + 4 : start + 4 + length]
        patched = header(original)
        assert patched != original
        path.write_bytes(
            data[:start]
            + struct.pack("<I", len(patched))
            + patched
            + data[start + 4 + length :]
        )
        with pytest.raises(
            CheckpointFormatError, match=re.escape(f"{path}: bad checkpoint config")
        ):
            load_checkpoint(path)

    def test_gelu_matches_reference_values(self):
        # spot values for the tanh approximation
        zero = np.array([0.0])
        assert _gelu(zero, _gelu_tanh(zero))[0] == 0.0
        x = 0.5
        c = math.sqrt(2.0 / math.pi)
        want = 0.5 * x * (1.0 + math.tanh(c * (x + 0.044715 * x**3)))
        half = np.array([x])
        assert _gelu(half, _gelu_tanh(half))[0] == pytest.approx(want, abs=1e-15)
