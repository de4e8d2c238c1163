"""Tests for the from-scratch transformer encoder classifier."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    _dropout,
    _gelu,
    _layer_norm,
    backward,
    cross_entropy,
    forward,
    init_params,
    softmax,
)
from ppkmsent.encoder.train import (
    _trim,
    encode_documents,
    fine_tune,
    history_to_csv,
    predict,
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
)
from ppkmsent.errors import (
    CheckpointFormatError,
    ConfigError,
    EncoderNumericsError,
    TrainingDivergedError,
)
from ppkmsent.preprocess import SentimentLabel

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
        vocab = build_token_vocab([make_doc(["x"], doc_id="a")])
        assert vocab.tokens_in_id_order()[:4] == ["[PAD]", "[UNK]", "[CLS]", "[SEP]"]
        assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID) == (0, 1, 2, 3)

    def test_content_ranked_by_frequency_then_lexicographic(self):
        docs = [
            make_doc(["b", "b", "c"], doc_id="a"),
            make_doc(["a", "c"], doc_id="b"),
        ]
        vocab = build_token_vocab(docs)
        # counts: b=2, c=2, a=1 -> b, c by tie-break then a
        assert vocab.tokens_in_id_order()[4:] == ["b", "c", "a"]

    def test_max_size_truncates_after_reserved(self):
        docs = [make_doc(["a", "b", "c"], doc_id="a")]
        vocab = build_token_vocab(docs, max_size=5)
        assert vocab.size == 5
        assert vocab.tokens_in_id_order()[4:] == ["a"]

    def test_min_count_threshold(self):
        docs = [make_doc(["a", "a", "b"], doc_id="a")]
        vocab = build_token_vocab(docs, min_count=2)
        assert vocab.tokens_in_id_order()[4:] == ["a"]

    def test_reserved_tokens_in_text_are_ignored(self):
        docs = [make_doc(["[PAD]", "[CLS]", "real"], doc_id="a")]
        vocab = build_token_vocab(docs)
        assert vocab.tokens_in_id_order()[4:] == ["real"]

    def test_lookup_falls_back_to_unk(self):
        vocab = build_token_vocab([make_doc(["x"], doc_id="a")])
        assert vocab.lookup("x") == 4
        assert vocab.lookup("missing") == UNK_ID

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
        with pytest.raises(ConfigError, match="max_size"):
            build_token_vocab([], max_size=3)
        with pytest.raises(ConfigError, match="min_count"):
            build_token_vocab([], min_count=0)

    def test_dict_round_trip(self):
        vocab = build_token_vocab([make_doc(["x", "y"], doc_id="a")])
        assert TokenVocab.from_dict(vocab.to_dict()) == vocab
        with pytest.raises(ConfigError, match="token list"):
            TokenVocab.from_dict({"tokens": "nope"})


class TestFormatInput:
    def vocab(self):
        return build_token_vocab(
            [make_doc(["jualan", "saya", "rugi"], doc_id="a")]
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


class TestInitParams:
    def test_shapes_and_constant_tensors(self):
        config = tiny_config(num_layers=2)
        params = init_params(config, seed=0)
        shapes = {name: t.shape for name, t in params.named_tensors()}
        assert shapes["token_embedding"] == (10, 4)
        assert shapes["position_embedding"] == (6, 4)
        assert shapes["layers.0.wq"] == (4, 4)
        assert shapes["layers.1.w1"] == (4, 8)
        assert shapes["layers.1.w2"] == (8, 4)
        assert shapes["head_w"] == (4, 3)
        assert shapes["head_b"] == (3,)
        for name, tensor in params.named_tensors():
            if name.endswith("_gain"):
                assert np.all(tensor == 1.0)
            elif name.endswith(("_bias", "head_b")):
                assert np.all(tensor == 0.0)

    def test_truncated_normal_bounds(self):
        params = init_params(tiny_config(vocab_size=200, hidden_size=16,
                                         feedforward_size=32, num_heads=2), seed=1)
        for name, tensor in params.named_tensors():
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
            a.named_tensors(), b.named_tensors(), c.named_tensors()
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


class TestAttention:
    def run_tiny(self, ids, mask, **config_overrides):
        config = tiny_config(**config_overrides)
        params = init_params(config, seed=0)
        return config, params, forward(np.array(ids), np.array(mask), params, config)

    def test_rows_sum_to_one_and_padding_gets_no_weight(self):
        _, _, result = self.run_tiny(
            [[2, 4, 5, 3], [2, 6, 3, 0]],
            [[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0]],
            max_sequence_length=4,
        )
        (probs,) = result.attentions
        assert probs.shape == (2, 1, 4, 4)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
        # sequence 1 has its last key masked
        assert float(np.max(probs[1, :, :, 3])) < 1e-9

    def test_zero_key_projection_gives_uniform_attention(self):
        config = tiny_config(max_sequence_length=4)
        params = init_params(config, seed=0)
        params.layers[0].wk = np.zeros_like(params.layers[0].wk)
        result = forward(
            np.array([[2, 4, 5, 3], [2, 6, 3, 0]]),
            np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0]]),
            params,
            config,
        )
        (probs,) = result.attentions
        assert np.allclose(probs[0], 0.25, atol=1e-12)
        assert np.allclose(probs[1, :, :, :3], 1.0 / 3.0, atol=1e-12)

    def test_multi_head_rows_also_normalize(self):
        _, _, result = self.run_tiny(
            [[2, 4, 5, 3]],
            [[1.0, 1.0, 1.0, 1.0]],
            num_heads=2,
            max_sequence_length=4,
        )
        (probs,) = result.attentions
        assert probs.shape == (1, 2, 4, 4)
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
        params.layers[0].w2 = params.layers[0].w2 * float("nan")
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

    tok = params.token_embedding.tolist()
    pos = params.position_embedding.tolist()
    x = [[tok[t][j] + pos[i][j] for j in range(d)] for i, t in enumerate(ids)]
    n = len(ids)
    for layer in params.layers:
        q = matmul(x, layer.wq.tolist())
        k = matmul(x, layer.wk.tolist())
        v = matmul(x, layer.wv.tolist())
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
        attn = matmul(context, layer.wo.tolist())
        x1 = layer_norm(
            [[a + b for a, b in zip(xr, ar)] for xr, ar in zip(x, attn)],
            layer.ln1_gain.tolist(),
            layer.ln1_bias.tolist(),
        )
        hidden = matmul(x1, layer.w1.tolist())
        activated = [[gelu(h) for h in row] for row in hidden]
        ffn = matmul(activated, layer.w2.tolist())
        x = layer_norm(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(x1, ffn)],
            layer.ln2_gain.tolist(),
            layer.ln2_bias.tolist(),
        )
    head_w = params.head_w.tolist()
    head_b = params.head_b.tolist()
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
        params = init_params(config, seed=5)
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
        params = init_params(config, seed=6)
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
        a = forward(ids, mask, params, config, "train", rng=np.random.default_rng(1))
        b = forward(ids, mask, params, config, "train", rng=np.random.default_rng(1))
        c = forward(ids, mask, params, config, "train", rng=np.random.default_rng(2))
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


class TestFineTune:
    def setup_training(self, **profile_overrides):
        docs = three_class_docs() * 2
        docs = [
            make_doc(d.tokens, d.label, f"{d.id}-{i}") for i, d in enumerate(docs)
        ]
        vocab = build_token_vocab(docs)
        config = tiny_config(
            vocab_size=vocab.size, hidden_size=8, num_heads=2, max_sequence_length=6
        )
        defaults = dict(batch_size=3, epochs=20, learning_rate=1e-2, seed=0)
        defaults.update(profile_overrides)
        return docs, vocab, config, TrainProfile(**defaults)

    def test_deterministic_given_seed(self):
        docs, vocab, config, profile = self.setup_training(epochs=3)
        params_a, history_a = fine_tune(docs, docs[:2], vocab, config, profile)
        params_b, history_b = fine_tune(docs, docs[:2], vocab, config, profile)
        for (name, ta), (_, tb) in zip(
            params_a.named_tensors(), params_b.named_tensors()
        ):
            assert np.array_equal(ta, tb), name
        assert history_a == history_b

    def test_learns_a_separable_three_class_corpus(self):
        docs, vocab, config, profile = self.setup_training()
        params, history = fine_tune(docs, [], vocab, config, profile)
        assert len(history) == profile.epochs
        assert history[-1].train_acc == 1.0
        assert history[-1].train_loss < history[0].train_loss
        assert [predict(d, params, vocab, config)[0] for d in docs] == [
            d.label for d in docs
        ]

    def test_zero_learning_rate_keeps_initial_weights(self):
        docs, vocab, config, profile = self.setup_training(
            epochs=2, learning_rate=0.0
        )
        params, _ = fine_tune(docs, [], vocab, config, profile)
        init_seq, _ = np.random.SeedSequence(profile.seed).spawn(2)
        reference = init_params(config, init_seq)
        for (name, got), (_, want) in zip(
            params.named_tensors(), reference.named_tensors()
        ):
            assert np.array_equal(got, want), name

    def test_empty_validation_set_records_nan(self):
        docs, vocab, config, profile = self.setup_training(epochs=2)
        _, history = fine_tune(docs, [], vocab, config, profile)
        assert all(math.isnan(row.val_loss) for row in history)
        assert all(math.isnan(row.val_acc) for row in history)

    def test_validation_metrics_tracked_when_present(self):
        docs, vocab, config, profile = self.setup_training(epochs=2)
        _, history = fine_tune(docs, docs[:3], vocab, config, profile)
        assert all(math.isfinite(row.val_loss) for row in history)
        assert all(0.0 <= row.val_acc <= 1.0 for row in history)

    def test_enormous_learning_rate_diverges(self):
        docs, vocab, config, profile = self.setup_training(
            epochs=3, learning_rate=1e300
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as excinfo:
                fine_tune(docs, [], vocab, config, profile)
        assert excinfo.value.epoch == 1

    def test_unlabeled_document_rejected(self):
        docs, vocab, config, profile = self.setup_training(epochs=1)
        docs[0] = make_doc(docs[0].tokens, None, docs[0].id)
        with pytest.raises(ConfigError, match="no label"):
            fine_tune(docs, [], vocab, config, profile)

    def test_empty_training_set_rejected(self):
        _, vocab, config, profile = self.setup_training(epochs=1)
        with pytest.raises(ConfigError, match="empty"):
            fine_tune([], [], vocab, config, profile)


class TestEncodeAndPredict:
    def test_encode_documents_shapes(self):
        docs = three_class_docs()
        vocab = build_token_vocab(docs)
        config = tiny_config(vocab_size=vocab.size)
        ids, mask, labels = encode_documents(docs, vocab, config)
        assert ids.shape == (3, 6)
        assert mask.shape == (3, 6)
        assert labels.tolist() == [0, 1, 2]

    def test_encode_unlabeled_with_relaxed_labels(self):
        docs = [make_doc(["a"], None, "u")]
        vocab = build_token_vocab(docs)
        config = tiny_config(vocab_size=vocab.size)
        ids, mask, labels = encode_documents(
            docs, vocab, config, require_labels=False
        )
        assert labels is None
        with pytest.raises(ConfigError, match="no label"):
            encode_documents(docs, vocab, config)

    def test_predict_probabilities_sum_to_one(self):
        docs = three_class_docs()
        vocab = build_token_vocab(docs)
        config = tiny_config(vocab_size=vocab.size)
        params = init_params(config, seed=0)
        label, probs = predict(docs[0], params, vocab, config)
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert label is SentimentLabel(int(np.argmax(probs)))

    def test_predict_batch_agrees_with_predict(self):
        docs = three_class_docs() + [make_doc(["ppkm", "rugi"], None, "q")]
        vocab = build_token_vocab(docs)
        config = tiny_config(vocab_size=vocab.size)
        params = init_params(config, seed=0)
        batched = predict_batch(docs, params, vocab, config, batch_size=2)
        single = [predict(d, params, vocab, config)[0] for d in docs]
        assert batched == single


class TestBatchTrimming:
    def varied_docs(self):
        words = ["rugi", "parah", "ppkm", "bagus", "sekali", "berlaku"]
        return [
            make_doc(words[: 1 + i % 6], SentimentLabel(i % 3), f"d{i}")
            for i in range(12)
        ]

    def test_trimmed_batch_matches_fully_padded_batch(self):
        docs = self.varied_docs()[:4]
        vocab = build_token_vocab(docs)
        config = tiny_config(
            vocab_size=vocab.size,
            num_layers=2,
            num_heads=2,
            hidden_size=8,
            max_sequence_length=12,
        )
        params = init_params(config, seed=3)
        # lift the gradients well above the tolerance, as the gradient check does
        for name, tensor in params.named_tensors():
            if not name.endswith(("_gain", "_bias", "head_b")):
                tensor *= 25.0
        ids, mask, labels = encode_documents(docs, vocab, config)
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

    def test_forward_sees_each_batch_cut_to_its_longest_sequence(
        self, monkeypatch
    ):
        docs = self.varied_docs()
        vocab = build_token_vocab(docs)
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
        params, _ = fine_tune(docs, docs[:4], vocab, config, profile)
        predict_batch(docs, params, vocab, config, batch_size=5)
        predict(docs[0], params, vocab, config)
        # per epoch: 3 train + 3 eval batches and 1 validation batch;
        # then 3 predict_batch batches and one predict call
        assert len(masks) == 2 * 7 + 3 + 1
        for mask in masks:
            assert mask.shape[1] == int(mask.sum(axis=1).max())
        assert {mask.shape[1] for mask in masks} == {3, 6, 7, 8}


class TestHistoryCsv:
    def test_schedule_comment_and_rows(self):
        docs = three_class_docs()
        vocab = build_token_vocab(docs)
        config = tiny_config(vocab_size=vocab.size)
        profile = TrainProfile(batch_size=3, epochs=2, learning_rate=3e-6, seed=0)
        _, history = fine_tune(docs, docs, vocab, config, profile)
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
        config, params, path = self.build(tmp_path)
        loaded_params, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        for (name, original), (_, restored) in zip(
            params.named_tensors(), loaded_params.named_tensors()
        ):
            assert restored.dtype == np.float64
            assert np.array_equal(
                restored, original.astype(np.float32).astype(np.float64)
            ), name

    def test_round_trip_preserves_predictions(self, tmp_path):
        config, params, path = self.build(tmp_path)
        loaded_params, loaded_config = load_checkpoint(path)
        ids = np.array([[2, 4, 5, 3]])
        mask = np.ones((1, 4))
        a = forward(ids, mask, params, config).logits
        b = forward(ids, mask, loaded_params, loaded_config).logits
        assert np.allclose(a, b, atol=1e-5)

    def test_magic_guard(self, tmp_path):
        _, _, path = self.build(tmp_path)
        data = path.read_bytes()
        path.write_bytes(b"NOTMAGIC" + data[8:])
        with pytest.raises(CheckpointFormatError, match="not an encoder"):
            load_checkpoint(path)

    def test_version_guard(self, tmp_path):
        _, _, path = self.build(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(CHECKPOINT_MAGIC)] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(path)

    def test_truncation_guard(self, tmp_path):
        _, _, path = self.build(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_guard(self, tmp_path):
        _, _, path = self.build(tmp_path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CheckpointFormatError, match="trailing"):
            load_checkpoint(path)

    def test_config_tensor_shape_mismatch_guard(self, tmp_path):
        _, _, path = self.build(tmp_path)
        data = path.read_bytes()
        # a same-length edit to the embedded config JSON desynchronizes the
        # declared architecture from the stored tensor shapes
        patched = data.replace(b'"vocab_size": 10', b'"vocab_size": 11')
        assert patched != data
        path.write_bytes(patched)
        with pytest.raises(CheckpointFormatError, match="shape"):
            load_checkpoint(path)

    def test_gelu_matches_reference_values(self):
        # spot values for the tanh approximation
        assert _gelu(np.array([0.0]))[0] == 0.0
        x = 0.5
        c = math.sqrt(2.0 / math.pi)
        want = 0.5 * x * (1.0 + math.tanh(c * (x + 0.044715 * x**3)))
        assert _gelu(np.array([x]))[0] == pytest.approx(want, abs=1e-15)
