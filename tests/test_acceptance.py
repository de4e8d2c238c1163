"""Acceptance gate: twelve verifiable end-to-end claims about this package.

Each test prints one ``ACCEPTANCE NN <name>: PASS`` (or ``FAIL``) line even
under pytest's capture, so the suite's output doubles as the acceptance
report.  Tolerances and time limits are part of the contract and asserted
explicitly.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from bisect import bisect_left
from collections import Counter
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    encoder_gradient_check,
    make_doc,
    separable_fixture,
    split_documents,
)
from ppkmsent import bow, cli, corpus, evaluation, lexicon, pipeline
from ppkmsent.data import default_lexicon
from ppkmsent.encoder import config as enc_config
from ppkmsent.encoder import model as enc_model
from ppkmsent.encoder import train as enc_train
from ppkmsent.encoder import vocab as enc_vocab
from ppkmsent.fixtures import synthetic_documents, synthetic_tweets, write_jsonl
from ppkmsent.preprocess import SentimentLabel, labeled_ids, token_ids

NEG, NEU, POS = (
    SentimentLabel.NEGATIVE,
    SentimentLabel.NEUTRAL,
    SentimentLabel.POSITIVE,
)


@contextmanager
def criterion(capsys, number: int, name: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_01_metrics_oracle_equivalence(capsys):
    """Every 3x3 confusion matrix with entries in {0,1,2} scores identically
    to an exact-rational reimplementation, in under five seconds."""
    with criterion(capsys, 1, "metrics-oracle-equivalence"):
        started = time.perf_counter()
        checked = 0
        for values in itertools.product(range(3), repeat=9):
            rows = (tuple(values[0:3]), tuple(values[3:6]), tuple(values[6:9]))
            cm = evaluation.ConfusionMatrix(counts=rows)
            if cm.total == 0:
                with pytest.raises(ValueError):
                    evaluation.metrics(cm)
                continue
            report = evaluation.metrics(cm)
            f_scores = []
            for c in range(3):
                tp = rows[c][c]
                fp = sum(rows[r][c] for r in range(3)) - tp
                fn = sum(rows[c]) - tp
                precision = float(Fraction(tp, tp + fp)) if tp + fp else 0.0
                recall = float(Fraction(tp, tp + fn)) if tp + fn else 0.0
                f_score = (
                    float(Fraction(2 * tp, 2 * tp + fp + fn))
                    if 2 * tp + fp + fn
                    else 0.0
                )
                got = report.per_class[c]
                assert got.precision == precision
                assert got.recall == recall
                assert got.f_score == f_score
                f_scores.append(f_score)
            assert report.macro_f == sum(f_scores) / 3
            diagonal = sum(rows[c][c] for c in range(3))
            assert report.accuracy == float(Fraction(diagonal, cm.total))
            checked += 1
        elapsed = time.perf_counter() - started
        assert checked == 3**9 - 1
        assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"


def test_02_worked_metric_case(capsys):
    """A class with TP=8, FP=2, FN=4 yields precision 0.8, recall 2/3, and
    F-score 16/22 at the stated tolerances."""
    with criterion(capsys, 2, "worked-metric-case"):
        report = evaluation.metrics(
            evaluation.ConfusionMatrix(
                counts=((8, 3, 1), (2, 5, 0), (0, 0, 6))
            )
        )
        negative = report.per_class[0]
        assert negative.precision == pytest.approx(0.8, abs=1e-12)
        assert negative.recall == pytest.approx(0.6667, abs=1e-4)
        assert negative.f_score == pytest.approx(16 / 22, abs=1e-9)


def test_03_lexicon_brute_force(capsys):
    """Sign-of-count scoring matches a counting oracle on every token
    sequence of length <= 3 over a four-word universe, and the canonical
    examples land on their expected classes."""
    with criterion(capsys, 3, "lexicon-brute-force"):
        universe = ("dermawan", "basi", "bau", "ppkm")
        lex = lexicon.LexiconDict(
            positive=frozenset({"dermawan"}),
            negative=frozenset({"basi", "bau"}),
        )
        cases = 0
        for length in range(4):
            for tokens in itertools.product(universe, repeat=length):
                verdict = lexicon.score_document(list(tokens), lex)
                want_score = sum(
                    1 if tok in lex.positive else -1 if tok in lex.negative else 0
                    for tok in tokens
                )
                assert verdict.score == want_score
                if want_score > 0:
                    assert verdict.label is POS
                elif want_score < 0:
                    assert verdict.label is NEG
                else:
                    assert verdict.label is NEU
                cases += 1
        assert cases == 1 + 4 + 16 + 64

        bundled = default_lexicon()
        assert lexicon.score_document(["dermawan"], bundled).label is POS
        assert lexicon.score_document(["basi", "bau"], bundled).label is NEG
        no_match = lexicon.score_document(["ppkm"], bundled)
        assert no_match.score == 0
        assert no_match.label is NEU


def test_04_mnb_bayes_oracle(capsys):
    """Posterior log-scores match an exact-rational Bayes computation within
    1e-9 on randomized corpora of at most 10 documents over 6 token types."""
    with criterion(capsys, 4, "mnb-bayes-oracle"):
        rng = random.Random(0)
        universe = [f"t{i}" for i in range(6)]
        for _ in range(60):
            n_docs = rng.randint(3, 10)
            labels = [NEG, NEU, POS] + [
                rng.choice([NEG, NEU, POS]) for _ in range(n_docs - 3)
            ]
            docs = [
                make_doc(
                    [rng.choice(universe) for _ in range(rng.randint(0, 8))],
                    label,
                    f"d{i}",
                )
                for i, label in enumerate(labels)
            ]
            labeled = labeled_ids(docs)
            vocab = bow.build_vocab(labeled.documents)
            assert vocab.size <= 6
            model = bow.mnb_train(labeled, vocab, alpha=1.0)
            query = make_doc(
                [rng.choice(universe) for _ in range(rng.randint(0, 6))],
                None,
                "query",
            )
            _, got_scores = bow.mnb_predict(query, model, vocab)

            vocab_tokens = set(vocab.token_to_index)
            for label in SentimentLabel:
                class_docs = [d for d in docs if d.label is label]
                counts = Counter(
                    tok
                    for doc in class_docs
                    for tok in doc.tokens
                    if tok in vocab_tokens
                )
                total = sum(counts.values())
                want = math.log(Fraction(len(class_docs), n_docs))
                for tok in query.tokens:
                    if tok in vocab_tokens:
                        want += math.log(
                            Fraction(counts[tok] + 1, total + vocab.size)
                        )
                assert abs(got_scores[int(label)] - want) <= 1e-9


def test_05_svm_sanity(capsys):
    """On the separable two-feature fixture the trained separator reaches
    100% training accuracy, and doubling the regularization strength never
    increases the converged weight norm."""
    with criterion(capsys, 5, "svm-sanity"):
        docs = separable_fixture()
        labeled = labeled_ids(docs)
        vocab = bow.build_vocab(labeled.documents)
        model = bow.svm_train(
            labeled,
            vocab,
            bow.SvmConfig(
                regularization_lambda=0.01, epochs=50, seed=0, feature_mode="tf"
            ),
        )
        predicted = [bow.svm_predict(doc, model, vocab)[0] for doc in docs]
        assert predicted == [doc.label for doc in docs]

        norms = []
        for lam in (0.01, 0.02, 0.04, 0.08):
            fitted = bow.svm_train(
                labeled,
                vocab,
                bow.SvmConfig(
                    regularization_lambda=lam,
                    epochs=50,
                    seed=0,
                    feature_mode="tf",
                ),
            )
            norms.append(float(np.linalg.norm(fitted.weights)))
        for smaller_lam, larger_lam in zip(norms, norms[1:]):
            assert larger_lam <= smaller_lam + 1e-12, norms


def test_06_encoder_gradient_check(capsys):
    """Analytic gradients for every parameter group match central finite
    differences with relative error below 1e-4, in under a minute."""
    with criterion(capsys, 6, "encoder-gradient-check"):
        started = time.perf_counter()
        errors = encoder_gradient_check()
        elapsed = time.perf_counter() - started
        assert len(errors) == 14  # embeddings, one full block, head
        worst = max(errors.values())
        assert worst < 1e-4, errors
        assert elapsed < 60.0, f"gradient check took {elapsed:.2f}s"


def test_07_attention_invariants(capsys):
    """Attention and softmax rows are unit-sum within 1e-6, and appending
    padding positions never moves the logits by more than 1e-6."""
    with criterion(capsys, 7, "attention-invariants"):
        for logits_row in ([0.0, 0.0, 0.0], [5.0, -3.0, 11.0], [1e6, 0.0, -1e6]):
            out = enc_model.softmax(np.array([logits_row]))
            assert abs(float(out.sum()) - 1.0) <= 1e-6

        config = enc_config.EncoderConfig(
            num_layers=2,
            num_heads=2,
            hidden_size=8,
            feedforward_size=16,
            max_sequence_length=10,
            vocab_size=12,
            dropout_rate=0.0,
        )
        params = enc_model.init_params(config, seed=0)
        ids = np.array([[2, 4, 5, 6, 3], [2, 7, 8, 3, 0]])
        mask = np.array(
            [[1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0, 0.0]]
        )
        result = enc_model.forward(ids, mask, params, config, want_cache=True)
        for layer in result.cache["layers"]:
            probs = layer["probs"]
            assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) <= 1e-6
            # padded keys receive no attention mass
            assert float(np.max(probs[1, :, :, 4])) <= 1e-6

        short = enc_model.forward(
            np.array([[2, 4, 5, 3]]),
            np.array([[1.0, 1.0, 1.0, 1.0]]),
            params,
            config,
        )
        padded = enc_model.forward(
            np.array([[2, 4, 5, 3, 0, 0, 0, 0, 0, 0]]),
            np.array([[1.0, 1.0, 1.0, 1.0] + [0.0] * 6]),
            params,
            config,
        )
        assert np.max(np.abs(short.logits - padded.logits)) <= 1e-6


def test_08_desk_scale_training(capsys):
    """On the 600-document synthetic corpus under the reference split
    proportions, the desk-profile encoder reaches >= 95% train accuracy and
    >= 90% test macro-F, the bag-of-words baselines reach >= 90% test
    macro-F, and the whole exercise stays under ten minutes."""
    with criterion(capsys, 8, "desk-scale-training"):
        started = time.perf_counter()
        docs = synthetic_documents(600, seed=0)
        spec = corpus.SplitSpec(
            train_fraction=corpus.PAPER_SPLIT_FRACTIONS[0],
            validation_fraction=corpus.PAPER_SPLIT_FRACTIONS[1],
            test_fraction=corpus.PAPER_SPLIT_FRACTIONS[2],
            seed=0,
            stratified=True,
        )
        train_docs, val_docs, test_docs = split_documents(docs, spec)
        assert len(train_docs) + len(val_docs) + len(test_docs) == 600
        true_labels = [doc.label for doc in test_docs]
        train, val = labeled_ids(train_docs), labeled_ids(val_docs)

        token_vocab = enc_vocab.build_token_vocab(train.documents)
        encoder_config = enc_config.desk_config(vocab_size=token_vocab.size)
        params, history = enc_train.fine_tune(
            train, val, token_vocab, encoder_config, enc_config.DESK_PROFILE,
        )
        assert len(history) == 10
        assert history[-1].train_acc >= 0.95
        predicted = enc_train.predict_batch(
            token_ids(test_docs), params, token_vocab, encoder_config
        )
        encoder_report = evaluation.metrics(
            evaluation.confusion(true_labels, predicted)
        )
        assert encoder_report.macro_f >= 0.90

        bow_vocab = bow.build_vocab(train.documents)
        mnb_model = bow.mnb_train(train, bow_vocab)
        mnb_report = evaluation.metrics(
            evaluation.confusion(
                true_labels,
                [bow.mnb_predict(d, mnb_model, bow_vocab)[0] for d in test_docs],
            )
        )
        assert mnb_report.macro_f >= 0.90

        svm_model = bow.svm_train(train, bow_vocab, bow.SvmConfig())
        svm_report = evaluation.metrics(
            evaluation.confusion(
                true_labels,
                [bow.svm_predict(d, svm_model, bow_vocab)[0] for d in test_docs],
            )
        )
        assert svm_report.macro_f >= 0.90

        elapsed = time.perf_counter() - started
        assert elapsed < 600.0, f"desk-scale training took {elapsed:.1f}s"


def test_09_input_format_contract(capsys):
    """Across 1,000 random token lists, every encoded sequence starts with
    [CLS], carries exactly one [SEP] before any padding, and its mask marks
    exactly the non-pad positions."""
    with criterion(capsys, 9, "input-format-contract"):
        rng = random.Random(20210703)
        base_docs = [
            make_doc([f"w{i}" for i in range(20)], doc_id="vocab-source")
        ]
        vocab = enc_vocab.build_token_vocab(token_ids(base_docs))
        universe = [f"w{i}" for i in range(20)] + ["oov-a", "oov-b"]
        for _ in range(1000):
            tokens = [
                rng.choice(universe) for _ in range(rng.randint(0, 40))
            ]
            seq_len = rng.randint(3, 24)
            ids, mask = enc_vocab.format_input(tokens, vocab, seq_len)
            assert ids.shape == (seq_len,)
            assert ids[0] == enc_vocab.CLS_ID
            sep_positions = np.flatnonzero(ids == enc_vocab.SEP_ID)
            assert sep_positions.size == 1
            sep = int(sep_positions[0])
            assert np.all(ids[sep + 1 :] == enc_vocab.PAD_ID)
            assert np.all(ids[:sep] != enc_vocab.PAD_ID)
            assert np.array_equal(mask == 0.0, ids == enc_vocab.PAD_ID)


def test_10_reference_profile_round_trip(capsys):
    """The full-scale training profile serializes and reloads exactly as
    batch size 32, 10 epochs, learning rate 3e-6."""
    with criterion(capsys, 10, "reference-profile-round-trip"):
        profile = enc_config.PAPER_PROFILE
        payload = json.loads(json.dumps(profile.to_dict()))
        reloaded = enc_config.TrainProfile.from_dict(payload)
        assert reloaded == profile
        assert reloaded.batch_size == 32
        assert reloaded.epochs == 10
        assert reloaded.learning_rate == 3e-6


def test_11_rate_limit_budget(capsys):
    """Over a randomized 10,000-event schedule with bursts and idle gaps,
    no fifteen-minute window ever contains more than 900 granted permits."""
    with criterion(capsys, 11, "rate-limit-budget"):
        rng = random.Random(7)
        state = corpus.RateLimitState()
        assert state.window_length == timedelta(minutes=15)
        assert state.max_requests == 900
        now = datetime(2021, 7, 3, 10, 0, 0, tzinfo=timezone.utc)
        grant_times: list[datetime] = []
        denials = 0
        events = 0
        # alternate sustained regimes: bursts dense enough to exhaust the
        # budget, medium traffic, and idle stretches that drain the window
        while events < 10_000:
            regime = rng.randrange(3)
            if regime == 0:
                length, max_gap = rng.randint(1200, 2500), 0.4
            elif regime == 1:
                length, max_gap = rng.randint(100, 400), 5.0
            else:
                length, max_gap = 1, 1800.0
            for _ in range(min(length, 10_000 - events)):
                now += timedelta(seconds=rng.random() * max_gap)
                decision = corpus.acquire_permit(state, now)
                state = decision.state
                events += 1
                if decision.granted:
                    grant_times.append(now)
                else:
                    denials += 1
                    assert decision.retry_at is not None
                    assert decision.retry_at > now

        assert denials > 0, "schedule never saturated the budget"
        assert grant_times == sorted(grant_times)
        window = timedelta(minutes=15)
        for index, granted_at in enumerate(grant_times):
            upper = bisect_left(grant_times, granted_at + window)
            assert upper - index <= 900, (
                f"{upper - index} grants inside the window opening at "
                f"{granted_at.isoformat()}"
            )


def test_12_end_to_end_determinism(capsys, tmp_path):
    """Two complete CLI pipeline runs with the same config and seed produce
    byte-identical manifests, model files, reports, and charts."""
    with criterion(capsys, 12, "end-to-end-determinism"):
        def run_pipeline(workspace: Path) -> Path:
            workspace.mkdir()
            write_jsonl(synthetic_tweets(120, seed=6), workspace / "raw.jsonl")
            shared = (
                "output_dir = out\n"
                "corpus_path = raw.jsonl\n"
                "train_fraction = 6/10\n"
                "validation_fraction = 2/10\n"
                "test_fraction = 2/10\n"
            )
            mnb_cfg = workspace / "mnb.cfg"
            mnb_cfg.write_text(shared + "model = mnb\n", encoding="utf-8")
            svm_cfg = workspace / "svm.cfg"
            svm_cfg.write_text(shared + "model = svm\n", encoding="utf-8")
            for stage, cfg in (
                ("ingest", mnb_cfg),
                ("label", mnb_cfg),
                ("train", mnb_cfg),
                ("train", svm_cfg),
                ("eval", mnb_cfg),
                ("viz", mnb_cfg),
            ):
                code = cli.main([stage, "-c", str(cfg)])
                assert code == cli.EXIT_OK, (stage, cfg.name)
            return workspace / "out"

        out_a = run_pipeline(tmp_path / "run-a")
        out_b = run_pipeline(tmp_path / "run-b")
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b
        manifests = [n for n in names_a if n.endswith(".manifest.json")]
        assert manifests == [
            f"{stage}.manifest.json"
            for stage in ("eval", "ingest", "label", "train_mnb", "train_svm", "viz")
        ]
        assert "mnb_model.json" in names_a
        assert "svm_model.json" in names_a
        assert "metrics_mnb.json" in names_a
        assert "metrics_svm.json" in names_a
        assert pipeline.COMPARISON_CSV_FILE in names_a
        assert any(n.endswith(".svg") for n in names_a)
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
