import numpy as np
import pytest

from segtool import crf, nn, synth
from segtool.corpus import (
    AnnotatedDocument,
    SegmentLabel,
    SegmentSpan,
    spans_to_bio,
    split_corpus,
    tokenize,
)
from segtool.trainer import (
    MissingStreams,
    SegModel,
    TrainConfig,
    TrainerError,
    evaluate_model,
    gradcheck,
    predict,
    train,
)
from test_embeddings import SegModel64


def small_cfg(**kw):
    base = dict(
        hidden=8, lookup_dim=8, epochs=2, batch_size=4, dropout=0.0, seed=0
    )
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_corpus():
    docs = synth.gen_corpus(n_docs=24, seed=11)
    return split_corpus(docs, (0.75, 0.125, 0.125), seed=0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(TrainerError):
            TrainConfig(dropout=1.5).validate()
        with pytest.raises(TrainerError):
            TrainConfig(learning_rate=0.0).validate()
        with pytest.raises(TrainerError):
            TrainConfig(combiner_mode="mean").validate()
        TrainConfig().validate()

    def test_fingerprint_sensitivity(self):
        a, b = TrainConfig(), TrainConfig(hidden=64)
        assert a.fingerprint() == TrainConfig().fingerprint()
        assert a.fingerprint() != b.fingerprint()

    def test_no_providers_rejected(self):
        with pytest.raises(TrainerError):
            SegModel(small_cfg(use_lookup=False))


class TestTraining:
    def test_zero_epochs(self, tiny_corpus):
        tr, va, _ = tiny_corpus
        model, logs = train(tr, va, None, small_cfg(epochs=0))
        assert logs == []
        assert isinstance(model, SegModel)

    def test_seed_determinism(self, tiny_corpus):
        tr, va, _ = tiny_corpus
        m1, l1 = train(tr, va, None, small_cfg())
        m2, l2 = train(tr, va, None, small_cfg())
        for k, v in m1.named_params().items():
            assert np.array_equal(v, m2.named_params()[k]), k
        assert [l.line() for l in l1] == [l.line() for l in l2]

    def test_loss_improves(self, tiny_corpus):
        tr, va, _ = tiny_corpus
        _, logs = train(tr, va, None, small_cfg(epochs=5))
        assert logs[-1].train_nll < logs[0].train_nll

    def test_log_line_format(self, tiny_corpus):
        tr, va, _ = tiny_corpus
        _, logs = train(tr, va, None, small_cfg(epochs=1))
        line = logs[0].line()
        assert line.startswith("epoch 0 train_nll ")
        for key in ("val_P", "val_R", "val_F1"):
            assert key in line

    def test_missing_streams(self, tiny_corpus):
        tr, va, _ = tiny_corpus
        with pytest.raises(MissingStreams):
            train(tr, va, None, small_cfg(combiner_mode="concat"))

    def test_adam_lr_zero_is_identity(self):
        rng = np.random.default_rng(0)
        params = {"w": rng.standard_normal((3, 4)).astype(np.float32)}
        before = {k: v.copy() for k, v in params.items()}
        opt = nn.Adam(params, lr=0.0)
        opt.step(params, {"w": rng.standard_normal((3, 4)).astype(np.float32)})
        assert params["w"].tobytes() == before["w"].tobytes()


class TestPredictAndCheckpoint:
    def test_predict_empty_doc(self, tiny_corpus):
        tr, va, _ = tiny_corpus
        model, _ = train(tr, va, None, small_cfg(epochs=1))
        empty = AnnotatedDocument("e", "", tokenize(""), [])
        assert predict(model, empty) == []

    def test_predicted_spans_valid(self, tiny_corpus):
        tr, va, te = tiny_corpus
        model, _ = train(tr, va, None, small_cfg(epochs=3))
        for doc in te:
            spans = predict(model, doc)
            last_end = 0
            for sp in spans:
                assert 0 <= sp.start_token < sp.end_token <= len(doc.tokens)
                assert sp.start_token >= last_end
                last_end = sp.end_token

    def test_checkpoint_bit_identical(self, tiny_corpus, tmp_path):
        tr, va, te = tiny_corpus
        model, _ = train(tr, va, None, small_cfg(epochs=2))
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = SegModel.load(path)
        orig, back = model.named_params(), loaded.named_params()
        assert set(orig) == set(back)
        for k in orig:
            assert orig[k].dtype == back[k].dtype == np.float32
            assert orig[k].tobytes() == back[k].tobytes(), k
        for doc in te:
            assert predict(model, doc) == predict(loaded, doc)

    def test_checkpoint_rejects_wrong_version(self, tiny_corpus, tmp_path):
        import json

        tr, va, _ = tiny_corpus
        model, _ = train(tr, va, None, small_cfg(epochs=0))
        path = tmp_path / "m.npz"
        model.save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
            meta = json.loads(str(data["__meta__"]))
        meta["version"] = 99
        np.savez(tmp_path / "bad.npz", __meta__=np.array(json.dumps(meta)), **arrays)
        with pytest.raises(TrainerError):
            SegModel.load(tmp_path / "bad.npz")

    def test_evaluate_model_shape(self, tiny_corpus):
        tr, va, te = tiny_corpus
        model, _ = train(tr, va, None, small_cfg(epochs=1))
        rep = evaluate_model(model, te)
        assert 0.0 <= rep.micro.f1 <= 1.0


def per_document_loss(model, doc, streams, rng, scale):
    """The per-document path the batched model replaced: every layer runs
    on one unpadded (s, d) document, and gradients accumulate scaled."""
    x, f_cache = model._features(doc, streams)
    h, e_cache = model.encoder.encode(x, train=True, rng=rng)
    a_cache = None
    if model.attention is not None:
        h, a_cache = model.attention.forward(h)
    e, l_cache = model.emit.forward(h)
    loss, d_e, crf_g = crf.nll_and_grads(e, model._crf64(), spans_to_bio(doc))
    d_h = model.emit.backward(l_cache, d_e * scale)
    if model.attention is not None:
        d_h = model.attention.backward(a_cache, d_h)
    model._features_backward(f_cache, model.encoder.backward(e_cache, d_h))
    for name in ("transitions", "start", "stop"):
        getattr(model.crf_grads, name)[...] += getattr(crf_g, name) * scale
    return loss


class TestBatchedModel:
    def test_step_matches_per_document_oracle(self):
        # one training step on a ragged batch (85, 1, 47 and 67 tokens), with input
        # and recurrent dropout: the dropout masks come from the rng in the
        # per-document order, so loss and every gradient equal the sum over
        # documents
        docs = synth.gen_corpus(n_docs=4, seed=7)
        one = AnnotatedDocument("one", "ls", tokenize("ls"), [SegmentSpan(0, 1, SegmentLabel.CC)])
        batch = [docs[0], one, docs[1], docs[2]]
        assert len({len(d.tokens) for d in batch}) == len(batch)
        streams = synth.gen_streams(batch, seed=7)
        tokens = [t for d in docs for t in d.token_texts()]
        chars = "".join(sorted({c for t in tokens for c in t}))
        cfg = TrainConfig(
            hidden=5, lookup_dim=4, use_char=True, char_dim=3, char_hidden=3,
            combiner_mode="cdme", d_prime=4, attention_mode="weighted", attention_dim=3,
            dropout=0.3, recurrent_dropout=0.4,
        )
        batched = SegModel64(cfg, tokens, chars, streams.dims)
        oracle = SegModel64(cfg, tokens, chars, streams.dims)
        rng = np.random.default_rng(1)
        for k, v in batched.named_params().items():
            if k.startswith("crf."):
                v[...] = rng.standard_normal(v.shape)
                oracle.named_params()[k][...] = v

        batched.zero_grads()
        oracle.zero_grads()
        losses = batched.batch_loss(batch, streams, train=True, rng=np.random.default_rng(3),
                                    scale=0.25)
        oracle_rng = np.random.default_rng(3)
        expected = [per_document_loss(oracle, d, streams, oracle_rng, 0.25) for d in batch]
        np.testing.assert_allclose(losses, expected, rtol=1e-10)
        for k, g in batched.named_grads().items():
            ref = oracle.named_grads()[k]
            if k == "comb.b":
                # softmax over streams ignores a shift shared by all logits, so
                # this gradient is zero up to round-off in both
                assert abs(g) < 1e-12 and abs(ref) < 1e-12
                continue
            # Relative to the array's largest entry: an entry that sums
            # per-document terms of opposite sign keeps only the absolute
            # round-off of the batched matrix products (~1e-16 of the scale).
            assert np.max(np.abs(g - ref)) <= 1e-10 * np.max(np.abs(ref)), k


class TestGradCheck:
    def test_all_components_pass(self):
        report = gradcheck("all", trials=5, seed=0)
        assert report.passed
        names = {e.component for e in report.entries}
        assert {"crf", "gru", "char", "attention", "dme", "cdme", "logreg", "model"} <= names
        for line in report.lines():
            assert line.endswith("PASS")

    def test_model_below_1e6(self):
        # the composed float64 model over a ragged batch of 1, 4 and 7 tokens
        report = gradcheck("model", trials=30, tolerance=1e-6, seed=1)
        assert report.passed, report.lines()

    def test_unknown_component(self):
        with pytest.raises(TrainerError):
            gradcheck("transformer", trials=1)

    def test_bad_tolerance(self):
        with pytest.raises(TrainerError):
            gradcheck("crf", trials=1, tolerance=0.0)

    def test_corrupted_gradient_fails(self):
        # the tamper hook injects a large error, standing in for a broken
        # backward pass
        report = gradcheck("gru", trials=5, _tamper=lambda name, worst: worst + 1.0)
        assert not report.passed
        assert report.lines()[0].endswith("FAIL")
