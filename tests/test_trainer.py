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
from segtool.embeddings import CharEncoder, MetaCombiner
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

    @pytest.mark.parametrize("key, kw", [
        ("batch_size", {"batch_size": 0}),
        ("hidden", {"hidden": 0}),
        ("patience", {"patience": 0}),
        ("lookup_dim", {"lookup_dim": 0}),
        ("subword_buckets", {"use_subword": True, "subword_buckets": 0}),
        ("char_hidden", {"use_char": True, "char_hidden": -1}),
        ("d_prime", {"combiner_mode": "dme", "d_prime": 0}),
        ("attention_dim", {"attention_mode": "weighted", "attention_dim": 0}),
        ("epochs", {"epochs": -1}),
        ("learning_rate", {"learning_rate": float("nan")}),
        ("learning_rate", {"learning_rate": float("inf")}),
        ("clip_norm", {"clip_norm": -1.0}),
        ("clip_norm", {"clip_norm": 0.0}),
        ("clip_norm", {"clip_norm": float("nan")}),
        ("clip_norm", {"clip_norm": float("inf")}),
    ])
    def test_sizes_checked(self, key, kw):
        with pytest.raises(TrainerError, match=key):
            TrainConfig(**kw).validate()

    def test_disabled_provider_sizes_not_checked(self):
        TrainConfig(subword_dim=0, char_dim=0, d_prime=0, epochs=0).validate()

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
        for k, v in m1.params.items():
            assert np.array_equal(v, m2.params[k]), k
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
        orig, back = model.params, loaded.params
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

    def test_checkpoint_rejects_config_edited_under_old_fingerprint(self, tmp_path):
        import json

        cfg = TrainConfig(hidden=4, lookup_dim=3, combiner_mode="concat", d_prime=2,
                          stream_indices=(0, 2))
        path = tmp_path / "m.npz"
        SegModel(cfg, ["ls", "-la"], stream_dims=[3, 4, 5]).save(path)
        assert SegModel.load(path).cfg == cfg
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
            meta = json.loads(str(data["__meta__"]))
        meta["config"]["epochs"] = 7  # changes no array, only the fingerprint
        bad = tmp_path / "bad.npz"
        np.savez(bad, __meta__=np.array(json.dumps(meta)), **arrays)
        with pytest.raises(TrainerError) as exc:
            SegModel.load(bad)
        assert str(exc.value) == (
            f"{bad}: config does not match its fingerprint {cfg.fingerprint()!r}"
        )

    def test_evaluate_model_shape(self, tiny_corpus):
        tr, va, te = tiny_corpus
        model, _ = train(tr, va, None, small_cfg(epochs=1))
        rep = evaluate_model(model, te)
        assert 0.0 <= rep.micro.f1 <= 1.0


def per_document_features(model, doc, streams):
    """One document's unpadded (s, d) features, each provider run on its
    tokens alone (the feature stage before it took the mini-batch)."""
    toks = doc.token_texts()
    cols, caches = [], {}
    if model.lookup is not None:
        out, idx = model.lookup.embed_sequence(toks)
        cols.append(out)
        caches["lookup"] = idx
    if model.subword is not None:
        out, idx = model.subword.embed_sequence(toks)
        cols.append(out)
        caches["subword"] = idx
    if model.char is not None:
        out, caches["char"] = model.char.forward(toks)
        cols.append(out)
    if model.combiner is not None:
        arrs = model._doc_streams(doc, streams)
        out, _, c_cache = model.combiner.forward(arrs)
        cols.append(out.astype(model.DTYPE))
        caches["comb"] = c_cache
    x = np.concatenate(cols, axis=1)
    caches["widths"] = [c.shape[1] for c in cols]
    return x, caches


def per_document_features_backward(model, caches, d_x):
    offs = np.cumsum([0] + caches["widths"])
    d_cols = iter(d_x[:, offs[k] : offs[k + 1]] for k in range(len(offs) - 1))
    if model.lookup is not None:
        model.lookup.backward_sequence(caches["lookup"], next(d_cols))
    if model.subword is not None:
        model.subword.backward_sequence(caches["subword"], next(d_cols))
    if model.char is not None:
        model.char.backward(caches["char"], next(d_cols))
    if model.combiner is not None:
        model.combiner.backward(caches["comb"], next(d_cols))


def per_document_loss(model, doc, streams, rng, scale):
    """The per-document path the batched model replaced: every layer runs
    on one unpadded (s, d) document, and gradients accumulate scaled."""
    x, f_cache = per_document_features(model, doc, streams)
    h, e_cache = model.encoder.encode(x, rng=rng)
    a_cache = None
    if model.attention is not None:
        h, a_cache = model.attention.forward(h)
    e, l_cache = model.emit.forward(h)
    gold = spans_to_bio(doc)
    loss, d_e, crf_g = crf.nll_and_grads(e, model._crf64(), gold)
    d_h = model.emit.backward(l_cache, d_e * scale)
    if model.attention is not None:
        d_h = model.attention.backward(a_cache, d_h)
    per_document_features_backward(model, f_cache, model.encoder.backward(e_cache, d_h))
    for name in ("transitions", "start", "stop"):
        model.grads[f"crf.{name}"][...] += getattr(crf_g, name) * scale
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
        for k, v in batched.params.items():
            if k.startswith("crf."):
                v[...] = rng.standard_normal(v.shape)
                oracle.params[k][...] = v

        batched.zero_grads()
        oracle.zero_grads()
        losses = batched.batch_loss(batch, streams, train=True, rng=np.random.default_rng(3),
                                    scale=0.25)
        oracle_rng = np.random.default_rng(3)
        expected = [per_document_loss(oracle, d, streams, oracle_rng, 0.25) for d in batch]
        np.testing.assert_allclose(losses, expected, rtol=1e-10)
        for k, g in batched.grads.items():
            ref = oracle.grads[k]
            if k == "comb.b":
                # softmax over streams ignores a shift shared by all logits, so
                # this gradient is zero up to round-off in both
                assert abs(g) < 1e-12 and abs(ref) < 1e-12
                continue
            # Relative to the array's largest entry: an entry that sums
            # per-document terms of opposite sign keeps only the absolute
            # round-off of the batched matrix products (~1e-16 of the scale).
            assert np.max(np.abs(g - ref)) <= 1e-10 * np.max(np.abs(ref)), k


    def test_one_feature_stage_per_batch(self, monkeypatch):
        # the char biLSTM and the combiner each run once for the whole batch
        docs = synth.gen_corpus(n_docs=4, seed=8)
        streams = synth.gen_streams(docs, seed=8)
        tokens = [t for d in docs for t in d.token_texts()]
        cfg = TrainConfig(hidden=4, lookup_dim=3, use_char=True, char_dim=3, char_hidden=3,
                          combiner_mode="cdme", d_prime=4)
        model = SegModel(cfg, tokens, "".join(sorted(set("".join(tokens)))), streams.dims)
        calls = []
        for cls in (CharEncoder, MetaCombiner):

            def counted(self, *args, method=cls.forward, name=cls.__name__, **kw):
                calls.append(name)
                return method(self, *args, **kw)

            monkeypatch.setattr(cls, "forward", counted)
        model.batch_loss(docs, streams, train=True, rng=np.random.default_rng(0))
        assert sorted(calls) == ["CharEncoder", "MetaCombiner"]


# lookup + subword + char + cdme over three streams + weighted attention
FULL_CFG = dict(
    hidden=4, lookup_dim=3, use_subword=True, subword_dim=3, subword_buckets=16,
    use_char=True, char_dim=3, char_hidden=3, combiner_mode="cdme", d_prime=4,
    attention_mode="weighted", attention_dim=3,
)

# Parameter names in order: the checkpoint keys, and the order in which the
# clipping norm sums the gradients.
FULL_NAMES = [
    "lookup.matrix", "subword.buckets", "char.table_matrix",
    "char.rnn_f_W", "char.rnn_f_U", "char.rnn_f_b", "char.rnn_b_W", "char.rnn_b_U",
    "char.rnn_b_b",
    "comb.P0", "comb.b0", "comb.P1", "comb.b1", "comb.P2", "comb.b2", "comb.a", "comb.b",
    "comb.ctx_f_W", "comb.ctx_f_U", "comb.ctx_f_b", "comb.ctx_b_W", "comb.ctx_b_U",
    "comb.ctx_b_b",
    "gru.f_W", "gru.f_U", "gru.f_b", "gru.b_W", "gru.b_U", "gru.b_b",
    "attn.Wq", "attn.Wk", "attn.Wv", "emit.W", "emit.b",
    "crf.transitions", "crf.start", "crf.stop",
]


def full_model():
    return SegModel(TrainConfig(**FULL_CFG), ["ab", "c"], "abc", [2, 3, 2])


def _is_slice(view, stacked, k):
    """``view`` is ``stacked[k]``'s memory itself, not a copy."""
    return (
        view.base is stacked
        and view.shape == stacked.shape[1:]
        and view.ctypes.data == stacked[k].ctypes.data
    )


class TestParameterTree:
    def test_names_and_order(self, tmp_path):
        model = full_model()
        assert list(model.params) == FULL_NAMES
        assert list(model.grads) == FULL_NAMES
        model.save(tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as data:
            keys = [k for k in data.keys() if k != "__meta__"]
        assert keys == [k.replace(".", "__") for k in FULL_NAMES]

    def test_model_arrays_are_the_parts_own(self):
        model = full_model()
        parts = {
            "lookup": model.lookup, "subword": model.subword, "char": model.char,
            "comb": model.combiner, "gru": model.encoder, "attn": model.attention,
            "emit": model.emit,
        }
        for k, v in model.params.items():
            part, name = k.split(".", 1)
            if part != "crf":  # the CRF weights are the model's own
                assert v is parts[part].params[name], k
                assert model.grads[k] is parts[part].grads[name], k
        # down to the stacked (2, ...) arrays the bidirectional layers step
        assert _is_slice(model.params["char.rnn_f_W"], model.char.rnn.cell.params["W"], 0)
        assert _is_slice(model.params["comb.ctx_b_U"], model.combiner.context.cell.params["U"], 1)
        assert _is_slice(model.grads["gru.b_b"], model.encoder.rnn.cell.grads["b"], 1)

    def test_crf_reads_its_weights_from_params(self):
        # params is the one home of the CRF weights: a write there is what decodes
        model = full_model()
        for k, name in enumerate(("transitions", "start", "stop")):
            model.params[f"crf.{name}"][...] = k + 0.5
            assert np.all(getattr(model._crf64(), name) == k + 0.5), name

    def test_zero_grads_clears_every_gradient(self):
        model = full_model()
        assert model.grads["comb.b"].ndim == 0
        for g in model.grads.values():
            g[...] = 1.0
        model.zero_grads()
        for k, g in model.grads.items():
            assert not g.any(), k


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

    @pytest.mark.parametrize("trials", [0, -3], ids=["no-trials", "negative-trials"])
    def test_checking_nothing_is_an_error(self, trials):
        # no probe would otherwise report a PASS
        with pytest.raises(TrainerError):
            gradcheck("crf", trials=trials)

    def test_corrupted_gradient_fails(self, monkeypatch):
        # a broken backward pass: every gradient the GRU produces, for its
        # parameters and for its input, comes out doubled
        backward = nn.Gru.backward

        def doubled(cell, cache, d_h_seq):
            before = {k: g.copy() for k, g in cell.grads.items()}
            d_x = backward(cell, cache, d_h_seq)
            for k, g in cell.grads.items():
                g += g - before[k]
            return 2.0 * d_x

        monkeypatch.setattr(nn.Gru, "backward", doubled)
        report = gradcheck("gru", trials=5)
        assert not report.passed
        assert report.lines()[0].endswith("FAIL")
