import argparse
import gzip
import json
import os
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import segtool
from segtool import synth, trainer
from segtool.cli import _check_args, _load_boosts_arg, _load_train_config, build_parser, main
from segtool.corpus import (
    AnnotatedDocument, CorpusError, doc_to_json, load_corpus, save_corpus, tokenize,
)
from segtool.embeddings import EmbeddingsError, ContextualStreamSet, load_streams, save_streams
from segtool.retrieval import (
    AnswerDoc, RetrievalError, build_index, load_answers, load_qrels, save_index,
)
from segtool.trainer import SegModel, TrainConfig, TrainerError, train
from test_retrieval import index_bytes


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.jsonl"
    save_corpus(synth.gen_corpus(n_docs=20, seed=3), path)
    return path


def test_readme_quick_start_parses():
    # each segtool command of the README's Quick start, "\" continuations
    # joined, parses as main would parse it: a renamed flag fails here
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("segtool ")]
    assert len(lines) == 10
    for line in lines:
        _check_args(build_parser().parse_args(shlex.split(line)[1:]))


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required_arg(self, capsys):
        assert main(["stats"]) == 1

    def test_missing_file_is_data_error(self, capsys):
        assert main(["stats", "--corpus", "/nonexistent/x.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_corpus_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        assert main(["stats", "--corpus", str(bad)]) == 2

    def test_duplicate_stream_doc_is_data_error(self, tmp_path, capsys):
        docs = synth.gen_corpus(n_docs=2, seed=1)
        cfile = tmp_path / "c.jsonl"
        save_corpus(docs, cfile)
        sfile = tmp_path / "s.bin"
        streams = synth.gen_streams(docs, seed=1)
        save_streams(streams, sfile)
        data = sfile.read_bytes()
        header = 5 + 4 + 4 * streams.n  # magic, stream count, dims
        sfile.write_bytes(data + data[header:])  # every document twice
        assert main(["train", "--corpus", str(cfile), "--streams", str(sfile)]) == 2
        assert repr(docs[0].id) in capsys.readouterr().err


def _corpus_file(tmp_path, mutate=lambda obj: None):
    """A two-document corpus whose second line ``mutate`` edits."""
    objs = [doc_to_json(d) for d in synth.gen_corpus(n_docs=2, seed=5)]
    mutate(objs[1])
    path = tmp_path / "c.jsonl"
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))
    return path


def _bad_label(tmp_path):
    def mutate(obj):
        obj["spans"].append({"st": 0, "et": 1, "label": "XX"})

    path = _corpus_file(tmp_path, mutate)
    return ["stats", "--corpus", str(path)], f"{path}:2: "


def _bad_span_index(tmp_path):
    def mutate(obj):
        obj["spans"][0]["st"] = "a"

    path = _corpus_file(tmp_path, mutate)
    return ["stats", "--corpus", str(path)], f"{path}:2: "


def _null_token_offset(tmp_path):
    def mutate(obj):
        obj["tokens"][0]["s"] = None

    path = _corpus_file(tmp_path, mutate)
    return ["stats", "--corpus", str(path)], f"{path}:2: "


def _bad_config_int(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("hidden=8\nepochs=abc\n")
    argv = ["train", "--corpus", str(_corpus_file(tmp_path)), "--config", str(cfg)]
    return argv, f"{cfg}:2:"


def _stream_index_out_of_range(tmp_path):
    streams = tmp_path / "s.bin"
    save_streams(synth.gen_streams(synth.gen_corpus(n_docs=2, seed=5), seed=5), streams)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("combiner_mode=dme\nstream_indices=5\nepochs=1\n")
    argv = ["train", "--corpus", str(_corpus_file(tmp_path)), "--streams", str(streams),
            "--config", str(cfg)]
    return argv, "stream index 5 invalid for 3 streams"


def _bad_qrels(second_line):
    def case(tmp_path):
        answers = tmp_path / "a.jsonl"
        answers.write_text(json.dumps({"id": "a0", "text": "ls -la"}) + "\n")
        qrels = tmp_path / "q.tsv"
        qrels.write_text(f"q0000\ta0\n{second_line}\n")
        argv = ["boosts", "--corpus", str(_corpus_file(tmp_path)), "--answers", str(answers),
                "--qrels", str(qrels), "--out", str(tmp_path / "b.json")]
        return argv, f"{qrels}:2:"

    return case


def _boost_key_not_a_class(tmp_path):
    # "ES " (a trailing space) names no class, so it would silently weigh nothing
    argv, (where,) = _bad_boosts('{"ES ": 3.0, "XX": 2}')(tmp_path)
    return argv, f"{where}boost key 'ES ' is not a class name"


_FIRST_ID = 5 + 4 + 4 * 3  # magic, stream count, 3 dims: the first doc id's length


def _first_count_less_one(data):
    """The stream file's bytes with its first document's token count one
    lower (the vectors themselves unchanged)."""
    at = _FIRST_ID + 4 + struct.unpack_from("<I", data, _FIRST_ID)[0]
    count = struct.unpack_from("<I", data, at)[0]
    return data[:at] + struct.pack("<I", count - 1) + data[at + 4 :]


def _empty_corpus(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    return path


def _tokenless_corpus(tmp_path):
    path = tmp_path / "tokenless.jsonl"
    save_corpus([AnnotatedDocument(f"e{k}", "", tokenize(""), []) for k in range(2)], path)
    return path


def _stats_empty(tmp_path):
    path = _empty_corpus(tmp_path)
    return ["stats", "--corpus", str(path)], f"{path}: no documents"


def _eval_macro_empty(tmp_path):
    gold = _empty_corpus(tmp_path)
    return ["eval", "--gold", str(gold), "--pred", str(gold), "--macro"], (
        f"{gold}: no documents to score"
    )


def _mrr_empty(tmp_path):
    path = _empty_corpus(tmp_path)
    qrels = tmp_path / "q.tsv"
    qrels.write_text("q0\ta0\n")
    argv = ["mrr", "--index", str(_index_file(tmp_path)), "--corpus", str(path),
            "--qrels", str(qrels)]
    return argv, f"{path}: empty question set"


def _boosts_no_known_answer(tmp_path):
    answers = tmp_path / "a.jsonl"
    answers.write_text(json.dumps({"id": "a0", "text": "ls -la"}) + "\n")
    qrels = tmp_path / "q.tsv"
    qrels.write_text("elsewhere\ta0\n")  # no question of the corpus
    argv = ["boosts", "--corpus", str(_corpus_file(tmp_path)), "--answers", str(answers),
            "--qrels", str(qrels), "--out", str(tmp_path / "b.json")]
    return argv, f"{qrels}: no question has a known correct answer"


def _experiment_without_tokens(tmp_path):
    path = _tokenless_corpus(tmp_path)
    argv = ["experiment", "--recipe", "table3", "--corpus", str(path),
            "--test", str(_corpus_file(tmp_path)), "--out", str(tmp_path / "exp")]
    return argv, f"{path}: no training document has a token"


def _bad_streams(edit, message):
    def case(tmp_path):
        path = tmp_path / "s.bin"
        save_streams(synth.gen_streams(synth.gen_corpus(n_docs=2, seed=5), seed=5), path)
        path.write_bytes(edit(path.read_bytes()))
        argv = ["train", "--corpus", str(_corpus_file(tmp_path)), "--streams", str(path)]
        return argv, f"{path}: {message}"

    return case


# malformed input -> (argv, where the error message must point)
MALFORMED = {
    "label-not-in-enum": _bad_label,
    "span-index-not-int": _bad_span_index,
    "token-offset-null": _null_token_offset,
    "config-int-not-a-number": _bad_config_int,
    "stream-index-out-of-range": _stream_index_out_of_range,
    "qrels-no-tab": _bad_qrels("q0001 a0"),
    "qrels-two-tabs": _bad_qrels("q0001\ta0\tx"),
    "qrels-repeated-question": _bad_qrels("q0000\ta1"),
    "streams-bad-magic": _bad_streams(lambda b: b"CSTR9" + b[5:], "bad magic"),
    "streams-truncated": _bad_streams(lambda b: b[:-4], "truncated vectors for doc "),
    "streams-doc-id-not-utf8": _bad_streams(
        lambda b: b[: _FIRST_ID + 4] + b"\xff" + b[_FIRST_ID + 5 :],
        f"doc id at byte {_FIRST_ID + 4} is not UTF-8",
    ),
    "streams-token-count-mismatch": _bad_streams(_first_count_less_one, "doc "),
    "boosts-key-not-a-class": _boost_key_not_a_class,
    "stats-empty-corpus": _stats_empty,
    "eval-macro-empty-gold": _eval_macro_empty,
    "mrr-empty-question-set": _mrr_empty,
    "boosts-no-known-answer": _boosts_no_known_answer,
    "experiment-train-without-tokens": _experiment_without_tokens,
}


def _cli_env():
    """The environment of a subprocess that imports this segtool."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(segtool.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_data_error(case, tmp_path):
    argv, where = MALFORMED[case](tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "segtool.cli", *argv], capture_output=True, text=True,
        env=_cli_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert where in proc.stderr, proc.stderr


def test_cli_import_leaves_scipy_optimize_out():
    # every CLI call pays its imports; only the baseline fit needs scipy.optimize
    code = "import sys, segtool.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_closed_stdout_exits_141_silently(tmp_path):
    # 10000 ranking lines, more than the pipe and stdout's buffer hold, so
    # the command is still writing when the reader closes the pipe
    index = tmp_path / "idx.bin"
    save_index(build_index([AnswerDoc(f"a{i:03d}", "common term") for i in range(100)]), index)
    questions = tmp_path / "q.jsonl"
    save_corpus([AnnotatedDocument(f"q{i:03d}", "common", tokenize("common"), [])
                 for i in range(100)], questions)
    proc = subprocess.Popen(
        [sys.executable, "-m", "segtool.cli", "search", "--index", str(index),
         "--corpus", str(questions), "--k", "100"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    assert proc.stdout.readline().startswith(b"q000\t1\t")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def _index_fields():
    """A two-answer index (postings ls: a0; -la: a0, a1) as the fields of
    its file (``index_fields``)."""
    return {"version": 3, "k1": 1.2, "b": 0.75, "docs": ["a0", "a1"], "lengths": [2, 1],
            "terms": ["ls", "-la"], "df": [1, 2], "rows": [0, 0, 1], "tf": [1, 1, 1],
            "ends": {}, "widths": {}}


def _index_file(tmp_path, edit=None, data=None):
    """The file of ``_index_fields``, its fields changed by ``edit`` or its
    bytes replaced by ``data``."""
    fields = _index_fields()
    if edit:
        edit(fields)
    path = tmp_path / "idx.bin"
    path.write_bytes(data if data is not None else index_bytes(fields))
    return path


def _bad_index(edit=None, data=None, message=""):
    def case(tmp_path):
        path = _index_file(tmp_path, edit, data)
        return ["search", "--index", str(path), "--corpus", str(_corpus_file(tmp_path))], [
            f"{path}: {message}"
        ]

    return case


def _answers_file(tmp_path, second_line):
    path = tmp_path / "a.jsonl"
    path.write_text(json.dumps({"id": "a0", "text": "ls -la"}) + "\n" + second_line + "\n")
    return path


def _bad_answers(second_line):
    def case(tmp_path):
        path = _answers_file(tmp_path, second_line)
        return ["index", "--answers", str(path), "--out", str(tmp_path / "i.gz")], [f"{path}:2:"]

    return case


def _qrels_for_corpus(tmp_path, skip_first=False, answer="a0"):
    """A qrel for every question of ``_corpus_file``, all to ``answer``."""
    cfile = _corpus_file(tmp_path)
    ids = [json.loads(l)["id"] for l in cfile.read_text().splitlines()]
    qrels = tmp_path / "q.tsv"
    qrels.write_text("".join(f"{q}\t{answer}\n" for q in ids[skip_first:]))
    return cfile, qrels, ids


def _mrr_missing_qrel(tmp_path):
    cfile, qrels, ids = _qrels_for_corpus(tmp_path, skip_first=True)
    argv = ["mrr", "--index", str(_index_file(tmp_path)), "--corpus", str(cfile),
            "--qrels", str(qrels)]
    return argv, [f"{qrels}: ", repr(ids[0])]


def _mrr_unknown_answer(tmp_path):
    cfile, qrels, ids = _qrels_for_corpus(tmp_path, answer="ghost")
    argv = ["mrr", "--index", str(_index_file(tmp_path)), "--corpus", str(cfile),
            "--qrels", str(qrels)]
    return argv, [f"{qrels}: ", "'ghost'", repr(ids[0])]


def _boosts_unknown_answer(tmp_path):
    cfile, qrels, ids = _qrels_for_corpus(tmp_path, answer="ghost")
    answers = _answers_file(tmp_path, "")
    argv = ["boosts", "--corpus", str(cfile), "--answers", str(answers),
            "--qrels", str(qrels), "--out", str(tmp_path / "b.json")]
    return argv, [f"{qrels}: ", "'ghost'", repr(ids[0])]


def _bad_config(line, message):
    def case(tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(line + "\n")
        argv = ["train", "--corpus", str(_corpus_file(tmp_path)), "--config", str(cfg)]
        return argv, [f"{cfg}:", message]

    return case


def _train_without_tokens(tmp_path):
    path = _tokenless_corpus(tmp_path)
    return ["train", "--corpus", str(path), "--model", str(tmp_path / "m.npz")], [
        f"{path}: no training document has a token"
    ]


def _val_scoring_nothing(command, make_val, message):
    """A case: ``command`` with a --val file from ``make_val(tmp_path)``,
    which holds no document or none with a token."""
    def case(tmp_path):
        corpus, val = _corpus_file(tmp_path), make_val(tmp_path)
        argv = [command, "--corpus", str(corpus), "--val", str(val)]
        if command == "experiment":
            argv += ["--recipe", "table3", "--test", str(corpus), "--out", str(tmp_path / "exp")]
        return argv, [f"error: {val}: {message}"]

    return case


def _bad_doc(mutate):
    def case(tmp_path):
        path = _corpus_file(tmp_path, mutate)
        return ["stats", "--corpus", str(path)], [f"{path}:2: "]

    return case


def _bad_json_line(line):
    def case(tmp_path):
        path = _corpus_file(tmp_path)
        path.write_text(path.read_text() + line + "\n")
        return ["stats", "--corpus", str(path)], [f"{path}:3: "]

    return case


def _not_utf8(path, line_no):
    """Make line ``line_no`` of the file at ``path`` not UTF-8: the first
    line starts with a UTF-16 byte-order mark, a later one holds a Latin-1
    byte."""
    lines = path.read_bytes().splitlines(keepends=True) or [b""]
    bad = b"\xff\xfe" if line_no == 1 else b"caf\xe9 "
    lines[line_no - 1] = bad + lines[line_no - 1]
    path.write_bytes(b"".join(lines))
    return path


def _corpus_not_utf8(line_no):
    def case(tmp_path):
        path = _not_utf8(_corpus_file(tmp_path), line_no)
        return ["stats", "--corpus", str(path)], [f"{path}:{line_no}: not UTF-8"]

    return case


def _answers_not_utf8(tmp_path):
    path = _not_utf8(_answers_file(tmp_path, json.dumps({"id": "a1", "text": "x"})), 2)
    return ["index", "--answers", str(path), "--out", str(tmp_path / "i.gz")], [
        f"{path}:2: not UTF-8"
    ]


def _qrels_not_utf8(tmp_path):
    cfile, qrels, _ = _qrels_for_corpus(tmp_path)
    _not_utf8(qrels, 2)
    argv = ["mrr", "--index", str(_index_file(tmp_path)), "--corpus", str(cfile),
            "--qrels", str(qrels)]
    return argv, [f"{qrels}:2: not UTF-8"]


def _config_not_utf8(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=1\n")
    _not_utf8(cfg, 1)
    argv = ["train", "--corpus", str(_corpus_file(tmp_path)), "--config", str(cfg)]
    return argv, [f"{cfg}:1: not UTF-8"]


def _boosts_not_utf8(tmp_path):
    boosts = tmp_path / "b.json"
    boosts.write_text('{"CC": 2.0}\n')
    _not_utf8(boosts, 1)
    argv = ["search", "--index", str(_index_file(tmp_path)), "--corpus",
            str(_corpus_file(tmp_path)), "--boosts", str(boosts)]
    return argv, [f"{boosts}:1: not UTF-8"]


def _bad_boosts(text):
    def case(tmp_path):
        boosts = tmp_path / "b.json"
        boosts.write_text(text + "\n")
        argv = ["search", "--index", str(_index_file(tmp_path)), "--corpus",
                str(_corpus_file(tmp_path)), "--boosts", str(boosts)]
        return argv, [f"{boosts}: "]

    return case


def _checkpoint_file(tmp_path, edit=None, data=None, model=None):
    """The checkpoint of ``model()`` (by default an untrained small model),
    its metadata and arrays changed by ``edit(meta, arrays)`` or its bytes
    replaced by ``data``."""
    path = tmp_path / "m.npz"
    model = model() if model else SegModel(TrainConfig(hidden=4, lookup_dim=3), ["ls", "-la"])
    model.save(path)
    if data is not None:
        path.write_bytes(data)
    if edit:
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
        meta = json.loads(str(arrays.pop("__meta__")))
        edit(meta, arrays)
        np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)
    return path


def _bad_checkpoint(edit=None, data=None, message="", model=None):
    def case(tmp_path):
        path = _checkpoint_file(tmp_path, edit, data, model)
        argv = ["predict", "--corpus", str(_corpus_file(tmp_path)), "--model", str(path),
                "--out", str(tmp_path / "p.jsonl")]
        return argv, [f"{path}: {message}"]

    return case


def _predict_fewer_streams(tmp_path):
    streams = synth.gen_streams(synth.gen_corpus(n_docs=2, seed=5), seed=5)
    model = tmp_path / "m.npz"
    cfg = TrainConfig(hidden=4, lookup_dim=3, combiner_mode="dme", d_prime=4)
    SegModel(cfg, ["ls"], stream_dims=streams.dims).save(model)
    path = tmp_path / "s.bin"
    two = {doc_id: arrays[:2] for doc_id, arrays in streams.vectors.items()}
    save_streams(ContextualStreamSet(streams.dims[:2], two), path)
    argv = ["predict", "--corpus", str(_corpus_file(tmp_path)), "--model", str(model),
            "--streams", str(path), "--out", str(tmp_path / "p.jsonl")]
    return argv, [f"{path}: stream dims {streams.dims[:2]} are not the model's {streams.dims}"]


def _stream_file(path, dims, docs):
    """A CSTR1 file of zero vectors written by hand: save_streams refuses
    dims with no stream or a stream 0 wide."""
    raw = b"CSTR1" + struct.pack(f"<{len(dims) + 1}I", len(dims), *dims)
    for doc in docs:
        doc_id = doc.id.encode()
        raw += struct.pack("<I", len(doc_id)) + doc_id + struct.pack("<I", len(doc.tokens))
        raw += bytes(4 * len(doc.tokens) * sum(dims))
    path.write_bytes(raw)
    return path


def _streams_without_width(dims):
    def case(tmp_path):
        corpus = _corpus_file(tmp_path)
        streams = _stream_file(tmp_path / "s.bin", dims, load_corpus(corpus))
        cfg = tmp_path / "train.cfg"
        cfg.write_text("hidden=4\nlookup_dim=3\nd_prime=4\nepochs=1\ncombiner_mode=cdme\n")
        argv = ["train", "--corpus", str(corpus), "--streams", str(streams), "--config", str(cfg)]
        return argv, [f"error: {streams}: stream dims {dims}: need at least one stream,"
                      " each at least 1 wide"]

    return case


def _fusion_run(command, message, config="combiner_mode=dme", streams=True, extra_doc=False,
                recipe="table3"):
    """A case: ``command`` over the two-document corpus, fusing its three
    synth streams as the ``config`` lines set (a checkpoint of that config
    for predict), with or without --streams, and with or without a third
    document that the stream file lacks.  ``message(source, streams)`` is
    the error wanted, ``source`` the --config file or checkpoint."""
    def case(tmp_path):
        corpus = _corpus_file(tmp_path)
        docs = load_corpus(corpus)
        stream_set = synth.gen_streams(docs, seed=5)
        stream_path = tmp_path / "s.bin"
        save_streams(stream_set, stream_path)
        if extra_doc:
            save_corpus(docs + [AnnotatedDocument("extra", "ls -la", tokenize("ls -la"), [])],
                        corpus)
        source = tmp_path / "train.cfg"
        source.write_text(f"hidden=4\nlookup_dim=3\nd_prime=4\nepochs=1\n{config}\n")
        if command == "predict":
            cfg = _load_train_config(argparse.Namespace(config=source, seed=None))
            source = tmp_path / "m.npz"
            SegModel(cfg, ["ls"], stream_dims=stream_set.dims).save(source)
            argv = ["predict", "--model", str(source), "--out", str(tmp_path / "p.jsonl")]
        elif command == "train":
            argv = ["train", "--config", str(source)]
        else:
            argv = ["experiment", "--recipe", recipe, "--test", str(corpus), "--config",
                    str(source), "--out", str(tmp_path / "exp")]
        argv += ["--corpus", str(corpus)] + ["--streams", str(stream_path)] * streams
        return argv, [message(source, stream_path)]

    return case


def _first_line_only(tmp_path):
    """The two-document corpus, and a copy of it holding its first line only."""
    path = _corpus_file(tmp_path)
    first = tmp_path / "first.jsonl"
    first.write_text(path.read_text().splitlines(keepends=True)[0])
    return path, first, json.loads(path.read_text().splitlines()[1])["id"]


def _eval_missing_prediction(tmp_path):
    gold, pred, missing = _first_line_only(tmp_path)
    return ["eval", "--gold", str(gold), "--pred", str(pred)], [
        f"{pred}: no document {missing!r} of {gold}"
    ]


def _eval_gold_scoring_nothing(make_gold, message, *flags):
    """A case: eval of a --gold file from ``make_gold(tmp_path)``, which
    holds no document or none with a token, against itself."""
    def case(tmp_path):
        gold = make_gold(tmp_path)
        return ["eval", "--gold", str(gold), "--pred", str(gold), *flags], [
            f"error: {gold}: {message}"
        ]

    return case


def _agree_missing_document(tmp_path):
    a, b, missing = _first_line_only(tmp_path)
    return ["agree", "--corpus", str(a), "--corpus-b", str(b)], [
        f"{b}: no document {missing!r} of the first annotation"
    ]


def _eval_prediction_tokenized_differently(tmp_path):
    gold = _corpus_file(tmp_path)
    docs = load_corpus(gold)
    docs[0] = AnnotatedDocument(docs[0].id, "x y", tokenize("x y"))
    pred = tmp_path / "pred.jsonl"
    save_corpus(docs, pred)
    return ["eval", "--gold", str(gold), "--pred", str(pred)], [
        f"{pred}: document {docs[0].id!r} of {gold} tokenized differently"
    ]


def _eval_repeated_prediction(tmp_path):
    """A prediction file that holds the first document twice: its spans,
    then none."""
    gold = _corpus_file(tmp_path)
    first = json.loads(gold.read_text().splitlines()[0])
    pred = tmp_path / "pred.jsonl"
    pred.write_text(gold.read_text() + json.dumps({**first, "spans": []}) + "\n")
    return ["eval", "--gold", str(gold), "--pred", str(pred)], [
        f"{pred}:3: repeated document id {first['id']!r}"
    ]


def _experiment_test_scoring_nothing(make_test, message):
    """A case: experiment with a --test file from ``make_test(tmp_path)``,
    which holds no document or none with a token."""
    def case(tmp_path):
        test = make_test(tmp_path)
        argv = ["experiment", "--recipe", "table3", "--corpus", str(_corpus_file(tmp_path)),
                "--test", str(test), "--out", str(tmp_path / "exp")]
        return argv, [f"error: {test}: {message}"]

    return case


def _index_duplicate_answer(tmp_path):
    path = _answers_file(tmp_path, json.dumps({"id": "a0", "text": "cd /"}))
    return ["index", "--answers", str(path), "--out", str(tmp_path / "i.gz")], [
        f"{path}: duplicate answer id 'a0'"
    ]


# Run in-process through cli.main: an exception main does not turn into
# exit 2 fails the test just as a traceback would; the subprocess cases
# above guard the process's own exit path.
# malformed input -> (argv, what the error message must contain)
MALFORMED_IN_PROCESS = {
    "index-not-gzip": _bad_index(data=b"no index", message="not a segtool index file"),
    "index-truncated": _bad_index(data=index_bytes(_index_fields())[:-8], message="file holds "),
    "index-no-postings": _bad_index(lambda f: f.update(rows=[], tf=[]),
                                    message="field 'rows' holds 0 values, not 3"),
    "index-one-element-posting": _bad_index(lambda f: f["tf"].pop(), message="file holds "),
    "index-posting-unknown-doc": _bad_index(lambda f: f["rows"].__setitem__(0, 255),
                                            message="field 'rows' holds 255, which names"),
    "index-posting-tf-zero": _bad_index(lambda f: f["tf"].__setitem__(0, 0),
                                        message="field 'tf' holds 0"),
    "index-row-out-of-range": _bad_index(lambda f: f["rows"].__setitem__(2, 2),
                                         message="field 'rows' holds 2"),
    "index-version-1": _bad_index(
        data=gzip.compress(json.dumps({"version": 1, "k1": 1.2, "b": 0.75,
                                       "doc_lengths": {"a0": 1},
                                       "postings": {"ls": [["a0", 1]]}}).encode()),
        message="unsupported index version (a gzip JSON index of format 1 or 2);"
                " rerun segtool index",
    ),
    "answers-text-not-str": _bad_answers('{"id": "a1", "text": 5}'),
    "answers-not-json": _bad_answers('{"id": "a1"'),
    "mrr-missing-qrel": _mrr_missing_qrel,
    "mrr-qrel-unknown-answer": _mrr_unknown_answer,
    "boosts-qrel-unknown-answer": _boosts_unknown_answer,
    "config-batch-size-zero": _bad_config("batch_size=0", "batch_size"),
    "config-hidden-zero": _bad_config("hidden=0", "hidden"),
    "config-seed-negative": _bad_config("seed = -3", ": seed must be at least 0, got -3"),
    "config-recurrent-dropout": _bad_config(
        "recurrent_dropout = 0.2", ":1: unknown key 'recurrent_dropout'"
    ),
    "train-no-tokens": _train_without_tokens,
    **{f"{command}-val-{kind}": _val_scoring_nothing(command, make_val, message)
       for command in ("train", "experiment")
       for kind, make_val, message in (
           ("empty", _empty_corpus, "no documents to validate on"),
           ("no-tokens", _tokenless_corpus, "no validation document has a token"))},
    "corpus-token-not-object": _bad_doc(lambda o: o["tokens"].__setitem__(0, 1)),
    "corpus-token-text-empty": _bad_doc(lambda o: o["tokens"][0].update(t="")),
    "corpus-token-past-text": _bad_doc(lambda o: o["tokens"][-1].update(e=len(o["text"]) + 1)),
    "corpus-spans-not-list": _bad_doc(lambda o: o.update(spans="CC")),
    "corpus-id-not-str": _bad_doc(lambda o: o.update(id=5)),
    "corpus-nested-too-deeply": _bad_json_line("[" * 100000 + "]" * 100000),
    "corpus-utf16-bom": _corpus_not_utf8(1),
    "corpus-latin1-line-2": _corpus_not_utf8(2),
    "answers-not-utf8": _answers_not_utf8,
    "qrels-not-utf8": _qrels_not_utf8,
    "config-not-utf8": _config_not_utf8,
    "boosts-not-utf8": _boosts_not_utf8,
    "boosts-not-json": _bad_boosts('{"CC": 2.0'),
    "boosts-not-object": _bad_boosts("[1, 2]"),
    "boosts-weight-not-number": _bad_boosts('{"CC": "x"}'),
    "boosts-weight-bool": _bad_boosts('{"CC": true}'),
    "boosts-weight-int-too-large": _bad_boosts('{"CC": 1%s}' % ("0" * 400)),
    "checkpoint-not-npz": _bad_checkpoint(data=b"not a checkpoint"),
    "checkpoint-unknown-config-key": _bad_checkpoint(lambda m, a: m["config"].update(frob=1)),
    "checkpoint-missing-array": _bad_checkpoint(lambda m, a: a.pop("gru__f_W")),
    "checkpoint-wrong-shape": _bad_checkpoint(
        lambda m, a: a.update(emit__W=a["emit__W"][:-1])
    ),
    "checkpoint-extra-array": _bad_checkpoint(lambda m, a: a.update(extra=np.zeros(1))),
    "checkpoint-reordered-tags": _bad_checkpoint(lambda m, a: m["tag_order"].reverse()),
    # a version-1 checkpoint's config holds recurrent_dropout, a field since removed
    "checkpoint-version-1": _bad_checkpoint(
        lambda m, a: m.update(version=1) or m["config"].update(recurrent_dropout=0.0),
        message="unsupported checkpoint version 1",
    ),
    "checkpoint-nan": _bad_checkpoint(
        lambda m, a: a["emit__W"].__setitem__((0, 0), np.nan),
        message="array emit__W has a value not finite in float32",
    ),
    # float64 in the file: the float32 cast would read it as inf
    "checkpoint-beyond-float32": _bad_checkpoint(
        lambda m, a: a.update(emit__W=np.full(a["emit__W"].shape, 1e300)),
        message="array emit__W has a value not finite in float32",
    ),
    "checkpoint-stream-zero-wide": _bad_checkpoint(
        lambda m, a: m.update(stream_dims=[0]),
        message="not a checkpoint of this model: stream dims [0]: need at least one stream,"
                " each at least 1 wide",
        model=lambda: SegModel(TrainConfig(hidden=4, lookup_dim=3, combiner_mode="concat"),
                               ["ls"], stream_dims=[2])),
    "predict-fewer-streams-than-model": _predict_fewer_streams,
    "eval-missing-prediction": _eval_missing_prediction,
    "eval-empty-gold": _eval_gold_scoring_nothing(_empty_corpus, "no documents to score"),
    "eval-empty-gold-macro": _eval_gold_scoring_nothing(
        _empty_corpus, "no documents to score", "--macro"
    ),
    "eval-tokenless-gold": _eval_gold_scoring_nothing(
        _tokenless_corpus, "no gold document has a token"
    ),
    "eval-prediction-tokenized-differently": _eval_prediction_tokenized_differently,
    "agree-missing-document": _agree_missing_document,
    "eval-repeated-prediction": _eval_repeated_prediction,
    "experiment-empty-test-set": _experiment_test_scoring_nothing(
        _empty_corpus, "no documents to test on"
    ),
    "experiment-tokenless-test-set": _experiment_test_scoring_nothing(
        _tokenless_corpus, "no test document has a token"
    ),
    "index-duplicate-answer-id": _index_duplicate_answer,
    "streams-no-streams": _streams_without_width([]),
    "streams-zero-width": _streams_without_width([0, 8]),
    **{f"{command}-streams-missing-document": _fusion_run(
        command, lambda _, streams: f"error: {streams}: no contextual streams for document"
                                    " 'extra'", extra_doc=True)
       for command in ("train", "predict", "experiment")},
    **{f"{command}-fusing-without-streams": _fusion_run(
        command, lambda source, _: f"error: {source}: combiner_mode 'dme' fuses contextual"
                                   " streams, and none were given", streams=False)
       for command in ("train", "predict", "experiment")},
    "train-stream-index-out-of-range": _fusion_run(
        "train", lambda source, _: f"error: {source}: stream index 5 invalid for 3 streams",
        config="combiner_mode=dme\nstream_indices=0,5"),
    # the concat, dme and cdme cells take the --config file's stream_indices
    "experiment-stream-index-out-of-range": _fusion_run(
        "experiment", lambda source, _: f"error: {source}: stream index 5 invalid for 3 streams",
        config="stream_indices=0,5", recipe="table4"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_IN_PROCESS))
def test_malformed_input_in_process_is_data_error(case, tmp_path, capsys):
    argv, wants = MALFORMED_IN_PROCESS[case](tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for want in wants:
        assert want in err, err


def _write_checkpoint(path):
    SegModel(TrainConfig(hidden=4, lookup_dim=3), ["ls", "-la"]).save(path)


def _write_streams(path):
    rng = np.random.default_rng(0)
    vectors = {doc_id: [rng.standard_normal((n, 2)), rng.standard_normal((n, 3))]
               for doc_id, n in (("q0", 2), ("q1", 1))}
    save_streams(ContextualStreamSet([2, 3], vectors), path)


# loader -> (write a valid file at a path, load the file at a path, its error)
LOADERS = {
    "corpus": (lambda p: save_corpus(synth.gen_corpus(n_docs=2, seed=5), p), load_corpus,
               CorpusError),
    "answers": (lambda p: p.write_text('{"id": "a0", "text": "ls"}\n{"id": "a1", "text": "cd"}\n'),
                load_answers, RetrievalError),
    "qrels": (lambda p: p.write_text("q0\ta0\nq1\ta1\n"), load_qrels, RetrievalError),
    "config": (lambda p: p.write_text("hidden=8\nepochs=1  # one pass\nstream_indices=0,1\n"),
               lambda p: _load_train_config(argparse.Namespace(config=p, seed=None)), TrainerError),
    "boosts": (lambda p: p.write_text('{"CC": 2.0, "O": 0.5}\n'),
               lambda p: _load_boosts_arg(argparse.Namespace(boosts=p)), RetrievalError),
    "streams": (_write_streams, lambda p: load_streams(p, {"q0": 2, "q1": 1}), EmbeddingsError),
    "checkpoint": (_write_checkpoint, SegModel.load, TrainerError),
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_edited_file_loads_or_is_named(tmp_path_factory, loader, data):
    # a random single-byte edit of a valid file either leaves a file that
    # loads or is the loader's error, its message starting with the path
    write, load, error = LOADERS[loader]
    path = tmp_path_factory.getbasetemp() / f"edited-{loader}"
    write(path)
    raw = bytearray(path.read_bytes())
    raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    path.write_bytes(raw)
    try:
        load(path)
    except error as exc:
        assert str(exc).startswith(f"{path}:"), exc


class TestStatsAndAgree:
    def test_stats_output(self, corpus_file, capsys):
        assert main(["stats", "--corpus", str(corpus_file), "--splits"]) == 0
        out = capsys.readouterr().out
        assert "questions 20" in out
        assert "avg_words" in out
        assert "split_sizes 16/2/2" in out

    def test_agree_self(self, corpus_file, capsys):
        assert main(
            ["agree", "--corpus", str(corpus_file), "--corpus-b", str(corpus_file)]
        ) == 0
        assert "kappa 1.0000" in capsys.readouterr().out


class TestEval:
    def test_identical_files_perfect_f1(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["eval", "--gold", str(corpus_file), "--pred", str(corpus_file),
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["micro"]["F1"] == 1.0

    def test_mismatched_ids(self, corpus_file, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        save_corpus(synth.gen_corpus(n_docs=3, seed=9), other)
        other_renamed = tmp_path / "renamed.jsonl"
        docs = synth.gen_corpus(n_docs=3, seed=9)
        for i, d in enumerate(docs):
            docs[i] = type(d)(f"zz{i}", d.text, d.tokens, d.spans)
        save_corpus(docs, other_renamed)
        assert main(
            ["eval", "--gold", str(corpus_file), "--pred", str(other_renamed)]
        ) == 2

    def test_gold_subset_of_predictions(self, tmp_path, capsys):
        # predictions for more documents than the gold file holds are allowed
        full, first, _ = _first_line_only(tmp_path)
        assert main(["eval", "--gold", str(first), "--pred", str(full)]) == 0
        assert "F1" in capsys.readouterr().out


class TestGradcheck:
    def test_pass(self, capsys):
        assert main(["gradcheck", "--component", "crf", "--trials", "5"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_model_below_1e6(self, capsys):
        argv = ["gradcheck", "--component", "model", "--trials", "10", "--tolerance", "1e-6"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("model") and "PASS" in out

    def test_unknown_component(self, capsys):
        assert main(["gradcheck", "--component", "nope"]) == 1


class TestSynthPipeline:
    def test_synth_then_stats(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        assert main(["synth", "--out", str(out), "--docs", "10", "--seed", "4"]) == 0
        assert main(["stats", "--corpus", str(out)]) == 0
        assert "questions 10" in capsys.readouterr().out

    def test_retrieval_pipeline(self, tmp_path, capsys):
        qfile = tmp_path / "questions.jsonl"
        afile = tmp_path / "answers.jsonl"
        rfile = tmp_path / "qrels.tsv"
        cfile = tmp_path / "c.jsonl"
        assert main(
            ["synth", "--out", str(cfile), "--docs", "2",
             "--questions-out", str(qfile), "--answers-out", str(afile),
             "--qrels-out", str(rfile), "--seed", "0"]
        ) == 0
        idx = tmp_path / "index.bin"
        capsys.readouterr()
        assert main(["index", "--answers", str(afile), "--out", str(idx)]) == 0
        built = build_index(load_answers(afile))
        n_postings = sum(len(p) for p in built.postings.values())
        assert capsys.readouterr().out == (
            f"indexed {built.n_docs} answers, {len(built.postings)} terms, {n_postings} postings"
            f" -> {idx} ({idx.stat().st_size} bytes)\n"
        )
        boosts = tmp_path / "boosts.json"
        assert main(
            ["boosts", "--corpus", str(qfile), "--answers", str(afile),
             "--qrels", str(rfile), "--out", str(boosts)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["mrr", "--index", str(idx), "--corpus", str(qfile), "--qrels", str(rfile)]
        ) == 0
        unfielded = capsys.readouterr().out
        assert unfielded.startswith("mrr_unfielded ")
        assert main(
            ["mrr", "--index", str(idx), "--corpus", str(qfile),
             "--qrels", str(rfile), "--boosts", str(boosts)]
        ) == 0
        fielded = capsys.readouterr().out
        assert fielded.startswith("mrr_fielded ")
        # boosting must not hurt on the planted fixture
        assert float(fielded.split()[1]) >= float(unfielded.split()[1])

    def test_search_prints_rankings(self, tmp_path, capsys):
        qfile, afile = tmp_path / "q.jsonl", tmp_path / "a.jsonl"
        rfile, cfile = tmp_path / "r.tsv", tmp_path / "c.jsonl"
        main(["synth", "--out", str(cfile), "--docs", "2",
              "--questions-out", str(qfile), "--answers-out", str(afile),
              "--qrels-out", str(rfile)])
        idx = tmp_path / "i.gz"
        main(["index", "--answers", str(afile), "--out", str(idx)])
        capsys.readouterr()
        assert main(
            ["search", "--index", str(idx), "--corpus", str(qfile), "--k", "3"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(len(l.split("\t")) == 4 for l in lines)


class TestTrainPredictEval:
    def test_round_trip(self, tmp_path, capsys):
        cfile = tmp_path / "c.jsonl"
        save_corpus(synth.gen_corpus(n_docs=16, seed=2), cfile)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "hidden = 8\nlookup_dim = 8\nepochs = 2\ndropout = 0.0\n"
            "batch_size = 4  # comment\n"
        )
        model = tmp_path / "m.npz"
        assert main(
            ["train", "--corpus", str(cfile), "--val", str(cfile),
             "--config", str(cfg), "--model", str(model), "--seed", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "epoch 0 train_nll" in out
        pred = tmp_path / "pred.jsonl"
        assert main(
            ["predict", "--corpus", str(cfile), "--model", str(model),
             "--out", str(pred)]
        ) == 0
        assert main(["eval", "--gold", str(cfile), "--pred", str(pred)]) == 0
        assert "micro" in capsys.readouterr().out

    def test_model_written_to_the_name_given(self, tmp_path, capsys):
        # np.savez given a name adds ".npz" when the name lacks it
        cfile = tmp_path / "c.jsonl"
        save_corpus(synth.gen_corpus(n_docs=4, seed=1), cfile)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("hidden = 4\nlookup_dim = 4\nepochs = 1\n")
        model = tmp_path / "m.bin"
        assert main(["train", "--corpus", str(cfile), "--config", str(cfg),
                     "--model", str(model)]) == 0
        assert f"saved {model}" in capsys.readouterr().out
        assert main(["predict", "--corpus", str(cfile), "--model", str(model),
                     "--out", str(tmp_path / "p.jsonl")]) == 0
        assert model.exists() and not (tmp_path / "m.bin.npz").exists()

    def test_train_without_val_prints_no_val_columns(self, tmp_path, capsys):
        cfile = tmp_path / "c.jsonl"
        save_corpus(synth.gen_corpus(n_docs=4, seed=1), cfile)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("hidden = 4\nlookup_dim = 4\nepochs = 2\n")
        assert main(["train", "--corpus", str(cfile), "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" train_nll ")[0] for line in lines] == ["epoch 0", "epoch 1"]
        assert not any("val_" in line for line in lines)

    def test_warm_and_loaded_models_predict_alike(self, tmp_path, capsys, monkeypatch):
        # validation fills the char memo with every epoch's encodings; the
        # model train returns (after restoring its best epoch) predicts what
        # the checkpoint it saved predicts in a fresh process
        docs = synth.gen_corpus(n_docs=16, seed=2)
        cfile, vfile, sfile = tmp_path / "c.jsonl", tmp_path / "v.jsonl", tmp_path / "s.bin"
        save_corpus(docs[:12], cfile)
        save_corpus(docs[12:], vfile)
        save_streams(synth.gen_streams(docs, seed=2), sfile)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("hidden = 8\nuse_lookup = false\nuse_char = true\ncombiner_mode = cdme\n"
                       "d_prime = 4\nepochs = 6\npatience = 1\ndropout = 0.0\nbatch_size = 4\n"
                       "learning_rate = 3e-3\n")
        warm = []
        monkeypatch.setattr(trainer, "train", lambda *a: warm.append(train(*a)) or warm[-1])
        model = tmp_path / "m.npz"
        assert main(["train", "--corpus", str(cfile), "--val", str(vfile), "--streams", str(sfile),
                     "--config", str(cfg), "--model", str(model)]) == 0
        epochs = [line.split()[1] for line in capsys.readouterr().out.splitlines()[:-1]]
        assert epochs == ["0", "1", "2"]  # epoch 1 was the best and is restored
        streams = load_streams(sfile)
        for name, corpus in (("c", docs[:12]), ("v", docs[12:])):
            pred = tmp_path / f"{name}-loaded.jsonl"
            assert main(["predict", "--corpus", str(tmp_path / f"{name}.jsonl"),
                         "--model", str(model), "--streams", str(sfile), "--out", str(pred)]) == 0
            save_corpus([AnnotatedDocument(d.id, d.text, d.tokens,
                                           trainer.predict(warm[0][0], d, streams))
                         for d in corpus], tmp_path / f"{name}-warm.jsonl")
            assert pred.read_bytes() == (tmp_path / f"{name}-warm.jsonl").read_bytes()

    def test_config_unknown_key(self, tmp_path):
        cfile = tmp_path / "c.jsonl"
        save_corpus(synth.gen_corpus(n_docs=4, seed=1), cfile)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("optimizer = sgd\n")
        assert main(
            ["train", "--corpus", str(cfile), "--config", str(cfg)]
        ) == 2


class TestExperiment:
    def test_table3_rows(self, tmp_path, capsys):
        cfile = tmp_path / "c.jsonl"
        save_corpus(synth.gen_corpus(n_docs=10, seed=5), cfile)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("hidden = 4\nlookup_dim = 4\nepochs = 1\ndropout = 0.0\n")
        out_dir = tmp_path / "exp"
        assert main(
            ["experiment", "--recipe", "table3", "--corpus", str(cfile),
             "--val", str(cfile), "--config", str(cfg), "--out", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        for cell in ("no-attention", "weighted", "unweighted"):
            assert cell in out
            assert (out_dir / f"table3_{cell}.json").exists()
        assert (out_dir / "table3_summary.txt").exists()


def _bad_arguments(tmp_path):
    """argv that argparse must reject; each names files that do not exist,
    so a command that ran would exit 2, not 1."""
    f = {name: os.path.join(tmp_path, name) for name in ("c", "g", "p", "i", "q", "a", "o", "m")}
    seedless = {
        "agree": ["--corpus", f["c"], "--corpus-b", f["g"]],
        "predict": ["--corpus", f["c"], "--model", f["m"], "--out", f["o"]],
        "eval": ["--gold", f["g"], "--pred", f["p"]],
        "index": ["--answers", f["a"], "--out", f["o"]],
        "search": ["--index", f["i"], "--corpus", f["c"]],
        "boosts": ["--corpus", f["c"], "--answers", f["a"], "--qrels", f["q"], "--out", f["o"]],
        "mrr": ["--index", f["i"], "--corpus", f["c"], "--qrels", f["q"]],
    }
    cases = {f"{cmd}-seed": [cmd, *argv, "--seed", "1"] for cmd, argv in seedless.items()}
    cases.update({
        "mrr-k-zero": ["mrr", *seedless["mrr"], "--k", "0"],
        "search-k-zero": ["search", *seedless["search"], "--k", "0"],
        "search-k-not-int": ["search", *seedless["search"], "--k", "1.5"],
        "index-min-len-negative": ["index", *seedless["index"], "--min-len", "-5"],
        "gradcheck-component-unknown": ["gradcheck", "--component", "nope"],
        "gradcheck-tolerance-zero": ["gradcheck", "--tolerance", "0"],
        "gradcheck-tolerance-nan": ["gradcheck", "--tolerance", "nan"],
        "gradcheck-trials-zero": ["gradcheck", "--component", "crf", "--trials", "0"],
        "synth-docs-negative": ["synth", "--out", f["o"], "--docs", "-4"],
        "synth-docs-zero": ["synth", "--out", f["o"], "--docs", "0"],
        "stats-seed-without-splits": ["stats", "--corpus", f["c"], "--seed", "5"],
        "stats-seed-negative": ["stats", "--corpus", f["c"], "--splits", "--seed", "-1"],
        "train-seed-negative": ["train", "--corpus", f["c"], "--seed", "-1"],
        "gradcheck-seed-negative": ["gradcheck", "--component", "crf", "--seed", "-1"],
        "experiment-seed-negative": ["experiment", "--recipe", "table3", "--corpus", f["c"],
                                     "--val", f["g"], "--out", f["o"], "--seed", "-1"],
        "synth-seed-negative": ["synth", "--out", f["o"], "--seed", "-1"],
        # a prefix of --model and of --qrels-out
        "train-abbreviated-flag": ["train", "--corpus", f["c"], "--mod", f["m"]],
        "synth-abbreviated-flag": ["synth", "--out", f["o"], "--qrels", f["q"]],
        "experiment-no-test-set": ["experiment", "--recipe", "table3", "--corpus", f["c"],
                                   "--out", f["o"]],
        "experiment-table4-without-streams": ["experiment", "--recipe", "table4",
                                              "--corpus", f["c"], "--val", f["g"],
                                              "--out", f["o"]],
    })
    return cases


@pytest.mark.parametrize("case", sorted(_bad_arguments(".")))
def test_bad_argument_is_usage_error(case, tmp_path, capsys):
    argv = _bad_arguments(tmp_path)[case]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not list(tmp_path.iterdir())  # nothing ran, nothing written
