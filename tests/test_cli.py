import json

import pytest

from segtool import synth
from segtool.cli import main
from segtool.corpus import save_corpus
from segtool.embeddings import save_streams


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.jsonl"
    save_corpus(synth.gen_corpus(n_docs=20, seed=3), path)
    return path


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
        assert main(["gradcheck", "--component", "nope"]) == 2


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
        idx = tmp_path / "index.json.gz"
        assert main(["index", "--answers", str(afile), "--out", str(idx)]) == 0
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
