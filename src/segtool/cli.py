"""Command-line surface: one subcommand per experiment step.

Exit codes: 0 success, 1 usage error, 2 data/format error (or a failing
verification).  All randomness is controlled by --seed.
"""

import argparse
import json
import sys
from dataclasses import asdict, fields

import numpy as np

from . import baselines, corpus, crf, embeddings, encoder, evalmetrics, retrieval, synth, trainer


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_config_file(path):
    """key=value file mirroring TrainConfig; '#' starts a comment.
    Unknown keys are rejected."""
    by_name = {f.name: f for f in fields(trainer.TrainConfig)}
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise trainer.TrainerError(f"{path}:{line_no}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in by_name:
                raise trainer.TrainerError(f"{path}:{line_no}: unknown key {key!r}")
            values[key] = _coerce(key, val, by_name[key].type)
    return values


def _coerce(key, val, typ):
    if typ in ("bool", bool):
        if val.lower() in ("true", "1", "yes"):
            return True
        if val.lower() in ("false", "0", "no"):
            return False
        raise trainer.TrainerError(f"bad boolean for {key}: {val!r}")
    if typ in ("int", int):
        return int(val)
    if typ in ("float", float):
        return float(val)
    if typ in ("tuple", tuple):
        if val.lower() in ("none", ""):
            return None
        return tuple(int(v) for v in val.split(","))
    return val


def _load_train_config(args):
    values = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    if getattr(args, "seed", None) is not None:
        values["seed"] = args.seed
    cfg = trainer.TrainConfig(**values)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# subcommands

def _cmd_stats(args):
    docs = corpus.load_corpus(args.corpus)
    stats = corpus.corpus_stats(docs)
    print(f"questions {stats.question_count}")
    print(f"avg_words {float(stats.avg_words):.2f}")
    print(f"avg_spans_total {float(stats.avg_spans_total):.2f}")
    for lab, v in stats.avg_spans_per_label.items():
        print(f"avg_spans_{lab.value} {float(v):.2f}")
    if args.splits:
        tr, va, te = corpus.split_corpus(docs, seed=args.seed or 0)
        print(f"split_sizes {len(tr)}/{len(va)}/{len(te)}")
    return 0


def _cmd_agree(args):
    a = corpus.load_corpus(args.corpus)
    b = corpus.load_corpus(args.corpus_b)
    rep = corpus.agreement(a, b)
    print(f"kappa {rep.kappa:.4f}")
    header = " ".join(f"{c:>7}" for c in rep.class_names)
    print(f"{'':>4}{header}")
    for name, row in zip(rep.class_names, rep.confusion):
        print(f"{name:>4}" + " ".join(f"{int(v):>7}" for v in row))
    return 0


def _load_streams_arg(args, docs=None):
    if not getattr(args, "streams", None):
        return None
    counts = {d.id: len(d.tokens) for d in docs} if docs else None
    return embeddings.load_streams(args.streams, counts)


def _cmd_train(args):
    cfg = _load_train_config(args)
    train_docs = corpus.load_corpus(args.corpus)
    val_docs = corpus.load_corpus(args.val) if args.val else []
    streams = _load_streams_arg(args, train_docs + val_docs)
    model, logs = trainer.train(train_docs, val_docs, streams, cfg)
    for log in logs:
        print(log.line())
    if args.model:
        model.save(args.model)
        print(f"saved {args.model}")
    return 0


def _cmd_predict(args):
    docs = corpus.load_corpus(args.corpus)
    model = trainer.SegModel.load(args.model)
    streams = _load_streams_arg(args, docs)
    out = [
        corpus.AnnotatedDocument(d.id, d.text, d.tokens, trainer.predict(model, d, streams))
        for d in docs
    ]
    corpus.save_corpus(out, args.out)
    print(f"wrote {len(out)} documents to {args.out}")
    return 0


def _cmd_eval(args):
    gold = corpus.load_corpus(args.gold)
    pred = corpus.load_corpus(args.pred)
    by_id = {d.id: d for d in pred}
    try:
        pred_sets = [by_id[d.id].spans for d in gold]
    except KeyError as exc:
        raise corpus.MismatchedDocuments(f"prediction missing document {exc}") from exc
    report = evalmetrics.soft_pr([d.spans for d in gold], pred_sets, macro=args.macro)
    print(report.to_table())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.out}")
    return 0


def _cmd_gradcheck(args):
    report = trainer.gradcheck(
        args.component, trials=args.trials, tolerance=args.tolerance,
        seed=args.seed or 0,
    )
    for line in report.lines():
        print(line)
    return 0 if report.passed else 2


def _cmd_index(args):
    answers = retrieval.load_answers(args.answers)
    index = retrieval.build_index(answers, min_len=args.min_len)
    retrieval.save_index(index, args.out)
    print(f"indexed {index.n_docs} answers -> {args.out}")
    return 0


def _load_boosts_arg(args):
    if not getattr(args, "boosts", None):
        return None
    with open(args.boosts, encoding="utf-8") as fh:
        return retrieval.BoostProfile.from_json_obj(json.load(fh))


def _cmd_search(args):
    index = retrieval.load_index(args.index)
    docs = corpus.load_corpus(args.corpus)
    boosts = _load_boosts_arg(args)
    for doc in docs:
        if boosts is None:
            ranked = retrieval.unfielded_search(index, doc, args.k)
        else:
            ranked = retrieval.fielded_search(index, doc, boosts, args.k)
        for rank, (aid, score) in enumerate(ranked, start=1):
            print(f"{doc.id}\t{rank}\t{aid}\t{score:.4f}")
    return 0


def _cmd_boosts(args):
    questions = corpus.load_corpus(args.corpus)
    answers = {a.id: a.text for a in retrieval.load_answers(args.answers)}
    qrels = retrieval.load_qrels(args.qrels)
    gold = {q.id: answers[qrels[q.id]] for q in questions if q.id in qrels}
    profile = retrieval.estimate_boosts(questions, gold)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(profile.to_json_obj(), fh, indent=2)
    print(f"wrote {args.out}")
    for c, w in profile.weights.items():
        print(f"boost_{c} {w:.4f}")
    return 0


def _cmd_mrr(args):
    index = retrieval.load_index(args.index)
    questions = corpus.load_corpus(args.corpus)
    qrels = retrieval.load_qrels(args.qrels)
    boosts = _load_boosts_arg(args)
    value = retrieval.mrr(index, questions, qrels, boosts=boosts, k=args.k)
    mode = "fielded" if boosts is not None else "unfielded"
    print(f"mrr_{mode} {value:.4f}")
    return 0


def _cmd_synth(args):
    docs = synth.gen_corpus(args.docs, seed=args.seed or 0, shared_vocab=args.shared_vocab)
    corpus.save_corpus(docs, args.out)
    print(f"wrote {len(docs)} documents to {args.out}")
    if args.streams_out:
        streams = synth.gen_streams(docs, seed=args.seed or 0)
        embeddings.save_streams(streams, args.streams_out)
        print(f"wrote streams to {args.streams_out}")
    if args.answers_out or args.qrels_out or args.questions_out:
        qs, answers, qrels = synth.gen_retrieval(seed=args.seed or 0)
        if args.questions_out:
            corpus.save_corpus(qs, args.questions_out)
        if args.answers_out:
            with open(args.answers_out, "w", encoding="utf-8") as fh:
                for a in answers:
                    fh.write(json.dumps({"id": a.id, "text": a.text}) + "\n")
        if args.qrels_out:
            with open(args.qrels_out, "w", encoding="utf-8") as fh:
                for qid, aid in qrels.items():
                    fh.write(f"{qid}\t{aid}\n")
        print("wrote retrieval fixtures")
    return 0


# -- experiment grids -------------------------------------------------------

def _recipe_cells(recipe, base, stream_count):
    if recipe == "table2":
        return [
            ("lookup", {"use_lookup": True, "use_subword": False}),
            ("subword", {"use_lookup": False, "use_subword": True}),
            ("subword+char", {"use_lookup": False, "use_subword": True, "use_char": True}),
        ]
    if recipe == "table3":
        return [
            ("no-attention", {"attention_mode": "none"}),
            ("weighted", {"attention_mode": "weighted"}),
            ("unweighted", {"attention_mode": "unweighted"}),
        ]
    if recipe == "table4":
        cells = [
            (f"single-{i}", {"combiner_mode": "dme", "stream_indices": (i,)})
            for i in range(stream_count)
        ]
        if stream_count > 1:
            cells += [
                ("concat", {"combiner_mode": "concat"}),
                ("dme", {"combiner_mode": "dme"}),
                ("cdme", {"combiner_mode": "cdme"}),
            ]
        return cells
    raise trainer.TrainerError(f"unknown recipe {recipe!r}")


def run_experiment(recipe, train_docs, val_docs, test_docs, streams, base_cfg, out_dir):
    import os

    os.makedirs(out_dir, exist_ok=True)
    stream_count = streams.n if streams is not None else 0
    rows = []
    for name, overrides in _recipe_cells(recipe, base_cfg, stream_count):
        cfg = trainer.TrainConfig(**{**asdict(base_cfg), **overrides})
        model, _ = trainer.train(train_docs, val_docs, streams, cfg)
        report = trainer.evaluate_model(model, test_docs, streams)
        path = os.path.join(out_dir, f"{recipe}_{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        rows.append((name, report.micro))
    summary = os.path.join(out_dir, f"{recipe}_summary.txt")
    with open(summary, "w", encoding="utf-8") as fh:
        fh.write(f"{'cell':<16}{'P':>9}{'R':>9}{'F1':>9}\n")
        for name, m in rows:
            fh.write(f"{name:<16}{m.precision:>9.4f}{m.recall:>9.4f}{m.f1:>9.4f}\n")
    return rows


def _cmd_experiment(args):
    base = _load_train_config(args)
    train_docs = corpus.load_corpus(args.corpus)
    val_docs = corpus.load_corpus(args.val) if args.val else []
    test_docs = corpus.load_corpus(args.test) if args.test else val_docs
    streams = _load_streams_arg(args, train_docs + val_docs + test_docs)
    rows = run_experiment(
        args.recipe, train_docs, val_docs, test_docs, streams, base, args.out
    )
    print(f"{'cell':<16}{'P':>9}{'R':>9}{'F1':>9}")
    for name, m in rows:
        print(f"{name:<16}{m.precision:>9.4f}{m.recall:>9.4f}{m.f1:>9.4f}")
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    p = _Parser(prog="segtool", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--seed", type=int, default=None)
        return sp

    sp = add("stats", _cmd_stats, help="corpus statistics")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--splits", action="store_true", help="also print 80:10:10 split sizes")

    sp = add("agree", _cmd_agree, help="inter-annotator agreement")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--corpus-b", required=True)

    sp = add("train", _cmd_train, help="train a segmentation model")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--val")
    sp.add_argument("--streams")
    sp.add_argument("--config")
    sp.add_argument("--model")

    sp = add("predict", _cmd_predict, help="predict spans for a corpus")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--streams")
    sp.add_argument("--out", required=True)

    sp = add("eval", _cmd_eval, help="soft precision/recall/F1")
    sp.add_argument("--gold", required=True)
    sp.add_argument("--pred", required=True)
    sp.add_argument("--macro", action="store_true")
    sp.add_argument("--out")

    sp = add("gradcheck", _cmd_gradcheck, help="finite-difference gradient checks")
    sp.add_argument("--component", default="all")
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--tolerance", type=float, default=1e-4)

    sp = add("index", _cmd_index, help="build an answer index")
    sp.add_argument("--answers", required=True)
    sp.add_argument("--min-len", type=int, default=0)
    sp.add_argument("--out", required=True)

    sp = add("search", _cmd_search, help="rank answers for questions")
    sp.add_argument("--index", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--boosts")
    sp.add_argument("--k", type=int, default=10)

    sp = add("boosts", _cmd_boosts, help="estimate per-label boosts")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--answers", required=True)
    sp.add_argument("--qrels", required=True)
    sp.add_argument("--out", required=True)

    sp = add("mrr", _cmd_mrr, help="mean reciprocal rank")
    sp.add_argument("--index", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--qrels", required=True)
    sp.add_argument("--boosts")
    sp.add_argument("--k", type=int, default=100)

    sp = add("experiment", _cmd_experiment, help="run an ablation grid")
    sp.add_argument("--recipe", required=True, choices=["table2", "table3", "table4"])
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--val")
    sp.add_argument("--test")
    sp.add_argument("--streams")
    sp.add_argument("--config")
    sp.add_argument("--out", required=True)

    sp = add("synth", _cmd_synth, help="generate a synthetic corpus")
    sp.add_argument("--out", required=True)
    sp.add_argument("--docs", type=int, default=250)
    sp.add_argument("--shared-vocab", action="store_true")
    sp.add_argument("--streams-out")
    sp.add_argument("--answers-out")
    sp.add_argument("--qrels-out")
    sp.add_argument("--questions-out")

    return p


_DATA_ERRORS = (
    corpus.CorpusError,
    evalmetrics.MetricsError,
    embeddings.EmbeddingsError,
    encoder.EncoderError,
    crf.CrfError,
    trainer.TrainerError,
    baselines.BaselineError,
    retrieval.RetrievalError,
    OSError,
    json.JSONDecodeError,
    KeyError,
)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.fn(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
