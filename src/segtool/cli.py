"""Command-line surface: one subcommand per experiment step.

Exit codes: 0 success, 1 usage error (a bad or missing argument), 2
data/format error (or a failing verification), 141 (128 + SIGPIPE) when
the reader of standard output closed it early, as ``| head`` does.  The
commands that draw random numbers (stats, train, gradcheck, experiment,
synth) take --seed.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

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
    with corpus.reading(path, trainer.TrainerError) as at, open(path, encoding="utf-8") as fh:
        for at.line, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise trainer.TrainerError("expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in by_name:
                raise trainer.TrainerError(f"unknown key {key!r}")
            try:
                values[key] = _coerce(val, by_name[key].type)
            except ValueError:
                raise trainer.TrainerError(f"bad value {val!r} for {key}") from None
    return values


def _coerce(val, typ):
    """``val`` parsed as ``typ``; ValueError when it is no such value."""
    if typ is bool:
        if val.lower() in ("true", "1", "yes"):
            return True
        if val.lower() in ("false", "0", "no"):
            return False
        raise ValueError(val)
    if typ in (int, float):
        return typ(val)
    if typ is tuple:
        if val.lower() in ("none", ""):
            return None
        return tuple(int(v) for v in val.split(","))
    return val


def _load_train_config(args):
    path = getattr(args, "config", None)
    values = _parse_config_file(path) if path else {}
    if getattr(args, "seed", None) is not None:
        values["seed"] = args.seed
    cfg = trainer.TrainConfig(**values)
    with corpus.reading(path, trainer.TrainerError):  # only values from the file can fail
        cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# subcommands

def _cmd_stats(args):
    docs = corpus.load_corpus(args.corpus)
    with corpus.reading(args.corpus, corpus.CorpusError):  # no documents
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
    with corpus.reading(args.corpus_b, corpus.CorpusError):
        rep = corpus.agreement(a, b)
    print(f"kappa {rep.kappa:.4f}")
    header = " ".join(f"{c:>7}" for c in corpus.CLASS_NAMES)
    print(f"{'':>4}{header}")
    for name, row in zip(corpus.CLASS_NAMES, rep.confusion):
        print(f"{name:>4}" + " ".join(f"{int(v):>7}" for v in row))
    return 0


def _load_streams_arg(args, docs, dims=None):
    """The --streams set, holding each of ``docs`` with a row per token, or
    None without --streams."""
    if not args.streams:
        return None
    return embeddings.load_streams(args.streams, {d.id: len(d.tokens) for d in docs}, dims)


def _check_fusion(source, cfgs, streams):
    """Each of ``cfgs`` checked against the --streams set: one that fuses
    streams needs the set and stream indices it holds.  The error names
    ``source``, the --config file or checkpoint the configs come from."""
    with corpus.reading(source, trainer.TrainerError):
        for cfg in cfgs:
            cfg.validate(0 if streams is None else streams.n)


def _load_scored(path, kind, verb):
    """The documents of a set that is scored: --val, --gold or --test.  A
    file with no documents, or none with a token, would score as perfect
    (or score no epoch): refused, naming the file."""
    docs = corpus.load_corpus(path)
    with corpus.reading(path, trainer.NoTokens):
        if not docs:
            raise corpus.EmptyCorpus(f"no documents to {verb}")
        if not any(d.tokens for d in docs):
            raise trainer.NoTokens(f"no {kind} document has a token")
    return docs


def _cmd_train(args):
    cfg = _load_train_config(args)
    train_docs = corpus.load_corpus(args.corpus)
    val_docs = _load_scored(args.val, "validation", "validate on") if args.val else []
    streams = _load_streams_arg(args, train_docs + val_docs)
    _check_fusion(args.config, [cfg], streams)
    with corpus.reading(args.corpus, trainer.NoTokens):
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
    streams = _load_streams_arg(args, docs, model.stream_dims if model.combiner else None)
    _check_fusion(args.model, [model.cfg], streams)
    out = [
        corpus.AnnotatedDocument(d.id, d.text, d.tokens, trainer.predict(model, d, streams))
        for d in docs
    ]
    corpus.save_corpus(out, args.out)
    print(f"wrote {len(out)} documents to {args.out}")
    return 0


def _cmd_eval(args):
    gold = _load_scored(args.gold, "gold", "score")
    pred = corpus.load_corpus(args.pred)
    with corpus.reading(args.pred, corpus.CorpusError):  # extra predictions are allowed
        pred = corpus.matching(gold, pred, args.gold)
    report = evalmetrics.soft_pr([d.spans for d in gold], [d.spans for d in pred], args.macro)
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
    with corpus.reading(args.answers, retrieval.RetrievalError):
        index = retrieval.build_index(answers, min_len=args.min_len)
    retrieval.save_index(index, args.out)
    print(f"indexed {index.n_docs} answers, {len(index.terms)} terms, {len(index.rows)} postings"
          f" -> {args.out} ({os.path.getsize(args.out)} bytes)")
    return 0


def _load_boosts_arg(args):
    path = getattr(args, "boosts", None)
    if not path:
        return None
    with corpus.reading(path, retrieval.RetrievalError), open(path, encoding="utf-8") as fh:
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
    with corpus.reading(args.qrels, retrieval.RetrievalError):
        for q in questions:
            if q.id in qrels and qrels[q.id] not in answers:
                raise retrieval.UnknownGoldId(
                    f"answer {qrels[q.id]!r} of question {q.id!r} is not in {args.answers}"
                )
        gold = {q.id: answers[qrels[q.id]] for q in questions if q.id in qrels}
        profile = retrieval.estimate_boosts(questions, gold)  # or no question has a qrel
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
    try:
        value = retrieval.mrr(index, questions, qrels, boosts=boosts, k=args.k)
    except (retrieval.MissingQrel, retrieval.UnknownGoldId):
        with corpus.reading(args.qrels, retrieval.RetrievalError):
            raise  # named as the qrels file's error
    except retrieval.RetrievalError:
        with corpus.reading(args.corpus, retrieval.RetrievalError):
            raise  # an empty question set
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

def _recipe_cells(recipe, base_cfg, stream_count):
    """(name, config) of each cell of the recipe: base_cfg with the cell's changes."""
    if recipe == "table2":
        cells = [
            ("lookup", {"use_lookup": True, "use_subword": False}),
            ("subword", {"use_lookup": False, "use_subword": True}),
            ("subword+char", {"use_lookup": False, "use_subword": True, "use_char": True}),
        ]
    elif recipe == "table3":
        cells = [
            ("no-attention", {"attention_mode": "none"}),
            ("weighted", {"attention_mode": "weighted"}),
            ("unweighted", {"attention_mode": "unweighted"}),
        ]
    elif recipe == "table4":
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
    else:
        raise trainer.TrainerError(f"unknown recipe {recipe!r}")
    return [(name, trainer.TrainConfig(**{**asdict(base_cfg), **changes}))
            for name, changes in cells]


def run_experiment(recipe, cells, train_docs, val_docs, test_docs, streams, out_dir):
    """Train and test each (name, config) cell of the recipe, writing one
    report per cell and the P/R/F1 table to ``out_dir``; returns the table's
    text."""
    os.makedirs(out_dir, exist_ok=True)
    table = f"{'cell':<16}{'P':>9}{'R':>9}{'F1':>9}\n"
    for name, cfg in cells:
        model, _ = trainer.train(train_docs, val_docs, streams, cfg)
        report = trainer.evaluate_model(model, test_docs, streams)
        path = os.path.join(out_dir, f"{recipe}_{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        m = report.micro
        table += f"{name:<16}{m.precision:>9.4f}{m.recall:>9.4f}{m.f1:>9.4f}\n"
    with open(os.path.join(out_dir, f"{recipe}_summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(table)
    return table


def _cmd_experiment(args):
    base = _load_train_config(args)
    train_docs = corpus.load_corpus(args.corpus)
    val_docs = _load_scored(args.val, "validation", "validate on") if args.val else []
    test_docs = _load_scored(args.test, "test", "test on") if args.test else val_docs
    streams = _load_streams_arg(args, train_docs + val_docs + test_docs)
    cells = _recipe_cells(args.recipe, base, streams.n if streams is not None else 0)
    _check_fusion(args.config, [cfg for _, cfg in cells], streams)
    with corpus.reading(args.corpus, trainer.NoTokens):
        table = run_experiment(args.recipe, cells, train_docs, val_docs, test_docs, streams,
                               args.out)
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------

def _bounded(kind, low, above=False):
    """An argparse type: a finite ``kind`` of at least ``low``, or above it."""
    def parse(text):
        value = kind(text)
        if not low <= value < float("inf") or (above and value == low):
            raise argparse.ArgumentTypeError(f"{text} is not {'>' if above else '>='} {low}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" on a non-number
    return parse


def build_parser():
    p = _Parser(prog="segtool", description=__doc__, allow_abbrev=False)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, seed=False, **kw):
        sp = sub.add_parser(name, allow_abbrev=False, **kw)
        sp.set_defaults(fn=fn)
        if seed:
            sp.add_argument("--seed", type=_bounded(int, 0), default=None)
        return sp

    sp = add("stats", _cmd_stats, seed=True, help="corpus statistics")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--splits", action="store_true", help="also print 80:10:10 split sizes")

    sp = add("agree", _cmd_agree, help="inter-annotator agreement")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--corpus-b", required=True)

    sp = add("train", _cmd_train, seed=True, help="train a segmentation model")
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

    sp = add("gradcheck", _cmd_gradcheck, seed=True, help="finite-difference gradient checks")
    sp.add_argument("--component", default="all", choices=["all", *trainer.CHECKS])
    sp.add_argument("--trials", type=_bounded(int, 1), default=20)
    sp.add_argument("--tolerance", type=_bounded(float, 0, above=True), default=1e-4)

    sp = add("index", _cmd_index, help="build an answer index")
    sp.add_argument("--answers", required=True)
    sp.add_argument("--min-len", type=_bounded(int, 0), default=0)
    sp.add_argument("--out", required=True)

    sp = add("search", _cmd_search, help="rank answers for questions")
    sp.add_argument("--index", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--boosts")
    sp.add_argument("--k", type=_bounded(int, 1), default=10)

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
    sp.add_argument("--k", type=_bounded(int, 1), default=100)

    sp = add("experiment", _cmd_experiment, seed=True, help="run an ablation grid")
    sp.add_argument("--recipe", required=True, choices=["table2", "table3", "table4"])
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--val")
    sp.add_argument("--test")
    sp.add_argument("--streams")
    sp.add_argument("--config")
    sp.add_argument("--out", required=True)

    sp = add("synth", _cmd_synth, seed=True, help="generate a synthetic corpus")
    sp.add_argument("--out", required=True)
    sp.add_argument("--docs", type=_bounded(int, 1), default=250)
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
)


def _check_args(args):
    """Usage errors in how the arguments combine, found before any file is read."""
    if args.command == "stats" and args.seed is not None and not args.splits:
        raise UsageError("--seed needs --splits: stats draws no random numbers without it")
    if args.command == "experiment" and not (args.test or args.val):
        raise UsageError("experiment needs --test or --val to score its cells on")
    if args.command == "experiment" and args.recipe == "table4" and not args.streams:
        raise UsageError("--recipe table4 needs --streams to fuse")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # stop silently, as a writer killed by SIGPIPE would; with stdout
        # on devnull the flush at exit prints nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
