"""Seeded inputs and the three workloads.

Every workload runs the same closed-loop path a user of segtool runs —
train a tagger, tag documents, score them with soft P/R, index answers,
save and reload the results and answer segmented questions — but sizes
each part so that a different layer does most of the work:

- ``train-lookup``: lookup-embedding training; CRF forward-backward and
  the GRU backward dominate.  Retrieval uses a small fixture with short
  posting lists.
- ``train-fusion``: CDME over three planted streams, the char biLSTM and
  weighted attention; the per-token char LSTM dominates.  The only
  workload that exercises ``embeddings`` beyond lookup and
  ``encoder.attention``.
- ``tag-retrieve``: the model is trained during set-up; the measured part
  tags 1000 documents (4% of them several hundred tokens long), scores
  them and answers questions against a 4000-answer index whose
  Zipf-distributed terms give posting lists in the thousands.  A tenth
  of its time goes to short timed-only trainings, the only source of
  train_tokens_per_s samples spread over its run.

All inputs come from ``synth`` and the generators below, seeded by
``--seed``.  One caller; each call waits for the previous one.
"""

import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from segtool import corpus, evalmetrics, retrieval, synth, trainer

import checks

SETUP_REPEATS = 3  # set-ups per run at least, spread over the measured time
# documents tagged, documents scored and questions asked per unit; soft_pr
# units split the unseen documents evenly, so that no two groups of
# different cost alternate around the median
CHUNKS = {
    "train-lookup": dict(tag=25, eval=35, questions=10),  # 175 unseen documents
    "train-fusion": dict(tag=5, eval=46, questions=5),  # 46; its tagger is ~10x slower
    "tag-retrieve": dict(tag=25, eval=100, questions=10),  # 1000, 4 long ones per 100
}
CHECK_QUESTIONS = 3  # questions per run checked against the bm25 oracle
HEAD_DF, TAIL_DF = 1000, 100  # posting-list lengths that make a term head / tail
TAIL_LADDER = (50, 90, 95, 99, 99.9)

# share of the measured time each phase gets after the warm-up
SHARES = {
    "train-lookup": dict(train=0.45, setup=0.05, tag=0.1, eval=0.1, index=0.1, io=0.1,
                         questions=0.1),
    "train-fusion": dict(train=0.35, setup=0.05, tag=0.15, eval=0.1, index=0.1, io=0.1,
                         questions=0.15),
    "tag-retrieve": dict(setup=0.1, train=0.1, tag=0.2, eval=0.15, index=0.15, io=0.15,
                         questions=0.15),
}
# (documents, epochs) of the training that gives the model every later
# unit uses, and of each further, timed-only training unit
QUALITY_TRAIN = {"train-lookup": (100, 1), "train-fusion": (20, 3), "tag-retrieve": (100, 1)}
RATE_TRAIN = {"train-lookup": (20, 1), "train-fusion": (5, 1), "tag-retrieve": (20, 1)}

LOOKUP_CFG = dict(hidden=32, lookup_dim=32, learning_rate=2e-2, epochs=1, seed=0)
FUSION_CFG = dict(
    hidden=32, use_lookup=False, use_char=True, combiner_mode="cdme",
    attention_mode="weighted", d_prime=16, dropout=0.0, learning_rate=2e-2,
    batch_size=2, epochs=3, seed=0,
)

WORKLOADS = ("train-lookup", "train-fusion", "tag-retrieve")


def tail_percentile(n):
    """Highest ladder percentile with at least ten of n samples beyond it."""
    return max([p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10], default=50)


# ---------------------------------------------------------------------------
# Input generators


def concat_docs(doc_id, parts):
    """One document made of several, separated by blank lines."""
    text = "\n\n".join(p.text for p in parts)
    spans, offset = [], 0
    for p in parts:
        spans += [corpus.SegmentSpan(s.start_token + offset, s.end_token + offset, s.label)
                  for s in p.spans]
        offset += len(p.tokens)
    doc = corpus.AnnotatedDocument(doc_id, text, corpus.tokenize(text), spans)
    if len(doc.tokens) != offset:
        raise ValueError(f"{doc_id}: concatenation changed the token count")
    doc.validate()
    return doc


def tag_corpus(n_blocks, block, seed):
    """Blocks of gen_corpus documents, each holding one long document of
    5-9 concatenated ones at a random place, so that every unit of
    ``block`` documents tagged, or of whole blocks scored, holds the same
    mix of lengths."""
    rng = np.random.default_rng(seed + 101)
    short = iter(synth.gen_corpus(n_blocks * (block - 1), seed=seed + 1))
    pool = synth.gen_corpus(9 * n_blocks, seed=seed + 2)
    docs, k = [], 0
    for i in range(n_blocks):
        m = int(rng.integers(5, 10))
        part = [next(short) for _ in range(block - 1)]
        part.insert(int(rng.integers(block)), concat_docs(f"long{i:04d}", pool[k : k + m]))
        docs += part
        k += m
    return docs


def zipf_terms(rng, n, vocab=50_000, exponent=1.1):
    p = np.arange(1, vocab + 1, dtype=np.float64) ** -exponent
    return [f"w{k}" for k in rng.choice(vocab, size=n, p=p / p.sum())]


def retrieval_inputs(n_questions, n_answers, seed, zipf_per_doc=0):
    """gen_retrieval fixtures; with zipf_per_doc > 0, every question and
    answer gets that many extra terms from a Zipf distribution, appended
    as prose after the last segment."""
    questions, answers, qrels = synth.gen_retrieval(n_questions, n_answers, seed=seed)
    if zipf_per_doc:
        rng = np.random.default_rng(seed + 7)
        extra = iter(zipf_terms(rng, zipf_per_doc * (len(questions) + len(answers))))

        def more():
            return " ".join(next(extra) for _ in range(zipf_per_doc))

        questions = [
            corpus.AnnotatedDocument(q.id, text, corpus.tokenize(text), q.spans)
            for q in questions
            for text in [q.text + "\n" + more()]
        ]
        answers = [retrieval.AnswerDoc(a.id, a.text + " " + more()) for a in answers]
    texts = {a.id: a.text for a in answers}
    boosts = retrieval.estimate_boosts(questions, {q.id: texts[qrels[q.id]] for q in questions})
    return questions, answers, qrels, boosts


@dataclass
class Inputs:
    train_docs: list
    val_docs: list
    tag_docs: list  # documents the tagger has not been trained on
    streams: object
    scored: list  # per tag document, the spans soft_pr units score against gold
    questions: list
    answers: list
    qrels: dict
    boosts: object
    model: object = None  # trained during set-up (tag-retrieve only)


def train_config(name, epochs):
    cfg = trainer.TrainConfig(**(FUSION_CFG if name == "train-fusion" else LOOKUP_CFG))
    cfg.epochs = cfg.patience = epochs  # early stopping never triggers
    return cfg


def setup(name, seed, toy):
    """Generate the inputs of one workload (and train its model where the
    workload does that in set-up)."""
    size = (lambda full, small: small) if toy else (lambda full, small: full)
    if name == "train-lookup":
        docs = synth.gen_corpus(size(400, 40), seed=seed)
        tr, va, te = corpus.split_corpus(docs, (0.5, 0.0625, 0.4375), seed=seed)
        rq = retrieval_inputs(size(100, 12), size(1000, 100), seed)
        streams = None
    elif name == "train-fusion":
        docs = synth.gen_corpus(size(105, 20), seed=seed, shared_vocab=True)
        tr, va, te = corpus.split_corpus(docs, (0.49, 0.08, 0.43), seed=seed)
        rq = retrieval_inputs(size(100, 12), size(1000, 100), seed)
        streams = synth.gen_streams(docs + rq[0], seed=seed)
    elif name == "tag-retrieve":
        tr_va = synth.gen_corpus(size(110, 20), seed=seed + 3)
        tr, va = tr_va[: len(tr_va) * 10 // 11], tr_va[len(tr_va) * 10 // 11 :]
        te = tag_corpus(size(40, 2), CHUNKS[name]["tag"], seed)
        rq = retrieval_inputs(size(100, 12), size(4000, 300), seed, zipf_per_doc=6)
        streams = None
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng = np.random.default_rng(seed + 11)
    inputs = Inputs(tr, va, te, streams, [shifted(d.spans, len(d.tokens), rng) for d in te], *rq)
    if name == "tag-retrieve":
        n_docs, epochs = QUALITY_TRAIN[name]
        cfg = train_config(name, 1 if toy else epochs)
        inputs.model, _ = trainer.train(tr[:n_docs], va, None, cfg)
    return inputs


def shifted(spans, n_tokens, rng):
    """Gold spans with each boundary moved by -1..1 token and one in ten
    dropped: what a tagger with boundary errors predicts.  soft_pr units
    score these rather than the run's model output, whose span count, and
    so soft_pr's quadratic work, would follow how well that model trained."""
    out, prev_end = [], 0
    for s in sorted(spans, key=lambda s: s.start_token):
        if rng.random() < 0.1:
            continue
        start = max(prev_end, s.start_token + int(rng.integers(-1, 2)))
        end = min(n_tokens, s.end_token + int(rng.integers(-1, 2)))
        if start < end:
            out.append(corpus.SegmentSpan(start, end, s.label))
            prev_end = end
    return out


def n_tokens(docs):
    return sum(len(d.tokens) for d in docs)


def chunks(items, size):
    """Consecutive chunks of near-equal length, none longer than size."""
    n = -(-len(items) // size)
    bounds = [len(items) * i // n for i in range(n + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def cycle(items):
    while True:
        yield from items


# ---------------------------------------------------------------------------
# Measurement


@dataclass
class Ledger:
    """Operations and output checks attempted, and the checks that failed."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def ops(self, n):
        self.attempted += n

    def check(self, messages):
        self.attempted += 1
        self.failed += bool(messages)
        self.failures += messages


def measure(name, seed, toy, inputs, seconds, ledger, set_phase, setup_s, reference):
    """Run the measured phases; returns (end-to-end samples, counters,
    workload properties).  setup_s holds the first set-up's duration and
    gains one entry per set-up repeated here; reference times its loop
    between units.

    Every phase is cut into small units — a short training, a few
    documents tagged, one soft_pr over about 100 documents, one index
    build, one save and reload, a few questions, one set-up — so each
    timing gets many samples spread over the run.  Training (train-*)
    first gives the model every later unit uses.  One unit of every
    phase then runs in pipeline order as the warm-up, whose timings do
    not count.  Until --seconds have passed, further units interleave,
    each taken from the phase furthest below its share of the time.
    Afterwards, untimed, the documents and questions no unit reached are
    tagged and asked, so the quality metrics cover the whole input and
    depend on the seed alone.
    """
    start = time.perf_counter()
    keys = ("train_tok_s", "tag_tok_s", "eval_s", "index_build_s", "io_s", "question_s")
    samples = {k: [] for k in keys}
    train_logs, tag_docs, streams, model = [], inputs.tag_docs, inputs.streams, inputs.model
    size = CHUNKS[name]
    tag_chunks = chunks(tag_docs, size["tag"])
    eval_groups = chunks(list(range(len(tag_docs))), size["eval"])
    question_chunks = chunks(inputs.questions, size["questions"])
    gold = [d.spans for d in tag_docs]
    preds, reports, answered = {}, {}, {}  # tag unit / eval group / question id -> output
    io_dir = os.path.join(".perfbench", "io")
    os.makedirs(io_dir, exist_ok=True)
    corpus_path = os.path.join(io_dir, f"pred-{os.getpid()}.jsonl")
    index_path = os.path.join(io_dir, f"index-{os.getpid()}.json.gz")
    set_phase("measure")

    def timed(key, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        samples[key].append(time.perf_counter() - t0)
        ledger.ops(1)
        return out

    def train(docs, epochs, val_docs):
        # one whole trainer.train call, early stopping disabled
        cfg = train_config(name, 1 if toy else epochs)
        t0 = time.perf_counter()
        out, logs = trainer.train(docs, val_docs, streams, cfg)
        rate = n_tokens(docs) * len(logs) / (time.perf_counter() - t0)
        train_logs.append(logs)
        ledger.ops(1)
        return out, rate

    rate_windows = cycle(chunks(inputs.train_docs, RATE_TRAIN[name][0]))

    def train_unit():
        samples["train_tok_s"].append(train(next(rate_windows), RATE_TRAIN[name][1], [])[1])

    def tag(i):
        docs = tag_chunks[i]
        t0 = time.perf_counter()
        out = [trainer.predict(model, d, streams) for d in docs]
        samples["tag_tok_s"].append(n_tokens(docs) / (time.perf_counter() - t0))
        ledger.ops(len(docs))
        preds.setdefault(i, out)

    def score(j):
        ids = eval_groups[j]
        report = timed("eval_s", evalmetrics.soft_pr, [gold[i] for i in ids],
                       [inputs.scored[i] for i in ids])
        reports.setdefault(j, report)

    saved_docs = [
        corpus.AnnotatedDocument(tag_docs[i].id, tag_docs[i].text, tag_docs[i].tokens,
                                 inputs.scored[i])
        for i in eval_groups[0]
    ]

    def round_trip():
        corpus.save_corpus(saved_docs, corpus_path)
        docs = corpus.load_corpus(corpus_path)
        retrieval.save_index(index, index_path)
        return docs, retrieval.load_index(index_path)

    def ask(batch):
        # predict the segments, then the boosted fielded query
        for q in batch:
            t0 = time.perf_counter()
            spans = trainer.predict(model, q, streams)
            qdoc = corpus.AnnotatedDocument(q.id, q.text, q.tokens, spans)
            ranked = retrieval.fielded_search(index, qdoc, inputs.boosts, k=100)
            samples["question_s"].append(time.perf_counter() - t0)
            answered.setdefault(q.id, (qdoc, ranked))
        ledger.ops(len(batch))

    def setup_again():
        set_phase("setup")
        t0 = time.perf_counter()
        setup(name, seed, toy)
        setup_s.append(time.perf_counter() - t0)
        set_phase("measure")

    spent, last = {}, {}

    def run(phase, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        last[phase] = time.perf_counter() - t0
        spent[phase] = spent.get(phase, 0.0) + last[phase]
        reference.sample()
        return out

    if model is None:
        # not a train_tok_s sample: its size differs from the timed-only units
        n_docs, epochs = QUALITY_TRAIN[name]
        model, rate = train(inputs.train_docs[:n_docs], epochs, inputs.val_docs)
        samples["model_train_tok_s"] = [rate]
        reference.sample()

    # warm-up, in pipeline order
    tag_order, score_order = cycle(range(len(tag_chunks))), cycle(range(len(eval_groups)))
    question_order = cycle(question_chunks)
    index = run("index", timed, "index_build_s", retrieval.build_index, inputs.answers)
    run("tag", tag, next(tag_order))
    run("questions", ask, next(question_order))
    run("eval", score, next(score_order))
    loaded_docs, loaded_index = run("io", timed, "io_s", round_trip)
    run("train", train_unit)
    run("setup", setup_again)
    # peak after one unit of every phase: later units only repeat them, so
    # reading it here keeps it independent of how many fit into the run
    samples["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # set-up samples stay: a run has only a few
    warm_up = {k: len(samples[k]) for k in keys}
    spent.update(dict.fromkeys(spent, 0.0))  # shares count from here

    phases = {
        "train": train_unit,
        "setup": setup_again,
        "tag": lambda: tag(next(tag_order)),
        "eval": lambda: score(next(score_order)),
        "index": lambda: timed("index_build_s", retrieval.build_index, inputs.answers),
        "io": lambda: timed("io_s", round_trip),
        "questions": lambda: ask(next(question_order)),
    }
    share = SHARES[name]
    while True:
        now = time.perf_counter() - start
        fits = [p for p in share if now + last[p] <= seconds]
        missing = SETUP_REPEATS - len(setup_s)
        if missing > 0 and now + (missing + 1) * last["setup"] > seconds:
            fits = ["setup"]  # the minimum number of set-ups, while they still fit
        elif not fits:
            break
        p = min(fits, key=lambda p: spent[p] / share[p])
        run(p, phases[p])

    for path in (corpus_path, index_path):
        os.remove(path)
    for key, n in warm_up.items():
        if len(samples[key]) > n:  # a phase with no unit after the warm-up keeps it
            del samples[key][:n]

    # untimed: cover what no unit reached, for the quality metrics and checks
    set_phase("check")
    n_samples = {k: len(samples[k]) for k in keys}
    for i in range(len(tag_chunks)):
        if i not in preds:
            tag(i)
    ask([q for q in inputs.questions if q.id not in answered])
    for k, n in n_samples.items():
        del samples[k][n:]
    predicted = [p for i in range(len(tag_chunks)) for p in preds[i]]
    p, r = checks.reference_pr(gold, predicted)  # equal to soft_pr's, see the checks
    samples["heldout_f1"] = 2 * p * r / (p + r) if p + r else 0.0
    qdocs = [answered[q.id] for q in inputs.questions]
    ranks = [
        next((r for r, (d, _) in enumerate(ranked, 1) if d == inputs.qrels[qdoc.id]), None)
        for qdoc, ranked in qdocs
    ]
    samples["mrr_boosted"] = sum(1.0 / r for r in ranks if r) / len(ranks)

    # output checks, outside every timed region
    for logs in train_logs:
        ledger.check(checks.nll_finite(logs))
    for d, p in zip(tag_docs, predicted):
        ledger.check(checks.spans_valid(p, len(d.tokens)))
    for qdoc, _ in qdocs:
        ledger.check(checks.spans_valid(qdoc.spans, len(qdoc.tokens)))
    for j, report in reports.items():
        ids = eval_groups[j]
        ledger.check(checks.soft_pr_matches(report, [gold[i] for i in ids],
                                            [inputs.scored[i] for i in ids]))
    ledger.check(checks.corpus_round_trip(saved_docs, loaded_docs))
    ledger.check(checks.index_round_trip(index, loaded_index))
    for qdoc, _ in qdocs[:CHECK_QUESTIONS]:
        ledger.check(checks.neutral_search_matches(index, qdoc))

    props = properties(inputs, index, [qdoc for qdoc, _ in qdocs])
    counters = {
        "epochs": sum(map(len, train_logs)),
        "postings_per_query": props["postings_per_query"]["mean"],
    }
    return samples, counters, props


def _lengths(docs):
    n = [len(d.tokens) for d in docs]
    if not n:
        return {"docs": 0}
    return {
        "docs": len(n),
        "median": statistics.median(n),
        "max": max(n),
        "share_over_200": sum(x > 200 for x in n) / len(n),
    }


def properties(inputs, index, qdocs):
    """Input properties later claims cite: document lengths, how many
    query terms are head or tail terms, and postings scanned per query."""
    df = {t: len(p) for t, p in index.postings.items()}
    terms = [t.text.lower() for q in qdocs for t in q.tokens]
    per_query = [sum(df.get(t.text.lower(), 0) for t in q.tokens) for q in qdocs]
    head = sum(df.get(t, 0) >= HEAD_DF for t in terms)
    tail = sum(df.get(t, 0) < TAIL_DF for t in terms)
    return {
        "train_lengths": _lengths(inputs.train_docs),
        "tag_lengths": _lengths(inputs.tag_docs),
        "question_lengths": _lengths(qdocs),
        "answers_indexed": index.n_docs,
        "query_terms": {
            "n": len(terms),
            f"head_share_df_ge_{HEAD_DF}": head / len(terms),
            f"tail_share_df_lt_{TAIL_DF}": tail / len(terms),
        },
        "postings_per_query": {
            "mean": statistics.fmean(per_query),
            "median": statistics.median(per_query),
            "max": max(per_query),
        },
    }
