"""segtool benchmark: one workload per process, one caller, closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tag-retrieve --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured with nothing wrapped; with ``--trace 1``
the per-layer ones, from spans recorded around calls into segtool's
modules.  Lines before it describe the environment, the inputs, the model
quality, the machine speed and every timing's sample count and tail.
Exit status 1 means an output check failed; 2 means segtool could not be
found in the checkout.
"""

import argparse
import contextlib
import gc
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".perfbench"  # relative to the checkout root, ignored by git
BLAS_THREADS = "1"  # small matrices; one thread keeps timings steady on a shared machine

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_tokens_per_s": "tok/s",
    "tag_tokens_per_s": "tok/s",
    "eval_s": "s",
    "index_build_s": "s",
    "io_s": "s",
    "question_ms_p50": "ms",
}

# layer metrics: self time per document through the tagger
PER_DOC = [
    "crf.nll_and_grads", "crf.viterbi", "nn.gru.forward", "nn.gru.backward",
    "nn.lstm.forward", "nn.lstm.backward", "embeddings.lookup.embed_sequence",
    "embeddings.char.forward", "embeddings.char.backward",
    "embeddings.combiner.forward", "embeddings.combiner.backward",
    "encoder.bigru.encode", "encoder.bigru.backward",
    "encoder.attention.forward", "encoder.attention.backward",
    "trainer.emissions", "trainer.backward", "trainer.doc_loss", "trainer.predict",
    "corpus.spans_to_bio",
]
PER_STEP = ["nn.adam.step", "nn.clip_global_norm"]
PER_QUERY = ["retrieval.fielded_search", "retrieval.question_segments"]
PER_CALL_SELF = ["evalmetrics.soft_pr", "retrieval.build_index", "corpus.tokenize"]
PER_CALL_TOTAL = [
    "retrieval.save_index", "retrieval.load_index", "corpus.save_corpus", "corpus.load_corpus",
]


def per_layer_units():
    units = {f"{n}.self_ms_per_doc": "ms/doc" for n in PER_DOC}
    units.update({f"{n}.self_ms_per_step": "ms/step" for n in PER_STEP})
    units.update({f"{n}.self_ms_per_query": "ms/query" for n in PER_QUERY})
    units.update({f"{n}.self_ms_per_call": "ms/call" for n in PER_CALL_SELF})
    units.update({f"{n}.ms_per_call": "ms/call" for n in PER_CALL_TOTAL})
    units.update({
        "nn.lstm.calls_per_doc": "calls/doc",
        "trainer.doc_loss.calls_per_epoch": "calls/epoch",
        "trainer.evaluate_model.ms_per_epoch": "ms/epoch",
        "evalmetrics.soft_pr.calls": "count",
        "retrieval.postings_per_query": "count",
        "synth.gen.ms_per_setup": "ms/setup",
    })
    return units


def git_revision():
    """HEAD of the checkout, read without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError), open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }


def timing(values):
    """Median, quartiles, tail percentile and sample count of one timing."""
    import numpy

    from workloads import tail_percentile

    n = len(values)
    out = {"n": n, "median": statistics.median(values), "min": min(values), "max": max(values)}
    for p in (10, 25, 75, 90):
        out[f"q{p}"] = float(numpy.percentile(values, p))
    if n >= 100:
        p = tail_percentile(n)
        out[f"p{p:g}"] = float(numpy.percentile(values, p))
    return out


def end_to_end(samples, setup_durations, speed):
    """Medians of per-unit times and rates, scaled to the reference
    loop's nominal speed: times by speed, rates by 1 / speed."""

    def time_at(values):
        return statistics.median(values) * speed

    def rate_at(values):
        return statistics.median(values) / speed

    return {
        "setup_s": time_at(setup_durations),
        "peak_rss_mb": samples["peak_rss_mb"],
        "train_tokens_per_s": rate_at(samples["train_tok_s"]),
        "tag_tokens_per_s": rate_at(samples["tag_tok_s"]),
        "eval_s": time_at(samples["eval_s"]),
        "index_build_s": time_at(samples["index_build_s"]),
        "io_s": time_at(samples["io_s"]),
        "question_ms_p50": time_at(samples["question_s"]) * 1000,
    }


def per_layer(tracer, counters, n_setups):
    measured = tracer.totals("measure")

    def calls(name):
        return measured.get(name, (0, 0.0, 0.0))[0]

    def self_ms(name):
        return measured.get(name, (0, 0.0, 0.0))[2] * 1000

    def ratio(a, b):
        return a / b if b else 0.0

    docs = calls("trainer.doc_loss") + calls("trainer.predict")
    steps = calls("nn.adam.step")
    out = {f"{n}.self_ms_per_doc": ratio(self_ms(n), docs) for n in PER_DOC}
    out.update({f"{n}.self_ms_per_step": ratio(self_ms(n), steps) for n in PER_STEP})
    queries = calls("retrieval.fielded_search")
    out.update({f"{n}.self_ms_per_query": ratio(self_ms(n), queries) for n in PER_QUERY})
    out.update({f"{n}.self_ms_per_call": ratio(self_ms(n), calls(n)) for n in PER_CALL_SELF})
    out.update({
        f"{n}.ms_per_call": ratio(measured.get(n, (0, 0.0))[1] * 1000, calls(n))
        for n in PER_CALL_TOTAL
    })
    out.update({
        "nn.lstm.calls_per_doc": ratio(calls("nn.lstm.forward"), docs),
        "trainer.doc_loss.calls_per_epoch": ratio(calls("trainer.doc_loss"), counters["epochs"]),
        "trainer.evaluate_model.ms_per_epoch": ratio(
            measured.get("trainer.evaluate_model", (0, 0.0))[1] * 1000, counters["epochs"]
        ),
        "evalmetrics.soft_pr.calls": calls("evalmetrics.soft_pr"),
        "retrieval.postings_per_query": counters["postings_per_query"],
        "synth.gen.ms_per_setup": tracer.totals("setup").get("synth.gen", (0, 0.0))[1]
        * 1000 / n_setups,
    })
    return out


def emit(label, obj):
    print(f"{label}: {json.dumps(obj, sort_keys=True)}", flush=True)


def main(argv=None):
    # fixed before numpy loads, so BLAS starts with this many threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "segtool", "__init__.py")):
        print(f"error: no segtool package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import segtool

    if not os.path.abspath(segtool.__file__).startswith(src + os.sep):
        print(f"error: segtool imported from {segtool.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads
    from reference import NOMINAL_S, Reference
    from tracer import Tracer

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment()
    emit("env", env)

    tracer = Tracer() if args.trace else None
    ledger = workloads.Ledger()

    def set_phase(phase):
        if tracer is not None:
            tracer.phase = phase

    with tracer or contextlib.nullcontext():
        reference = Reference()
        t0 = time.perf_counter()
        inputs = workloads.setup(args.workload, args.seed, args.toy)
        setup_durations = [time.perf_counter() - t0]
        reference.sample(force=True)
        # the inputs live for the whole run: keep the cyclic collector from
        # re-scanning them, so its pauses do not depend on how much set-up built
        gc.collect()
        gc.freeze()
        samples, counters, props = workloads.measure(
            args.workload, args.seed, args.toy, inputs, args.seconds, ledger, set_phase,
            setup_durations, reference,
        )

    speed = reference.speed()
    e2e = end_to_end(samples, setup_durations, speed)
    emit("properties", props)
    emit("quality", {k: samples.pop(k) for k in ("heldout_f1", "mrr_boosted")})
    emit("reference", {"n": len(reference.samples), "median_s": reference.median_s(),
                       "nominal_s": NOMINAL_S, "speed": speed})
    emit("end_to_end_unscaled", end_to_end(samples, setup_durations, 1.0))
    timings = {k: timing(v) for k, v in samples.items() if isinstance(v, list) and v}
    timings["setup_s"] = timing(setup_durations)
    timings["question_ms"] = timing([x * 1000 for x in samples.pop("question_s")])
    del timings["question_s"]
    emit("timings", timings)
    emit("end_to_end" + (" (traced)" if tracer else ""), e2e)
    emit("failed_ops_frac", ledger.failed / ledger.attempted)
    for msg in ledger.failures:
        print(f"check failed: {msg}", file=sys.stderr)

    # traced and untraced runs of one workload and seed give the tracing overhead
    results = os.path.join(OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    run_key = [args.seed, args.seconds, args.toy]
    mine = {"run": run_key, "env": env, "properties": props, "end_to_end": e2e}
    with open(os.path.join(results, f"{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(mine, fh)
    try:
        with open(os.path.join(results, f"{args.workload}-trace{1 - args.trace}.json")) as fh:
            other = json.load(fh)
    except (OSError, ValueError):
        other = None
    if other and other.get("run") == run_key:
        traced, plain = (e2e, other["end_to_end"]) if args.trace else (other["end_to_end"], e2e)
        emit("tracing_overhead",
             {k: traced[k] / plain[k] - 1 for k in plain if k in traced and plain[k]})

    if tracer:
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl"))
        metrics, units = per_layer(tracer, counters, len(setup_durations)), per_layer_units()
    else:
        metrics, units = e2e, END_TO_END_UNITS
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)
    return 1 if ledger.failures else 0


if __name__ == "__main__":
    sys.exit(main())
