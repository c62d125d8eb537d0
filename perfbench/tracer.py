"""Outside-in tracer: wraps segtool's public callables from the outside.

Each wrapped call records one span (name, start, end, parent, phase) in
memory.  The tracer never touches segtool's source: it replaces module
and class attributes for the duration of a ``with`` block and restores
them on exit.  Names imported by value into another module (``trainer``
imports ``soft_pr``; ``retrieval`` imports ``tokenize``) are patched
there too, or those calls would escape the trace.
"""

import functools
import json
import time

from segtool import corpus, crf, embeddings, encoder, evalmetrics, nn, retrieval
from segtool import synth, trainer

# span name -> every (owner, attribute) the callable is reachable through
TARGETS = {
    "crf.nll_and_grads": [(crf, "nll_and_grads")],
    "crf.viterbi": [(crf, "viterbi")],
    "nn.gru.forward": [(nn.Gru, "forward")],
    "nn.gru.backward": [(nn.Gru, "backward")],
    "nn.lstm.forward": [(nn.Lstm, "forward")],
    "nn.lstm.backward": [(nn.Lstm, "backward")],
    "nn.adam.step": [(nn.Adam, "step")],
    "nn.clip_global_norm": [(nn, "clip_global_norm")],
    "embeddings.lookup.embed_sequence": [(embeddings.LookupTable, "embed_sequence")],
    "embeddings.char.forward": [(embeddings.CharEncoder, "forward")],
    "embeddings.char.backward": [(embeddings.CharEncoder, "backward")],
    "embeddings.combiner.forward": [(embeddings.MetaCombiner, "forward")],
    "embeddings.combiner.backward": [(embeddings.MetaCombiner, "backward")],
    "encoder.bigru.encode": [(encoder.BiGruEncoder, "encode")],
    "encoder.bigru.backward": [(encoder.BiGruEncoder, "backward")],
    "encoder.attention.forward": [(encoder.AttentionLayer, "forward")],
    "encoder.attention.backward": [(encoder.AttentionLayer, "backward")],
    "trainer.emissions": [(trainer.SegModel, "emissions")],
    "trainer.backward": [(trainer.SegModel, "backward")],
    "trainer.doc_loss": [(trainer.SegModel, "doc_loss")],
    "trainer.predict": [(trainer, "predict")],
    "trainer.evaluate_model": [(trainer, "evaluate_model")],
    "trainer.train": [(trainer, "train")],
    "evalmetrics.soft_pr": [(evalmetrics, "soft_pr"), (trainer, "soft_pr")],
    "retrieval.build_index": [(retrieval, "build_index")],
    "retrieval.fielded_search": [(retrieval, "fielded_search")],
    "retrieval.question_segments": [(retrieval, "question_segments")],
    "retrieval.save_index": [(retrieval, "save_index")],
    "retrieval.load_index": [(retrieval, "load_index")],
    "corpus.tokenize": [(corpus, "tokenize"), (retrieval, "tokenize"), (synth, "tokenize")],
    "corpus.save_corpus": [(corpus, "save_corpus")],
    "corpus.load_corpus": [(corpus, "load_corpus")],
    "corpus.spans_to_bio": [(corpus, "spans_to_bio"), (trainer, "spans_to_bio")],
    "synth.gen": [(synth, "gen_corpus"), (synth, "gen_streams"), (synth, "gen_retrieval")],
}


class Tracer:
    """Collects spans while active; ``phase`` labels every span opened
    after it is set (setup, measure or check)."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, child time, phase]
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, self.phase]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - rec[1]

        return traced

    def __enter__(self):
        for name, sites in TARGETS.items():
            for owner, attr in sites:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def totals(self, phase):
        """name -> (calls, total seconds, self seconds) over one phase."""
        out = {}
        for name, start, end, _, child, ph in self.spans:
            if ph != phase:
                continue
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - child)
        return out

    def write(self, path):
        """One JSON span per line: id, name, start, end, parent, phase."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, _, phase) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, phase]))
                fh.write("\n")
