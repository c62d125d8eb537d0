import gzip
import itertools
import json
import math
import re
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segtool.corpus import CLASS_NAMES, AnnotatedDocument, SegmentLabel, SegmentSpan, tokenize
from segtool.retrieval import (
    AnswerDoc,
    BoostProfile,
    EmptyCorpus,
    BOOST_CLAMP,
    MAX_K1,
    FieldedIndex,
    MissingQrel,
    NoLabeledPairs,
    RetrievalError,
    UnknownDoc,
    UnknownGoldId,
    build_index,
    bm25,
    estimate_boosts,
    fielded_search,
    load_answers,
    load_index,
    load_qrels,
    mrr,
    question_segments,
    save_index,
    terms_of,
    unfielded_search,
)
from test_corpus import SPACE_AND_CASE_TEXT


def question(qid, text, spans=()):
    return AnnotatedDocument(qid, text, tokenize(text), list(spans))


# -- oracle: the dict-of-postings scorer the impact columns replaced ---------

def scores_for_terms(index, query_terms):
    """doc_id -> accumulated BM25 contribution of these query terms."""
    k1, b = index.k1, index.b
    avg = index.avg_len
    postings, doc_lengths = index.postings, index.doc_lengths
    out = {}
    for t in query_terms:
        plist = postings.get(t)
        if not plist:
            continue
        idf = math.log(1.0 + (index.n_docs - len(plist) + 0.5) / (len(plist) + 0.5))
        for doc_id, tf in plist:
            norm = k1 * (1.0 - b + b * doc_lengths[doc_id] / avg)
            out[doc_id] = out.get(doc_id, 0.0) + idf * tf * (k1 + 1.0) / (tf + norm)
    return out


def oracle_fielded_search(index, doc, boosts, k=10):
    totals = {}
    for label, terms in question_segments(doc):
        w = boosts[label]
        for doc_id, s in scores_for_terms(index, terms).items():
            totals[doc_id] = totals.get(doc_id, 0.0) + w * s
    return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def oracle_unfielded_search(index, doc, k=10):
    totals = scores_for_terms(index, [t.text.lower() for t in doc.tokens])
    return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


# -- oracle: the dict build the columnar build_index replaced -----------------

def oracle_build(answers, min_len=0):
    """(postings, doc_lengths) dicts: term -> (doc id, tf) list sorted by
    doc id, in order of the terms' first use; doc id -> token count."""
    postings = {}
    lengths = {}
    for ans in answers:
        terms = ans.terms
        if len(terms) < min_len or not terms:
            continue
        lengths[ans.id] = len(terms)
        for t, tf in Counter(terms).items():
            postings.setdefault(t, []).append((ans.id, tf))
    if not lengths:
        raise EmptyCorpus("no answers survived filtering")
    for plist in postings.values():
        plist.sort(key=lambda p: p[0])
    return postings, lengths


def oracle_flat(postings, doc_lengths):
    """The dicts as the columns of the index file: the doc ids in sorted
    order and their lengths, the terms in postings order and their document
    frequencies, and each posting's doc row and term frequency."""
    docs = sorted(doc_lengths)
    row = {d: i for i, d in enumerate(docs)}
    plists = postings.values()
    pairs = [p for plist in plists for p in plist]
    return (docs, [doc_lengths[d] for d in docs], list(postings),
            [len(p) for p in plists], [row[d] for d, _ in pairs], [tf for _, tf in pairs])


ANSWERS = [
    AnswerDoc("a1", "restart the wireless router and check the cable"),
    AnswerDoc("a2", "run iwconfig to inspect the wireless interface"),
    AnswerDoc("a3", "kernel panic is unrelated to wireless drivers"),
]


@pytest.fixture
def index():
    return build_index(ANSWERS)


K1_AT = 9  # k1's offset in the file: after the magic and the version
WIDTHS_AT = K1_AT + 16 + 40  # the column widths': after k1, b, the counts and blob lengths


def index_fields(index):
    """The fields of index's file, from the layout's definition: doc ids
    sorted, terms in postings order, a posting's doc as its row; "ends"
    and "widths" are empty, so index_bytes computes them."""
    docs = sorted(index.doc_lengths)
    plists = list(index.postings.values())
    return {
        "version": 3, "k1": index.k1, "b": index.b, "docs": docs,
        "lengths": [index.doc_lengths[d] for d in docs], "terms": list(index.postings),
        "df": [len(p) for p in plists], "rows": [docs.index(d) for p in plists for d, _ in p],
        "tf": [tf for p in plists for _, tf in p], "ends": {}, "widths": {},
    }


def index_bytes(f):
    """The format 3 file of fields f, from the layout's definition: the
    magic "SEGIX"; a header of the version (uint32), k1 and b (float64),
    the counts of docs, terms and postings and the byte lengths of the id
    and term blobs (uint64 each), and a width byte per column; the columns
    (the doc ids' end offsets, lengths, the terms' end offsets, df, rows,
    tf), each little-endian unsigned in the narrowest of 1, 2, 4 or 8 bytes
    that holds its largest value; then the ids and terms as UTF-8.  An id
    or term given as bytes is written as is; f["ends"] and f["widths"]
    override the offsets and widths of the columns they name."""
    blobs = {k: [s if type(s) is bytes else s.encode("utf-8") for s in f[k]]
             for k in ("docs", "terms")}
    cols = {k: f["ends"].get(k, list(itertools.accumulate(map(len, blobs[k])))) for k in blobs}
    cols.update({k: f[k] for k in ("lengths", "df", "rows", "tf")})
    names = ("docs", "lengths", "terms", "df", "rows", "tf")
    widths = [f["widths"].get(k, next(w for w in (1, 2, 4, 8) if max(cols[k], default=0) < 256**w))
              for k in names]
    header = struct.pack("<I2d5Q6B", f["version"], f["k1"], f["b"], len(f["docs"]),
                         len(f["terms"]), len(f["rows"]), sum(map(len, blobs["docs"])),
                         sum(map(len, blobs["terms"])), *widths)
    body = b"".join(v.to_bytes(w, "little") for k, w in zip(names, widths) for v in cols[k])
    return b"SEGIX" + header + body + b"".join(blobs["docs"] + blobs["terms"])


class TestTermsOf:
    @given(SPACE_AND_CASE_TEXT)
    @settings(max_examples=300)
    def test_lowered_tokens(self, text):
        tokens = tokenize(text)
        assert terms_of(text) == [t.text.lower() for t in tokens]
        assert all(text[t.start : t.end] == t.text for t in tokens)


class TestBuildIndex:
    def test_postings_and_lengths(self, index):
        assert index.n_docs == 3
        assert index.doc_lengths["a1"] == 8
        assert index.postings["wireless"] == [("a1", 1), ("a2", 1), ("a3", 1)]
        assert index.postings["the"] == [("a1", 2), ("a2", 1)]

    def test_min_len(self):
        idx = build_index(ANSWERS, min_len=8)
        assert set(idx.doc_lengths) == {"a1"}

    @pytest.mark.parametrize("texts, min_len", [
        (["x y z", ""], 0), (["", "x y z"], 0), (["x y z", "x"], 2), (["x", "x y z"], 2),
        (["x", "y"], 5),
    ], ids=["second-empty", "first-empty", "second-short", "first-short", "both-short"])
    def test_repeated_id_refused_whatever_its_text(self, texts, min_len):
        with pytest.raises(RetrievalError, match="duplicate answer id 'a1'"):
            build_index([AnswerDoc("a1", t) for t in texts], min_len=min_len)

    @given(st.lists(st.tuples(st.text(max_size=4), st.lists(
        st.sampled_from(["x", "y", "\u00fcber", "\U0001f600", "-la", "the"]), max_size=7)),
        max_size=8, unique_by=lambda a: a[0]), st.integers(0, 4))
    @example([("b", ["x", "x"]), ("a", ["y", "x"]), ("\u00e9", ["x"])], 0)
    @settings(max_examples=200, deadline=None)
    def test_columns_equal_the_dict_build(self, tmp_path_factory, answers, min_len):
        # unsorted and unicode ids, repeated terms, answers min_len skips
        answers = [AnswerDoc(i, " ".join(words)) for i, words in answers]
        try:
            postings, lengths = oracle_build(answers, min_len)
        except EmptyCorpus:
            with pytest.raises(EmptyCorpus):
                build_index(answers, min_len)
            return
        index = build_index(answers, min_len)
        docs, lens, terms, df, rows, tf = oracle_flat(postings, lengths)
        assert (index.docs, index.lengths.tolist(), index.terms, index.df.tolist(),
                index.rows.tolist(), index.tf.tolist()) == (docs, lens, terms, df, rows, tf)
        assert index.at == {t: i for i, t in enumerate(terms)}
        path = tmp_path_factory.getbasetemp() / "oracle.bin"
        save_index(index, path)
        assert path.read_bytes() == index_bytes({
            "version": 3, "k1": 1.2, "b": 0.75, "docs": docs, "lengths": lens, "terms": terms,
            "df": df, "rows": rows, "tf": tf, "ends": {}, "widths": {}})

    def test_empty(self):
        with pytest.raises(EmptyCorpus):
            build_index([], k1=1.2)
        with pytest.raises(EmptyCorpus):
            build_index(ANSWERS, min_len=100)

    @pytest.mark.parametrize("k1, b, message", [
        (-0.5, 0.75, "bad value -0.5 for field 'k1'"),
        (-3.0, 1.7, "bad value -3.0 for field 'k1'"),
        (float("inf"), 0.75, "bad value inf for field 'k1'"),
        (1.2, -0.1, "bad value -0.1 for field 'b'"),
        (1.2, 1.5, "bad value 1.5 for field 'b'"),
        (1.2, float("nan"), "bad value nan for field 'b'"),
    ], ids=["k1-negative", "both-out-of-range", "k1-inf", "b-negative", "b-above-1", "b-nan"])
    def test_bad_k1_or_b(self, k1, b, message):
        # the rule load_index applies: an index that could not be loaded is not built
        with pytest.raises(RetrievalError) as exc:
            build_index(ANSWERS, k1=k1, b=b)
        assert str(exc.value) == message

    def test_k1_bound(self, tmp_path):
        # at k1 = 1e308, tf * (k1 + 1) overflowed: a's score was nan and a
        # search for "x y" listed b alone
        answers = [AnswerDoc("a", "x " * 50 + "y"), AnswerDoc("b", "x y"), AnswerDoc("c", "z")]
        index = build_index(answers, k1=MAX_K1, b=1.0)
        ranked = unfielded_search(index, question("q", "x y"), 3)
        assert [doc_id for doc_id, _ in ranked] == ["b", "a"]
        assert all(math.isfinite(score) for _, score in ranked)
        assert math.isfinite(bm25(index, ["x", "y"], "a"))
        above = float(np.nextafter(MAX_K1, math.inf))
        with pytest.raises(RetrievalError) as exc:
            build_index(answers, k1=above, b=1.0)
        assert str(exc.value) == f"bad value {above!r} for field 'k1'"
        path = tmp_path / "i.bin"
        save_index(index, path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, K1_AT, above)
        path.write_bytes(data)
        with pytest.raises(RetrievalError) as exc:
            load_index(path)
        assert str(exc.value) == f"{path}: bad value {above!r} for field 'k1'"


class TestDictConstructor:
    """FieldedIndex(postings, doc_lengths) checks the dicts as load_index
    checks a file's columns, with its messages."""

    def test_same_columns_as_the_build(self, index):
        again = FieldedIndex(dict(index.postings), dict(index.doc_lengths), index.k1, index.b)
        for f in ("docs", "lengths", "terms", "df", "rows", "tf"):
            assert np.array_equal(getattr(again, f), getattr(index, f)), f
        assert again.at == index.at

    def test_views_are_read_only(self, index):
        with pytest.raises(TypeError):
            index.postings["x"] = [("a1", 1)]
        with pytest.raises(TypeError):
            index.doc_lengths["a1"] = 2

    @pytest.mark.parametrize("postings, lengths, message", [
        ({"x": [("zz", 1)]}, {"a": 1}, "field 'rows' holds 'zz', which names a doc not in 'docs'"),
        ({"x": [("a", 0)]}, {"a": 1}, "field 'tf' holds 0, not a positive int64"),
        ({"x": [("a", 1)]}, {"a": 1, "b": 0}, "field 'lengths' holds 0, not a positive int64"),
        ({}, {}, "field 'docs' must be a non-empty list of ascending str ids"),
        # a repeated doc: TestImpactColumns.test_repeated_doc_in_posting_list_rejected
        ({"x": [("a", 1)], "y": [("b", 1), ("a", 1)]}, {"a": 1, "b": 2},
         "field 'rows' of 'y' repeats a doc id or is unsorted"),
        # by type: a float tf or bool length was held as 1, an int id failed in save_index
        ({"x": [("a", 1.5)]}, {"a": 1}, "field 'tf' holds 1.5, not a positive int64"),
        ({"x": [("a", 1)]}, {"a": True}, "field 'lengths' holds True, not a positive int64"),
        ({"x": [(1, 1)]}, {1: 1}, "field 'docs' must be a non-empty list of ascending str ids"),
        ({1: [("a", 1)]}, {"a": 1}, "field 'terms' must be a list of distinct str terms"),
    ], ids=["unknown-doc", "tf-of-zero", "length-of-zero", "no-docs", "unsorted-docs",
            "tf-float", "length-bool", "doc-id-int", "term-int"])
    def test_bad_dicts_refused(self, postings, lengths, message):
        # unchecked, these gave a KeyError, a saved 0, a ZeroDivisionError, a late
        # error or a silent 1
        with pytest.raises(RetrievalError) as exc:
            FieldedIndex(postings, lengths)
        assert str(exc.value) == message


class TestBm25:
    def test_hand_computed(self, index):
        # "iwconfig": df=1, N=3 -> idf = ln(1 + 2.5/1.5); only a2 has it
        # (tf=1, |a2|=7, avg_len = 22/3)
        idf = math.log(1.0 + (3 - 1 + 0.5) / (1 + 0.5))
        norm = 1.2 * (1 - 0.75 + 0.75 * 7 / (22 / 3))
        expected = idf * 1 * 2.2 / (1 + norm)
        assert bm25(index, ["iwconfig"], "a2") == pytest.approx(expected, abs=1e-9)

    def test_absent_term_scores_zero(self, index):
        assert bm25(index, ["zyzzyva"], "a1") == 0.0

    def test_multiset_additive(self, index):
        one = bm25(index, ["wireless"], "a1")
        two = bm25(index, ["wireless", "wireless"], "a1")
        assert two == pytest.approx(2 * one, abs=1e-12)

    def test_unknown_doc(self, index):
        with pytest.raises(UnknownDoc):
            bm25(index, ["wireless"], "nope")

    def test_matches_search_scores(self, index):
        q = question("q", "wireless router cable")
        for doc_id, score in unfielded_search(index, q, k=3):
            assert score == pytest.approx(
                bm25(index, ["wireless", "router", "cable"], doc_id), abs=1e-9
            )

    def test_duplicate_doc_symmetry(self):
        # two identical answers must receive identical scores
        idx = build_index(
            [AnswerDoc("x", "alpha beta gamma"), AnswerDoc("y", "alpha beta gamma")]
        )
        assert bm25(idx, ["alpha", "beta"], "x") == bm25(idx, ["alpha", "beta"], "y")


class TestQuestionSegments:
    def test_o_gaps_included(self):
        q = question(
            "q",
            "my wifi fails iwconfig wlan0 please help",
            [SegmentSpan(3, 5, SegmentLabel.CC)],
        )
        assert question_segments(q) == [
            ("O", ["my", "wifi", "fails"]),
            ("CC", ["iwconfig", "wlan0"]),
            ("O", ["please", "help"]),
        ]

    def test_all_o(self):
        q = question("q", "just words")
        assert question_segments(q) == [("O", ["just", "words"])]


class TestFieldedSearch:
    def test_all_boosts_one_equals_unfielded(self, index):
        q = question(
            "q",
            "wireless down iwconfig wireless check",
            [SegmentSpan(2, 4, SegmentLabel.CC)],
        )
        fielded = fielded_search(index, q, BoostProfile(), k=3)
        unfielded = unfielded_search(index, q, k=3)
        assert [d for d, _ in fielded] == [d for d, _ in unfielded]
        for (_, a), (_, b) in zip(fielded, unfielded):
            assert a == pytest.approx(b, abs=1e-9)

    def test_huge_boost_dominates(self, index):
        # boosting CC pushes the iwconfig answer above the router answer
        q = question(
            "q",
            "router cable iwconfig interface",
            [SegmentSpan(2, 4, SegmentLabel.CC)],
        )
        boosts = BoostProfile({"O": 1.0, "CC": 1000.0})
        top, _ = fielded_search(index, q, boosts, k=1)[0]
        assert top == "a2"

    def test_uniform_scaling_preserves_ranking(self, index):
        q = question(
            "q",
            "wireless router iwconfig panic",
            [SegmentSpan(2, 3, SegmentLabel.CC)],
        )
        base = BoostProfile({"O": 1.0, "CC": 2.0})
        scaled = BoostProfile({k: 3.0 * v for k, v in base.weights.items()})
        r1 = fielded_search(index, q, base, k=3)
        r2 = fielded_search(index, q, scaled, k=3)
        assert [d for d, _ in r1] == [d for d, _ in r2]

    def test_tie_break_ascending_id(self):
        idx = build_index(
            [AnswerDoc("b", "shared term"), AnswerDoc("a", "shared term")]
        )
        ranked = unfielded_search(idx, question("q", "shared"), k=2)
        assert [d for d, _ in ranked] == ["a", "b"]

    def test_bad_k(self, index):
        with pytest.raises(RetrievalError):
            fielded_search(index, question("q", "x"), BoostProfile(), k=0)
        with pytest.raises(RetrievalError):
            unfielded_search(index, question("q", "x"), k=0)


VOCAB = ["wifi", "router", "ls", "-la", "kernel", "panic", "sudo", "apt", "eth0", "the"]


@st.composite
def retrieval_cases(draw):
    """A random index, a segmented question over its vocabulary plus
    unknown terms, boosts (few distinct values, so boosted totals tie; a
    0 leaves a hit document at score 0) and a k that often exceeds the
    number of hits."""
    n = draw(st.integers(1, 8))
    # ids that do not sort in insertion order; duplicated texts plant ties
    ids = draw(st.permutations([f"a{i}" for i in range(n)]))
    texts = draw(st.lists(
        st.lists(st.sampled_from(VOCAB), min_size=1, max_size=8).map(" ".join),
        min_size=n, max_size=n,
    ))
    if draw(st.booleans()):
        texts[-1] = texts[0]
    answers = [AnswerDoc(i, t) for i, t in zip(ids, texts)]
    words = draw(st.lists(st.sampled_from(VOCAB + ["zzz", "qqq"]), min_size=1, max_size=12))
    spans, start = [], 0
    while start < len(words):
        end = draw(st.integers(start + 1, len(words)))
        label = draw(st.sampled_from([None] + list(SegmentLabel)))
        if label is not None:
            spans.append(SegmentSpan(start, end, label))
        start = end
    q = question("q", " ".join(words), spans)
    weights = draw(st.fixed_dictionaries(
        {c: st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.7]) for c in CLASS_NAMES}
    ))
    k1 = draw(st.sampled_from([1.2, 0.9, 2.0]))
    b = draw(st.sampled_from([0.75, 0.0, 1.0, 0.3]))
    k = draw(st.integers(1, 12))
    return build_index(answers, k1=k1, b=b), q, BoostProfile(weights), k


class TestImpactColumns:
    """The impact-column scorer against the dict scorer: exactly equal ids,
    scores and tie order."""

    @given(retrieval_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_dict_scorer(self, case):
        index, q, boosts, k = case
        assert fielded_search(index, q, boosts, k) == oracle_fielded_search(index, q, boosts, k)
        neutral = BoostProfile()
        assert fielded_search(index, q, neutral, k) == oracle_fielded_search(index, q, neutral, k)
        assert unfielded_search(index, q, k) == oracle_unfielded_search(index, q, k)
        gold = {"q": max(index.doc_lengths)}
        for bp in (None, boosts):
            ranked = (oracle_unfielded_search(index, q, k) if bp is None
                      else oracle_fielded_search(index, q, bp, k))
            want = next((1.0 / r for r, (d, _) in enumerate(ranked, 1) if d == gold["q"]), 0.0)
            assert mrr(index, [q], gold, boosts=bp, k=k) == want

    def test_planted_ties_break_toward_ascending_id(self):
        # four identical answers inserted out of id order; k cuts the tie
        idx = build_index([AnswerDoc(i, "shared term here") for i in ("d", "b", "c", "a")]
                          + [AnswerDoc("e", "other words entirely")])
        q = question("q", "shared zzz", [SegmentSpan(0, 1, SegmentLabel.CC)])
        for ranked in (unfielded_search(idx, q, k=3),
                       fielded_search(idx, q, BoostProfile({"CC": 2.0}), k=3)):
            assert [d for d, _ in ranked] == ["a", "b", "c"]
            assert len({s for _, s in ranked}) == 1
        assert unfielded_search(idx, q, k=3) == oracle_unfielded_search(idx, q, k=3)

    def test_ties_across_the_kth_place_on_a_large_index(self):
        # 3000 answers, 15 per text: every total is shared by at least 15
        # answers, so a tie straddles the k-th place for k = 1, 10 and 100
        rng = np.random.default_rng(0)
        vocab = [f"w{i}" for i in range(40)]
        texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 7))) for _ in range(200)]
        ids = [f"a{i:04d}" for i in rng.permutation(3000)]
        idx = build_index([AnswerDoc(d, texts[j % 200]) for j, d in enumerate(ids)])
        q = question("q", "w0 w1 w1 zzz w2 w3 w4 w5", [
            SegmentSpan(0, 3, SegmentLabel.CC), SegmentSpan(4, 6, SegmentLabel.ES),
            SegmentSpan(6, 8, SegmentLabel.PU),
        ])
        # a weight of 0 leaves the answers only PU matches at score 0, still listed
        boosts = BoostProfile({"CC": 2.0, "ES": 0.5, "PU": 0.0})
        for search, oracle in [
            (lambda k: fielded_search(idx, q, boosts, k),
             lambda k: oracle_fielded_search(idx, q, boosts, k)),
            (lambda k: unfielded_search(idx, q, k), lambda k: oracle_unfielded_search(idx, q, k)),
        ]:
            ranked = oracle(len(ids))
            n_matches = len(ranked)
            assert 100 < n_matches < len(ids)
            for k in (1, 10, 100):
                assert ranked[k - 1][1] == ranked[k][1]
            for k in (1, 10, 100, n_matches - 1, n_matches, n_matches + 1, 5000):
                got = search(k)
                assert got == oracle(k), k
                assert all(type(d) is str and type(s) is float for d, s in got)
        assert 0.0 in {s for _, s in fielded_search(idx, q, boosts, 5000)}

    def test_k_beyond_hits_and_no_hits(self, index):
        assert len(unfielded_search(index, question("q", "iwconfig"), k=50)) == 1
        assert unfielded_search(index, question("q", "zzz qqq"), k=5) == []
        assert fielded_search(index, question("q", "zzz"), BoostProfile(), k=5) == []

    def test_repeated_term_adds_again(self, index):
        once = dict(unfielded_search(index, question("q", "wireless")))
        twice = dict(unfielded_search(index, question("q", "wireless wireless")))
        assert twice == {d: s + s for d, s in once.items()}

    def test_columns_built_on_first_query(self, index, tmp_path):
        assert "columns" not in vars(index)
        path = tmp_path / "idx.bin"
        save_index(index, path)
        loaded = load_index(path)
        assert "columns" not in vars(loaded)
        unfielded_search(loaded, question("q", "wireless"))
        ids, columns = loaded.columns
        assert ids == ["a1", "a2", "a3"]
        rows, impacts = columns["the"]
        assert rows.tolist() == [0, 1]
        assert impacts.tolist() == [bm25(loaded, ["the"], d) for d in ("a1", "a2")]

    def test_repeated_doc_in_posting_list_rejected(self):
        idx = build_index(ANSWERS)
        postings = {**idx.postings, "the": [("a1", 2), ("a1", 2)]}
        with pytest.raises(RetrievalError, match="'the' repeats a doc id"):
            FieldedIndex(postings, idx.doc_lengths)

    def test_duplicate_answer_id_rejected(self):
        with pytest.raises(RetrievalError, match="duplicate answer id 'a1'"):
            build_index(ANSWERS + [AnswerDoc("a1", "again")])


@st.composite
def random_indexes(draw):
    """Indexes with unicode doc ids and terms, lengths and term frequencies
    up to 10**6, from one doc up; posting lists sorted by doc id."""
    ids = draw(st.lists(st.text(max_size=5), min_size=1, max_size=6, unique=True))
    postings = {}
    for t in draw(st.lists(st.text(max_size=5), max_size=6, unique=True)):
        docs = draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        postings[t] = [(d, draw(st.integers(1, 10**6))) for d in sorted(docs)]
    lengths = {d: draw(st.integers(1, 10**6)) for d in ids}
    return FieldedIndex(postings, lengths, draw(st.floats(0, 5)), draw(st.floats(0, 1)))


class TestIndexFileProperties:
    @given(random_indexes())
    @example(FieldedIndex({"x": [("\u00e9", 10**6)]}, {"\u00e9": 1}, 1.2, 0.75))
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, tmp_path_factory, index):
        path = tmp_path_factory.getbasetemp() / "round-trip.bin"
        save_index(index, path)
        saved = path.read_bytes()
        loaded = load_index(path)
        assert loaded.postings == index.postings
        assert loaded.doc_lengths == index.doc_lengths
        assert (loaded.k1, loaded.b) == (index.k1, index.b)
        (ids, cols), (want_ids, want_cols) = loaded.columns, index.columns
        assert ids == want_ids and list(cols) == list(want_cols)
        for t, (rows, impacts) in want_cols.items():
            assert np.array_equal(cols[t][0], rows) and np.array_equal(cols[t][1], impacts)
        save_index(loaded, path)
        assert path.read_bytes() == saved

    @given(random_indexes(), st.sampled_from(["set", "insert", "delete", "truncate"]),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_edited_file_loads_or_is_named(self, tmp_path_factory, index, edit, data):
        # a byte set, inserted or deleted, or the file cut short, either
        # leaves a valid index, which re-saves and re-loads to an equal
        # one, or is a RetrievalError naming the file
        path = tmp_path_factory.getbasetemp() / "edited.bin"
        save_index(index, path)
        raw = bytearray(path.read_bytes())
        i = data.draw(st.integers(0, len(raw) - 1))
        if edit == "set":
            raw[i] = data.draw(st.integers(0, 255))
        elif edit == "insert":
            raw.insert(i, data.draw(st.integers(0, 255)))
        elif edit == "delete":
            del raw[i]
        else:
            del raw[i:]
        path.write_bytes(raw)
        try:
            loaded = load_index(path)
        except RetrievalError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            save_index(loaded, path)
            again = load_index(path)
            assert again.postings == loaded.postings and again.doc_lengths == loaded.doc_lengths
            assert (again.k1, again.b) == (loaded.k1, loaded.b)
            assert all(p[0] < q[0] for ps in loaded.postings.values() for p, q in zip(ps, ps[1:]))
            unfielded_search(loaded, question("q", " ".join(loaded.postings) or "x"))


class TestEstimateBoosts:
    def test_fixture_values(self):
        # CC overlaps fully with the answer, O not at all:
        # means {O: 0, CC: 1}, grand 0.5 -> CC weight 2, O clamped to 0.25
        q = question(
            "q1", "nothing matches iwconfig wlan0", [SegmentSpan(2, 4, SegmentLabel.CC)]
        )
        boosts = estimate_boosts([q], {"q1": "run iwconfig wlan0 now"})
        assert boosts["CC"] == pytest.approx(2.0)
        assert boosts["O"] == pytest.approx(0.25)  # 0/0.5 clamped up
        assert boosts["ES"] == 1.0  # never observed

    def test_clamp_ceiling(self):
        # five observed labels, only CC overlapping the answer: means
        # {CC: 1, the other four: 0}, grand 0.2 -> CC weight 5, clamped to 4
        spans = [SegmentSpan(k, k + 1, label) for k, label in enumerate(
            [SegmentLabel.CO, SegmentLabel.ES, SegmentLabel.FC, SegmentLabel.CC], start=1)]
        q = question("q1", "a b c d iwconfig", spans)
        boosts = estimate_boosts([q], {"q1": "iwconfig"})
        assert sum(w != 1.0 for w in boosts.weights.values()) == 5
        assert boosts["CC"] == BOOST_CLAMP[1] == 4.0
        assert boosts["O"] == BOOST_CLAMP[0]

    def test_no_pairs(self):
        with pytest.raises(NoLabeledPairs):
            estimate_boosts([question("q1", "a b")], {})

    def test_positive_weights_enforced(self):
        with pytest.raises(RetrievalError):
            BoostProfile.from_json_obj({"CC": -1.0})


class TestMrr:
    def test_perfect(self, index):
        qs = [question("q1", "iwconfig inspect interface")]
        assert mrr(index, qs, {"q1": "a2"}) == 1.0

    def test_absent_gives_zero(self, index):
        qs = [question("q1", "zzz qqq www")]
        assert mrr(index, qs, {"q1": "a1"}) == 0.0

    def test_mixed_ranks(self, index):
        # q1 hits at rank 1, q2 at rank 2 -> mean (1 + 0.5) / 2 = 0.75
        q1 = question("q1", "iwconfig inspect")
        ranked = unfielded_search(index, question("q2", "wireless router kernel"), k=3)
        second = ranked[1][0]
        assert mrr(index, [q1, question("q2", "wireless router kernel")],
                   {"q1": "a2", "q2": second}) == pytest.approx(0.75)

    def test_unknown_gold(self, index):
        with pytest.raises(UnknownGoldId, match="'ghost' of question 'q1'"):
            mrr(index, [question("q1", "wireless")], {"q1": "ghost"})

    def test_missing_qrel(self, index):
        with pytest.raises(MissingQrel, match="no qrel for question 'q2'"):
            mrr(index, [question("q2", "wireless")], {"q1": "a1"})

    def test_empty_questions(self, index):
        with pytest.raises(RetrievalError):
            mrr(index, [], {})


class TestPersistence:
    def test_index_round_trip(self, index, tmp_path):
        path = tmp_path / "idx.bin"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.postings == index.postings
        assert loaded.doc_lengths == index.doc_lengths
        assert (loaded.k1, loaded.b) == (index.k1, index.b)
        q = question("q", "wireless iwconfig")
        assert unfielded_search(loaded, q, k=3) == unfielded_search(index, q, k=3)

    def test_same_index_same_bytes(self, index, tmp_path):
        # no save time and no file name in the file
        first, second = tmp_path / "one.bin", tmp_path / "two.bin"
        save_index(index, first)
        save_index(index, second)
        assert first.read_bytes() == second.read_bytes()

    def test_file_holds_the_column_layout(self, index, tmp_path):
        path = tmp_path / "idx.bin"
        save_index(index, path)
        assert path.read_bytes() == index_bytes(index_fields(index))

    @pytest.mark.parametrize("tf, width", [(255, 1), (256, 2), (65535, 2), (65536, 4),
                                           (2**32, 8), (2**63 - 1, 8)])
    def test_column_widths(self, tmp_path, tf, width):
        index = FieldedIndex({"x": [("a", tf)], "y": [("a", 1), ("b", 1)]}, {"a": 2, "b": 1})
        path = tmp_path / "idx.bin"
        save_index(index, path)
        assert path.read_bytes()[WIDTHS_AT : WIDTHS_AT + 6] == bytes([1, 1, 1, 1, 1, width])
        assert load_index(path).postings == index.postings

    def test_tf_beyond_int64_refused(self, tmp_path):
        message = "field 'tf' holds 9223372036854775808, not a positive int64"
        with pytest.raises(RetrievalError) as exc:
            FieldedIndex({"x": [("a", 2**63)]}, {"a": 1})
        assert str(exc.value) == message
        path = tmp_path / "idx.bin"
        path.write_bytes(index_bytes({
            "version": 3, "k1": 1.2, "b": 0.75, "docs": ["a"], "lengths": [1], "terms": ["x"],
            "df": [1], "rows": [0], "tf": [2**63], "ends": {}, "widths": {}}))
        with pytest.raises(RetrievalError) as exc:
            load_index(path)
        assert str(exc.value) == f"{path}: {message}"

    # a lone surrogate comes from a JSON escape such as "\\ud800"
    @pytest.mark.parametrize("ids", [["a\nb", "a\x00", "\u00e9t\u00e9", "\U0001f600"],
                                     ["", "\n"], ["\ud800", "x\udfff"]],
                             ids=["control-and-non-ascii", "empty", "lone-surrogates"])
    def test_any_str_id_round_trips(self, tmp_path, ids):
        index = FieldedIndex({"\u00fcber": [(d, 1) for d in sorted(ids)], "\x00": [(ids[0], 3)]},
                             {d: 3 for d in ids})
        path = tmp_path / "idx.bin"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.postings == index.postings and loaded.doc_lengths == index.doc_lengths

    def test_v1_file_rejected(self, index, tmp_path):
        # the layout before the columns: nested [doc, tf] pairs per term
        obj = {
            "version": 1, "k1": index.k1, "b": index.b,
            "doc_lengths": dict(index.doc_lengths), "postings": dict(index.postings),
        }
        path = tmp_path / "old.json.gz"
        path.write_bytes(gzip.compress(json.dumps(obj).encode()))
        with pytest.raises(RetrievalError) as exc:
            load_index(path)
        assert str(exc.value) == (f"{path}: unsupported index version (a gzip JSON index of"
                                  " format 1 or 2); rerun segtool index")

    def test_v2_file_rejected(self, index, tmp_path):
        # format 2: the same columns as one gzip JSON object
        f = index_fields(index)
        obj = {k: f[k] for k in ("k1", "b", "docs", "lengths", "terms", "df", "rows", "tf")}
        path = tmp_path / "old.json.gz"
        path.write_bytes(gzip.compress(json.dumps({"version": 2, **obj}).encode(), mtime=0))
        with pytest.raises(RetrievalError, match=r"\(a gzip JSON index of format 1 or 2\)"):
            load_index(path)

    def test_version_check(self, index, tmp_path):
        path = tmp_path / "idx.bin"
        save_index(index, path)
        data = bytearray(path.read_bytes())
        for version in (2, 4, 42):
            struct.pack_into("<I", data, len(b"SEGIX"), version)
            path.write_bytes(data)
            with pytest.raises(RetrievalError) as exc:
                load_index(path)
            assert str(exc.value) == (
                f"{path}: unsupported index version {version}; rerun segtool index"
            )

    # index_fields(index) of the fixture: docs a1 a2 a3; terms "restart" (a1),
    # "the" (a1 tf 2, a2), "wireless" (a1 a2 a3), ...; 17 terms, 21 postings;
    # every column 1 byte wide
    @pytest.mark.parametrize("edit, message", [
        (lambda f: f["widths"].update(rows=3), "field 'rows' must be a list"),
        (lambda f: f["widths"].update(tf=16), "field 'tf' must be a list"),
        (lambda f: f["widths"].update(df=5), "field 'df' must be a list"),
        (lambda f: f["widths"].update(docs=7), "field 'docs' must be a list"),
        (lambda f: f.update(docs=[], lengths=[]), "field 'docs' must be a non-empty"),
        (lambda f: f["docs"].__setitem__(1, "a1"), "'docs' must be a non-empty list of ascending"),
        (lambda f: f["docs"].reverse(), "list of ascending str ids"),
        (lambda f: f["docs"].__setitem__(0, b"\xff"), "ascending str ids"),  # not UTF-8
        # a byte past the last id's end; the terms' first two ends swapped
        (lambda f: f["docs"].__setitem__(2, "a3x") or f["ends"].update(docs=[2, 4, 6]),
         "'docs' must be a non-empty list"),
        (lambda f: f["ends"].update(
            terms=[10, 7] + list(itertools.accumulate(map(len, f["terms"])))[2:]),
         "'terms' must be a list of distinct str terms"),
        (lambda f: f["terms"].__setitem__(1, "restart"), "field 'terms' must be a list of distinct"),
        # "\u00e9" cut after its first byte
        (lambda f: f["terms"].__setitem__(0, b"\xc3"), "list of distinct str terms"),
        (lambda f: f["lengths"].__setitem__(2, 0), "field 'lengths' holds 0"),
        (lambda f: f["df"].__setitem__(3, 0), "field 'df' holds 0"),
        (lambda f: f.update(k1=1e7), "0 for field 'k1'"),
        (lambda f: f.update(k1=float("inf")), "bad value inf for field 'k1'"),
        (lambda f: f.update(b=1.5), "bad value 1.5 for field 'b'"),
        (lambda f: f.update(b=float("nan")), "bad value nan for field 'b'"),
        (lambda f: f["tf"].__setitem__(0, 0), "not a positive int"),
        (lambda f: f["tf"].__setitem__(0, 2**64 - 1), "not a positive int"),
        (lambda f: f["lengths"].__setitem__(1, 2**63), "not a positive int"),
        (lambda f: f["tf"].__setitem__(5, 2**63), "holds 9223372036854775808, not a positive int"),
        (lambda f: f["rows"].__setitem__(4, 99), "names a doc not in"),
        (lambda f: f["rows"].__setitem__(0, 3), "field 'rows' holds 3, which names a doc not in"),
        (lambda f: f["df"].__setitem__(0, 2), "field 'rows' holds 21 values, not 22"),
        (lambda f: f["tf"].pop(), "file holds 253 bytes, not the 254 its header gives"),
        (lambda f: f["tf"].append(1), "file holds 255 bytes, not the 254 its header gives"),
        (lambda f: f["rows"].__setitem__(2, 0), "field 'rows' of 'the' repeats a doc id"),
        (lambda f: f["rows"].__setitem__(slice(1, 3), [1, 0]),
         "field 'rows' of 'the' repeats a doc id or is unsorted"),
        (lambda f: f.update(version=0), "unsupported index version 0"),
    ])
    def test_malformed_index_names_file(self, index, tmp_path, edit, message):
        f = index_fields(index)
        edit(f)
        path = tmp_path / "idx.bin"
        path.write_bytes(index_bytes(f))
        with pytest.raises(RetrievalError) as exc:
            load_index(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert message in str(exc.value)

    # gzip headers carry a timestamp, so the gzip cases get fixed ids.
    @pytest.mark.parametrize("data", [
        b"no index here", b"",
        pytest.param(b"SEGIX", id="magic-alone"),
        pytest.param(b"SEGIX" + bytes(65), id="header-cut-short"),
        pytest.param(gzip.compress(b"[1, 2")[:-6], id="gzip-truncated"),
        pytest.param(gzip.compress(b"{nope"), id="gzip-bad-json"),
        pytest.param(gzip.compress(b"\xff\xfe"), id="gzip-not-utf8"),
        pytest.param(gzip.compress(b"[1, 2]"), id="gzip-not-an-object"),
    ])
    def test_unreadable_index_names_file(self, tmp_path, data):
        path = tmp_path / "idx.bin"
        path.write_bytes(data)
        with pytest.raises(RetrievalError) as exc:
            load_index(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_truncated_index_names_file(self, index, tmp_path):
        path = tmp_path / "idx.bin"
        save_index(index, path)
        data = path.read_bytes()
        for cut in range(len(b"SEGIX"), len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(RetrievalError, match="^" + re.escape(f"{path}: file holds ")):
                load_index(path)

    @pytest.mark.parametrize("line, message", [
        ('{"id": "a1", "text": 5}', "answers need a str 'id' and 'text'"),
        ('{"id": 1, "text": "x"}', "answers need a str 'id' and 'text'"),
        ('["a1", "x"]', "answers need a str 'id' and 'text'"),
        ('{"id": "a1"', "Expecting"),
        ('{"id": "a0", "text": "again"}', "duplicate answer id 'a0'"),
    ])
    def test_bad_answers_name_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "ans.jsonl"
        path.write_text('{"id": "a0", "text": "ok"}\n' + line + "\n")
        with pytest.raises(RetrievalError) as exc:
            load_answers(path)
        assert str(exc.value).startswith(f"{path}:2: ")
        assert message in str(exc.value)

    def test_load_answers_and_qrels(self, tmp_path):
        a = tmp_path / "ans.jsonl"
        a.write_text('{"id": "a1", "text": "hello"}\n\n{"id": "a2", "text": "bye"}\n')
        answers = load_answers(a)
        assert [x.id for x in answers] == ["a1", "a2"]
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a1"}\n')
        with pytest.raises(RetrievalError):
            load_answers(bad)
        qr = tmp_path / "qrels.tsv"
        qr.write_text("q1\ta1\nq2\ta2\n")
        assert load_qrels(qr) == {"q1": "a1", "q2": "a2"}

    def test_repeated_question_in_qrels(self, tmp_path):
        qr = tmp_path / "qrels.tsv"
        qr.write_text("q1\ta1\n\nq1\ta2\n")
        with pytest.raises(RetrievalError) as exc:
            load_qrels(qr)
        assert str(exc.value) == f"{qr}:3: question 'q1' already has a qrel"
