import gzip
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segtool.corpus import CLASS_NAMES, AnnotatedDocument, SegmentLabel, SegmentSpan, tokenize
from segtool.retrieval import (
    AnswerDoc,
    BoostProfile,
    EmptyCorpus,
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
    out = {}
    for t in query_terms:
        plist = index.postings.get(t)
        if not plist:
            continue
        idf = index.idf(t)
        for doc_id, tf in plist:
            norm = k1 * (1.0 - b + b * index.doc_lengths[doc_id] / avg)
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


ANSWERS = [
    AnswerDoc("a1", "restart the wireless router and check the cable"),
    AnswerDoc("a2", "run iwconfig to inspect the wireless interface"),
    AnswerDoc("a3", "kernel panic is unrelated to wireless drivers"),
]


@pytest.fixture
def index():
    return build_index(ANSWERS)


def index_obj(index):
    """The JSON object of index's file, from the layout's definition: doc
    ids sorted, terms in postings order, a posting's doc as its row."""
    docs = sorted(index.doc_lengths)
    plists = list(index.postings.values())
    return {
        "version": 2, "k1": index.k1, "b": index.b, "docs": docs,
        "lengths": [index.doc_lengths[d] for d in docs], "terms": list(index.postings),
        "df": [len(p) for p in plists], "rows": [docs.index(d) for p in plists for d, _ in p],
        "tf": [tf for p in plists for _, tf in p],
    }


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

    def test_empty(self):
        with pytest.raises(EmptyCorpus):
            build_index([], k1=1.2)
        with pytest.raises(EmptyCorpus):
            build_index(ANSWERS, min_len=100)


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
        path = tmp_path / "idx.json.gz"
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
        idx.postings["the"] = [("a1", 2), ("a1", 2)]
        with pytest.raises(RetrievalError, match="'the' repeats a doc id"):
            unfielded_search(idx, question("q", "the"))

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


# a JSON value of every kind, ints near the valid ones most of all
JSON_VALUES = st.one_of(
    st.integers(-2, 8), st.integers(), st.booleans(), st.none(), st.floats(),
    st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2), st.fixed_dictionaries({}),
)


@st.composite
def edited_index_objects(draw):
    """A valid file object with one random edit: a field dropped or
    replaced, or one column value set, inserted or deleted, or two
    swapped."""
    obj = index_obj(draw(random_indexes()))
    field = draw(st.sampled_from(sorted(obj)))
    edit = draw(st.sampled_from(["drop", "replace", "set", "insert", "delete", "swap"]))
    col = obj[field]
    if edit == "drop":
        del obj[field]
    elif edit == "replace" or type(col) is not list or not col:
        obj[field] = draw(JSON_VALUES)
    else:
        i = draw(st.integers(0, len(col) - 1))
        if edit == "set":
            col[i] = draw(JSON_VALUES | st.sampled_from(col))
        elif edit == "insert":
            col.insert(i, draw(JSON_VALUES | st.sampled_from(col)))
        elif edit == "delete":
            del col[i]
        else:
            j = draw(st.integers(0, len(col) - 1))
            col[i], col[j] = col[j], col[i]
    return obj


class TestIndexFileProperties:
    @given(random_indexes())
    @example(FieldedIndex({"x": [("\u00e9", 10**6)]}, {"\u00e9": 1}, 1.2, 0.75))
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, tmp_path_factory, index):
        path = tmp_path_factory.getbasetemp() / "round-trip.json.gz"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.postings == index.postings
        assert loaded.doc_lengths == index.doc_lengths
        assert (loaded.k1, loaded.b) == (index.k1, index.b)
        (ids, cols), (want_ids, want_cols) = loaded.columns, index.columns
        assert ids == want_ids and list(cols) == list(want_cols)
        for t, (rows, impacts) in want_cols.items():
            assert np.array_equal(cols[t][0], rows) and np.array_equal(cols[t][1], impacts)

    @given(edited_index_objects())
    @settings(max_examples=300, deadline=None)
    def test_edited_file_loads_or_is_named(self, tmp_path_factory, obj):
        # every edit either leaves a valid index that the file describes
        # exactly or is a RetrievalError naming the file
        path = tmp_path_factory.getbasetemp() / "edited.json.gz"
        path.write_bytes(gzip.compress(json.dumps(obj).encode()))
        try:
            loaded = load_index(path)
        except RetrievalError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            assert index_obj(loaded) == obj
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
        q = question("q1", "a b c d e f g iwconfig", [SegmentSpan(7, 8, SegmentLabel.CC)])
        boosts = estimate_boosts([q], {"q1": "iwconfig"}, clamp=(0.25, 1.5))
        assert boosts["CC"] == 1.5

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
        path = tmp_path / "idx.json.gz"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.postings == index.postings
        assert loaded.doc_lengths == index.doc_lengths
        assert (loaded.k1, loaded.b) == (index.k1, index.b)
        q = question("q", "wireless iwconfig")
        assert unfielded_search(loaded, q, k=3) == unfielded_search(index, q, k=3)

    def test_file_holds_the_column_layout(self, index, tmp_path):
        path = tmp_path / "idx.json.gz"
        save_index(index, path)
        assert json.loads(gzip.decompress(path.read_bytes())) == index_obj(index)

    def test_v1_file_rejected(self, index, tmp_path):
        # the layout before the columns: nested [doc, tf] pairs per term
        obj = {
            "version": 1, "k1": index.k1, "b": index.b,
            "doc_lengths": index.doc_lengths, "postings": dict(index.postings),
        }
        path = tmp_path / "old.json.gz"
        path.write_bytes(gzip.compress(json.dumps(obj).encode()))
        with pytest.raises(RetrievalError) as exc:
            load_index(path)
        assert str(exc.value) == f"{path}: unsupported index version 1; rerun segtool index"

    def test_version_check(self, index, tmp_path):
        import gzip, json

        path = tmp_path / "idx.json.gz"
        with gzip.open(path, "wt") as fh:
            json.dump({"version": 42}, fh)
        with pytest.raises(RetrievalError):
            load_index(path)

    # index_obj(index) of the fixture: docs a1 a2 a3; terms "restart" (a1),
    # "the" (a1 tf 2, a2), "wireless" (a1 a2 a3), ...; 17 terms, 21 postings
    @pytest.mark.parametrize("edit, message", [
        (lambda o: o.pop("rows"), "field 'rows' must be a list"),
        (lambda o: o.update(tf={}), "field 'tf' must be a list"),
        (lambda o: o.update(df=5), "field 'df' must be a list"),
        (lambda o: o.clear() or o.update(version=2, k1=1.2, b=0.75, doc_lengths={"a1": 1},
                                         postings={"x": [["a1", 1]]}),
         "field 'docs' must be a list"),
        (lambda o: o.update(docs=[]), "field 'docs' must be a non-empty"),
        (lambda o: o["docs"].__setitem__(1, "a1"), "'docs' must be a non-empty list of ascending"),
        (lambda o: o["docs"].reverse(), "list of ascending str ids"),
        (lambda o: o["docs"].__setitem__(0, 1), "ascending str ids"),
        (lambda o: o["terms"].__setitem__(1, "restart"), "field 'terms' must be a list of distinct"),
        (lambda o: o["terms"].__setitem__(0, ["x"]), "list of distinct str terms"),
        (lambda o: o["lengths"].__setitem__(0, "8"), "field 'lengths' holds '8', not a positive"),
        (lambda o: o["lengths"].__setitem__(2, 0), "field 'lengths' holds 0"),
        (lambda o: o["lengths"].__setitem__(1, None), "field 'lengths' holds None"),
        (lambda o: o["df"].__setitem__(3, 0), "field 'df' holds 0"),
        (lambda o: o["df"].__setitem__(3, False), "field 'df' holds False"),
        (lambda o: o.update(k1="1.2"), "bad value '1.2' for field 'k1'"),
        (lambda o: o.update(k1=10**310), "0 for field 'k1'"),
        (lambda o: o.update(k1=float("inf")), "bad value inf for field 'k1'"),
        (lambda o: o.update(b=1.5), "bad value 1.5 for field 'b'"),
        (lambda o: o.update(b=float("nan")), "bad value nan for field 'b'"),
        (lambda o: o["tf"].__setitem__(0, 0), "not a positive int"),
        (lambda o: o["tf"].__setitem__(0, True), "not a positive int"),
        (lambda o: o["tf"].__setitem__(0, 1.0), "not a positive int"),
        (lambda o: o["tf"].__setitem__(5, [1]), "field 'tf' holds [1]"),
        (lambda o: o["tf"].__setitem__(5, 2**63), "holds 9223372036854775808, not a positive int"),
        (lambda o: o["rows"].__setitem__(4, 99), "names a doc not in"),
        (lambda o: o["rows"].__setitem__(0, -1), "field 'rows' holds -1, which names a doc not in"),
        (lambda o: o["rows"].__setitem__(0, True), "field 'rows' holds True"),
        (lambda o: o["rows"].__setitem__(0, "0"), "field 'rows' holds '0'"),
        (lambda o: o["rows"].__setitem__(0, 0.0), "field 'rows' holds 0.0"),
        (lambda o: o["lengths"].pop(), "field 'lengths' holds 2 values, not 3"),
        (lambda o: o["df"].pop(), "field 'df' holds 16 values, not 17"),
        (lambda o: o["df"].__setitem__(0, 2), "field 'rows' holds 21 values, not 22"),
        (lambda o: o["tf"].pop(), "field 'tf' holds 20 values, not 21"),
        (lambda o: o["tf"].append(1), "field 'tf' holds 22 values, not 21"),
        (lambda o: o["rows"].__setitem__(2, 0), "field 'rows' of 'the' repeats a doc id"),
        (lambda o: o["rows"].__setitem__(slice(1, 3), [1, 0]),
         "field 'rows' of 'the' repeats a doc id or is unsorted"),
        (lambda o: o.update(version=None) or o.pop("version"), "unsupported index version None"),
    ])
    def test_malformed_index_names_file(self, index, tmp_path, edit, message):
        obj = index_obj(index)
        edit(obj)
        path = tmp_path / "idx.json.gz"
        path.write_bytes(gzip.compress(json.dumps(obj).encode()))
        with pytest.raises(RetrievalError) as exc:
            load_index(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert message in str(exc.value)

    # gzip headers carry a timestamp, so the gzip cases get fixed ids.
    @pytest.mark.parametrize("data", [
        b"no index here", b"",
        pytest.param(gzip.compress(b"[1, 2")[:-6], id="gzip-truncated"),
        pytest.param(gzip.compress(b"{nope"), id="gzip-bad-json"),
        pytest.param(gzip.compress(b"\xff\xfe"), id="gzip-not-utf8"),
        pytest.param(gzip.compress(b"[1, 2]"), id="gzip-not-an-object"),
    ])
    def test_unreadable_index_names_file(self, tmp_path, data):
        path = tmp_path / "idx.json.gz"
        path.write_bytes(data)
        with pytest.raises(RetrievalError) as exc:
            load_index(path)
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("line, message", [
        ('{"id": "a1", "text": 5}', "answers need a str 'id' and 'text'"),
        ('{"id": 1, "text": "x"}', "answers need a str 'id' and 'text'"),
        ('["a1", "x"]', "answers need a str 'id' and 'text'"),
        ('{"id": "a1"', "Expecting"),
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
