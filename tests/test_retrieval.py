import gzip
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtool.corpus import CLASS_NAMES, AnnotatedDocument, SegmentLabel, SegmentSpan, tokenize
from segtool.retrieval import (
    AnswerDoc,
    BoostProfile,
    EmptyCorpus,
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
    unfielded_search,
)


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


def oracle_fielded_search(index, doc, boosts=None, k=10):
    boosts = boosts or BoostProfile()
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


class TestBuildIndex:
    def test_postings_and_lengths(self, index):
        assert index.n_docs == 3
        assert index.doc_lengths["a1"] == 8
        assert index.postings["wireless"] == [("a1", 1), ("a2", 1), ("a3", 1)]
        assert index.postings["the"] == [("a1", 2), ("a2", 1)]

    def test_min_len(self):
        idx = build_index(ANSWERS, min_len=8)
        assert set(idx.doc_lengths) == {"a1"}

    def test_exclusions(self):
        idx = build_index(ANSWERS, exclusions=["a1"])
        assert set(idx.doc_lengths) == {"a2", "a3"}

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
            fielded_search(index, question("q", "x"), k=0)
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
        assert fielded_search(index, q, None, k) == oracle_fielded_search(index, q, None, k)
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
        assert fielded_search(index, question("q", "zzz"), k=5) == []

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

    def test_streamed_level9_file_loads(self, index, tmp_path):
        # files written before save_index built the JSON in one string
        # (json.dump streamed through a text wrapper at gzip level 9) load
        # to the same index as a file written now
        import gzip, json

        old, new = tmp_path / "old.json.gz", tmp_path / "new.json.gz"
        obj = {
            "version": 1, "k1": index.k1, "b": index.b,
            "doc_lengths": index.doc_lengths, "postings": dict(index.postings),
        }
        with gzip.open(old, "wt", encoding="utf-8") as fh:
            json.dump(obj, fh)
        save_index(index, new)
        a, b = load_index(old), load_index(new)
        assert a.postings == b.postings == index.postings
        assert a.doc_lengths == b.doc_lengths
        assert (a.k1, a.b) == (b.k1, b.b)
        assert gzip.decompress(old.read_bytes()) == gzip.decompress(new.read_bytes())

    def test_version_check(self, index, tmp_path):
        import gzip, json

        path = tmp_path / "idx.json.gz"
        with gzip.open(path, "wt") as fh:
            json.dump({"version": 42}, fh)
        with pytest.raises(RetrievalError):
            load_index(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda o: o.pop("postings"), "field 'postings' must be an object"),
        (lambda o: o.update(postings=[]), "field 'postings' must be an object"),
        (lambda o: o.update(doc_lengths={}), "field 'doc_lengths' must be a non-empty"),
        (lambda o: o["doc_lengths"].update(a1="8"), "bad length '8' of doc 'a1'"),
        (lambda o: o.update(k1="1.2"), "bad value '1.2' for field 'k1'"),
        (lambda o: o.update(b=1.5), "bad value 1.5 for field 'b'"),
        (lambda o: o.update(b=float("nan")), "bad value nan for field 'b'"),
        (lambda o: o["postings"].update(x=5), "postings of 'x' are not a list"),
        (lambda o: o["postings"].update(x=["x"]), "posting 'x' of 'x' is not a [doc, tf] pair"),
        (lambda o: o["postings"].update(x=[["a1", 1], ["x"]]),
         "posting ['x'] of 'x' is not a [doc, tf] pair"),
        (lambda o: o["postings"].update(x=[["a1", 1, 2]]), "is not a [doc, tf] pair"),
        (lambda o: o["postings"].update(x=[["ghost", 1]]),
         "posting ['ghost', 1] of 'x' names a doc not in 'doc_lengths'"),
        (lambda o: o["postings"].update(x=[[["a1"], 1]]), "names a doc not in"),
        (lambda o: o["postings"].update(x=[["a1", 0]]), "not a positive int"),
        (lambda o: o["postings"].update(x=[["a1", True]]), "not a positive int"),
        (lambda o: o["postings"].update(x=[["a1", 1.0]]), "not a positive int"),
        (lambda o: o.update(version=None) or o.pop("version"), "unsupported index version None"),
    ])
    def test_malformed_index_names_file(self, index, tmp_path, edit, message):
        obj = {
            "version": 1, "k1": index.k1, "b": index.b,
            "doc_lengths": dict(index.doc_lengths),
            "postings": {t: [list(p) for p in ps] for t, ps in index.postings.items()},
        }
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
