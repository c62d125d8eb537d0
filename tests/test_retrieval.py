import math

import pytest

from segtool.corpus import AnnotatedDocument, SegmentLabel, SegmentSpan, tokenize
from segtool.retrieval import (
    AnswerDoc,
    BoostProfile,
    EmptyCorpus,
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
        with pytest.raises(UnknownGoldId):
            mrr(index, [question("q1", "wireless")], {"q1": "ghost"})

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
