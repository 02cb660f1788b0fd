import json
from datetime import timedelta, timezone

import numpy as np
import pytest

from newstag.corpus import (
    Corpus,
    CorpusError,
    corpus_stats,
    filter_by_time,
    normalize_hashtag,
    parse_corpus,
    parse_timestamp,
    split_corpus,
    write_corpus,
)

from helpers import timed_news, untimed_corpus


# --- normalize_hashtag -----------------------------------------------------

def test_normalize_strips_hash_and_case():
    assert normalize_hashtag("#COVID19") == "covid19"


def test_normalize_already_normal():
    assert normalize_hashtag("#covid19") == "covid19"


def test_normalize_rejects_empty():
    assert normalize_hashtag("#") is None
    assert normalize_hashtag("   ") is None
    assert normalize_hashtag("###") is None


def test_normalize_compatibility_forms():
    # fullwidth and small number signs fold to '#' under NFKC and must be
    # stripped; fullwidth letters fold to ASCII.
    assert normalize_hashtag("＃Tag") == "tag"
    assert normalize_hashtag("﹟Tag") == "tag"
    assert normalize_hashtag("ＡＢ") == "ab"


def test_normalize_idempotent():
    rng = np.random.default_rng(7)
    samples = ["#Hello", "  #covid  ", "＃MiXeD", "straße", "İstanbul", "#①"]
    alphabet = "abcXYZ#ß＃İ \t①テ"
    for _ in range(300):
        n = int(rng.integers(1, 8))
        samples.append("".join(alphabet[int(rng.integers(len(alphabet)))] for _ in range(n)))
    for raw in samples:
        once = normalize_hashtag(raw)
        if once is not None:
            assert normalize_hashtag(once) == once


# --- parse_corpus ----------------------------------------------------------

def _record(news_id="n1", label=1, published="2020-03-01T00:00:00Z", posts=None):
    if posts is None:
        posts = [{"post_id": "p1", "created_at": None, "hashtags": ["#A", "#a"]}]
    return json.dumps({"id": news_id, "label": label, "published_at": published, "posts": posts})


def test_parse_dedupes_hashtags_within_post():
    corpus = parse_corpus([_record()])
    assert corpus.news[0].posts[0].hashtags == ("a",)
    assert corpus.vocabulary == ("a",)


def test_parse_duplicate_id_fatal():
    with pytest.raises(CorpusError, match="duplicate news id"):
        parse_corpus([_record(), _record()])


def test_parse_duplicate_id_fatal_even_when_lenient():
    with pytest.raises(CorpusError, match="duplicate news id"):
        parse_corpus([_record(), _record()], lenient=True)


def test_parse_empty_stream():
    corpus = parse_corpus([])
    assert len(corpus.news) == 0
    assert corpus.vocabulary == ()


def test_parse_bad_label_fatal():
    with pytest.raises(CorpusError, match="label"):
        parse_corpus([_record(label=2)])
    with pytest.raises(CorpusError, match="label"):
        parse_corpus([_record(label=True)])


def test_parse_bad_label_fatal_even_when_lenient():
    with pytest.raises(CorpusError, match="label"):
        parse_corpus([_record(label=2)], lenient=True)


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(CorpusError, match="line 2"):
        parse_corpus([_record(), "{not json"])


def test_parse_lenient_skips_and_reports():
    problems = []
    corpus = parse_corpus(
        [_record(), "{broken", _record(news_id="n2")], lenient=True, errors=problems
    )
    assert [item.id for item in corpus.news] == ["n1", "n2"]
    assert problems and problems[0][0] == 2


def test_parse_clock_skew_counted(caplog):
    record = _record(
        posts=[{"post_id": "p1", "created_at": "2020-02-29T00:00:00Z", "hashtags": ["a"]}]
    )
    with caplog.at_level("WARNING"):
        corpus = parse_corpus([record])
    assert "clock skew" in caplog.text
    # a generous allowance silences the warning
    stats = corpus_stats(corpus, clock_skew=timedelta(days=2))
    assert stats["clock_skew_violations"] == 0


def test_negative_clock_skew_rejected():
    record = _record()
    with pytest.raises(ValueError, match="clock skew allowance must be >= 0 hours, got -5"):
        parse_corpus([record], clock_skew=timedelta(hours=-5))
    with pytest.raises(ValueError, match="clock skew"):
        corpus_stats(parse_corpus([record]), clock_skew=timedelta(hours=-5))


def test_parse_timestamp_variants():
    z = parse_timestamp("2020-03-01T12:00:00Z")
    offset = parse_timestamp("2020-03-01T12:00:00+00:00")
    naive = parse_timestamp("2020-03-01T12:00:00")
    assert z == offset == naive
    assert z.tzinfo == timezone.utc


def test_vocabulary_is_exact_union_first_appearance():
    corpus = untimed_corpus(
        [("n1", 1, [["b", "a"], ["c"]]), ("n2", -1, [["a", "d"]])]
    )
    assert corpus.vocabulary == ("b", "a", "c", "d")
    union = set()
    for item in corpus.news:
        for post in item.posts:
            union.update(post.hashtags)
    assert set(corpus.vocabulary) == union


def test_write_corpus_roundtrip(tmp_path):
    news = [
        timed_news("n1", 1, 0, [(1.0, ["a", "b"]), (None, ["c"])]),
        timed_news("n2", -1, 5, [(0.5, ["b"])]),
    ]
    news.append(untimed_corpus([("n3", None, [["d"]])]).news[0])
    corpus = Corpus.from_news(news)
    path = tmp_path / "c.jsonl"
    write_corpus(corpus, path)
    back = parse_corpus(path)
    assert back == corpus
    # serialization is stable byte-for-byte
    path2 = tmp_path / "c2.jsonl"
    write_corpus(back, path2)
    assert path.read_bytes() == path2.read_bytes()


# --- filter_by_time ----------------------------------------------------------

def test_filter_keeps_only_posts_within_horizon():
    corpus = Corpus.from_news([timed_news("n1", 1, 0, [(1.0, ["a"]), (20.0, ["b"])])])
    out = filter_by_time(corpus, 12.0)
    assert [p.post_id for p in out.news[0].posts] == ["n1-p0"]
    assert out.vocabulary == ("a",)


def test_filter_boundary_is_closed():
    corpus = Corpus.from_news([timed_news("n1", 1, 0, [(12.0, ["a"])])])
    out = filter_by_time(corpus, 12.0)
    assert len(out.news[0].posts) == 1


def test_filter_without_timestamps_is_identity():
    corpus = untimed_corpus([("n1", 1, [["a"], ["b"]])])
    out = filter_by_time(corpus, 1.0)
    assert out == corpus


def test_filter_drops_untimed_posts_of_timed_news():
    corpus = Corpus.from_news([timed_news("n1", 1, 0, [(None, ["a"]), (1.0, ["b"])])])
    out = filter_by_time(corpus, 12.0)
    assert [p.post_id for p in out.news[0].posts] == ["n1-p1"]


def test_filter_rejects_nonpositive_horizon():
    corpus = untimed_corpus([("n1", 1, [["a"]])])
    with pytest.raises(ValueError):
        filter_by_time(corpus, 0.0)


def test_filter_monotone_in_horizon():
    rng = np.random.default_rng(11)
    news = [
        timed_news(
            f"n{i}",
            1,
            float(rng.uniform(0, 5)),
            [(float(rng.uniform(0, 72)), ["a", f"h{int(rng.integers(6))}"]) for _ in range(6)],
        )
        for i in range(8)
    ]
    corpus = Corpus.from_news(news)
    for h1, h2 in [(6.0, 12.0), (12.0, 48.0), (1.0, 71.9)]:
        small = filter_by_time(corpus, h1)
        large = filter_by_time(corpus, h2)
        for a, b in zip(small.news, large.news):
            assert set(p.post_id for p in a.posts) <= set(p.post_id for p in b.posts)


# --- split_corpus ------------------------------------------------------------

def _labeled_corpus(n_labeled=10, n_unlabeled=0):
    spec = [(f"n{i}", 1 if i % 2 else -1, [["a"]]) for i in range(n_labeled)]
    spec += [(f"u{i}", None, [["a"]]) for i in range(n_unlabeled)]
    return untimed_corpus(spec)


def test_split_floor_rule():
    corpus = _labeled_corpus(10)
    train, test = split_corpus(corpus, 0.8, seed=123)
    assert len(train) == 8 and len(test) == 2
    train99, test99 = split_corpus(corpus, 0.99, seed=123)
    assert len(train99) == 9 and len(test99) == 1


def test_split_deterministic():
    corpus = _labeled_corpus(10)
    def split(seed):
        return [side.tolist() for side in split_corpus(corpus, 0.8, seed=seed)]

    assert split(5) == split(5)
    assert split(5) != split(6)


def test_split_disjoint_and_covering():
    corpus = _labeled_corpus(9, n_unlabeled=3)
    train, test = split_corpus(corpus, 0.6, seed=0)
    assert not set(train) & set(test)
    assert set(train) | set(test) == set(range(len(corpus.news)))


def test_split_unlabeled_always_in_test():
    corpus = _labeled_corpus(6, n_unlabeled=4)
    for seed in range(5):
        train, test = split_corpus(corpus, 0.5, seed=seed)
        assert all(not corpus.news[r].id.startswith("u") for r in train)
        assert {f"u{k}" for k in range(4)} <= {corpus.news[r].id for r in test}


def test_split_validates_fraction_and_labels():
    corpus = _labeled_corpus(10)
    with pytest.raises(ValueError):
        split_corpus(corpus, 1.0, seed=0)
    with pytest.raises(ValueError):
        split_corpus(corpus, 0.0, seed=0)
    with pytest.raises(CorpusError):
        split_corpus(_labeled_corpus(1), 0.5, seed=0)
