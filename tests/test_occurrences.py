"""Property tests of the columnar corpus: the columns ``parse_corpus``
fills equal those built from news objects, the horizon mask equals the
object filter, and the occurrence-table reductions (graph, c0, scores,
purity) agree bitwise with the loop oracles on random corpora."""

import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

import newstag.corpus
from newstag.analysis import popularity_analysis, purity_analysis
from newstag.corpus import (
    Corpus,
    NewsItem,
    Post,
    corpus_stats,
    corpus_to_jsonl,
    filter_by_time,
    format_timestamp,
    normalize_hashtag,
    parse_corpus,
    parse_timestamp,
)
from newstag.credibility import init_credibility, score_news
from newstag.graph import build_direct_graph

from helpers import (
    assert_same_columns,
    c0_oracle,
    filter_by_time_oracle,
    pair_count_oracle,
    popularity_oracle,
    purity_oracle,
    score_oracle,
    skew_oracle,
    timed_news,
    untimed_corpus,
)


def random_corpus(seed: int) -> Corpus:
    """Small timed corpus over a small pool, so hashtags repeat across a
    news item's posts; posts and news may be hashtag-free, news may be
    unlabeled, and some posts lack a creation time."""
    rng = np.random.default_rng(seed)
    pool = [f"h{k}" for k in range(int(rng.integers(2, 9)))]
    news = []
    for i in range(int(rng.integers(1, 12))):
        label = (-1, 1, None)[int(rng.integers(3))]
        posts = []
        for _ in range(int(rng.integers(0, 5))):
            tags = [str(h) for h in rng.choice(pool, size=int(rng.integers(0, 5)))]
            offset = None if rng.random() < 0.2 else float(rng.uniform(0.0, 48.0))
            posts.append((offset, tags))
        news.append(timed_news(f"n{i}", label, i, posts))
    return Corpus.from_news(news)


FIXED = untimed_corpus(
    [
        ("rep", 1, [["a", "b"], ["a"], ["b", "a", "c"]]),  # hashtags repeated across posts
        ("bare", -1, [[], []]),  # hashtag-free posts only
        ("noposts", 1, []),
        ("unl", None, [["c", "d"], ["d"]]),
        ("f", -1, [["d", "e"], [], ["a", "e"]]),
    ]
)


def corpora():
    for seed in range(40):
        corpus = random_corpus(seed)
        yield corpus
        yield filter_by_time(corpus, 24.0)
    yield FIXED


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual, dtype=np.float64), np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("weighted", [True, False])
def test_graph_matches_pair_count_oracle(weighted):
    for corpus in corpora():
        graph = build_direct_graph(corpus, weighted=weighted)
        q = len(corpus.vocabulary)
        expected = np.zeros((q, q), dtype=np.int64)
        for (a, b), count in pair_count_oracle(corpus).items():
            i, j = sorted((corpus.vocab_index[a], corpus.vocab_index[b]))
            expected[i, j] = count if weighted else 1
        assert graph.upper.dtype == np.int64
        assert graph.upper.has_canonical_format
        assert np.array_equal(graph.upper.toarray(), expected)


@pytest.mark.parametrize("per_post", [True, False])
def test_c0_and_scores_match_loop_oracles(per_post):
    for k, corpus in enumerate(corpora()):
        labeled = np.flatnonzero(corpus.occurrences.labels)
        train = labeled[: (len(labeled) + 1) // 2]
        c0 = init_credibility(corpus, train, per_post=per_post)
        assert_bitwise(c0, c0_oracle(corpus, train, per_post))

        c = np.random.default_rng(k).uniform(-1.0, 1.0, size=len(corpus.vocabulary))
        scores = score_news(corpus, c, per_post=per_post)
        expected = score_oracle(corpus, c, per_post)
        assert [item.id for item in corpus.news] == list(expected)
        assert_bitwise(scores, list(expected.values()))


def test_purity_matches_loop_oracle():
    for corpus in corpora():
        report = purity_analysis(corpus)
        rows, tally, skipped = purity_oracle(corpus)
        assert [
            (r.news_id, r.label, r.n_hashtags, r.frac_fake_only, r.frac_true_only, r.frac_mixed)
            for r in report.rows
        ] == rows
        assert report.hashtag_classes == tally
        assert report.skipped_no_hashtags == skipped


def test_occurrence_table_built_once_per_corpus():
    corpus = random_corpus(0)
    table = corpus.occurrences
    build_direct_graph(corpus)
    init_credibility(corpus, np.flatnonzero(corpus.occurrences.labels))
    assert corpus.occurrences is table
    assert filter_by_time(corpus, 24.0).occurrences is not table


# --- columns built while parsing -------------------------------------------

TOKENS = ["#A", "a", "＃a", "B", "#b", "c", "#", "  ", "#D", "e"]
TIMES = [
    None,
    "2020-03-01T00:00:00Z",
    "2020-03-01T05:30:00+02:00",
    "2020-03-02T12:00:00",
    " 2020-03-01T23:59:59z",
    "2020-03-01T06:00:00.250000Z",
]


def random_stream(seed: int) -> tuple[list[str], list[NewsItem], int]:
    """JSONL lines with unlabeled news, null and non-canonical times,
    duplicate and empty hashtag tokens, blank lines and malformed
    records; the news objects of the records lenient parsing keeps,
    built post by post with ``parse_timestamp`` and ``normalize_hashtag``;
    and the number of records it skips."""
    rng = np.random.default_rng(seed)
    lines, kept, skipped = [], [], 0
    for i in range(int(rng.integers(0, 12))):
        kind = int(rng.integers(10))
        if kind == 0:
            lines.append("")
            continue
        if kind == 1:
            lines.append("{broken")
            skipped += 1
            continue
        label = (-1, 1, None)[int(rng.integers(3))]
        published = TIMES[int(rng.integers(len(TIMES)))]
        posts = []
        for j in range(int(rng.integers(0, 4))):
            tags = [TOKENS[int(k)] for k in rng.integers(len(TOKENS), size=int(rng.integers(0, 5)))]
            created = TIMES[int(rng.integers(len(TIMES)))]
            posts.append({"post_id": f"n{i}-p{j}", "created_at": created, "hashtags": tags})
        if kind == 2 and posts:
            # skipped at its last post, after the hashtags before the bad token were read
            posts[-1]["hashtags"] = [f"fresh{i}", 5]
        lines.append(json.dumps({"id": f"n{i}", "label": label, "published_at": published, "posts": posts}))
        if kind == 2 and posts:
            skipped += 1
            continue
        kept.append(
            NewsItem(
                id=f"n{i}",
                label=label,
                published_at=None if published is None else parse_timestamp(published),
                posts=tuple(
                    Post(
                        post_id=post["post_id"],
                        created_at=None if post["created_at"] is None else parse_timestamp(post["created_at"]),
                        hashtags=tuple(dict.fromkeys(filter(None, map(normalize_hashtag, post["hashtags"])))),
                    )
                    for post in posts
                ),
            )
        )
    return lines, kept, skipped


def test_parse_fills_the_columns_from_news_builds():
    for seed in range(60):
        lines, kept, skipped = random_stream(seed)
        problems = []
        parsed = parse_corpus(lines, lenient=True, errors=problems)
        assert len(problems) == skipped
        expected = Corpus.from_news(kept)
        assert_same_columns(parsed, expected)
        assert parsed == expected


def test_horizon_mask_matches_object_filter():
    for corpus in corpora():
        for horizon in (0.5, 6.0, 24.0, 47.9, 1e4):
            assert_same_columns(filter_by_time(corpus, horizon), filter_by_time_oracle(corpus, horizon))
    # posts exactly at the rounded boundary, and one microsecond-scale step past it
    for horizon in (1 / 3, 0.1, 47.9):
        corpus = Corpus.from_news([timed_news("b", 1, 0.7, [(horizon, ["a"]), (horizon + 1e-9, ["b"])])])
        cut = filter_by_time(corpus, horizon)
        assert_same_columns(cut, filter_by_time_oracle(corpus, horizon))
        assert cut.vocabulary == ("a",)
    for seed in range(20):
        corpus = parse_corpus(random_stream(seed)[0], lenient=True)
        for horizon in (1.0, 5.5, 30.0):
            assert_same_columns(filter_by_time(corpus, horizon), filter_by_time_oracle(corpus, horizon))


def test_counting_posts_builds_no_post(monkeypatch):
    corpus = random_corpus(3)
    built = []

    def counting_post(**fields):
        built.append(fields["post_id"])
        return Post(**fields)

    monkeypatch.setattr(newstag.corpus, "Post", counting_post)
    assert sum(len(item.posts) for item in corpus.news) == corpus.occurrences.n_posts
    assert built == []
    # reading the posts themselves does build them
    assert [post.post_id for item in corpus.news for post in item.posts] == list(corpus.post_ids)
    assert built == list(corpus.post_ids)


def test_news_view_reads_like_a_tuple():
    corpus = random_corpus(5)
    items = tuple(corpus.news)
    assert corpus.news == items and items == corpus.news
    assert len(corpus.news) == len(items) == len(corpus)
    assert corpus.news[-1] == items[-1] and corpus.news[1:3] == items[1:3]
    assert corpus.news[np.int64(0)] == items[0]
    with pytest.raises(IndexError):
        corpus.news[len(items)]
    post_ids = [post.post_id for item in items for post in item.posts]
    assert list(corpus.post_ids) == post_ids and len(corpus.post_ids) == len(post_ids)
    assert corpus.post_ids[-1] == post_ids[-1] and corpus.post_ids[2:5] == tuple(post_ids[2:5])
    for item in items:
        assert item.posts == tuple(item.posts)
        assert hash(item) == hash(NewsItem(item.id, item.label, item.published_at, tuple(item.posts)))


def test_writer_renders_times_as_format_timestamp():
    instants = [
        datetime(1, 1, 1, tzinfo=timezone.utc),
        datetime(999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc),
        datetime(1969, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc),
        datetime(1970, 1, 1, tzinfo=timezone.utc),
        datetime(2020, 2, 29, 13, 7, 5, 500000, tzinfo=timezone(timedelta(hours=-3))),
        datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc),
    ]
    posts = tuple(Post(post_id=f"p{k}", created_at=t, hashtags=("a",)) for k, t in enumerate(instants))
    news = [NewsItem(id=f"n{k}", label=None, published_at=t, posts=posts[k:k + 1]) for k, t in enumerate(instants)]
    records = [json.loads(line) for line in corpus_to_jsonl(Corpus.from_news(news))]
    assert [r["published_at"] for r in records] == [format_timestamp(t) for t in instants]
    assert [r["posts"][0]["created_at"] for r in records] == [format_timestamp(t) for t in instants]


def test_popularity_and_skew_count_match_loop_oracles():
    streams = (parse_corpus(random_stream(seed)[0], lenient=True) for seed in range(20))
    for corpus in (*corpora(), *streams):
        checkpoints = (0.5, 1 / 3, 12.0, 47.9)
        report = popularity_analysis(corpus, checkpoints)
        per_news, excluded, dropped = popularity_oracle(corpus, sorted(checkpoints))
        assert list(report.per_news) == per_news
        assert (report.excluded_no_publish_time, report.dropped_untimed_posts) == (excluded, dropped)
        for hours in (0.0, 1.5, 30.0):
            skew = timedelta(hours=hours)
            assert corpus_stats(corpus, clock_skew=skew)["clock_skew_violations"] == skew_oracle(corpus, skew)
