"""Property tests of the columnar corpus: every producer keeps the
parser's invariants, the horizon mask equals the object filter, and the
occurrence-table reductions (graph, c0, scores, purity) agree bitwise
with the loop oracles on random corpora."""

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
    normalize_hashtag,
    parse_corpus,
)
import newstag.credibility
from newstag.credibility import RowBlocks, init_credibility, score_news
from newstag.graph import build_direct_graph
from newstag.synth import SyntheticParams, generate_synthetic

from helpers import (
    assert_same_columns,
    c0_bincount_oracle,
    c0_oracle,
    canonical_stamp,
    corpus_of,
    filter_by_time_oracle,
    news_record,
    pair_count_oracle,
    popularity_oracle,
    popularity_summary_oracle,
    purity_oracle,
    random_stream,
    score_bincount_oracle,
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
    return corpus_of(news)


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
            i, j = corpus.vocab_index[a], corpus.vocab_index[b]
            expected[i, j] = expected[j, i] = count if weighted else 1
        assert graph.values.dtype == np.int64
        assert graph.values.has_canonical_format
        assert np.array_equal(graph.values.toarray(), expected)
        assert graph.n_edges == len(pair_count_oracle(corpus))


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


def training_sides(corpus: Corpus, seed: int) -> list[np.ndarray]:
    """Several training sides of one corpus: random halves of the labeled
    rows (so some hashtags go unseen in training), all of them, none."""
    rng = np.random.default_rng(seed)
    labeled = np.flatnonzero(corpus.occurrences.labels)
    halves = [np.sort(rng.permutation(labeled)[: (len(labeled) + 1) // 2]) for _ in range(3)]
    return [*halves, labeled, labeled[:0]]


@pytest.fixture(params=["inline", "row blocks"])
def blocks(request, monkeypatch):
    """No pool, or a pool that cuts every product into three row blocks."""
    if request.param == "inline":
        yield None
        return
    monkeypatch.setattr(newstag.credibility, "ROW_BLOCK_MIN_WORK", 1)
    monkeypatch.setattr(newstag.credibility, "worker_count", lambda units: 3)
    with RowBlocks() as pool:
        yield pool


@pytest.mark.parametrize("per_post", [True, False])
def test_c0_and_score_panels_equal_the_bincount_formulas(per_post, blocks):
    # FIXED holds news without hashtags and a hashtag repeated across posts;
    # the random halves leave hashtags unseen in training
    for k, corpus in enumerate(corpora()):
        sides = training_sides(corpus, k)
        panel = init_credibility(corpus, sides, per_post=per_post)
        assert panel.shape == (len(corpus.vocabulary), len(sides))
        for j, side in enumerate(sides):
            expected = c0_bincount_oracle(corpus, side, per_post)
            assert_bitwise(panel[:, j], expected)
            assert_bitwise(init_credibility(corpus, side, per_post=per_post), expected)

        c = np.random.default_rng(k).uniform(-1.0, 1.0, size=(len(corpus.vocabulary), 4))
        c[:, 3] = -0.0  # signed zeros sum as the bincount sums them
        scores = score_news(corpus, c, per_post=per_post, blocks=blocks)
        assert scores.shape == (len(corpus), 4)
        for j in range(4):
            expected = score_bincount_oracle(corpus, c[:, j], per_post)
            assert_bitwise(scores[:, j], expected)
            assert_bitwise(score_news(corpus, c[:, j].copy(), per_post=per_post, blocks=blocks), expected)
            assert_bitwise(score_news(corpus, c[:, j:j + 1], per_post=per_post, blocks=blocks)[:, 0], expected)


def test_unlabeled_train_row_raises_for_a_panel_column():
    with pytest.raises(ValueError, match=r"^train row 3 \(news 'unl'\) is unlabeled$"):
        init_credibility(FIXED, [[0, 4], [0, 3, 1]])
    with pytest.raises(ValueError, match=r"^train row 3 \(news 'unl'\) is unlabeled$"):
        init_credibility(FIXED, [0, 3, 1])


def test_incidence_views_share_one_entry_per_occurrence():
    for corpus in corpora():
        occ = corpus.occurrences
        by_post, by_news = occ.post_incidence, occ.news_incidence(True)
        assert by_post.shape == (occ.n_posts, len(corpus.vocabulary))
        assert by_news.shape == (len(corpus), len(corpus.vocabulary))
        assert np.array_equal(by_post.indices, occ.tag) and np.all(by_post.data == 1.0)
        assert np.array_equal(np.repeat(np.arange(occ.n_posts), np.diff(by_post.indptr)), occ.post)
        assert np.array_equal(np.repeat(np.arange(len(corpus)), np.diff(by_news.indptr)), occ.news)
        if occ.tag.size:
            assert np.shares_memory(by_post.indices, by_news.indices)
            assert np.shares_memory(by_post.data, by_news.data)
        news, tag = occ.distinct
        distinct = occ.news_incidence(False)
        assert np.array_equal(distinct.indices, tag)
        assert np.array_equal(np.repeat(np.arange(len(corpus)), np.diff(distinct.indptr)), news)


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


# --- what every producer keeps ---------------------------------------------

def produced_corpora():
    """Corpora from every producer: strict and lenient parses, the
    generator with and without chains, and horizon cuts of both."""
    parsed = [untimed_corpus([("n1", 1, [["a", "a", "#B"], ["#b", "B", "  "]]), ("n2", None, [["＃A", "c"]])])]
    for seed in range(30):
        lines, _ = random_stream(seed)
        errors = []
        parsed.append(parse_corpus(lines, lenient=True, errors=errors))
        bad = {line_no for line_no, _ in errors}
        parsed.append(parse_corpus([line for n, line in enumerate(lines, start=1) if n not in bad]))
    generated = [
        generate_synthetic(SyntheticParams(hashtags=40, news=30, purity=0.8, **chains), seed=seed)
        for chains in ({}, {"chain_depth": 3, "chains": 4}, {"chain_depth": 1, "chains": 2})
        for seed in (0, 1)
    ]
    for corpus in (*parsed, *generated):
        yield corpus
        for horizon in (0.5, 6.0, 30.0):
            yield filter_by_time(corpus, horizon)


def test_every_producer_keeps_the_parser_invariants():
    for corpus in produced_corpora():
        occ, q = corpus.occurrences, len(corpus.vocabulary)
        pairs = occ.post * q + occ.tag
        assert len(np.unique(pairs)) == len(pairs)  # each (post, hashtag) pair at most once
        assert all(normalize_hashtag(h) == h for h in corpus.vocabulary)
        assert np.array_equal(np.unique(occ.tag), np.arange(q))  # every entry occurs


def test_horizon_mask_matches_object_filter():
    for corpus in corpora():
        for horizon in (0.5, 6.0, 24.0, 47.9, 1e4):
            assert_same_columns(filter_by_time(corpus, horizon), filter_by_time_oracle(corpus, horizon))
    # posts exactly at the rounded boundary, and one microsecond-scale step past it
    for horizon in (1 / 3, 0.1, 47.9):
        corpus = corpus_of([timed_news("b", 1, 0.7, [(horizon, ["a"]), (horizon + 1e-9, ["b"])])])
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


def test_writer_renders_times_as_canonical_stamps():
    instants = [
        datetime(1, 1, 1, tzinfo=timezone.utc),
        datetime(999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc),
        datetime(1969, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc),
        datetime(1970, 1, 1, tzinfo=timezone.utc),
        datetime(2020, 2, 29, 13, 7, 5, 500000, tzinfo=timezone(timedelta(hours=-3))),
        datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc),
    ]
    corpus = corpus_of(news_record(f"n{k}", None, t, [(f"p{k}", t, ["a"])]) for k, t in enumerate(instants))
    records = [json.loads(line) for line in corpus_to_jsonl(corpus)]
    stamps = [canonical_stamp(t) for t in instants]
    assert stamps[:2] == ["0001-01-01T00:00:00Z", "0999-12-31T23:59:59Z"]
    assert stamps[4] == "2020-02-29T16:07:05Z"
    assert [r["published_at"] for r in records] == stamps
    assert [r["posts"][0]["created_at"] for r in records] == stamps


def test_popularity_and_skew_count_match_loop_oracles():
    streams = (parse_corpus(random_stream(seed)[0], lenient=True) for seed in range(20))
    for corpus in (*corpora(), *streams):
        checkpoints = (0.5, 1 / 3, 12.0, 47.9)
        report = popularity_analysis(corpus, checkpoints)
        per_news, excluded, dropped = popularity_oracle(corpus, sorted(checkpoints))
        assert list(report.per_news) == per_news
        assert list(report.summary) == popularity_summary_oracle(per_news, sorted(checkpoints))
        assert (report.excluded_no_publish_time, report.dropped_untimed_posts) == (excluded, dropped)
        for hours in (0.0, 1.5, 30.0):
            skew = timedelta(hours=hours)
            assert corpus_stats(corpus, clock_skew=skew)["clock_skew_violations"] == skew_oracle(corpus, skew)
