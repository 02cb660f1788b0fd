"""Property test: the occurrence-table reductions (graph, c0, scores,
purity) agree bitwise with the loop oracles on random corpora."""

import numpy as np
import pytest

from newstag.analysis import purity_analysis
from newstag.corpus import Corpus, filter_by_time
from newstag.credibility import init_credibility, score_news
from newstag.graph import build_direct_graph

from helpers import (
    c0_oracle,
    pair_count_oracle,
    purity_oracle,
    score_oracle,
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
