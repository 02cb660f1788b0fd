import numpy as np
import pytest

from newstag.analysis import (
    _closure_residuals,
    case_study,
    convergence_trace,
    popularity_analysis,
    purity_analysis,
)
from newstag.corpus import filter_by_time
from newstag.credibility import PropagationConfig, init_credibility, propagate_iterative, symmetric_normalize
from newstag.harness import ExperimentConfig, _split_with_retries
from newstag.synth import SyntheticParams, generate_synthetic

from helpers import (
    closure_graph,
    corpus_of,
    dense_power_sum,
    spectral_radius_dense,
    timed_news,
    untimed_corpus,
    untimed_news,
)
from newstag.graph import build_direct_graph, normalize


def config_for(corpus_seed=0, **overrides) -> ExperimentConfig:
    base = dict(
        mu=0.4,
        k1=10,
        propagation=PropagationConfig(max_iterations=100, tolerance=1e-9),
        train_fraction=0.8,
        seed=corpus_seed,
        repetitions=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --- purity ---------------------------------------------------------------------

def test_purity_pure_synthetic_corpus():
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=1.0), seed=4)
    report = purity_analysis(corpus)
    for row in report.rows:
        if row.label == -1:
            assert row.frac_fake_only == 1.0
        else:
            assert row.frac_true_only == 1.0
    assert report.hashtag_classes["mixed"] == 0


def test_purity_fractions_partition():
    corpus = untimed_corpus(
        [
            ("f1", -1, [["x", "m"]]),
            ("t1", 1, [["y", "m"]]),
            ("t2", 1, [["y", "z"]]),
        ]
    )
    report = purity_analysis(corpus)
    for row in report.rows:
        assert row.frac_fake_only + row.frac_true_only + row.frac_mixed == pytest.approx(1.0)
    by_id = {row.news_id: row for row in report.rows}
    # f1 has one fake-only (x) and one mixed (m) hashtag
    assert by_id["f1"].frac_fake_only == pytest.approx(0.5)
    assert by_id["f1"].frac_mixed == pytest.approx(0.5)
    assert report.hashtag_classes == {"fake_only": 1, "true_only": 2, "mixed": 1}


def test_purity_zero_hashtag_news_counted_separately():
    corpus = untimed_corpus([("a", 1, [["x"]]), ("empty", -1, [])])
    report = purity_analysis(corpus)
    assert report.skipped_no_hashtags == 1
    assert [row.news_id for row in report.rows] == ["a"]


# --- popularity ------------------------------------------------------------------

def test_popularity_cumulative_counts():
    corpus = corpus_of(
        [timed_news("n1", 1, 0, [(1.0, ["a"]), (3.0, ["b"])])]
    )
    report = popularity_analysis(corpus, [2.0, 4.0])
    assert report.per_news[0]["counts"] == [1, 2]


def test_popularity_zero_posts():
    corpus = corpus_of([timed_news("n1", -1, 0, [])])
    report = popularity_analysis(corpus, [2.0])
    assert report.per_news[0]["counts"] == [0]


def test_popularity_summary_covers_both_classes():
    news = [
        timed_news("t1", 1, 0, [(1.0, ["a"]), (2.0, ["a"])]),
        timed_news("t2", 1, 0, [(1.5, ["a"])]),
        timed_news("f1", -1, 0, [(0.5, ["b"])]),
    ]
    corpus = corpus_of(news)
    report = popularity_analysis(corpus, [2.0, 6.0])
    keys = {(row["checkpoint_hours"], row["label"]) for row in report.summary}
    assert keys == {(2.0, 1), (2.0, -1), (6.0, 1), (6.0, -1)}
    medians = {(r["checkpoint_hours"], r["label"]): r["median"] for r in report.summary}
    assert medians[(2.0, 1)] == pytest.approx(1.5)
    assert medians[(2.0, -1)] == pytest.approx(1.0)


def test_popularity_exclusions_counted():
    news = [
        timed_news("ok", 1, 0, [(1.0, ["a"]), (None, ["b"])]),
        untimed_news("noclock", -1, [["c"]]),
    ]
    corpus = corpus_of(news)
    report = popularity_analysis(corpus, [2.0])
    assert report.excluded_no_publish_time == 1
    assert report.dropped_untimed_posts == 1


def test_popularity_validates_checkpoints():
    corpus = corpus_of([timed_news("n", 1, 0, [(1.0, ["a"])])])
    with pytest.raises(ValueError):
        popularity_analysis(corpus, [])
    with pytest.raises(ValueError):
        popularity_analysis(corpus, [-1.0])


# --- case study ------------------------------------------------------------------

def test_case_study_fake_only_hashtag_scores_minus_one():
    corpus = generate_synthetic(SyntheticParams(hashtags=40, news=40, purity=1.0), seed=6)
    fake_tags = sorted(
        {
            h
            for item in corpus.news
            if item.label == -1
            for post in item.posts
            for h in post.hashtags
        }
    )
    rows = case_study(corpus, config_for(6), ["#" + fake_tags[0], "missing-tag"])
    assert rows[0].status == "ok"
    assert rows[0].c_star == -1.0
    assert rows[0].c_hat_rescaled is not None and rows[0].c_hat_rescaled <= 0.0
    assert rows[1].status == "absent"
    assert rows[1].c_star is None


def test_case_study_normalizes_watchlist_entries():
    corpus = generate_synthetic(SyntheticParams(hashtags=40, news=40, purity=1.0), seed=6)
    tag = corpus.vocabulary[0]
    rows = case_study(corpus, config_for(6), ["#" + tag.upper()])
    assert rows[0].hashtag == tag
    assert rows[0].status == "ok"


def test_all_data_credibility_differs_from_train_only():
    # a hashtag used only by test-side fake news: c* = -1 while c0 = 0
    corpus = untimed_corpus(
        [
            ("train_f", -1, [["a", "b"]]),
            ("train_t", 1, [["c", "d"]]),
            ("test_f", -1, [["zz", "a"]]),
        ]
    )
    c_star = init_credibility(corpus, np.flatnonzero(corpus.occurrences.labels))
    c0 = init_credibility(corpus, (0, 1))  # train_f, train_t
    k = corpus.vocab_index["zz"]
    assert c_star[k] == -1.0
    assert c0[k] == 0.0


# --- convergence trace -------------------------------------------------------------

def partial_sum_residuals(n: np.ndarray, k1: int) -> list[float]:
    """||S_k - S_{k-1}|| / ||S_k|| for the partial sums S_k of N + ... + N^k1."""
    partial = [dense_power_sum(n, k) for k in range(1, k1 + 1)]
    return [1.0] + [np.linalg.norm(b - a) / np.linalg.norm(b) for a, b in zip(partial, partial[1:])]


def test_trace_row_counts_match_iteration_caps():
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.9), seed=3)
    config = config_for(
        3, k1=7, propagation=PropagationConfig(max_iterations=5, tolerance=0.0)
    )
    trace = convergence_trace(corpus, config)
    assert len(trace.closure_residuals) == 7
    assert trace.closure_residuals[0] == 1.0
    assert len(trace.propagation_residuals) == 5
    n = normalize(build_direct_graph(corpus)).values.toarray()
    assert np.allclose(trace.closure_residuals, partial_sum_residuals(n, 7), rtol=0, atol=1e-12)


def test_trace_closure_rows_follow_method_weighting_and_horizon():
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.9), seed=3)
    config = config_for(3, k1=6, method="newstag_unweighted", time_horizon_hours=24.0)
    trace = convergence_trace(corpus, config)
    working = filter_by_time(corpus, 24.0)
    n = normalize(build_direct_graph(working, weighted=False)).values.toarray()
    assert np.allclose(trace.closure_residuals, partial_sum_residuals(n, 6), rtol=0, atol=1e-12)
    weighted = normalize(build_direct_graph(working)).values.toarray()
    assert not np.allclose(trace.closure_residuals, partial_sum_residuals(weighted, 6), rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", ["disconnected", "blocks", "regular"])
@pytest.mark.parametrize("k1", [1, 2, 6, 10])
def test_closure_residuals_match_partial_sums_on_random_graphs(shape, k1):
    for seed in range(6):
        N = closure_graph(np.random.default_rng((seed, k1)), shape)
        n = N.values.toarray()
        if shape == "regular":
            assert spectral_radius_dense(n) == pytest.approx(1.0, abs=1e-12)
        residuals = _closure_residuals(N, k1)
        assert np.allclose(residuals, partial_sum_residuals(n, k1), rtol=0, atol=1e-12)


def test_trace_closure_residuals_decay_when_contractive():
    corpus = generate_synthetic(
        SyntheticParams(hashtags=50, news=60, purity=0.9, posts_per_news=(4, 8)), seed=5
    )
    N = normalize(build_direct_graph(corpus))
    assert spectral_radius_dense(N.values.toarray()) < 1.0
    trace = convergence_trace(corpus, config_for(5, k1=8))
    residuals = trace.closure_residuals
    assert residuals[0] == 1.0
    for a, b in zip(residuals[1:], residuals[2:]):
        assert b <= a + 1e-12


def test_trace_propagation_ratio_bounded_by_mu():
    corpus = generate_synthetic(
        SyntheticParams(hashtags=50, news=60, purity=0.9, posts_per_news=(4, 8)), seed=5
    )
    config = config_for(
        5, propagation=PropagationConfig(max_iterations=30, tolerance=0.0)
    )
    trace = convergence_trace(corpus, config)
    residuals = trace.propagation_residuals
    for prev, cur in zip(residuals[1:], residuals[2:]):
        if prev > 1e-13:
            assert cur <= (config.mu + 1e-6) * prev


def test_trace_no_indirect_propagates_over_direct_graph():
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.9), seed=3)
    prop = PropagationConfig(max_iterations=6, tolerance=0.0)
    trace = convergence_trace(corpus, config_for(3, method="newstag_no_indirect", propagation=prop))
    assert trace.closure_residuals == ()
    X, _ = symmetric_normalize(normalize(build_direct_graph(corpus)))
    train, _, _ = _split_with_retries(corpus, 0.8, 3)
    c0 = init_credibility(corpus, train)
    _, expected = propagate_iterative(X, c0, 0.4, prop)
    assert trace.propagation_residuals == tuple(expected)


def test_trace_edgeless_corpus_has_no_closure_rows():
    corpus = untimed_corpus([(f"n{i}", 1 if i % 2 else -1, [[f"h{i % 4}"]]) for i in range(10)])
    prop = PropagationConfig(max_iterations=4, tolerance=0.0)
    trace = convergence_trace(corpus, config_for(0, propagation=prop))
    assert trace.closure_residuals == ()
    assert len(trace.propagation_residuals) == 4
