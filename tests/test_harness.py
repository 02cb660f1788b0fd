from dataclasses import replace

import json
import logging
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import newstag.credibility
import newstag.harness
from newstag.corpus import draw_rows
from newstag.credibility import (
    MODE_CLOSED_FORM,
    MODE_ITERATIVE,
    PowerSeries,
    PropagationConfig,
    RowBlocks,
    init_credibility,
    predict,
    score_news,
    symmetric_normalize,
)
from newstag.harness import (
    ExperimentConfig,
    HarnessError,
    METHOD_NEWSTAG,
    METHOD_NO_INDIRECT,
    METHOD_UNWEIGHTED,
    METHODS,
    MAX_REPETITIONS,
    build_pipeline,
    compute_f1,
    confusion_counts,
    grid_search_mu,
    propagate,
    run_experiment,
    sweep,
)
from newstag.synth import SyntheticParams, generate_synthetic

from helpers import (
    CountingOperator,
    as_dense,
    assert_same_columns,
    brute_force_f1,
    corpus_of,
    dense_pipeline_oracle,
    item_record,
    timed_news,
    untimed_corpus,
)
from newstag.corpus import Corpus, filter_by_time, split_corpus
from newstag.graph import (
    MAX_K1,
    RelationMatrix,
    all_relations_truncated,
    build_direct_graph,
    normalize,
)


def relation_of(corpus: Corpus, method: str, k1: int = 10) -> RelationMatrix:
    """The relation ``build_pipeline`` derives its operator from, rebuilt
    here (all zeros for an edgeless graph)."""
    N = normalize(build_direct_graph(corpus, weighted=method != METHOD_UNWEIGHTED))
    return N if method == METHOD_NO_INDIRECT else all_relations_truncated(N, k1)


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        method=METHOD_NEWSTAG,
        mu=0.4,
        k1=10,
        propagation=PropagationConfig(max_iterations=100, tolerance=1e-9),
        train_fraction=0.8,
        seed=0,
        repetitions=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --- compute_f1 -----------------------------------------------------------------

def test_f1_perfect_classifier():
    assert compute_f1([1, -1, 1], [1, -1, 1]) == (1.0, 1.0)


def test_f1_hand_computed_example():
    macro, micro = compute_f1([1, 1, 1, 1], [1, 1, -1, -1])
    assert micro == pytest.approx(0.5)
    assert macro == pytest.approx(1 / 3)


def test_f1_total_miss():
    truths = [1, 1, -1, -1]
    assert compute_f1([-t for t in truths], truths) == (0.0, 0.0)


def assert_f1_matches_oracle(preds, truths):
    expected = brute_force_f1(preds, truths)
    assert compute_f1(preds, truths) == expected
    scores = compute_f1(np.array(preds, dtype=np.int64), np.array(truths, dtype=np.int64))
    assert scores == expected
    assert all(type(score) is float for score in scores)


def test_f1_matches_brute_force_oracle_exactly():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        truths = [1 if rng.random() < 0.5 else -1 for _ in range(n)]
        preds = [1 if rng.random() < 0.5 else -1 for _ in range(n)]
        assert_f1_matches_oracle(preds, truths)
    # degenerate single-class corners
    for preds, truths in [
        ([1, 1], [1, 1]),
        ([-1, -1], [-1, -1]),
        ([1, 1], [-1, -1]),
        ([-1], [1]),
        ([1], [1]),
    ]:
        assert_f1_matches_oracle(preds, truths)


def test_confusion_counts_on_arrays_are_python_ints():
    counts = confusion_counts(np.array([1, 1, -1, -1, 1]), np.array([1, -1, -1, 1, 1], dtype=np.int64))
    assert counts == {"tp": 2, "fp": 1, "tn": 1, "fn": 1}
    assert all(type(count) is int for count in counts.values())
    assert json.dumps(counts, sort_keys=True) == '{"fn": 1, "fp": 1, "tn": 1, "tp": 2}'


def test_f1_identities():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 25))
        truths = [1 if rng.random() < 0.5 else -1 for _ in range(n)]
        preds = [1 if rng.random() < 0.5 else -1 for _ in range(n)]
        macro, micro = compute_f1(preds, truths)
        accuracy = sum(1 for p, t in zip(preds, truths) if p == t) / n
        assert micro == accuracy
        # macro lies between the two class F1 scores
        m1, _ = compute_f1(preds, truths)
        assert 0.0 <= macro <= 1.0


def test_f1_validates_input():
    with pytest.raises(ValueError):
        compute_f1([], [])
    with pytest.raises(ValueError, match=r"got 2$"):
        compute_f1([1], [2])
    with pytest.raises(ValueError, match=r"got 2$"):
        compute_f1(np.array([1, -1]), np.array([-1, 2], dtype=np.int64))
    with pytest.raises(ValueError):
        compute_f1([1, 1], [1])


# --- run_experiment ----------------------------------------------------------------

def test_perfectly_separable_corpus_scores_one():
    params = SyntheticParams(hashtags=120, news=80, purity=1.0)
    corpus = generate_synthetic(params, seed=11)
    report = run_experiment(corpus, small_config())
    assert report.macro_f1_mean == 1.0
    assert report.micro_f1_mean == 1.0


def test_labels_match_dense_pipeline_oracle():
    for seed in (0, 1, 2):
        params = SyntheticParams(hashtags=40, news=30, purity=0.8, posts_per_news=(2, 5))
        corpus = generate_synthetic(params, seed=seed)
        config = small_config(repetitions=1, seed=seed)
        report = run_experiment(corpus, config, collect_predictions=True)
        rep = report.repetitions[0]
        train_size = rep.n_train
        # reconstruct the same split deterministically
        from newstag.corpus import split_corpus

        train, test = split_corpus(corpus, 0.8, rep.split_seed)
        assert len(train) == train_size
        oracle = dense_pipeline_oracle(corpus, train, mu=0.4, k1=10)
        for news_id, (label, _) in rep.predictions.items():
            assert label == oracle[news_id], news_id


def test_methods_differ_in_their_operators():
    params = SyntheticParams(hashtags=60, news=40, purity=0.8)
    corpus = generate_synthetic(params, seed=5)
    newstag = build_pipeline(corpus, small_config())
    direct = build_pipeline(corpus, small_config(method=METHOD_NO_INDIRECT))
    unweighted = build_pipeline(corpus, small_config(method=METHOD_UNWEIGHTED))
    assert newstag.per_post and direct.per_post and not unweighted.per_post
    closure, N = relation_of(corpus, METHOD_NEWSTAG), relation_of(corpus, METHOD_NO_INDIRECT)
    assert closure.values.nnz >= N.values.nnz
    assert N.kind == "normalized_direct"
    assert np.array_equal(as_dense(newstag.X), symmetric_normalize(closure)[0].toarray())
    assert np.array_equal(as_dense(direct.X), symmetric_normalize(N)[0].toarray())


def test_closed_form_mode_matches_iterative_labels():
    params = SyntheticParams(hashtags=50, news=36, purity=0.8, posts_per_news=(2, 6))
    corpus = generate_synthetic(params, seed=14)
    tight = PropagationConfig(max_iterations=10000, tolerance=1e-12)
    closed = PropagationConfig(mode="closed_form")
    a = run_experiment(
        corpus, small_config(repetitions=2, propagation=tight), collect_predictions=True
    )
    b = run_experiment(
        corpus, small_config(repetitions=2, propagation=closed), collect_predictions=True
    )
    for rep_a, rep_b in zip(a.repetitions, b.repetitions):
        labels_a = {i: lab for i, (lab, _) in rep_a.predictions.items()}
        labels_b = {i: lab for i, (lab, _) in rep_b.predictions.items()}
        assert labels_a == labels_b


def test_post_replication_leaves_predictions_unchanged():
    # integer scaling of every co-occurrence count cancels in the
    # normalization, so the whole downstream pipeline is unaffected
    params = SyntheticParams(hashtags=40, news=30, purity=0.8, posts_per_news=(2, 4))
    corpus = generate_synthetic(params, seed=15)
    replicated = corpus_of(
        item_record(item, [replace(p, post_id=f"{p.post_id}-r{r}") for p in item.posts for r in range(3)])
        for item in corpus.news
    )
    ops_a = build_pipeline(corpus, small_config())
    ops_b = build_pipeline(replicated, small_config())
    relation_a, relation_b = relation_of(corpus, METHOD_NEWSTAG), relation_of(replicated, METHOD_NEWSTAG)
    assert np.array_equal(relation_a.values.toarray(), relation_b.values.toarray())
    assert np.array_equal(as_dense(ops_a.X), as_dense(ops_b.X))
    # c0 and per-post scores scale by 3 but every sign (hence label) holds
    a = run_experiment(corpus, small_config(repetitions=2), collect_predictions=True)
    b = run_experiment(replicated, small_config(repetitions=2), collect_predictions=True)
    for rep_a, rep_b in zip(a.repetitions, b.repetitions):
        labels_a = {i: lab for i, (lab, _) in rep_a.predictions.items()}
        labels_b = {i: lab for i, (lab, _) in rep_b.predictions.items()}
        assert labels_a == labels_b


def test_hashtag_order_in_posts_is_irrelevant():
    # permuting vocab indices (via hashtag listing order) must not change labels
    params = SyntheticParams(hashtags=40, news=30, purity=0.8, posts_per_news=(2, 4))
    corpus = generate_synthetic(params, seed=16)

    # news order stays fixed (it seeds the splits); only the hashtag
    # listing order changes, which permutes the vocabulary indices
    flipped = corpus_of(
        item_record(item, [replace(p, hashtags=tuple(reversed(p.hashtags))) for p in item.posts])
        for item in corpus.news
    )
    assert flipped.vocabulary != corpus.vocabulary
    assert set(flipped.vocabulary) == set(corpus.vocabulary)
    a = run_experiment(corpus, small_config(repetitions=2), collect_predictions=True)
    b = run_experiment(flipped, small_config(repetitions=2), collect_predictions=True)
    for rep_a, rep_b in zip(a.repetitions, b.repetitions):
        labels_a = {i: lab for i, (lab, _) in rep_a.predictions.items()}
        labels_b = {i: lab for i, (lab, _) in rep_b.predictions.items()}
        assert labels_a == labels_b


@pytest.mark.parametrize("mode", ["iterative", "closed_form"])
@pytest.mark.parametrize("method", METHODS)
def test_scores_equivariant_under_news_and_hashtag_permutation(method, mode):
    # news rows and vocabulary indices are storage order only: permuting
    # the news and the hashtags within each post (which permutes the
    # vocabulary) must permute the scores with them, for a training set
    # held fixed by id
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.8), seed=12)
    rng = np.random.default_rng(12)
    shuffled = corpus_of(
        item_record(item, [replace(post, hashtags=rng.permutation(post.hashtags).tolist()) for post in item.posts])
        for item in (corpus.news[r] for r in rng.permutation(len(corpus.news)))
    )
    assert [item.id for item in shuffled.news] != [item.id for item in corpus.news]
    assert shuffled.vocabulary != corpus.vocabulary
    assert set(shuffled.vocabulary) == set(corpus.vocabulary)
    train, _ = split_corpus(corpus, 0.8, seed=12)
    train_ids = {corpus.news[r].id for r in train}
    config = small_config(method=method, propagation=PropagationConfig(mode=mode))
    results = []
    for c in (corpus, shuffled):
        ops = build_pipeline(c, config)
        rows = [r for r, item in enumerate(c.news) if item.id in train_ids]
        c_hat = propagate(ops, init_credibility(ops.corpus, rows, per_post=ops.per_post), config.mu, config)
        scores = score_news(ops.corpus, c_hat, per_post=ops.per_post)
        labels = predict(ops.corpus, c_hat, per_post=ops.per_post)
        results.append({item.id: (s, lab) for item, s, lab in zip(c.news, scores, labels)})
    base, permuted = results
    assert base.keys() == permuted.keys()
    for news_id, (score, label) in base.items():
        assert abs(permuted[news_id][0] - score) <= 1e-12, news_id
        if abs(score) > 1e-12:
            assert permuted[news_id][1] == label, news_id


def test_ablation_identity_k1_one_equals_no_indirect():
    for seed in range(5):
        params = SyntheticParams(hashtags=50, news=36, purity=0.75, posts_per_news=(2, 6))
        corpus = generate_synthetic(params, seed=seed)
        a = run_experiment(corpus, small_config(k1=1, seed=seed), collect_predictions=True)
        b = run_experiment(
            corpus, small_config(method=METHOD_NO_INDIRECT, seed=seed), collect_predictions=True
        )
        for rep_a, rep_b in zip(a.repetitions, b.repetitions):
            labels_a = {i: lab for i, (lab, _) in rep_a.predictions.items()}
            labels_b = {i: lab for i, (lab, _) in rep_b.predictions.items()}
            assert labels_a == labels_b


def test_single_class_training_predictions():
    corpus = untimed_corpus(
        [("t1", 1, [["a", "b"]]), ("t2", 1, [["b", "c"]]), ("x", None, [["a"], ["d"]])]
    )
    c0 = init_credibility(corpus, (0, 1))  # t1, t2
    assert set(np.unique(c0)) <= {0.0, 1.0}
    preds = predict(corpus, c0)
    assert preds[2] in (1, -1)  # x


def test_report_determinism():
    params = SyntheticParams(hashtags=60, news=40, purity=0.9)
    corpus = generate_synthetic(params, seed=2)
    r1 = run_experiment(corpus, small_config(repetitions=5))
    r2 = run_experiment(corpus, small_config(repetitions=5))
    assert r1.to_dict() == r2.to_dict()


def test_time_horizon_filters_before_graph():
    # all posts arrive >= 1h after publish; a sub-hour horizon leaves every
    # news hashtag-free and every prediction falls to the otherwise-branch
    news = [
        timed_news("t1", 1, 0, [(2.0, ["a", "b"])]),
        timed_news("t2", 1, 0, [(3.0, ["a", "b"])]),
        timed_news("f1", -1, 0, [(2.0, ["c", "d"])]),
        timed_news("f2", -1, 0, [(4.0, ["c", "d"])]),
        timed_news("f3", -1, 0, [(5.0, ["c", "d"])]),
    ]
    corpus = corpus_of(news)
    config = small_config(repetitions=2, train_fraction=0.5, time_horizon_hours=0.001)
    report = run_experiment(corpus, config, collect_predictions=True)
    for rep in report.repetitions:
        assert all(label == -1 for label, _ in rep.predictions.values())
        assert rep.n_test_empty == len(rep.predictions)


def test_build_pipeline_applies_time_horizon():
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.9), seed=2)
    cut = filter_by_time(corpus, 6.0)
    ops = build_pipeline(corpus, small_config(time_horizon_hours=6.0))
    plain = build_pipeline(cut, small_config())
    assert_same_columns(ops.corpus, cut)
    assert ops.corpus.vocabulary == cut.vocabulary != corpus.vocabulary
    assert np.array_equal(as_dense(ops.X), as_dense(plain.X))
    assert build_pipeline(corpus, small_config()).corpus is corpus


def test_operator_is_dense_exactly_when_no_larger_than_csr():
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.9), seed=2)
    edgeless = untimed_corpus([(f"n{i}", 1 if i % 2 else -1, [[f"h{i % 4}"]]) for i in range(8)])
    cases = [
        (corpus, METHOD_NEWSTAG, np.ndarray),
        (corpus, METHOD_UNWEIGHTED, np.ndarray),
        (corpus, METHOD_NO_INDIRECT, sp.csr_matrix),
        (edgeless, METHOD_NEWSTAG, sp.csr_matrix),
        (edgeless, METHOD_NO_INDIRECT, sp.csr_matrix),
    ]
    for case_corpus, method, kind in cases:
        ops = build_pipeline(case_corpus, small_config(method=method))
        csr, _ = symmetric_normalize(relation_of(case_corpus, method))
        assert type(ops.X) is kind, method
        q = len(ops.corpus.vocabulary)
        assert (kind is np.ndarray) == (8 * q * q <= csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)
        assert np.array_equal(as_dense(ops.X), csr.toarray())


def test_report_config_carries_mu_once():
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.9), seed=2)
    config = run_experiment(corpus, small_config(mu=0.3, repetitions=1)).to_dict()["config"]
    assert config["mu"] == 0.3
    assert "mu" not in config["propagation"]
    assert "drop_tolerance" not in config


def test_degenerate_corpus_exhausts_resampling():
    corpus = untimed_corpus([(f"n{i}", 1, [["a", "b"]]) for i in range(6)])
    with pytest.raises(HarnessError, match="split"):
        run_experiment(corpus, small_config(repetitions=1))


def test_seed_changes_splits():
    params = SyntheticParams(hashtags=60, news=40, purity=0.7)
    corpus = generate_synthetic(params, seed=3)
    r1 = run_experiment(corpus, small_config(seed=1, repetitions=1), collect_predictions=True)
    r2 = run_experiment(corpus, small_config(seed=2, repetitions=1), collect_predictions=True)
    assert r1.repetitions[0].split_seed != r2.repetitions[0].split_seed


def test_config_validation_errors():
    with pytest.raises(ValueError, match="mu"):
        small_config(mu=1.5).validate()
    with pytest.raises(ValueError, match="method"):
        small_config(method="nope").validate()
    with pytest.raises(ValueError, match="repetitions"):
        small_config(repetitions=0).validate()
    small_config(repetitions=MAX_REPETITIONS).validate()
    with pytest.raises(ValueError, match=f"repetitions must be >= 1 and at most {MAX_REPETITIONS}"):
        small_config(repetitions=MAX_REPETITIONS + 1).validate()
    with pytest.raises(ValueError, match="k1"):
        small_config(k1=0).validate()
    with pytest.raises(ValueError, match="k1"):
        small_config(k1=MAX_K1 + 1).validate()
    with pytest.raises(ValueError, match="time_horizon_hours"):
        small_config(time_horizon_hours=1e20).validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_values_rejected(value):
    with pytest.raises(ValueError, match="time_horizon_hours"):
        small_config(time_horizon_hours=value).validate()
    with pytest.raises(ValueError, match="tolerance"):
        small_config(propagation=PropagationConfig(tolerance=value)).validate()
    with pytest.raises(ValueError, match="horizon_hours"):
        filter_by_time(untimed_corpus([("n", 1, [["a"]])]), value)


# --- grid search ---------------------------------------------------------------------

def test_grid_singleton():
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.8), seed=7)
    result = grid_search_mu(corpus, small_config(repetitions=2), [0.4])
    assert result.best_mu == 0.4
    assert len(result.rows) == 1


def test_grid_ties_break_toward_smaller_mu():
    # perfectly separable: every mu scores 1.0 on validation
    corpus = generate_synthetic(SyntheticParams(hashtags=80, news=60, purity=1.0), seed=8)
    result = grid_search_mu(corpus, small_config(repetitions=2), [0.7, 0.2, 0.5])
    scores = {row["mu"]: row["micro_f1_mean"] for row in result.rows}
    assert scores == {0.2: 1.0, 0.5: 1.0, 0.7: 1.0}
    assert result.best_mu == 0.2


def test_grid_drops_endpoints_and_requires_nonempty():
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.8), seed=9)
    result = grid_search_mu(corpus, small_config(repetitions=1), [0.0, 0.4, 1.0])
    assert [row["mu"] for row in result.rows] == [0.4]
    with pytest.raises(ValueError, match="grid"):
        grid_search_mu(corpus, small_config(repetitions=1), [0.0, 1.0])


def test_grid_builds_c0_once_per_panel_and_propagates_mu_major(monkeypatch):
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.8), seed=9)
    config = small_config(repetitions=3)
    grid = [0.2, 0.4, 0.6, 0.8]
    expected = grid_search_mu(corpus, config, grid)
    calls = []
    real_init, real_propagate = newstag.harness.init_credibility, newstag.harness.propagate_iterative
    real_score = newstag.harness.score_news

    def recording_init(corpus, trains, per_post=True):
        calls.append(("c0", [train.tolist() for train in trains]))
        return real_init(corpus, trains, per_post=per_post)

    def recording_propagate(X, c0, mu, propagation, series=None):
        calls.append(("propagate", mu))
        return real_propagate(X, c0, mu, propagation, series=series)

    def recording_score(corpus, c_hat, per_post=True, blocks=None):
        calls.append(("score", np.shape(c_hat)))
        return real_score(corpus, c_hat, per_post=per_post, blocks=blocks)

    monkeypatch.setattr(newstag.harness, "init_credibility", recording_init)
    monkeypatch.setattr(newstag.harness, "propagate_iterative", recording_propagate)
    monkeypatch.setattr(newstag.harness, "score_news", recording_score)
    assert grid_search_mu(corpus, config, grid) == expected
    # one c0 panel for every fold's inner training side (c0 does not depend
    # on mu), then per mu: each fold's propagation and one score panel
    inner_trains = []
    for rep in range(config.repetitions):
        train, _, split_seed = newstag.harness._split_with_retries(corpus, config.train_fraction, config.seed ^ rep)
        inner_trains.append(draw_rows(train, max(1, int(0.1 * len(train))), split_seed + 104729)[1].tolist())
    q = len(corpus.vocabulary)
    per_mu = [[("propagate", mu)] * config.repetitions + [("score", (q, config.repetitions))] for mu in grid]
    assert calls == [("c0", inner_trains), *(call for calls_of_mu in per_mu for call in calls_of_mu)]


@pytest.mark.parametrize("method", [METHOD_NEWSTAG, METHOD_NO_INDIRECT])
def test_no_thread_outlives_run_or_grid(monkeypatch, method):
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.8), seed=9)
    config = small_config(method=method)
    grid = [0.2, 0.6]
    expected = run_experiment(corpus, config), grid_search_mu(corpus, config, grid)
    # every product in row blocks on a pool of two threads
    monkeypatch.setattr(newstag.credibility, "ROW_BLOCK_MIN_WORK", 1)
    monkeypatch.setattr(newstag.credibility, "worker_count", lambda units: 3)
    alive = []
    product = RowBlocks.product

    def recording_product(self, A, B):
        result = product(self, A, B)
        alive.append(threading.active_count())
        return result

    monkeypatch.setattr(RowBlocks, "product", recording_product)
    before = threading.active_count()
    assert run_experiment(corpus, config) == expected[0]
    assert threading.active_count() == before
    assert grid_search_mu(corpus, config, grid) == expected[1]
    assert threading.active_count() == before
    assert max(alive) > before  # the products did run on the pool


def _grid_products(monkeypatch, corpus, config, grid):
    """grid_search_mu's result, the products its operator took, the columns
    of those products, and one record per panel (one init_credibility
    call each): its columns, the grid values of its series, and the mu
    and iteration count of each of its propagations."""
    operators, panels = [], []
    real_build, real_init = newstag.harness.build_pipeline, newstag.harness.init_credibility
    real_propagate, real_series = newstag.harness.propagate_iterative, newstag.harness.PowerSeries

    def counting_build(*args):
        ops = real_build(*args)
        operators.append(CountingOperator(ops.X))
        return replace(ops, X=operators[-1])

    def recording_init(corpus, sides, per_post=True):
        panels.append({"columns": len(sides), "values": None, "mus": [], "iterations": []})
        return real_init(corpus, sides, per_post=per_post)

    class RecordingSeries(real_series):
        def __init__(self, X, c0, mus, *args):
            panels[-1]["values"] = len(mus)
            super().__init__(X, c0, mus, *args)

    def recording_propagate(*args, **kwargs):
        c, residuals = real_propagate(*args, **kwargs)
        panels[-1]["mus"].append(args[2])
        panels[-1]["iterations"].append(len(residuals))
        return c, residuals

    with monkeypatch.context() as patch:
        patch.setattr(newstag.harness, "build_pipeline", counting_build)
        patch.setattr(newstag.harness, "init_credibility", recording_init)
        patch.setattr(newstag.harness, "PowerSeries", RecordingSeries)
        patch.setattr(newstag.harness, "propagate_iterative", recording_propagate)
        result = grid_search_mu(corpus, config, grid)
    counting = operators[0]
    return result, counting.products, counting.columns, panels


def _assert_one_product_per_panel_step(products, columns, panels):
    # a panel's series takes one product per step of its slowest (fold, mu)
    steps = [max(panel["iterations"]) for panel in panels]
    assert products == sum(steps)
    assert columns == sum(panel["columns"] * step for panel, step in zip(panels, steps))


@pytest.mark.parametrize("folds_in_budget", [None, 0, 1, 3])
def test_grid_shares_products_per_panel_within_the_budget(monkeypatch, folds_in_budget):
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.8), seed=9)
    config = small_config(repetitions=4, propagation=PropagationConfig(max_iterations=500, tolerance=1e-9))
    grid = [0.2, 0.5, 0.9, 0.6]
    expected = grid_search_mu(corpus, config, grid)
    if folds_in_budget is not None:
        fold_bytes = PowerSeries.storage_bytes(len(corpus.vocabulary), len(grid), config.propagation.max_iterations)
        monkeypatch.setattr(newstag.harness, "SHARED_SERIES_BYTES", folds_in_budget * fold_bytes)
    result, products, columns, panels = _grid_products(monkeypatch, corpus, config, grid)
    assert result == expected
    # the folds run in panels of as many as fit the budget over every mu, at
    # least one; with no room for one fold, each mu is its own pass
    widths = {None: [4], 0: [1] * 16, 1: [1] * 4, 3: [3, 1]}[folds_in_budget]
    assert [panel["columns"] for panel in panels] == widths
    assert {panel["values"] for panel in panels} == {1 if folds_in_budget == 0 else len(grid)}
    assert sum(len(panel["iterations"]) for panel in panels) == len(grid) * config.repetitions
    _assert_one_product_per_panel_step(products, columns, panels)
    if folds_in_budget is None:
        assert products < sum(sum(panel["iterations"]) for panel in panels)


def test_grid_runs_each_mu_alone_when_one_column_over_the_grid_is_past_the_budget(monkeypatch):
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.8), seed=9)
    config = small_config(repetitions=4, propagation=PropagationConfig(max_iterations=200, tolerance=1e-9))
    grid = [round(0.02 * k, 2) for k in range(1, 46)]
    q, cap = len(corpus.vocabulary), config.propagation.max_iterations
    expected = grid_search_mu(corpus, config, grid)
    budget = 2 * PowerSeries.storage_bytes(q, 1, cap)
    assert PowerSeries.storage_bytes(q, len(grid), cap) > budget
    monkeypatch.setattr(newstag.harness, "SHARED_SERIES_BYTES", budget)
    result, products, columns, panels = _grid_products(monkeypatch, corpus, config, grid)
    assert result == expected
    # per mu, a pass over the folds in panels of two: mu-major, fold-minor
    assert [(panel["columns"], panel["values"]) for panel in panels] == [(2, 1)] * 2 * len(grid)
    assert [set(panel["mus"]) for panel in panels] == [{mu} for mu in sorted(grid) for _ in range(2)]
    assert all(panel["columns"] * PowerSeries.storage_bytes(q, panel["values"], cap) <= budget for panel in panels)
    _assert_one_product_per_panel_step(products, columns, panels)


def _peak_bytes(experiment, *args):
    """``experiment(*args)`` and the traced peak of memory it allocated."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = experiment(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("folds_in_budget", [None, 1])
def test_grid_shared_series_memory_stays_within_the_budget(monkeypatch, folds_in_budget):
    # At tolerance 0 every mu runs to the cap, so residual traces kept per
    # mu would hold folds x grid values x steps floats; the budget covers all
    # the shared storage, so sharing adds at most the budget it used to the
    # peak of propagating each mu alone.
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.8), seed=9)
    config = small_config(repetitions=3, propagation=PropagationConfig(max_iterations=3000, tolerance=0.0))
    grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    fold_bytes = PowerSeries.storage_bytes(len(corpus.vocabulary), len(grid), config.propagation.max_iterations)
    shared = config.repetitions if folds_in_budget is None else folds_in_budget
    with monkeypatch.context() as patch:
        patch.setattr(newstag.harness, "SHARED_SERIES_BYTES", 0)
        alone, alone_peak = _peak_bytes(grid_search_mu, corpus, config, grid)
    if folds_in_budget is not None:
        monkeypatch.setattr(newstag.harness, "SHARED_SERIES_BYTES", folds_in_budget * fold_bytes)
    result, peak = _peak_bytes(grid_search_mu, corpus, config, grid)
    assert result == alone
    assert peak - alone_peak <= shared * fold_bytes


def test_grid_logs_cap_warnings_mu_major(caplog):
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.8), seed=9)
    config = small_config(repetitions=3, propagation=PropagationConfig(max_iterations=4, tolerance=1e-12))
    grid = [0.6, 0.2, 0.4]
    with caplog.at_level(logging.WARNING, logger="newstag.credibility"):
        grid_search_mu(corpus, config, grid)
    logged = [record.args[0] for record in caplog.records]
    assert logged == [mu for mu in sorted(grid) for _ in range(config.repetitions)]


@pytest.mark.parametrize("panel_columns", [None, 2])
def test_run_builds_and_propagates_each_repetition_in_order(monkeypatch, caplog, panel_columns):
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.8), seed=9)
    config = small_config(repetitions=5, propagation=PropagationConfig(max_iterations=4, tolerance=1e-12))
    expected = run_experiment(corpus, config)
    width = config.repetitions if panel_columns is None else panel_columns
    if panel_columns is not None:
        column = PowerSeries.storage_bytes(len(corpus.vocabulary), 1, config.propagation.max_iterations)
        monkeypatch.setattr(newstag.harness, "SHARED_SERIES_BYTES", panel_columns * column)
    calls, last_residuals = [], []
    real_init, real_propagate = newstag.harness.init_credibility, newstag.harness.propagate_iterative
    real_score = newstag.harness.score_news

    def recording_init(corpus, trains, per_post=True):
        c0 = real_init(corpus, trains, per_post=per_post)
        calls.append(("c0", [train.tolist() for train in trains], c0.copy()))
        return c0

    def recording_propagate(X, c0, mu, propagation, series=None):
        c, residuals = real_propagate(X, c0, mu, propagation, series=series)
        calls.append(("propagate", None, c0.copy()))
        last_residuals.append(residuals[-1])
        return c, residuals

    def recording_score(corpus, c_hat, per_post=True, blocks=None):
        calls.append(("score", None, np.shape(c_hat)))
        return real_score(corpus, c_hat, per_post=per_post, blocks=blocks)

    monkeypatch.setattr(newstag.harness, "init_credibility", recording_init)
    monkeypatch.setattr(newstag.harness, "propagate_iterative", recording_propagate)
    monkeypatch.setattr(newstag.harness, "score_news", recording_score)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="newstag.credibility"):
        assert run_experiment(corpus, config) == expected
    # per panel: one c0 call with its repetitions' training sides in
    # repetition order, then one propagation per column, in column order,
    # then one score call for the panel
    trains = [
        newstag.harness._split_with_retries(corpus, config.train_fraction, config.seed ^ rep)[0].tolist()
        for rep in range(config.repetitions)
    ]
    starts = range(0, config.repetitions, width)
    assert [kind for kind, _, _ in calls] == [
        kind for start in starts
        for kind in ["c0", *["propagate"] * len(trains[start:start + width]), "score"]
    ]
    panels = [(panel, c0) for kind, panel, c0 in calls if kind == "c0"]
    assert [panel for panel, _ in panels] == [trains[start:start + width] for start in starts]
    columns = [c0 for kind, _, c0 in calls if kind == "propagate"]
    assert len(columns) == config.repetitions
    assert all(
        np.array_equal(column, panel_c0[:, j])
        for (start, (_, panel_c0)) in zip(starts, panels)
        for j, column in enumerate(columns[start:start + width])
    )
    q = len(corpus.vocabulary)
    assert [shape for kind, _, shape in calls if kind == "score"] == [
        (q, len(trains[start:start + width])) for start in starts
    ]
    # every repetition stops at the cap, and warns in repetition order
    assert len(set(last_residuals)) == config.repetitions
    assert [record.args[2] for record in caplog.records] == last_residuals


@pytest.mark.parametrize("panel_columns", [None, 2])
def test_run_panel_memory_stays_within_the_budget(monkeypatch, panel_columns):
    # At tolerance 0 every column runs to the cap, so its trace of residual
    # factors dominates; a panel adds at most the budget it used to the
    # peak of propagating each repetition alone.
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.8), seed=9)
    config = small_config(repetitions=5, propagation=PropagationConfig(max_iterations=3000, tolerance=0.0))
    column = PowerSeries.storage_bytes(len(corpus.vocabulary), 1, config.propagation.max_iterations)
    with monkeypatch.context() as patch:
        patch.setattr(newstag.harness, "SHARED_SERIES_BYTES", 0)
        alone, alone_peak = _peak_bytes(run_experiment, corpus, config)
    width = config.repetitions if panel_columns is None else panel_columns
    if panel_columns is not None:
        monkeypatch.setattr(newstag.harness, "SHARED_SERIES_BYTES", panel_columns * column)
    report, peak = _peak_bytes(run_experiment, corpus, config)
    assert report == alone
    assert peak - alone_peak <= width * column


def test_closed_form_run_solves_on_the_same_panels(monkeypatch):
    # c0 and scores once per panel, one conjugate gradient per column: the
    # report, predictions and scores too, equals one repetition per panel
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.8), seed=9)
    config = small_config(repetitions=10, propagation=PropagationConfig(mode="closed_form"))
    with monkeypatch.context() as patch:
        patch.setattr(newstag.harness, "SHARED_SERIES_BYTES", 0)
        alone = run_experiment(corpus, config, collect_predictions=True)
    panels, solves = [], []
    real_init, real_solve = newstag.harness.init_credibility, newstag.harness.propagate_closed_form

    def recording_init(corpus, sides, per_post=True):
        panels.append(len(sides))
        return real_init(corpus, sides, per_post=per_post)

    def recording_solve(X, c0, mu):
        solves.append(mu)
        return real_solve(X, c0, mu)

    monkeypatch.setattr(newstag.harness, "init_credibility", recording_init)
    monkeypatch.setattr(newstag.harness, "propagate_closed_form", recording_solve)
    assert run_experiment(corpus, config, collect_predictions=True) == alone
    assert panels == [config.repetitions]
    assert solves == [config.mu] * config.repetitions


def test_build_pipeline_peak_memory_stays_under_three_dense_operators():
    # The closure is CSR with every entry stored (1.5 x 8q^2 bytes with its
    # indices); the operator's values are scaled a block at a time beside it
    # rather than copied from a whole second CSR matrix.
    corpus = generate_synthetic(SyntheticParams(hashtags=1000, news=625, purity=0.9), seed=1)
    q = len(corpus.vocabulary)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ops = build_pipeline(corpus, ExperimentConfig())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert isinstance(ops.X, np.ndarray) and ops.X.shape == (q, q)
    assert peak < 3.0 * 8 * q * q


# --- sweeps ---------------------------------------------------------------------------

def rows_of(config: ExperimentConfig, field: str, values) -> list[tuple[str, ExperimentConfig]]:
    """The sweep rows of a list flag: one ``(repr(value), config)`` per value."""
    return [(repr(value), replace(config, **{field: value})) for value in values]


def counting_builds(monkeypatch) -> list:
    """The configs ``build_pipeline`` is called with; each call first checks
    that no pipeline it built before is still alive."""
    builds, alive = [], []
    real_build = newstag.harness.build_pipeline

    def counting_build(corpus, config):
        assert all(ref() is None for ref in alive), "the previous pipeline outlives the next build"
        builds.append(config)
        ops = real_build(corpus, config)
        alive.append(weakref.ref(ops))
        return ops

    monkeypatch.setattr(newstag.harness, "build_pipeline", counting_build)
    return builds


def test_sweep_runs_every_training_fraction():
    corpus = generate_synthetic(SyntheticParams(hashtags=80, news=60, purity=1.0), seed=10)
    rows = sweep(corpus, rows_of(small_config(repetitions=2), "train_fraction", [0.2, 0.8]))
    assert [name for name, _ in rows] == ["0.2", "0.8"]
    assert [report.config["train_fraction"] for _, report in rows] == [0.2, 0.8]
    for _, report in rows:
        assert report.micro_f1_mean == 1.0


def test_sweep_builds_one_pipeline_for_a_training_fraction_sweep(monkeypatch):
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.8), seed=3)
    config = small_config(repetitions=2)
    fractions = [0.3, 0.5, 0.8]
    expected = [run_experiment(corpus, small_config(repetitions=2, train_fraction=f)) for f in fractions]
    builds = counting_builds(monkeypatch)
    rows = sweep(corpus, rows_of(config, "train_fraction", fractions))
    assert len(builds) == 1
    assert [name for name, _ in rows] == [repr(f) for f in fractions]
    assert [report.to_dict() for _, report in rows] == [report.to_dict() for report in expected]
    with pytest.raises(ValueError, match="train_fraction"):
        sweep(corpus, rows_of(config, "train_fraction", [0.5, 1.0]))
    assert len(builds) == 1  # every fraction is checked before anything is built


def test_sweep_rejects_an_empty_row_list():
    corpus = generate_synthetic(SyntheticParams(hashtags=40, news=30), seed=1)
    with pytest.raises(ValueError, match="at least one row"):
        sweep(corpus, [])


def test_sweep_all_row_matches_plain_run():
    params = SyntheticParams(hashtags=60, news=40, purity=0.8, post_window_hours=30.0)
    corpus = generate_synthetic(params, seed=12)
    config = small_config(repetitions=2)
    rows = sweep(corpus, rows_of(config, "time_horizon_hours", [12.0, 1000.0]) + [("all", config)])
    assert [name for name, _ in rows] == ["12.0", "1000.0", "all"]
    plain = run_experiment(corpus, config)
    all_row = rows[-1][1]
    assert all_row.macro_f1_mean == plain.macro_f1_mean
    assert all_row.micro_f1_mean == plain.micro_f1_mean
    # a horizon beyond every timestamp equals the unfiltered run
    assert rows[1][1].micro_f1_mean == plain.micro_f1_mean
    assert rows[1][1].macro_f1_mean == plain.macro_f1_mean


@pytest.mark.parametrize("horizons", ["12,24,-5", "-5,12,24", "12,0"])
def test_sweep_checks_every_horizon_before_building(tmp_path, monkeypatch, capsys, horizons):
    import newstag.analysis  # noqa: F401  (imported first, so it binds the real build_pipeline)
    from newstag.cli import main
    from newstag.corpus import write_corpus

    corpus = tmp_path / "corpus.jsonl"
    write_corpus(generate_synthetic(SyntheticParams(hashtags=40, news=30), seed=1), corpus)
    builds = []
    monkeypatch.setattr(newstag.harness, "build_pipeline", lambda *args: builds.append(args))
    config = small_config()
    rows = rows_of(config, "time_horizon_hours", [float(h) for h in horizons.split(",")]) + [("all", config)]
    with pytest.raises(ValueError, match="time_horizon_hours must be positive"):
        sweep(corpus_of([]), rows)
    out = tmp_path / "time.csv"
    assert main(["sweep-time", "--input", str(corpus), f"--horizons={horizons}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --horizons value ") and "time_horizon_hours must be positive" in err
    assert builds == []
    assert not out.exists() and not (tmp_path / "time.csv.config.json").exists()


def subcommand_rows(subcommand: str, config: ExperimentConfig) -> list[tuple[str, ExperimentConfig]]:
    """The rows ``sweep-volume``, ``sweep-time`` and ``ablate`` sweep by default."""
    if subcommand == "sweep-volume":
        return rows_of(config, "train_fraction", [0.2, 0.4, 0.6, 0.8])
    if subcommand == "sweep-time":
        return rows_of(config, "time_horizon_hours", [6.0, 12.0, 24.0]) + [("all", config)]
    return [(method, replace(config, method=method)) for method in METHODS]


@pytest.mark.parametrize("mode", [MODE_ITERATIVE, MODE_CLOSED_FORM])
@pytest.mark.parametrize("subcommand", ["sweep-volume", "sweep-time", "ablate"])
def test_every_sweep_row_equals_its_plain_run(mode, subcommand):
    params = SyntheticParams(hashtags=60, news=40, purity=0.8, post_window_hours=30.0)
    corpus = generate_synthetic(params, seed=12)
    rows = subcommand_rows(subcommand, small_config(repetitions=2, propagation=PropagationConfig(mode=mode)))
    got = sweep(corpus, rows)
    assert [name for name, _ in got] == [name for name, _ in rows]
    for (_, config), (_, report) in zip(rows, got):
        assert report == run_experiment(corpus, config)


@pytest.mark.parametrize("subcommand, horizons, expected_builds", [
    ("sweep-volume", None, 1),
    ("sweep-time", None, 4),  # three distinct horizons and "all"
    ("sweep-time", [24.0, 24.0], 2),
    ("sweep-time", [24.0, 36.0, 24.0], 4),  # only adjacent rows share a build
    # posts are within 30 h of publication: 30 and 36 h keep every post, as "all" does
    ("sweep-time", [30.0, 36.0], 1),
    ("sweep-time", [24.0, 36.0, 48.0], 2),
    ("ablate", None, 3),
])
def test_sweep_builds_once_per_run_of_adjacent_rows_with_equal_method_k1_and_horizon(
    monkeypatch, subcommand, horizons, expected_builds
):
    params = SyntheticParams(hashtags=60, news=40, purity=0.8, post_window_hours=30.0)
    corpus = generate_synthetic(params, seed=12)
    config = small_config(repetitions=2)
    rows = subcommand_rows(subcommand, config)
    if horizons is not None:
        rows = rows_of(config, "time_horizon_hours", horizons) + [("all", config)]
    builds = counting_builds(monkeypatch)
    sweep(corpus, rows)
    assert len(builds) == expected_builds


def test_default_sweep_time_builds_once_for_the_horizons_that_keep_every_post(tmp_path, monkeypatch):
    from newstag.cli import main
    from newstag.corpus import parse_corpus, write_corpus
    from newstag.reports import write_sweep_csv

    # posts within 48 h of publication: the 48 h, 60 h and "all" rows keep every post
    path = tmp_path / "corpus.jsonl"
    write_corpus(generate_synthetic(SyntheticParams(hashtags=60, news=40), seed=3), path)
    builds = counting_builds(monkeypatch)
    out = tmp_path / "time.csv"
    assert main(["sweep-time", "--input", str(path), "--out", str(out)]) == 0
    assert [config.time_horizon_hours for config in builds] == [12.0, 24.0, 36.0, 48.0]
    # the same bytes as one plain run per row
    corpus, config = parse_corpus(path), ExperimentConfig()
    rows = rows_of(config, "time_horizon_hours", [12.0, 24.0, 36.0, 48.0, 60.0]) + [("all", config)]
    write_sweep_csv([(name, run_experiment(corpus, row)) for name, row in rows], tmp_path / "plain.csv")
    assert out.read_bytes() == (tmp_path / "plain.csv").read_bytes()


@pytest.mark.parametrize("bad", [
    {"mu": 1.5}, {"method": "bogus"}, {"time_horizon_hours": -5.0}, {"repetitions": 0},
    {"propagation": PropagationConfig(max_iterations=0)},
])
@pytest.mark.parametrize("position", [0, 2, 3])
def test_sweep_checks_every_row_before_the_first_build(monkeypatch, bad, position):
    corpus = generate_synthetic(SyntheticParams(hashtags=40, news=30), seed=1)
    rows = subcommand_rows("sweep-volume", small_config())
    name, config = rows[position]
    rows[position] = (name, replace(config, **bad))
    builds = counting_builds(monkeypatch)
    with pytest.raises(ValueError):
        sweep(corpus, rows)
    assert builds == []
