import logging

import numpy as np
import pytest
import scipy.sparse as sp

import newstag.credibility
from newstag.credibility import (
    MAX_ITERATIONS,
    PowerSeries,
    PropagationConfig,
    PropagationError,
    csr_product,
    init_credibility,
    predict,
    propagate_closed_form,
    propagate_iterative,
    rescale_credibility,
    score_news,
    symmetric_normalize,
)
from newstag.graph import (
    NORMALIZED_DIRECT,
    RelationMatrix,
    all_relations_truncated,
    build_direct_graph,
    normalize,
)

from helpers import (
    CountingOperator,
    closed_form_oracle,
    cost_oracle,
    direct_matrix,
    fixed_point_oracle,
    random_graph_matrix,
    row_blocks,
    spectral_radius_dense,
    untimed_corpus,
)


def two_node_matrix(weight=1.0) -> RelationMatrix:
    return RelationMatrix(
        kind=NORMALIZED_DIRECT,
        values=sp.csr_matrix(np.array([[0.0, weight], [weight, 0.0]])),
        vocab=("a", "b"),
    )


def random_problem(seed, min_degree=0):
    rng = np.random.default_rng(seed)
    W = random_graph_matrix(rng, min_degree=min_degree)
    X, D = symmetric_normalize(W)
    c0 = rng.uniform(-1.0, 1.0, size=W.q)
    return W, X, D, c0


# --- init_credibility ---------------------------------------------------------

def test_init_per_post_weighted_average():
    # h in 2 posts of a true news and 1 post of a fake news -> 1/3
    corpus = untimed_corpus(
        [("t", 1, [["h"], ["h"]]), ("f", -1, [["h"]])]
    )
    c0 = init_credibility(corpus, (0, 1), per_post=True)
    assert c0[0] == pytest.approx(1 / 3, abs=1e-15)


def test_init_per_news_indicator_form():
    corpus = untimed_corpus(
        [("t", 1, [["h"], ["h"]]), ("f", -1, [["h"]])]
    )
    c0 = init_credibility(corpus, (0, 1), per_post=False)
    assert c0[0] == 0.0


def test_init_unseen_hashtag_defaults_to_zero():
    corpus = untimed_corpus(
        [("t", 1, [["a"]]), ("u", None, [["b"]])]
    )
    c0 = init_credibility(corpus, (0,), per_post=True)
    index = corpus.vocab_index
    assert c0[index["a"]] == 1.0
    assert c0[index["b"]] == 0.0


def test_init_values_always_in_unit_interval():
    rng = np.random.default_rng(4)
    spec = []
    for i in range(30):
        posts = [[f"h{int(rng.integers(12))}" for _ in range(3)] for _ in range(4)]
        spec.append((f"n{i}", 1 if rng.random() < 0.5 else -1, posts))
    corpus = untimed_corpus(spec)
    train = range(20)  # every news is labeled
    for per_post in (True, False):
        c0 = init_credibility(corpus, train, per_post=per_post)
        assert np.all(c0 >= -1.0) and np.all(c0 <= 1.0)


def test_init_rejects_unlabeled_train_id():
    corpus = untimed_corpus([("t", 1, [["a"]]), ("u", None, [["a"]])])
    with pytest.raises(ValueError, match="unlabeled"):
        init_credibility(corpus, (1,))  # u


# --- symmetric_normalize --------------------------------------------------------

def test_symmetric_normalize_two_node_any_weight():
    for w in (0.3, 1.0, 7.0):
        X, D = symmetric_normalize(two_node_matrix(w))
        assert np.allclose(X.toarray(), np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15)
        assert np.allclose(D, [w, w])


def test_symmetric_normalize_path_graph():
    corpus = untimed_corpus([("n1", 1, [["a", "b"], ["b", "c"]])])
    N = normalize(build_direct_graph(corpus))
    X, D = symmetric_normalize(N)
    assert np.allclose(D, [0.5, 1.0, 0.5])
    s = 1 / np.sqrt(2)
    assert np.allclose(X.toarray(), np.array([[0, s, 0], [s, 0, s], [0, s, 0]]), atol=1e-15)


def test_symmetric_normalize_isolated_rows_zero():
    W = RelationMatrix(
        kind=NORMALIZED_DIRECT,
        values=sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])),
        vocab=("a", "b", "iso"),
    )
    X, D = symmetric_normalize(W)
    assert D[2] == 0.0
    assert np.all(X.toarray()[2] == 0.0)
    assert np.all(X.toarray()[:, 2] == 0.0)


def test_symmetric_normalize_leaves_its_input_unchanged():
    rng = np.random.default_rng(4)
    for W in (random_graph_matrix(rng), all_relations_truncated(random_graph_matrix(rng), 10)):
        before = [a.copy() for a in (W.values.data, W.values.indices, W.values.indptr)]
        X, _ = symmetric_normalize(W)
        assert not np.shares_memory(X.data, W.values.data)
        for kept, now in zip(before, (W.values.data, W.values.indices, W.values.indptr)):
            assert kept.dtype == now.dtype and np.array_equal(kept, now)


def test_symmetric_normalize_matches_diagonal_scaling():
    for seed in range(5):
        W = random_graph_matrix(np.random.default_rng(seed))
        dense = W.values.toarray()
        X, D = symmetric_normalize(W)
        assert np.array_equal(W.values.toarray(), dense)  # W is left untouched
        assert np.allclose(D, dense.sum(axis=1), rtol=1e-15, atol=0)
        inv_sqrt = np.where(D > 0, 1.0 / np.sqrt(np.where(D > 0, D, 1.0)), 0.0)
        assert X.nnz == W.values.nnz
        assert np.allclose(X.toarray(), np.outer(inv_sqrt, inv_sqrt) * dense, rtol=1e-15, atol=0)


@pytest.mark.parametrize("block", [1, 3])
def test_symmetric_normalize_bytes_do_not_depend_on_row_blocks(monkeypatch, block):
    rng = np.random.default_rng(block)
    isolated = RelationMatrix(
        kind=NORMALIZED_DIRECT,
        values=sp.csr_matrix(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])),
        vocab=("iso", "a", "b"),
    )
    matrices = [isolated, random_graph_matrix(rng), all_relations_truncated(random_graph_matrix(rng), 4)]
    expected = [symmetric_normalize(W)[0].data.tobytes() for W in matrices]
    monkeypatch.setattr(newstag.credibility, "ROW_BLOCK_ENTRIES", block)
    assert [symmetric_normalize(W)[0].data.tobytes() for W in matrices] == expected


def test_isolated_node_anchors_at_one_minus_mu():
    W = RelationMatrix(
        kind=NORMALIZED_DIRECT,
        values=sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])),
        vocab=("a", "b", "iso"),
    )
    X, _ = symmetric_normalize(W)
    c0 = np.array([0.0, 0.0, 0.8])
    for mu in (0.2, 0.4, 0.7):
        c_hat = propagate_closed_form(X, c0, mu)
        assert c_hat[2] == pytest.approx((1 - mu) * 0.8, abs=1e-12)


# --- propagation ------------------------------------------------------------------

def test_two_node_fixed_point_is_three_sevenths():
    X, _ = symmetric_normalize(two_node_matrix())
    c0 = np.array([1.0, -1.0])
    closed = propagate_closed_form(X, c0, mu=0.4)
    assert np.allclose(closed, [3 / 7, -3 / 7], atol=1e-12)
    iterated, _ = propagate_iterative(
        X, c0, 0.4, PropagationConfig(max_iterations=10000, tolerance=1e-13)
    )
    assert np.allclose(iterated, [3 / 7, -3 / 7], atol=1e-9)


def test_vanishing_mu_recovers_c0():
    _, X, _, c0 = random_problem(1)
    result, _ = propagate_iterative(
        X, c0, 1e-9, PropagationConfig(max_iterations=100, tolerance=1e-15)
    )
    assert np.max(np.abs(result - c0)) <= 1e-8


def test_fixed_iteration_count_protocol():
    _, X, _, c0 = random_problem(2)
    _, residuals = propagate_iterative(
        X, c0, 0.4, PropagationConfig(max_iterations=5, tolerance=0.0)
    )
    assert len(residuals) == 5


def test_iteration_cap_above_tolerance_warns(caplog):
    _, X, _, c0 = random_problem(2)
    with caplog.at_level(logging.WARNING, logger="newstag.credibility"):
        _, residuals = propagate_iterative(
            X, c0, 0.4, PropagationConfig(max_iterations=3, tolerance=1e-12)
        )
    assert len(residuals) == 3
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    message = record.getMessage()
    assert "mu=0.4" in message
    assert "3 iterations" in message
    assert f"{residuals[-1]:.3e}" in message


@pytest.mark.parametrize("max_iterations, tolerance", [(5, 0.0), (1000, 1e-9)])
def test_fixed_steps_or_convergence_do_not_warn(caplog, max_iterations, tolerance):
    _, X, _, c0 = random_problem(2)
    with caplog.at_level(logging.DEBUG, logger="newstag.credibility"):
        _, residuals = propagate_iterative(
            X, c0, 0.4, PropagationConfig(max_iterations=max_iterations, tolerance=tolerance)
        )
    assert len(residuals) == 5 if tolerance == 0.0 else residuals[-1] < tolerance
    assert caplog.records == []


def test_iterative_matches_closed_form():
    for seed in range(10):
        _, X, _, c0 = random_problem(seed)
        mu = [0.1, 0.3, 0.5, 0.7, 0.9][seed % 5]
        closed = propagate_closed_form(X, c0, mu)
        iterated, _ = propagate_iterative(
            X, c0, mu, PropagationConfig(max_iterations=10000, tolerance=1e-12)
        )
        assert np.max(np.abs(closed - iterated)) <= 1e-8


def test_fixed_point_residual():
    for seed in range(5):
        _, X, _, c0 = random_problem(seed)
        mu = 0.4
        c_hat = propagate_closed_form(X, c0, mu)
        residual = c_hat - (mu * (X @ c_hat) + (1 - mu) * c0)
        assert np.max(np.abs(residual)) <= 1e-8


def test_propagation_is_antisymmetric_in_c0():
    for seed in range(5):
        _, X, _, c0 = random_problem(seed)
        neg = -c0
        for mode in ("closed", "iterative"):
            if mode == "closed":
                plus = propagate_closed_form(X, c0, 0.4)
                minus = propagate_closed_form(X, neg, 0.4)
            else:
                config = PropagationConfig(max_iterations=50, tolerance=0.0)
                plus = propagate_iterative(X, c0, 0.4, config)[0]
                minus = propagate_iterative(X, neg, 0.4, config)[0]
            assert np.max(np.abs(plus + minus)) <= 1e-12


def test_propagation_norm_bound():
    for seed in range(5):
        _, X, _, c0 = random_problem(seed)
        c_hat = propagate_closed_form(X, c0, 0.6)
        assert np.linalg.norm(c_hat) <= np.linalg.norm(c0) + 1e-12


def test_spectral_radius_of_x_at_most_one():
    for seed in range(8):
        _, X, _, _ = random_problem(seed)
        assert spectral_radius_dense(X.toarray()) <= 1.0 + 1e-10


def test_contraction_rate_toward_solution():
    for seed in range(5):
        _, X, _, c0 = random_problem(seed)
        mu = [0.2, 0.4, 0.6, 0.8, 0.9][seed]
        c_hat = propagate_closed_form(X, c0, mu)
        c = c0.copy()
        err_prev = np.linalg.norm(c - c_hat)
        for t in range(1, 60):
            c = mu * (X @ c) + (1 - mu) * c0
            err = np.linalg.norm(c - c_hat)
            if err_prev > 1e-13:
                assert err <= (mu + 1e-6) * err_prev
            err_prev = err


def cycle_relation(q: int) -> RelationMatrix:
    """Weight-regular cycle: every row sum is the maximum, so rho(N) = 1."""
    k = np.arange(q)
    W = np.zeros((q, q), dtype=np.int64)
    W[k, (k + 1) % q] = W[(k + 1) % q, k] = 3
    return normalize(direct_matrix(W))


def test_dense_and_csr_operators_propagate_alike():
    problems = [(X, c0) for _, X, _, c0 in map(random_problem, range(8))]
    rng = np.random.default_rng(7)
    for N in (cycle_relation(9), cycle_relation(14)):
        assert spectral_radius_dense(N.values.toarray()) == pytest.approx(1.0, abs=1e-12)
        for W in (N, all_relations_truncated(N, 10)):
            X, _ = symmetric_normalize(W)
            c0 = rng.uniform(-1.0, 1.0, size=W.q)
            problems.append((X, c0))
    configs = (
        (0.4, PropagationConfig()),
        (0.9, PropagationConfig(max_iterations=10000, tolerance=1e-12)),
        (0.5, PropagationConfig(max_iterations=5, tolerance=0.0)),
    )
    for X, c0 in problems:
        dense = X.toarray()
        for mu, config in configs:
            sparse_c, sparse_res = propagate_iterative(X, c0, mu, config)
            dense_c, dense_res = propagate_iterative(dense, c0, mu, config)
            assert len(dense_res) == len(sparse_res)
            assert np.max(np.abs(dense_c - sparse_c)) <= 1e-12
            assert np.max(np.abs(np.subtract(dense_res, sparse_res))) <= 1e-12
        closed_sparse = propagate_closed_form(X, c0, 0.4)
        assert np.max(np.abs(propagate_closed_form(dense, c0, 0.4) - closed_sparse)) <= 1e-12


SERIES_GRID = (0.01, 0.4, 0.5, 0.9, 0.99)


def series_problems() -> list[tuple[object, np.ndarray]]:
    """(X, c0) pairs, each operator CSR and dense: integer and real weights,
    isolated hashtags, edgeless (X = 0), q = 0, the equal-weight cycle
    (rho = 1) and a bipartite component (eigenvalue -1)."""
    rng = np.random.default_rng(17)
    real = rng.uniform(0.1, 5.0, size=(12, 12)) * (rng.random((12, 12)) < 0.4)
    bipartite = np.zeros((10, 10))
    bipartite[0, 1:4] = [2.0, 1.0, 3.0]  # star on 0..3
    bipartite[5, 6] = bipartite[6, 7] = bipartite[5, 7] = 1.0  # triangle; 4, 8 and 9 isolated
    relations = [
        random_graph_matrix(rng),
        random_graph_matrix(rng, q_range=(30, 40), density=0.03),
        normalize(direct_matrix(np.triu(real, 1) + np.triu(real, 1).T)),
        normalize(direct_matrix(bipartite + bipartite.T)),
        cycle_relation(9),
        RelationMatrix(kind=NORMALIZED_DIRECT, values=sp.csr_matrix((5, 5)), vocab=tuple("abcde")),
        RelationMatrix(kind=NORMALIZED_DIRECT, values=sp.csr_matrix((0, 0)), vocab=()),
    ]
    problems = []
    for W in relations:
        X, _ = symmetric_normalize(W)
        c0 = rng.uniform(-1.0, 1.0, size=W.q)
        problems += [(X, c0), (X.toarray(), c0)]
    return problems


def test_series_problems_cover_unit_and_negative_unit_eigenvalues():
    eigenvalues = np.concatenate([np.linalg.eigvalsh(X) for X, _ in series_problems() if isinstance(X, np.ndarray)])
    assert np.isclose(eigenvalues, 1.0).any() and np.isclose(eigenvalues, -1.0).any()


@pytest.mark.parametrize(
    "config",
    [PropagationConfig(), PropagationConfig(max_iterations=7, tolerance=0.0), PropagationConfig(max_iterations=5000, tolerance=1e-13)],
    ids=["default", "fixed-steps", "tight"],
)
def test_shared_series_equals_one_mu_series_bitwise(config):
    for X, c0 in series_problems():
        series = PowerSeries(X, c0, SERIES_GRID, config)
        for mu in (0.9, 0.01, 0.99, 0.5, 0.4):  # any read order
            shared_c, shared_res = propagate_iterative(X, c0, mu, config, series=series)
            alone_c, alone_res = propagate_iterative(X, c0, mu, config)
            assert shared_c.tobytes() == alone_c.tobytes()
            assert shared_res == alone_res


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_csr_product_is_bitwise_a_times_b(monkeypatch, workers):
    # a vector, a one-column panel and multi-column panels (C and F order),
    # each product cut into ``workers`` row blocks
    rng = np.random.default_rng(workers)
    matrices = [X for X, _ in series_problems() if sp.issparse(X)]
    matrices.append(sp.random(50, 40, density=0.1, format="csr", random_state=3))  # rectangular
    expected = []
    for A in matrices:
        for B in (rng.uniform(-1, 1, A.shape[1]), rng.uniform(-1, 1, (A.shape[1], 1)), rng.uniform(-1, 1, (A.shape[1], 4))):
            for operand in (B, np.asfortranarray(B)):
                expected.append((A, operand, A @ operand))
    row_blocks(monkeypatch, workers)
    for A, B, product in expected:
        result = csr_product(A, B)
        assert result.shape == product.shape and result.flags.c_contiguous
        assert result.tobytes() == product.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("mus", [(0.4,), SERIES_GRID], ids=["one-mu", "grid"])
def test_row_block_series_equals_inline_series_bitwise(monkeypatch, mus, workers):
    config = PropagationConfig(max_iterations=500, tolerance=1e-12)
    problems = [(X, panel) for X, c0 in series_problems() if sp.issparse(X) for panel in ([c0], [c0, -0.5 * c0, c0**2])]
    expected = []
    for X, panel in problems:  # below the default cut-off, every product runs inline
        inline = PowerSeries(X, panel, mus, config)
        expected.append([propagate_iterative(X, column, mu, config, series=inline) for mu in mus for column in panel])
    row_blocks(monkeypatch, workers)  # every CSR product in row blocks
    for (X, panel), results in zip(problems, expected):
        blocked = PowerSeries(X, panel, mus, config)
        for (c, residuals), (expected_c, expected_residuals) in zip(
            (propagate_iterative(X, column, mu, config, series=blocked) for mu in mus for column in panel), results
        ):
            assert c.tobytes() == expected_c.tobytes()
            assert residuals == expected_residuals


@pytest.mark.parametrize("mu", SERIES_GRID)
def test_series_matches_plain_recurrence_oracle(mu):
    for X, c0 in series_problems():
        for config in (PropagationConfig(max_iterations=5000, tolerance=1e-9), PropagationConfig(max_iterations=40, tolerance=0.0)):
            c, residuals = propagate_iterative(X, c0, mu, config)
            oracle_c, oracle_res = fixed_point_oracle(X, c0, mu, config.max_iterations, config.tolerance)
            assert len(residuals) == len(oracle_res)
            if config.tolerance == 0.0:
                assert len(residuals) == config.max_iterations
            else:
                assert residuals[-1] < config.tolerance
            assert np.max(np.abs(c - oracle_c), initial=0.0) <= 1e-12
            assert np.max(np.abs(np.subtract(residuals, oracle_res))) <= 1e-12


def test_series_takes_the_products_of_its_slowest_mu():
    # one product per step for the whole panel, as many steps as its
    # slowest (column, mu) takes; columns scaled apart stop at different steps
    config = PropagationConfig(max_iterations=5000, tolerance=1e-9)
    for X, c0 in series_problems():
        panel = [c0, 1e-6 * c0, 1e3 * c0]
        counting = CountingOperator(X)
        series = PowerSeries(counting, panel, SERIES_GRID, config)
        counts = [
            len(propagate_iterative(counting, column, mu, config, series=series)[1])
            for mu in SERIES_GRID
            for column in panel
        ]
        assert counting.products == max(counts)
        assert counting.columns == len(panel) * max(counts)


def test_series_residual_keeps_shrinking_below_float_resolution(caplog):
    # Each residual is mu^k max|X^k c0 - X^(k-1) c0| exactly, so it decays
    # geometrically where the change of the stored iterate would level off
    # at rounding; a tolerance far below 1e-16 * max|c| still stops it.
    config = PropagationConfig(max_iterations=10_000, tolerance=1e-200)
    for X, c0 in series_problems()[:10]:
        with caplog.at_level(logging.WARNING, logger="newstag.credibility"):
            _, residuals = propagate_iterative(X, c0, 0.5, config)
        assert len(residuals) < config.max_iterations
        bound = 2.0 * np.linalg.norm(c0) * 0.5 ** np.arange(1, len(residuals) + 1)
        assert np.all(np.array(residuals) <= bound * (1.0 + 1e-12))
    assert caplog.records == []


def test_series_rejects_a_mismatched_call():
    _, X, _, c0 = random_problem(3)
    config = PropagationConfig()
    series = PowerSeries(X, c0, (0.2, 0.4), config)
    with pytest.raises(ValueError, match="another operator"):
        propagate_iterative(X, c0.copy(), 0.4, config, series=series)
    with pytest.raises(ValueError, match="another operator"):
        propagate_iterative(X, c0, 0.4, PropagationConfig(max_iterations=5), series=series)
    with pytest.raises(ValueError, match="not pending"):
        propagate_iterative(X, c0, 0.3, config, series=series)
    propagate_iterative(X, c0, 0.4, config, series=series)
    with pytest.raises(ValueError, match="not pending"):
        propagate_iterative(X, c0, 0.4, config, series=series)
    with pytest.raises(ValueError, match="mu"):
        PowerSeries(X, c0, (0.2, 1.0), config)


@pytest.mark.parametrize("mu", [0.01, 0.1, 0.5, 0.9, 0.99])
def test_closed_form_matches_dense_solve_oracle(mu):
    rng = np.random.default_rng(int(mu * 1000))
    operators = [X for _, X, _, _ in map(random_problem, range(8))]
    for N in (cycle_relation(9), cycle_relation(14)):
        for W in (N, all_relations_truncated(N, 10)):
            X, _ = symmetric_normalize(W)
            assert spectral_radius_dense(X.toarray()) == pytest.approx(1.0, abs=1e-12)
            operators.append(X)
    operators.append(sp.csr_matrix((0, 0)))
    for X in operators:
        q = X.shape[0]
        for values in (rng.uniform(-1.0, 1.0, size=q), np.zeros(q)):
            oracle = closed_form_oracle(X, values, mu)
            for stored in (X, X.toarray()):
                got = propagate_closed_form(stored, values, mu)
                assert got.shape == (q,)
                assert np.max(np.abs(got - oracle), initial=0.0) <= 1e-12


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
def test_closed_form_singular_system_raises(dense):
    # mu * X has eigenvalue 1, so I - mu*X is singular
    X = sp.csr_matrix(np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    c0 = np.array([1.0, 0.5, -0.2])
    with pytest.raises(PropagationError):
        propagate_closed_form(X.toarray() if dense else X, c0, 0.5)


def test_propagation_config_validation():
    _, X, _, c0 = random_problem(0)
    with pytest.raises(ValueError, match="mu"):
        propagate_iterative(X, c0, 0.0, PropagationConfig())
    with pytest.raises(ValueError, match="mu"):
        propagate_iterative(X, c0, 1.0, PropagationConfig())
    with pytest.raises(ValueError, match="max_iterations"):
        PropagationConfig(max_iterations=0).validate()
    PropagationConfig(max_iterations=MAX_ITERATIONS).validate()
    with pytest.raises(ValueError, match=f"max_iterations must be >= 1 and at most {MAX_ITERATIONS}"):
        PropagationConfig(max_iterations=MAX_ITERATIONS + 1).validate()
    with pytest.raises(ValueError, match="tolerance"):
        PropagationConfig(tolerance=-1e-9).validate()
    with pytest.raises(ValueError, match="mode"):
        PropagationConfig(mode="magic").validate()


# --- cost function -------------------------------------------------------------

def test_cost_zero_on_edgeless_graph_at_anchor():
    W = RelationMatrix(
        kind=NORMALIZED_DIRECT, values=sp.csr_matrix((3, 3)), vocab=("a", "b", "c")
    )
    _, D = symmetric_normalize(W)
    c = np.array([0.3, -0.2, 0.9])
    assert cost_oracle(W.values.toarray(), D, c, c, 0.4) == 0.0


def test_two_node_solution_minimizes_cost():
    W = two_node_matrix()
    X, D = symmetric_normalize(W)
    w = W.values.toarray()
    c0 = np.array([1.0, -1.0])
    c_hat = np.array([3 / 7, -3 / 7])
    base = cost_oracle(w, D, c_hat, c0, 0.4)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        delta = rng.uniform(-0.1, 0.1, size=2)
        assert cost_oracle(w, D, c_hat + delta, c0, 0.4) >= base


def test_minimizer_on_random_connected_instances():
    for seed in range(5):
        W, X, D, c0 = random_problem(seed, min_degree=1)
        w = W.values.toarray()
        mu = 0.4
        c_hat = propagate_closed_form(X, c0, mu)
        base = cost_oracle(w, D, c_hat, c0, mu)
        rng = np.random.default_rng(seed + 500)
        for _ in range(200):
            delta = rng.uniform(-0.1, 0.1, size=W.q)
            assert cost_oracle(w, D, c_hat + delta, c0, mu) >= base


def test_constant_vector_on_regular_graph_has_zero_smoothness():
    # 4-cycle: every degree equals 2, so a constant c has zero smoothness
    corpus = untimed_corpus(
        [("n1", 1, [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]])]
    )
    W = normalize(build_direct_graph(corpus))
    _, D = symmetric_normalize(W)
    c = np.full(4, 0.7)
    assert cost_oracle(W.values.toarray(), D, c, c, 0.4) == pytest.approx(0.0, abs=1e-15)


# --- prediction -------------------------------------------------------------------

def test_predict_positive_sum():
    corpus = untimed_corpus([("n1", None, [["h1", "h2"]])])
    c_hat = np.array([0.5, 0.3])
    scores = score_news(corpus, c_hat)
    assert scores[0] == pytest.approx(0.8)
    assert predict(corpus, c_hat).tolist() == [1]


def test_predict_zero_score_is_fake():
    corpus = untimed_corpus([("n1", None, [])])
    c_hat = np.zeros(0)
    assert predict(corpus, c_hat).tolist() == [-1]


def test_predict_per_post_multiplicity():
    corpus = untimed_corpus([("n1", None, [["h"], ["h"], ["h"]])])
    c_hat = np.array([0.2])
    assert score_news(corpus, c_hat, per_post=True)[0] == pytest.approx(0.6)
    assert score_news(corpus, c_hat, per_post=False)[0] == pytest.approx(0.2)
    assert predict(corpus, c_hat, per_post=True)[0] == 1
    assert predict(corpus, c_hat, per_post=False)[0] == 1


def test_predict_invariant_under_positive_scaling():
    rng = np.random.default_rng(9)
    spec = [
        (f"n{i}", None, [[f"h{int(rng.integers(8))}" for _ in range(3)] for _ in range(3)])
        for i in range(12)
    ]
    corpus = untimed_corpus(spec)
    values = rng.uniform(-1, 1, size=len(corpus.vocabulary))
    base = predict(corpus, values)
    for alpha in (0.5, 2.0, 1024.0, 3.0, 0.1):
        scaled = values * alpha
        assert np.array_equal(predict(corpus, scaled), base)


def test_predict_length_mismatch_rejected():
    corpus = untimed_corpus([("n1", None, [["a", "b"]])])
    with pytest.raises(ValueError, match="vocabulary"):
        predict(corpus, np.zeros(5))


# --- rescale -----------------------------------------------------------------------

def test_rescale_maps_to_unit_interval():
    c = np.array([0.4286, -0.4286])
    out = rescale_credibility(c)
    assert np.allclose(out, [1.0, -1.0])


def test_rescale_all_zero_warns_and_passes_through(caplog):
    c = np.zeros(3)
    with caplog.at_level("WARNING"):
        out = rescale_credibility(c)
    assert np.all(out == 0.0)
    assert "all-zero" in caplog.text


def test_rescale_never_flips_predictions():
    rng = np.random.default_rng(13)
    spec = [
        (f"n{i}", None, [[f"h{int(rng.integers(6))}" for _ in range(2)] for _ in range(2)])
        for i in range(10)
    ]
    corpus = untimed_corpus(spec)
    c = rng.uniform(-0.5, 0.5, size=len(corpus.vocabulary))
    assert np.array_equal(predict(corpus, rescale_credibility(c)), predict(corpus, c))
