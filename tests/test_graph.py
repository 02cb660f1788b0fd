import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from newstag.graph import (
    EXACT_MAX_Q,
    GraphError,
    HashtagGraph,
    MAX_K1,
    NORMALIZED_DIRECT,
    RelationMatrix,
    TRUNCATED_MAX_Q,
    SeriesDivergentError,
    all_relations_exact,
    all_relations_truncated,
    build_direct_graph,
    estimate_spectral_radius,
    export_graph,
    load_matrix,
    normalize,
    save_matrix,
)

from helpers import (
    corpus_of,
    dense_power_sum,
    pair_count_oracle,
    random_contractive_n,
    random_graph_matrix,
    spectral_radius_dense,
    untimed_corpus,
)


def path_graph_n() -> RelationMatrix:
    # a-b-c path: N = [[0,.5,0],[.5,0,.5],[0,.5,0]]
    corpus = untimed_corpus([("n1", 1, [["a", "b"], ["b", "c"]])])
    return normalize(build_direct_graph(corpus))


# --- build_direct_graph ------------------------------------------------------

def test_weighted_counts_match_pair_oracle():
    corpus = untimed_corpus([("n1", 1, [["a", "b", "c"], ["b", "c"]])])
    graph = build_direct_graph(corpus, weighted=True)
    index = {h: k for k, h in enumerate(graph.vocab)}
    dense = graph.full().toarray()
    assert dense[index["a"], index["b"]] == 1
    assert dense[index["a"], index["c"]] == 1
    assert dense[index["b"], index["c"]] == 2
    oracle = pair_count_oracle(corpus)
    for (ha, hb), count in oracle.items():
        assert dense[index[ha], index[hb]] == count
    assert dense.sum() == 2 * sum(oracle.values())


def test_unweighted_is_indicator():
    corpus = untimed_corpus([("n1", 1, [["a", "b", "c"], ["b", "c"]])])
    dense = build_direct_graph(corpus, weighted=False).full().toarray()
    index = {h: k for k, h in enumerate(corpus.vocabulary)}
    assert dense[index["b"], index["c"]] == 1
    assert dense.max() == 1


def test_single_hashtag_posts_make_edgeless_graph():
    corpus = untimed_corpus([("n1", 1, [["a"], ["b"], ["c"]])])
    graph = build_direct_graph(corpus)
    assert graph.q == 3
    assert graph.n_edges == 0


def test_same_pair_in_several_posts_of_one_news_counts_per_post():
    corpus = untimed_corpus([("n1", 1, [["a", "b"], ["a", "b"], ["a", "b"]])])
    dense = build_direct_graph(corpus).full().toarray()
    assert dense[0, 1] == 3


def test_zero_diagonal_and_symmetry():
    rng = np.random.default_rng(0)
    corpus = untimed_corpus(
        [
            (f"n{i}", 1, [[f"h{rng.integers(10)}" for _ in range(4)] for _ in range(3)])
            for i in range(10)
        ]
    )
    dense = build_direct_graph(corpus).full().toarray()
    assert np.all(np.diag(dense) == 0)
    assert np.array_equal(dense, dense.T)


def test_empty_corpus_rejected():
    with pytest.raises(GraphError):
        build_direct_graph(corpus_of([]))


# --- normalize ---------------------------------------------------------------

def test_normalize_path_graph():
    N = path_graph_n()
    expected = np.array([[0, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0]])
    assert np.array_equal(N.values.toarray(), expected)
    assert N.kind == NORMALIZED_DIRECT


def test_normalize_max_row_sum_is_one():
    for seed in range(5):
        N = random_graph_matrix(np.random.default_rng(seed))
        row_sums = np.asarray(N.values.sum(axis=1)).ravel()
        assert abs(row_sums.max() - 1.0) <= 1e-12


def test_normalize_scale_invariance_exact():
    base = [("n1", 1, [["a", "b", "c"], ["b", "c"]]), ("n2", -1, [["c", "d"]])]
    for alpha in (2, 3, 7):
        scaled = [
            (news_id, label, [list(p) for p in posts for _ in range(alpha)])
            for news_id, label, posts in base
        ]
        n1 = normalize(build_direct_graph(untimed_corpus(base)))
        n2 = normalize(build_direct_graph(untimed_corpus(scaled)))
        assert np.array_equal(n1.values.toarray(), n2.values.toarray())


def test_normalize_single_edge():
    corpus = untimed_corpus([("n1", 1, [["a", "b"]] * 7)])
    N = normalize(build_direct_graph(corpus))
    assert np.array_equal(N.values.toarray(), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_normalize_edgeless_is_all_zero():
    corpus = untimed_corpus([("n1", 1, [["a"], ["b"]])])
    N = normalize(build_direct_graph(corpus))
    assert N.kind == NORMALIZED_DIRECT and N.vocab == ("a", "b")
    assert N.values.shape == (2, 2) and N.values.nnz == 0


# --- truncated closure ---------------------------------------------------------

def test_truncated_k1_equals_n():
    N = path_graph_n()
    W = all_relations_truncated(N, k1=1)
    assert np.array_equal(W.values.toarray(), N.values.toarray())
    assert W.kind == "all_relations_truncated"
    assert W.k1 == 1


def test_truncated_rejects_k1_outside_its_range():
    N = path_graph_n()
    for k1 in (0, MAX_K1 + 1):
        with pytest.raises(GraphError, match="k1"):
            all_relations_truncated(N, k1=k1)


def test_truncated_k2_path_graph_matches_dense_oracle():
    N = path_graph_n()
    W = all_relations_truncated(N, k1=2)
    oracle = dense_power_sum(N.values.toarray(), 2)
    expected = np.array([[0.25, 0.5, 0.25], [0.5, 0.5, 0.5], [0.25, 0.5, 0.25]])
    assert np.allclose(oracle, expected, atol=1e-15)
    assert np.allclose(W.values.toarray(), expected, atol=1e-15)


def test_truncated_creates_indirect_entry():
    N = path_graph_n()
    index = {h: k for k, h in enumerate(N.vocab)}
    a, c = index["a"], index["c"]
    assert N.values.toarray()[a, c] == 0.0
    W = all_relations_truncated(N, k1=2)
    assert W.values.toarray()[a, c] == pytest.approx(0.25)


def test_truncated_monotone_accumulation_exact():
    for seed in range(4):
        N = random_graph_matrix(np.random.default_rng(seed))
        prev = all_relations_truncated(N, k1=3).values.toarray()
        for k1 in (4, 5, 8):
            cur = all_relations_truncated(N, k1=k1).values.toarray()
            assert np.all(cur >= prev)
            prev = cur


def test_truncated_matches_dense_oracle_on_random_graphs():
    for seed in range(8):
        N = random_graph_matrix(np.random.default_rng(seed))
        for k1 in (1, 3, 6):
            W = all_relations_truncated(N, k1=k1)
            oracle = dense_power_sum(N.values.toarray(), k1)
            assert np.max(np.abs(W.values.toarray() - oracle)) < 1e-12


def test_truncated_symmetry_preserved():
    for seed in range(4):
        N = random_graph_matrix(np.random.default_rng(seed))
        dense = all_relations_truncated(N, k1=10).values.toarray()
        assert np.max(np.abs(dense - dense.T)) <= 1e-12


def test_truncated_drop_tolerance_prunes():
    N = path_graph_n()
    full = all_relations_truncated(N, k1=6)
    pruned = all_relations_truncated(N, k1=6, drop_tolerance=0.3)
    assert pruned.values.nnz < full.values.nnz
    assert np.all(np.abs(pruned.values.data) >= 0.3)


def test_truncated_trace_shape_and_tolerance_mode():
    N = path_graph_n()
    trace = all_relations_truncated(N, k1=7).trace
    assert len(trace) == 7
    assert trace[0] == 1.0
    short_trace = all_relations_truncated(N, k1=50, rel_tol=1e-3).trace
    assert len(short_trace) < 50
    assert short_trace[-1] < 1e-3


def closure_graph(rng, shape: str) -> RelationMatrix:
    """Normalized N over a random graph of the given shape.

    ``disconnected``: sparse random weights with isolated hashtags;
    ``blocks``: block-diagonal components under a random relabelling;
    ``regular``: a weight-regular cycle whose row sums equal the
    maximum (so rho(N) = 1) beside a lighter random component.
    """
    q = int(rng.integers(12, 40))
    dense = np.zeros((q, q), dtype=np.int64)
    if shape == "disconnected":
        for k in range(q):
            for l in range(k + 1, q):
                if rng.random() < 0.06:
                    dense[k, l] = int(rng.integers(1, 10))
    elif shape == "blocks":
        cuts = np.sort(rng.choice(np.arange(2, q - 1), size=int(rng.integers(1, 4)), replace=False))
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, q]):
            for k in range(lo, hi):
                for l in range(k + 1, hi):
                    if rng.random() < 0.5:
                        dense[k, l] = int(rng.integers(1, 10))
    else:
        m = int(rng.integers(3, q - 3))
        weight = q  # above any row sum of the unit-weight rest: the cycle rows hold the maximum
        for k in range(m):
            dense[min(k, (k + 1) % m), max(k, (k + 1) % m)] = weight
        for k in range(m, q):
            for l in range(k + 1, q):
                if rng.random() < 0.2:
                    dense[k, l] = 1
    dense[0, 1] = max(dense[0, 1], 1)  # never edgeless
    perm = rng.permutation(q)
    full = (dense + dense.T)[np.ix_(perm, perm)]
    upper = sp.csr_matrix(np.triu(full, 1))
    return normalize(HashtagGraph(vocab=tuple(f"h{k}" for k in range(q)), upper=upper))


def pruned_power_sum(n_dense: np.ndarray, k1: int, drop_tolerance: float) -> np.ndarray:
    """Dense closure oracle that prunes the running sum after each added term."""
    power = n_dense.copy()
    total = n_dense.copy()
    total[np.abs(total) < drop_tolerance] = 0.0
    for _ in range(2, k1 + 1):
        power = power @ n_dense
        total = total + power
        total[np.abs(total) < drop_tolerance] = 0.0
    return total


@pytest.mark.parametrize("shape", ["disconnected", "blocks", "regular"])
@pytest.mark.parametrize("k1", [1, 2, 6, 10])
def test_truncated_closure_contract_on_random_graphs(shape, k1):
    for seed in range(6):
        N = closure_graph(np.random.default_rng((seed, k1)), shape)
        n = N.values.toarray()
        if shape == "regular":
            assert spectral_radius_dense(n) == pytest.approx(1.0, abs=1e-12)
        W = all_relations_truncated(N, k1)
        assert W.kind == "all_relations_truncated"
        assert W.k1 == k1
        assert W.values.has_canonical_format
        # stored entries are exactly the pairs joined by a walk of 1..k1 steps
        hop = reach = n > 0
        for _ in range(2, k1 + 1):
            hop = (hop.astype(np.int64) @ (n > 0).astype(np.int64)) > 0
            reach = reach | hop
        assert W.values.nnz == np.count_nonzero(reach)
        assert np.max(np.abs(W.values.toarray() - dense_power_sum(n, k1))) <= 1e-12
        partial = [dense_power_sum(n, k) for k in range(1, k1 + 1)]
        expected_trace = [1.0] + [
            np.linalg.norm(b - a) / np.linalg.norm(b) for a, b in zip(partial, partial[1:])
        ]
        assert np.allclose(W.trace, expected_trace, rtol=0, atol=1e-12)

        pruned = all_relations_truncated(N, k1, drop_tolerance=0.0137)
        oracle = pruned_power_sum(n, k1, 0.0137)
        assert pruned.values.nnz == np.count_nonzero(oracle)
        assert np.max(np.abs(pruned.values.toarray() - oracle)) <= 1e-12

        early = all_relations_truncated(N, k1, rel_tol=0.2)
        stop = next((k for k, r in enumerate(expected_trace, start=1) if r < 0.2), k1)
        assert early.k1 == len(early.trace) == stop
        assert np.max(np.abs(early.values.toarray() - dense_power_sum(n, stop))) <= 1e-12


def test_truncated_validates_inputs():
    N = path_graph_n()
    with pytest.raises(GraphError):
        all_relations_truncated(N, k1=0)
    W = all_relations_truncated(N, k1=2)
    with pytest.raises(GraphError):
        all_relations_truncated(W, k1=2)


# --- exact closure -------------------------------------------------------------

def test_exact_two_node_half_weight():
    # N = [[0,.5],[.5,0]] has radius 0.5; N(I-N)^{-1} = [[1/3,2/3],[2/3,1/3]]
    N = RelationMatrix(
        kind=NORMALIZED_DIRECT,
        values=sp.csr_matrix(np.array([[0.0, 0.5], [0.5, 0.0]])),
        vocab=("a", "b"),
    )
    W = all_relations_exact(N)
    assert np.allclose(W.values.toarray(), np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]]), atol=1e-12)


def test_exact_single_edge_divergent():
    corpus = untimed_corpus([("n1", 1, [["a", "b"]])])
    N = normalize(build_direct_graph(corpus))  # [[0,1],[1,0]], radius 1
    with pytest.raises(SeriesDivergentError, match="divergent"):
        all_relations_exact(N)


def test_exact_refuses_vocabulary_above_cap():
    q = EXACT_MAX_Q + 1
    N = RelationMatrix(
        kind=NORMALIZED_DIRECT,
        values=sp.csr_matrix((q, q)),  # no stored entries: nothing q x q is allocated
        vocab=tuple(f"h{k}" for k in range(q)),
    )
    with pytest.raises(GraphError, match=f"q={q} .* {EXACT_MAX_Q}"):
        all_relations_exact(N)


def test_truncated_refuses_vocabulary_above_cap():
    q = TRUNCATED_MAX_Q + 1
    N = RelationMatrix(
        kind=NORMALIZED_DIRECT,
        values=sp.csr_matrix((q, q)),  # no stored entries: nothing q x q is allocated
        vocab=tuple(f"h{k}" for k in range(q)),
    )
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match=f"q={q} .* {TRUNCATED_MAX_Q}"):
            all_relations_truncated(N, k1=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < q * q  # refused before even a q x q boolean mask


def test_exact_matches_truncated_on_contractive_instances():
    for seed in range(6):
        N = random_contractive_n(seed)
        exact = all_relations_exact(N).values.toarray()
        truncated = all_relations_truncated(N, k1=40).values.toarray()
        assert np.max(np.abs(exact - truncated)) <= 1e-8
        oracle = dense_power_sum(N.values.toarray(), 40)
        assert np.max(np.abs(oracle - truncated)) <= 1e-12


def test_spectral_radius_estimate_close_to_dense_oracle():
    for seed in range(6):
        N = random_graph_matrix(np.random.default_rng(seed))
        est = estimate_spectral_radius(N.values)
        oracle = spectral_radius_dense(N.values.toarray())
        assert est <= oracle + 1e-9
        assert est >= oracle - 1e-6


# --- permutation equivariance ----------------------------------------------------

def test_permutation_equivariance():
    spec = [("n1", 1, [["a", "b", "c"], ["b", "c"]]), ("n2", -1, [["c", "d"], ["d", "a"]])]
    corpus = untimed_corpus(spec)
    graph = build_direct_graph(corpus)
    # present the same posts with hashtags in a different order: the vocab
    # permutes and the matrix must permute with it
    flipped = untimed_corpus(
        [(news_id, label, [list(reversed(p)) for p in posts]) for news_id, label, posts in spec]
    )
    graph2 = build_direct_graph(flipped)
    assert set(graph.vocab) == set(graph2.vocab)
    perm = [graph2.vocab.index(h) for h in graph.vocab]
    dense1 = graph.full().toarray()
    dense2 = graph2.full().toarray()
    assert np.array_equal(dense1, dense2[np.ix_(perm, perm)])


# --- persistence and export ------------------------------------------------------

def test_save_load_roundtrip_bit_exact(tmp_path):
    N = random_graph_matrix(np.random.default_rng(3))
    W = all_relations_truncated(N, k1=5)
    path = tmp_path / "w.matrix"
    save_matrix(W, path)
    back = load_matrix(path)
    assert back.kind == W.kind
    assert back.k1 == 5
    assert back.vocab == W.vocab
    # the stored upper triangle round-trips bit-exactly; the mirrored
    # lower triangle may differ from the in-memory product by ulps
    assert np.array_equal(
        sp.triu(back.values).toarray(), sp.triu(W.values).toarray()
    )
    assert np.allclose(back.values.toarray(), W.values.toarray(), atol=1e-14, rtol=0)
    # saving again is byte-identical
    path2 = tmp_path / "w2.matrix"
    save_matrix(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello\n")
    with pytest.raises(GraphError):
        load_matrix(path)


@pytest.mark.parametrize(
    "entry, reason",
    [
        ("0\t1", "got 2 field"),
        ("0\t1\t0.5\t0.5", "got 4 field"),
        ("0\t1.5\t0.5", "bad column index"),
        ("x\t1\t0.5", "bad row index"),
        ("0\t1\tabc", "bad value"),
        ("2\t1\t0.5", "outside"),  # below the diagonal
        ("0\t3\t0.5", "outside"),  # column >= q
        ("-1\t1\t0.5", "outside"),
        ("0\t1\tnan", "non-finite"),
        ("0\t1\t-inf", "non-finite"),
        ("0\t1\t0.25", "duplicate entry"),  # (0, 1) is already stored
    ],
)
def test_load_rejects_bad_entry_with_location(tmp_path, entry, reason):
    path = tmp_path / "bad.matrix"
    save_matrix(path_graph_n(), path)  # q = 3
    text = path.read_text() + entry + "\n"
    path.write_text(text)
    with pytest.raises(GraphError, match=f"^{re.escape(str(path))}:{text.count(chr(10))}: .*{reason}"):
        load_matrix(path)


@pytest.mark.parametrize("vocab", ["5", '{"a": 1, "b": 2, "c": 3}', '["a", "b", 3]', "[oops"])
def test_load_rejects_bad_vocab_header(tmp_path, vocab):
    path = tmp_path / "bad.matrix"
    save_matrix(path_graph_n(), path)
    lines = path.read_text().splitlines(keepends=True)
    at = next(k for k, line in enumerate(lines) if line.startswith("# vocab: "))
    lines[at] = f"# vocab: {vocab}\n"
    path.write_text("".join(lines))
    with pytest.raises(GraphError, match=f"^{re.escape(str(path))}:{at + 1}: .*vocab"):
        load_matrix(path)


def test_load_rejects_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.matrix"
    save_matrix(path_graph_n(), path)
    lines = path.read_bytes().splitlines(keepends=True)
    at = next(k for k, line in enumerate(lines) if line.startswith(b"# vocab: "))
    lines[at] = b'# vocab: ["a", "\xff", "c"]\n'
    path.write_bytes(b"".join(lines))
    message = "invalid UTF-8: 'utf-8' codec can't decode byte 0xff in position 16: invalid start byte"
    with pytest.raises(GraphError, match=f"^{re.escape(str(path))}:{at + 1}: {re.escape(message)}$"):
        load_matrix(path)


def test_export_edge_list_and_color_classes(tmp_path):
    corpus = untimed_corpus([("n1", 1, [["a", "b"], ["b", "c"]])])
    N = normalize(build_direct_graph(corpus))
    cred = np.array([0.95, -0.95, 0.0])
    edges, nodes, dot = tmp_path / "e.tsv", tmp_path / "n.tsv", tmp_path / "g.dot"
    export_graph(N, cred, edges_path=edges, nodes_path=nodes, dot_path=dot)

    edge_lines = edges.read_text().splitlines()
    assert edge_lines[0] == "hashtag_a\thashtag_b\tweight"
    assert edge_lines[1].startswith("a\tb\t")

    node_lines = nodes.read_text().splitlines()
    assert node_lines[0] == "hashtag\tcredibility\tcolor_class"
    classes = {line.split("\t")[0]: line.split("\t")[2] for line in node_lines[1:]}
    assert classes == {"a": "high", "b": "low", "c": "mid"}

    dot_text = dot.read_text()
    assert dot_text.startswith("graph hashtags {")
    assert '"a" [color=blue];' in dot_text
    assert '"b" [color=red];' in dot_text
    assert '"c" [color=gray];' in dot_text


@pytest.mark.parametrize("bad", ["x\ty", "x\ry", "x\ny"], ids=["tab", "cr", "lf"])
def test_export_refuses_hashtag_that_breaks_tsv(tmp_path, bad):
    N = normalize(build_direct_graph(untimed_corpus([("n1", 1, [[bad, "z"], ["z", "w"]])])))
    paths = {"edges_path": tmp_path / "e.tsv", "nodes_path": tmp_path / "n.tsv", "dot_path": tmp_path / "g.dot"}
    with pytest.raises(GraphError, match=re.escape(repr(bad))):
        export_graph(N, None, **paths)
    assert not any(path.exists() for path in paths.values())


def test_export_without_credibility(tmp_path):
    N = path_graph_n()
    nodes = tmp_path / "n.tsv"
    export_graph(N, None, edges_path=tmp_path / "e.tsv", nodes_path=nodes)
    for line in nodes.read_text().splitlines()[1:]:
        assert line.endswith("\t\tmid")
