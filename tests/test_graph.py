import re
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from newstag import graph as graph_module
from newstag.corpus import MAX_WORKERS, worker_count
from newstag.graph import (
    DIRECT,
    GraphError,
    MAX_K1,
    NORMALIZED_DIRECT,
    RelationMatrix,
    TRUNCATED_MAX_Q,
    all_relations_truncated,
    build_direct_graph,
    export_graph,
    normalize,
)

from helpers import (
    closure_graph,
    corpus_of,
    dense_power_sum,
    direct_matrix,
    exact_closure_oracle,
    export_graph_oracle,
    pair_count_oracle,
    random_contractive_n,
    random_graph_matrix,
    spectral_radius_dense,
    untimed_corpus,
    upper_entries_oracle,
)


def path_graph_n() -> RelationMatrix:
    # a-b-c path: N = [[0,.5,0],[.5,0,.5],[0,.5,0]]
    corpus = untimed_corpus([("n1", 1, [["a", "b"], ["b", "c"]])])
    return normalize(build_direct_graph(corpus))


# --- build_direct_graph ------------------------------------------------------

def test_weighted_counts_match_pair_oracle():
    corpus = untimed_corpus([("n1", 1, [["a", "b", "c"], ["b", "c"]])])
    graph = build_direct_graph(corpus, weighted=True)
    assert graph.kind == DIRECT
    index = {h: k for k, h in enumerate(graph.vocab)}
    dense = graph.values.toarray()
    assert dense[index["a"], index["b"]] == 1
    assert dense[index["a"], index["c"]] == 1
    assert dense[index["b"], index["c"]] == 2
    oracle = pair_count_oracle(corpus)
    for (ha, hb), count in oracle.items():
        assert dense[index[ha], index[hb]] == count
    assert dense.sum() == 2 * sum(oracle.values())


def test_unweighted_is_indicator():
    corpus = untimed_corpus([("n1", 1, [["a", "b", "c"], ["b", "c"]])])
    dense = build_direct_graph(corpus, weighted=False).values.toarray()
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
    dense = build_direct_graph(corpus).values.toarray()
    assert dense[0, 1] == 3


def test_zero_diagonal_and_symmetry():
    rng = np.random.default_rng(0)
    corpus = untimed_corpus(
        [
            (f"n{i}", 1, [[f"h{rng.integers(10)}" for _ in range(4)] for _ in range(3)])
            for i in range(10)
        ]
    )
    dense = build_direct_graph(corpus).values.toarray()
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


def test_normalize_accepts_only_direct_counts():
    N = path_graph_n()
    for matrix in (N, all_relations_truncated(N, k1=2)):
        with pytest.raises(GraphError, match=f"direct matrix, got {matrix.kind!r}"):
            normalize(matrix)


def test_normalize_divides_real_weights_by_their_row_sum():
    # row sums 2.7, 0.95, 0.85 and 1.0: an integer divisor would be 2, and 0
    # (all inf) once every weight is scaled by 1/6
    weights = np.array([[0.0, 0.9, 0.8, 1.0], [0.9, 0.0, 0.05, 0.0], [0.8, 0.05, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    for scale in (1.0, 1 / 6):
        N = normalize(direct_matrix(weights * scale))
        assert np.allclose(N.values.toarray(), weights / 2.7, rtol=0, atol=1e-15)


def test_n_edges_counts_pairs_off_the_diagonal():
    N = path_graph_n()
    assert N.n_edges == 2 and type(N.n_edges) is int  # a plain int, as counters are written to JSON
    assert all_relations_truncated(N, k1=2).n_edges == 3  # a-c joins; the diagonal is not an edge


# --- truncated closure ---------------------------------------------------------

def test_truncated_k1_equals_n():
    N = path_graph_n()
    W = all_relations_truncated(N, k1=1)
    assert np.array_equal(W.values.toarray(), N.values.toarray())
    assert W.kind == "all_relations_truncated"


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
        assert W.values.has_canonical_format
        # stored entries are exactly the pairs joined by a walk of 1..k1 steps
        hop = reach = n > 0
        for _ in range(2, k1 + 1):
            hop = (hop.astype(np.int64) @ (n > 0).astype(np.int64)) > 0
            reach = reach | hop
        assert W.values.nnz == np.count_nonzero(reach)
        assert np.max(np.abs(W.values.toarray() - dense_power_sum(n, k1))) <= 1e-12


def test_truncated_validates_inputs():
    N = path_graph_n()
    with pytest.raises(GraphError):
        all_relations_truncated(N, k1=0)
    W = all_relations_truncated(N, k1=2)
    with pytest.raises(GraphError):
        all_relations_truncated(W, k1=2)


def test_closure_workers_stay_within_the_cap_and_the_panels():
    before = threading.active_count()
    many = set(range(4096))  # a fake affinity set: the helper only counts it
    for panels in (0, 1, 2, 7, MAX_WORKERS, 143, 10**6):
        workers = worker_count(panels, many)
        assert 1 <= workers <= MAX_WORKERS
        assert workers <= max(panels, 1)
    assert worker_count(143, many) == MAX_WORKERS
    assert worker_count(143, {3}) == 1
    assert 1 <= worker_count(143) <= MAX_WORKERS  # the CPUs this process may use
    assert threading.active_count() == before


def test_closure_panel_error_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    N = random_graph_matrix(np.random.default_rng(5), q_range=(40, 40))
    monkeypatch.setattr(graph_module, "CLOSURE_PANEL_ENTRIES", 3 * 40)  # 14 panels of 3 columns
    monkeypatch.setattr(graph_module, "worker_count", lambda panels: 2)
    error = MemoryError("panel at column 6")
    horner_panel = graph_module._horner_panel

    def failing_panel(n, columns, k1, lo, hi, out):
        if lo == 6:
            raise error
        horner_panel(n, columns, k1, lo, hi, out)

    monkeypatch.setattr(graph_module, "_horner_panel", failing_panel)
    before = threading.active_count()
    with pytest.raises(MemoryError) as raised:
        all_relations_truncated(N, k1=10)
    assert raised.value is error
    assert threading.active_count() == before


# --- exact closure oracle ------------------------------------------------------

def test_exact_two_node_half_weight():
    # N = [[0,.5],[.5,0]] has radius 0.5; N(I-N)^{-1} = [[1/3,2/3],[2/3,1/3]]
    n = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert spectral_radius_dense(n) < 1
    expected = np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]])
    assert np.allclose(exact_closure_oracle(n), expected, atol=1e-12)
    N = RelationMatrix(kind=NORMALIZED_DIRECT, values=sp.csr_matrix(n), vocab=("a", "b"))
    assert np.allclose(all_relations_truncated(N, k1=60).values.toarray(), expected, atol=1e-12)


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


def test_truncated_peak_memory_on_connected_graph():
    # Horner's rule holds the sum and the product being formed (2 x 8q^2
    # bytes); the CSR conversion then peaks at about 2.63 x 8q^2.  A
    # separate power buffer would raise the loop to 3 x 8q^2.
    q = 1000
    rng = np.random.default_rng(0)
    ring = np.arange(q)
    rows = np.r_[ring, rng.integers(0, q, 2 * q)]
    cols = np.r_[(ring + 1) % q, rng.integers(0, q, 2 * q)]
    keep = rows != cols
    upper = sp.coo_matrix((np.ones(int(keep.sum()), dtype=np.int64), (rows[keep], cols[keep])), shape=(q, q))
    direct = RelationMatrix(kind=DIRECT, values=(upper + upper.T).tocsr(), vocab=tuple(f"h{k}" for k in range(q)))
    N = normalize(direct)
    tracemalloc.start()
    try:
        W = all_relations_truncated(N, k1=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert W.values.nnz == q * q  # connected: the closure is dense
    assert peak < 2.75 * 8 * q * q


def test_exact_matches_truncated_on_contractive_instances():
    for seed in range(6):
        N = random_contractive_n(seed)
        assert spectral_radius_dense(N.values.toarray()) < 1
        exact = exact_closure_oracle(N.values.toarray())
        truncated = all_relations_truncated(N, k1=40).values.toarray()
        assert np.max(np.abs(exact - truncated)) <= 1e-8
        oracle = dense_power_sum(N.values.toarray(), 40)
        assert np.max(np.abs(oracle - truncated)) <= 1e-12


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
    dense1 = graph.values.toarray()
    dense2 = graph2.values.toarray()
    assert np.array_equal(dense1, dense2[np.ix_(perm, perm)])


# --- export -------------------------------------------------------------------

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


# --- sorted-entry writer ---------------------------------------------------------

def writer_matrices() -> list[RelationMatrix]:
    """Normalized and truncated matrices of random graphs, the path graph,
    a one-hashtag and an edgeless matrix, and names DOT has to quote."""
    matrices = [path_graph_n()]
    for seed in range(4):
        N = random_graph_matrix(np.random.default_rng(seed))
        matrices += [N, all_relations_truncated(N, k1=1 + seed)]
    matrices.append(RelationMatrix(kind=NORMALIZED_DIRECT, values=sp.csr_matrix((1, 1)), vocab=("solo",)))
    matrices.append(RelationMatrix(kind=NORMALIZED_DIRECT, values=sp.csr_matrix((3, 3)), vocab=("a", "b", "c")))
    awkward = ('q"uote', "back\\slash", "caf\u00e9")
    matrices.append(all_relations_truncated(
        RelationMatrix(kind=NORMALIZED_DIRECT, values=path_graph_n().values, vocab=awkward), k1=3
    ))
    return matrices


def test_sorted_upper_is_the_row_major_triangle():
    for matrix in writer_matrices():
        rows, cols, values = graph_module._sorted_upper(matrix.values)
        assert list(zip(rows, cols, values)) == upper_entries_oracle(matrix)
        # plain Python numbers, so each entry formats as an int or float repr
        assert all(type(a) is int and type(b) is int and type(v) is float for a, b, v in zip(rows, cols, values))


@pytest.mark.parametrize("n", [0, 1, 3, 4, 9])
def test_write_lines_joins_full_blocks(monkeypatch, n):
    monkeypatch.setattr(graph_module, "_BLOCK_LINES", 3)
    lines = [f"line {k}\n" for k in range(n)]

    class Recorder:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    out = Recorder()
    graph_module._write_lines(out, iter(lines))
    assert "".join(out.writes) == "".join(lines)
    assert out.writes == ["".join(lines[k:k + 3]) for k in range(0, n, 3)]


@pytest.mark.parametrize("scored", [False, True], ids=["no-credibility", "credibility"])
@pytest.mark.parametrize("block", [1, 3, 65536])
def test_export_matches_entrywise_oracle(tmp_path, monkeypatch, block, scored):
    monkeypatch.setattr(graph_module, "_BLOCK_LINES", block)
    rng = np.random.default_rng(block)
    for k, matrix in enumerate(writer_matrices()):
        scores = None
        if scored:
            # every color class, both boundaries included
            scores = np.concatenate([[0.9, -0.9, 0.0], rng.uniform(-1.0, 1.0, size=matrix.q)])[:matrix.q]
        paths = [tmp_path / f"{k}.edges.tsv", tmp_path / f"{k}.nodes.tsv", tmp_path / f"{k}.dot"]
        export_graph(matrix, scores, edges_path=paths[0], nodes_path=paths[1], dot_path=paths[2])
        expected = export_graph_oracle(matrix, scores)
        assert [path.read_bytes() for path in paths] == [text.encode("utf-8") for text in expected]
