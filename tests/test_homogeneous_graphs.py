"""The relation layer on any homogeneous graph: seeded random symmetric,
nonnegative, zero-diagonal adjacency matrices, checked stage by stage
against dense numpy oracles."""

import sys

import numpy as np
import pytest

import newstag.corpus
from newstag import graph
from newstag.credibility import (
    PowerSeries,
    PropagationConfig,
    propagate_closed_form,
    propagate_iterative,
    symmetric_normalize,
)
from newstag.graph import ALL_RELATIONS_TRUNCATED, NORMALIZED_DIRECT, all_relations_truncated, normalize

from helpers import (
    closed_form_oracle,
    closure_graph,
    dense_power_sum,
    direct_matrix,
    horner_closure_oracle,
    spectral_radius_dense,
)

TOL = 1e-12


def random_adjacency(seed: int, kind: str) -> np.ndarray:
    """Symmetric nonnegative weights with a zero diagonal.

    ``integer``: counts 1..9; ``real``: uniform weights in (0, 3);
    ``small``: real weights whose largest row sum is below one;
    ``isolated``: integer counts with a third of the nodes left
    unconnected; ``edgeless``: no edges at all; ``cycle``: one
    equal-weight cycle, so every row sum is the maximum and rho(N) = 1.
    """
    rng = np.random.default_rng((seed, len(kind)))
    q = int(rng.integers(6, 30))
    if kind == "cycle":
        k = np.arange(q)
        W = np.zeros((q, q))
        W[k, (k + 1) % q] = W[(k + 1) % q, k] = 2.5
        return W
    mask = np.triu(rng.random((q, q)) < 0.3, 1)
    if kind == "edgeless":
        mask[:] = False
    if kind == "isolated":
        lonely = rng.choice(q, size=q // 3, replace=False)
        mask[lonely, :] = mask[:, lonely] = False
    if kind in ("integer", "isolated"):
        upper = np.where(mask, rng.integers(1, 10, size=(q, q)), 0)
    else:
        upper = np.where(mask, rng.uniform(0.0, 3.0, size=(q, q)), 0.0)
        if kind == "small":
            upper *= 0.9 / max((upper + upper.T).sum(axis=1).max(), 1e-300)
    return upper + upper.T


KINDS = ["integer", "real", "small", "isolated", "edgeless", "cycle"]


@pytest.mark.parametrize("kind", KINDS)
def test_relation_layer_matches_dense_oracles(kind):
    for seed in range(4):
        weights = random_adjacency(seed, kind)
        q = weights.shape[0]
        W = direct_matrix(weights)
        assert W.n_edges == np.count_nonzero(np.triu(weights, 1))

        N = normalize(W)
        assert N.kind == NORMALIZED_DIRECT
        row_max = weights.sum(axis=1).max()
        n = weights / row_max if row_max else np.zeros((q, q))
        assert np.max(np.abs(N.values.toarray() - n), initial=0.0) <= TOL
        if row_max:
            assert abs(N.values.sum(axis=1).max() - 1.0) <= TOL
        if kind == "cycle":
            assert spectral_radius_dense(n) == pytest.approx(1.0, abs=TOL)

        c0 = np.random.default_rng(seed).uniform(-1.0, 1.0, size=q)
        for k1, relation in ((None, N), (1, all_relations_truncated(N, 1)), (4, all_relations_truncated(N, 4))):
            r = n if k1 is None else dense_power_sum(n, k1)
            if k1 is not None:
                assert relation.kind == ALL_RELATIONS_TRUNCATED
                assert np.max(np.abs(relation.values.toarray() - r), initial=0.0) <= TOL

            X, degrees = symmetric_normalize(relation)
            d = r.sum(axis=1)
            inv_sqrt = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
            x = inv_sqrt[:, None] * r * inv_sqrt[None, :]
            assert np.max(np.abs(degrees - d), initial=0.0) <= TOL
            assert np.max(np.abs(X.toarray() - x), initial=0.0) <= TOL

            for mu in (0.3, 0.9):
                c, residuals = propagate_iterative(X, c0, mu, PropagationConfig(max_iterations=40, tolerance=0.0))
                expected = c0.copy()
                for _ in range(40):
                    expected = mu * (x @ expected) + (1.0 - mu) * c0
                assert len(residuals) == 40
                assert np.max(np.abs(c - expected)) <= TOL
                closed = propagate_closed_form(X, c0, mu)
                assert np.max(np.abs(closed - closed_form_oracle(x, c0, mu))) <= TOL


def closure_inputs() -> list:
    """Normalized relations of every adjacency kind above, of every
    ``closure_graph`` shape (disconnected, blocks, rho(N) = 1) and of q = 1."""
    inputs = [normalize(direct_matrix(random_adjacency(seed, kind))) for kind in KINDS for seed in range(2)]
    inputs += [
        closure_graph(np.random.default_rng(seed), shape)
        for shape in ("disconnected", "blocks", "regular")
        for seed in range(2)
    ]
    inputs.append(normalize(direct_matrix([[0]])))
    return inputs


@pytest.mark.parametrize("workers", [1, 2, 8])  # 8: more threads than the cores of a small host
@pytest.mark.parametrize("width", ["one panel", 1, 3, "q-1", "q", "q+1"])
def test_panel_closure_bytes_match_whole_buffer_oracle(monkeypatch, workers, width):
    monkeypatch.setattr(newstag.corpus, "worker_count", lambda panels: workers)
    inputs = closure_inputs()
    assert {N.q for N in inputs} >= {1} and any(N.q % 3 for N in inputs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the panel threads switch as often as the interpreter allows
    try:
        for N in inputs:
            q = N.q
            w = {"one panel": None, "q-1": q - 1, "q": q, "q+1": q + 1}.get(width, width)
            if w == 0:
                continue
            if w is not None:
                monkeypatch.setattr(graph, "CLOSURE_PANEL_ENTRIES", w * q)  # panels of w columns
            else:
                assert graph.CLOSURE_PANEL_ENTRIES // q > q  # the default width holds all of q
            for k1 in (1, 2, 5):
                got = all_relations_truncated(N, k1).values
                expected = horner_closure_oracle(N.values, k1)
                for name in ("data", "indices", "indptr"):
                    a, b = getattr(got, name), getattr(expected, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (q, w, k1, name)
    finally:
        sys.setswitchinterval(interval)


def panel_operators() -> list:
    """Propagation operators of every adjacency kind (edgeless, with isolated
    nodes, rho(N) = 1 among them), of the disconnected closure shape, and of
    q = 0 and q = 1: N and its closure, each as CSR."""
    relations = [normalize(direct_matrix(random_adjacency(0, kind))) for kind in KINDS]
    relations.append(closure_graph(np.random.default_rng(0), "disconnected"))
    relations += [normalize(direct_matrix(np.zeros((q, q)))) for q in (0, 1)]
    operators = []
    for N in relations:
        for relation in (N, all_relations_truncated(N, 4)):
            operators.append(symmetric_normalize(relation)[0])
    return operators


PANEL_CONFIGS = [
    PropagationConfig(max_iterations=40, tolerance=0.0),  # fixed steps
    PropagationConfig(max_iterations=1, tolerance=1e-9),  # one step, at the cap
    PropagationConfig(max_iterations=6, tolerance=1e-6),  # some columns stop at the cap
    PropagationConfig(max_iterations=500, tolerance=1e-9),
]


@pytest.mark.parametrize("m", [1, 3, 10])
@pytest.mark.parametrize("config", PANEL_CONFIGS, ids=["tolerance-0", "one-step", "cap", "converge"])
def test_panel_matches_one_column_alone(m, config):
    mus = (0.2, 0.5, 0.9)
    scales = 10.0 ** np.linspace(-7.0, 2.0, m)  # columns that stop at different steps
    stops = set()
    for seed, X in enumerate(panel_operators()):
        rng = np.random.default_rng(seed)
        panel = [scale * rng.uniform(-1.0, 1.0, size=X.shape[0]) for scale in scales]
        for operator in (X, X.toarray()):
            series = PowerSeries(operator, panel, mus, config)
            for mu in mus:  # mu-major, as grid-mu reads a panel
                for column in panel:
                    c, residuals = propagate_iterative(operator, column, mu, config, series=series)
                    alone_c, alone_residuals = propagate_iterative(operator, column, mu, config)
                    assert len(residuals) == len(alone_residuals)
                    stops.add(len(residuals))
                    if operator is X:  # CSR: bit for bit
                        assert c.tobytes() == alone_c.tobytes()
                        assert residuals == alone_residuals
                    else:  # dense: the block product may round differently
                        assert np.max(np.abs(c - alone_c), initial=0.0) <= 1e-14 * np.max(np.abs(alone_c), initial=0.0)
    if m > 1 and config.tolerance > 0.0 and config.max_iterations > 1:
        assert len(stops) > 2  # the columns did stop at different steps
