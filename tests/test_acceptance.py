"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from newstag.cli import SUBCOMMANDS
from newstag.corpus import split_corpus
from newstag.credibility import (
    PropagationConfig,
    init_credibility,
    predict,
    propagate_closed_form,
    propagate_iterative,
    symmetric_normalize,
)
from newstag.graph import all_relations_truncated, build_direct_graph, normalize
from newstag.harness import (
    ExperimentConfig,
    METHOD_NO_INDIRECT,
    compute_f1,
    run_experiment,
)
from newstag.synth import SyntheticParams, designated_chain_ids, generate_synthetic

from helpers import (
    brute_force_f1,
    cost_oracle,
    exact_closure_oracle,
    random_contractive_n,
    random_graph_matrix,
    spectral_radius_dense,
    untimed_corpus,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def random_instance(seed: int, min_degree: int = 0):
    rng = np.random.default_rng(seed)
    W = random_graph_matrix(rng, min_degree=min_degree)
    X, D = symmetric_normalize(W)
    c0 = rng.uniform(-1, 1, size=W.q)
    return W, X, D, c0


MU_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def test_criterion_01_closure_oracle():
    with criterion(1, "closure oracle (truncated k1=40 vs exact, 100 graphs)"):
        start = time.perf_counter()
        for seed in range(100):
            N = random_contractive_n(seed)
            assert N.q <= 50
            radius = spectral_radius_dense(N.values.toarray())
            assert radius <= 0.9  # dense-eigensolve verification
            exact = exact_closure_oracle(N.values.toarray())
            truncated = all_relations_truncated(N, k1=40).values.toarray()
            assert np.max(np.abs(exact - truncated)) <= 1e-8
        assert time.perf_counter() - start < 10.0


def test_criterion_02_proposition_equivalence():
    with criterion(2, "iterative vs closed form equivalence (100 instances)"):
        start = time.perf_counter()
        for seed in range(100):
            _, X, _, c0 = random_instance(seed)
            mu = MU_GRID[seed % 9]
            closed = propagate_closed_form(X, c0, mu)
            iterated, _ = propagate_iterative(
                X, c0, mu, PropagationConfig(max_iterations=10000, tolerance=1e-12)
            )
            assert np.max(np.abs(closed - iterated)) <= 1e-8
            for c_hat in (closed, iterated):
                residual = c_hat - (mu * (X @ c_hat) + (1 - mu) * c0)
                assert np.max(np.abs(residual)) <= 1e-8
        assert time.perf_counter() - start < 10.0


def test_criterion_03_contraction_rate():
    with criterion(3, "per-iteration contraction ratio <= mu + 1e-6"):
        for seed in range(100):
            _, X, _, c0 = random_instance(seed)
            mu = MU_GRID[seed % 9]
            c_hat = propagate_closed_form(X, c0, mu)
            c = c0.copy()
            errors = [np.linalg.norm(c - c_hat)]
            for _ in range(200):
                c = mu * (X @ c) + (1 - mu) * c0
                errors.append(np.linalg.norm(c - c_hat))
                if errors[-1] < 1e-12:
                    break
            for t in range(2, len(errors)):
                # the quotient is measurable in float64 only while the error
                # sits well above the cancellation floor eps*|c_hat| ~ 1e-16;
                # a 1e-6 slack demands errors >= ~1e-9 (still 9 decades of
                # genuine geometric decay under test)
                if errors[t - 1] > 1e-9:
                    assert errors[t] <= (mu + 1e-6) * errors[t - 1]


def test_criterion_04_analytic_fixed_point():
    with criterion(4, "two-hashtag analytic fixed point (3/7, -3/7)"):
        corpus = untimed_corpus([("n1", 1, [["a", "b"]])])
        N = normalize(build_direct_graph(corpus))
        X, _ = symmetric_normalize(N)
        c0 = np.array([1.0, -1.0])
        closed = propagate_closed_form(X, c0, mu=0.4)
        assert np.max(np.abs(closed - np.array([3 / 7, -3 / 7]))) <= 1e-9
        iterated, _ = propagate_iterative(
            X, c0, 0.4, PropagationConfig(max_iterations=10000, tolerance=1e-14)
        )
        assert np.max(np.abs(iterated - np.array([3 / 7, -3 / 7]))) <= 1e-9


def test_criterion_05_minimizer_property():
    with criterion(5, "propagated vector minimizes the cost (20 instances x 1000)"):
        violations = 0
        for seed in range(20):
            W, X, D, c0 = random_instance(seed + 300, min_degree=1)
            mu = MU_GRID[seed % 9]
            c_hat = propagate_closed_form(X, c0, mu)
            w = W.values.toarray()
            base = cost_oracle(w, D, c_hat, c0, mu)
            rng = np.random.default_rng(seed + 9000)
            for _ in range(1000):
                delta = rng.uniform(-0.1, 0.1, size=W.q)
                if cost_oracle(w, D, c_hat + delta, c0, mu) < base:
                    violations += 1
        assert violations == 0


def test_criterion_06_structural_invariants():
    with criterion(6, "structural invariants (symmetry, scaling, bounds)"):
        # symmetry preservation through every matrix operation (<= 200 nodes)
        rng = np.random.default_rng(77)
        for q_range in [(8, 50), (100, 200)]:
            N = random_graph_matrix(rng, q_range=q_range, density=0.1)
            for M in (
                N.values,
                all_relations_truncated(N, k1=6).values,
            ):
                dense = M.toarray()
                assert np.max(np.abs(dense - dense.T)) <= 1e-12
        N = random_contractive_n(5)
        truncated = all_relations_truncated(N, k1=40).values.toarray()
        assert np.max(np.abs(truncated - truncated.T)) <= 1e-12
        assert np.max(np.abs(exact_closure_oracle(N.values.toarray()) - truncated)) <= 1e-8

        # scale invariance of N under integer post replication (exact)
        spec = [("n1", 1, [["a", "b", "c"], ["b", "c"]]), ("n2", -1, [["c", "d"]])]
        n_base = normalize(build_direct_graph(untimed_corpus(spec)))
        for alpha in (2, 3, 5):
            scaled_spec = [
                (news_id, label, [list(p) for p in posts for _ in range(alpha)])
                for news_id, label, posts in spec
            ]
            n_scaled = normalize(build_direct_graph(untimed_corpus(scaled_spec)))
            assert np.array_equal(n_base.values.toarray(), n_scaled.values.toarray())

        # monotone accumulation of the truncated closure (exact, entrywise)
        N = random_graph_matrix(np.random.default_rng(5))
        smaller = all_relations_truncated(N, k1=5).values.toarray()
        larger = all_relations_truncated(N, k1=6).values.toarray()
        assert np.all(larger >= smaller)

        # c0 entries always within [-1, 1] (exact)
        corpus = generate_synthetic(
            SyntheticParams(hashtags=60, news=50, purity=0.7), seed=21
        )
        train, _ = split_corpus(corpus, 0.8, seed=3)
        for per_post in (True, False):
            c0 = init_credibility(corpus, train, per_post=per_post)
            assert np.all(c0 >= -1.0) and np.all(c0 <= 1.0)

        # antisymmetry of propagation in c0 (<= 1e-12)
        for seed in range(5):
            _, X, _, c0 = random_instance(seed + 600)
            neg = -c0
            plus = propagate_closed_form(X, c0, 0.4)
            minus = propagate_closed_form(X, neg, 0.4)
            assert np.max(np.abs(plus + minus)) <= 1e-12

        # prediction invariance under positive scaling of c_hat (exact)
        rng = np.random.default_rng(8)
        spec = [
            (f"n{i}", None, [[f"h{int(rng.integers(10))}" for _ in range(3)] for _ in range(3)])
            for i in range(15)
        ]
        corpus = untimed_corpus(spec)
        values = rng.uniform(-1, 1, size=len(corpus.vocabulary))
        base = predict(corpus, values)
        for alpha in (0.5, 2.0, 4.0, 1024.0, 3.0, 0.1):
            scaled = values * alpha
            assert np.array_equal(predict(corpus, scaled), base)

        # spectral radius of X bounded by 1 (dense eigensolve, q <= 50)
        for seed in range(10):
            _, X, _, _ = random_instance(seed + 900)
            assert spectral_radius_dense(X.toarray()) <= 1.0 + 1e-10


E2E_PARAMS = SyntheticParams(hashtags=800, news=500, purity=1.0)


def _e2e_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        mu=0.4,
        k1=10,
        propagation=PropagationConfig(max_iterations=100, tolerance=1e-9),
        train_fraction=0.8,
        seed=seed,
        repetitions=1,
    )


def test_criterion_07_synthetic_end_to_end():
    with criterion(7, "synthetic end-to-end (purity 1.0 perfect; 0.9 beats baseline)"):
        start = time.perf_counter()
        corpus = generate_synthetic(E2E_PARAMS, seed=42)
        report = run_experiment(corpus, _e2e_config(seed=42))
        assert report.macro_f1_mean == 1.0
        assert report.micro_f1_mean == 1.0

        noisy = generate_synthetic(replace(E2E_PARAMS, purity=0.9), seed=42)
        micmeans, baselines = [], []
        for seed in range(20):
            rep = run_experiment(noisy, _e2e_config(seed=seed)).repetitions[0]
            micmeans.append(rep.micro_f1)
            c = rep.confusion
            n_pos = c["tp"] + c["fn"]
            n_neg = c["tn"] + c["fp"]
            baselines.append(max(n_pos, n_neg) / (n_pos + n_neg))
        assert np.mean(micmeans) >= np.mean(baselines) + 0.15
        assert time.perf_counter() - start < 60.0


CHAIN_PARAMS = SyntheticParams(
    hashtags=200,
    news=160,
    purity=1.0,
    chain_depth=2,
    chains=30,
    posts_per_news=(2, 6),
    hashtags_per_post=(1, 3),
)

# A single fixed-point step: with a two-hop bridge path, information from
# labeled hashtags cannot reach the designated hashtags through the direct
# graph, while the k1>=2 closure has already folded the path into an edge.
CHAIN_PROPAGATION = PropagationConfig(max_iterations=1, tolerance=0.0)


def test_criterion_08_indirect_relation_benefit():
    with criterion(8, "indirect relations strictly beat direct-only on chains"):
        for seed in range(10):
            corpus = generate_synthetic(CHAIN_PARAMS, seed=seed)
            designated = set(designated_chain_ids(corpus))
            base = ExperimentConfig(
                mu=0.4,
                k1=10,
                propagation=CHAIN_PROPAGATION,
                train_fraction=0.8,
                seed=seed,
                repetitions=1,
            )
            full = run_experiment(corpus, base, collect_predictions=True).repetitions[0]
            direct = run_experiment(
                corpus, replace(base, method=METHOD_NO_INDIRECT), collect_predictions=True
            ).repetitions[0]
            assert full.split_seed == direct.split_seed
            des_test = sorted(i for i in full.predictions if i in designated)
            assert des_test, f"seed {seed}: no designated item landed in test"
            # direct-only: exactly zero score, hence predicted fake
            for news_id in des_test:
                label, score = direct.predictions[news_id]
                assert score == 0.0
                assert label == -1
            acc_full = sum(full.predictions[i][0] == 1 for i in des_test) / len(des_test)
            acc_direct = sum(direct.predictions[i][0] == 1 for i in des_test) / len(des_test)
            assert acc_full > acc_direct
            assert acc_direct == 0.0
            # overall labeled-test accuracy is never hurt by the closure
            label_of = {item.id: item.label for item in corpus.news}
            labeled_test = [i for i in full.predictions if label_of[i] is not None]
            overall_full = sum(
                full.predictions[i][0] == label_of[i] for i in labeled_test
            )
            overall_direct = sum(
                direct.predictions[i][0] == label_of[i] for i in labeled_test
            )
            assert overall_full >= overall_direct


def test_criterion_09_ablation_identity():
    with criterion(9, "newstag k1=1 equals newstag_no_indirect label-for-label"):
        for seed in range(20):
            params = SyntheticParams(
                hashtags=50, news=36, purity=0.75, posts_per_news=(2, 6)
            )
            corpus = generate_synthetic(params, seed=seed)
            base = ExperimentConfig(
                mu=0.4,
                k1=1,
                propagation=PropagationConfig(max_iterations=100, tolerance=1e-9),
                train_fraction=0.8,
                seed=seed,
                repetitions=1,
            )
            a = run_experiment(corpus, base, collect_predictions=True).repetitions[0]
            b = run_experiment(
                corpus, replace(base, method=METHOD_NO_INDIRECT, k1=10), collect_predictions=True
            ).repetitions[0]
            labels_a = {i: lab for i, (lab, _) in a.predictions.items()}
            labels_b = {i: lab for i, (lab, _) in b.predictions.items()}
            assert labels_a == labels_b


def _cli(*args):
    result = subprocess.run(
        [sys.executable, "-m", "newstag", *args], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return result


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "byte-identical artifacts for every CLI subcommand"):
        corpus = tmp_path / "corpus.jsonl"
        _cli(
            "synth", "--hashtags", "60", "--news", "40", "--purity", "0.9",
            "--posts-min", "2", "--posts-max", "5", "--seed", "3", "--out", str(corpus),
        )
        run_args = ["--input", str(corpus), "--repetitions", "2", "--seed", "5"]

        # every invocation below is executed twice with IDENTICAL flags;
        # artifact bytes are captured between runs and must not change
        invocations = {
            "synth": (
                ["synth", "--hashtags", "60", "--news", "40", "--purity", "0.9",
                 "--posts-min", "2", "--posts-max", "5", "--seed", "3",
                 "--out", str(tmp_path / "synth.jsonl")],
                ["synth.jsonl", "synth.jsonl.config.json"],
            ),
            "validate": (
                ["validate", "--input", str(corpus), "--out", str(tmp_path / "summary.json")],
                ["summary.json", "summary.json.config.json"],
            ),
            "run": (
                ["run", *run_args, "--out", str(tmp_path / "report.json"),
                 "--predictions-out", str(tmp_path / "preds.csv")],
                ["report.json", "report.json.config.json", "preds.csv"],
            ),
            "grid-mu": (
                ["grid-mu", *run_args, "--grid", "0.2,0.4", "--out", str(tmp_path / "grid.csv")],
                ["grid.csv", "grid.csv.config.json"],
            ),
            "sweep-volume": (
                ["sweep-volume", *run_args, "--fractions", "0.5,0.8",
                 "--out", str(tmp_path / "vol.csv")],
                ["vol.csv", "vol.csv.config.json"],
            ),
            "sweep-time": (
                ["sweep-time", *run_args, "--horizons", "12,24",
                 "--out", str(tmp_path / "time.csv")],
                ["time.csv", "time.csv.config.json"],
            ),
            "ablate": (
                ["ablate", *run_args, "--out", str(tmp_path / "ablate.json")],
                ["ablate.json", "ablate.json.config.json"],
            ),
            "analyze": (
                ["analyze", *run_args, "--kind", "convergence",
                 "--out", str(tmp_path / "conv.csv")],
                ["conv.csv", "conv.csv.config.json"],
            ),
            "export": (
                ["export", "--input", str(corpus), "--k1", "5",
                 "--edges-out", str(tmp_path / "edges.tsv"),
                 "--nodes-out", str(tmp_path / "nodes.tsv"),
                 "--dot-out", str(tmp_path / "g.dot")],
                ["edges.tsv", "nodes.tsv", "g.dot", "edges.tsv.config.json"],
            ),
        }
        # the table covers every subcommand by construction
        assert invocations.keys() == SUBCOMMANDS.keys()
        for name, (args, artifact_names) in invocations.items():
            _cli(*args)
            first = {a: (tmp_path / a).read_bytes() for a in artifact_names}
            _cli(*args)
            for a in artifact_names:
                assert (tmp_path / a).read_bytes() == first[a], (
                    f"{name}: artifact {a} differs between identical invocations"
                )


def test_criterion_11_metric_oracle():
    with criterion(11, "compute_f1 matches brute-force confusion oracle exactly"):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            truths = [1 if rng.random() < 0.5 else -1 for _ in range(n)]
            preds = [1 if rng.random() < 0.5 else -1 for _ in range(n)]
            assert compute_f1(preds, truths) == brute_force_f1(preds, truths)
        degenerate = [
            ([1], [1]),
            ([-1], [-1]),
            ([1], [-1]),
            ([-1], [1]),
            ([1, 1, 1], [1, 1, 1]),
            ([-1, -1, -1], [-1, -1, -1]),
            ([1, 1, 1], [-1, -1, -1]),
            ([-1, -1], [1, 1]),
        ]
        for preds, truths in degenerate:
            assert compute_f1(preds, truths) == brute_force_f1(preds, truths)
