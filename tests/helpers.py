"""Shared test fixtures-in-code: corpus builders, random instances, and
independent oracles (dense power sums, loop-based cost, brute-force F1)
used to cross-check the library's sparse implementations."""

from __future__ import annotations

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import scipy.sparse as sp

from newstag.corpus import Corpus, NewsItem, Post
from newstag.graph import HashtagGraph, RelationMatrix, normalize

BASE = datetime(2020, 3, 1, tzinfo=timezone.utc)


# ---------------------------------------------------------------------------
# Corpus builders
# ---------------------------------------------------------------------------

def untimed_corpus(spec) -> Corpus:
    """spec: [(news_id, label, [post_hashtag_list, ...]), ...] without timestamps."""
    news = []
    for news_id, label, posts in spec:
        ps = tuple(
            Post(post_id=f"{news_id}-p{j}", created_at=None, hashtags=tuple(dict.fromkeys(tags)))
            for j, tags in enumerate(posts)
        )
        news.append(NewsItem(id=news_id, label=label, published_at=None, posts=ps))
    return Corpus.from_news(news)


def timed_news(news_id, label, publish_offset_h, posts) -> NewsItem:
    """posts: [(created_offset_hours_from_publish or None, hashtag_list), ...]."""
    published = BASE + timedelta(hours=publish_offset_h)
    ps = []
    for j, (offset, tags) in enumerate(posts):
        created = None if offset is None else published + timedelta(hours=offset)
        ps.append(
            Post(post_id=f"{news_id}-p{j}", created_at=created, hashtags=tuple(dict.fromkeys(tags)))
        )
    return NewsItem(id=news_id, label=label, published_at=published, posts=tuple(ps))


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

def random_graph_matrix(rng, q_range=(8, 50), density=0.25, min_degree=0) -> RelationMatrix:
    """Random symmetric integer-weighted graph, normalized to N.

    With ``min_degree`` >= 1, isolated nodes are joined into a cycle so
    every coordinate participates in the smoothness term.
    """
    q = int(rng.integers(q_range[0], q_range[1] + 1))
    dense = np.zeros((q, q), dtype=np.int64)
    for k in range(q):
        for l in range(k + 1, q):
            if rng.random() < density:
                dense[k, l] = int(rng.integers(1, 10))
    if min_degree >= 1:
        degree = dense.sum(axis=0) + dense.sum(axis=1)
        for k in np.nonzero(degree == 0)[0]:
            dense[min(k, (k + 1) % q), max(k, (k + 1) % q)] = 1
    if dense.sum() == 0:
        dense[0, 1] = 1
    graph = HashtagGraph(
        vocab=tuple(f"h{k}" for k in range(q)),
        upper=sp.csr_matrix(dense),
    )
    return normalize(graph)


def random_contractive_n(seed: int, q_range=(10, 50), density=0.2) -> RelationMatrix:
    """Random normalized matrix whose spectral radius is small enough for
    the k1=40 truncation to match the exact closure to 1e-8.

    A heavy hub row keeps the normalizer large relative to typical row
    sums; instances are resampled (deterministically) until a dense
    eigensolve confirms radius <= 0.6, comfortably below the 0.9
    verification bound (the geometric tail at 0.6 is ~1e-9 by k1=40).
    """
    for attempt in range(64):
        rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
        q = int(rng.integers(q_range[0], q_range[1] + 1))
        dense = np.zeros((q, q), dtype=np.int64)
        for k in range(q):
            for l in range(k + 1, q):
                if rng.random() < density:
                    dense[k, l] = int(rng.integers(1, 5))
        hub_weight = int(rng.integers(8, 15))
        for l in range(1, q):
            dense[0, l] = hub_weight
        graph = HashtagGraph(
            vocab=tuple(f"h{k}" for k in range(q)),
            upper=sp.csr_matrix(dense),
        )
        N = normalize(graph)
        if spectral_radius_dense(N.values.toarray()) <= 0.6:
            return N
    raise AssertionError("could not sample a contractive instance")


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def as_dense(X) -> np.ndarray:
    """A propagation operator as a dense array, whichever way it is stored."""
    return X.toarray() if sp.issparse(X) else np.asarray(X)


def closed_form_oracle(X, c0, mu: float) -> np.ndarray:
    """Closed-form propagation oracle: a dense solve of (I - mu*X) c = (1 - mu) c0."""
    dense = as_dense(X)
    return np.linalg.solve(np.eye(dense.shape[0]) - mu * dense, (1.0 - mu) * np.asarray(c0, dtype=float))


def spectral_radius_dense(dense: np.ndarray) -> float:
    """Dense eigensolve oracle for symmetric matrices."""
    if dense.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(dense))))


def dense_power_sum(n_dense: np.ndarray, k1: int) -> np.ndarray:
    """Closure oracle: accumulate N + N^2 + ... + N^k1 with dense matmuls."""
    total = np.zeros_like(n_dense)
    power = np.eye(n_dense.shape[0])
    for _ in range(k1):
        power = power @ n_dense
        total = total + power
    return total


def cost_oracle(w_dense: np.ndarray, degrees, c, c0, mu: float) -> float:
    """Loop-based evaluation of the regularized cost (pairwise smoothness)."""
    q = len(c)
    scaled = [c[k] / math.sqrt(degrees[k]) if degrees[k] > 0 else 0.0 for k in range(q)]
    smooth = 0.0
    for k in range(q):
        for l in range(k + 1, q):
            if w_dense[k, l] != 0.0:
                smooth += w_dense[k, l] * (scaled[k] - scaled[l]) ** 2
    anchor = sum((c[k] - c0[k]) ** 2 for k in range(q))
    return mu * smooth + (1 - mu) * anchor


def brute_force_f1(predictions, truths) -> tuple[float, float]:
    """Metric oracle: explicit confusion matrix per class, pooled micro."""
    pairs = list(zip(predictions, truths))
    f1 = {}
    for cls in (1, -1):
        tp = sum(1 for p, t in pairs if p == cls and t == cls)
        fp = sum(1 for p, t in pairs if p == cls and t != cls)
        fn = sum(1 for p, t in pairs if p != cls and t == cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1[cls] = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    macro = (f1[1] + f1[-1]) / 2.0
    micro = sum(1 for p, t in pairs if p == t) / len(pairs)
    return macro, micro


def dense_pipeline_oracle(
    corpus: Corpus,
    train_rows,
    mu: float,
    k1: int,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
    per_post: bool = True,
    weighted: bool = True,
    use_closure: bool = True,
) -> dict[str, int]:
    """Independent end-to-end reimplementation with dense numpy and loops.

    Mirrors the whole pipeline (counts, normalization, power-sum closure,
    symmetric normalization, fixed-point iteration, sign prediction) so
    library predictions can be checked label-for-label.
    """
    vocab = list(corpus.vocabulary)
    index = {h: k for k, h in enumerate(vocab)}
    q = len(vocab)
    W = np.zeros((q, q))
    for item in corpus.news:
        for post in item.posts:
            tags = sorted(set(post.hashtags))
            for i in range(len(tags)):
                for j in range(i + 1, len(tags)):
                    a, b = index[tags[i]], index[tags[j]]
                    W[a, b] += 1
                    W[b, a] += 1
    if not weighted:
        W = (W > 0).astype(float)
    if W.sum() == 0:
        relation = np.zeros((q, q))
    else:
        N = W / W.sum(axis=1).max()
        relation = dense_power_sum(N, k1) if use_closure else N
    degrees = relation.sum(axis=1)
    inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.where(degrees > 0, degrees, 1.0)), 0.0)
    X = np.outer(inv_sqrt, inv_sqrt) * relation

    c0 = c0_oracle(corpus, train_rows, per_post)
    c = c0.copy()
    for _ in range(max_iterations):
        c_next = mu * (X @ c) + (1 - mu) * c0
        delta = np.max(np.abs(c_next - c)) if q else 0.0
        c = c_next
        if tolerance > 0 and delta < tolerance:
            break

    scores = score_oracle(corpus, c, per_post)
    return {news_id: (1 if s > 0 else -1) for news_id, s in scores.items()}


def _news_tags(item, per_post: bool) -> list[str]:
    tags = [h for post in item.posts for h in post.hashtags]
    return tags if per_post else list(dict.fromkeys(tags))


def c0_oracle(corpus: Corpus, train_rows, per_post: bool = True) -> np.ndarray:
    """Initial-credibility oracle: average training label per hashtag, by loops."""
    index = {h: k for k, h in enumerate(corpus.vocabulary)}
    num = np.zeros(len(index))
    den = np.zeros(len(index))
    for row in train_rows:
        item = corpus.news[row]
        for h in _news_tags(item, per_post):
            num[index[h]] += item.label
            den[index[h]] += 1
    return np.where(den > 0, num / np.maximum(den, 1), 0.0)


def score_oracle(corpus: Corpus, c, per_post: bool = True) -> dict[str, float]:
    """News-score oracle: sum of hashtag scores per news item, in stream order."""
    index = {h: k for k, h in enumerate(corpus.vocabulary)}
    scores = {}
    for item in corpus.news:
        total = 0.0
        for h in _news_tags(item, per_post):
            total += c[index[h]]
        scores[item.id] = float(total)
    return scores


def purity_oracle(corpus: Corpus) -> tuple[list[tuple], dict[str, int], int]:
    """Purity oracle: (rows, hashtag class tally, skipped news), by loops."""
    usage: dict[str, set[int]] = {}
    for item in corpus.news:
        if item.label is not None:
            for h in _news_tags(item, per_post=False):
                usage.setdefault(h, set()).add(item.label)
    classes = {
        h: "mixed" if len(labels) == 2 else ("fake_only" if -1 in labels else "true_only")
        for h, labels in usage.items()
    }
    rows, skipped = [], 0
    for item in corpus.news:
        if item.label is None:
            continue
        tags = _news_tags(item, per_post=False)
        if not tags:
            skipped += 1
            continue
        n = len(tags)
        fractions = [sum(classes[h] == cls for h in tags) / n for cls in ("fake_only", "true_only", "mixed")]
        rows.append((item.id, item.label, n, *fractions))
    tally = {cls: sum(v == cls for v in classes.values()) for cls in ("fake_only", "true_only", "mixed")}
    return rows, tally, skipped


def pair_count_oracle(corpus: Corpus) -> dict[tuple[str, str], int]:
    """Direct-graph oracle: enumerate unordered hashtag pairs per post."""
    counts: dict[tuple[str, str], int] = {}
    for item in corpus.news:
        for post in item.posts:
            tags = sorted(post.hashtags)
            for a in range(len(tags)):
                for b in range(a + 1, len(tags)):
                    key = (tags[a], tags[b])
                    counts[key] = counts.get(key, 0) + 1
    return counts
