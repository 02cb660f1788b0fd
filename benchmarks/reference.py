"""Independent reference for the benchmark's correctness check.

Recomputes a job's results from the input file alone, with none of
newstag's code: its own JSONL reader, co-occurrence counts, closure,
symmetric normalization, split protocol, propagation and F1.  Up to
``DENSE_MAX_Q`` hashtags the relation matrices are dense NumPy arrays
and the closure is the Horner form ``S <- N S + N``; above it they are
SciPy sparse and only the direct relation is supported.  Initial
credibility and news scores are accumulated with ``np.add.at``.

Every repetition (or grid point) is one column of a block iteration
``C <- mu X C + (1 - mu) C0`` that freezes each column at the step where
its max-norm change first drops below the tolerance, which is the
program's per-propagation stopping rule.
"""

from __future__ import annotations

import csv
import json
import math
import unicodedata

import numpy as np
import scipy.sparse as sp

DENSE_MAX_Q = 3000
SCORE_TOL = 1e-9  # predictions: absolute score difference allowed
METRIC_TOL = 1e-12  # F1 values computed from identical labels
MAX_SPLIT_ATTEMPTS = 100
RESAMPLE_STRIDE = 7919
INNER_SPLIT_OFFSET = 104729


def normalize_tag(raw: str) -> str:
    s = unicodedata.normalize("NFKC", unicodedata.normalize("NFKC", raw).casefold())
    return s.strip().lstrip("#").strip()


class Corpus:
    """News ids, labels and per-post hashtag indices (first-appearance vocabulary)."""

    def __init__(self, path: str) -> None:
        vocab: dict[str, int] = {}
        self.ids: list[str] = []
        self.labels: list[int | None] = []
        self.posts: list[list[tuple[int, ...]]] = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                record = json.loads(line)
                posts = []
                for post in record["posts"]:
                    tags: dict[int, None] = {}
                    for raw in post["hashtags"]:
                        name = normalize_tag(raw)
                        if name:
                            tags.setdefault(vocab.setdefault(name, len(vocab)))
                    posts.append(tuple(tags))
                self.ids.append(record["id"])
                self.labels.append(record["label"])
                self.posts.append(posts)
        self.q = len(vocab)
        self.n_posts = sum(len(p) for p in self.posts)
        # one entry per (news, post, hashtag) occurrence
        occ = [(i, h) for i, posts in enumerate(self.posts) for tags in posts for h in tags]
        self.occ_news = np.array([i for i, _ in occ], dtype=np.int64)
        self.occ_tag = np.array([h for _, h in occ], dtype=np.int64)
        self.label_array = np.array([0 if lab is None else lab for lab in self.labels], dtype=np.int64)

    def labeled(self) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if lab is not None]


def operator(corpus: Corpus, method: str, k1: int) -> tuple[object, dict]:
    """Symmetrically normalized relation matrix plus its structural counts."""
    if method not in ("newstag", "newstag_no_indirect"):
        raise ValueError(f"reference does not cover method {method!r}")
    rows, cols = [], []
    for posts in corpus.posts:
        for tags in posts:
            ids = sorted(tags)
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    rows.append(ids[a])
                    cols.append(ids[b])
    q = corpus.q
    upper = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(q, q)).tocsr()
    if upper.nnz == 0:
        raise ValueError("reference needs a graph with edges")
    W = (upper + upper.T).tocsr()
    N = W / float(W.sum(axis=1).max())
    counts = {"q": q, "edges": upper.nnz}
    if q <= DENSE_MAX_Q:
        N = N.toarray()
        S = N
        if method == "newstag":
            for _ in range(k1 - 1):
                S = N @ S + N
            counts["closure_nnz"] = int(np.count_nonzero(S))
        d = S.sum(axis=1)
        inv = np.where(d > 0, 1.0 / np.sqrt(np.maximum(d, 1e-300)), 0.0)
        X = inv[:, None] * S * inv[None, :]
        counts["operator_nnz"] = int(np.count_nonzero(X))
    else:
        if method == "newstag":
            raise ValueError(f"reference closure is dense-only (q <= {DENSE_MAX_Q}), got q={q}")
        d = np.asarray(N.sum(axis=1)).ravel()
        inv = np.where(d > 0, 1.0 / np.sqrt(np.maximum(d, 1e-300)), 0.0)
        X = (sp.diags(inv) @ N @ sp.diags(inv)).tocsr()
        X.eliminate_zeros()
        counts["operator_nnz"] = X.nnz
    return X, counts


def split(labeled: list[int], labels: list, train_fraction: float, seed: int) -> tuple[list[int], list[int], int]:
    """Seeded train/test split, resampled until test holds both classes."""
    n = len(labeled)
    for attempt in range(MAX_SPLIT_ATTEMPTS):
        split_seed = seed + RESAMPLE_STRIDE * attempt
        order = np.random.default_rng(split_seed).permutation(n)
        chosen = {labeled[i] for i in order[: int(n * train_fraction)]}
        train = [i for i in labeled if i in chosen]
        test = [i for i in range(len(labels)) if i not in chosen]
        if train and {labels[i] for i in test if labels[i] is not None} == {-1, 1}:
            return train, test, split_seed
    raise ValueError("no usable split")


def initial_credibility(corpus: Corpus, train: list[int]) -> np.ndarray:
    """Per-post weighted average training label per hashtag."""
    in_train = np.zeros(len(corpus.ids), dtype=bool)
    in_train[train] = True
    mask = in_train[corpus.occ_news]
    num = np.zeros(corpus.q, dtype=np.int64)
    den = np.zeros(corpus.q, dtype=np.int64)
    np.add.at(num, corpus.occ_tag[mask], corpus.label_array[corpus.occ_news[mask]])
    np.add.at(den, corpus.occ_tag[mask], 1)
    return np.where(den > 0, num / np.maximum(den, 1), 0.0)


def propagate(X, C0: np.ndarray, mus: np.ndarray, tolerance: float, max_iterations: int):
    """Column-wise fixed-point iteration with per-column stopping; returns (C, iterations)."""
    C = C0.copy()
    anchor = (1.0 - mus) * C0
    active = np.ones(C0.shape[1], dtype=bool)
    iterations = np.zeros(C0.shape[1], dtype=np.int64)
    for _ in range(max_iterations):
        cols = np.flatnonzero(active)
        if cols.size == 0:
            break
        nxt = mus[cols] * np.asarray(X @ C[:, cols]) + anchor[:, cols]
        delta = np.max(np.abs(nxt - C[:, cols]), axis=0)
        C[:, cols] = nxt
        iterations[cols] += 1
        if tolerance > 0.0:
            active[cols[delta < tolerance]] = False
    return C, [int(n) for n in iterations]


def news_scores(corpus: Corpus, C: np.ndarray) -> np.ndarray:
    """Per-post hashtag credibility sums for every news item, one column per C column."""
    out = np.zeros((len(corpus.ids), C.shape[1]))
    np.add.at(out, corpus.occ_news, C[corpus.occ_tag])
    return out


def f1(preds: list[int], truths: list[int]) -> tuple[float, float, dict]:
    c = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for p, t in zip(preds, truths):
        c[("t" if p == t else "f") + ("p" if p == 1 else "n")] += 1

    def class_f1(tp, fp, fn):
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        return 2 * prec * rec / (prec + rec) if prec + rec else 0.0

    macro = (class_f1(c["tp"], c["fp"], c["fn"]) + class_f1(c["tn"], c["fn"], c["fp"])) / 2.0
    return macro, (c["tp"] + c["tn"]) / len(preds), c


def mean_std(xs: list[float]) -> tuple[float, float]:
    m = float(sum(xs) / len(xs))
    if len(xs) < 2:
        return m, 0.0
    return m, math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


def reference_run(corpus: Corpus, p: dict) -> dict:
    """Expected results of ``newstag run`` with protocol ``p``."""
    X, counts = operator(corpus, p["method"], p["k1"])
    labeled = corpus.labeled()
    splits = [split(labeled, corpus.labels, p["train_fraction"], p["seed"] ^ r) for r in range(p["repetitions"])]
    C0 = np.column_stack([initial_credibility(corpus, train) for train, _, _ in splits])
    C, iters = propagate(X, C0, np.full(len(splits), p["mu"]), p["tolerance"], p["max_iterations"])
    scores = news_scores(corpus, C)
    reps = []
    for r, (train, test, split_seed) in enumerate(splits):
        labeled_test = [i for i in test if corpus.labels[i] is not None]
        preds = [1 if scores[i, r] > 0.0 else -1 for i in labeled_test]
        macro, micro, conf = f1(preds, [corpus.labels[i] for i in labeled_test])
        reps.append(
            {"split_seed": split_seed, "n_train": len(train), "n_test_labeled": len(labeled_test),
             "macro_f1": macro, "micro_f1": micro, "confusion": conf}
        )
    _, test0, _ = splits[0]
    predictions = {corpus.ids[i]: (1 if scores[i, 0] > 0.0 else -1, float(scores[i, 0])) for i in test0}
    counts["propagate_iters"] = iters
    return {"repetitions": reps, "predictions": predictions, "counters": counts,
            "macro_f1_mean": mean_std([r["macro_f1"] for r in reps])[0]}


def reference_grid(corpus: Corpus, p: dict) -> dict:
    """Expected rows of ``newstag grid-mu`` with protocol ``p``."""
    X, counts = operator(corpus, p["method"], p["k1"])
    labeled = corpus.labeled()
    folds = []
    for r in range(p["repetitions"]):
        train, _, split_seed = split(labeled, corpus.labels, p["train_fraction"], p["seed"] ^ r)
        order = np.random.default_rng(split_seed + INNER_SPLIT_OFFSET).permutation(len(train))
        val_set = {train[i] for i in order[: max(1, int(0.1 * len(train)))]}
        folds.append(([i for i in train if i not in val_set], [i for i in train if i in val_set]))
    grid = sorted(set(p["grid"]))
    C0 = np.column_stack([initial_credibility(corpus, inner) for inner, _ in folds])
    # columns ordered mu-major, fold-minor: the order the program propagates in
    C0 = np.tile(C0, (1, len(grid)))
    mus = np.repeat(np.array(grid), len(folds))
    C, iters = propagate(X, C0, mus, p["tolerance"], p["max_iterations"])
    scores = news_scores(corpus, C)
    rows = []
    for g, mu in enumerate(grid):
        macros, micros = [], []
        for f, (_, val) in enumerate(folds):
            col = g * len(folds) + f
            preds = [1 if scores[i, col] > 0.0 else -1 for i in val]
            macro, micro, _ = f1(preds, [corpus.labels[i] for i in val])
            macros.append(macro)
            micros.append(micro)
        micro_mean, micro_std = mean_std(micros)
        macro_mean, macro_std = mean_std(macros)
        rows.append({"mu": mu, "micro_f1_mean": micro_mean, "micro_f1_std": micro_std,
                     "macro_f1_mean": macro_mean, "macro_f1_std": macro_std})
    best = max(range(len(rows)), key=lambda k: (rows[k]["micro_f1_mean"], -k))
    for k, row in enumerate(rows):
        row["best"] = int(k == best)
    counts["propagate_iters"] = iters
    return {"rows": rows, "counters": counts, "macro_f1_mean": rows[best]["macro_f1_mean"]}


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check_run(expected: dict, report_path: str, predictions_path: str) -> list[str]:
    """Mismatches between a ``run`` job's artifacts and the reference."""
    problems = []
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    got = report["repetitions"]
    if len(got) != len(expected["repetitions"]):
        return [f"report has {len(got)} repetitions, expected {len(expected['repetitions'])}"]
    for r, (g, e) in enumerate(zip(got, expected["repetitions"])):
        for key in ("split_seed", "n_train", "n_test_labeled", "confusion"):
            if g[key] != e[key]:
                problems.append(f"repetition {r}: {key} {g[key]!r} != reference {e[key]!r}")
        for key in ("macro_f1", "micro_f1"):
            if not _close(g[key], e[key], METRIC_TOL):
                problems.append(f"repetition {r}: {key} {g[key]!r} != reference {e[key]!r}")
    if not _close(report["aggregate"]["macro_f1_mean"], expected["macro_f1_mean"], METRIC_TOL):
        problems.append("aggregate macro_f1_mean differs from the reference")
    with open(predictions_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    seen = {row["news_id"]: (int(row["predicted_label"]), float(row["score"])) for row in rows}
    if set(seen) != set(expected["predictions"]):
        problems.append("predicted news ids differ from the reference test side")
    else:
        for news_id, (label, score) in expected["predictions"].items():
            got_label, got_score = seen[news_id]
            if got_label != label:
                problems.append(f"{news_id}: label {got_label} != reference {label}")
            if not _close(got_score, score, SCORE_TOL):
                problems.append(f"{news_id}: score {got_score!r} differs from reference {score!r} by more than {SCORE_TOL}")
    return problems[:10]


def check_grid(expected: dict, grid_path: str) -> list[str]:
    """Mismatches between a ``grid-mu`` job's table and the reference."""
    with open(grid_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(expected["rows"]):
        return [f"grid has {len(rows)} rows, expected {len(expected['rows'])}"]
    problems = []
    for got, want in zip(rows, expected["rows"]):
        for key in ("mu", "micro_f1_mean", "micro_f1_std", "macro_f1_mean", "macro_f1_std"):
            if not _close(float(got[key]), want[key], METRIC_TOL):
                problems.append(f"mu {want['mu']}: {key} {got[key]} != reference {want[key]!r}")
        if int(got["best"]) != want["best"]:
            problems.append(f"mu {want['mu']}: best flag {got['best']} != reference {want['best']}")
    return problems[:10]


def macro_f1_of(subcommand: str, artifacts: list[str]) -> float:
    """The job's headline macro F1, read from its own output file."""
    if subcommand == "run":
        with open(artifacts[0], encoding="utf-8") as fh:
            return float(json.load(fh)["aggregate"]["macro_f1_mean"])
    with open(artifacts[0], encoding="utf-8", newline="") as fh:
        best = [row for row in csv.DictReader(fh) if row["best"] == "1"]
    return float(best[0]["macro_f1_mean"])
