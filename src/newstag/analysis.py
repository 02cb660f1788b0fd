"""Empirical analyses: hashtag purity, news popularity, case studies,
and convergence traces for both accumulation loops."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .corpus import FAKE, NO_TIME, TRUE, Corpus, normalize_hashtag
from .credibility import init_credibility, propagate_iterative, rescale_credibility
from .graph import RelationMatrix
from .harness import METHOD_NO_INDIRECT, ExperimentConfig, _split_with_retries, build_pipeline
from .harness import direct_relation, propagate

logger = logging.getLogger(__name__)

FAKE_ONLY = "fake_only"
TRUE_ONLY = "true_only"
MIXED = "mixed"


@dataclass(frozen=True)
class PurityRow:
    news_id: str
    label: int
    n_hashtags: int
    frac_fake_only: float
    frac_true_only: float
    frac_mixed: float


@dataclass(frozen=True)
class PurityReport:
    rows: tuple[PurityRow, ...]
    skipped_no_hashtags: int
    hashtag_classes: dict[str, int]  # class name -> number of hashtags


def purity_analysis(corpus: Corpus) -> PurityReport:
    """Per-news fractions of hashtags used only by fake, only by true,
    or by both credibility classes.

    A hashtag's class comes from the labels of the news items whose
    posts carry it; only labeled news enter the analysis.  News without
    hashtags have no defined proportion and are counted separately.
    The three fractions partition each news item's hashtag set.
    """
    occ = corpus.occurrences
    news, tag = occ.distinct
    label = occ.labels[news]
    news, tag, label = news[label != 0], tag[label != 0], label[label != 0]
    q = len(corpus.vocabulary)
    fake = np.bincount(tag[label == FAKE], minlength=q) > 0
    true = np.bincount(tag[label == TRUE], minlength=q) > 0
    # class column per hashtag: 0 fake only, 1 true only, 2 mixed
    cls = np.where(fake & true, 2, np.where(fake, 0, 1))
    counts = np.bincount(news * 3 + cls[tag], minlength=3 * len(corpus)).reshape(-1, 3)

    rows: list[PurityRow] = []
    skipped = 0
    for news_id, label, (n_fake, n_true, n_mixed) in zip(corpus.ids, occ.labels.tolist(), counts.tolist()):
        if not label:
            continue
        n = n_fake + n_true + n_mixed
        if not n:
            skipped += 1
            continue
        rows.append(
            PurityRow(
                news_id=news_id,
                label=label,
                n_hashtags=n,
                frac_fake_only=n_fake / n,
                frac_true_only=n_true / n,
                frac_mixed=n_mixed / n,
            )
        )
    tally = {
        FAKE_ONLY: int(np.sum(fake & ~true)),
        TRUE_ONLY: int(np.sum(true & ~fake)),
        MIXED: int(np.sum(fake & true)),
    }
    return PurityReport(rows=tuple(rows), skipped_no_hashtags=skipped, hashtag_classes=tally)


@dataclass(frozen=True)
class PopularityReport:
    checkpoints: tuple[float, ...]
    per_news: tuple[dict, ...]  # news_id, label, counts per checkpoint
    summary: tuple[dict, ...]  # checkpoint, label, quartile statistics
    excluded_no_publish_time: int
    dropped_untimed_posts: int


def popularity_analysis(corpus: Corpus, checkpoints_hours) -> PopularityReport:
    """Cumulative post counts per labeled news at fixed hours after publish.

    News without a publish time (and posts without a creation time) are
    excluded and counted.  The summary carries boxplot-ready statistics
    per class and checkpoint.
    """
    checkpoints = tuple(sorted(float(c) for c in checkpoints_hours))
    if not checkpoints or not all(0 < c < math.inf for c in checkpoints):
        raise ValueError("checkpoints must be positive finite hours")
    occ = corpus.occurrences
    labeled = occ.labels != 0
    timed = corpus.published != NO_TIME
    rows = np.flatnonzero(labeled & timed)
    post_row = np.repeat(np.arange(len(corpus)), occ.post_count)
    of_rows = (labeled & timed)[post_row]
    posts = np.flatnonzero(of_rows & (corpus.created != NO_TIME))
    # hours after publish as timedelta.total_seconds() / 3600 computes them
    gaps = (corpus.created[posts] - corpus.published[post_row[posts]]).tolist()
    offsets = np.array([gap / 1_000_000 for gap in gaps], dtype=np.float64) / 3600.0
    counts = np.column_stack(
        [np.bincount(post_row[posts[offsets <= cp]], minlength=len(corpus))[rows] for cp in checkpoints]
    )
    labels = occ.labels[rows]
    per_news = [
        {"news_id": corpus.ids[row], "label": label, "counts": row_counts}
        for row, label, row_counts in zip(rows.tolist(), labels.tolist(), counts.tolist())
    ]
    excluded = int(np.count_nonzero(labeled & ~timed))
    dropped_posts = int(np.count_nonzero(of_rows)) - len(posts)

    summary: list[dict] = []
    for idx, cp in enumerate(checkpoints):
        for label in (-1, 1):
            values = counts[labels == label, idx].astype(np.float64)  # summed as a float list would be
            stats = {"n": values.size, "min": 0.0, "q1": 0.0, "median": 0.0, "q3": 0.0, "max": 0.0, "mean": 0.0}
            if values.size:
                stats["q1"], stats["median"], stats["q3"] = np.percentile(values, [25, 50, 75]).tolist()
                stats.update(min=float(values.min()), max=float(values.max()), mean=float(values.mean()))
            summary.append({"checkpoint_hours": cp, "label": label, **stats})
    return PopularityReport(
        checkpoints=checkpoints,
        per_news=tuple(per_news),
        summary=tuple(summary),
        excluded_no_publish_time=excluded,
        dropped_untimed_posts=dropped_posts,
    )


@dataclass(frozen=True)
class CaseStudyRow:
    hashtag: str
    status: str  # "ok" or "absent"
    c_star: float | None
    c_hat_rescaled: float | None


def case_study(corpus: Corpus, config: ExperimentConfig, watchlist) -> tuple[CaseStudyRow, ...]:
    """All-data credibility versus trained-and-rescaled estimates for a
    watchlist of hashtags (e.g. conspiracy-theory tags).

    ``c_star`` averages labels over every labeled news item; the
    estimate comes from one trained pipeline run at ``config.seed`` and
    is rescaled to [-1, 1] for comparability.  Watchlist entries are
    normalized before lookup; absent hashtags are marked as such.  Both
    read the working corpus, cut at the config's time horizon if any.
    """
    config.validate()
    ops = build_pipeline(corpus, config)
    corpus = ops.corpus
    index = corpus.vocab_index

    c_star = init_credibility(corpus, np.flatnonzero(corpus.occurrences.labels), per_post=ops.per_post)

    train, _, _ = _split_with_retries(corpus, config.train_fraction, config.seed)
    c0 = init_credibility(corpus, train, per_post=ops.per_post)
    c_hat = rescale_credibility(propagate(ops, c0, config.mu, config))

    rows = []
    for raw in watchlist:
        name = normalize_hashtag(raw)
        if name is None or name not in index:
            rows.append(CaseStudyRow(hashtag=name or raw, status="absent", c_star=None, c_hat_rescaled=None))
            continue
        k = index[name]
        rows.append(
            CaseStudyRow(
                hashtag=name,
                status="ok",
                c_star=float(c_star[k]),
                c_hat_rescaled=float(c_hat[k]),
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class ConvergenceTrace:
    closure_residuals: tuple[float, ...]  # per accumulated power term
    propagation_residuals: tuple[float, ...]  # per fixed-point iteration


def _frobenius(M: np.ndarray) -> float:
    return math.sqrt(np.einsum("ij,ij->", M, M))


def _closure_residuals(N: RelationMatrix, k1: int) -> tuple[float, ...]:
    """Frobenius norm of each term of ``N + ... + N^k1`` relative to the
    partial sum that ends with it (nonzero: N has an edge, all terms >= 0)."""
    power = N.values.toarray()
    total = power.copy()
    residuals = [1.0]
    for _ in range(2, k1 + 1):
        power = N.values @ power
        total += power
        residuals.append(_frobenius(power) / _frobenius(total))
    return tuple(residuals)


def convergence_trace(corpus: Corpus, config: ExperimentConfig) -> ConvergenceTrace:
    """Residual series for both loops of the pipeline ``config`` selects.

    The closure loop, summed here a second time as a plain power series,
    reports the Frobenius norm of each added power term relative to the
    accumulated sum; the propagation loop reports the max-norm change
    per iteration.  With tolerance 0 both series have exactly as many
    rows as their iteration caps.  Methods without a closure
    (``newstag_no_indirect``, or any edgeless corpus) report no closure
    rows.  The config's time horizon, if any, applies as in
    :func:`newstag.harness.run_experiment`, and propagation runs over the
    operator :func:`newstag.harness.build_pipeline` returns (a dense
    array or CSR; the residuals do not depend on which beyond rounding).
    """
    config.validate()
    ops = build_pipeline(corpus, config)
    train, _, _ = _split_with_retries(ops.corpus, config.train_fraction, config.seed)
    c0 = init_credibility(ops.corpus, train, per_post=ops.per_post)
    _, residuals = propagate_iterative(ops.X, c0, config.mu, config.propagation)
    N = direct_relation(ops.corpus, config.method)
    closure = _closure_residuals(N, config.k1) if config.method != METHOD_NO_INDIRECT and N.n_edges else ()
    return ConvergenceTrace(closure_residuals=closure, propagation_residuals=tuple(residuals))
