"""End-to-end experiment orchestration: splits, pipelines, metrics, sweeps.

The pipeline is transductive: the hashtag graph is built over all news
(labels withheld), while the initial credibility comes from training
labels only.  Graph construction, normalization, closure and the
propagation operator are split-independent, so they are computed once
per corpus and reused across repetitions and grid points, and by
adjacent :func:`sweep` rows with equal method and ``k1`` whose time
horizons keep the same posts.
Every experiment propagates its training sides through :func:`_panels`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields, asdict

import numpy as np
import scipy.sparse as sp

from .corpus import MAX_SPAN_HOURS, Corpus, draw_rows, filter_by_time, posts_within, split_corpus
from .credibility import (
    PowerSeries,
    PropagationConfig,
    MODE_CLOSED_FORM,
    RowBlocks,
    init_credibility,
    propagate_closed_form,
    propagate_iterative,
    score_news,
    sign_labels,
    symmetric_normalize,
)
from .graph import MAX_K1, RelationMatrix, all_relations_truncated, build_direct_graph, normalize

logger = logging.getLogger(__name__)

METHOD_NEWSTAG = "newstag"
METHOD_NO_INDIRECT = "newstag_no_indirect"
METHOD_UNWEIGHTED = "newstag_unweighted"
METHODS = (METHOD_NEWSTAG, METHOD_NO_INDIRECT, METHOD_UNWEIGHTED)

MAX_SPLIT_ATTEMPTS = 100
_RESAMPLE_STRIDE = 7919  # deterministic seed offset between split attempts

# Most repeated splits one experiment may run; each repetition is one
# propagation of at most ``MAX_ITERATIONS`` steps.
MAX_REPETITIONS = 1_000

# Most bytes one power-series panel may hold (``PowerSeries.storage_bytes``
# per column, counted at the peak of a step: c0, an iterate per mu, X^k c0
# and the next product, the step's change, a scratch column and a trace of
# max_iterations residual factors).  ``_panels`` runs every experiment's
# training sides in panels of as many columns over every mu as fit, at least
# one, and each mu as its own pass when one column over every mu does not,
# so only a single column at a single mu can exceed it.  Results are the
# same either way (bitwise on a CSR operator), so the flag caps
# (MAX_REPETITIONS, the CLI's MAX_GRID values, MAX_ITERATIONS steps) cannot
# exhaust memory.  The 64 MiB is a chosen guard, not a measured optimum:
# every benchmark job is one panel (10 columns of 94.5 kB in grid-mu-800,
# of 1.44 MB in no-indirect-30k), so only the tests exercise smaller ones.
SHARED_SERIES_BYTES = 64 << 20


class HarnessError(RuntimeError):
    """Raised for unrecoverable experiment conditions (degenerate splits)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol knobs; defaults mirror the published setup."""

    method: str = METHOD_NEWSTAG
    mu: float = 0.4
    k1: int = 10
    propagation: PropagationConfig = field(default_factory=PropagationConfig)
    train_fraction: float = 0.8
    time_horizon_hours: float | None = None
    seed: int = 0
    repetitions: int = 10

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must be in (0,1)")
        if self.k1 < 1:
            raise ValueError(f"k1 must be >= 1, got {self.k1}")
        if self.k1 > MAX_K1:
            raise ValueError(f"k1 must be at most {MAX_K1}, got {self.k1}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0,1), got {self.train_fraction}")
        if self.time_horizon_hours is not None and not 0 < self.time_horizon_hours <= MAX_SPAN_HOURS:
            raise ValueError(f"time_horizon_hours must be positive and at most {MAX_SPAN_HOURS} hours")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 1 <= self.repetitions <= MAX_REPETITIONS:
            raise ValueError(f"repetitions must be >= 1 and at most {MAX_REPETITIONS}, got {self.repetitions}")
        self.propagation.validate()

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RepetitionResult:
    repetition: int
    split_seed: int
    n_train: int
    n_test_labeled: int
    n_test_empty: int
    macro_f1: float
    micro_f1: float
    confusion: dict[str, int]
    predictions: dict[str, tuple[int, float]] | None = None


@dataclass(frozen=True)
class MetricsReport:
    method: str
    config: dict
    repetitions: tuple[RepetitionResult, ...]
    macro_f1_mean: float
    macro_f1_std: float
    micro_f1_mean: float
    micro_f1_std: float
    confusion_total: dict[str, int]

    def to_dict(self) -> dict:
        """The report as JSON: each repetition without its predictions,
        then the aggregate fields."""
        head = ("method", "config", "repetitions")
        return {
            "method": self.method,
            "config": self.config,
            "aggregate": _fields(self, skip=head),
            "repetitions": [_fields(rep, skip=("predictions",)) for rep in self.repetitions],
        }


def _fields(record, skip: tuple[str, ...]) -> dict:
    return {f.name: getattr(record, f.name) for f in fields(record) if f.name not in skip}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def confusion_counts(predictions, truths) -> dict[str, int]:
    """Binary confusion counts with +1 as the positive class."""
    pred = np.asarray(predictions) == 1
    truth = np.asarray(truths) == 1
    if pred.shape != truth.shape:
        raise ValueError("predictions and truths must be equal-length")
    return {
        "tp": int(np.count_nonzero(pred & truth)),
        "fp": int(np.count_nonzero(pred & ~truth)),
        "tn": int(np.count_nonzero(~pred & ~truth)),
        "fn": int(np.count_nonzero(~pred & truth)),
    }


def _class_f1(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def compute_f1(predictions, truths) -> tuple[float, float]:
    """(macro F1, micro F1) for labels in {-1, +1}.

    Macro averages the two per-class F1 scores; a class absent from both
    predictions and truths contributes 0.  Micro pools counts over both
    classes, which for single-label binary classification equals
    accuracy.
    """
    predictions = np.asarray(predictions)
    truths = np.asarray(truths)
    if not predictions.size or predictions.shape != truths.shape:
        raise ValueError("predictions and truths must be equal-length and nonempty")
    values = np.concatenate((predictions.ravel(), truths.ravel()))
    bad = values[(values != 1) & (values != -1)]
    if bad.size:
        raise ValueError(f"labels must be -1 or +1, got {bad.tolist()[0]!r}")
    c = confusion_counts(predictions, truths)
    f1_pos = _class_f1(c["tp"], c["fp"], c["fn"])
    f1_neg = _class_f1(c["tn"], c["fn"], c["fp"])
    macro = (f1_pos + f1_neg) / 2.0
    # Pooled micro precision equals pooled recall here (every item gets
    # exactly one prediction), so micro F1 reduces to a single division.
    pooled_tp = c["tp"] + c["tn"]
    micro = pooled_tp / predictions.size
    return macro, micro


# ---------------------------------------------------------------------------
# Pipeline plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineOperators:
    """Split-independent artifacts shared across repetitions.

    ``corpus`` is the working corpus: the input cut at the config's time
    horizon, if any.  Splits, ``c0`` and scores read it, and its
    vocabulary indexes ``X``.  ``X`` is the propagation operator, a
    dense q x q array when that is no larger than its CSR form, else CSR.
    """

    corpus: Corpus
    X: sp.csr_matrix | np.ndarray
    per_post: bool


def direct_relation(corpus: Corpus, method: str) -> RelationMatrix:
    """Normalized co-occurrence counts, or 0/1 indicators for ``newstag_unweighted``."""
    return normalize(build_direct_graph(corpus, weighted=method != METHOD_UNWEIGHTED))


def build_pipeline(corpus: Corpus, config: ExperimentConfig) -> PipelineOperators:
    """Working corpus, graph, closure, and propagation operator.

    The optional time horizon filters the whole corpus (train and test
    alike) before graph construction.  An edgeless graph (or an empty
    vocabulary) gets an all-zero operator and no closure: propagation
    then anchors every hashtag at (1 - mu) * c0, and hashtag-free
    corpora stay predictable.

    The operator is kept as a dense array whenever that takes no more
    bytes than its CSR form, as the closure of a connected graph does:
    each propagation step of a panel is then one BLAS matrix-matrix
    product instead of a walk over CSR indices.  The relation it is
    built from is released first.
    """
    if config.time_horizon_hours is not None:
        corpus = filter_by_time(corpus, config.time_horizon_hours)
    relation = direct_relation(corpus, config.method)
    if config.method != METHOD_NO_INDIRECT and relation.n_edges:
        relation = all_relations_truncated(relation, config.k1)
    X, _ = symmetric_normalize(relation)
    del relation
    if X.shape[0] ** 2 * X.dtype.itemsize <= X.data.nbytes + X.indices.nbytes + X.indptr.nbytes:
        X = X.toarray()
    return PipelineOperators(corpus=corpus, X=X, per_post=config.method != METHOD_UNWEIGHTED)


def propagate(
    ops: PipelineOperators, c0: np.ndarray, mu: float, config: ExperimentConfig, series: PowerSeries | None = None
) -> np.ndarray:
    """Propagate ``c0`` at ``mu`` with ``config``'s solver; an iterative ``series`` shares its products across mu."""
    if config.propagation.mode == MODE_CLOSED_FORM:
        return propagate_closed_form(ops.X, c0, mu)
    c_hat, _ = propagate_iterative(ops.X, c0, mu, config.propagation, series=series)
    return c_hat


def _split_with_retries(
    corpus: Corpus, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Seeded split, resampled until train has labels and test has both classes."""
    labels = corpus.occurrences.labels
    for attempt in range(MAX_SPLIT_ATTEMPTS):
        split_seed = seed + _RESAMPLE_STRIDE * attempt
        train, test = split_corpus(corpus, train_fraction, split_seed)
        if train.size and -1 in labels[test] and 1 in labels[test]:
            return train, test, split_seed
    raise HarnessError(
        f"no usable split after {MAX_SPLIT_ATTEMPTS} attempts "
        "(need labeled training items and both classes in test)"
    )


def run_experiment(
    corpus: Corpus,
    config: ExperimentConfig,
    collect_predictions: bool = False,
) -> MetricsReport:
    """Repeated split/train/predict/score runs on one corpus.

    Splits and scores read the working corpus of :func:`build_pipeline`.
    Each repetition derives its split seed as ``seed ^ repetition`` and
    is resampled (deterministically) if the test side lacks a class.
    Metrics cover labeled test items; news left without posts by the
    time filter still get predicted (score 0, hence -1) and are
    additionally counted per repetition.
    """
    config.validate()
    return _run_repetitions(build_pipeline(corpus, config), config, collect_predictions)


def _run_repetitions(
    ops: PipelineOperators, config: ExperimentConfig, collect_predictions: bool = False
) -> MetricsReport:
    """The repetitions of :func:`run_experiment` over built operators.

    Every split is drawn first; the :func:`_panels` of their training sides
    then run on a :class:`RowBlocks` pool that ends with this call.
    """
    splits = [
        _split_with_retries(ops.corpus, config.train_fraction, config.seed ^ rep)
        for rep in range(config.repetitions)
    ]
    reps: list[RepetitionResult] = []
    with RowBlocks() as blocks:
        for start, _, scores in _panels(ops, config, [train for train, _, _ in splits], (config.mu,), blocks):
            for split, column in zip(splits[start:], scores.T):
                reps.append(_repetition(ops, len(reps), split, column, collect_predictions))
    total = {key: sum(rep.confusion[key] for rep in reps) for key in ("tp", "fp", "tn", "fn")}

    macros = [r.macro_f1 for r in reps]
    micros = [r.micro_f1 for r in reps]
    return MetricsReport(
        method=config.method,
        config=config.to_dict(),
        repetitions=tuple(reps),
        macro_f1_mean=_mean(macros),
        macro_f1_std=_sample_std(macros),
        micro_f1_mean=_mean(micros),
        micro_f1_std=_sample_std(micros),
        confusion_total=total,
    )


def _panels(ops: PipelineOperators, config: ExperimentConfig, sides: list, mus, blocks: RowBlocks):
    """Yield ``(start, mu, scores)`` for every ``mu`` of ``mus``: the news x m
    scores of the panel of training ``sides`` from ``start``, propagated at ``mu``.

    A panel holds as many sides as one :class:`PowerSeries` over every
    ``mu`` fits in ``SHARED_SERIES_BYTES``, and at least one; past that,
    each ``mu`` runs as its own pass over the panels.  A panel takes one
    ``init_credibility`` call and, mu by mu, one ``propagate`` call per
    column (an iterative panel shares one series) and one ``score_news``
    call, on ``blocks``; its series and ``c0`` go before its last scores.
    """
    q, cap = ops.X.shape[0], config.propagation.max_iterations
    fits = PowerSeries.storage_bytes(q, len(mus), cap) <= SHARED_SERIES_BYTES
    passes = [tuple(mus)] if fits else [(mu,) for mu in mus]
    width = max(1, SHARED_SERIES_BYTES // PowerSeries.storage_bytes(q, len(passes[0]), cap))
    iterative = config.propagation.mode != MODE_CLOSED_FORM
    for values in passes:
        for start in range(0, len(sides), width):
            c0 = init_credibility(ops.corpus, sides[start:start + width], per_post=ops.per_post)
            columns = list(c0.T)
            series = PowerSeries(ops.X, columns, values, config.propagation, blocks) if iterative else None
            for v, mu in enumerate(values):
                c_hat = np.empty((q, len(columns)))
                for j, column in enumerate(columns):
                    c_hat[:, j] = propagate(ops, column, mu, config, series)
                if v == len(values) - 1:
                    del c0, columns, series  # before scoring and before the next panel is built
                scores = score_news(ops.corpus, c_hat, per_post=ops.per_post, blocks=blocks)
                del c_hat
                yield start, mu, scores


def _repetition(
    ops: PipelineOperators,
    rep: int,
    split: tuple[np.ndarray, np.ndarray, int],
    scores: np.ndarray,
    collect_predictions: bool,
) -> RepetitionResult:
    """Label one repetition's news rows from their ``scores`` and score its test side."""
    occ = ops.corpus.occurrences
    train, test, split_seed = split
    predicted = sign_labels(scores)
    labeled_test = test[occ.labels[test] != 0]
    preds = predicted[labeled_test]
    truths = occ.labels[labeled_test]
    macro, micro = compute_f1(preds, truths)
    predictions = None
    if collect_predictions:
        ids = [ops.corpus.ids[r] for r in test.tolist()]
        predictions = dict(zip(ids, zip(predicted[test].tolist(), scores[test].tolist())))
    return RepetitionResult(
        repetition=rep,
        split_seed=split_seed,
        n_train=len(train),
        n_test_labeled=len(labeled_test),
        n_test_empty=int(np.count_nonzero(occ.post_count[test] == 0)),
        macro_f1=macro,
        micro_f1=micro,
        confusion=confusion_counts(preds, truths),
        predictions=predictions,
    )


def _mean(xs) -> float:
    return float(sum(xs) / len(xs))


def _sample_std(xs) -> float:
    # Sample std over repetitions; a single repetition has no spread.
    if len(xs) < 2:
        return 0.0
    m = _mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


# ---------------------------------------------------------------------------
# Grid search and sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSearchResult:
    best_mu: float
    rows: tuple[dict, ...]  # per grid value: mu + validation F1 stats


def grid_search_mu(corpus: Corpus, config: ExperimentConfig, grid) -> GridSearchResult:
    """Pick mu by micro F1 on an inner validation split (10% of training).

    Grid values outside (0, 1) are dropped with a warning since the
    regularizer is only defined on the open interval.  Ties break toward
    the smaller mu.  The folds' inner training sides run as the
    :func:`_panels` of the grid: one panel, mu-major over all folds, at
    every benchmark size.
    """
    config.validate()
    usable = sorted({float(g) for g in grid if 0.0 < float(g) < 1.0})
    dropped = sorted({float(g) for g in grid} - set(usable))
    if dropped:
        logger.warning("grid values outside (0,1) dropped: %s", dropped)
    if not usable:
        raise ValueError("mu grid is empty after restricting to (0,1)")

    # Pipeline operators do not depend on mu; build them once.
    ops = build_pipeline(corpus, config)
    labels = ops.corpus.occurrences.labels

    # Inner splits, and the c0 panel they train, are shared across grid
    # values so scores are comparable; c0 does not depend on mu.
    folds: list[tuple[np.ndarray, np.ndarray]] = []
    for rep in range(config.repetitions):
        train, _, split_seed = _split_with_retries(
            ops.corpus, config.train_fraction, config.seed ^ rep
        )
        if len(train) < 2:
            raise HarnessError("training side too small for an inner validation split")
        folds.append(draw_rows(train, max(1, int(0.1 * len(train))), split_seed + 104729))

    f1 = {mu: [] for mu in usable}  # per mu: (macro, micro) F1 of each fold, in fold order
    with RowBlocks() as blocks:
        for start, mu, scores in _panels(ops, config, [inner_train for _, inner_train in folds], usable, blocks):
            for (val, _), predicted in zip(folds[start:], sign_labels(scores).T):
                f1[mu].append(compute_f1(predicted[val], labels[val]))
    rows = []
    for mu, per_fold in f1.items():
        macros, micros = zip(*per_fold)
        rows.append({
            "mu": mu,
            "micro_f1_mean": _mean(micros),
            "micro_f1_std": _sample_std(micros),
            "macro_f1_mean": _mean(macros),
            "macro_f1_std": _sample_std(macros),
        })
    best = max(rows, key=lambda row: row["micro_f1_mean"])  # the first, so the smallest mu, of a tie
    return GridSearchResult(best_mu=best["mu"], rows=tuple(rows))


def sweep(corpus: Corpus, rows) -> list[tuple[str, MetricsReport]]:
    """:func:`run_experiment` per ``(name, config)`` row, in order.

    Every config is validated before the first pipeline is built.  A row
    builds one only when its method, ``k1`` or the number of posts its
    time horizon keeps differs from the previous row's, and the previous
    pipeline is dropped first, so one is held at a time.  Horizons nest,
    so equal counts mean equal posts: a detection-time sweep builds once
    per run of adjacent rows keeping the same posts, the unfiltered
    ``all`` row included.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("sweep needs at least one row")
    for _, config in rows:
        config.validate()
    results, ops, built_for = [], None, None
    for name, config in rows:
        key = (config.method, config.k1, np.count_nonzero(posts_within(corpus, config.time_horizon_hours)))
        if key != built_for:
            ops = None  # released before the next build
            ops, built_for = build_pipeline(corpus, config), key
        results.append((name, _run_repetitions(ops, config)))
    return results
