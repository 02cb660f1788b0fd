"""Per-hashtag credibility scores and graph-regularized propagation.

A hashtag starts with the weighted average label of the training news
whose posts carry it (zero when unseen in training).  Propagation then
balances smoothness over the relation graph against anchoring to those
initial scores, controlled by ``mu`` in (0, 1): the minimizer solves
``(I - mu * X) c = (1 - mu) * c0`` with X the symmetrically normalized
relation matrix, and the fixed-point iteration
``c <- mu * X c + (1 - mu) * c0`` contracts to it at rate mu.
Credibility vectors are float64 arrays indexed by vocabulary position.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus
from .graph import RelationMatrix

logger = logging.getLogger(__name__)

MODE_ITERATIVE = "iterative"
MODE_CLOSED_FORM = "closed_form"

# Relative residual at which the closed form's conjugate gradient stops.
CLOSED_FORM_TOLERANCE = 1e-14

# Most propagation steps one propagation may run (``max_iterations``, or
# ``k2`` on the CLI).  A step at 30,000 hashtags costs about 1 ms, so the
# cap bounds one propagation near 100 s there.
MAX_ITERATIONS = 100_000


class PropagationError(RuntimeError):
    """Raised when the closed-form solve fails; indicates a defect, not bad data."""


@dataclass(frozen=True)
class PropagationConfig:
    """Solver settings; the model weight ``mu`` is passed separately.
    tolerance=0 disables early stopping, so the iteration runs for
    exactly ``max_iterations`` steps (the published protocol fixes five
    iterations rather than a tolerance)."""

    max_iterations: int = 100
    tolerance: float = 1e-9
    mode: str = MODE_ITERATIVE

    def validate(self) -> None:
        if not 1 <= self.max_iterations <= MAX_ITERATIONS:
            raise ValueError(f"max_iterations must be >= 1 and at most {MAX_ITERATIONS}, got {self.max_iterations}")
        if not 0.0 <= self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and >= 0, got {self.tolerance}")
        if self.mode not in (MODE_ITERATIVE, MODE_CLOSED_FORM):
            raise ValueError(f"unknown propagation mode {self.mode!r}")


def _check_mu(mu: float) -> None:
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must be in (0,1)")


def init_credibility(corpus: Corpus, train_rows, per_post: bool = True) -> np.ndarray:
    """Weighted average training label per hashtag (0 when unseen).

    ``train_rows`` are news rows of the corpus's occurrence table.  With
    ``per_post`` each post of a training news votes once per hashtag it
    carries, so popular news weighs more; without it each news votes
    once per distinct hashtag (the unweighted variant's simplified
    form).  Every entry lies in [-1, 1] by construction.  An unlabeled
    train row raises ValueError.
    """
    occ = corpus.occurrences
    rows = np.asarray(train_rows, dtype=np.int64)
    unlabeled = rows[occ.labels[rows] == 0]
    if unlabeled.size:
        row = unlabeled[0]
        raise ValueError(f"train row {row} (news {corpus.ids[row]!r}) is unlabeled")
    q = len(corpus.vocabulary)
    votes = np.bincount(rows, minlength=len(corpus))  # per news row
    news, tag = (occ.news, occ.tag) if per_post else occ.distinct
    num = np.bincount(tag, weights=(occ.labels * votes)[news], minlength=q)
    den = np.bincount(tag, weights=votes[news], minlength=q)
    return np.where(den > 0, num / np.maximum(den, 1), 0.0)


def symmetric_normalize(W: RelationMatrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """Return X = D^{-1/2} W D^{-1/2} and the degree vector D.

    Rows and columns of zero-degree hashtags are left all-zero, which
    keeps I - mu*X well posed and pins isolated hashtags to
    (1 - mu) * c0 at the fixed point.
    """
    degrees = np.asarray(W.values.sum(axis=1)).ravel()
    inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1e-300)), 0.0)
    X = W.values.tocsr(copy=True)
    X.data *= np.repeat(inv_sqrt, np.diff(X.indptr))  # row scale
    X.data *= inv_sqrt[X.indices]  # column scale
    return X, degrees


def propagate_iterative(
    X: sp.spmatrix | np.ndarray,
    c0,
    mu: float,
    config: PropagationConfig,
) -> tuple[np.ndarray, list[float]]:
    """Fixed-point iteration c <- mu*X c + (1-mu)*c0 starting from c0.

    ``X`` is sparse or a dense q x q array; each step is one ``X @ c``.
    Stops when the max-norm change drops below ``tolerance`` (if
    positive) or after ``max_iterations`` steps; stopping at the cap
    with a positive tolerance logs a warning.  Returns the final vector
    and the per-iteration residual trace.
    """
    _check_mu(mu)
    config.validate()
    c = np.array(c0, dtype=np.float64)
    anchor = (1.0 - mu) * c
    residuals: list[float] = []
    for _ in range(config.max_iterations):
        c_next = mu * (X @ c) + anchor
        delta = float(np.max(np.abs(c_next - c))) if c.size else 0.0
        residuals.append(delta)
        c = c_next
        if config.tolerance > 0.0 and delta < config.tolerance:
            break
    else:
        if config.tolerance > 0.0:
            logger.warning(
                "propagation stopped at the iteration cap: mu=%r, %d iterations, "
                "last residual %.3e >= tolerance %r",
                mu, config.max_iterations, residuals[-1], config.tolerance,
            )
    return c, residuals


def _closed_form_iteration_cap(mu: float) -> int:
    """Twice the conjugate-gradient steps that reach ``CLOSED_FORM_TOLERANCE``.

    The eigenvalues of I - mu*X lie in [1 - mu, 1 + mu], so its condition
    number is at most kappa = (1 + mu) / (1 - mu), and the residual after
    k steps is at most 2 sqrt(kappa) rate^k of the first, with
    rate = (sqrt(kappa) - 1) / (sqrt(kappa) + 1) = mu / (1 + sqrt(1 - mu^2)).
    """
    kappa = (1.0 + mu) / (1.0 - mu)
    log_inv_rate = math.log1p(math.sqrt(1.0 - mu * mu)) - math.log(mu)
    return 2 * math.ceil(math.log(2.0 * math.sqrt(kappa) / CLOSED_FORM_TOLERANCE) / log_inv_rate)


def propagate_closed_form(X: sp.spmatrix | np.ndarray, c0, mu: float) -> np.ndarray:
    """Solve (I - mu*X) c = (1-mu) c0 by conjugate gradient.

    ``X`` is sparse or a dense q x q array; each step is one ``X @ p``.
    The system is symmetric positive definite because the spectral
    radius of X is at most 1 and mu < 1, so the loop stops once the
    residual is ``CLOSED_FORM_TOLERANCE`` of the right-hand side's.  Its
    reductions are numpy sums, not BLAS dot products, so the result does
    not depend on the BLAS thread count.  A curvature ``p . Ap <= 0``, no
    convergence within :func:`_closed_form_iteration_cap` steps or a
    non-finite result is a defect signal, not a data error.
    """
    _check_mu(mu)
    rhs = (1.0 - mu) * np.asarray(c0, dtype=np.float64)
    solution = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rr = rr0 = float((r * r).sum())
    stop = CLOSED_FORM_TOLERANCE**2 * rr0
    for _ in range(_closed_form_iteration_cap(mu)):
        if rr <= stop:
            break
        Ap = p - mu * (X @ p)
        curvature = float((p * Ap).sum())
        if not curvature > 0.0:
            raise PropagationError(f"closed-form propagation met non-positive curvature {curvature!r}")
        alpha = rr / curvature
        solution += alpha * p
        r -= alpha * Ap
        rr_next = float((r * r).sum())
        p = r + (rr_next / rr) * p
        rr = rr_next
    if rr > stop:
        raise PropagationError(
            f"closed-form propagation did not converge: mu={mu!r}, "
            f"relative residual {math.sqrt(rr / rr0):.3e}"
        )
    if not np.all(np.isfinite(solution)):
        raise PropagationError("closed-form propagation produced non-finite values")
    return solution


def score_news(corpus: Corpus, c_hat, per_post: bool = True) -> np.ndarray:
    """Sum propagated hashtag credibility over each news row's posts.

    Returns one score per news row.  With ``per_post`` a hashtag
    contributes once per post carrying it; otherwise once per news
    item.  Each sum runs in stream order.
    """
    values = np.asarray(c_hat, dtype=np.float64)
    if values.shape[0] != len(corpus.vocabulary):
        raise ValueError(
            f"credibility vector length {values.shape[0]} does not match "
            f"vocabulary size {len(corpus.vocabulary)}"
        )
    occ = corpus.occurrences
    news, tag = (occ.news, occ.tag) if per_post else occ.distinct
    return np.bincount(news, weights=values[tag], minlength=len(corpus))


def predict(corpus: Corpus, c_hat, per_post: bool = True) -> np.ndarray:
    """Sign rule over each news row's score: +1 if positive, else -1.

    A score of exactly zero (e.g. a hashtag-free news item) predicts
    fake: the tie goes to the "otherwise" branch.
    """
    return np.where(score_news(corpus, c_hat, per_post=per_post) > 0.0, 1, -1)


def rescale_credibility(c_hat) -> np.ndarray:
    """Divide by the maximum magnitude, mapping scores onto [-1, 1].

    Preserves signs, ordering, and therefore every prediction.  An
    all-zero vector is returned unchanged with a warning.
    """
    values = np.array(c_hat, dtype=np.float64)
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    if peak == 0.0:
        logger.warning("rescale: all-zero credibility vector left unchanged")
        return values
    return values / peak
