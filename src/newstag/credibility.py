"""Per-hashtag credibility scores and graph-regularized propagation.

A hashtag starts with the weighted average label of the training news
whose posts carry it (zero when unseen in training).  Propagation then
balances smoothness over the relation graph against anchoring to those
initial scores, controlled by ``mu`` in (0, 1): the minimizer solves
``(I - mu * X) c = (1 - mu) * c0`` with X the symmetrically normalized
relation matrix, and the fixed-point iteration
``c <- mu * X c + (1 - mu) * c0`` contracts to it at rate mu.  Its k-th
iterate is the power series ``c0 + sum_{j<=k} mu^j (X^j c0 - X^(j-1) c0)``,
so a :class:`PowerSeries` computes each product ``X^j c0`` once and
serves every ``mu`` from it, for a q x m panel of ``c0`` columns at once:
one operator product per step for the whole panel.  Initial
credibility and news scores are products with the corpus's sparse
incidence, for a whole panel at once, and :func:`csr_product` runs
every large CSR product in row blocks on threads that end with it.
Credibility vectors are float64 arrays indexed by vocabulary position.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .corpus import MAX_WORKERS, Corpus, run_threads, worker_count
from .graph import ROW_BLOCK_ENTRIES, RelationMatrix, row_ranges

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


# Multiply-adds (stored entries x dense columns) from which
# :func:`csr_product` runs a product in row blocks; below it, starting the
# threads costs more than they save.  Measured on a 2-CPU x86 host with
# threads started per product, in the repetitions of ``run --method
# newstag_no_indirect`` (2 processes x 30 alternating rounds), blocks took
# 0.83-0.84 of the inline time at 6.1 million (q = 30k), 0.92-0.96 at 4.1
# million (q = 20k) and 1.01-1.12 at 3.1 million (q = 15k, within the
# spread), and lost in 64 of 80 rounds at 2 million (q = 10k).  Every
# product of ``grid-mu`` at q = 800 is below 0.2 million.
ROW_BLOCK_MIN_WORK = 1 << 21


def csr_product(A, B):
    """``A @ B``, in row blocks on threads when it is large enough.

    A product of at least ``ROW_BLOCK_MIN_WORK`` multiply-adds is cut by
    ``graph.row_ranges`` into blocks of ``ceil(nnz / workers)`` stored entries
    (``worker_count``), and :func:`run_threads` computes each block into
    its own rows of one output that this call allocates.  Every block runs
    scipy's CSR kernel (``scipy.sparse._sparsetools``, the one ``A @ B``
    dispatches to), which releases the GIL and needs no allocation; each
    row keeps its arithmetic, so the result is bitwise ``A @ B`` whatever
    the thread count.  Smaller products, and any operand that is not a
    float64 CSR matrix times a float64 array, run inline as ``A @ B``.
    """
    columns = B.shape[1] if np.ndim(B) == 2 else 1
    if (
        not (sp.issparse(A) and A.format == "csr" and A.dtype == np.float64)
        or not (isinstance(B, np.ndarray) and B.dtype == np.float64 and B.ndim in (1, 2))
        or B.shape[0] != A.shape[1]
        or A.nnz * columns < ROW_BLOCK_MIN_WORK
    ):
        return A @ B
    out = np.zeros((A.shape[0], *B.shape[1:]))
    flat = np.ascontiguousarray(B).ravel()

    def block(rows: tuple[int, int]) -> None:
        lo, hi = rows
        indptr, target = A.indptr[lo : hi + 1], out[lo:hi].ravel()
        if columns == 1:  # one vector or several: the kernel A @ B dispatches to
            _sparsetools.csr_matvec(hi - lo, A.shape[1], indptr, A.indices, A.data, flat, target)
        else:
            _sparsetools.csr_matvecs(hi - lo, A.shape[1], columns, indptr, A.indices, A.data, flat, target)

    run_threads(block, row_ranges(A.indptr, -(-A.nnz // worker_count(MAX_WORKERS))))
    return out


def init_credibility(corpus: Corpus, train_rows, per_post: bool = True) -> np.ndarray:
    """Weighted average training label per hashtag (0 when unseen).

    ``train_rows`` are news rows of the corpus's occurrence table, the
    training side of one split; or a sequence of training sides, one per
    column of the q x m panel then returned.  With ``per_post`` each
    post of a training news votes once per hashtag it carries, so popular
    news weighs more; without it each news votes once per distinct
    hashtag (the unweighted variant's simplified form).  Every entry lies
    in [-1, 1] by construction.  An unlabeled train row raises ValueError.

    The label sums and vote counts of every column come from one product
    of the transposed news incidence (a CSC view, scattered by scipy's
    kernel on one thread) with a news x 2m matrix of votes; its sums are
    exact integers, so the result does not depend on their order.
    """
    occ = corpus.occurrences
    single = not len(train_rows) or np.ndim(train_rows[0]) == 0
    sides = [train_rows] if single else train_rows
    n, m = len(corpus), len(sides)
    votes = np.zeros((n, 2 * m))  # per news row: label x votes of each column, then votes
    for j, side in enumerate(sides):
        rows = np.asarray(side, dtype=np.int64)
        unlabeled = rows[occ.labels[rows] == 0]
        if unlabeled.size:
            row = unlabeled[0]
            raise ValueError(f"train row {row} (news {corpus.ids[row]!r}) is unlabeled")
        votes[:, m + j] = np.bincount(rows, minlength=n)
    np.multiply(votes[:, m:], occ.labels[:, np.newaxis], out=votes[:, :m])
    sums = occ.news_incidence(per_post).T @ votes
    num, den = sums[:, :m], sums[:, m:]
    c0 = np.where(den > 0, num / np.maximum(den, 1), 0.0)
    return c0[:, 0] if single else c0


def symmetric_normalize(W: RelationMatrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """Return X = D^{-1/2} W D^{-1/2} and the degree vector D.

    Rows and columns of zero-degree hashtags are left all-zero, which
    keeps I - mu*X well posed and pins isolated hashtags to
    (1 - mu) * c0 at the fixed point.  ``X`` shares the index arrays of
    ``W.values`` and gets new values only, scaled one row block of
    ``graph.row_ranges`` at a time (row scale, then column scale), so a
    dense closure is not copied whole; ``W`` is left unchanged.
    """
    values = W.values
    degrees = np.asarray(values.sum(axis=1)).ravel()
    inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1e-300)), 0.0)
    indptr, indices = values.indptr, values.indices
    data = np.empty(values.data.shape, dtype=np.float64)
    for lo, hi in row_ranges(indptr, ROW_BLOCK_ENTRIES):
        block = slice(indptr[lo], indptr[hi])
        np.multiply(values.data[block], np.repeat(inv_sqrt[lo:hi], np.diff(indptr[lo : hi + 1])), out=data[block])
        data[block] *= inv_sqrt[indices[block]]
    X = sp.csr_matrix((data, indices, indptr), shape=values.shape, copy=False)
    return X, degrees


# Bytes a power series holds besides its float arrays: about ten array
# headers, its index of columns and its mu values (2.2 kB measured with
# tracemalloc at q=60, one column and nine mu).  Counted once per column.
_SERIES_OVERHEAD_BYTES = 4096


class PowerSeries:
    """The fixed-point iterates of several ``mu`` over one ``X`` and a panel of ``c0``.

    Iterate k of ``c <- mu*X c + (1-mu)*c0`` from c0 is
    ``c0 + sum_{j<=k} mu^j delta_j`` with ``delta_j = X^j c0 - X^(j-1) c0``,
    so step k changes it by exactly ``mu^k delta_k``.  A series carries m
    initial vectors at once as the columns of a q x m panel ``P``: step k
    takes one product ``X @ P`` for all of them (one matrix-matrix
    product on a dense ``X``, one multivector product on CSR), each
    column's ``delta_k`` and ``r_k = max|delta_k|``, and adds
    ``mu^k delta_k`` to the iterate of every (column, ``mu``) still
    running, with residual ``mu^k r_k``.  A series therefore takes as
    many products as its slowest (column, ``mu``) needs.  Each iterate
    and its residuals are bitwise the same whichever other ``mu`` share
    the series, and on a CSR ``X`` whichever other columns do too; on a
    dense ``X`` the block product may round differently from one column
    alone, in the last bits.  The series keeps one trace of ``r_k`` per
    column and the step at which each (column, ``mu``) stopped;
    :meth:`pop` reads one of them and builds its residuals from that.
    """

    def __init__(self, X: sp.spmatrix | np.ndarray, c0, mus, config: PropagationConfig) -> None:
        """``c0`` is one initial vector or a sequence of them, the panel's columns."""
        config.validate()
        for mu in mus:
            _check_mu(mu)
        self.X, self.config = X, config
        rows = np.array(c0, dtype=np.float64, ndmin=2)  # row j holds column j
        self._column = {id(c0): 0} if np.ndim(c0) == 1 else {id(column): j for j, column in enumerate(c0)}
        self._initial = c0  # keeps the ids above valid
        m = rows.shape[0]
        # The panel's arrays are F-ordered (each column contiguous) so that
        # the per-column reductions and updates read contiguous memory; only
        # X^k P on a CSR X is C-ordered, the layout of its multivector kernel.
        self._dense = isinstance(X, np.ndarray)
        self._power = rows.T if self._dense else np.ascontiguousarray(rows.T)  # X^k P
        self._delta = np.empty(self._power.shape, order="F")
        self._changes = np.empty((config.max_iterations, m))  # r_1 .. r_k of every column
        self._steps = 0
        self._mus = tuple(dict.fromkeys(float(mu) for mu in mus))
        # the last mu scales delta_k in place; only the others need a scratch panel
        self._scratch = np.empty(self._power.shape, order="F") if len(self._mus) > 1 else None
        # the iterate of every mu (``_iterates[v].T`` is q x m); per (mu,
        # column): still stepping, the step at which it stopped, unread
        self._iterates = np.repeat(rows[np.newaxis], len(self._mus), axis=0)
        self._running = np.ones((len(self._mus), m), dtype=bool)
        self._live = [m] * len(self._mus)  # columns still running, per mu
        self._stopped = np.zeros((len(self._mus), m), dtype=np.int64)
        self._pending = np.ones((len(self._mus), m), dtype=bool)

    @staticmethod
    def storage_bytes(q: int, values: int, max_iterations: int) -> int:
        """Bytes one column of a series over ``values`` mu and ``q`` hashtags
        costs at the peak of a step: its ``c0``, an iterate per ``mu``,
        ``X^k c0`` and the next product, the change ``delta_k`` and one
        scratch vector (taken only with more than one ``mu``, counted
        always), and the trace of ``r_k``, plus the array headers and
        bookkeeping of a whole series (``_SERIES_OVERHEAD_BYTES``)."""
        return 8 * ((values + 5) * q + max_iterations) + _SERIES_OVERHEAD_BYTES

    def pop(self, c0, mu: float) -> tuple[np.ndarray, list[float]]:
        """Step until ``mu`` stops on the column ``c0``, then hand over a copy
        of its iterate and its residuals; each (column, ``mu``) is read once.

        ``c0`` is one of the vectors the series was built with (the same
        object).  A (column, ``mu``) stops once its residual drops below a
        positive tolerance, or after ``max_iterations`` steps; stopping at
        the cap with a positive tolerance logs a warning.
        """
        j = self._column.get(id(c0))
        if j is None:
            raise ValueError("the series was built for another operator, c0 or config")
        mu = float(mu)
        v = self._mus.index(mu) if mu in self._mus else None
        if v is None or not self._pending[v, j]:
            raise ValueError(f"mu={mu!r} is not pending in this series")
        while self._running[v, j]:
            self._step()
        self._pending[v, j] = False
        c = self._iterates[v, j].copy()
        changes = self._changes[: self._stopped[v, j], j].tolist()
        residuals = [mu**k * change for k, change in enumerate(changes, start=1)]
        tolerance = self.config.tolerance
        if tolerance > 0.0 and not residuals[-1] < tolerance:
            logger.warning(
                "propagation stopped at the iteration cap: mu=%r, %d iterations, "
                "last residual %.3e >= tolerance %r",
                mu, len(residuals), residuals[-1], tolerance,
            )
        return c, residuals

    def _step(self) -> None:
        # A dense product takes the rows of P^T X^T = (X P)^T, so it leaves
        # the F order of the panel as it is.
        power = (self._power.T @ self.X.T).T if self._dense else csr_product(self.X, self._power)
        delta = np.subtract(power, self._power, out=self._delta)
        self._power = power
        # max|delta| per column from two contiguous reductions; abs turns a
        # -0.0 maximum into 0.0, as max(abs(delta)) gives
        change = self._changes[self._steps]
        np.maximum(delta.max(axis=0, initial=0.0), -delta.min(axis=0, initial=0.0), out=change)
        np.abs(change, out=change)
        self._steps += 1
        scales = [mu**self._steps for mu in self._mus]
        running = self._running
        last = len(scales) - 1
        for v, (scale, live) in enumerate(zip(scales, self._live)):
            if not live:
                continue
            # delta_k is not read again after the last mu's update
            step = np.multiply(delta, scale, out=delta if v == last else self._scratch)
            iterate = self._iterates[v].T
            if live == len(change):
                iterate += step
            else:
                np.add(iterate, step, out=iterate, where=running[v])
        if self._steps == self.config.max_iterations:
            stops = running.copy()
        elif self.config.tolerance > 0.0:
            stops = running & (np.multiply.outer(scales, change) < self.config.tolerance)
        else:
            return
        if stops.any():
            self._stopped[stops] = self._steps
            running &= ~stops
            self._live = running.sum(axis=1).tolist()


def propagate_iterative(
    X: sp.spmatrix | np.ndarray,
    c0,
    mu: float,
    config: PropagationConfig,
    series: PowerSeries | None = None,
) -> tuple[np.ndarray, list[float]]:
    """The fixed-point iteration c <- mu*X c + (1-mu)*c0 starting from c0.

    ``X`` is sparse or a dense q x q array.  The iterates come from a
    :class:`PowerSeries`: ``series``, built over this ``X`` and ``config``
    with ``c0`` among its columns and ``mu`` among its values and shared
    with other columns and ``mu``, or else a series of this ``c0`` and
    ``mu`` alone, which takes one ``X @ v`` per step.  Each step's
    residual is the max-norm of the change it
    makes, ``mu^k max|X^k c0 - X^(k-1) c0|``; the iteration stops when
    it drops below ``tolerance`` (if positive) or after
    ``max_iterations`` steps, and stopping at the cap with a positive
    tolerance logs a warning.  Because the residual is exactly that
    product, it keeps shrinking below float resolution instead of
    levelling off, so a tolerance under about 1e-16 * max|c| stops
    early rather than at the cap.  Returns the final vector and the
    per-iteration residual trace.
    """
    if series is None:
        series = PowerSeries(X, c0, (mu,), config)
    elif series.X is not X or series.config != config:
        raise ValueError("the series was built for another operator, c0 or config")
    return series.pop(c0, mu)


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

    ``c_hat`` is one credibility vector, giving one score per news row,
    or a q x m panel of them, giving a news x m panel of scores.  With
    ``per_post`` a hashtag contributes once per post carrying it;
    otherwise once per news item.  Each sum runs in stream order: it is
    one :func:`csr_product` with the news incidence.
    """
    values = np.asarray(c_hat, dtype=np.float64)
    if values.shape[0] != len(corpus.vocabulary):
        raise ValueError(
            f"credibility vector length {values.shape[0]} does not match "
            f"vocabulary size {len(corpus.vocabulary)}"
        )
    return csr_product(corpus.occurrences.news_incidence(per_post), values)


def sign_labels(scores) -> np.ndarray:
    """The sign rule over a score vector or a news x m panel: +1 where a
    score is positive, else -1.

    A score of exactly zero (e.g. a hashtag-free news item) predicts
    fake: the tie goes to the "otherwise" branch.
    """
    return np.where(np.asarray(scores) > 0.0, 1, -1)


def predict(corpus: Corpus, c_hat, per_post: bool = True) -> np.ndarray:
    """:func:`sign_labels` of :func:`score_news`: one label per news row."""
    return sign_labels(score_news(corpus, c_hat, per_post=per_post))


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
