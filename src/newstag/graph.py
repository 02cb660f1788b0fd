"""Hashtag relation graphs: direct co-occurrence and multi-hop closure.

Every stage is a :class:`RelationMatrix`, so any homogeneous graph can
enter as a ``direct`` matrix.  The direct matrix counts, for every
unordered hashtag pair, the posts whose hashtag set contains both.
Dividing by the maximum row sum yields ``N``; the truncated power sum
``N + N**2 + ... + N**k1`` (a truncated Katz series) adds indirect
(multi-hop) relations, evaluated by Horner's rule in column panels on a
small thread pool; every column gets the same arithmetic whatever the
panel width or the thread count, so the bytes depend on neither.  The
infinite series converges only when the spectral radius of ``N`` is
below one, and the row-max normalization gives radius one to any
weight-regular component.
The writers at the end store a matrix as a text cache and export it as
edge lists; nothing reads them back.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, worker_count

logger = logging.getLogger(__name__)

DIRECT = "direct"
NORMALIZED_DIRECT = "normalized_direct"
ALL_RELATIONS_TRUNCATED = "all_relations_truncated"

MATRIX_FORMAT_HEADER = "# newstag-matrix v1"

# Largest vocabulary the truncated closure accepts.  It is built in
# dense q x q float64 buffers and raises the peak RSS by about
# 21.2 * q**2 bytes (59 -> 241 MiB at q = 3,000 on two threads;
# ~1.26 GiB at the cap).
TRUNCATED_MAX_Q = 8000

# Entries of one column panel of the truncated closure: a q x w float64
# panel of 2**16 entries (512 KiB) stays in a core's cache while Horner's
# rule runs over it, and each worker holds two of them at a time.
CLOSURE_PANEL_ENTRIES = 1 << 16

# Largest truncation order the truncated closure accepts.  Each order
# adds one sparse x dense product over the q x q buffer, so the order
# bounds the running time; a contractive series has converged to float
# precision long before this many terms.
MAX_K1 = 1000


class GraphError(ValueError):
    """Raised for graph construction or normalization failures."""


@dataclass(frozen=True)
class RelationMatrix:
    """Sparse symmetric nonnegative relation matrix over a vocabulary.

    A ``direct`` matrix holds co-occurrence counts (int64) or other
    nonnegative weights, with a zero diagonal; the others are float64.
    ``k1`` is the truncation order of a closure, else None.
    """

    kind: str
    values: sp.csr_matrix
    vocab: tuple[str, ...]
    k1: int | None = None

    @property
    def q(self) -> int:
        return len(self.vocab)

    @property
    def n_edges(self) -> int:
        """Related hashtag pairs: nonzero entries off the diagonal, halved."""
        return int(self.values.count_nonzero() - np.count_nonzero(self.values.diagonal())) // 2


def build_direct_graph(corpus: Corpus, weighted: bool = True) -> RelationMatrix:
    """Count per-post hashtag co-occurrences over all news (transductive).

    Weighted mode counts one unit per post containing both hashtags;
    unweighted mode keeps only the 0/1 indicator.  The counts are
    ``B^T B`` without its diagonal, for the post x hashtag incidence
    ``B`` of the corpus occurrence table (``Occurrences.post_incidence``),
    as an int64 ``direct`` matrix with sorted indices.  Its float sums of
    ones are exact integers.  Vocabulary indices follow first appearance
    in the corpus stream, so construction is deterministic.  A corpus
    with no multi-hashtag post yields an edgeless graph.
    """
    if not len(corpus):
        raise GraphError("cannot build a graph from an empty corpus")
    B = corpus.occurrences.post_incidence
    W = (B.T @ B).tocsr().astype(np.int64, copy=False)
    W.setdiag(0)  # in place: every vocabulary entry occurs, so the diagonal is stored
    W.eliminate_zeros()
    if not weighted:
        W.data[:] = 1
    return RelationMatrix(kind=DIRECT, values=W, vocab=corpus.vocabulary)


def normalize(W: RelationMatrix) -> RelationMatrix:
    """Divide a ``direct`` matrix by its largest row sum, as a float.

    For integer counts that float is exact: each entry is the IEEE
    rounding of an exact ratio of integers, so the result is invariant
    under any positive scaling of the counts.  An edgeless graph relates
    no hashtags: its relation is all zeros.
    """
    if W.kind != DIRECT:
        raise GraphError(f"normalize expects a direct matrix, got {W.kind!r}")
    N = W.values.astype(np.float64)
    if N.nnz:
        N.data = N.data / float(W.values.sum(axis=1).max())
    return RelationMatrix(kind=NORMALIZED_DIRECT, values=N, vocab=W.vocab)


def _horner_panel(n: sp.csr_matrix, columns: sp.csc_matrix, k1: int, lo: int, hi: int, out: np.ndarray) -> None:
    """Write columns ``lo:hi`` of ``N + ... + N^k1`` into ``out`` by Horner's rule,
    from the panel ``N[:, lo:hi]`` (taken from ``columns``, the CSC copy of ``n``)."""
    width = hi - lo
    panel = columns[:, lo:hi].toarray(order="C")
    for _ in range(2, k1 + 1):
        panel.ravel()[lo * width : hi * width : width + 1] += 1.0  # the entries (lo + j, j)
        panel = n @ panel
    out[:, lo:hi] = panel


def all_relations_truncated(N: RelationMatrix, k1: int) -> RelationMatrix:
    """Partial power sum N + N^2 + ... + N^k1, with every nonzero entry kept.

    Evaluated by Horner's rule, ``S <- N (S + I)`` from ``S = N``, one
    column panel ``S[:, J]`` of about ``CLOSURE_PANEL_ENTRIES`` entries at
    a time: each further order adds 1 to the panel's share of the
    diagonal in place and multiplies the sparse ``N`` into it with
    scipy's single-threaded kernel, which releases the GIL.  The panels
    run on a pool of ``worker_count(panels)`` threads that lives only for
    the call, each writing its own columns of one dense q x q buffer (a
    connected graph's sum is dense anyway).  Every column goes through
    the same operations in the same order as in one whole-buffer loop,
    so the bytes depend neither on the panel width nor on the thread
    count, nor on a BLAS thread pool.  The buffer is converted to CSR
    once.  Vocabularies above ``TRUNCATED_MAX_Q`` hashtags are refused
    before anything of size q x q is allocated.
    """
    if N.kind != NORMALIZED_DIRECT:
        raise GraphError(f"closure expects a normalized_direct matrix, got {N.kind!r}")
    if not 1 <= k1 <= MAX_K1:
        raise GraphError(f"k1 must be >= 1 and at most {MAX_K1}, got {k1}")
    q = N.q
    if q > TRUNCATED_MAX_Q:
        raise GraphError(
            f"truncated closure refused: q={q} hashtags exceeds the dense-buffer cap of {TRUNCATED_MAX_Q}"
        )

    columns = N.values.tocsc()  # a column range of CSC costs its own entries, not all of N's
    total = np.empty((q, q))
    width = max(1, CLOSURE_PANEL_ENTRIES // max(q, 1))
    starts = range(0, q, width)
    pool = ThreadPoolExecutor(max_workers=worker_count(len(starts)))
    try:
        for _ in pool.map(lambda lo: _horner_panel(N.values, columns, k1, lo, min(lo + width, q), total), starts):
            pass
    finally:
        pool.shutdown(cancel_futures=True)
    # CSR straight from the buffer: half the temporaries of sp.csr_matrix(total)
    mask = total != 0
    indptr = np.zeros(q + 1, dtype=np.int32)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    flat = np.flatnonzero(mask)
    indices = np.remainder(flat, q, out=flat).astype(np.int32)
    del flat
    values = sp.csr_matrix((total[mask], indices, indptr), shape=(q, q))
    return RelationMatrix(kind=ALL_RELATIONS_TRUNCATED, values=values, vocab=N.vocab, k1=k1)


# ---------------------------------------------------------------------------
# Persistence and export
# ---------------------------------------------------------------------------

# Lines the writers join into one write: enough that per-line write calls
# do not dominate, few enough that one block's text stays a few MiB.
_BLOCK_LINES = 65536


def _sorted_upper(values: sp.spmatrix, k: int) -> tuple[list[int], list[int], list[float]]:
    """Rows, columns and values of the entries on or above diagonal ``k``,
    row-major, as Python lists (formatted once per entry, no NumPy scalars)."""
    upper = sp.triu(values, k=k).tocoo()
    order = np.lexsort((upper.col, upper.row))
    return upper.row[order].tolist(), upper.col[order].tolist(), upper.data[order].tolist()


def _write_lines(fh, lines) -> None:
    """Write newline-terminated ``lines`` in blocks of ``_BLOCK_LINES``."""
    lines = iter(lines)
    while block := list(islice(lines, _BLOCK_LINES)):
        fh.write("".join(block))


def save_matrix(matrix: RelationMatrix, path: str | Path) -> None:
    """Write a relation matrix in the triplet text cache format.

    Layout: a versioned comment header carrying kind, k1, q and the
    vocabulary (JSON-encoded), followed by one ``row<TAB>col<TAB>value``
    line per stored entry of the upper triangle (row <= col, row-major).
    Values use shortest round-trip float formatting, so every stored
    value reads back bit-exactly and the file is byte-deterministic.
    """
    rows, cols, values = _sorted_upper(matrix.values, k=0)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{MATRIX_FORMAT_HEADER}\n")
        fh.write(f"# kind: {matrix.kind}\n")
        if matrix.k1 is not None:
            fh.write(f"# k1: {matrix.k1}\n")
        fh.write(f"# q: {matrix.q}\n")
        fh.write(f"# vocab: {json.dumps(list(matrix.vocab), ensure_ascii=True)}\n")
        _write_lines(fh, (f"{a}\t{b}\t{v!r}\n" for a, b, v in zip(rows, cols, values)))


def _color_class(score: float) -> str:
    if score >= 0.9:
        return "high"
    if score <= -0.9:
        return "low"
    return "mid"


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_graph(
    matrix: RelationMatrix,
    credibility=None,
    *,
    edges_path: str | Path,
    nodes_path: str | Path | None = None,
    dot_path: str | Path | None = None,
) -> None:
    """Write TSV edge-list and node-table artifacts (optionally DOT).

    The node table colors hashtags by credibility: "high" for scores at
    or above 0.9, "low" at or below -0.9, "mid" otherwise (or when no
    credibility vector is supplied).  Self-relations (diagonal entries
    of closure matrices) are omitted from the edge list.  A hashtag
    holding a tab, CR or LF cannot be written as one TSV field and is
    refused before any file is opened.
    """
    vocab = matrix.vocab
    for name in vocab:
        if "\t" in name or "\r" in name or "\n" in name:
            raise GraphError(f"hashtag {name!r} holds a tab or line break and cannot be exported as TSV")
    scores = None
    if credibility is not None:
        scores = np.asarray(credibility, dtype=float)
        if scores.shape[0] != matrix.q:
            raise GraphError("credibility vector does not match matrix vocabulary")

    rows, cols, weights = _sorted_upper(matrix.values, k=1)
    with open(edges_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("hashtag_a\thashtag_b\tweight\n")
        _write_lines(fh, (f"{vocab[a]}\t{vocab[b]}\t{w!r}\n" for a, b, w in zip(rows, cols, weights)))

    if nodes_path is not None:
        with open(nodes_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("hashtag\tcredibility\tcolor_class\n")
            for k, name in enumerate(vocab):
                if scores is None:
                    fh.write(f"{name}\t\tmid\n")
                else:
                    fh.write(f"{name}\t{float(scores[k])!r}\t{_color_class(float(scores[k]))}\n")

    if dot_path is not None:
        palette = {"high": "blue", "low": "red", "mid": "gray"}
        quoted = [_dot_quote(name) for name in vocab]
        with open(dot_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("graph hashtags {\n")
            for k, name in enumerate(quoted):
                color = palette["mid" if scores is None else _color_class(float(scores[k]))]
                fh.write(f"  {name} [color={color}];\n")
            _write_lines(fh, (
                f"  {quoted[a]} -- {quoted[b]} [weight={w!r}];\n" for a, b, w in zip(rows, cols, weights)
            ))
            fh.write("}\n")
