"""Hashtag relation graphs: direct co-occurrence and multi-hop closure.

The direct graph counts, for every unordered hashtag pair, the number of
posts whose hashtag set contains both.  Dividing by the maximum row sum
yields the normalized relation matrix ``N``; summing its powers
``N + N**2 + ... + N**k1`` adds indirect (multi-hop) relations.  The
infinite series has the closed form ``N (I - N)^{-1}`` but only
converges when the spectral radius of ``N`` is strictly below one, so
the truncated sum is the production path and the exact form is a
guarded oracle.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, _utf8_error

logger = logging.getLogger(__name__)

NORMALIZED_DIRECT = "normalized_direct"
ALL_RELATIONS_TRUNCATED = "all_relations_truncated"
ALL_RELATIONS_EXACT = "all_relations_exact"

MATRIX_FORMAT_HEADER = "# newstag-matrix v1"

# Largest vocabulary the exact closure accepts.  Its dense solve holds a
# handful of q x q float64 arrays at once: at q = 3000 one call peaks at
# about 480 MiB RSS.
EXACT_MAX_Q = 3000

# Largest vocabulary the truncated closure accepts.  It is built in
# dense q x q float64 buffers and raises the peak RSS by about
# 25 * q**2 bytes (~1.5 GiB at the cap).
TRUNCATED_MAX_Q = 8000

# Largest truncation order the truncated closure accepts.  Each order
# adds one sparse x dense product over the q x q buffer, so the order
# bounds the running time; a contractive series has converged to float
# precision long before this many terms.
MAX_K1 = 1000


class GraphError(ValueError):
    """Raised for graph construction or normalization failures."""


class SeriesDivergentError(GraphError):
    """Raised when the closure series cannot converge (spectral radius ~ 1)."""


@dataclass(frozen=True)
class HashtagGraph:
    """Interned vocabulary plus sparse symmetric co-occurrence counts.

    Only the strict upper triangle is stored; :meth:`full` mirrors it.
    Weights are positive integers (post co-occurrence counts), and the
    diagonal is zero: a hashtag has no relation with itself.
    """

    vocab: tuple[str, ...]
    upper: sp.csr_matrix  # strict upper triangle, int64

    @property
    def q(self) -> int:
        return len(self.vocab)

    @property
    def n_edges(self) -> int:
        return self.upper.nnz

    def full(self) -> sp.csr_matrix:
        """Symmetric adjacency with both triangles materialized."""
        return (self.upper + self.upper.T).tocsr()


@dataclass(frozen=True)
class RelationMatrix:
    """Sparse symmetric nonnegative relation matrix over a hashtag vocab."""

    kind: str
    values: sp.csr_matrix  # full symmetric, float64
    vocab: tuple[str, ...]
    k1: int | None = None
    # truncated closure only: each accumulated term's Frobenius norm
    # relative to the running sum (see all_relations_truncated)
    trace: tuple[float, ...] = ()

    @property
    def q(self) -> int:
        return len(self.vocab)


def build_direct_graph(corpus: Corpus, weighted: bool = True) -> HashtagGraph:
    """Count per-post hashtag co-occurrences over all news (transductive).

    Weighted mode counts one unit per post containing both hashtags;
    unweighted mode keeps only the 0/1 indicator.  The counts are the
    strict upper triangle of ``B^T B`` for the post x hashtag incidence
    ``B`` of the corpus occurrence table.  Vocabulary indices follow
    first appearance in the corpus stream, so construction is
    deterministic.  A corpus with no multi-hashtag post yields an
    edgeless graph.
    """
    if not len(corpus):
        raise GraphError("cannot build a graph from an empty corpus")
    occ = corpus.occurrences
    q = len(corpus.vocabulary)
    B = sp.csr_matrix((np.ones(occ.tag.size, dtype=np.int64), (occ.post, occ.tag)), shape=(occ.n_posts, q))
    upper = sp.triu(B.T @ B, k=1, format="csr")
    if not weighted:
        upper.data[:] = 1
    return HashtagGraph(vocab=corpus.vocabulary, upper=upper)


def normalize(graph: HashtagGraph) -> RelationMatrix:
    """Divide the co-occurrence matrix by its maximum row sum.

    The result has maximum row sum exactly 1 and is invariant under any
    positive scaling of the counts (each entry is the IEEE rounding of
    the same exact ratio of integers).  An edgeless graph relates no
    hashtags: its relation is all zeros.
    """
    W = graph.full()
    N = W.astype(np.float64)
    if W.nnz:
        max_row = int(np.asarray(W.sum(axis=1)).max())
        N.data = N.data / float(max_row)
    return RelationMatrix(kind=NORMALIZED_DIRECT, values=N, vocab=graph.vocab)


def _frobenius(M: np.ndarray) -> float:
    return math.sqrt(np.einsum("ij,ij->", M, M))


def all_relations_truncated(
    N: RelationMatrix,
    k1: int,
    drop_tolerance: float = 0.0,
    rel_tol: float | None = None,
) -> RelationMatrix:
    """Partial power sum N + N^2 + ... + N^k1, with its accumulation trace.

    The result's ``trace`` holds, for each accumulated term, the
    Frobenius norm of the term relative to the accumulated sum; it is
    1.0 for the first term and decays geometrically whenever the series
    converges.  With ``rel_tol`` set, accumulation stops early once the
    relative change drops below it (k1 then acts as a cap).  Entries smaller than
    ``drop_tolerance`` in magnitude are pruned after each accumulation;
    the default 0 keeps everything.

    On a connected graph the sum fills in to a dense matrix, so it is
    accumulated in one dense q x q buffer by sparse x dense products
    (single-threaded, so the bytes do not depend on a BLAS thread pool)
    and converted to CSR once.  Vocabularies above ``TRUNCATED_MAX_Q``
    hashtags are refused before anything of size q x q is allocated.
    """
    if N.kind != NORMALIZED_DIRECT:
        raise GraphError(f"closure expects a normalized_direct matrix, got {N.kind!r}")
    if not 1 <= k1 <= MAX_K1:
        raise GraphError(f"k1 must be >= 1 and at most {MAX_K1}, got {k1}")
    if drop_tolerance < 0:
        raise GraphError("drop_tolerance must be >= 0")
    q = N.q
    if q > TRUNCATED_MAX_Q:
        raise GraphError(
            f"truncated closure refused: q={q} hashtags exceeds the dense-buffer cap of {TRUNCATED_MAX_Q}"
        )

    base = N.values
    power = base.toarray()
    total = power.copy()
    _prune(total, drop_tolerance)
    trace: list[float] = [1.0 if base.nnz else 0.0]
    for _ in range(2, k1 + 1):
        if rel_tol is not None and trace[-1] < rel_tol:
            break
        power = base @ power
        total += power
        _prune(total, drop_tolerance)
        denom = _frobenius(total)
        trace.append(_frobenius(power) / denom if denom else 0.0)
    del power
    # CSR straight from the buffer: half the temporaries of sp.csr_matrix(total)
    mask = total != 0
    indptr = np.zeros(q + 1, dtype=np.int32)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    flat = np.flatnonzero(mask)
    indices = np.remainder(flat, q, out=flat).astype(np.int32)
    del flat
    values = sp.csr_matrix((total[mask], indices, indptr), shape=(q, q))
    # k1 records the number of terms actually accumulated (rel_tol may
    # have stopped the loop before the cap)
    return RelationMatrix(
        kind=ALL_RELATIONS_TRUNCATED, values=values, vocab=N.vocab, k1=len(trace), trace=tuple(trace)
    )


def _prune(total: np.ndarray, drop_tolerance: float) -> None:
    """Zero the entries of ``total`` smaller than ``drop_tolerance`` in magnitude."""
    if drop_tolerance > 0.0:
        total[np.abs(total) < drop_tolerance] = 0.0


def estimate_spectral_radius(M: sp.spmatrix, max_iter: int = 500, rtol: float = 1e-12) -> float:
    """Power-iteration estimate of the spectral radius of a symmetric matrix.

    Uses norm growth of M @ v, which for symmetric M converges to the
    largest eigenvalue magnitude from below.  The start vector is a
    slightly tilted all-ones vector: for nonnegative matrices it always
    overlaps the dominant (Perron) eigenvector.
    """
    q = M.shape[0]
    if q == 0 or M.nnz == 0:
        return 0.0
    v = np.ones(q) + np.arange(q) / (10.0 * q)
    v /= np.linalg.norm(v)
    ratio = 0.0
    for _ in range(max_iter):
        w = M @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        prev, ratio = ratio, norm
        v = w / norm
        if abs(ratio - prev) <= rtol * max(ratio, 1e-30):
            break
    return ratio


def all_relations_exact(N: RelationMatrix) -> RelationMatrix:
    """Exact series limit N (I - N)^{-1}, refused for divergent inputs.

    The closure is dense, so it is one dense multi-column solve, and
    vocabularies above ``EXACT_MAX_Q`` hashtags are refused before
    anything of size q x q is allocated.  The spectral radius of N is
    estimated by power iteration; anything not safely below 1 raises
    :class:`SeriesDivergentError` (this can genuinely happen, e.g. for
    weight-regular components where every row sum equals the maximum).
    A residual check guards against a misleading radius estimate.
    """
    if N.kind != NORMALIZED_DIRECT:
        raise GraphError(f"exact closure expects a normalized_direct matrix, got {N.kind!r}")
    q = N.q
    if q > EXACT_MAX_Q:
        raise GraphError(
            f"exact closure refused: q={q} hashtags exceeds the dense-solve cap of {EXACT_MAX_Q}"
        )
    radius = estimate_spectral_radius(N.values)
    if radius > 1.0 - 1e-6:
        raise SeriesDivergentError(
            f"series divergent: spectral radius estimate {radius:.9f} is not below 1"
        )
    dense_n = N.values.toarray()
    solved = np.linalg.solve(np.eye(q) - dense_n, dense_n)
    solved = (solved + solved.T) / 2.0
    residual = float(np.max(np.abs((np.eye(q) - dense_n) @ solved - dense_n)))
    result = sp.csr_matrix(solved)
    if not np.isfinite(residual) or residual > 1e-6:
        raise GraphError(f"exact closure solve failed (residual {residual:.3e})")
    result.eliminate_zeros()
    return RelationMatrix(kind=ALL_RELATIONS_EXACT, values=result, vocab=N.vocab)


# ---------------------------------------------------------------------------
# Persistence and export
# ---------------------------------------------------------------------------

def save_matrix(matrix: RelationMatrix, path: str | Path) -> None:
    """Write a relation matrix in the triplet text cache format.

    Layout: a versioned comment header carrying kind, k1, q and the
    vocabulary (JSON-encoded), followed by one ``row<TAB>col<TAB>value``
    line per stored entry of the upper triangle (row <= col, row-major).
    Values use shortest round-trip float formatting, so save/load is
    bit-exact and byte-deterministic.
    """
    upper = sp.triu(matrix.values, k=0).tocoo()
    order = np.lexsort((upper.col, upper.row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{MATRIX_FORMAT_HEADER}\n")
        fh.write(f"# kind: {matrix.kind}\n")
        if matrix.k1 is not None:
            fh.write(f"# k1: {matrix.k1}\n")
        fh.write(f"# q: {matrix.q}\n")
        fh.write(f"# vocab: {json.dumps(list(matrix.vocab), ensure_ascii=True)}\n")
        for i in order:
            fh.write(f"{upper.row[i]}\t{upper.col[i]}\t{float(upper.data[i])!r}\n")


def _parse_field(path, line_no: int, parse, text: str, what: str):
    try:
        return parse(text)
    except (ValueError, RecursionError):  # or JSON nested too deep to decode
        shown = text if len(text) <= 80 else text[:80] + "..."
        raise GraphError(f"{path}:{line_no}: bad {what} {shown!r}") from None


def load_matrix(path: str | Path) -> RelationMatrix:
    """Read a relation matrix written by :func:`save_matrix`.

    Every line must be UTF-8, and every entry line must follow the
    ``# q:`` header and hold a finite value at integer indices
    ``0 <= row <= col < q``, once per index pair; any other line raises
    :class:`GraphError` naming ``path:line``.
    """
    kind = None
    k1 = None
    q = None
    vocab: tuple[str, ...] | None = None
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    seen: set[tuple[int, int]] = set()
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        first = fh.readline().rstrip("\n")
        if first != MATRIX_FORMAT_HEADER:
            raise GraphError(f"{path}: not a newstag matrix file")
        for line_no, line in enumerate(fh, start=2):
            if error := _utf8_error(line):
                raise GraphError(f"{path}:{line_no}: {error}")
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                if key == "kind":
                    kind = value
                elif key == "k1":
                    k1 = _parse_field(path, line_no, int, value, "k1")
                elif key == "q":
                    q = _parse_field(path, line_no, int, value, "q")
                elif key == "vocab":
                    names = _parse_field(path, line_no, json.loads, value, "vocab")
                    if not isinstance(names, list) or not all(isinstance(h, str) for h in names):
                        raise GraphError(f"{path}:{line_no}: vocab must be a JSON list of strings")
                    vocab = tuple(names)
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise GraphError(f"{path}:{line_no}: expected row, col, value; got {len(fields)} field(s)")
            if q is None:
                raise GraphError(f"{path}:{line_no}: entry before the q header")
            row = _parse_field(path, line_no, int, fields[0], "row index")
            col = _parse_field(path, line_no, int, fields[1], "column index")
            value = _parse_field(path, line_no, float, fields[2], "value")
            if not 0 <= row <= col < q:
                raise GraphError(f"{path}:{line_no}: entry ({row}, {col}) outside 0 <= row <= col < q={q}")
            if not math.isfinite(value):
                raise GraphError(f"{path}:{line_no}: non-finite value {fields[2]!r}")
            if (row, col) in seen:
                raise GraphError(f"{path}:{line_no}: duplicate entry ({row}, {col})")
            seen.add((row, col))
            rows.append(row)
            cols.append(col)
            vals.append(value)
    if kind is None or q is None or vocab is None:
        raise GraphError(f"{path}: missing matrix header fields")
    if len(vocab) != q:
        raise GraphError(f"{path}: vocab length {len(vocab)} does not match q={q}")
    upper = sp.coo_matrix((vals, (rows, cols)), shape=(q, q)).tocsr()
    strict = sp.triu(upper, k=1)
    full = (upper + strict.T).tocsr()
    return RelationMatrix(kind=kind, values=full, vocab=vocab, k1=k1)


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
    for name in matrix.vocab:
        if "\t" in name or "\r" in name or "\n" in name:
            raise GraphError(f"hashtag {name!r} holds a tab or line break and cannot be exported as TSV")
    scores = None
    if credibility is not None:
        scores = np.asarray(credibility, dtype=float)
        if scores.shape[0] != matrix.q:
            raise GraphError("credibility vector does not match matrix vocabulary")

    upper = sp.triu(matrix.values, k=1).tocoo()
    order = np.lexsort((upper.col, upper.row))
    with open(edges_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("hashtag_a\thashtag_b\tweight\n")
        for i in order:
            a, b = matrix.vocab[upper.row[i]], matrix.vocab[upper.col[i]]
            fh.write(f"{a}\t{b}\t{float(upper.data[i])!r}\n")

    if nodes_path is not None:
        with open(nodes_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("hashtag\tcredibility\tcolor_class\n")
            for k, name in enumerate(matrix.vocab):
                if scores is None:
                    fh.write(f"{name}\t\tmid\n")
                else:
                    fh.write(f"{name}\t{float(scores[k])!r}\t{_color_class(float(scores[k]))}\n")

    if dot_path is not None:
        with open(dot_path, "w", encoding="utf-8", newline="\n") as fh:
            _write_dot(fh, matrix, scores, upper, order)


def _write_dot(fh: TextIO, matrix: RelationMatrix, scores, upper, order: Iterable[int]) -> None:
    palette = {"high": "blue", "low": "red", "mid": "gray"}
    fh.write("graph hashtags {\n")
    for k, name in enumerate(matrix.vocab):
        color = palette["mid" if scores is None else _color_class(float(scores[k]))]
        fh.write(f"  {_dot_quote(name)} [color={color}];\n")
    for i in order:
        a, b = matrix.vocab[upper.row[i]], matrix.vocab[upper.col[i]]
        fh.write(f"  {_dot_quote(a)} -- {_dot_quote(b)} [weight={float(upper.data[i])!r}];\n")
    fh.write("}\n")
