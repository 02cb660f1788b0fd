"""Spans and counters recorded around the calls the CLI makes into each layer.

The benchmark does not edit the program.  It wraps a few public functions
where the CLI and the harness look them up (module attributes), so a job
run through ``newstag.cli.main`` reports which layer it spent its time in
and what it counted there.  Counting is always on and costs one Python
call per wrapped call; spans (two clock reads each) are only recorded
when tracing is switched on, which the timed jobs never do.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

# Layer spans of a traced job: (module, attribute, span name).  Each name
# is a layer of the per-layer report; the report's ``<name>_s`` is the
# summed self time of that name's spans.
JOB_SPANS = (
    ("corpus", "parse_corpus", "corpus.parse"),
    ("harness", "split_corpus", "corpus.split"),
    ("harness", "build_pipeline", "harness.build_pipeline"),
    ("harness", "init_credibility", "credibility.c0"),
    ("harness", "propagate_iterative", "credibility.propagate"),
    ("harness", "score_news", "credibility.score"),
    ("harness", "compute_f1", "harness.metrics"),
    ("harness", "confusion_counts", "harness.metrics"),
    ("reports", "write_metrics_json", "reports.write"),
    ("reports", "write_predictions_csv", "reports.write"),
    ("reports", "write_grid_csv", "reports.write"),
    ("reports", "write_config_echo", "reports.write"),
)
ROOT_SPAN = "cli"
# Spans of the graph layers timed as separate calls by ``probe_layers``.
PROBE_SPANS = ("graph.direct_graph", "graph.normalize", "graph.closure", "credibility.sym_normalize")


class Recorder:
    """In-memory spans plus the deterministic counters of the current job."""

    def __init__(self) -> None:
        self.tracing = False
        self.job_id: str | None = None
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.counters: dict = {}

    def start_job(self, job_id: str) -> None:
        self.job_id = job_id
        self.counters = {}

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "job": self.job_id}
        )
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.perf_counter()


def _count_corpus(counters, corpus):
    counters["q"] = len(corpus.vocabulary)
    counters["posts"] = sum(len(item.posts) for item in corpus.news)


def _count_edges(counters, graph):
    counters["edges"] = graph.n_edges


def _count_closure(counters, relation):
    counters["closure_nnz"] = relation.values.nnz


def _count_operator(counters, result):
    counters["operator_nnz"] = result[0].nnz


def _count_iters(counters, result):
    counters.setdefault("propagate_iters", []).append(len(result[1]))


# Counted calls: (module, attribute, counter).  The graph-building calls
# inside ``build_pipeline`` are counted but never get spans, so the
# pipeline's span has no children; the benchmark times those layers as
# separate calls instead (see ``probe_layers``).
COUNTED = (
    ("corpus", "parse_corpus", _count_corpus),
    ("harness", "build_direct_graph", _count_edges),
    ("harness", "all_relations_truncated", _count_closure),
    ("harness", "symmetric_normalize", _count_operator),
    ("harness", "propagate_iterative", _count_iters),
)


def install(recorder: Recorder) -> None:
    """Wrap the counted and spanned functions; spans only while tracing."""
    import newstag.corpus
    import newstag.harness
    import newstag.reports

    modules = {"corpus": newstag.corpus, "harness": newstag.harness, "reports": newstag.reports}
    spans = {(mod, attr): name for mod, attr, name in JOB_SPANS}
    counts = {(mod, attr): count for mod, attr, count in COUNTED}
    for key in sorted(set(spans) | set(counts)):
        module = modules[key[0]]
        if hasattr(module, key[1]):
            setattr(module, key[1], _wrap(recorder, getattr(module, key[1]), spans.get(key), counts.get(key)))


def _wrap(recorder: Recorder, fn, span_name, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.tracing and span_name is not None:
            with recorder.span(span_name):
                result = fn(*args, **kwargs)
        else:
            result = fn(*args, **kwargs)
        if count is not None:
            count(recorder.counters, result)
        return result

    return wrapper


def probe_layers(recorder: Recorder, input_path: str, method: str, k1: int) -> None:
    """Time the graph layers as separate calls, outside any job span.

    These are the calls ``build_pipeline`` makes for the weighted
    methods; the closure is skipped for ``newstag_no_indirect``, which
    does not build it.
    """
    from newstag.corpus import parse_corpus
    from newstag.credibility import symmetric_normalize
    from newstag.graph import all_relations_truncated, build_direct_graph, normalize

    corpus = parse_corpus(input_path)
    counters = recorder.counters
    with recorder.span("graph.direct_graph"):
        graph = build_direct_graph(corpus, weighted=True)
    counters["edges"] = graph.n_edges
    with recorder.span("graph.normalize"):
        relation = normalize(graph)
    if method == "newstag":
        with recorder.span("graph.closure"):
            relation = all_relations_truncated(relation, k1)
        counters["closure_nnz"] = relation.values.nnz
    with recorder.span("credibility.sym_normalize"):
        X, _ = symmetric_normalize(relation)
    counters["operator_nnz"] = X.nnz


def self_times(spans: list[dict], job: str) -> tuple[dict[str, float], float]:
    """Summed self time per span name of one job, and the job's root duration.

    Spans of one job run on one thread and nest strictly, so a span's
    children cover exactly the sum of their durations.
    """
    child_total = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_total[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, float] = {}
    root = 0.0
    for index, span in enumerate(spans):
        if span["job"] != job:
            continue
        duration = span["end"] - span["start"]
        totals[span["name"]] = totals.get(span["name"], 0.0) + duration - child_total[index]
        if span["parent"] is None:
            root += duration
    return totals, root
