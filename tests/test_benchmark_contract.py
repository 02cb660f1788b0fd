"""Contract between the benchmark's wrappers and the program it wraps.

The benchmark (``benchmarks/``) records spans and counters by replacing
module attributes of newstag; ``tracing.install`` skips an attribute
that no longer exists, so a rename would silently drop a span or a
counter.  These tests import the benchmark's modules unchanged and check
that every wrapped name still exists and that a small job through the
real CLI records the counters the independent reference expects.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

import newstag.corpus
import newstag.harness
import newstag.reports
from newstag import cli
from newstag.corpus import write_corpus
from newstag.synth import SyntheticParams, generate_synthetic

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
MODULES = {"corpus": newstag.corpus, "harness": newstag.harness, "reports": newstag.reports}


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``tracing``, ``reference`` and ``run`` modules."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    modules = {name: importlib.import_module(name) for name in ("tracing", "reference", "run")}
    yield modules
    for name in modules:
        sys.modules.pop(name, None)


def wrapped_names(tracing):
    return [(mod, attr) for mod, attr, _ in (*tracing.JOB_SPANS, *tracing.COUNTED)]


def test_every_wrapped_attribute_exists(bench):
    missing = [f"{mod}.{attr}" for mod, attr in wrapped_names(bench["tracing"])
               if not hasattr(MODULES[mod], attr)]
    assert not missing


@pytest.mark.parametrize("subcommand, propagations", [("run", 10), ("grid-mu", 90)])
@pytest.mark.parametrize("method", ["newstag", "newstag_no_indirect"])
def test_counters_match_reference(bench, monkeypatch, tmp_path, subcommand, propagations, method):
    tracing, reference, run = bench["tracing"], bench["reference"], bench["run"]
    corpus = tmp_path / "corpus.jsonl"
    # the benchmark's corpus shape (news = 5/8 of the hashtags) at q=60
    write_corpus(generate_synthetic(SyntheticParams(hashtags=60, news=37, purity=0.9), seed=1), corpus)
    # registered first, so the originals come back after the test
    for mod, attr in wrapped_names(tracing):
        monkeypatch.setattr(MODULES[mod], attr, getattr(MODULES[mod], attr))
    recorder = tracing.Recorder()
    tracing.install(recorder)
    recorder.start_job("0")
    argv, _ = run.job_argv({"subcommand": subcommand, "method": method}, 1, corpus, tmp_path)
    assert cli.main([arg.replace("{job}", "0") for arg in argv]) == 0

    ref_corpus = reference.Corpus(str(corpus))
    protocol = {**run.PROTOCOL, "method": method, "seed": 1}
    recompute = reference.reference_run if subcommand == "run" else reference.reference_grid
    expected = {"posts": ref_corpus.n_posts, **recompute(ref_corpus, protocol)["counters"]}
    assert ("closure_nnz" in expected) == (method == "newstag")
    assert recorder.counters == expected
    assert json.loads(json.dumps(recorder.counters)) == expected  # the worker sends counters as JSON
    assert len(recorder.counters["propagate_iters"]) == propagations
