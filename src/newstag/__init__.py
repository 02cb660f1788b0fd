"""News credibility inference from hashtag co-occurrence graphs.

The pipeline builds a hashtag graph from how news spreads on social
media, folds indirect (multi-hop) relations into it via a truncated
power series, propagates training-label credibility over the graph, and
predicts each unseen news item's credibility from the sign of its
hashtags' scores.
"""

from importlib import import_module

# Each export and the module it lives in.  Exports are imported on first
# access (PEP 562), so that importing one module, such as the corpus
# reader, does not load the others and SciPy with them.
_EXPORTS = {
    "corpus": (
        "Corpus",
        "CorpusError",
        "NewsItem",
        "Post",
        "filter_by_time",
        "normalize_hashtag",
        "parse_corpus",
        "split_corpus",
        "write_corpus",
    ),
    "credibility": (
        "PowerSeries",
        "PropagationConfig",
        "init_credibility",
        "predict",
        "propagate_closed_form",
        "propagate_iterative",
        "rescale_credibility",
        "score_news",
        "symmetric_normalize",
    ),
    "graph": (
        "GraphError",
        "RelationMatrix",
        "all_relations_truncated",
        "build_direct_graph",
        "export_graph",
        "normalize",
    ),
    "harness": (
        "ExperimentConfig",
        "MetricsReport",
        "compute_f1",
        "grid_search_mu",
        "run_experiment",
        "sweep",
    ),
    "analysis": ("case_study", "convergence_trace", "popularity_analysis", "purity_analysis"),
    "synth": ("SyntheticParams", "generate_synthetic"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)
