"""News credibility inference from hashtag co-occurrence graphs.

The pipeline builds a hashtag graph from how news spreads on social
media, folds indirect (multi-hop) relations into it via a truncated
power series, propagates training-label credibility over the graph, and
predicts each unseen news item's credibility from the sign of its
hashtags' scores.
"""

from .corpus import (
    Corpus,
    CorpusError,
    NewsItem,
    Post,
    filter_by_time,
    normalize_hashtag,
    parse_corpus,
    split_corpus,
    write_corpus,
)
from .credibility import (
    PropagationConfig,
    cost_evaluate,
    init_credibility,
    predict,
    propagate_closed_form,
    propagate_iterative,
    rescale_credibility,
    score_news,
    symmetric_normalize,
)
from .graph import (
    GraphError,
    HashtagGraph,
    RelationMatrix,
    SeriesDivergentError,
    all_relations_exact,
    all_relations_truncated,
    build_direct_graph,
    export_graph,
    load_matrix,
    normalize,
    save_matrix,
)
from .harness import (
    ExperimentConfig,
    MetricsReport,
    compute_f1,
    grid_search_mu,
    run_experiment,
    sweep_detection_time,
    sweep_training_fraction,
)
from .analysis import case_study, convergence_trace, popularity_analysis, purity_analysis
from .synth import SyntheticParams, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "CorpusError",
    "ExperimentConfig",
    "GraphError",
    "HashtagGraph",
    "MetricsReport",
    "NewsItem",
    "Post",
    "PropagationConfig",
    "RelationMatrix",
    "SeriesDivergentError",
    "SyntheticParams",
    "all_relations_exact",
    "all_relations_truncated",
    "build_direct_graph",
    "case_study",
    "compute_f1",
    "convergence_trace",
    "cost_evaluate",
    "export_graph",
    "filter_by_time",
    "generate_synthetic",
    "grid_search_mu",
    "init_credibility",
    "load_matrix",
    "normalize",
    "normalize_hashtag",
    "parse_corpus",
    "popularity_analysis",
    "predict",
    "propagate_closed_form",
    "propagate_iterative",
    "purity_analysis",
    "rescale_credibility",
    "run_experiment",
    "save_matrix",
    "score_news",
    "split_corpus",
    "sweep_detection_time",
    "sweep_training_fraction",
    "symmetric_normalize",
    "write_corpus",
]
