"""Command-line interface.

Every artifact-producing run also writes a config-echo JSON
(``<out>.config.json``) capturing all effective parameters and the
seed; re-running with ``--config <echo>`` reproduces identical
artifacts.  Exit codes: 0 success, 1 flag/validation errors, 2 data
errors (missing or malformed inputs, degenerate experiments).  Errors
are single machine-parsable lines on stderr.

Handlers import the modules they run; the option tables take the
bounds of numeric flags from the library.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .corpus import MAX_SPAN_HOURS
from .credibility import MAX_ITERATIONS, MODE_CLOSED_FORM, MODE_ITERATIVE
from .graph import MAX_K1
from .harness import MAX_REPETITIONS, METHODS, ExperimentConfig
from .synth import (
    MAX_CHAIN_DEPTH,
    MAX_CHAINS,
    MAX_HASHTAGS,
    MAX_HASHTAGS_PER_POST,
    MAX_NEWS,
    MAX_POSTS_PER_NEWS,
)

DEFAULT_GRID = [round(0.1 * k, 1) for k in range(1, 10)]
DEFAULT_FRACTIONS = [0.2, 0.4, 0.6, 0.8]
DEFAULT_HORIZONS = [12.0, 24.0, 36.0, 48.0, 60.0]
DEFAULT_CHECKPOINTS = [12.0, 24.0, 36.0, 48.0, 60.0]

# Most values each list flag accepts.  On a 2-core x86 host one --grid or
# --fractions value costs 20-40 ms at q=800, one --horizons value a pipeline
# build and its repetitions (0.8-1.2 s at q=3k), and one --checkpoints value
# ~13 ms at q=30k.
MAX_GRID = 100
MAX_FRACTIONS = 100
MAX_HORIZONS = 24
MAX_CHECKPOINTS = 100
MAX_WATCHLIST = 10_000


class CliUsageError(Exception):
    """Flag or validation problem; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit 2; we reserve that for data errors
        raise CliUsageError(message)


@dataclass(frozen=True)
class Opt:
    """One subcommand option: CLI flag, type, default, echo behavior."""

    name: str  # underscored key, e.g. "train_fraction"
    kind: str  # "str" | "int" | "float" | "bool" | "floats" | "strs"
    default: object = None
    help: str = ""
    required: bool = False
    choices: tuple | None = None
    limit: float | None = None  # largest magnitude accepted for a number
    max_len: int | None = None  # most values accepted for a list

    @property
    def flag(self) -> str:
        return _flag(self.name)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_str_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


_CLI_TYPES = {"str": str, "int": int, "float": float, "floats": str, "strs": str, "bool": None}


def _add_opts(parser: argparse.ArgumentParser, opts: list[Opt]) -> None:
    for opt in opts:
        if opt.kind == "bool":
            parser.add_argument(opt.flag, action=argparse.BooleanOptionalAction, default=None, help=opt.help)
        else:
            parser.add_argument(
                opt.flag,
                type=_CLI_TYPES[opt.kind],
                default=None,
                choices=opt.choices if opt.kind in ("str", "int") else None,
                help=opt.help,
            )


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# what a value of each kind must be once a list flag's text is split
_KIND_CHECKS = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a number", _is_number),
    "floats": ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
    "strs": ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)),
}


def _coerce(opt: Opt, raw):
    """Check and normalize a value parsed from a flag or decoded from an echo."""
    if raw is None:
        return None
    value = raw
    if isinstance(raw, str):
        if opt.kind == "floats":
            value = _parse_float_list(raw)
        elif opt.kind == "strs":
            value = _parse_str_list(raw)
        elif opt.kind == "int" and re.fullmatch(r"\s*[+-]?[0-9]+\s*", raw):
            value = int(raw)
    what, check = _KIND_CHECKS[opt.kind]
    if not check(value):
        raise CliUsageError(f"{opt.flag} must be {what}, got {raw!r}")
    if opt.choices is not None and value not in opt.choices:
        raise CliUsageError(f"{opt.flag} must be one of {', '.join(opt.choices)}, got {raw!r}")
    if opt.max_len is not None and len(value) > opt.max_len:
        raise CliUsageError(f"{opt.flag} takes at most {opt.max_len} values, got {len(value)}")
    if opt.kind == "int":
        _check_limit(opt, [value], raw)
    elif opt.kind in ("float", "floats"):
        try:
            numbers = [float(n) for n in (value if opt.kind == "floats" else [value])]
        except OverflowError:  # an echo integer beyond the float range
            numbers = [math.inf]
        if not all(map(math.isfinite, numbers)):
            raise CliUsageError(f"{opt.flag} must be finite, got {raw!r}")
        _check_limit(opt, numbers, raw)
        value = numbers if opt.kind == "floats" else numbers[0]
    return value


def _check_limit(opt: Opt, numbers: list, value) -> None:
    if opt.limit is not None and not all(abs(n) <= opt.limit for n in numbers):
        raise CliUsageError(f"{opt.flag} must be at most {opt.limit} in magnitude, got {value!r}")


def _resolve(args: argparse.Namespace, opts: list[Opt], echo: dict) -> dict:
    """Effective parameters: CLI > config echo > defaults."""
    effective = {}
    for opt in opts:
        value = getattr(args, opt.name)
        if value is None:
            value = echo.get(opt.name)
        value = _coerce(opt, value)
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise CliUsageError(f"missing required option {opt.flag}")
        effective[opt.name] = value
    return effective


def _load_config_echo(path: str, subcommand: str, opts: list[Opt]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise CliUsageError(f"config file {path}: invalid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"config file {path}: invalid JSON: {exc.msg}") from exc
    except RecursionError:
        raise CliUsageError(f"config file {path}: invalid JSON: nested too deeply") from None
    if not isinstance(payload, dict):
        raise CliUsageError(f"config file {path}: expected a JSON object, got {type(payload).__name__}")
    if payload.get("subcommand") != subcommand:
        raise CliUsageError(
            f"config file {path} was written by subcommand "
            f"{payload.get('subcommand')!r}, not {subcommand!r}"
        )
    params = payload.get("parameters")
    if not isinstance(params, dict):
        raise CliUsageError(f"config file {path}: missing parameters object")
    unknown = sorted(set(params) - {opt.name for opt in opts})
    if unknown:
        raise CliUsageError(f"config file {path}: {subcommand} takes no parameter {unknown[0]!r}")
    return params


def _echo_path(out: str) -> str:
    return out + ".config.json"


def _write_echo(subcommand: str, effective: dict, out: str) -> None:
    from .reports import write_config_echo

    write_config_echo(subcommand, effective, _echo_path(out))


def _read_corpus(path: str, **options):
    """The corpus at ``path``, which may be any file that is not a
    directory, a pipe too; ``options`` go to ``parse_corpus``."""
    from .corpus import parse_corpus

    if Path(path).is_dir():
        raise IsADirectoryError(f"input path is a directory, not a corpus file: {path}")
    if not Path(path).exists():
        raise FileNotFoundError(f"input file not found: {path}")
    return parse_corpus(path, **options)


# ---------------------------------------------------------------------------
# Option tables
# ---------------------------------------------------------------------------

_DEFAULT = ExperimentConfig()  # the experiment options' defaults

_INPUT = Opt("input", "str", required=True, help="corpus JSONL path")
_K1 = Opt("k1", "int", _DEFAULT.k1, help="closure truncation order", limit=MAX_K1)
_OUT = Opt("out", "str", required=True, help="output artifact path")
_SEED = Opt("seed", "int", 0, help="base random seed")

RUN_OPTS = [
    _INPUT,
    Opt("method", "str", _DEFAULT.method, choices=METHODS, help="pipeline variant"),
    Opt("mu", "float", _DEFAULT.mu, help="regularization weight in (0,1)"),
    _K1,
    Opt("k2", "int", help="fixed propagation iteration count (sets tolerance to 0)", limit=MAX_ITERATIONS),
    Opt("max_iterations", "int", _DEFAULT.propagation.max_iterations, help="propagation iteration cap",
        limit=MAX_ITERATIONS),
    Opt("tolerance", "float", _DEFAULT.propagation.tolerance, help="propagation stopping tolerance (0 disables)"),
    Opt("mode", "str", _DEFAULT.propagation.mode, choices=(MODE_ITERATIVE, MODE_CLOSED_FORM),
        help="propagation solver"),
    Opt("train_fraction", "float", _DEFAULT.train_fraction, help="labeled fraction used for training"),
    Opt("horizon_hours", "float", help="optional detection-time filter in hours", limit=MAX_SPAN_HOURS),
    Opt("repetitions", "int", _DEFAULT.repetitions, help="number of repeated splits", limit=MAX_REPETITIONS),
    _SEED,
]

SYNTH_OPTS = [
    Opt("hashtags", "int", 800, help="pool hashtag count", limit=MAX_HASHTAGS),
    Opt("news", "int", 500, help="news item count", limit=MAX_NEWS),
    Opt("fake_ratio", "float", 0.5, help="fraction of fake news"),
    Opt("fake_pool_fraction", "float", 0.5, help="fraction of hashtags in the fake pool"),
    Opt("posts_min", "int", 3, help="minimum posts per news", limit=MAX_POSTS_PER_NEWS),
    Opt("posts_max", "int", 10, help="maximum posts per news", limit=MAX_POSTS_PER_NEWS),
    Opt("tags_min", "int", 1, help="minimum hashtags per post", limit=MAX_HASHTAGS_PER_POST),
    Opt("tags_max", "int", 4, help="maximum hashtags per post", limit=MAX_HASHTAGS_PER_POST),
    Opt("purity", "float", 1.0, help="own-pool draw probability, in (0.5, 1]"),
    Opt("chain_depth", "int", 0, help="bridge path length for designated chain news", limit=MAX_CHAIN_DEPTH),
    Opt("chains", "int", 0, help="number of designated chain news", limit=MAX_CHAINS),
    Opt("post_window_hours", "float", 48.0, help="post timestamp window after publish", limit=MAX_SPAN_HOURS),
    Opt("publish_step_hours", "float", 1.0, help="publish time spacing between news", limit=MAX_SPAN_HOURS),
    _SEED,
    _OUT,
]

VALIDATE_OPTS = [
    _INPUT,
    Opt("lenient", "bool", False, help="skip malformed records instead of failing"),
    Opt("clock_skew_hours", "float", 0.0, help="allowed post-before-publish slack", limit=MAX_SPAN_HOURS),
    Opt("out", "str", help="optional summary JSON path (default: stdout)"),
]

GRID_OPTS = [o for o in RUN_OPTS if o.name != "mu"] + [
    Opt("grid", "floats", DEFAULT_GRID, help="comma-separated mu grid", max_len=MAX_GRID),
    _OUT,
]

SWEEP_VOLUME_OPTS = [o for o in RUN_OPTS if o.name != "train_fraction"] + [
    Opt("fractions", "floats", DEFAULT_FRACTIONS, help="training fractions to sweep", max_len=MAX_FRACTIONS),
    _OUT,
]

SWEEP_TIME_OPTS = [o for o in RUN_OPTS if o.name != "horizon_hours"] + [
    Opt("horizons", "floats", DEFAULT_HORIZONS, help="detection horizons (hours) to sweep", limit=MAX_SPAN_HOURS,
        max_len=MAX_HORIZONS),
    _OUT,
]

ABLATE_OPTS = [o for o in RUN_OPTS if o.name != "method"] + [_OUT]

ANALYZE_OPTS = RUN_OPTS + [
    Opt("kind", "str", required=True,
        choices=("purity", "popularity", "convergence", "case-study"), help="analysis to run"),
    Opt("checkpoints", "floats", DEFAULT_CHECKPOINTS, help="popularity checkpoints (hours)",
        max_len=MAX_CHECKPOINTS),
    Opt("watchlist", "strs", [], help="comma-separated hashtags for the case study", max_len=MAX_WATCHLIST),
    Opt("per_news_out", "str", help="optional per-news popularity CSV"),
    _OUT,
]

EXPORT_OPTS = [
    _INPUT,
    Opt("matrix", "str", "truncated", choices=("normalized", "truncated"),
        help="relation matrix to build from the corpus"),
    Opt("weighted", "bool", True, help="count co-occurrences vs 0/1 indicator"),
    _K1,
    Opt("color_by", "str", "c_star", choices=("c_star", "none"),
        help="node coloring: all-data credibility or none"),
    Opt("edges_out", "str", required=True, help="TSV edge list path"),
    Opt("nodes_out", "str", help="TSV node table path"),
    Opt("dot_out", "str", help="optional DOT output path"),
]

RUN_ONLY_OPTS = RUN_OPTS + [
    Opt("predictions_out", "str", help="optional per-news predictions CSV (first repetition)"),
    _OUT,
]


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------

# ExperimentConfig field set by each experiment option; a subcommand that
# sweeps or grid-searches a field lacks its option and keeps the default.
_EXPERIMENT_FIELDS = {"method": "method", "mu": "mu", "k1": "k1", "train_fraction": "train_fraction",
                      "horizon_hours": "time_horizon_hours", "seed": "seed", "repetitions": "repetitions"}


def _with(name: str, value, config: ExperimentConfig, **changes) -> ExperimentConfig:
    """``config`` with the ``changes`` option ``name`` makes at ``value``, validated; an error names the flag."""
    try:
        config = replace(config, **changes)
        config.validate()
    except ValueError as exc:
        raise CliUsageError(f"{_flag(name)} value {value!r}: {exc}") from None
    return config


def _experiment_config(eff: dict) -> ExperimentConfig:
    """The experiment options' config, each option checked in turn on the defaults."""
    config = _DEFAULT
    for name, field in _EXPERIMENT_FIELDS.items():
        if name in eff:
            config = _with(name, eff[name], config, **{field: eff[name]})
    if eff["k2"] is not None:
        solver = [("k2", {"max_iterations": eff["k2"], "tolerance": 0.0})]
    else:
        solver = [("max_iterations", {"max_iterations": eff["max_iterations"]}),
                  ("tolerance", {"tolerance": eff["tolerance"]})]
    for name, changes in [*solver, ("mode", {"mode": eff["mode"]})]:
        config = _with(name, eff[name], config, propagation=replace(config.propagation, **changes))
    return config


def _rows(name: str, config: ExperimentConfig, field: str, values) -> list[tuple[str, ExperimentConfig]]:
    """One ``(repr(value), config)`` sweep row per value of list option ``name``, each set as ``field``."""
    if not values:
        raise CliUsageError(f"{_flag(name)} needs at least one value")
    return [(repr(value), _with(name, value, config, **{field: value})) for value in values]


def _synthetic_params(eff: dict):
    from .synth import SyntheticParams

    return SyntheticParams(
        hashtags=eff["hashtags"],
        news=eff["news"],
        fake_ratio=eff["fake_ratio"],
        fake_pool_fraction=eff["fake_pool_fraction"],
        posts_per_news=(eff["posts_min"], eff["posts_max"]),
        hashtags_per_post=(eff["tags_min"], eff["tags_max"]),
        purity=eff["purity"],
        chain_depth=eff["chain_depth"],
        chains=eff["chains"],
        publish_step_hours=eff["publish_step_hours"],
        post_window_hours=eff["post_window_hours"],
    )


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def _cmd_validate(eff: dict) -> int:
    from datetime import timedelta

    from .corpus import corpus_stats
    from .reports import write_json

    problems: list[tuple[int, str]] = []
    skew = timedelta(hours=eff["clock_skew_hours"])
    corpus = _read_corpus(eff["input"], lenient=eff["lenient"], clock_skew=skew, errors=problems)
    summary = corpus_stats(corpus, clock_skew=skew)
    summary["skipped_records"] = len(problems)
    if eff["out"]:
        write_json(summary, eff["out"])
        _write_echo("validate", eff, eff["out"])
    else:
        print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_synth(eff: dict) -> int:
    from .corpus import write_corpus
    from .synth import generate_synthetic

    params = _synthetic_params(eff)
    try:
        params.validate()
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
    corpus = generate_synthetic(params, eff["seed"])
    write_corpus(corpus, eff["out"])
    _write_echo("synth", eff, eff["out"])
    print(f"wrote {len(corpus)} news items to {eff['out']}")
    return 0


def _cmd_run(eff: dict) -> int:
    from .harness import run_experiment
    from .reports import write_metrics_json, write_predictions_csv

    config = _experiment_config(eff)
    corpus = _read_corpus(eff["input"])
    want_predictions = bool(eff.get("predictions_out"))
    report = run_experiment(corpus, config, collect_predictions=want_predictions)
    write_metrics_json(report, eff["out"])
    if want_predictions:
        write_predictions_csv(report.repetitions[0].predictions, eff["predictions_out"])
    _write_echo("run", eff, eff["out"])
    print(
        f"{config.method}: macro F1 {report.macro_f1_mean:.4f} +/- {report.macro_f1_std:.4f}, "
        f"micro F1 {report.micro_f1_mean:.4f} +/- {report.micro_f1_std:.4f}"
    )
    return 0


def _cmd_grid_mu(eff: dict) -> int:
    from .harness import grid_search_mu
    from .reports import write_grid_csv

    config = _experiment_config(eff)
    if not any(0.0 < mu < 1.0 for mu in eff["grid"]):
        raise CliUsageError(f"--grid needs a value in (0,1), got {eff['grid']!r}")
    corpus = _read_corpus(eff["input"])
    result = grid_search_mu(corpus, config, eff["grid"])
    write_grid_csv(result, eff["out"])
    _write_echo("grid-mu", eff, eff["out"])
    print(f"best mu: {result.best_mu}")
    return 0


def _cmd_sweep_volume(eff: dict) -> int:
    rows = _rows("fractions", _experiment_config(eff), "train_fraction", eff["fractions"])
    return _write_sweep("sweep-volume", eff, rows)


def _cmd_sweep_time(eff: dict) -> int:
    config = _experiment_config(eff)  # sweep-time takes no --horizon-hours: the unfiltered "all" row
    rows = _rows("horizons", config, "time_horizon_hours", eff["horizons"]) + [("all", config)]
    return _write_sweep("sweep-time", eff, rows)


def _write_sweep(subcommand: str, eff: dict, rows) -> int:
    from .harness import sweep
    from .reports import write_sweep_csv

    rows = sweep(_read_corpus(eff["input"]), rows)
    write_sweep_csv(rows, eff["out"])
    _write_echo(subcommand, eff, eff["out"])
    print(f"wrote {len(rows)} sweep rows to {eff['out']}")
    return 0


def _cmd_ablate(eff: dict) -> int:
    from .harness import sweep
    from .reports import write_json

    config = _experiment_config(eff)
    rows = sweep(_read_corpus(eff["input"]), [(method, replace(config, method=method)) for method in METHODS])
    payload = {"methods": {method: report.to_dict() for method, report in rows}}
    write_json(payload, eff["out"])
    _write_echo("ablate", eff, eff["out"])
    for method, entry in payload["methods"].items():
        agg = entry["aggregate"]
        print(f"{method}: macro {agg['macro_f1_mean']:.4f} micro {agg['micro_f1_mean']:.4f}")
    return 0


def _cmd_analyze(eff: dict) -> int:
    from .analysis import case_study, convergence_trace, popularity_analysis, purity_analysis
    from .corpus import filter_by_time
    from .reports import (
        write_case_study_csv,
        write_convergence_csv,
        write_popularity_csv,
        write_purity_csv,
    )

    kind = eff["kind"]
    config = _experiment_config(eff) if kind in ("convergence", "case-study") else None
    if kind == "case-study" and not eff["watchlist"]:
        raise CliUsageError("case-study analysis requires --watchlist")
    corpus = _read_corpus(eff["input"])
    if kind in ("purity", "popularity") and eff["horizon_hours"] is not None:
        # convergence and case-study cut the corpus in build_pipeline
        corpus = filter_by_time(corpus, eff["horizon_hours"])
    if kind == "purity":
        write_purity_csv(purity_analysis(corpus), eff["out"])
    elif kind == "popularity":
        from .reports import write_popularity_per_news_csv

        report = popularity_analysis(corpus, eff["checkpoints"])
        write_popularity_csv(report, eff["out"])
        if eff.get("per_news_out"):
            write_popularity_per_news_csv(report, eff["per_news_out"])
    elif kind == "convergence":
        write_convergence_csv(convergence_trace(corpus, config), eff["out"])
    else:  # case-study
        rows = case_study(corpus, config, eff["watchlist"])
        write_case_study_csv(rows, eff["out"])
    _write_echo("analyze", eff, eff["out"])
    print(f"wrote {kind} analysis to {eff['out']}")
    return 0


def _cmd_export(eff: dict) -> int:
    from .credibility import init_credibility
    from .graph import all_relations_truncated, build_direct_graph, export_graph, normalize

    if eff["k1"] < 1:
        raise CliUsageError(f"--k1 must be >= 1, got {eff['k1']}")
    corpus = _read_corpus(eff["input"])
    matrix = normalize(build_direct_graph(corpus, weighted=eff["weighted"]))
    if eff["matrix"] == "truncated":
        matrix = all_relations_truncated(matrix, eff["k1"])
    credibility = None
    # only the node table and the DOT file carry colours
    if eff["color_by"] == "c_star" and (eff["nodes_out"] or eff["dot_out"]):
        if not corpus.occurrences.labels.any():
            raise CliUsageError(
                "coloring by all-data credibility needs a labeled --input corpus; "
                "use --color-by none otherwise"
            )
        credibility = init_credibility(corpus, corpus.occurrences.labels.nonzero()[0], per_post=True)

    export_graph(
        matrix,
        credibility,
        edges_path=eff["edges_out"],
        nodes_path=eff["nodes_out"],
        dot_path=eff["dot_out"],
    )
    _write_echo("export", eff, eff["edges_out"])
    print(f"wrote edge list to {eff['edges_out']}")
    return 0


SUBCOMMANDS = {
    "validate": (VALIDATE_OPTS, _cmd_validate, "parse and validate a corpus, print a summary"),
    "synth": (SYNTH_OPTS, _cmd_synth, "generate a synthetic corpus"),
    "run": (RUN_ONLY_OPTS, _cmd_run, "run a full experiment and write a metrics report"),
    "grid-mu": (GRID_OPTS, _cmd_grid_mu, "grid-search mu on an inner validation split"),
    "sweep-volume": (SWEEP_VOLUME_OPTS, _cmd_sweep_volume, "sweep the training fraction"),
    "sweep-time": (SWEEP_TIME_OPTS, _cmd_sweep_time, "sweep the detection-time horizon"),
    "ablate": (ABLATE_OPTS, _cmd_ablate, "run all method variants and compare"),
    "analyze": (ANALYZE_OPTS, _cmd_analyze, "purity/popularity/convergence/case-study analyses"),
    "export": (EXPORT_OPTS, _cmd_export, "export edge-list/node-table artifacts"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="newstag", description="Hashtag-graph news credibility pipeline")
    parser.add_argument("--verbose", action="store_true", help="enable info-level logging")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, (opts, _, help_text) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.add_argument("--config", type=str, default=None,
                        help="config-echo JSON from a previous run (flags override)")
        _add_opts(sp, opts)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.subcommand:
            raise CliUsageError("a subcommand is required (see --help)")
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        # Imported here so the data-error classes are available to the
        # handlers' except clauses.
        from .corpus import CorpusError
        from .graph import GraphError

        opts, handler, _ = SUBCOMMANDS[args.subcommand]
        try:
            echo = _load_config_echo(args.config, args.subcommand, opts) if args.config else {}
            return handler(_resolve(args, opts, echo))
        except (CorpusError, GraphError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
