"""Artifact writers.  All output is UTF-8 with fixed "\\n" line endings.
CSV rows go through the csv module, which writes a float (NumPy scalars
included) in its shortest round-trip form and ``None`` as an empty
field, so identical inputs always produce byte-identical files."""

from __future__ import annotations

import csv
import json
from dataclasses import astuple, fields
from pathlib import Path
from typing import Iterable

from .analysis import CaseStudyRow, ConvergenceTrace, PopularityReport, PurityReport, PurityRow
from .harness import GridSearchResult, MetricsReport

SWEEP_HEADER = ["x", "macro_f1_mean", "macro_f1_std", "micro_f1_mean", "micro_f1_std"]
_GRID_COLUMNS = ["mu", "micro_f1_mean", "micro_f1_std", "macro_f1_mean", "macro_f1_std"]
_POPULARITY_HEADER = ["checkpoint_hours", "label", "n", "min", "q1", "median", "q3", "max", "mean"]


def _open(path: str | Path):
    return open(path, "w", encoding="utf-8", newline="")


def _write_rows(path: str | Path, header: list, rows: Iterable) -> None:
    with _open(path) as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)


def write_json(payload: dict, path: str | Path) -> None:
    with _open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=True)
        fh.write("\n")


def write_metrics_json(report: MetricsReport, path: str | Path) -> None:
    write_json(report.to_dict(), path)


def write_predictions_csv(predictions: dict[str, tuple[int, float]], path: str | Path) -> None:
    """One row per news id: (news_id, predicted_label, score)."""
    rows = ((news_id, *predictions[news_id]) for news_id in sorted(predictions))
    _write_rows(path, ["news_id", "predicted_label", "score"], rows)


def write_sweep_csv(rows: list[tuple[object, MetricsReport]], path: str | Path) -> None:
    """Sweep output: x is the swept value (fraction, horizon, or "all")."""
    values = ([x, *(getattr(report, key) for key in SWEEP_HEADER[1:])] for x, report in rows)
    _write_rows(path, SWEEP_HEADER, values)


def write_grid_csv(result: GridSearchResult, path: str | Path) -> None:
    rows = ([row[key] for key in _GRID_COLUMNS] + [int(row["mu"] == result.best_mu)] for row in result.rows)
    _write_rows(path, _GRID_COLUMNS + ["best"], rows)


def write_purity_csv(report: PurityReport, path: str | Path) -> None:
    _write_rows(path, [f.name for f in fields(PurityRow)], map(astuple, report.rows))


def write_popularity_csv(report: PopularityReport, path: str | Path) -> None:
    rows = ([row[key] for key in _POPULARITY_HEADER] for row in report.summary)
    _write_rows(path, _POPULARITY_HEADER, rows)


def write_popularity_per_news_csv(report: PopularityReport, path: str | Path) -> None:
    rows = ([row["news_id"], row["label"], *row["counts"]] for row in report.per_news)
    _write_rows(path, ["news_id", "label", *report.checkpoints], rows)


def write_case_study_csv(rows: tuple[CaseStudyRow, ...], path: str | Path) -> None:
    _write_rows(path, [f.name for f in fields(CaseStudyRow)], map(astuple, rows))


def write_convergence_csv(trace: ConvergenceTrace, path: str | Path) -> None:
    """Both residual series in one long-format CSV (loop, iteration, residual)."""
    series = (("closure", trace.closure_residuals), ("propagation", trace.propagation_residuals))
    rows = ((loop, i, value) for loop, values in series for i, value in enumerate(values, start=1))
    _write_rows(path, ["loop", "iteration", "residual"], rows)


def write_config_echo(subcommand: str, parameters: dict, path: str | Path) -> None:
    """Record every effective parameter (including the seed) of a run."""
    write_json({"subcommand": subcommand, "parameters": parameters}, path)
