"""Artifact writers.  All output is UTF-8 with fixed "\\n" line endings
and shortest round-trip float formatting, so identical inputs always
produce byte-identical files."""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .analysis import CaseStudyRow, ConvergenceTrace, PopularityReport, PurityReport
from .harness import GridSearchResult, MetricsReport

SWEEP_HEADER = ["x", "macro_f1_mean", "macro_f1_std", "micro_f1_mean", "micro_f1_std"]


def _open(path: str | Path):
    return open(path, "w", encoding="utf-8", newline="")


def _writer(fh) -> csv.writer:
    return csv.writer(fh, lineterminator="\n")


def write_json(payload: dict, path: str | Path) -> None:
    with _open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=True)
        fh.write("\n")


def write_metrics_json(report: MetricsReport, path: str | Path) -> None:
    write_json(report.to_dict(), path)


def write_predictions_csv(predictions: dict[str, tuple[int, float]], path: str | Path) -> None:
    """One row per news id: (news_id, predicted_label, score)."""
    with _open(path) as fh:
        out = _writer(fh)
        out.writerow(["news_id", "predicted_label", "score"])
        for news_id in sorted(predictions):
            label, score = predictions[news_id]
            out.writerow([news_id, label, repr(score)])


def write_sweep_csv(rows: list[tuple[object, MetricsReport]], path: str | Path) -> None:
    """Sweep output: x is the swept value (fraction, horizon, or "all")."""
    with _open(path) as fh:
        out = _writer(fh)
        out.writerow(SWEEP_HEADER)
        for x, report in rows:
            out.writerow(
                [
                    x,
                    repr(report.macro_f1_mean),
                    repr(report.macro_f1_std),
                    repr(report.micro_f1_mean),
                    repr(report.micro_f1_std),
                ]
            )


def write_grid_csv(result: GridSearchResult, path: str | Path) -> None:
    with _open(path) as fh:
        out = _writer(fh)
        out.writerow(["mu", "micro_f1_mean", "micro_f1_std", "macro_f1_mean", "macro_f1_std", "best"])
        for row in result.rows:
            out.writerow(
                [
                    repr(row["mu"]),
                    repr(row["micro_f1_mean"]),
                    repr(row["micro_f1_std"]),
                    repr(row["macro_f1_mean"]),
                    repr(row["macro_f1_std"]),
                    int(row["mu"] == result.best_mu),
                ]
            )


def write_purity_csv(report: PurityReport, path: str | Path) -> None:
    with _open(path) as fh:
        out = _writer(fh)
        out.writerow(["news_id", "label", "n_hashtags", "frac_fake_only", "frac_true_only", "frac_mixed"])
        for row in report.rows:
            out.writerow(
                [
                    row.news_id,
                    row.label,
                    row.n_hashtags,
                    repr(row.frac_fake_only),
                    repr(row.frac_true_only),
                    repr(row.frac_mixed),
                ]
            )


def write_popularity_csv(report: PopularityReport, path: str | Path) -> None:
    with _open(path) as fh:
        out = _writer(fh)
        out.writerow(["checkpoint_hours", "label", "n", "min", "q1", "median", "q3", "max", "mean"])
        for row in report.summary:
            out.writerow(
                [
                    repr(row["checkpoint_hours"]),
                    row["label"],
                    row["n"],
                    repr(row["min"]),
                    repr(row["q1"]),
                    repr(row["median"]),
                    repr(row["q3"]),
                    repr(row["max"]),
                    repr(row["mean"]),
                ]
            )


def write_popularity_per_news_csv(report: PopularityReport, path: str | Path) -> None:
    with _open(path) as fh:
        out = _writer(fh)
        out.writerow(["news_id", "label"] + [repr(c) for c in report.checkpoints])
        for row in report.per_news:
            out.writerow([row["news_id"], row["label"]] + row["counts"])


def write_case_study_csv(rows: tuple[CaseStudyRow, ...], path: str | Path) -> None:
    with _open(path) as fh:
        out = _writer(fh)
        out.writerow(["hashtag", "status", "c_star", "c_hat_rescaled"])
        for row in rows:
            out.writerow(
                [
                    row.hashtag,
                    row.status,
                    "" if row.c_star is None else repr(row.c_star),
                    "" if row.c_hat_rescaled is None else repr(row.c_hat_rescaled),
                ]
            )


def write_convergence_csv(trace: ConvergenceTrace, path: str | Path) -> None:
    """Both residual series in one long-format CSV (loop, iteration, residual)."""
    with _open(path) as fh:
        out = _writer(fh)
        out.writerow(["loop", "iteration", "residual"])
        for i, value in enumerate(trace.closure_residuals, start=1):
            out.writerow(["closure", i, repr(value)])
        for i, value in enumerate(trace.propagation_residuals, start=1):
            out.writerow(["propagation", i, repr(value)])


def write_config_echo(subcommand: str, parameters: dict, path: str | Path) -> None:
    """Record every effective parameter (including the seed) of a run."""
    write_json({"subcommand": subcommand, "parameters": parameters}, path)
