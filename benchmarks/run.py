"""newstag benchmark: time the CLI as a batch job, check its outputs, trace its layers.

    python3 benchmarks/run.py --workload grid-mu-800 --seed 1 --seconds 40 --trace 0

Run from the repository root.  The run generates the workload's input
from ``--seed`` (set-up, repeated and timed), runs the job back to back
for ``--seconds`` in one memory-capped worker process, checks every
job's output against an independent reference, and prints a summary
followed by one JSON line: end-to-end metrics with ``--trace 0``,
per-layer metrics from one extra traced job with ``--trace 1``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import JOB_SPANS, PROBE_SPANS, ROOT_SPAN, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The worker's address-space cap: about 2.6x the heaviest workload's
# virtual-memory peak (run-3k, ~0.8 GB), and under a third of an 8 GB host.
MEMORY_CAP_MB = 2048
# Set-up: the import of newstag is timed in IMPORT_REPEATS fresh processes;
# generating and writing the input is repeated in one process, at least 3
# times, then more (up to 15) while the repeats, calibrations included,
# have taken under 3 s.
IMPORT_REPEATS = 5
GENERATE_REPEATS = (3, 15, 3.0)
# Wall times are scaled to the host speed at which the calibration loop
# (worker.calibrate) takes this long; see "Host speed" in README.md.
CALIBRATION_REFERENCE_S = 0.3
TIME_LIMIT_S = 180.0
REFERENCE_RESERVE_S = 30.0  # time kept back for the reference check
# The traced job's wall time also covers the root span's own two clock reads.
ROOT_SPAN_TOLERANCE_S = 1e-3

PROTOCOL = {
    "mu": 0.4,
    "k1": 10,
    "repetitions": 10,
    "tolerance": 1e-9,
    "max_iterations": 100,
    "train_fraction": 0.8,
    "grid": [round(0.1 * k, 1) for k in range(1, 10)],
}

WORKLOADS = {
    "run-3k": {"hashtags": 3000, "subcommand": "run", "method": "newstag"},
    "no-indirect-30k": {"hashtags": 30000, "subcommand": "run", "method": "newstag_no_indirect"},
    "grid-mu-800": {"hashtags": 800, "subcommand": "grid-mu", "method": "newstag"},
}

LAYER_SPANS = tuple(dict.fromkeys(name for _, _, name in JOB_SPANS))


def job_argv(workload: dict, seed: int, input_path: Path, work: Path) -> tuple[list[str], list[str]]:
    """CLI arguments and output artifacts of one job; ``{job}`` marks the job number."""
    p = PROTOCOL
    argv = [workload["subcommand"], "--input", str(input_path), "--method", workload["method"],
            "--k1", str(p["k1"]), "--repetitions", str(p["repetitions"]),
            "--tolerance", repr(p["tolerance"]), "--max-iterations", str(p["max_iterations"]),
            "--train-fraction", repr(p["train_fraction"]), "--mode", "iterative", "--seed", str(seed)]
    if workload["subcommand"] == "run":
        artifacts = [str(work / "report-{job}.json"), str(work / "predictions-{job}.csv")]
        argv += ["--mu", repr(p["mu"]), "--out", artifacts[0], "--predictions-out", artifacts[1]]
    else:
        artifacts = [str(work / "grid-{job}.csv")]
        argv += ["--grid", ",".join(map(repr, p["grid"])), "--out", artifacts[0]]
    return argv, artifacts


def set_environment(threads: int) -> None:
    """Let child processes import newstag from src/ and cap BLAS threads (here and in children)."""
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for var in ("NEWSTAG_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def run_worker(mode: str, spec: dict | None, work: Path, timeout: float) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), mode]
    if spec is not None:
        spec_path = work / f"{mode}-spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        argv.append(str(spec_path))
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)


def worker_output(mode: str, spec: dict | None, work: Path) -> dict:
    """The last stdout line of a set-up process; its failure ends the run."""
    proc = run_worker(mode, spec, work, timeout=90)
    if proc.returncode != 0:
        fail(f"set-up ({mode}) failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_results(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def fail(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if not (SRC / "newstag" / "__init__.py").is_file():
        fail(f"newstag sources not found under {SRC}")
    if args.seed < 0:
        fail("--seed must be non-negative")

    workload = WORKLOADS[args.workload]
    threads = len(os.sched_getaffinity(0))
    set_environment(threads)
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(args, workload, work, threads, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


def measure(args, workload: dict, work: Path, threads: int, started: float) -> dict:
    input_path = work / "input.jsonl"

    # Set-up: import newstag (fresh processes), then generate and write the input (one process).
    imported = [worker_output("import", None, work) for _ in range(IMPORT_REPEATS)]
    imports = [r["import_s"] for r in imported]
    generated = worker_output("setup", {"hashtags": workload["hashtags"], "seed": args.seed,
                                        "input": str(input_path), "repeats": GENERATE_REPEATS}, work)
    setup_wall_s = statistics.median(imports) + statistics.median(generated["generate_s"])
    setup_s = (statistics.median(scaled(imports, [r["calibration_s"] for r in imported], pairs=False))
               + statistics.median(scaled(generated["generate_s"], generated["calibration_s"])))
    problems = []
    if len(set(generated["digests"])) != 1:
        problems.append("nondeterministic input: set-up repeats with one seed wrote different files")

    # Timed jobs (and, with --trace 1, the traced job) in one capped worker.
    argv, artifacts = job_argv(workload, args.seed, input_path, work)
    spec = {"argv": argv, "artifacts": artifacts, "input": str(input_path), "seconds": args.seconds,
            "trace": bool(args.trace), "method": workload["method"], "k1": PROTOCOL["k1"],
            "memory_cap_mb": MEMORY_CAP_MB, "results": str(work / "results.jsonl"),
            "spans": str(WORK / f"spans-{args.workload}-seed{args.seed}.json")}
    budget = TIME_LIMIT_S - REFERENCE_RESERVE_S - (time.monotonic() - started)
    crash = None
    try:
        proc = run_worker("jobs", spec, work, timeout=max(budget, 1.0))
        if proc.returncode != 0:
            crash = f"worker exited with code {proc.returncode}: {proc.stderr.strip()[-500:]}"
    except subprocess.TimeoutExpired:
        crash = f"worker killed after {budget:.0f} s (run time limit)"
    records = read_results(Path(spec["results"]))
    jobs = [r for r in records if "job" in r]
    # A timed job's record carries the calibration made just before it;
    # the one after the last job is a record of its own.
    calibrations = [r["calibration_s"] for r in records if "calibration_s" in r]
    calibrated = [j for j in jobs if "calibration_s" in j]
    for job, adjusted_s in zip(calibrated, scaled([j["seconds"] for j in calibrated], calibrations)):
        job["adjusted_s"] = adjusted_s
    probe = next((r for r in records if r.get("probe")), None)
    peak = next((r["peak_rss_mb"] for r in records if "peak_rss_mb" in r), None)
    if crash is not None:
        jobs.append({"job": "crash", "seconds": None, "reason": crash, "counters": {}, "digest": None})

    # Correctness, outside the timed window: every distinct output against the reference.
    checked_at = time.monotonic()
    from reference import Corpus, check_grid, check_run, macro_f1_of, reference_grid, reference_run

    corpus = Corpus(str(input_path))
    protocol = {**PROTOCOL, "method": workload["method"], "seed": args.seed}
    if workload["subcommand"] == "run":
        expected = reference_run(corpus, protocol)
        check = functools.partial(check_run, expected)
    else:
        expected = reference_grid(corpus, protocol)
        check = functools.partial(check_grid, expected)
    counters = {"posts": corpus.n_posts, **expected["counters"]}
    verdicts: dict[str, list[str]] = {}
    macro_f1 = None
    first_digest = next((j["digest"] for j in jobs if j["digest"]), None)
    for job in jobs:
        if job["reason"] is not None:
            continue
        if job["digest"] not in verdicts:
            verdicts[job["digest"]] = check(*job["artifacts"])
            if job["digest"] == first_digest:
                macro_f1 = macro_f1_of(workload["subcommand"], job["artifacts"])
        reasons = list(verdicts[job["digest"]])
        if job["digest"] != first_digest:
            reasons.append("output bytes differ from the first job's (determinism contract)")
        reasons += counter_mismatches(job["counters"], counters)
        if reasons:
            job["reason"] = "; ".join(reasons)
    if probe is not None:
        problems += [f"probe: {m}" for m in counter_mismatches(probe["counters"], counters,
                                                                  [k for k in counters if k != "propagate_iters"])]

    reference_s = time.monotonic() - checked_at
    failed = [j for j in jobs if j["reason"] is not None]
    passed = [j for j in jobs if j["reason"] is None and not j.get("traced")]
    timed = [j["adjusted_s"] for j in passed]
    timed_wall = [j["seconds"] for j in passed]
    correct = not failed and not problems

    print(f"workload {args.workload}  seed {args.seed}  blas threads {threads}  "
          f"memory cap {MEMORY_CAP_MB} MiB  window {args.seconds:g} s  "
          f"elapsed {time.monotonic() - started:.1f} s (reference check {reference_s:.1f} s)")
    print(f"set-up import {statistics.median(imports):.4f} s (median of {len(imports)} processes), "
          f"generate+write {statistics.median(generated['generate_s']):.4f} s "
          f"(median of {len(generated['generate_s'])} repeats); calibrations "
          + " ".join(f"{r['calibration_s']:.4f}" for r in imported) + " | "
          + " ".join(f"{c:.4f}" for c in generated["calibration_s"]))
    print("counters " + " ".join(f"{k}={v}" for k, v in counters.items() if k != "propagate_iters")
          + f" propagate_iters={sum(counters['propagate_iters'])} over {len(counters['propagate_iters'])} propagations")
    for job in failed:
        print(f"FAILED job {job['job']}: {job['reason']}")
    for message in problems:
        print(f"FAILED {message}")
    print("calibration seconds " + " ".join(f"{c:.4f}" for c in calibrations))
    print("job seconds " + " ".join(f"{j['job']}:{j['seconds']:.4f}" for j in jobs if j["seconds"] is not None))
    print("job seconds at reference speed " + " ".join(f"{j['job']}:{j['adjusted_s']:.4f}"
                                                        for j in jobs if "adjusted_s" in j))
    if timed_wall:
        print(f"median wall times: job {statistics.median(timed_wall):.4f} s, set-up {setup_wall_s:.4f} s")
    print(f"error_rate {len(failed) / len(jobs):.4f} ({len(failed)} of {len(jobs)} jobs)")
    traced = next((j for j in jobs if j.get("traced") and j["reason"] is None), None)
    if not timed or (args.trace and (traced is None or probe is None)):
        fail("no job (or traced job) passed, so there is nothing to measure")

    if args.trace:
        observed = {**traced["counters"], **probe["counters"]}
        metrics = layer_metrics(spec["spans"], observed, timed_wall, traced["seconds"])
    else:
        metrics = {
            "job_s": (statistics.median(timed), "s", len(timed)),
            "setup_s": (setup_s, "s", len(generated["generate_s"])),
            "peak_rss_mb": (peak, "MiB", 1),
            "macro_f1": (macro_f1, "ratio", 1),
            "success_rate": (1.0 - len(failed) / len(jobs), "ratio", len(jobs)),
        }
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:36s} {value!s:>24} {unit:6s} n={n}")
    return {
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def scaled(seconds: list[float], calibrations: list[float], pairs: bool = True) -> list[float]:
    """Wall times scaled to the reference host speed.

    With ``pairs``, time i was taken between calibrations i and i+1 and is
    scaled by their mean (by calibration i alone if i+1 is missing);
    otherwise each time has a calibration of its own, made just after it.
    """
    width = 2 if pairs else 1
    return [s * CALIBRATION_REFERENCE_S / statistics.fmean(calibrations[i:i + width])
            for i, s in enumerate(seconds)]


def counter_mismatches(got: dict, expected: dict, keys=None) -> list[str]:
    """Counters (by default every reference counter) that a run did not record or got different.

    A difference means nondeterminism or a wrong count; a missing counter
    means the job no longer made a call the benchmark counts.
    """
    return [f"counter {key}={got.get(key, 'missing')!r}, reference {expected[key]!r}"
            for key in sorted(expected if keys is None else keys) if got.get(key) != expected[key]]


def layer_metrics(spans_path: str, counters: dict, timed: list[float], traced_seconds: float) -> dict:
    """Per-layer metrics from the traced job's spans and counters and the separately timed graph calls.

    The self times of one job's spans add up to its root span by
    construction; the root span is checked against the job's own wall
    time.  The closure of ``newstag_no_indirect``, which that method does
    not build, reads 0.
    """
    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)
    layers, traced_job_s = self_times(spans, "traced")
    probe_s, _ = self_times(spans, "probe")
    metrics = {}
    for name in PROBE_SPANS:
        metrics[f"{name}_s"] = (probe_s.get(name, 0.0), "s", 1)
    for name in LAYER_SPANS:
        metrics[f"{name}_s"] = (layers.get(name, 0.0), "s", 1)
    metrics["cli.self_s"] = (layers.get(ROOT_SPAN, 0.0), "s", 1)
    metrics["trace.job_s"] = (traced_job_s, "s", 1)
    metrics["trace.overhead_s"] = (traced_job_s - statistics.median(timed), "s", len(timed))
    if abs(traced_job_s - traced_seconds) > ROOT_SPAN_TOLERANCE_S:
        fail(f"the traced job's root span ({traced_job_s:.6f} s) does not cover its "
             f"wall time ({traced_seconds:.6f} s)")
    iters = sum(counters["propagate_iters"])
    nnz, q = counters["operator_nnz"], counters["q"]
    metrics.update({
        "corpus.q": (q, "count", 1),
        "corpus.posts": (counters["posts"], "count", 1),
        "graph.edges": (counters["edges"], "count", 1),
        "graph.closure_nnz": (counters.get("closure_nnz", 0), "count", 1),
        "credibility.operator_nnz": (nnz, "count", 1),
        "credibility.propagate_iters": (iters, "count", len(counters["propagate_iters"])),
        # computed, not measured: a CSR matvec per iteration, float64 values, int32 indices
        "credibility.propagate_flops_computed": (2 * nnz * iters, "flop", 1),
        "credibility.propagate_bytes_computed": (iters * (12 * nnz + 4 * (q + 1) + 16 * q), "B", 1),
    })
    return metrics


if __name__ == "__main__":
    main()
