"""Child processes of the newstag benchmark (see README.md).

``python3 worker.py import`` imports the newstag modules the set-up
uses, then runs the calibration loop, and prints one JSON line with the
time each took.

``python3 worker.py setup SPEC`` imports newstag, then generates the
seeded synthetic corpus and writes it as JSONL, again and again in the
same process (see ``SPEC["repeats"]``), with the calibration loop
before each repeat and after the last.  It prints one JSON line with
the time of every repeat and calibration and the digest of every file
it wrote.

``python3 worker.py jobs SPEC`` caps its own address space, imports
newstag and runs the job ``newstag.cli.main(argv)`` back to back for
about the measuring window: it starts another job while that job would
end nearer the window's end than stopping now would.  It appends one
JSON line per job to the results file.  When tracing is asked for, it
then runs one more job with layer spans on, times the graph layers as
separate calls, and writes the spans to the spans file.  SPEC is a JSON
object written by ``run.py``.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402  (benchmark module beside this file)


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


@functools.cache
def _calibration_text() -> str:
    return json.dumps([{"id": i, "tags": [f"t{i * 7919 % 30011}", f"t{i * 104729 % 29989}"], "x": i / 2}
                       for i in range(40000)])


def calibrate() -> float:
    """Seconds a fixed loop takes on this host right now; the loop does not use newstag.

    Like newstag's Python stages, it parses JSON records and counts into
    dicts over a working set of about 20 MB, so a neighbour that slows
    those stages slows it too.
    """
    text = _calibration_text()
    gc.collect()
    start = time.perf_counter()
    tags: dict[str, int] = {}
    pairs: dict[tuple[str, str], float] = {}
    for record in json.loads(text):
        for tag in record["tags"]:
            tags[tag] = tags.get(tag, 0) + 1
        pair = tuple(record["tags"])
        pairs[pair] = pairs.get(pair, 0.0) + record["x"]
    sorted(tags.items())
    sorted(pairs)
    return time.perf_counter() - start


def import_newstag() -> None:
    start = time.perf_counter()
    import newstag.corpus  # noqa: F401
    import newstag.synth  # noqa: F401

    import_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "calibration_s": calibrate()}))


def setup(spec: dict) -> None:
    from newstag.corpus import write_corpus
    from newstag.synth import SyntheticParams, generate_synthetic

    q = spec["hashtags"]
    params = SyntheticParams(hashtags=q, news=q * 5 // 8, purity=0.9)
    least, most, budget_s = spec["repeats"]
    seconds, digests, calibrations = [], [], []
    started = time.perf_counter()
    while len(seconds) < least or (len(seconds) < most and time.perf_counter() - started < budget_s):
        calibrations.append(calibrate())
        gc.collect()
        start = time.perf_counter()
        write_corpus(generate_synthetic(params, spec["seed"]), spec["input"])
        seconds.append(time.perf_counter() - start)
        digests.append(_digest([spec["input"]]))
    calibrations.append(calibrate())
    print(json.dumps({"generate_s": seconds, "digests": digests, "calibration_s": calibrations}))


def _run_job(cli, recorder, spec: dict, job: str) -> dict:
    argv = [arg.replace("{job}", job) for arg in spec["argv"]]
    artifacts = [path.replace("{job}", job) for path in spec["artifacts"]]
    recorder.start_job(job)
    gc.collect()
    started = time.perf_counter()
    try:
        with recorder.span(tracing.ROOT_SPAN) if recorder.tracing else nullcontext():
            rc, reason = cli.main(argv), None
    except MemoryError as exc:
        rc, reason = None, f"MemoryError: {exc} (address-space cap {spec['memory_cap_mb']} MiB)"
    except Exception as exc:  # any crash counts as a failed job, with its reason
        rc, reason = None, "".join(traceback.format_exception_only(type(exc), exc)).strip()
    seconds = time.perf_counter() - started
    if rc not in (0, None):
        reason = f"exit code {rc}"
    return {"job": job, "seconds": seconds, "reason": reason, "counters": recorder.counters,
            "artifacts": artifacts, "digest": None if reason is not None else _digest(artifacts)}


def jobs(spec: dict) -> None:
    cap = spec["memory_cap_mb"] * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    from newstag import cli

    recorder = tracing.Recorder()
    tracing.install(recorder)
    with open(spec["results"], "w", encoding="utf-8") as out:
        def emit(record):
            out.write(json.dumps(record) + "\n")
            out.flush()

        # Start another job only while it would end nearer the deadline
        # than stopping now would, so the window lasts about SPEC["seconds"].
        deadline = time.perf_counter() + spec["seconds"]
        seconds = []
        while not seconds or time.perf_counter() + statistics.median(seconds) / 2 < deadline:
            calibration_s = calibrate()
            record = _run_job(cli, recorder, spec, str(len(seconds)))
            record["calibration_s"] = calibration_s
            emit(record)
            seconds.append(record["seconds"])
        emit({"calibration_s": calibrate()})
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if spec["trace"]:
            recorder.tracing = True
            record = _run_job(cli, recorder, spec, "traced")
            record["traced"] = True
            emit(record)
            recorder.start_job("probe")
            tracing.probe_layers(recorder, spec["input"], spec["method"], spec["k1"])
            emit({"probe": True, "counters": recorder.counters})
            with open(spec["spans"], "w", encoding="utf-8") as fh:
                json.dump(recorder.spans, fh)
        emit({"peak_rss_mb": peak_rss_mb})


def main() -> None:
    mode = sys.argv[1]
    if mode == "import":
        import_newstag()
        return
    with open(sys.argv[2], encoding="utf-8") as fh:
        spec = json.load(fh)
    {"setup": setup, "jobs": jobs}[mode](spec)


if __name__ == "__main__":
    main()
