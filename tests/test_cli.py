import json
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import upper_entries_oracle

CMD = [sys.executable, "-m", "newstag"]


def run_cli(*args, cwd=None, env=None):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, cwd=cwd, timeout=120, env=env
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    result = run_cli(
        "synth",
        "--hashtags", "60",
        "--news", "40",
        "--purity", "0.9",
        "--posts-min", "2",
        "--posts-max", "5",
        "--seed", "3",
        "--out", str(path / "corpus.jsonl"),
    )
    assert result.returncode == 0, result.stderr
    return path


# --- exit codes and diagnostics ----------------------------------------------------

def test_unknown_subcommand_exits_1():
    result = run_cli("frobnicate")
    assert result.returncode == 1
    assert result.stderr.startswith("error:")


def test_unknown_flag_exits_1(workdir):
    result = run_cli("run", "--input", str(workdir / "corpus.jsonl"), "--bogus", "1")
    assert result.returncode == 1
    assert result.stderr.startswith("error:")


def test_bad_mu_exits_1(workdir):
    result = run_cli(
        "run", "--input", str(workdir / "corpus.jsonl"), "--mu", "1.5",
        "--out", str(workdir / "bad.json"),
    )
    assert result.returncode == 1
    assert "mu must be in (0,1)" in result.stderr
    assert result.stderr.count("\n") == 1  # single-line diagnostic


def test_missing_input_exits_2(workdir):
    result = run_cli("run", "--input", str(workdir / "nope.jsonl"), "--out", str(workdir / "r.json"))
    assert result.returncode == 2
    assert "not found" in result.stderr


def test_a_directory_as_input_exits_2_and_says_so(workdir):
    result = run_cli("validate", "--input", str(workdir))
    assert result.returncode == 2
    assert result.stderr == f"error: input path is a directory, not a corpus file: {workdir}\n"


def test_validate_reads_a_fifo_like_the_file(workdir, tmp_path):
    corpus = workdir / "corpus.jsonl"
    fifo = tmp_path / "corpus.fifo"
    os.mkfifo(fifo)
    failures = []

    def feed():
        try:
            with open(fifo, "wb") as pipe:
                pipe.write(corpus.read_bytes())
        except OSError as exc:  # the reader left before the end
            failures.append(exc)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        result = run_cli("validate", "--input", str(fifo))
    finally:
        if writer.is_alive():  # the reader may never have opened the pipe: let the writer's open return
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert result.returncode == 0, result.stderr
    assert not failures
    assert result.stdout == run_cli("validate", "--input", str(corpus)).stdout

def test_malformed_corpus_exits_2(workdir):
    bad = workdir / "bad.jsonl"
    bad.write_text('{"id": "n1", "label": 5, "posts": []}\n')
    result = run_cli("run", "--input", str(bad), "--out", str(workdir / "r.json"))
    assert result.returncode == 2


# --- validate -----------------------------------------------------------------------

def test_validate_prints_summary(workdir):
    result = run_cli("validate", "--input", str(workdir / "corpus.jsonl"))
    assert result.returncode == 0
    summary = json.loads(result.stdout)
    assert summary["news"] == 40
    assert summary["labeled"] == 40
    assert summary["distinct_hashtags"] > 0


def test_validate_lenient_skips(workdir):
    mixed = workdir / "mixed.jsonl"
    good = (workdir / "corpus.jsonl").read_text().splitlines()[0]
    mixed.write_text(good + "\n{broken json\n")
    strict = run_cli("validate", "--input", str(mixed))
    assert strict.returncode == 2
    lenient = run_cli("validate", "--input", str(mixed), "--lenient")
    assert lenient.returncode == 0
    assert json.loads(lenient.stdout)["skipped_records"] == 1


def test_validate_line_that_is_not_utf8_exits_2_or_is_skipped(workdir):
    mixed = workdir / "not-utf8.jsonl"
    good = (workdir / "corpus.jsonl").read_bytes().splitlines()
    mixed.write_bytes(good[0] + b"\n" + good[1].replace(b'"t', b'"\xfft', 1) + b"\n" + good[2] + b"\n")
    strict = run_cli("validate", "--input", str(mixed))
    assert strict.returncode == 2
    assert strict.stderr.startswith("error: line 2: invalid UTF-8: 'utf-8' codec can't decode byte 0xff")
    assert strict.stderr.count("\n") == 1
    lenient = run_cli("validate", "--input", str(mixed), "--lenient")
    assert lenient.returncode == 0
    summary = json.loads(lenient.stdout)
    assert summary["skipped_records"] == 1 and summary["news"] == 2


def test_validate_names_a_value_that_is_not_valid_unicode(workdir):
    # a lone-surrogate escape decodes, but no writer could encode it in UTF-8
    mixed = workdir / "surrogate.jsonl"
    good = (workdir / "corpus.jsonl").read_text().splitlines()
    post = {"post_id": "sp1", "created_at": None, "hashtags": ["\ud800x"]}
    bad_tag = json.dumps({"id": "s1", "label": 1, "published_at": None, "posts": [post]})
    bad_id = json.dumps({"id": "\udfffs2", "label": None, "published_at": None, "posts": []})
    mixed.write_text("\n".join([good[0], bad_tag, bad_id, good[1]]) + "\n")
    strict = run_cli("validate", "--input", str(mixed))
    assert strict.returncode == 2
    assert strict.stderr == "error: line 2: post 'sp1': hashtag '\\ud800x' is not valid Unicode\n"
    lenient = run_cli("validate", "--input", str(mixed), "--lenient")
    assert lenient.returncode == 0
    summary = json.loads(lenient.stdout)
    assert summary["skipped_records"] == 2 and summary["news"] == 2
    assert "line 3: news '\\udfffs2': id is not valid Unicode" in lenient.stderr


# --- determinism and config echo -----------------------------------------------------

def test_synth_byte_identical(workdir):
    args = ["synth", "--hashtags", "50", "--news", "30", "--purity", "0.8", "--seed", "1"]
    run_cli(*args, "--out", str(workdir / "s1.jsonl"))
    run_cli(*args, "--out", str(workdir / "s2.jsonl"))
    assert (workdir / "s1.jsonl").read_bytes() == (workdir / "s2.jsonl").read_bytes()


def test_run_byte_identical_and_echo_roundtrip(workdir):
    corpus = str(workdir / "corpus.jsonl")
    base = [
        "run", "--input", corpus, "--mu", "0.4", "--k1", "10", "--k2", "5",
        "--train-fraction", "0.8", "--seed", "7", "--repetitions", "3",
    ]
    r1 = run_cli(*base, "--out", str(workdir / "rep1.json"))
    r2 = run_cli(*base, "--out", str(workdir / "rep2.json"))
    assert r1.returncode == 0 and r2.returncode == 0
    b1 = (workdir / "rep1.json").read_bytes()
    assert b1 == (workdir / "rep2.json").read_bytes()

    # echo exists and replaying it reproduces the artifact byte-for-byte
    echo = workdir / "rep1.json.config.json"
    assert echo.exists()
    payload = json.loads(echo.read_text())
    assert payload["subcommand"] == "run"
    assert payload["parameters"]["seed"] == 7
    r3 = run_cli("run", "--config", str(echo), "--out", str(workdir / "rep3.json"))
    assert r3.returncode == 0, r3.stderr
    assert (workdir / "rep3.json").read_bytes() == b1


def test_inputs_never_mutated(workdir):
    corpus = workdir / "corpus.jsonl"
    before = corpus.read_bytes()
    run_cli("run", "--input", str(corpus), "--out", str(workdir / "mut.json"))
    run_cli("analyze", "--input", str(corpus), "--kind", "purity", "--out", str(workdir / "p.csv"))
    assert corpus.read_bytes() == before


def test_config_wrong_subcommand_rejected(workdir):
    echo = workdir / "rep1.json.config.json"
    result = run_cli("synth", "--config", str(echo), "--out", str(workdir / "x.jsonl"))
    assert result.returncode == 1
    assert "subcommand" in result.stderr


# --- artifact-producing subcommands ----------------------------------------------------

def export_edges_expected(corpus, matrix: str, k1: int = 5) -> list[str]:
    """The edge list lines ``export`` writes: the strict upper triangle of
    the relation built in-process, row-major."""
    from newstag.corpus import parse_corpus
    from newstag.graph import all_relations_truncated, build_direct_graph, normalize

    relation = normalize(build_direct_graph(parse_corpus(corpus)))
    if matrix == "truncated":
        relation = all_relations_truncated(relation, k1)
    vocab = relation.vocab
    edges = (f"{vocab[i]}\t{vocab[j]}\t{w!r}" for i, j, w in upper_entries_oracle(relation))
    return ["hashtag_a\thashtag_b\tweight", *edges]


def test_export_writes_the_strict_upper_closure(workdir):
    corpus = str(workdir / "corpus.jsonl")
    result = run_cli(
        "export", "--input", corpus, "--k1", "5",
        "--edges-out", str(workdir / "edges.tsv"),
        "--nodes-out", str(workdir / "nodes.tsv"),
        "--dot-out", str(workdir / "g.dot"),
    )
    assert result.returncode == 0, result.stderr
    assert (workdir / "edges.tsv").read_text().splitlines() == export_edges_expected(corpus, "truncated")
    nodes = (workdir / "nodes.tsv").read_text().splitlines()
    assert nodes[0] == "hashtag\tcredibility\tcolor_class"
    assert (workdir / "g.dot").read_text().startswith("graph hashtags {")


def test_grid_mu_writes_table(workdir):
    result = run_cli(
        "grid-mu", "--input", str(workdir / "corpus.jsonl"),
        "--grid", "0.2,0.4", "--repetitions", "2",
        "--out", str(workdir / "grid.csv"),
    )
    assert result.returncode == 0, result.stderr
    lines = (workdir / "grid.csv").read_text().splitlines()
    assert lines[0] == "mu,micro_f1_mean,micro_f1_std,macro_f1_mean,macro_f1_std,best"
    assert len(lines) == 3
    assert "best mu:" in result.stdout


def test_sweep_volume_csv_schema(workdir):
    result = run_cli(
        "sweep-volume", "--input", str(workdir / "corpus.jsonl"),
        "--fractions", "0.5,0.8", "--repetitions", "2",
        "--out", str(workdir / "vol.csv"),
    )
    assert result.returncode == 0, result.stderr
    lines = (workdir / "vol.csv").read_text().splitlines()
    assert lines[0] == "x,macro_f1_mean,macro_f1_std,micro_f1_mean,micro_f1_std"
    assert len(lines) == 3


def test_sweep_time_includes_all_row(workdir):
    result = run_cli(
        "sweep-time", "--input", str(workdir / "corpus.jsonl"),
        "--horizons", "12,24", "--repetitions", "2",
        "--out", str(workdir / "time.csv"),
    )
    assert result.returncode == 0, result.stderr
    lines = (workdir / "time.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[-1].startswith("all,")


def test_ablate_reports_all_methods(workdir):
    result = run_cli(
        "ablate", "--input", str(workdir / "corpus.jsonl"), "--repetitions", "2",
        "--out", str(workdir / "ablate.json"),
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads((workdir / "ablate.json").read_text())
    assert set(payload["methods"]) == {"newstag", "newstag_no_indirect", "newstag_unweighted"}


def test_analyze_kinds(workdir):
    corpus = str(workdir / "corpus.jsonl")
    for kind, out in [("purity", "pu.csv"), ("popularity", "po.csv"), ("convergence", "co.csv")]:
        result = run_cli("analyze", "--input", corpus, "--kind", kind, "--out", str(workdir / out))
        assert result.returncode == 0, result.stderr
    assert (workdir / "co.csv").read_text().splitlines()[0] == "loop,iteration,residual"
    result = run_cli(
        "analyze", "--input", corpus, "--kind", "case-study",
        "--watchlist", "f0001,missing",
        "--out", str(workdir / "cs.csv"),
    )
    assert result.returncode == 0, result.stderr
    lines = (workdir / "cs.csv").read_text().splitlines()
    assert lines[0] == "hashtag,status,c_star,c_hat_rescaled"
    result = run_cli("analyze", "--input", corpus, "--kind", "case-study", "--out", str(workdir / "x.csv"))
    assert result.returncode == 1  # watchlist required


def test_predictions_csv(workdir):
    result = run_cli(
        "run", "--input", str(workdir / "corpus.jsonl"), "--repetitions", "1",
        "--out", str(workdir / "r.json"),
        "--predictions-out", str(workdir / "preds.csv"),
    )
    assert result.returncode == 0, result.stderr
    lines = (workdir / "preds.csv").read_text().splitlines()
    assert lines[0] == "news_id,predicted_label,score"
    assert len(lines) > 1


def test_export_normalized_and_exact(workdir):
    corpus = str(workdir / "corpus.jsonl")
    edges = workdir / "n.tsv"
    result = run_cli("export", "--input", corpus, "--matrix", "normalized", "--edges-out", str(edges))
    assert result.returncode == 0, result.stderr
    assert edges.read_text().splitlines() == export_edges_expected(corpus, "normalized")
    # the exact closure is no choice: the matrix is the truncated sum
    result = run_cli(
        "export", "--input", corpus, "--matrix", "exact",
        "--edges-out", str(workdir / "e.tsv"),
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: argument --matrix: invalid choice: 'exact'")
    assert result.stderr.count("\n") == 1
    assert not (workdir / "e.tsv").exists()


def test_build_graph_is_gone_and_exits_1(workdir):
    out = workdir / "w.matrix"
    result = run_cli("build-graph", "--input", str(workdir / "corpus.jsonl"), "--out", str(out))
    assert result.returncode == 1
    assert result.stderr.startswith("error: argument SUBCOMMAND: invalid choice: 'build-graph'")
    assert result.stderr.count("\n") == 1
    assert not out.exists()


def test_export_refuses_an_old_build_graph_echo(workdir):
    # the echo an earlier build-graph run wrote next to its matrix
    echo = workdir / "w.matrix.config.json"
    echo.write_text(json.dumps({"subcommand": "build-graph", "parameters": {
        "input": str(workdir / "corpus.jsonl"), "k1": 10, "matrix": "truncated", "out": "w.matrix", "weighted": True,
    }}, indent=2, sort_keys=True) + "\n")
    edges = workdir / "old-echo.tsv"
    result = run_cli("export", "--config", str(echo), "--edges-out", str(edges))
    assert result.returncode == 1
    assert result.stderr == f"error: config file {echo} was written by subcommand 'build-graph', not 'export'\n"
    assert not edges.exists()


def test_export_of_an_unlabeled_corpus_needs_labels_only_for_colours(tmp_path):
    corpus = tmp_path / "unlabeled.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"n{i}", "label": None, "published_at": "2020-03-01T00:00:00Z",
                    "posts": [{"post_id": f"p{i}", "created_at": "2020-03-01T01:00:00Z",
                               "hashtags": [f"h{i}", f"h{i + 1}", "shared"]}]}) + "\n"
        for i in range(5)
    ))
    base = ["export", "--input", str(corpus)]
    result = run_cli(*base, "--edges-out", str(tmp_path / "e.tsv"))
    assert result.returncode == 0, result.stderr
    result = run_cli(*base, "--color-by", "none", "--edges-out", str(tmp_path / "none.tsv"))
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "e.tsv").read_bytes() == (tmp_path / "none.tsv").read_bytes()
    assert len((tmp_path / "e.tsv").read_text().splitlines()) > 1
    for flag in ("--nodes-out", "--dot-out"):
        edges = tmp_path / f"colored{flag}.tsv"
        result = run_cli(*base, "--edges-out", str(edges), flag, str(tmp_path / f"colored{flag}.out"))
        assert result.returncode == 1
        assert result.stderr.startswith("error: coloring by all-data credibility needs a labeled --input corpus")
        assert not edges.exists()


def test_run_closed_form_mode(workdir):
    result = run_cli(
        "run", "--input", str(workdir / "corpus.jsonl"), "--repetitions", "1",
        "--mode", "closed_form", "--out", str(workdir / "cf.json"),
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads((workdir / "cf.json").read_text())
    assert payload["config"]["propagation"]["mode"] == "closed_form"


def test_run_closed_form_labels_do_not_depend_on_operator_storage(workdir, monkeypatch):
    from dataclasses import replace

    import newstag.harness
    from newstag.cli import main

    def run(name):
        out, predictions = workdir / f"cf-{name}.json", workdir / f"cf-{name}.csv"
        assert main([
            "run", "--input", str(workdir / "corpus.jsonl"), "--repetitions", "3",
            "--mode", "closed_form", "--out", str(out), "--predictions-out", str(predictions),
        ]) == 0
        labels = [line.split(",")[:2] for line in predictions.read_text().splitlines()]
        return labels, json.loads(out.read_text())["aggregate"]

    dense = run("dense")
    build_pipeline = newstag.harness.build_pipeline

    def build_csr(corpus, config):
        ops = build_pipeline(corpus, config)
        assert isinstance(ops.X, np.ndarray)
        return replace(ops, X=sp.csr_matrix(ops.X))

    monkeypatch.setattr(newstag.harness, "build_pipeline", build_csr)
    assert run("csr") == dense


@pytest.mark.parametrize(
    "mode, method, hashtags",
    [("iterative", "newstag", 800), ("closed_form", "newstag", 800), ("iterative", "newstag_no_indirect", 803)],
)
def test_run_bytes_do_not_depend_on_blas_thread_count(tmp_path, mode, method, hashtags):
    # 1 and 2 BLAS threads, and every CPU of a larger host, which splits the
    # dense operator's block product a third way.  At q = 800 the dense
    # products round alike for any thread count; at most other sizes, q = 803
    # among them, OpenBLAS's one-thread product rounds differently (README).
    # newstag_no_indirect keeps a CSR operator and never calls BLAS, so its
    # bytes hold at q = 803 too.
    from newstag.corpus import parse_corpus
    from newstag.harness import ExperimentConfig, build_pipeline

    corpus = tmp_path / "corpus.jsonl"
    result = run_cli(
        "synth", "--hashtags", str(hashtags), "--news", "500", "--purity", "0.9", "--seed", "1", "--out", str(corpus)
    )
    assert result.returncode == 0, result.stderr
    X = build_pipeline(parse_corpus(corpus), ExperimentConfig(method=method)).X
    assert isinstance(X, np.ndarray) == (method == "newstag")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    outputs = []
    for threads in ["1", "2"] + ([str(cpus)] if cpus > 2 else []):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        files = [tmp_path / f"{name}-{threads}" for name in ("run.json", "pred.csv", "grid.csv", "volume.csv")]
        for argv in (
            ["run", "--out", str(files[0]), "--predictions-out", str(files[1])],
            ["grid-mu", "--out", str(files[2])],
            ["sweep-volume", "--out", str(files[3])],
        ):
            result = run_cli(*argv, "--input", str(corpus), "--mode", mode, "--method", method, env=env)
            assert result.returncode == 0, result.stderr
        outputs.append([path.read_bytes() for path in files])
    assert all(output == outputs[0] for output in outputs[1:])


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs and CPU affinity to compare worker counts",
)
def test_run_and_grid_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch):
    import newstag.corpus

    corpus = tmp_path / "corpus.jsonl"
    result = run_cli(
        "synth", "--hashtags", "800", "--news", "500", "--purity", "0.9", "--seed", "1", "--out", str(corpus)
    )
    assert result.returncode == 0, result.stderr
    # byte ranges of 4 KiB: one range on one CPU, one per CPU (at most 8) unpinned
    monkeypatch.setattr(newstag.corpus, "PARSE_RANGE_BYTES", 4096)
    with open(corpus, "rb") as fh:
        assert len(newstag.corpus._range_cuts(fh.fileno())) - 1 == min(len(os.sched_getaffinity(0)), 8)
    cpu = min(os.sched_getaffinity(0))
    outputs = []
    # the closure, the parse and the row-block products run 1 worker, then 2 or more
    for pin in (f"os.sched_setaffinity(0, {{{cpu}}})", "pass"):
        script = (
            f"import os, sys; {pin}; import newstag.corpus, newstag.credibility; "
            "newstag.corpus.PARSE_RANGE_BYTES = 4096; newstag.credibility.ROW_BLOCK_MIN_WORK = 1; "
            "from newstag.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        files = [
            tmp_path / f"{name}-{len(outputs)}"
            for name in ("run.json", "pred.csv", "grid.csv", "direct-run.json", "direct-pred.csv")
        ]
        for argv in (
            ["run", "--input", str(corpus), "--out", str(files[0]), "--predictions-out", str(files[1])],
            ["grid-mu", "--input", str(corpus), "--out", str(files[2])],
            [
                "run", "--input", str(corpus), "--method", "newstag_no_indirect",
                "--out", str(files[3]), "--predictions-out", str(files[4]),
            ],
        ):
            result = subprocess.run(
                [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120
            )
            assert result.returncode == 0, result.stderr
        outputs.append([path.read_bytes() for path in files])
    assert outputs[0] == outputs[1]


def test_synth_echo_replay_and_flag_override(workdir):
    out1 = workdir / "se1.jsonl"
    result = run_cli("synth", "--hashtags", "30", "--news", "20", "--purity", "0.8", "--seed", "2", "--out", str(out1))
    assert result.returncode == 0, result.stderr
    echo = workdir / "se1.jsonl.config.json"
    out2 = workdir / "se2.jsonl"
    result = run_cli("synth", "--config", str(echo), "--out", str(out2))
    assert result.returncode == 0, result.stderr
    assert out2.read_bytes() == out1.read_bytes()
    # a flag overrides the echo; every other parameter comes from it
    out3 = workdir / "se3.jsonl"
    result = run_cli("synth", "--config", str(echo), "--news", "10", "--out", str(out3))
    assert result.returncode == 0, result.stderr
    assert len(out3.read_text().splitlines()) == 10
    replayed = json.loads((workdir / "se3.jsonl.config.json").read_text())["parameters"]
    assert replayed == {**json.loads(echo.read_text())["parameters"], "news": 10, "out": str(out3)}


def test_run_above_truncated_cap_exits_2(workdir, monkeypatch, capsys):
    import newstag.graph
    from newstag.cli import main

    monkeypatch.setattr(newstag.graph, "TRUNCATED_MAX_Q", 10)
    out = workdir / "above-cap.json"
    status = main([
        "run", "--input", str(workdir / "corpus.jsonl"), "--method", "newstag",
        "--repetitions", "1", "--out", str(out),
    ])
    assert status == 2
    assert re.search(r"^error: truncated closure refused: q=\d+ .* cap of 10$", capsys.readouterr().err)
    assert not out.exists()


def test_analyze_convergence_without_closure_writes_no_closure_rows(workdir):
    edgeless = workdir / "edgeless.jsonl"
    edgeless.write_text("".join(
        json.dumps({"id": f"n{i}", "label": 1 if i % 2 else -1,
                    "posts": [{"post_id": f"p{i}", "hashtags": [f"h{i % 4}"]}]}) + "\n"
        for i in range(10)
    ))
    for corpus, method in ((edgeless, "newstag"), (workdir / "corpus.jsonl", "newstag_no_indirect")):
        out = workdir / f"conv-{method}.csv"
        result = run_cli(
            "analyze", "--kind", "convergence", "--input", str(corpus), "--method", method,
            "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        assert {line.split(",")[0] for line in out.read_text().splitlines()[1:]} == {"propagation"}


def test_export_hashtag_with_tab_exits_2(workdir):
    corpus = workdir / "tab.jsonl"
    posts = [{"post_id": "p1", "created_at": None, "hashtags": ["x\ty", "z"]}]
    corpus.write_text(json.dumps({"id": "n1", "label": 1, "published_at": None, "posts": posts}) + "\n")
    edges = workdir / "tab-edges.tsv"
    result = run_cli("export", "--input", str(corpus), "--color-by", "none", "--edges-out", str(edges))
    assert result.returncode == 2
    assert "'x\\ty'" in result.stderr
    assert not edges.exists()


@pytest.mark.parametrize("kind, extra", [
    ("convergence", []),
    ("case-study", ["--watchlist", "f0001,t0001,f0002,t0002,missing"]),
    ("purity", []),
    ("popularity", []),
], ids=["convergence", "case-study", "purity", "popularity"])
def test_analyze_honours_horizon(workdir, kind, extra):
    from newstag.corpus import filter_by_time, parse_corpus, write_corpus

    corpus = workdir / "corpus.jsonl"
    cut = workdir / f"cut-{kind}.jsonl"
    write_corpus(filter_by_time(parse_corpus(corpus), 6.0), cut)
    outs = {}
    for name, args in (("flag", ["--input", str(corpus), "--horizon-hours", "6"]),
                       ("cut", ["--input", str(cut)]),
                       ("full", ["--input", str(corpus)])):
        outs[name] = workdir / f"h-{kind}-{name}.csv"
        result = run_cli("analyze", "--kind", kind, *args, *extra, "--out", str(outs[name]))
        assert result.returncode == 0, result.stderr
    assert outs["flag"].read_bytes() == outs["cut"].read_bytes()
    assert outs["flag"].read_bytes() != outs["full"].read_bytes()


@pytest.mark.parametrize("subcommand, flag, value", [
    ("run", "--horizon-hours", "inf"),
    ("run", "--horizon-hours", "nan"),
    ("sweep-time", "--horizons", "inf"),
    ("validate", "--clock-skew-hours", "nan"),
    ("run", "--tolerance", "nan"),
    ("run", "--tolerance", "inf"),
    ("analyze", "--checkpoints", "nan,12"),
    ("synth", "--post-window-hours", "inf"),
])
def test_non_finite_flag_exits_1(workdir, subcommand, flag, value):
    inputs = [] if subcommand == "synth" else ["--input", str(workdir / "corpus.jsonl")]
    kind = ["--kind", "popularity"] if subcommand == "analyze" else []
    result = run_cli(subcommand, *inputs, *kind, flag, value, "--out", str(workdir / "non-finite.out"))
    assert result.returncode == 1
    assert result.stderr.startswith("error:") and flag in result.stderr
    assert result.stderr.count("\n") == 1
    assert not (workdir / "non-finite.out").exists()


@pytest.mark.parametrize("subcommand, flag, value", [
    ("run", "--horizon-hours", "1e20"),
    ("sweep-time", "--horizons", "12,1e20"),
    ("validate", "--clock-skew-hours", "1e20"),
    ("synth", "--post-window-hours", "1e300"),
    ("synth", "--publish-step-hours", "1e300"),
])
def test_hours_beyond_a_timedelta_exit_1(workdir, subcommand, flag, value):
    inputs = [] if subcommand == "synth" else ["--input", str(workdir / "corpus.jsonl")]
    result = run_cli(subcommand, *inputs, flag, value, "--out", str(workdir / "huge-hours.out"))
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {flag} must be at most ") and result.stderr.count("\n") == 1
    assert not (workdir / "huge-hours.out").exists()


@pytest.mark.parametrize("flag, value", [("--post-window-hours", "1e9"), ("--publish-step-hours", "1e7")])
def test_synth_timestamps_past_year_9999_exit_1(workdir, flag, value):
    out = workdir / "far-future.jsonl"
    result = run_cli("synth", "--hashtags", "20", "--news", "10", flag, value, "--out", str(out))
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and "outside years 1-9999" in result.stderr
    assert result.stderr.count("\n") == 1
    assert not out.exists()


def test_synth_years_below_1000_validate(workdir):
    out = workdir / "ancient.jsonl"
    args = ["--hashtags", "20", "--news", "1000", "--publish-step-hours", "-10000", "--seed", "1"]
    result = run_cli("synth", *args, "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert '"published_at": "0999-02-25T08:00:00Z"' in out.read_text()
    result = run_cli("validate", "--input", str(out))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["news"] == 1000


@pytest.mark.parametrize("subcommand", ["run", "grid-mu", "export"])
def test_k1_above_cap_exits_1(workdir, subcommand):
    from newstag.graph import MAX_K1

    out_flag = "--edges-out" if subcommand == "export" else "--out"
    extra = ["--repetitions", "1"] if subcommand in ("run", "grid-mu") else []
    out = workdir / f"k1-huge-{subcommand}.out"
    result = run_cli(
        subcommand, "--input", str(workdir / "corpus.jsonl"), "--k1", str(MAX_K1 + 1), *extra, out_flag, str(out),
    )
    assert result.returncode == 1
    assert result.stderr == f"error: --k1 must be at most {MAX_K1} in magnitude, got {MAX_K1 + 1}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--k2", "--max-iterations", "--repetitions"])
def test_propagation_loop_flag_above_cap_exits_1(workdir, capsys, flag):
    from newstag.cli import RUN_OPTS, main

    cap = next(opt.limit for opt in RUN_OPTS if opt.flag == flag)
    out = workdir / "loop-cap.json"
    for value in (cap + 1, 1_000_000_000):
        assert main(["run", "--input", str(workdir / "corpus.jsonl"), flag, str(value), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be at most {cap} in magnitude, got {value}\n"
    assert not out.exists()


def test_every_integer_option_but_seed_has_a_limit():
    from newstag.cli import SUBCOMMANDS

    unbounded = sorted(
        f"{subcommand} {opt.flag}"
        for subcommand, (opts, _, _) in SUBCOMMANDS.items()
        for opt in opts
        if opt.kind == "int" and opt.name != "seed" and opt.limit is None
        or opt.kind in ("floats", "strs") and opt.max_len is None
    )
    assert unbounded == []


# each list option: its subcommand and one value in range
LIST_OPTIONS = {
    "grid": ("grid-mu", 0.5),
    "fractions": ("sweep-volume", 0.5),
    "horizons": ("sweep-time", 12.0),
    "checkpoints": ("analyze", 12.0),
    "watchlist": ("analyze", "tag"),
}


@pytest.mark.parametrize("source", ["flag", "echo"])
@pytest.mark.parametrize("name", sorted(LIST_OPTIONS))
def test_list_one_value_over_its_cap_exits_1(workdir, capsys, monkeypatch, name, source):
    from newstag import cli

    subcommand, value = LIST_OPTIONS[name]
    opt = next(opt for opt in cli.SUBCOMMANDS[subcommand][0] if opt.name == name)
    flag = opt.flag
    values = [value] * (opt.max_len + 1)
    assert cli._coerce(opt, values[1:]) == values[1:]  # at the cap
    if source == "flag":
        given = [flag, ",".join(map(str, values))]
    else:
        echo = workdir / f"too-long-{name}.json"
        echo.write_text(json.dumps({"subcommand": subcommand, "parameters": {name: values}}))
        given = ["--config", str(echo)]
    monkeypatch.setattr(cli, "_read_corpus", lambda *a, **k: pytest.fail("read the corpus"))
    kind = ["--kind", "case-study"] if subcommand == "analyze" else []
    out = workdir / f"too-long-{name}.out"
    assert cli.main([subcommand, "--input", str(workdir / "corpus.jsonl"), *kind, *given, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {flag} takes at most {opt.max_len} values, got {opt.max_len + 1}\n"
    assert not out.exists()


def test_negative_clock_skew_exits_1(workdir):
    result = run_cli("validate", "--input", str(workdir / "corpus.jsonl"), "--clock-skew-hours", "-5")
    assert result.returncode == 1
    assert result.stderr == "error: clock skew allowance must be >= 0 hours, got -5\n"


# the subcommand each echo parameter below is given to, and what the
# error says its value must be
ECHO_PARAMETERS = {
    "repetitions": ("run", "an integer"),
    "k1": ("run", "an integer"),
    "mu": ("run", "a number"),
    "tolerance": ("run", "a number"),
    "horizon_hours": ("run", "finite"),
    "grid": ("grid-mu", "a list of numbers"),
    "watchlist": ("analyze", "a list of strings"),
    "weighted": ("export", "true or false"),
    "matrix": ("export", "one of normalized, truncated"),
}


@pytest.mark.parametrize("name, value", [
    ("repetitions", float("inf")),
    ("repetitions", 2.7),
    ("repetitions", True),
    ("repetitions", "2.7"),
    ("repetitions", "1e3"),
    ("k1", 1e30),
    ("mu", [0.4]),
    ("tolerance", True),
    ("horizon_hours", 10**400),
    ("grid", 0.4),
    ("watchlist", 5),
    ("weighted", "flase"),
    ("matrix", "bogus"),
    ("matrix", "exact"),
])
def test_non_integer_echo_value_exits_1(workdir, capsys, name, value):
    from newstag.cli import main

    subcommand, must = ECHO_PARAMETERS[name]
    echo = workdir / "non-integer.json"
    echo.write_text(json.dumps({"subcommand": subcommand, "parameters": {name: value}}))
    out = workdir / "non-integer.out"
    kind = ["--kind", "case-study"] if subcommand == "analyze" else []
    out_flag = "--edges-out" if subcommand == "export" else "--out"
    code = main([subcommand, "--config", str(echo), "--input", str(workdir / "corpus.jsonl"), *kind, out_flag, str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: --{name.replace('_', '-')} must be {must}, got {value!r}\n"
    assert not out.exists()


def test_run_report_config_holds_mu_once(workdir):
    out = workdir / "mu-once.json"
    result = run_cli(
        "run", "--input", str(workdir / "corpus.jsonl"), "--mu", "0.3", "--repetitions", "1",
        "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    config = json.loads(out.read_text())["config"]
    assert config["mu"] == 0.3
    assert "mu" not in config["propagation"]
    assert "drop_tolerance" not in config


# an echo written before its subcommand lost the parameter
@pytest.mark.parametrize("subcommand, key, value", [
    ("run", "drop_tolerance", 0.0),
    ("export", "drop_tolerance", 0.0),
    ("export", "matrix_file", "w.matrix"),
    ("synth", "params", "synth.params"),
])
def test_config_echo_with_unknown_parameter_exits_1(workdir, subcommand, key, value):
    corpus = str(workdir / "corpus.jsonl")
    args = {"run": ["--input", corpus, "--repetitions", "1"], "synth": ["--hashtags", "30", "--news", "20"]}
    out_flag = "--edges-out" if subcommand == "export" else "--out"
    out = workdir / f"echo-extra-{subcommand}.out"
    result = run_cli(subcommand, *args.get(subcommand, ["--input", corpus]), out_flag, str(out))
    assert result.returncode == 0, result.stderr
    echo = workdir / f"echo-extra-{subcommand}.out.config.json"
    payload = json.loads(echo.read_text())
    payload["parameters"][key] = value
    echo.write_text(json.dumps(payload))
    replay = workdir / f"echo-extra-{subcommand}.replay"
    result = run_cli(subcommand, "--config", str(echo), out_flag, str(replay))
    assert result.returncode == 1
    assert result.stderr == f"error: config file {echo}: {subcommand} takes no parameter {key!r}\n"
    assert not replay.exists()


@pytest.mark.parametrize("matrix", ["normalized", "truncated"])
def test_k1_zero_exits_1(workdir, matrix):
    out = workdir / f"k1-zero-{matrix}.tsv"
    result = run_cli(
        "export", "--input", str(workdir / "corpus.jsonl"), "--matrix", matrix, "--k1", "0", "--edges-out", str(out),
    )
    assert result.returncode == 1
    assert result.stderr == "error: --k1 must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["sweep-time", "--horizons=12,24,-5"], "--horizons value -5.0: time_horizon_hours must be positive"),
    (["sweep-time", "--horizons="], "--horizons needs at least one value"),
    (["sweep-volume", "--fractions", "0.5,1.5"], "--fractions value 1.5: train_fraction must be in (0,1)"),
    (["grid-mu", "--grid="], "--grid needs a value in (0,1), got []"),
    (["grid-mu", "--grid", "0,1"], "--grid needs a value in (0,1), got [0.0, 1.0]"),
    (["export", "--k1", "0"], "--k1 must be >= 1, got 0"),
    (["analyze", "--kind", "convergence", "--mu", "1.5"], "--mu value 1.5: mu must be in (0,1)"),
    (["analyze", "--kind", "case-study"], "case-study analysis requires --watchlist"),
    (["run", "--train-fraction", "1.5"], "--train-fraction value 1.5: train_fraction must be in (0,1), got 1.5"),
    (["run", "--k2", "0"], "--k2 value 0: max_iterations must be >= 1"),
    (["run", "--max-iterations", "0"], "--max-iterations value 0: max_iterations must be >= 1"),
    (["run", "--horizon-hours", "-1"], "--horizon-hours value -1.0: time_horizon_hours must be positive"),
    (["run", "--repetitions", "0"], "--repetitions value 0: repetitions must be >= 1"),
    (["run", "--tolerance", "-1"], "--tolerance value -1.0: tolerance must be finite and >= 0"),
    (["run", "--seed", "-1"], "--seed value -1: seed must be non-negative"),
    (["run", "--k1", "0"], "--k1 value 0: k1 must be >= 1, got 0"),
    (["run", "--mu", "1.5"], "--mu value 1.5: mu must be in (0,1)"),
    (["analyze", "--kind", "purity", "--mu", "5"], "--mu value 5.0: mu must be in (0,1)"),
    (["analyze", "--kind", "popularity", "--horizon-hours", "-1"], "--horizon-hours value -1.0: time_horizon_hours"),
])
def test_flag_errors_exit_1_before_the_input_is_read(workdir, args, message):
    out_flag = "--edges-out" if args[0] == "export" else "--out"
    out = workdir / "flag-error.out"
    result = run_cli(*args, "--input", str(workdir / "nope.jsonl"), out_flag, str(out))
    assert result.returncode == 1
    assert result.stderr.startswith("error: " + message)
    assert result.stderr.count("\n") == 1
    assert not out.exists()


# every output option of every subcommand, with the options each needs to run
OUTPUTS = [
    ("synth", [], ["--out"]),
    ("validate", [], ["--out"]),
    ("run", [], ["--out", "--predictions-out"]),
    ("grid-mu", [], ["--out"]),
    ("sweep-volume", [], ["--out"]),
    ("sweep-time", [], ["--out"]),
    ("ablate", [], ["--out"]),
    ("analyze", ["--kind", "popularity"], ["--out", "--per-news-out"]),
    ("export", [], ["--edges-out", "--nodes-out", "--dot-out"]),
]


@pytest.mark.parametrize("subcommand, options, flag", [
    pytest.param(subcommand, options, flag, id=f"{subcommand} {flag}")
    for subcommand, options, flags in OUTPUTS for flag in flags
])
@pytest.mark.parametrize("parent", ["missing", "a file"])
def test_an_output_without_a_directory_exits_1_before_the_input_is_read(
    workdir, tmp_path, capsys, subcommand, options, flag, parent
):
    from newstag.cli import main

    flags = next(flags for name, _, flags in OUTPUTS if name == subcommand)
    bad = (tmp_path / "missing" if parent == "missing" else workdir / "corpus.jsonl") / "x.out"
    argv = [subcommand, *options]
    if subcommand != "synth":
        argv += ["--input", str(tmp_path / "nope.jsonl")]  # a missing input is not reached
    for other in flags:
        argv += [other, str(bad if other == flag else tmp_path / other.strip("-"))]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {flag} {bad}: directory {bad.parent} does not exist\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["export", "--edges-out", "{tmp}/e.tsv", "--nodes-out", "{tmp}/missing/n.tsv"],
    ["run", "--out", "{tmp}/missing/r.json"],
], ids=["export", "run"])
def test_an_output_without_a_directory_writes_nothing(workdir, tmp_path, capsys, argv):
    from newstag.cli import main

    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main([*argv, "--input", str(workdir / "corpus.jsonl")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {argv[-2]} {argv[-1]}: directory ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("subcommand, options, flag", [
    pytest.param(subcommand, options, flag, id=f"{subcommand} {flag}")
    for subcommand, options, flags in OUTPUTS for flag in flags
])
@pytest.mark.parametrize("target", ["a directory", "empty"])
def test_an_output_that_names_no_file_exits_1_before_the_input_is_read(
    tmp_path, capsys, subcommand, options, flag, target
):
    from newstag.cli import main

    flags = next(flags for name, _, flags in OUTPUTS if name == subcommand)
    bad = str(tmp_path) if target == "a directory" else ""
    argv = [subcommand, *options]
    if subcommand != "synth":
        argv += ["--input", str(tmp_path / "nope.jsonl")]  # a missing input is not reached
    for other in flags:
        argv += [other, bad if other == flag else str(tmp_path / other.strip("-"))]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {flag} {bad!r}: must name a file, not be empty or a directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["run", "--out", "{tmp}"],
    ["run", "--out", ""],
    ["export", "--edges-out", "{tmp}"],
], ids=["run-directory", "run-empty", "export-directory"])
def test_an_output_that_names_no_file_is_refused_on_a_real_input(workdir, tmp_path, argv):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    result = run_cli(*argv, "--input", str(workdir / "corpus.jsonl"))
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {argv[1]} ") and result.stderr.count("\n") == 1
    assert result.stdout == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["export", "--edges-out", "{tmp}/e.tsv"],
    ["analyze", "--kind", "convergence", "--out", "{tmp}/c.csv"],
], ids=["export", "analyze"])
def test_running_out_of_memory_is_one_line_and_exits_2(workdir, tmp_path, monkeypatch, capsys, argv):
    import newstag.graph
    import newstag.harness
    from newstag.cli import main

    def exhausted(*args, **kwargs):
        raise MemoryError

    # the closure is the largest allocation of both subcommands
    monkeypatch.setattr(newstag.graph, "all_relations_truncated", exhausted)
    monkeypatch.setattr(newstag.harness, "all_relations_truncated", exhausted)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main([*argv, "--input", str(workdir / "corpus.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: {argv[0]}: out of memory\n"
    assert list(tmp_path.iterdir()) == []


def test_run_defaults_are_the_library_defaults(workdir):
    from newstag.cli import main
    from newstag.harness import ExperimentConfig

    out = workdir / "defaults.json"
    assert main(["run", "--input", str(workdir / "corpus.jsonl"), "--out", str(out)]) == 0
    params = json.loads((workdir / "defaults.json.config.json").read_text())["parameters"]
    expected = ExperimentConfig().to_dict()
    expected.update(expected.pop("propagation"), horizon_hours=expected.pop("time_horizon_hours"), k2=None)
    # equal as JSON, so an integer default stays an integer in the echo
    assert json.dumps({name: params[name] for name in expected}, sort_keys=True) == json.dumps(expected, sort_keys=True)


# --- degenerate corpora ---------------------------------------------------------------

# 20-news corpora: (label of news i, hashtags of its post j)
DEGENERATE = {
    "hashtag-free": (lambda i: 1 if i % 2 else -1, lambda i, j: []),
    "edgeless": (lambda i: 1 if i % 2 else -1, lambda i, j: [f"h{(i + j) % 5}"]),
    "single-class": (lambda i: 1, lambda i, j: [f"h{i % 5}", f"h{(i + 1) % 5}"]),
}
# each subcommand that reads a corpus, and whether it needs a train/test split
READERS = [
    (["validate"], False),
    (["export", "--edges-out", "{out}.tsv", "--nodes-out", "{out}.nodes.tsv", "--dot-out", "{out}.dot"], False),
    (["analyze", "--kind", "purity", "--out", "{out}.purity.csv"], False),
    (["analyze", "--kind", "popularity", "--out", "{out}.popularity.csv"], False),
    (["run", "--repetitions", "2", "--out", "{out}.json"], True),
    (["grid-mu", "--grid", "0.2,0.4", "--repetitions", "2", "--out", "{out}.grid.csv"], True),
    (["sweep-volume", "--fractions", "0.5,0.8", "--repetitions", "2", "--out", "{out}.volume.csv"], True),
    (["sweep-time", "--horizons", "12", "--repetitions", "2", "--out", "{out}.time.csv"], True),
    (["ablate", "--repetitions", "2", "--out", "{out}.ablate.json"], True),
    (["analyze", "--kind", "convergence", "--out", "{out}.convergence.csv"], True),
    (["analyze", "--kind", "case-study", "--watchlist", "h0,h1", "--out", "{out}.case.csv"], True),
]


@pytest.mark.parametrize("kind", DEGENERATE)
def test_degenerate_corpora_give_one_outcome_in_every_subcommand(tmp_path, capsys, kind):
    from newstag.cli import main

    label, tags = DEGENERATE[kind]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"n{i}", "label": label(i), "published_at": "2020-03-01T00:00:00Z",
                    "posts": [{"post_id": f"p{i}-{j}", "created_at": "2020-03-01T01:00:00Z",
                               "hashtags": tags(i, j)} for j in range(2)]}) + "\n"
        for i in range(20)
    ))
    for args, splits in READERS:
        argv = [arg.format(out=tmp_path / "out") for arg in args]
        # a traceback fails the test here, as an uncaught exception
        status = main([*argv, "--input", str(corpus)])
        err = capsys.readouterr().err
        if kind == "single-class" and splits:
            assert status == 2, argv
            assert err.startswith("error: no usable split") and err.count("\n") == 1, argv
        else:
            assert status == 0, (argv, err)


@pytest.mark.parametrize("flags, flag", [
    (["--hashtags", "10", "--news", "1", "--posts-max", "100000000000"], "--posts-max"),
    (["--hashtags", "100000000000", "--news", "1"], "--hashtags"),
    (["--news", "100000000000"], "--news"),
    (["--tags-max", "100000"], "--tags-max"),
    (["--posts-min", "100000000000"], "--posts-min"),
    (["--tags-min", "100000"], "--tags-min"),
    (["--chains", "1000000", "--chain-depth", "2"], "--chains"),
    (["--chains", "1", "--chain-depth", "1000000"], "--chain-depth"),
])
def test_synth_size_above_cap_exits_1(workdir, flags, flag):
    out = workdir / "huge.jsonl"
    result = run_cli("synth", *flags, "--out", str(out))
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {flag} must be at most ")
    assert result.stderr.count("\n") == 1
    assert not out.exists()


def test_synth_occurrence_cap_exits_1(workdir):
    from newstag.synth import MAX_OCCURRENCES

    out = workdir / "many.jsonl"
    result = run_cli("synth", "--news", "1000000", "--posts-max", "100", "--tags-max", "10", "--out", str(out))
    assert result.returncode == 1
    assert result.stderr == (
        "error: news * posts_per_news maximum * hashtags_per_post maximum = 1,000,000,000 "
        f"hashtag occurrences; the cap is {MAX_OCCURRENCES:,}\n"
    )
    assert not out.exists()


def test_config_echo_nested_too_deep_exits_1(workdir):
    echo = workdir / "deep.config.json"
    echo.write_text('{"subcommand": "run", "parameters": ' + "[" * 100_000 + "]" * 100_000 + "}")
    result = run_cli("run", "--config", str(echo), "--out", str(workdir / "deep.json"))
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: config file {echo}: invalid JSON")
    assert result.stderr.count("\n") == 1
    assert not (workdir / "deep.json").exists()


@pytest.mark.parametrize("content, error", [
    (b'{"subcommand": "run", "parameters": {"seed": "\xff"}}',
     "invalid UTF-8: 'utf-8' codec can't decode byte 0xff in position 46: invalid start byte"),
    (b'[{"subcommand": "run", "parameters": {}}]', "expected a JSON object, got list"),
], ids=["not-utf8", "not-an-object"])
def test_unreadable_config_echo_exits_1(workdir, capsys, content, error):
    from newstag.cli import main

    echo = workdir / "unreadable.config.json"
    echo.write_bytes(content)
    out = workdir / "unreadable.json"
    assert main(["run", "--config", str(echo), "--input", str(workdir / "corpus.jsonl"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: config file {echo}: {error}\n"
    assert not out.exists()
