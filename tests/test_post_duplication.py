"""Popularity scale invariance, as a metamorphic relation: posting every
post twice changes no experiment artifact.

Appending a copy of each news item's posts under fresh post ids doubles
every co-occurrence count.  ``normalize`` divides by the largest row sum,
so the normalized direct relation ``N`` is unchanged, and ``c0`` is a
vote average whose sums double exactly, so it is unchanged too (both
bitwise).  The operator, and so every propagated credibility, is then
the same; each per-post score doubles and each per-news one stays.
Labels, F1, the ``run``, ``grid-mu``, sweep and ``ablate`` reports must
be byte-identical under all three methods and both solvers.
"""

import csv
import json

import pytest

from newstag.cli import main
from newstag.corpus import parse_corpus, split_corpus, write_corpus
from newstag.credibility import init_credibility
from newstag.harness import METHOD_UNWEIGHTED, METHODS, direct_relation
from newstag.synth import SyntheticParams, generate_synthetic

# every artifact each command writes lands in its working directory
COMMANDS = [
    *(["run", "--method", method, "--mode", mode, "--repetitions", "3", "--seed", "5",
       "--out", f"run-{method}-{mode}.json", "--predictions-out", f"preds-{method}-{mode}.csv"]
      for method in METHODS for mode in ("iterative", "closed_form")),
    *(command + ["--method", method, "--out", f"{command[0]}-{method}.csv"]
      for method in METHODS
      for command in (["grid-mu", "--repetitions", "2", "--grid", "0.2,0.6"],
                      ["sweep-volume", "--repetitions", "2", "--fractions", "0.5,0.8"],
                      ["sweep-time", "--repetitions", "2", "--horizons", "6,24"])),
    *(["ablate", "--mode", mode, "--repetitions", "2", "--out", f"ablate-{mode}.json"]
      for mode in ("iterative", "closed_form")),
]


def twice(records: list[dict]) -> list[dict]:
    """Each news item's posts, then a copy of each under a fresh post id."""
    return [
        {**r, "posts": r["posts"] + [{**post, "post_id": post["post_id"] + "-again"} for post in r["posts"]]}
        for r in records
    ]


def run_all(directory, monkeypatch) -> dict[str, bytes]:
    """Every file in ``directory`` once each command has run there."""
    monkeypatch.chdir(directory)
    for args in COMMANDS:
        assert main([*args, "--input", "corpus.jsonl"]) == 0, args
    return {path.name: path.read_bytes() for path in directory.iterdir() if path.name != "corpus.jsonl"}


def predictions(data: bytes) -> dict[str, tuple[str, float]]:
    return {row["news_id"]: (row["predicted_label"], float(row["score"]))
            for row in csv.DictReader(data.decode("utf-8").splitlines())}


@pytest.mark.parametrize("seed, params", [
    (1, SyntheticParams(hashtags=60, news=40, purity=0.9, posts_per_news=(2, 5))),
    (2, SyntheticParams(hashtags=80, news=50, purity=0.65, chain_depth=2, chains=3)),
])
def test_posting_every_post_twice_changes_no_artifact(tmp_path, monkeypatch, seed, params):
    original, doubled = tmp_path / "original", tmp_path / "doubled"
    original.mkdir()
    doubled.mkdir()
    write_corpus(generate_synthetic(params, seed), original / "corpus.jsonl")
    records = [json.loads(line) for line in (original / "corpus.jsonl").read_text(encoding="utf-8").splitlines()]
    (doubled / "corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in twice(records)), encoding="utf-8")

    base, again = parse_corpus(original / "corpus.jsonl"), parse_corpus(doubled / "corpus.jsonl")
    assert again.vocabulary == base.vocabulary
    assert again.occurrences.post_count.tolist() == [2 * n for n in base.occurrences.post_count.tolist()]
    for method in METHODS:
        N = direct_relation(base, method).values.toarray()
        assert direct_relation(again, method).values.toarray().tobytes() == N.tobytes(), method
        per_post = method != METHOD_UNWEIGHTED
        for split_seed in range(3):
            train, _ = split_corpus(base, 0.8, split_seed)
            c0 = init_credibility(base, train, per_post=per_post)
            assert c0.tobytes() == init_credibility(again, train, per_post=per_post).tobytes(), method

    expected = run_all(original, monkeypatch)
    got = run_all(doubled, monkeypatch)
    assert got.keys() == expected.keys()
    for name, data in expected.items():
        if not name.startswith("preds-"):
            assert got[name] == data, name
            continue
        # a per-post score doubles, up to the order of its sum; a per-news one stays
        factor = 1.0 if METHOD_UNWEIGHTED in name else 2.0
        base_rows, again_rows = predictions(data), predictions(got[name])
        assert again_rows.keys() == base_rows.keys()
        for news_id, (label, score) in base_rows.items():
            assert again_rows[news_id][0] == label, (name, news_id)
            assert abs(again_rows[news_id][1] - factor * score) <= 1e-12 * max(1.0, abs(score)), (name, news_id)
