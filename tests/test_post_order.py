"""Post order independence, as a metamorphic relation: shuffling the
posts within each news item changes no experiment report.

Every count the method reads (co-occurrences, votes, a news item's
hashtags) is a sum over a news item's posts, so the order of the posts
changes only the order of the vocabulary, which follows first
appearance.  The graph, ``c0`` and the propagated credibility are then
permuted alike and the news scores agree up to the order of their sums.
Labels, F1 and the ``run``, ``grid-mu``, sweep and ``ablate`` reports
must be byte-identical under all three methods and both solvers, and
every score must agree within 1e-12.
"""

import json

import numpy as np
import pytest

from newstag.corpus import parse_corpus, split_corpus, write_corpus
from newstag.credibility import init_credibility
from newstag.harness import METHOD_UNWEIGHTED, METHODS, direct_relation
from newstag.synth import SyntheticParams, generate_synthetic

from test_post_duplication import predictions, run_all


def shuffled(records: list[dict], seed: int) -> list[dict]:
    """Each news item's posts in a seeded random order."""
    rng = np.random.default_rng(seed)
    return [{**r, "posts": [r["posts"][k] for k in rng.permutation(len(r["posts"])).tolist()]} for r in records]


@pytest.mark.parametrize("seed, params", [
    (1, SyntheticParams(hashtags=60, news=40, purity=0.9, posts_per_news=(2, 5))),
    (2, SyntheticParams(hashtags=80, news=50, purity=0.65, chain_depth=2, chains=3)),
])
def test_shuffling_the_posts_of_each_news_item_changes_no_report(tmp_path, monkeypatch, seed, params):
    original, reordered = tmp_path / "original", tmp_path / "reordered"
    original.mkdir()
    reordered.mkdir()
    write_corpus(generate_synthetic(params, seed), original / "corpus.jsonl")
    records = [json.loads(line) for line in (original / "corpus.jsonl").read_text(encoding="utf-8").splitlines()]
    (reordered / "corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in shuffled(records, seed)))

    base, again = parse_corpus(original / "corpus.jsonl"), parse_corpus(reordered / "corpus.jsonl")
    assert again.vocabulary != base.vocabulary and sorted(again.vocabulary) == sorted(base.vocabulary)
    # the same relation and c0 (bitwise), in the permuted vocabulary's order
    at = np.array([again.vocab_index[tag] for tag in base.vocabulary])
    for method in METHODS:
        N = direct_relation(base, method).values.toarray()
        assert np.array_equal(direct_relation(again, method).values.toarray()[np.ix_(at, at)], N), method
        per_post = method != METHOD_UNWEIGHTED
        for split_seed in range(3):
            train, _ = split_corpus(base, 0.8, split_seed)
            c0 = init_credibility(base, train, per_post=per_post)
            assert np.array_equal(init_credibility(again, train, per_post=per_post)[at], c0), method

    expected = run_all(original, monkeypatch)
    got = run_all(reordered, monkeypatch)
    assert got.keys() == expected.keys()
    for name, data in expected.items():
        if not name.startswith("preds-"):
            assert got[name] == data, name
            continue
        base_rows, again_rows = predictions(data), predictions(got[name])
        assert again_rows.keys() == base_rows.keys()
        for news_id, (label, score) in base_rows.items():
            assert again_rows[news_id][0] == label, (name, news_id)
            assert abs(again_rows[news_id][1] - score) <= 1e-12 * max(1.0, abs(score)), (name, news_id)
