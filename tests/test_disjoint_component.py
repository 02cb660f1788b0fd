"""Locality, as a metamorphic relation: appending a component the corpus
does not touch changes no experiment report.

The appended news items are unlabeled and carry only fresh hashtags, so
the hashtag graph gains a block of its own.  Their co-occurrence row sums
stay below the corpus's largest, so ``normalize`` divides by the same
number and the original block of ``N`` is unchanged (bitwise).  Splits
draw from the labeled rows only, so every training side is the same;
the fresh hashtags get no vote, so ``c0`` is 0 on them and they never
mix with the original block.  Labels, F1 and the ``run``, ``grid-mu``,
sweep and ``ablate`` reports must be byte-identical under all three
methods and both solvers, and the original news items' scores must
agree within 1e-12 (a product over the larger operator may add its
terms in another order).
"""

import json

import numpy as np
import pytest

from newstag.corpus import parse_corpus, split_corpus, write_corpus
from newstag.credibility import init_credibility
from newstag.graph import build_direct_graph
from newstag.harness import METHOD_UNWEIGHTED, METHODS, direct_relation
from newstag.synth import SyntheticParams, generate_synthetic

from test_post_duplication import predictions, run_all


def component(n: int) -> list[dict]:
    """``n`` unlabeled, untimed news items, each one post over three fresh
    hashtags shared with the items before and after it: a chain."""
    return [
        {"id": f"far{k}", "label": None, "published_at": None,
         "posts": [{"post_id": f"far{k}-p", "created_at": None, "hashtags": [f"far{k + j}" for j in range(3)]}]}
        for k in range(n)
    ]


@pytest.mark.parametrize("seed, params", [
    (1, SyntheticParams(hashtags=60, news=40, purity=0.9, posts_per_news=(2, 5))),
    (2, SyntheticParams(hashtags=80, news=50, purity=0.65, chain_depth=2, chains=3)),
])
def test_appending_a_disjoint_component_changes_no_report(tmp_path, monkeypatch, seed, params):
    original, extended = tmp_path / "original", tmp_path / "extended"
    original.mkdir()
    extended.mkdir()
    write_corpus(generate_synthetic(params, seed), original / "corpus.jsonl")
    records = [json.loads(line) for line in (original / "corpus.jsonl").read_text(encoding="utf-8").splitlines()]
    (extended / "corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records + component(5)))

    base, again = parse_corpus(original / "corpus.jsonl"), parse_corpus(extended / "corpus.jsonl")
    q = len(base.vocabulary)
    assert again.vocabulary[:q] == base.vocabulary and len(again.vocabulary) == q + 7
    for weighted in (True, False):
        rows = np.asarray(build_direct_graph(again, weighted=weighted).values.sum(axis=1)).ravel()
        assert rows[q:].max() < rows[:q].max()
    for method in METHODS:
        N = direct_relation(again, method).values.toarray()
        assert np.array_equal(N[:q, :q], direct_relation(base, method).values.toarray()), method
        assert not N[:q, q:].any()
        per_post = method != METHOD_UNWEIGHTED
        for split_seed in range(3):
            train, _ = split_corpus(base, 0.8, split_seed)
            assert np.array_equal(split_corpus(again, 0.8, split_seed)[0], train)
            c0 = init_credibility(again, train, per_post=per_post)
            assert np.array_equal(c0[:q], init_credibility(base, train, per_post=per_post)) and not c0[q:].any()

    expected = run_all(original, monkeypatch)
    got = run_all(extended, monkeypatch)
    assert got.keys() == expected.keys()
    for name, data in expected.items():
        if not name.startswith("preds-"):
            assert got[name] == data, name
            continue
        base_rows, again_rows = predictions(data), predictions(got[name])
        assert again_rows.keys() == base_rows.keys() | {f"far{k}" for k in range(5)}
        for news_id, (label, score) in base_rows.items():
            assert again_rows[news_id][0] == label, (name, news_id)
            assert abs(again_rows[news_id][1] - score) <= 1e-12 * max(1.0, abs(score)), (name, news_id)
