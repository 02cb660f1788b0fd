import pytest

from newstag.corpus import write_corpus
from newstag.graph import build_direct_graph
from newstag.synth import (
    CARRIER_NEWS_PREFIX,
    SyntheticParams,
    designated_chain_ids,
    generate_synthetic,
)


def test_every_regular_news_is_labeled_and_timed():
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40), seed=1)
    assert len(corpus.news) == 40
    for item in corpus.news:
        assert item.label in (-1, 1)
        assert item.published_at is not None
        for post in item.posts:
            assert post.created_at is not None
            assert post.created_at >= item.published_at


def test_purity_one_means_class_pure_hashtags():
    corpus = generate_synthetic(SyntheticParams(hashtags=80, news=60, purity=1.0), seed=2)
    usage: dict[str, set[int]] = {}
    for item in corpus.news:
        for post in item.posts:
            for h in post.hashtags:
                usage.setdefault(h, set()).add(item.label)
    assert all(len(labels) == 1 for labels in usage.values())


def test_purity_one_no_cross_class_cooccurrence():
    corpus = generate_synthetic(SyntheticParams(hashtags=80, news=60, purity=1.0), seed=3)
    label_of = {}
    for item in corpus.news:
        for post in item.posts:
            for h in post.hashtags:
                label_of[h] = item.label
    graph = build_direct_graph(corpus)
    coo = graph.upper.tocoo()
    for r, c in zip(coo.row, coo.col):
        assert label_of[graph.vocab[r]] == label_of[graph.vocab[c]]


def test_determinism_byte_identical(tmp_path):
    params = SyntheticParams(hashtags=50, news=30, purity=0.8, chain_depth=2, chains=3)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus(generate_synthetic(params, seed=9), a)
    write_corpus(generate_synthetic(params, seed=9), b)
    assert a.read_bytes() == b.read_bytes()
    write_corpus(generate_synthetic(params, seed=10), tmp_path / "c.jsonl")
    assert a.read_bytes() != (tmp_path / "c.jsonl").read_bytes()


def test_chain_corpus_structure():
    params = SyntheticParams(hashtags=60, news=40, purity=1.0, chain_depth=2, chains=4)
    corpus = generate_synthetic(params, seed=5)
    designated = designated_chain_ids(corpus)
    assert len(designated) == 4
    by_id = {item.id: item for item in corpus.news}
    # designated news are labeled true; carriers are unlabeled
    for news_id in designated:
        assert by_id[news_id].label == 1
    carriers = [i for i in by_id if i.startswith(CARRIER_NEWS_PREFIX)]
    assert len(carriers) == 4
    assert all(by_id[i].label is None for i in carriers)


def test_chain_depth_two_gives_two_hop_path_but_no_direct_edge():
    params = SyntheticParams(hashtags=60, news=40, purity=1.0, chain_depth=2, chains=3)
    corpus = generate_synthetic(params, seed=6)
    graph = build_direct_graph(corpus)
    index = {h: k for k, h in enumerate(graph.vocab)}
    full = graph.full().toarray()

    labeled_hashtags = set()
    for item in corpus.news:
        if item.label is not None and not item.id.startswith("chain-"):
            for post in item.posts:
                labeled_hashtags.update(post.hashtags)

    for c in range(3):
        private = f"chain{c:03d}-tag"
        k = index[private]
        # no direct co-occurrence with any hashtag of a labeled news item
        neighbors = {graph.vocab[l] for l in full[k].nonzero()[0]}
        assert not neighbors & labeled_hashtags
        # but a 2-hop path into the labeled pool exists
        two_hop = set()
        for l in full[k].nonzero()[0]:
            two_hop.update(graph.vocab[m] for m in full[l].nonzero()[0])
        assert two_hop & labeled_hashtags


def test_parameter_validation():
    with pytest.raises(ValueError, match="purity"):
        generate_synthetic(SyntheticParams(purity=0.5), seed=0)
    with pytest.raises(ValueError, match="purity"):
        generate_synthetic(SyntheticParams(purity=1.0001), seed=0)
    with pytest.raises(ValueError, match="pools"):
        generate_synthetic(SyntheticParams(hashtags=10, fake_pool_fraction=0.0), seed=0)
    with pytest.raises(ValueError, match="chains"):
        generate_synthetic(SyntheticParams(chain_depth=2, chains=0), seed=0)
    with pytest.raises(ValueError, match="posts_per_news"):
        generate_synthetic(SyntheticParams(posts_per_news=(3, 2)), seed=0)


@pytest.mark.parametrize("field, value", [
    ("post_window_hours", float("inf")),
    ("post_window_hours", float("nan")),
    ("post_window_hours", -5.0),
    ("publish_step_hours", float("inf")),
    ("publish_step_hours", float("-inf")),
    ("publish_step_hours", float("nan")),
])
def test_time_parameters_must_be_finite(field, value):
    with pytest.raises(ValueError, match=field):
        generate_synthetic(SyntheticParams(hashtags=10, news=4, **{field: value}), seed=1)


@pytest.mark.parametrize("fields", [
    {"post_window_hours": 1e300},
    {"post_window_hours": 1e9},
    {"publish_step_hours": 1e7},
    {"publish_step_hours": -1e7},
    # the chain news come after the regular ones
    {"publish_step_hours": 1e6, "chain_depth": 2, "chains": 40},
])
def test_timestamps_outside_datetime_range_rejected(fields):
    with pytest.raises(ValueError, match="outside years 1-9999"):
        SyntheticParams(hashtags=20, news=10, **fields).validate()
    SyntheticParams(hashtags=20, news=10, publish_step_hours=1e6).validate()
