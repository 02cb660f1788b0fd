import hashlib
from datetime import timedelta

import numpy as np
import pytest

from helpers import assert_same_columns, corpus_to_jsonl_oracle, generate_synthetic_oracle
from newstag.corpus import corpus_to_jsonl, write_corpus
from newstag.graph import build_direct_graph
from newstag.synth import (
    CARRIER_NEWS_PREFIX,
    MAX_CHAIN_DEPTH,
    MAX_CHAINS,
    MAX_HASHTAGS,
    MAX_HASHTAGS_PER_POST,
    MAX_NEWS,
    MAX_OCCURRENCES,
    MAX_POSTS_PER_NEWS,
    SyntheticParams,
    _Draws,
    _hour_micros,
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


# --- the generator against the scalar-draw oracle ------------------------------------

@pytest.mark.parametrize("fields", [
    {"hashtags": 60, "news": 40, "purity": 0.9},
    {"hashtags": 50, "news": 30, "purity": 0.8, "chain_depth": 3, "chains": 4},
    {"hashtags": 30, "news": 25, "purity": 0.7, "chain_depth": 1, "chains": 2},
    # a one-hashtag pool draws no index; so do both pools of two hashtags
    {"hashtags": 30, "news": 20, "purity": 0.6, "fake_pool_fraction": 29 / 30},
    {"hashtags": 2, "news": 20, "purity": 0.75, "chain_depth": 2, "chains": 3},
    # fixed counts draw nothing for them
    {"hashtags": 40, "news": 20, "purity": 0.9, "posts_per_news": (2, 2), "hashtags_per_post": (3, 3)},
    {"hashtags": 40, "news": 20, "purity": 1.0, "post_window_hours": 0},
    {"hashtags": 40, "news": 30, "purity": 0.9, "publish_step_hours": -2.5, "chain_depth": 2, "chains": 3},
    {"hashtags": 40, "news": 30, "purity": 0.9, "publish_step_hours": 1e-7, "post_window_hours": 1e-6},
    {"hashtags": 40, "news": 30, "purity": 0.9, "publish_step_hours": 3, "post_window_hours": 7},
    {"hashtags": 40, "news": 30, "fake_ratio": 0.2, "purity": 0.55, "posts_per_news": (1, 40)},
], ids=lambda fields: ",".join(f"{k}={v}" for k, v in fields.items()))
@pytest.mark.parametrize("seed", [0, 1, 7, 11])
def test_generator_matches_scalar_draw_oracle(fields, seed):
    params = SyntheticParams(**fields)
    corpus, oracle = generate_synthetic(params, seed), generate_synthetic_oracle(params, seed)
    assert_same_columns(corpus, oracle)
    assert list(corpus_to_jsonl(corpus)) == corpus_to_jsonl_oracle(oracle)


def test_chains_without_true_hashtags_rejected_like_the_oracle():
    params = SyntheticParams(hashtags=20, news=10, fake_ratio=1.0, chain_depth=2, chains=1)
    for generate in (generate_synthetic, generate_synthetic_oracle):
        with pytest.raises(ValueError, match="at least one true news"):
            generate(params, 1)


def test_benchmark_input_bytes_pinned(tmp_path):
    """The q=800 seed-1 input of the benchmark's grid-mu-800 workload; any
    change to the random stream or the writer changes these bytes."""
    path = tmp_path / "q800.jsonl"
    write_corpus(generate_synthetic(SyntheticParams(hashtags=800, news=500, purity=0.9), seed=1), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "138b28ec3abc2cbaa125304c69a05441bbb6cc97427e628d13cb5fa65141a1b2"


# --- the draw source -------------------------------------------------------------------

# hi - lo per draw: a range of one value draws nothing, 3e9 rejects about
# 30 % of the halves it takes, 2**32 takes a half as it is
SPANS = [1, 2, 3, 7, 1000, 65537, 3_000_000_000, 2**31 + 1, 2**32 - 1, 2**32]


@pytest.mark.parametrize("buffered", [False, True], ids=["empty-buffer", "buffered-half"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_draw_source_matches_generator(seed, buffered):
    steps = np.random.default_rng(100 + seed)
    generator, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (generator, twin):
        rng.permutation(11)
        if rng.bit_generator.state["has_uint32"] != buffered:
            rng.integers(0, 10)  # takes or fills the buffered half
    assert twin.bit_generator.state["has_uint32"] == buffered
    draws = _Draws(twin)
    # more than one block of raw words
    for _ in range(40_000):
        kind = steps.integers(3)
        if kind == 0:
            lo = int(steps.integers(-1000, 1000))
            hi = lo + SPANS[steps.integers(len(SPANS))]
            assert draws.integers(lo, hi) == generator.integers(lo, hi)
        elif kind == 1:
            assert draws.random() == generator.random()
        else:
            width = [0.0, 1e-9, 48.0, 1e300][steps.integers(4)]
            assert draws.uniform(width) == generator.uniform(0.0, width)


# --- the hours kernel ------------------------------------------------------------------

def test_hour_micros_matches_timedelta():
    half = 2.0**-11  # 3.6e9 * 2**-11 = 1757812.5 microseconds exactly
    hours = [0.0, -0.0, 1.0, -1.0, half, 3 * half, -half, -3 * half, 5 + half, 5 + 3 * half,
             -5 - half, -5 - 3 * half, 1e-7, -1e-7, 0.1, -0.1, 1 / 3, -1 / 3, 8.8e7, -8.8e7 + 1 / 7]
    rng = np.random.default_rng(5)
    hours += rng.uniform(-1e4, 1e4, 2000).tolist() + rng.uniform(-1e-3, 1e-3, 2000).tolist()
    # fractions of a microsecond near one half
    hours += [k * half / 1024 for k in range(-4096, 4096)]
    expected = [timedelta(hours=x) // timedelta(microseconds=1) for x in hours]
    micros = _hour_micros(hours)
    assert micros.dtype == np.int64
    assert micros.tolist() == expected


# --- size caps -------------------------------------------------------------------------

@pytest.mark.parametrize("fields, message", [
    ({"hashtags": MAX_HASHTAGS + 1, "news": 1}, "hashtags must be at most"),
    ({"hashtags": 100_000_000_000, "news": 1}, "hashtags must be at most"),
    ({"news": MAX_NEWS + 1, "posts_per_news": (1, 1), "hashtags_per_post": (1, 1)}, "news must be at most"),
    ({"news": 1, "posts_per_news": (3, 100_000_000_000)}, "posts_per_news maximum must be at most"),
    ({"news": 1, "posts_per_news": (1, MAX_POSTS_PER_NEWS + 1)}, "posts_per_news maximum must be at most"),
    ({"news": 1, "hashtags_per_post": (1, MAX_HASHTAGS_PER_POST + 1)}, "hashtags_per_post maximum must be at most"),
    ({"chains": MAX_CHAINS + 1, "chain_depth": 1}, "chains must be at most"),
    ({"chains": 1, "chain_depth": MAX_CHAIN_DEPTH + 1}, "chain_depth must be at most"),
    ({"news": MAX_NEWS, "posts_per_news": (1, 10), "hashtags_per_post": (1, 2)}, "hashtag occurrences"),
])
def test_size_caps(fields, message):
    with pytest.raises(ValueError, match=message):
        SyntheticParams(**fields).validate()


def test_size_caps_leave_a_wide_margin_over_the_benchmark():
    # the benchmark's largest input is q = 30k: 18,750 news of up to 10 posts of up to 4 hashtags
    SyntheticParams(hashtags=10 * 30_000, news=4 * 18_750, purity=0.9).validate()
    assert 4 * 18_750 * 10 * 4 <= MAX_OCCURRENCES
