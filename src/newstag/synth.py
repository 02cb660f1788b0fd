"""Synthetic corpus generation for desk-scale verification.

Generates labeled news whose posts draw hashtags from a true pool and a
fake pool with a configurable purity, mirroring the empirical pattern
that fake news overwhelmingly uses hashtags not shared with true news.
Optionally plants "chain" news whose hashtags reach labeled hashtags
only through multi-hop bridge paths, which isolates the value of
indirect relations in controlled experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .corpus import Corpus, CorpusBuilder, TRUE, FAKE

DEFAULT_PUBLISH_START = datetime(2020, 3, 1, tzinfo=timezone.utc)

# Designated chain news carry this id prefix so experiments can single
# them out; bridge carriers are unlabeled and never enter a train split.
CHAIN_NEWS_PREFIX = "chain-"
CARRIER_NEWS_PREFIX = "carrier-"


@dataclass(frozen=True)
class SyntheticParams:
    """Knobs for :func:`generate_synthetic`.

    ``purity`` is the probability that a post of a fake news draws each
    hashtag from the fake pool (symmetrically for true news); it must be
    in (0.5, 1].  ``chain_depth`` > 0 inserts ``chains`` designated
    true-labeled news whose private hashtags connect to a labeled
    hashtag exclusively via a path of ``chain_depth`` edges through
    unlabeled carrier posts.
    """

    hashtags: int = 800
    news: int = 500
    fake_ratio: float = 0.5
    fake_pool_fraction: float = 0.5
    posts_per_news: tuple[int, int] = (3, 10)
    hashtags_per_post: tuple[int, int] = (1, 4)
    purity: float = 1.0
    chain_depth: int = 0
    chains: int = 0
    publish_step_hours: float = 1.0
    post_window_hours: float = 48.0

    def validate(self) -> None:
        if not 0.5 < self.purity <= 1.0:
            raise ValueError(f"purity must be in (0.5, 1], got {self.purity}")
        if self.hashtags < 2:
            raise ValueError("need at least 2 hashtags to form two pools")
        n_fake_pool = int(round(self.hashtags * self.fake_pool_fraction))
        if n_fake_pool < 1 or self.hashtags - n_fake_pool < 1:
            raise ValueError("both hashtag pools must be nonempty")
        if self.news < 1:
            raise ValueError("need at least 1 news item")
        if not 0.0 <= self.fake_ratio <= 1.0:
            raise ValueError(f"fake_ratio must be in [0,1], got {self.fake_ratio}")
        if self.chain_depth < 0:
            raise ValueError("chain_depth must be >= 0")
        if self.chain_depth > 0 and self.chains < 1:
            raise ValueError("chain_depth > 0 requires chains >= 1")
        for name, (lo, hi) in (
            ("posts_per_news", self.posts_per_news),
            ("hashtags_per_post", self.hashtags_per_post),
        ):
            if lo < 1 or hi < lo:
                raise ValueError(f"{name} range must satisfy 1 <= lo <= hi, got ({lo}, {hi})")
        if not 0.0 <= self.post_window_hours < math.inf:
            raise ValueError(f"post_window_hours must be finite and >= 0, got {self.post_window_hours}")
        if not math.isfinite(self.publish_step_hours):
            raise ValueError(f"publish_step_hours must be finite, got {self.publish_step_hours}")
        # the first and last publish slots, each with the longest post window
        last_slot = self.news - 1 + (2 * self.chains if self.chain_depth > 0 else 0)
        try:
            for slot in (0, last_slot):
                published = DEFAULT_PUBLISH_START + timedelta(hours=self.publish_step_hours * slot)
                published + timedelta(hours=self.post_window_hours)
        except OverflowError:
            raise ValueError(
                f"publish_step_hours {self.publish_step_hours:g} and post_window_hours "
                f"{self.post_window_hours:g} put timestamps outside years 1-9999"
            ) from None


def generate_synthetic(params: SyntheticParams, seed: int) -> Corpus:
    """Generate a labeled corpus; byte-identical output for a fixed seed."""
    params.validate()
    rng = np.random.default_rng(seed)

    n_fake_pool = int(round(params.hashtags * params.fake_pool_fraction))
    fake_pool = [f"f{k:04d}" for k in range(n_fake_pool)]
    true_pool = [f"t{k:04d}" for k in range(params.hashtags - n_fake_pool)]
    pools = {FAKE: fake_pool, TRUE: true_pool}

    labels = [FAKE] * int(round(params.news * params.fake_ratio))
    labels += [TRUE] * (params.news - len(labels))
    labels = list(rng.permutation(labels))

    builder = CorpusBuilder()
    anchors: dict[str, None] = {}  # hashtags of true news, in first-appearance order
    post_lo, post_hi = params.posts_per_news
    tag_lo, tag_hi = params.hashtags_per_post
    for i, label in enumerate(labels):
        label = int(label)
        published = DEFAULT_PUBLISH_START + timedelta(hours=params.publish_step_hours * i)
        own, other = pools[label], pools[-label]
        posts = []
        for j in range(int(rng.integers(post_lo, post_hi + 1))):
            tags: dict[str, None] = {}
            for _ in range(int(rng.integers(tag_lo, tag_hi + 1))):
                pool = own if rng.random() < params.purity else other
                tags.setdefault(pool[int(rng.integers(len(pool)))])
            offset = timedelta(hours=float(rng.uniform(0.0, params.post_window_hours)))
            posts.append((f"n{i:05d}-p{j:03d}", published + offset, tags))
            if label == TRUE:
                anchors.update(tags)
        builder.add(f"n{i:05d}", label, published, posts)

    if params.chain_depth > 0:
        _build_chains(params, rng, list(anchors), builder)

    return builder.build()


def _build_chains(
    params: SyntheticParams, rng: np.random.Generator, anchor_list: list[str], builder: CorpusBuilder
) -> None:
    """Append designated true news reachable only via bridge paths.

    Each designated news uses a single private hashtag in posts of its
    own.  An unlabeled carrier news holds the bridge posts forming the
    path  private -> bridge_1 -> ... -> bridge_{d-1} -> anchor,  where
    the anchor is a true-pool hashtag already used by a true news item
    (``anchor_list``).  Because the carrier is unlabeled it can never
    enter a train split, so under every split the private hashtag has
    no direct co-occurrence with any hashtag seen in training posts.
    """
    if not anchor_list:
        raise ValueError("chain construction needs at least one true news with hashtags")

    base_hour = params.publish_step_hours * params.news
    for c in range(params.chains):
        private = f"chain{c:03d}-tag"
        bridges = [f"chain{c:03d}-b{t}" for t in range(params.chain_depth - 1)]
        anchor = anchor_list[int(rng.integers(len(anchor_list)))]
        path = [private] + bridges + [anchor]

        published = DEFAULT_PUBLISH_START + timedelta(hours=base_hour + 2 * c * params.publish_step_hours)
        designated_posts = [
            (
                f"chain-{c:03d}-p{j}",
                published + timedelta(hours=float(rng.uniform(0.0, params.post_window_hours))),
                (private,),
            )
            for j in range(2)
        ]
        builder.add(f"{CHAIN_NEWS_PREFIX}{c:03d}", TRUE, published, designated_posts)

        carrier_published = published + timedelta(hours=params.publish_step_hours)
        carrier_posts = [
            (
                f"carrier-{c:03d}-p{j}",
                carrier_published + timedelta(hours=float(rng.uniform(0.0, params.post_window_hours))),
                (path[j], path[j + 1]),
            )
            for j in range(len(path) - 1)
        ]
        builder.add(f"{CARRIER_NEWS_PREFIX}{c:03d}", None, carrier_published, carrier_posts)


def designated_chain_ids(corpus: Corpus) -> tuple[str, ...]:
    """Ids of the designated chain news present in a synthetic corpus."""
    return tuple(news_id for news_id in corpus.ids if news_id.startswith(CHAIN_NEWS_PREFIX))
