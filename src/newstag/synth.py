"""Synthetic corpus generation for desk-scale verification.

Generates labeled news whose posts draw hashtags from a true pool and a
fake pool with a configurable purity, mirroring the empirical pattern
that fake news overwhelmingly uses hashtags not shared with true news.
Optionally plants "chain" news whose hashtags reach labeled hashtags
only through multi-hop bridge paths, which isolates the value of
indirect relations in controlled experiments.

The random stream is defined on the raw 64-bit words of NumPy's PCG64
bit generator (see :class:`_Draws`), which NumPy keeps stable across
versions, so a seed gives the same corpus bytes wherever it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import chain

import numpy as np

from .corpus import EPOCH, FAKE, TRUE, Corpus, _first_appearance, _first_per_group, _from_columns, _Strings

DEFAULT_PUBLISH_START = datetime(2020, 3, 1, tzinfo=timezone.utc)
_START_MICROS = (DEFAULT_PUBLISH_START - EPOCH) // timedelta(microseconds=1)
_MICROS_PER_HOUR = 3_600_000_000

# Designated chain news carry this id prefix so experiments can single
# them out; bridge carriers are unlabeled and never enter a train split.
CHAIN_NEWS_PREFIX = "chain-"
CARRIER_NEWS_PREFIX = "carrier-"

# Largest sizes a synthetic corpus may ask for.  Every range a draw
# takes must stay below 2**32.  Generating a corpus peaks at about 320
# bytes per post (one hashtag each), and writing it, a block of news
# rows at a time, stays below that peak; so the worst-case occurrence
# count ``news * posts_per_news[1] * hashtags_per_post[1]`` is capped to
# keep the peak near 0.9 GiB (903 MiB measured at the cap); the
# benchmark's largest corpus (30,000 hashtags, 18,750 news) reaches at
# most 750,000.
MAX_HASHTAGS = 1_000_000
MAX_NEWS = 1_000_000
MAX_POSTS_PER_NEWS = 10_000
MAX_HASHTAGS_PER_POST = 1_000
MAX_CHAINS = 10_000
MAX_CHAIN_DEPTH = 100
MAX_OCCURRENCES = 3_000_000


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
        for name, value, cap in (
            ("hashtags", self.hashtags, MAX_HASHTAGS),
            ("news", self.news, MAX_NEWS),
            ("posts_per_news maximum", self.posts_per_news[1], MAX_POSTS_PER_NEWS),
            ("hashtags_per_post maximum", self.hashtags_per_post[1], MAX_HASHTAGS_PER_POST),
            ("chains", self.chains, MAX_CHAINS),
            ("chain_depth", self.chain_depth, MAX_CHAIN_DEPTH),
        ):
            if value > cap:
                raise ValueError(f"{name} must be at most {cap:,}, got {value:,}")
        occurrences = self.news * self.posts_per_news[1] * self.hashtags_per_post[1]
        if occurrences > MAX_OCCURRENCES:
            raise ValueError(
                f"news * posts_per_news maximum * hashtags_per_post maximum = {occurrences:,} "
                f"hashtag occurrences; the cap is {MAX_OCCURRENCES:,}"
            )
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


class _Draws:
    """The scalar draws of a PCG64 ``Generator``, read from its raw words.

    NumPy draws ``integers(lo, hi)`` over a range of at most 2**32 by
    Lemire's method on 32-bit halves of the 64-bit words: a word's low
    half first, its high half kept for the next 32-bit draw, which a
    64-bit draw leaves alone.  ``random()`` is the top 53 bits of a word
    times 2**-53, and ``uniform(0, w)`` is ``0.0 + w * random()``.
    Reading the same values from blocks of ``random_raw`` words saves the
    per-call cost of the ``Generator`` methods.  The source starts from
    the generator's state, buffered half included, and reads ahead of
    it, so the generator is not to be drawn from afterwards.
    """

    _BLOCK = 1 << 14  # words per random_raw call

    def __init__(self, rng: np.random.Generator) -> None:
        bitgen = rng.bit_generator
        state = bitgen.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        blocks = iter(lambda: bitgen.random_raw(self._BLOCK).tolist(), None)  # never ends
        self._word = chain.from_iterable(blocks).__next__

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            return word & 0xFFFFFFFF
        self._half = None
        return half

    def integers(self, lo: int, hi: int) -> int:
        """``Generator.integers(lo, hi)`` for ``hi - lo <= 2**32``."""
        n = hi - lo
        if n == 1:
            return lo  # a range of one value draws nothing
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:  # possibly biased: reject below 2**32 mod n
            threshold = (1 << 32) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return lo + (m >> 32)

    def random(self) -> float:
        return (self._word() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, width: float) -> float:
        """``Generator.uniform(0.0, width)``."""
        return 0.0 + width * self.random()


def _hour_micros(hours) -> np.ndarray:
    """``timedelta(hours=x) // timedelta(microseconds=1)`` for each ``x``.

    CPython splits ``x`` into whole and fractional hours, converts the
    whole hours exactly, scales the fraction by 3.6e9 in floating point
    and adds the whole microseconds of that; the leftover fraction of a
    microsecond rounds the total half to even.
    """
    frac, whole = np.modf(np.asarray(hours, dtype=np.float64))
    left, whole_us = np.modf(frac * float(_MICROS_PER_HOUR))
    micros = whole.astype(np.int64) * _MICROS_PER_HOUR + whole_us.astype(np.int64)
    away = (np.abs(left) > 0.5) | ((np.abs(left) == 0.5) & (micros % 2 == 1))
    return micros + np.where(away, np.sign(left), 0.0).astype(np.int64)


class _Columns:
    """Columns of a synthetic corpus, appended in stream order.  A post's
    time is its hours after the publication of its news item; hashtags
    are pool keys, one per draw, repeats within a post included."""

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.labels: list[int] = []  # 0 when unlabeled
        self.post_count: list[int] = []
        self.post_ids: list[str] = []
        self.offsets: list[float] = []
        self.tag_count: list[int] = []
        self.keys: list[int] = []


def generate_synthetic(params: SyntheticParams, seed: int) -> Corpus:
    """Generate a labeled corpus; byte-identical output for a fixed seed."""
    params.validate()
    rng = np.random.default_rng(seed)

    n_fake_pool = int(round(params.hashtags * params.fake_pool_fraction))
    n_true_pool = params.hashtags - n_fake_pool
    names = [f"f{k:04d}" for k in range(n_fake_pool)] + [f"t{k:04d}" for k in range(n_true_pool)]
    # (first key, size) of each pool
    pools = {FAKE: (0, n_fake_pool), TRUE: (n_fake_pool, n_true_pool)}

    labels = [FAKE] * int(round(params.news * params.fake_ratio))
    labels += [TRUE] * (params.news - len(labels))
    labels = rng.permutation(labels).tolist()
    draws = _Draws(rng)
    integers, random, uniform = draws.integers, draws.random, draws.uniform

    cols = _Columns()
    add_offset, add_count, add_key = cols.offsets.append, cols.tag_count.append, cols.keys.append
    post_lo, post_hi = params.posts_per_news
    tag_lo, tag_hi = params.hashtags_per_post
    suffixes = [f"-p{j:03d}" for j in range(post_hi)]
    purity, window = params.purity, float(params.post_window_hours)
    for i, label in enumerate(labels):
        (own, n_own), (other, n_other) = pools[label], pools[-label]
        news_id = f"n{i:05d}"
        n_posts = integers(post_lo, post_hi + 1)
        cols.ids.append(news_id)
        cols.labels.append(label)
        cols.post_count.append(n_posts)
        cols.post_ids += [news_id + suffix for suffix in suffixes[:n_posts]]
        for _ in range(n_posts):
            n_tags = integers(tag_lo, tag_hi + 1)
            add_count(n_tags)
            for _ in range(n_tags):
                if random() < purity:
                    add_key(own + integers(0, n_own))
                else:
                    add_key(other + integers(0, n_other))
            add_offset(uniform(window))
    published = _START_MICROS + _hour_micros(params.publish_step_hours * np.arange(params.news))

    if params.chain_depth > 0:
        published = np.concatenate([published, _build_chains(params, draws, cols, len(names))])
        names += [
            f"chain{c:03d}-tag" if t == 0 else f"chain{c:03d}-b{t - 1}"
            for c in range(params.chains)
            for t in range(params.chain_depth)
        ]

    keys = np.array(cols.keys, dtype=np.int64)
    post = np.repeat(np.arange(len(cols.tag_count)), cols.tag_count)
    first = _first_per_group(post, keys, len(names))
    order, tag = _first_appearance(keys[first], len(names))
    return _from_columns(
        ids=cols.ids,
        labels=cols.labels,
        published=published,
        post_count=cols.post_count,
        post_ids=_Strings(cols.post_ids),
        created=np.repeat(published, cols.post_count) + _hour_micros(cols.offsets),
        post=post[first],
        tag=tag,
        vocabulary=[names[k] for k in order.tolist()],
    )


def _build_chains(params: SyntheticParams, draws: _Draws, cols: _Columns, first_key: int) -> np.ndarray:
    """Append designated true news reachable only via bridge paths, and
    return their publish times and their carriers', interleaved.

    Each designated news uses a single private hashtag in posts of its
    own.  An unlabeled carrier news holds the bridge posts forming the
    path  private -> bridge_1 -> ... -> bridge_{d-1} -> anchor,  where
    the anchor is a true-pool hashtag already used by a true news item.
    Because the carrier is unlabeled it can never enter a train split,
    so under every split the private hashtag has no direct
    co-occurrence with any hashtag seen in training posts.  The private
    hashtag and bridges of chain ``c`` are the ``chain_depth`` pool keys
    from ``first_key + c * chain_depth``.
    """
    # hashtags of true news, in first-appearance order
    label_of_key = np.repeat(np.repeat(cols.labels, cols.post_count), cols.tag_count)
    anchors = _first_appearance(np.array(cols.keys, dtype=np.int64)[label_of_key == TRUE], first_key)[0].tolist()
    if not anchors:
        raise ValueError("chain construction needs at least one true news with hashtags")

    depth, window = params.chain_depth, float(params.post_window_hours)
    for c in range(params.chains):
        private = first_key + c * depth
        path = list(range(private, private + depth)) + [anchors[draws.integers(0, len(anchors))]]
        cols.ids += [f"{CHAIN_NEWS_PREFIX}{c:03d}", f"{CARRIER_NEWS_PREFIX}{c:03d}"]
        cols.labels += [TRUE, 0]
        cols.post_count += [2, depth]
        cols.post_ids += [f"chain-{c:03d}-p{j}" for j in range(2)]
        cols.post_ids += [f"carrier-{c:03d}-p{j}" for j in range(depth)]
        cols.offsets += [draws.uniform(window) for _ in range(2 + depth)]
        cols.tag_count += [1, 1] + [2] * depth
        cols.keys += [private, private]
        for j in range(depth):
            cols.keys += path[j : j + 2]

    step = params.publish_step_hours
    designated = _START_MICROS + _hour_micros(step * params.news + 2 * np.arange(params.chains) * step)
    carrier = designated + _hour_micros(step)
    return np.column_stack([designated, carrier]).ravel()


def designated_chain_ids(corpus: Corpus) -> tuple[str, ...]:
    """Ids of the designated chain news present in a synthetic corpus."""
    return tuple(news_id for news_id in corpus.ids if news_id.startswith(CHAIN_NEWS_PREFIX))
