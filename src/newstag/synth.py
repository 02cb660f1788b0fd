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

import numpy as np

from .corpus import EPOCH, FAKE, TRUE, Corpus, _first_appearance, _first_per_group, _from_columns, _lengths, _Strings

DEFAULT_PUBLISH_START = datetime(2020, 3, 1, tzinfo=timezone.utc)
_START_MICROS = (DEFAULT_PUBLISH_START - EPOCH) // timedelta(microseconds=1)
_MICROS_PER_HOUR = 3_600_000_000

# Designated chain news carry this id prefix so experiments can single
# them out; bridge carriers are unlabeled and never enter a train split.
CHAIN_NEWS_PREFIX = "chain-"
CARRIER_NEWS_PREFIX = "carrier-"

# Largest sizes a synthetic corpus may ask for.  Every range a draw
# takes must stay below 2**32.  Generating a corpus peaks at about 170
# bytes per post (one hashtag each), and writing it, a block of news
# rows at a time, about as much; so the worst-case occurrence count
# ``news * posts_per_news[1] * hashtags_per_post[1]`` is capped to keep
# the peak near 0.5 GiB (515 MiB measured at the cap); the
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


_HALF = 0xFFFFFFFF  # the low half of a word
_UNIT = 1.0 / 9007199254740992.0  # 2**-53

# News items one walk lays out before their hashtags and times are read:
# a redraw costs at most the rest of one such block's layout.
_BLOCK_NEWS = 1024


class _Draws:
    """The draws of a PCG64 ``Generator``, read from its raw words.

    NumPy draws ``integers(lo, hi)`` over a range of at most 2**32 by
    Lemire's method on 32-bit halves of the 64-bit words: a word's low
    half first, its high half kept for the next 32-bit draw, which a
    64-bit draw leaves alone.  ``random()`` is the top 53 bits of a word
    times 2**-53, and ``uniform(0, w)`` is ``0.0 + w * random()``.

    The source keeps the words it has taken from the generator in the
    array ``words``, which :meth:`reserve` extends, and its place in them
    as ``pos``, the next word to read, and ``half``, the word whose high
    half is buffered (-1 when none is).  Word 0 holds the generator's own
    buffered half, if it has one, as its high half.  A place
    ``(pos, half)`` can be recorded and set back, and the words can be
    read as arrays as well as by the scalar methods.  The source reads
    ahead of the generator, which is not to be drawn from afterwards.
    """

    _BLOCK = 1 << 14  # fewest words per random_raw call

    def __init__(self, rng: np.random.Generator) -> None:
        self._bitgen = rng.bit_generator
        state = self._bitgen.state
        buffered = bool(state["has_uint32"])
        self.words = np.array([state["uinteger"] << 32 if buffered else 0], dtype=np.uint64)
        self.pos, self.half = 1, (0 if buffered else -1)

    def reserve(self, end: int) -> np.ndarray:
        """``words``, extended to at least ``end`` words; it at least doubles
        when it grows."""
        size = len(self.words)
        if end > size:
            more = self._bitgen.random_raw(max(end - size, size, self._BLOCK))
            self.words = np.concatenate([self.words, more])
        return self.words

    def _word(self) -> int:
        pos, words = self.pos, self.words
        if pos == len(words):
            words = self.reserve(pos + 1)
        self.pos = pos + 1
        return words.item(pos)

    def _uint32(self) -> int:
        if self.half < 0:
            self.half = self.pos
            return self._word() & _HALF
        word, self.half = self.words.item(self.half), -1
        return word >> 32

    def integers(self, lo: int, hi: int) -> int:
        """``Generator.integers(lo, hi)`` for ``hi - lo <= 2**32``."""
        n = hi - lo
        if n == 1:
            return lo  # a range of one value draws nothing
        m = self._uint32() * n
        if m & _HALF < n:  # possibly biased: reject below 2**32 mod n
            threshold = (1 << 32) % n
            while m & _HALF < threshold:
                m = self._uint32() * n
        return lo + (m >> 32)

    def random(self) -> float:
        return (self._word() >> 11) * _UNIT

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
    """Columns of a synthetic corpus, appended in stream order a block of
    news rows at a time: posts per news row, and per post its hashtag
    count and time in hours after the publication of its news item;
    hashtags are pool keys, one per draw, repeats within a post included."""

    def __init__(self) -> None:
        self.post_count: list = []
        self.tag_count: list = []
        self.keys: list = []
        self.offsets: list = []

    def add(self, post_count, tag_count, keys, offsets) -> None:
        self.post_count.append(post_count)
        self.tag_count.append(tag_count)
        self.keys.append(keys)
        self.offsets.append(offsets)


def generate_synthetic(params: SyntheticParams, seed: int) -> Corpus:
    """Generate a labeled corpus; byte-identical output for a fixed seed.

    The news items are drawn a block at a time: :func:`_walk` lays out
    their posts in the word stream and :func:`_read_posts` reads all their
    hashtags and times at once.  A news item whose layout the walk cannot
    know in advance, because one of its draws redraws or one pool holds a
    single hashtag, is drawn by the scalar draws (:func:`_draw_scalar`);
    either way the draws are the same.
    """
    params.validate()
    rng = np.random.default_rng(seed)

    n_fake_pool = int(round(params.hashtags * params.fake_pool_fraction))
    n_true_pool = params.hashtags - n_fake_pool
    names = [f"f{k:04d}" for k in range(n_fake_pool)] + [f"t{k:04d}" for k in range(n_true_pool)]
    # (first key, size) of each pool
    pools = {FAKE: (0, n_fake_pool), TRUE: (n_fake_pool, n_true_pool)}

    labels = [FAKE] * int(round(params.news * params.fake_ratio))
    labels += [TRUE] * (params.news - len(labels))
    labels = rng.permutation(labels)
    draws = _Draws(rng)

    cols = _Columns()
    # an index into a one-hashtag pool takes no half, so where a post's
    # draws lie depends on its pool tests: no post can be laid out ahead
    walk = min(n_fake_pool, n_true_pool) > 1
    start = 0
    while start < params.news:
        stop = min(start + _BLOCK_NEWS, params.news)
        if walk:
            start = _draw_block(draws, params, pools, labels, start, stop, cols)
        else:
            _draw_scalar(draws, params, pools, labels[start:stop], cols)
            start = stop
    ids = [f"n{i:05d}" for i in range(params.news)]
    published = _START_MICROS + _hour_micros(params.publish_step_hours * np.arange(params.news))
    labels = labels.tolist()
    suffixes = [f"-p{j:03d}" for j in range(params.posts_per_news[1])]
    id_text, id_lengths = _post_ids(ids, np.concatenate(cols.post_count), suffixes)

    if params.chain_depth > 0:
        published = np.concatenate([published, _build_chains(params, draws, cols, labels, len(names))])
        prefixes = (CHAIN_NEWS_PREFIX, CARRIER_NEWS_PREFIX)
        chain_ids = [f"{prefix}{c:03d}" for c in range(params.chains) for prefix in prefixes]
        ids += chain_ids
        labels += [TRUE, 0] * params.chains
        suffixes = [f"-p{j}" for j in range(max(2, params.chain_depth))]
        text, lengths = _post_ids(chain_ids, np.tile([2, params.chain_depth], params.chains), suffixes)
        id_text, id_lengths = id_text + text, np.concatenate([id_lengths, lengths])
        names += [
            f"chain{c:03d}-tag" if t == 0 else f"chain{c:03d}-b{t - 1}"
            for c in range(params.chains)
            for t in range(params.chain_depth)
        ]

    post_count, tag_count = np.concatenate(cols.post_count), np.concatenate(cols.tag_count)
    # before the hashtag columns exist, so that its temporaries do not add to them at the peak
    created = np.repeat(published, post_count) + _hour_micros(np.concatenate(cols.offsets))
    keys = np.concatenate(cols.keys).astype(np.int64, copy=False)
    post = np.repeat(np.arange(len(tag_count)), tag_count)
    first = _first_per_group(post, keys, len(names))
    order, tag = _first_appearance(keys[first], len(names))
    return _from_columns(
        ids=ids,
        labels=labels,
        published=published,
        post_count=post_count,
        post_ids=_Strings.from_lengths(id_text, id_lengths),
        created=created,
        post=post[first],
        tag=tag,
        vocabulary=[names[k] for k in order.tolist()],
    )


def _post_ids(ids: list[str], post_count: np.ndarray, suffixes: list[str]) -> tuple[str, np.ndarray]:
    """The text and lengths of the post ids ``news_id + suffixes[j]`` for
    each news item and each ``j`` below its post count."""
    pieces = ["", *suffixes]  # news_id.join(pieces[:n + 1]) puts the id before each of n suffixes
    text = "".join([news_id.join(pieces[: n + 1]) for news_id, n in zip(ids, post_count.tolist())])
    j = np.arange(post_count.sum()) - np.repeat(np.cumsum(post_count) - post_count, post_count)
    return text, np.repeat(_lengths(ids), post_count) + _lengths(suffixes)[j]


def _draw_scalar(draws: _Draws, params: SyntheticParams, pools: dict, labels: np.ndarray, cols: _Columns) -> None:
    """Draw news items of the given labels one scalar draw at a time from
    the draw source's place, and append them to ``cols``."""
    post_lo, post_hi = params.posts_per_news
    tag_lo, tag_hi = params.hashtags_per_post
    purity, window = params.purity, float(params.post_window_hours)
    integers, random, uniform = draws.integers, draws.random, draws.uniform
    post_count, tag_count, keys, offsets = [], [], [], []
    add_count, add_key, add_offset = tag_count.append, keys.append, offsets.append
    for label in labels.tolist():
        (own, n_own), (other, n_other) = pools[label], pools[-label]
        n_posts = integers(post_lo, post_hi + 1)
        post_count.append(n_posts)
        for _ in range(n_posts):
            n_tags = integers(tag_lo, tag_hi + 1)
            add_count(n_tags)
            for _ in range(n_tags):
                if random() < purity:
                    add_key(own + integers(0, n_own))
                else:
                    add_key(other + integers(0, n_other))
            add_offset(uniform(window))
    cols.add(
        np.array(post_count, dtype=np.int64),
        np.array(tag_count, dtype=np.int64),
        np.array(keys, dtype=np.int64),
        np.array(offsets, dtype=np.float64),
    )


def _draw_block(
    draws: _Draws, params: SyntheticParams, pools: dict, labels: np.ndarray, start: int, stop: int, cols: _Columns
) -> int:
    """Draw news ``start`` to ``stop - 1`` from the draw source's place as
    arrays, up to the first whose draws do not follow the walk's layout,
    which is drawn by :func:`_draw_scalar`; append them to ``cols`` and
    return the index of the next news item to draw."""
    news_place, post_count, post_pos, post_half, tag_count, place = _walk(draws, params, start, stop)
    post_count, tag_count = np.array(post_count, dtype=np.int64), np.array(tag_count, dtype=np.int64)
    post_pos, post_half = np.array(post_pos, dtype=np.int64), np.array(post_half, dtype=np.int64)
    fake = np.repeat(labels[start : start + len(post_count)] == FAKE, post_count)
    keys, offsets, redrawn = _read_posts(draws.words, post_pos, post_half, tag_count, fake, params, pools)
    laid = len(post_count)
    if redrawn >= 0:  # keep the news items before the one holding that post
        laid = int(np.searchsorted(np.cumsum(post_count), redrawn, side="right"))
        posts = int(post_count[:laid].sum())
        tags = int(tag_count[:posts].sum())
        post_count, tag_count, keys, offsets = post_count[:laid], tag_count[:posts], keys[:tags], offsets[:posts]
    cols.add(post_count, tag_count, keys, offsets)
    if start + laid == stop:
        draws.pos, draws.half = place
        return stop
    draws.pos, draws.half = news_place[laid]
    _draw_scalar(draws, params, pools, labels[start + laid : start + laid + 1], cols)
    return start + laid + 1


def _walk(draws: _Draws, params: SyntheticParams, start: int, stop: int):
    """Lay out news ``start`` to ``stop - 1`` in the word stream from the
    draw source's place, drawing only their post and hashtag counts.

    After its hashtag count, a post draws a pool test (a word) and a pool
    index (a half) per hashtag, then its time (a word).  With two pools of
    more than one hashtag and no redraw, a post of ``n`` hashtags whose
    first index finds no buffered half takes ``3 * (n // 2)`` words for its
    hashtags, two more when ``n`` is odd, whose last hashtag leaves a half
    buffered.  The walk reads each count and moves past the rest of its
    post by that arithmetic.

    Returns the place (``pos``, ``half``) each news item starts at and its
    post count; the ``pos`` and ``half`` of each post's place after its
    hashtag count, and that count; and the place after the last news
    item.  A count that redraws ends the walk before the
    news item it belongs to, whose place is then the last one listed.
    """
    post_lo, post_hi = params.posts_per_news
    tag_lo, tag_hi = params.hashtags_per_post
    n_post, n_tag = post_hi - post_lo + 1, tag_hi - tag_lo + 1
    post_reject, tag_reject = (1 << 32) % n_post, (1 << 32) % n_tag
    news_words = 1 + post_hi * (2 * tag_hi + 2)  # at most: every half from a word of its own
    low = _HALF
    pos, half, words = draws.pos, draws.half, draws.words
    item = words.item
    news_place, post_count, post_pos, post_half, tag_count = [], [], [], [], []
    add_pos, add_half, add_count = post_pos.append, post_half.append, tag_count.append
    for _ in range(start, stop):
        if pos + news_words > len(words):
            words = draws.reserve(pos + news_words)
            item = words.item
        news_place.append((pos, half))
        n_posts = post_lo
        if n_post > 1:
            if half < 0:
                m = (item(pos) & low) * n_post
                half, pos = pos, pos + 1
            else:
                m, half = (item(half) >> 32) * n_post, -1
            if m & low < post_reject:
                break
            n_posts += m >> 32
        done = len(tag_count)
        for _ in range(n_posts):
            n_tags = tag_lo
            if n_tag > 1:
                if half < 0:
                    m = (item(pos) & low) * n_tag
                    half, pos = pos, pos + 1
                else:
                    m, half = (item(half) >> 32) * n_tag, -1
                if m & low < tag_reject:
                    break
                n_tags += m >> 32
            add_pos(pos)
            add_half(half)
            add_count(n_tags)
            if half < 0:
                rest = n_tags
            else:  # the first index takes the buffered half
                pos += 1
                rest = n_tags - 1
            pos += 3 * (rest >> 1) + 1  # the pairs of hashtags, and the time
            if rest & 1:
                pos += 2
                half = pos - 2
            else:
                half = -1
        else:
            post_count.append(n_posts)
            continue
        del post_pos[done:], post_half[done:], tag_count[done:]
        break
    return news_place, post_count, post_pos, post_half, tag_count, (pos, half)


def _read_posts(words, pos, half, tag_count, fake, params: SyntheticParams, pools: dict):
    """Read the hashtags and times of posts :func:`_walk` laid out, all at
    once: from each post's place after its hashtag count (``pos`` and
    ``half`` arrays), its ``tag_count`` and whether its news item is fake.

    Returns the pool key of each hashtag and the time offset of each post,
    and the first post with an index draw that redraws (-1 if none), from
    which on the layout does not hold.
    """
    buffered = half >= 0
    post = np.repeat(np.arange(len(tag_count)), tag_count)
    # a hashtag's place among those of its post after the one, if any,
    # that takes the buffered half (-1 for that one)
    j = np.arange(len(post)) - (np.cumsum(tag_count) - tag_count + buffered)[post]
    base = (pos + buffered)[post]
    pair, second = j >> 1, j & 1
    test = words[base + 3 * pair + 2 * second]
    index = words[np.where(j < 0, half[post], base + 3 * pair + 1)]
    index = np.where(second == 1, index >> 32, index & _HALF).astype(np.int64)
    in_fake = ((test >> 11) * _UNIT < params.purity) == fake[post]
    (_, n_fake), (first_true, n_true) = pools[FAKE], pools[TRUE]
    m = index * np.where(in_fake, n_fake, n_true)
    keys = np.where(in_fake, 0, first_true) + (m >> 32)
    redraw = (m & _HALF) < np.where(in_fake, (1 << 32) % n_fake, (1 << 32) % n_true)
    rest = tag_count - buffered
    time = words[pos + buffered + 3 * (rest >> 1) + 2 * (rest & 1)]
    offsets = float(params.post_window_hours) * ((time >> 11) * _UNIT)
    return keys, offsets, (int(post[redraw.argmax()]) if redraw.any() else -1)


def _build_chains(
    params: SyntheticParams, draws: _Draws, cols: _Columns, labels: list[int], first_key: int
) -> np.ndarray:
    """Append the posts of designated true news reachable only via bridge
    paths, and return their publish times and their carriers', interleaved.

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
    post_count, tag_count = np.concatenate(cols.post_count), np.concatenate(cols.tag_count)
    label_of_key = np.repeat(np.repeat(labels, post_count), tag_count)
    anchors = _first_appearance(np.concatenate(cols.keys)[label_of_key == TRUE], first_key)[0].tolist()
    if not anchors:
        raise ValueError("chain construction needs at least one true news with hashtags")

    depth, window = params.chain_depth, float(params.post_window_hours)
    keys, offsets = [], []
    for c in range(params.chains):
        private = first_key + c * depth
        path = list(range(private, private + depth)) + [anchors[draws.integers(0, len(anchors))]]
        offsets += [draws.uniform(window) for _ in range(2 + depth)]
        keys += [private, private]
        for j in range(depth):
            keys += path[j : j + 2]
    cols.add(
        np.tile([2, depth], params.chains),
        np.tile([1, 1] + [2] * depth, params.chains),
        np.array(keys, dtype=np.int64),
        np.array(offsets, dtype=np.float64),
    )

    step = params.publish_step_hours
    designated = _START_MICROS + _hour_micros(step * params.news + 2 * np.arange(params.chains) * step)
    carrier = designated + _hour_micros(step)
    return np.column_stack([designated, carrier]).ravel()


def designated_chain_ids(corpus: Corpus) -> tuple[str, ...]:
    """Ids of the designated chain news present in a synthetic corpus."""
    return tuple(news_id for news_id in corpus.ids if news_id.startswith(CHAIN_NEWS_PREFIX))
