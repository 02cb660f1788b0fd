"""Corpus data model: news items, their posts, and the hashtag vocabulary.

A corpus is an immutable snapshot of how a set of news articles or
statements spread on social media.  Each news item carries an optional
credibility label (-1 fake, +1 true), an optional publish time, and the
posts that shared it; each post carries a set of normalized hashtags.
"""

from __future__ import annotations

import json
import logging
import unicodedata
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

logger = logging.getLogger(__name__)

FAKE = -1
TRUE = 1
VALID_LABELS = (FAKE, TRUE)


class CorpusError(ValueError):
    """Raised for malformed or inconsistent corpus data."""


def normalize_hashtag(raw: str) -> str | None:
    """Normalize a raw hashtag token; return None if nothing remains.

    Pipeline: Unicode compatibility (NFKC) normalization, lowercase
    case-folding, strip surrounding whitespace, strip leading '#'
    characters.  NFKC runs again after case-folding because folding can
    denormalize, and it runs before '#'-stripping so that compatibility
    variants of the number sign (e.g. fullwidth) are stripped too.
    The result is a fixed point: normalizing twice changes nothing.
    """
    s = unicodedata.normalize("NFKC", raw).casefold()
    s = unicodedata.normalize("NFKC", s)
    s = s.strip().lstrip("#").strip()
    return s or None


@dataclass(frozen=True)
class Post:
    """One social-media post spreading a news item."""

    post_id: str
    created_at: datetime | None
    hashtags: tuple[str, ...]  # normalized, deduplicated, input order


@dataclass(frozen=True)
class NewsItem:
    """One news article or statement together with its spreading posts."""

    id: str
    label: int | None  # -1 fake, +1 true, None unknown
    published_at: datetime | None
    posts: tuple[Post, ...]


@dataclass(frozen=True)
class Occurrences:
    """Every (news, post, hashtag) occurrence of a corpus as flat arrays.

    Occurrences are in stream order: news in corpus order, posts in news
    order, hashtags in post order.  The co-occurrence graph, the initial
    credibility, news scores and purity are all reductions over these
    arrays.
    """

    news: np.ndarray  # int64 news row per occurrence
    post: np.ndarray  # int64 position of the post in the corpus-wide post sequence
    tag: np.ndarray  # int64 vocabulary index per occurrence
    n_posts: int
    labels: np.ndarray  # int64 per news row: -1 fake, +1 true, 0 unlabeled
    row: dict[str, int]  # news id -> news row

    @cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """(news, tag) arrays holding each hashtag once per news item,
        in first-appearance order."""
        width = int(self.tag.max(initial=-1)) + 1
        _, first = np.unique(self.news * width + self.tag, return_index=True)
        first.sort()
        return self.news[first], self.tag[first]


@dataclass(frozen=True)
class Corpus:
    """Immutable collection of news items plus the derived vocabulary."""

    news: tuple[NewsItem, ...]
    vocabulary: tuple[str, ...] = field(default=())

    @classmethod
    def from_news(cls, news: Iterable[NewsItem]) -> "Corpus":
        """Build a corpus, deriving the vocabulary in first-appearance order."""
        items = tuple(news)
        seen: dict[str, None] = {}
        ids: set[str] = set()
        for item in items:
            if not item.id:
                raise CorpusError("news id must be nonempty")
            if item.id in ids:
                raise CorpusError(f"duplicate news id {item.id!r}")
            ids.add(item.id)
            if item.label is not None and item.label not in VALID_LABELS:
                raise CorpusError(
                    f"news {item.id!r}: label must be -1, 1, or absent, got {item.label!r}"
                )
            for post in item.posts:
                for h in post.hashtags:
                    seen.setdefault(h)
        return cls(news=items, vocabulary=tuple(seen))

    @cached_property
    def news_by_id(self) -> dict[str, NewsItem]:
        return {item.id: item for item in self.news}

    @cached_property
    def vocab_index(self) -> dict[str, int]:
        return {h: k for k, h in enumerate(self.vocabulary)}

    @cached_property
    def occurrences(self) -> Occurrences:
        """The occurrence table, built on first use."""
        index = self.vocab_index
        posts = [post for item in self.news for post in item.posts]
        post = np.repeat(np.arange(len(posts)), [len(p.hashtags) for p in posts])
        post_news = np.repeat(np.arange(len(self.news)), [len(item.posts) for item in self.news])
        return Occurrences(
            news=post_news[post],
            post=post,
            tag=np.fromiter((index[h] for p in posts for h in p.hashtags), dtype=np.int64),
            n_posts=len(posts),
            labels=np.array([item.label or 0 for item in self.news], dtype=np.int64),
            row={item.id: r for r, item in enumerate(self.news)},
        )

    def labeled_ids(self) -> tuple[str, ...]:
        return tuple(item.id for item in self.news if item.label is not None)

    def __len__(self) -> int:
        return len(self.news)


# ---------------------------------------------------------------------------
# Parsing (JSONL external schema)
# ---------------------------------------------------------------------------

def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC."""
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def format_timestamp(dt: datetime) -> str:
    """Render a UTC timestamp in the canonical form used by writers."""
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse_post(obj: dict, news_id: str, line_no: int) -> Post:
    if not isinstance(obj, dict):
        raise CorpusError(f"line {line_no}: post must be an object")
    post_id = obj.get("post_id")
    if not isinstance(post_id, str) or not post_id:
        raise CorpusError(f"line {line_no}: news {news_id!r}: post_id must be a nonempty string")
    created_raw = obj.get("created_at")
    created_at = None
    if created_raw is not None:
        if not isinstance(created_raw, str):
            raise CorpusError(f"line {line_no}: post {post_id!r}: created_at must be a string or null")
        try:
            created_at = parse_timestamp(created_raw)
        except ValueError as exc:
            raise CorpusError(f"line {line_no}: post {post_id!r}: bad created_at: {exc}") from exc
    raw_tags = obj.get("hashtags", [])
    if not isinstance(raw_tags, list):
        raise CorpusError(f"line {line_no}: post {post_id!r}: hashtags must be a list")
    tags: dict[str, None] = {}
    dropped = 0
    for raw in raw_tags:
        if not isinstance(raw, str):
            raise CorpusError(f"line {line_no}: post {post_id!r}: hashtags must be strings")
        norm = normalize_hashtag(raw)
        if norm is None:
            dropped += 1
            continue
        tags.setdefault(norm)
    if dropped:
        logger.debug("post %r: dropped %d empty hashtag token(s)", post_id, dropped)
    return Post(post_id=post_id, created_at=created_at, hashtags=tuple(tags))


def _parse_record(obj: dict, line_no: int) -> NewsItem:
    if not isinstance(obj, dict):
        raise CorpusError(f"line {line_no}: record must be a JSON object")
    news_id = obj.get("id")
    if not isinstance(news_id, str) or not news_id:
        raise CorpusError(f"line {line_no}: id must be a nonempty string")
    published_raw = obj.get("published_at")
    published_at = None
    if published_raw is not None:
        if not isinstance(published_raw, str):
            raise CorpusError(f"line {line_no}: news {news_id!r}: published_at must be a string or null")
        try:
            published_at = parse_timestamp(published_raw)
        except ValueError as exc:
            raise CorpusError(f"line {line_no}: news {news_id!r}: bad published_at: {exc}") from exc
    posts_raw = obj.get("posts", [])
    if not isinstance(posts_raw, list):
        raise CorpusError(f"line {line_no}: news {news_id!r}: posts must be a list")
    posts = tuple(_parse_post(p, news_id, line_no) for p in posts_raw)
    # parse_corpus has already rejected any label other than -1, 1 or null
    return NewsItem(id=news_id, label=obj.get("label"), published_at=published_at, posts=posts)


def parse_corpus(
    source: Iterable[str] | str | Path,
    *,
    lenient: bool = False,
    clock_skew: timedelta = timedelta(0),
    errors: list[tuple[int, str]] | None = None,
) -> Corpus:
    """Parse a line-delimited JSON corpus stream into a validated Corpus.

    ``source`` may be a path or any iterable of lines.  Malformed records
    are fatal unless ``lenient`` is set, in which case they are skipped and
    reported (appended to ``errors`` when given, and logged).  Duplicate
    news ids and out-of-range labels are always fatal.  Posts created
    earlier than ``published_at - clock_skew`` are warned about, not
    rejected: real streams contain retweet-time anomalies.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return parse_corpus(fh, lenient=lenient, clock_skew=clock_skew, errors=errors)

    items: list[NewsItem] = []
    seen_ids: set[str] = set()
    skew_violations = 0
    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            msg = f"line {line_no}: invalid JSON: {exc.msg}"
            if lenient:
                logger.warning("skipping malformed record: %s", msg)
                if errors is not None:
                    errors.append((line_no, msg))
                continue
            raise CorpusError(msg) from exc
        # Out-of-range labels are always fatal, even in lenient mode: they
        # would silently corrupt training rather than merely lose a record.
        if isinstance(obj, dict):
            label = obj.get("label")
            if label is not None and (
                not isinstance(label, int) or isinstance(label, bool) or label not in VALID_LABELS
            ):
                raise CorpusError(f"line {line_no}: label must be -1, 1, or null, got {label!r}")
        try:
            item = _parse_record(obj, line_no)
        except CorpusError as exc:
            # structurally malformed records are the only skippable kind
            if lenient:
                logger.warning("skipping malformed record: %s", exc)
                if errors is not None:
                    errors.append((line_no, str(exc)))
                continue
            raise
        if item.id in seen_ids:
            raise CorpusError(f"line {line_no}: duplicate news id {item.id!r}")
        seen_ids.add(item.id)
        if item.published_at is not None:
            floor = item.published_at - clock_skew
            for post in item.posts:
                if post.created_at is not None and post.created_at < floor:
                    skew_violations += 1
        items.append(item)
    if skew_violations:
        logger.warning(
            "%d post(s) created before their news publish time (clock skew allowance %s)",
            skew_violations,
            clock_skew,
        )
    return Corpus.from_news(items)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the JSONL external schema (deterministic bytes)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in corpus_to_jsonl(corpus):
            fh.write(line)
            fh.write("\n")


def corpus_to_jsonl(corpus: Corpus) -> Iterator[str]:
    for item in corpus.news:
        record = {
            "id": item.id,
            "label": item.label,
            "published_at": None if item.published_at is None else format_timestamp(item.published_at),
            "posts": [
                {
                    "post_id": post.post_id,
                    "created_at": None if post.created_at is None else format_timestamp(post.created_at),
                    "hashtags": list(post.hashtags),
                }
                for post in item.posts
            ],
        }
        yield json.dumps(record, ensure_ascii=True, separators=(", ", ": "))


# ---------------------------------------------------------------------------
# Time windows and splits
# ---------------------------------------------------------------------------

def filter_by_time(corpus: Corpus, horizon_hours: float) -> Corpus:
    """Keep only posts created within ``horizon_hours`` of publication.

    The horizon is a closed interval: a post exactly at the boundary is
    retained.  News without a publish time is exempt (kept whole) rather
    than dropped; posts without a creation time are dropped under
    filtering.  Both counts are logged.  The vocabulary is recomputed
    from the retained posts.
    """
    if horizon_hours <= 0:
        raise ValueError(f"horizon_hours must be positive, got {horizon_hours}")
    horizon = timedelta(hours=horizon_hours)
    exempt = 0
    dropped_untimed = 0
    filtered: list[NewsItem] = []
    for item in corpus.news:
        if item.published_at is None:
            exempt += 1
            filtered.append(item)
            continue
        cutoff = item.published_at + horizon
        kept = []
        for post in item.posts:
            if post.created_at is None:
                dropped_untimed += 1
            elif post.created_at <= cutoff:
                kept.append(post)
        filtered.append(
            NewsItem(id=item.id, label=item.label, published_at=item.published_at, posts=tuple(kept))
        )
    if exempt:
        logger.info("time filter: %d news without publish time kept whole", exempt)
    if dropped_untimed:
        logger.info("time filter: dropped %d post(s) without creation time", dropped_untimed)
    return Corpus.from_news(filtered)


def split_corpus(
    corpus: Corpus, train_fraction: float, seed: int
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Randomly partition labeled news ids into train and test sides.

    Exactly ``floor(train_fraction * n_labeled)`` ids go to train; the
    rest, plus every unlabeled news item, go to the test/predict side.
    Deterministic for a fixed seed.  Returned ids keep corpus order.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0,1), got {train_fraction}")
    labeled = corpus.labeled_ids()
    if len(labeled) < 2:
        raise CorpusError("split requires at least 2 labeled news items")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(labeled))
    n_train = int(len(labeled) * train_fraction)
    train_set = {labeled[i] for i in order[:n_train]}
    train = tuple(i for i in labeled if i in train_set)
    test = tuple(item.id for item in corpus.news if item.id not in train_set)
    return train, test


def corpus_stats(corpus: Corpus, clock_skew: timedelta = timedelta(0)) -> dict:
    """Descriptive statistics used by the ``validate`` CLI subcommand."""
    n_posts = sum(len(item.posts) for item in corpus.news)
    n_fake = sum(1 for item in corpus.news if item.label == FAKE)
    n_true = sum(1 for item in corpus.news if item.label == TRUE)
    skew = 0
    for item in corpus.news:
        if item.published_at is None:
            continue
        floor = item.published_at - clock_skew
        for post in item.posts:
            if post.created_at is not None and post.created_at < floor:
                skew += 1
    return {
        "news": len(corpus.news),
        "labeled": n_fake + n_true,
        "fake": n_fake,
        "true": n_true,
        "posts": n_posts,
        "distinct_hashtags": len(corpus.vocabulary),
        "clock_skew_violations": skew,
    }
