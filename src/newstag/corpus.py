"""Corpus data model: news items, their posts, and the hashtag vocabulary.

A corpus is an immutable snapshot of how a set of news articles or
statements spread on social media.  Each news item carries an optional
credibility label (-1 fake, +1 true), an optional publish time, and the
posts that shared it; each post carries a set of normalized hashtags.

A :class:`Corpus` is held as flat columns in stream order (news, posts,
and one entry per hashtag occurrence), which :func:`parse_corpus` fills
while it reads.  ``Corpus.news`` is a read-only view that builds
:class:`NewsItem` and :class:`Post` objects from the columns on demand.
"""

from __future__ import annotations

import json
import logging
import unicodedata
from collections.abc import Collection, Sequence
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

logger = logging.getLogger(__name__)

FAKE = -1
TRUE = 1
VALID_LABELS = (FAKE, TRUE)

# Time columns hold whole microseconds since the Unix epoch (UTC), the
# resolution of ``datetime``; NO_TIME marks a missing timestamp.
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
NO_TIME = np.iinfo(np.int64).min
_MICROSECOND = timedelta(microseconds=1)
# Longest time span, in hours, a ``timedelta`` holds: whole days up to
# ``timedelta.max``.  Hour-valued parameters (horizons, clock skew,
# synthetic time steps) are bounded by it.
MAX_SPAN_HOURS = timedelta.max.days * 24
# Larger than the gap between any two datetimes (years 1-9999) in
# microseconds, and still an int64: longer spans are clamped to it.
_MAX_GAP = 2**62


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
    posts: Sequence[Post]  # a tuple, or a corpus's read-only view of its posts


@dataclass(frozen=True)
class Occurrences:
    """Every (news, post, hashtag) occurrence of a corpus as flat arrays.

    Occurrences are in stream order: news in corpus order, posts in news
    order, hashtags in post order.  The co-occurrence graph, the initial
    credibility, news scores and purity are all reductions over these
    arrays.  A news row is the item's position in the corpus; the
    experiment path addresses news by row, and splits draw from
    ``labels``.
    """

    news: np.ndarray  # int64 news row per occurrence
    post: np.ndarray  # int64 position of the post in the corpus-wide post sequence
    tag: np.ndarray  # int64 vocabulary index per occurrence
    n_posts: int
    labels: np.ndarray  # int64 per news row: -1 fake, +1 true, 0 unlabeled
    post_count: np.ndarray  # int64 number of posts per news row

    @cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """(news, tag) arrays holding each hashtag once per news item,
        in first-appearance order."""
        width = int(self.tag.max(initial=-1)) + 1
        _, first = np.unique(self.news * width + self.tag, return_index=True)
        first.sort()
        return self.news[first], self.tag[first]


@dataclass(frozen=True, eq=False)
class Corpus:
    """Immutable corpus held as columns: one entry per news row, per post
    (corpus-wide, in stream order) and per hashtag occurrence.

    The per-news labels and post counts, and the per-occurrence rows,
    posts and vocabulary indices, live in ``occurrences``.  Times are
    int64 microseconds since the Unix epoch, ``NO_TIME`` when absent.
    The vocabulary is in first-appearance order.  Two corpora are equal
    when their news items are.
    """

    ids: tuple[str, ...]  # news id per row
    published: np.ndarray  # int64 publish time per news row
    post_ids: Sequence[str]  # id per post
    created: np.ndarray  # int64 creation time per post
    vocabulary: tuple[str, ...]
    occurrences: Occurrences

    @classmethod
    def from_news(cls, news: Iterable[NewsItem]) -> "Corpus":
        """Build a corpus from news objects, deriving the vocabulary in
        first-appearance order.  Post hashtags are taken as given."""
        builder = CorpusBuilder()
        ids: set[str] = set()
        for item in news:
            if not item.id:
                raise CorpusError("news id must be nonempty")
            if item.id in ids:
                raise CorpusError(f"duplicate news id {item.id!r}")
            ids.add(item.id)
            if item.label is not None and item.label not in VALID_LABELS:
                raise CorpusError(
                    f"news {item.id!r}: label must be -1, 1, or absent, got {item.label!r}"
                )
            builder.add(
                item.id,
                item.label,
                item.published_at,
                [(post.post_id, post.created_at, post.hashtags) for post in item.posts],
            )
        return builder.build()

    @property
    def news(self) -> Sequence[NewsItem]:
        """The news items, built from the columns as they are read."""
        return _NewsView(self, 0, len(self.ids))

    @cached_property
    def vocab_index(self) -> dict[str, int]:
        return {h: k for k, h in enumerate(self.vocabulary)}

    @cached_property
    def _post_start(self) -> list[int]:
        """First post of each news row, and the post count at the end."""
        return [0, *np.cumsum(self.occurrences.post_count).tolist()]

    @cached_property
    def _tag_start(self) -> list[int]:
        """First occurrence of each post, and the occurrence count at the end."""
        occ = self.occurrences
        return [0, *np.cumsum(np.bincount(occ.post, minlength=occ.n_posts)).tolist()]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.vocabulary == other.vocabulary and self.news == other.news

    __hash__ = None

    def __len__(self) -> int:
        return len(self.ids)


class _RowsView(Sequence):
    """Read-only sequence over rows ``start:stop`` of a corpus column,
    building each element on access.  Equal to a tuple or view holding
    equal elements."""

    __slots__ = ("_corpus", "_start", "_stop")

    def __init__(self, corpus: Corpus, start: int, stop: int) -> None:
        self._corpus, self._start, self._stop = corpus, start, stop

    def _build(self, row: int):
        raise NotImplementedError

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, index):
        rows = range(self._start, self._stop)[index]
        return tuple(map(self._build, rows)) if isinstance(rows, range) else self._build(rows)

    def __iter__(self):
        return map(self._build, range(self._start, self._stop))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _RowsView)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class _NewsView(_RowsView):
    __slots__ = ()

    def _build(self, row: int) -> NewsItem:
        corpus = self._corpus
        start = corpus._post_start
        return NewsItem(
            id=corpus.ids[row],
            label=int(corpus.occurrences.labels[row]) or None,
            published_at=_datetime(int(corpus.published[row])),
            posts=_PostsView(corpus, start[row], start[row + 1]),
        )


class _PostsView(_RowsView):
    __slots__ = ()

    def _build(self, p: int) -> Post:
        corpus = self._corpus
        start = corpus._tag_start
        return Post(
            post_id=corpus.post_ids[p],
            created_at=_datetime(int(corpus.created[p])),
            hashtags=tuple(corpus.vocabulary[t] for t in corpus.occurrences.tag[start[p] : start[p + 1]].tolist()),
        )


class _Strings(Sequence):
    """Read-only sequence of strings held as one concatenated string and
    the boundaries between them.

    A column of many short strings then costs two objects, not one per
    string; ids left one by one in the heap a parse has freed would pin
    its memory pages for as long as the corpus lives.
    """

    __slots__ = ("_text", "_bounds")

    def __init__(self, strings: Sequence[str]) -> None:
        self._text = "".join(strings)
        self._bounds = np.zeros(len(strings) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, strings), dtype=np.int64, count=len(strings)), out=self._bounds[1:])

    def __len__(self) -> int:
        return len(self._bounds) - 1

    def __getitem__(self, index):
        rows = range(len(self))[index]
        if isinstance(rows, range):
            return tuple(self[row] for row in rows)
        return self._text[self._bounds[rows] : self._bounds[rows + 1]]

    def __iter__(self) -> Iterator[str]:
        text, bounds = self._text, self._bounds.tolist()
        return (text[a:b] for a, b in zip(bounds, bounds[1:]))


class CorpusBuilder:
    """Columns of a corpus under construction, appended in stream order.

    ``parse_corpus`` appends to the lists directly; other producers call
    :meth:`add`.  :meth:`build` freezes the lists into a :class:`Corpus`.
    """

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.labels: list[int] = []  # 0 when unlabeled
        self.published: list[int] = []
        self.post_count: list[int] = []
        self.post_ids: list[str] = []
        self.created: list[int] = []
        self.tag_count: list[int] = []  # occurrences per post
        self.tags: list[int] = []  # vocabulary index per occurrence
        self.vocab: dict[str, int] = {}

    def add(
        self,
        news_id: str,
        label: int | None,
        published_at: datetime | None,
        posts: Iterable[tuple[str, datetime | None, Collection[str]]],
    ) -> None:
        """Append one news item; ``posts`` holds (post id, creation time,
        normalized hashtags) triples."""
        vocab = self.vocab
        n_posts = 0
        for post_id, created_at, hashtags in posts:
            try:
                tags = list(map(vocab.__getitem__, hashtags))
            except KeyError:
                tags = [vocab.setdefault(h, len(vocab)) for h in hashtags]
            self.post_ids.append(post_id)
            self.created.append(_micros(created_at))
            self.tag_count.append(len(tags))
            self.tags.extend(tags)
            n_posts += 1
        self.ids.append(news_id)
        self.labels.append(label or 0)
        self.published.append(_micros(published_at))
        self.post_count.append(n_posts)

    def build(self) -> Corpus:
        tag_count = np.array(self.tag_count, dtype=np.int64)
        post_count = np.array(self.post_count, dtype=np.int64)
        post = np.repeat(np.arange(len(tag_count)), tag_count)
        return Corpus(
            ids=tuple(self.ids),
            published=np.array(self.published, dtype=np.int64),
            post_ids=_Strings(self.post_ids),
            created=np.array(self.created, dtype=np.int64),
            vocabulary=tuple(self.vocab),
            occurrences=Occurrences(
                news=np.repeat(np.arange(len(post_count)), post_count)[post],
                post=post,
                tag=np.array(self.tags, dtype=np.int64),
                n_posts=len(tag_count),
                labels=np.array(self.labels, dtype=np.int64),
                post_count=post_count,
            ),
        )


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


def _micros(dt: datetime | None) -> int:
    """Time column entry of an aware datetime (or None)."""
    return NO_TIME if dt is None else (dt - EPOCH) // _MICROSECOND


def _datetime(micros: int) -> datetime | None:
    return None if micros == NO_TIME else EPOCH + timedelta(microseconds=micros)


def _read_time(raw, line_no: int, owner: str, owner_id: str, name: str) -> int:
    """Time column entry of a record's ``name`` field (not None)."""
    if not isinstance(raw, str):
        raise CorpusError(f"line {line_no}: {owner} {owner_id!r}: {name} must be a string or null")
    if raw[-1:] == "Z":
        # the canonical form, read without parse_timestamp's stripping
        try:
            return (datetime.fromisoformat(raw[:-1] + "+00:00") - EPOCH) // _MICROSECOND
        except ValueError:
            pass
    try:
        return (parse_timestamp(raw) - EPOCH) // _MICROSECOND
    except (ValueError, OverflowError) as exc:
        raise CorpusError(f"line {line_no}: {owner} {owner_id!r}: bad {name}: {exc}") from exc


def _intern_tags(raw_tags: list, line_no: int, post_id: str, tag_of: dict, vocab: dict) -> list[int]:
    """Vocabulary indices of a post's raw tokens, -1 for a token that
    normalizes to nothing; new tokens enter ``tag_of`` and ``vocab``."""
    out = []
    for raw in raw_tags:
        if not isinstance(raw, str):
            raise CorpusError(f"line {line_no}: post {post_id!r}: hashtags must be strings")
        tag = tag_of.get(raw)
        if tag is None:
            name = normalize_hashtag(raw)
            tag = tag_of[raw] = -1 if name is None else vocab.setdefault(name, len(vocab))
        out.append(tag)
    return out


def _read_record(obj, line_no: int, cols: CorpusBuilder, tag_of: dict) -> tuple[str, int, int]:
    """Validate one record and append its posts to ``cols``.

    Returns the news id, its publish time and its post count; the
    caller appends the news columns.  On CorpusError ``cols`` may hold a
    partial record.
    """
    if not isinstance(obj, dict):
        raise CorpusError(f"line {line_no}: record must be a JSON object")
    news_id = obj.get("id")
    if not isinstance(news_id, str) or not news_id:
        raise CorpusError(f"line {line_no}: id must be a nonempty string")
    published = obj.get("published_at")
    if published is not None:
        published = _read_time(published, line_no, "news", news_id, "published_at")
    else:
        published = NO_TIME
    posts = obj.get("posts", [])
    if not isinstance(posts, list):
        raise CorpusError(f"line {line_no}: news {news_id!r}: posts must be a list")
    vocab, lookup = cols.vocab, tag_of.__getitem__
    add_post_id, add_created = cols.post_ids.append, cols.created.append
    add_count, add_tags = cols.tag_count.append, cols.tags.extend
    for post in posts:
        if not isinstance(post, dict):
            raise CorpusError(f"line {line_no}: post must be an object")
        post_id = post.get("post_id")
        if not isinstance(post_id, str) or not post_id:
            raise CorpusError(f"line {line_no}: news {news_id!r}: post_id must be a nonempty string")
        created = post.get("created_at")
        if created is not None:
            created = _read_time(created, line_no, "post", post_id, "created_at")
        else:
            created = NO_TIME
        raw_tags = post.get("hashtags", [])
        if not isinstance(raw_tags, list):
            raise CorpusError(f"line {line_no}: post {post_id!r}: hashtags must be a list")
        try:
            tags = list(map(lookup, raw_tags))
        except (KeyError, TypeError):  # a token not seen yet, or not a string
            tags = _intern_tags(raw_tags, line_no, post_id, tag_of, vocab)
        if -1 in tags:
            kept = [t for t in tags if t >= 0]
            logger.debug("post %r: dropped %d empty hashtag token(s)", post_id, len(tags) - len(kept))
            tags = kept
        if len(tags) > 1 and len(set(tags)) < len(tags):
            tags = list(dict.fromkeys(tags))
        add_post_id(post_id)
        add_created(created)
        add_count(len(tags))
        add_tags(tags)
    return news_id, published, len(posts)


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
    rejected: real streams contain retweet-time anomalies.  A negative
    ``clock_skew`` raises ValueError.

    Records are read straight into the corpus columns; hashtag tokens
    are normalized once per distinct raw token.
    """
    _check_clock_skew(clock_skew)
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return parse_corpus(fh, lenient=lenient, clock_skew=clock_skew, errors=errors)

    cols = CorpusBuilder()
    tag_of: dict[str, int] = {}  # raw token -> vocabulary index, -1 when empty
    seen_ids: set[str] = set()
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
        label = None
        if isinstance(obj, dict):
            label = obj.get("label")
            if label is not None and (
                not isinstance(label, int) or isinstance(label, bool) or label not in VALID_LABELS
            ):
                raise CorpusError(f"line {line_no}: label must be -1, 1, or null, got {label!r}")
        n_posts, n_tags, n_vocab = len(cols.post_ids), len(cols.tags), len(cols.vocab)
        try:
            news_id, published, n_news_posts = _read_record(obj, line_no, cols, tag_of)
        except CorpusError as exc:
            # structurally malformed records are the only skippable kind
            if not lenient:
                raise
            _truncate(cols, tag_of, n_posts, n_tags, n_vocab)
            logger.warning("skipping malformed record: %s", exc)
            if errors is not None:
                errors.append((line_no, str(exc)))
            continue
        if news_id in seen_ids:
            raise CorpusError(f"line {line_no}: duplicate news id {news_id!r}")
        seen_ids.add(news_id)
        cols.ids.append(news_id)
        cols.labels.append(label or 0)
        cols.published.append(published)
        cols.post_count.append(n_news_posts)
    corpus = cols.build()
    skew_violations = _skew_violations(corpus, clock_skew)
    if skew_violations:
        logger.warning(
            "%d post(s) created before their news publish time (clock skew allowance %s)",
            skew_violations,
            clock_skew,
        )
    return corpus


def _truncate(cols: CorpusBuilder, tag_of: dict, n_posts: int, n_tags: int, n_vocab: int) -> None:
    """Drop what a skipped record appended after the given lengths."""
    del cols.post_ids[n_posts:], cols.created[n_posts:], cols.tag_count[n_posts:]
    del cols.tags[n_tags:]
    if len(cols.vocab) > n_vocab:
        while len(cols.vocab) > n_vocab:
            cols.vocab.popitem()
        for raw in [raw for raw, tag in tag_of.items() if tag >= n_vocab]:
            del tag_of[raw]


def _post_published(corpus: Corpus) -> np.ndarray:
    """Publish time of each post's news."""
    return np.repeat(corpus.published, corpus.occurrences.post_count)


def _skew_violations(corpus: Corpus, clock_skew: timedelta) -> int:
    """Posts created earlier than their news's publish time minus ``clock_skew``."""
    published = _post_published(corpus)
    timed = (published != NO_TIME) & (corpus.created != NO_TIME)
    gap = published[timed] - corpus.created[timed]
    return int(np.count_nonzero(gap > min(clock_skew // _MICROSECOND, _MAX_GAP)))


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the JSONL external schema (deterministic bytes)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in corpus_to_jsonl(corpus):
            fh.write(line)
            fh.write("\n")


_ENCODER = json.JSONEncoder(ensure_ascii=True, separators=(", ", ": "))


def corpus_to_jsonl(corpus: Corpus) -> Iterator[str]:
    vocab, post_ids = corpus.vocabulary, list(corpus.post_ids)
    post_start, tag_start = corpus._post_start, corpus._tag_start
    tags = corpus.occurrences.tag.tolist()
    labels = corpus.occurrences.labels.tolist()
    published = _stamps(corpus.published.tolist())
    created = _stamps(corpus.created.tolist())
    for row in range(len(corpus)):
        record = {
            "id": corpus.ids[row],
            "label": labels[row] or None,
            "published_at": published[row],
            "posts": [
                {
                    "post_id": post_ids[p],
                    "created_at": created[p],
                    "hashtags": [vocab[t] for t in tags[tag_start[p] : tag_start[p + 1]]],
                }
                for p in range(post_start[row], post_start[row + 1])
            ],
        }
        yield _ENCODER.encode(record)


_MINUTE_SECOND = [f"{m:02d}:{s:02d}Z" for m in range(60) for s in range(60)]


def _stamps(times: list[int]) -> list[str | None]:
    """``format_timestamp`` of each time column entry (None when absent),
    rendering the date and hour of each distinct hour once."""
    hours: dict[int, str] = {}
    out: list[str | None] = []
    for micros in times:
        if micros == NO_TIME:
            out.append(None)
            continue
        hour, second = divmod(micros // 1_000_000, 3600)
        prefix = hours.get(hour)
        if prefix is None:
            # "YYYY-MM-DDTHH:" as strftime renders it, without "00:00Z"
            prefix = hours[hour] = format_timestamp(EPOCH + timedelta(hours=hour))[:-6]
        out.append(prefix + _MINUTE_SECOND[second])
    return out


# ---------------------------------------------------------------------------
# Time windows and splits
# ---------------------------------------------------------------------------

def filter_by_time(corpus: Corpus, horizon_hours: float) -> Corpus:
    """Keep only posts created within ``horizon_hours`` of publication.

    The horizon is a closed interval: a post exactly at the boundary is
    retained.  News without a publish time is exempt (kept whole) rather
    than dropped; posts without a creation time are dropped under
    filtering.  Both counts are logged.  The vocabulary is recomputed
    from the retained posts, in first-appearance order.  A horizon that
    is not positive, not finite or above ``MAX_SPAN_HOURS`` raises
    ValueError.
    """
    if not 0 < horizon_hours <= MAX_SPAN_HOURS:
        raise ValueError(
            f"horizon_hours must be positive and at most {MAX_SPAN_HOURS} hours, got {horizon_hours}"
        )
    # the window's closed bound, computed once as timedelta rounds it
    horizon = min(timedelta(hours=horizon_hours) // _MICROSECOND, _MAX_GAP)
    published = _post_published(corpus)
    exempt = published == NO_TIME
    timed = corpus.created != NO_TIME
    keep = exempt.copy()
    window = timed & ~exempt
    keep[window] = corpus.created[window] - published[window] <= horizon
    n_exempt = int(np.count_nonzero(corpus.published == NO_TIME))
    if n_exempt:
        logger.info("time filter: %d news without publish time kept whole", n_exempt)
    dropped_untimed = int(np.count_nonzero(~timed & ~exempt))
    if dropped_untimed:
        logger.info("time filter: dropped %d post(s) without creation time", dropped_untimed)
    return _keep_posts(corpus, keep)


def _keep_posts(corpus: Corpus, keep: np.ndarray) -> Corpus:
    """``corpus`` with only the posts ``keep`` marks; every news row stays.

    The vocabulary is re-derived by first appearance among the kept
    occurrences.
    """
    occ = corpus.occurrences
    kept = keep[occ.post]
    tag = occ.tag[kept]
    used, first = np.unique(tag, return_index=True)
    order = used[np.argsort(first)]  # old vocabulary indices, first appearance first
    new_index = np.zeros(len(corpus.vocabulary), dtype=np.int64)
    new_index[order] = np.arange(len(order))
    post_news = np.repeat(np.arange(len(corpus)), occ.post_count)
    return Corpus(
        ids=corpus.ids,
        published=corpus.published,
        post_ids=_Strings(list(compress(corpus.post_ids, keep.tolist()))),
        created=corpus.created[keep],
        vocabulary=tuple(corpus.vocabulary[k] for k in order.tolist()),
        occurrences=Occurrences(
            news=occ.news[kept],
            post=(np.cumsum(keep) - 1)[occ.post[kept]],
            tag=new_index[tag],
            n_posts=int(np.count_nonzero(keep)),
            labels=occ.labels,
            post_count=np.bincount(post_news[keep], minlength=len(corpus)),
        ),
    )


def draw_rows(rows: np.ndarray, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` of ``rows`` drawn by ``default_rng(seed).permutation``, and the rest.

    Both keep the order of ``rows``.
    """
    drawn = np.zeros(len(rows), dtype=bool)
    drawn[np.random.default_rng(seed).permutation(len(rows))[:n]] = True
    return rows[drawn], rows[~drawn]


def split_corpus(corpus: Corpus, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Randomly partition the labeled news rows into train and test sides.

    Exactly ``floor(train_fraction * n_labeled)`` labeled rows go to
    train; the rest, plus every unlabeled row, go to the test/predict
    side.  Deterministic for a fixed seed.  Both sides are sorted int64
    rows of the corpus's occurrence table.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0,1), got {train_fraction}")
    labels = corpus.occurrences.labels
    labeled = np.flatnonzero(labels)
    if len(labeled) < 2:
        raise CorpusError("split requires at least 2 labeled news items")
    train, _ = draw_rows(labeled, int(len(labeled) * train_fraction), seed)
    return train, np.setdiff1d(np.arange(len(labels)), train)


def _check_clock_skew(clock_skew: timedelta) -> None:
    if clock_skew < timedelta(0):
        hours = clock_skew.total_seconds() / 3600
        raise ValueError(f"clock skew allowance must be >= 0 hours, got {hours:g}")


def corpus_stats(corpus: Corpus, clock_skew: timedelta = timedelta(0)) -> dict:
    """Descriptive statistics used by the ``validate`` CLI subcommand."""
    _check_clock_skew(clock_skew)
    labels = corpus.occurrences.labels
    n_fake = int(np.count_nonzero(labels == FAKE))
    n_true = int(np.count_nonzero(labels == TRUE))
    return {
        "news": len(corpus),
        "labeled": n_fake + n_true,
        "fake": n_fake,
        "true": n_true,
        "posts": corpus.occurrences.n_posts,
        "distinct_hashtags": len(corpus.vocabulary),
        "clock_skew_violations": _skew_violations(corpus, clock_skew),
    }
