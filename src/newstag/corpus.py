"""Corpus data model: news items, their posts, and the hashtag vocabulary.

A corpus is an immutable snapshot of how a set of news articles or
statements spread on social media.  Each news item carries an optional
credibility label (-1 fake, +1 true), an optional publish time, and the
posts that shared it; each post carries a set of normalized hashtags.

A :class:`Corpus` is held as flat columns in stream order (news, posts,
and one entry per hashtag occurrence).  A corpus comes only from
:func:`parse_corpus`, which checks and normalizes every record it reads,
from ``newstag.synth.generate_synthetic``, or from :func:`filter_by_time`
cutting another corpus.  ``Corpus.news`` is a read-only view that builds
:class:`NewsItem` and :class:`Post` objects from the columns on demand.
"""

from __future__ import annotations

import json
import logging
import unicodedata
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import cached_property
from itertools import compress, islice
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
    if raw.isascii():
        s = raw.lower()  # what both normalizations and case-folding give on ASCII
    else:
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
    posts: Sequence[Post]  # the corpus's read-only view of this item's posts


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
        first = _first_per_group(self.news, self.tag, int(self.tag.max(initial=-1)) + 1)
        return self.news[first], self.tag[first]


@dataclass(frozen=True, eq=False)
class Corpus:
    """Immutable corpus held as columns: one entry per news row, per post
    (corpus-wide, in stream order) and per hashtag occurrence.

    The per-news labels and post counts, and the per-occurrence rows,
    posts and vocabulary indices, live in ``occurrences``.  Times are
    int64 microseconds since the Unix epoch, ``NO_TIME`` when absent.
    The vocabulary is in first-appearance order.  Corpora compare by
    identity.
    """

    ids: tuple[str, ...]  # news id per row
    published: np.ndarray  # int64 publish time per news row
    post_ids: Sequence[str]  # id per post
    created: np.ndarray  # int64 creation time per post
    vocabulary: tuple[str, ...]
    occurrences: Occurrences

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


def _lengths(strings: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))


def _bounds(lengths: np.ndarray) -> np.ndarray:
    bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    return bounds


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
        self._bounds = _bounds(_lengths(strings))

    @classmethod
    def from_lengths(cls, text: str, lengths: np.ndarray) -> "_Strings":
        """The strings that consecutive ``lengths`` cut ``text`` into."""
        strings = cls.__new__(cls)
        strings._text, strings._bounds = text, _bounds(lengths)
        return strings

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


def _from_columns(
    *, ids, labels, published, post_count, post_ids: _Strings, created, post: np.ndarray, tag, vocabulary
) -> Corpus:
    """A corpus from its columns: ``ids``, ``labels``, ``published`` and
    ``post_count`` per news row, ``post_ids`` and ``created`` per post,
    and the post and vocabulary index of each occurrence."""
    post_count = np.asarray(post_count, dtype=np.int64)
    return Corpus(
        ids=tuple(ids),
        published=np.asarray(published, dtype=np.int64),
        post_ids=post_ids,
        created=np.asarray(created, dtype=np.int64),
        vocabulary=tuple(vocabulary),
        occurrences=Occurrences(
            news=np.repeat(np.arange(len(post_count)), post_count)[post],
            post=post,
            tag=np.asarray(tag, dtype=np.int64),
            n_posts=len(post_ids),
            labels=np.asarray(labels, dtype=np.int64),
            post_count=post_count,
        ),
    )


def _first_per_group(group: np.ndarray, tag: np.ndarray, size: int) -> np.ndarray:
    """Sorted positions of the first occurrence of each ``tag`` (each
    below ``size``) within each ``group``."""
    _, first = np.unique(group * size + tag, return_index=True)
    first.sort()
    return first


def _first_appearance(tag: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``tag`` (each below ``size``) in order of
    first appearance, and ``tag`` renumbered in that order."""
    used, first = np.unique(tag, return_index=True)
    order = used[np.argsort(first)]
    new_index = np.zeros(size, dtype=np.int64)
    new_index[order] = np.arange(len(order))
    return order, new_index[tag]


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


def _datetime(micros: int) -> datetime | None:
    return None if micros == NO_TIME else EPOCH + timedelta(microseconds=micros)


# Nonblank lines read between two runs of the timestamp kernel.  The
# kernel works on whole arrays, and a chunk's lines and raw values are all
# that a parse holds beyond the finished columns.
CHUNK_LINES = 2048

# Per character of a canonical ``YYYY-MM-DDTHH:MM:SSZ`` stamp: the lowest
# code point allowed and how far above it a code point may be
_STAMP = "0000-00-00T00:00:00Z"
_STAMP_LOW = np.frombuffer(_STAMP.encode("ascii"), dtype=np.uint8)
_STAMP_SPAN = np.where(_STAMP_LOW == ord("0"), 9, 0).astype(np.uint8)
_STAMP_DIGITS = np.flatnonzero(_STAMP_SPAN)
# Proleptic Gregorian calendar: per year 0-9999, whether it is a leap year
# and its first day counted from 1970-01-01; per month 1-12, its length
# in a common year and the days before it
_YEARS = np.arange(10000)
_LEAP = (_YEARS % 4 == 0) & ((_YEARS % 100 != 0) | (_YEARS % 400 == 0))
_YEAR_START = np.cumsum(365 + _LEAP) - (365 + _LEAP)
_YEAR_START -= _YEAR_START[1970]
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_MONTH_START = np.concatenate([[0], np.cumsum(_MONTH_DAYS)[:-1]])


def _stamp_micros(stamps: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Time column entries of strings 20 characters long read as
    canonical stamps, and which of them are valid stamps.

    A stamp is valid when its separators are in place, its digits are
    ASCII and its date and time are in range (years 1-9999, seconds
    0-59); only valid stamps get a meaningful entry.
    """
    # a character outside ASCII becomes "?", which is no digit or separator
    text = "".join(stamps).encode("ascii", "replace")
    offset = np.frombuffer(text, dtype=np.uint8).reshape(-1, len(_STAMP)) - _STAMP_LOW  # wraps below
    valid = (offset <= _STAMP_SPAN).all(axis=1)
    digits = np.where(valid[:, None], offset[:, _STAMP_DIGITS], 0).astype(np.int64)
    year = ((digits[:, 0] * 10 + digits[:, 1]) * 10 + digits[:, 2]) * 10 + digits[:, 3]
    month, day, hour, minute, second = (digits[:, 4::2] * 10 + digits[:, 5::2]).T
    leap, month_index = _LEAP[year], np.minimum(month, 12)
    month_days = _MONTH_DAYS[month_index] + (leap & (month == 2))
    valid &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    valid &= (hour <= 23) & (minute <= 59) & (second <= 59)
    days = _YEAR_START[year] + _MONTH_START[month_index] + (leap & (month > 2)) + day - 1
    return (((days * 24 + hour) * 60 + minute) * 60 + second) * 1_000_000, valid


def _read_times(values: list) -> tuple[np.ndarray, np.ndarray]:
    """Time column entries of raw values (strings, or None when absent),
    and which of the values are no timestamp.

    Canonical ``YYYY-MM-DDTHH:MM:SSZ`` stamps are read as one array;
    every other value goes through ``parse_timestamp``.
    """
    raw = np.array(values, dtype=object)
    out = np.full(len(raw), NO_TIME, dtype=np.int64)
    present = raw != None  # noqa: E711 (elementwise)
    strings = np.flatnonzero(present)
    widths = np.fromiter(map(len, raw[strings]), dtype=np.int64, count=len(strings))
    stamped = strings[widths == len(_STAMP)]
    micros, valid = _stamp_micros(raw[stamped])
    out[stamped[valid]] = micros[valid]
    present[stamped[valid]] = False
    bad = np.zeros(len(raw), dtype=bool)
    for i in np.flatnonzero(present).tolist():
        try:
            out[i] = (parse_timestamp(values[i]) - EPOCH) // _MICROSECOND
        except (ValueError, OverflowError):
            bad[i] = True
    return out, bad


class _TokenIds(dict):
    """Raw hashtag token -> id, in first-appearance order.  Looking up a
    token that is not a string raises TypeError."""

    def __missing__(self, token):
        if not isinstance(token, str):
            raise TypeError(f"hashtag token {token!r} is not a string")
        self[token] = n = len(self)
        return n


class _Pending:
    """Raw columns of records whose time values are not converted yet.  A
    record that fails a structural check leaves what it read before it."""

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.labels: list[int] = []  # 0 when unlabeled
        self.published: list[str | None] = []
        self.post_count: list[int] = []
        self.post_ids: list[str] = []
        self.created: list[str | None] = []
        self.tag_count: list[int] = []  # raw tokens per post
        self.tokens: list[int] = []  # raw-token id per token

    def extend(self, other: "_Pending") -> None:
        for name, column in vars(self).items():
            column.extend(getattr(other, name))

    def time_error(self, line_no: int) -> CorpusError | None:
        """The error of the first time value here that is no timestamp."""
        owners = [("news", i, "published_at") for i in self.ids]
        owners += [("post", i, "created_at") for i in self.post_ids]
        for (owner, owner_id, name), value in zip(owners, self.published + self.created):
            if value is not None:
                try:
                    parse_timestamp(value)
                except (ValueError, OverflowError) as exc:
                    return CorpusError(f"line {line_no}: {owner} {owner_id!r}: bad {name}: {exc}")
        return None


def _label(obj, line_no: int) -> int:
    """A decoded record's label, 0 when absent.  Out-of-range labels are
    fatal even in lenient mode: they would silently corrupt training."""
    label = obj.get("label") if isinstance(obj, dict) else None
    if label is not None and (
        not isinstance(label, int) or isinstance(label, bool) or label not in VALID_LABELS
    ):
        raise CorpusError(f"line {line_no}: label must be -1, 1, or null, got {label!r}")
    return label or 0


class _Reader:
    """One parse: each chunk of lines read in one pass and its time values
    converted as arrays, or, when something in the chunk is wrong, read
    again record by record; the token kernel over the whole corpus at
    the end."""

    def __init__(self, lenient: bool, errors: list[tuple[int, str]] | None) -> None:
        self.lenient, self.errors = lenient, errors
        self.skipped = False  # whether a record was skipped (lenient mode only)
        self.token_ids = _TokenIds()
        self.ids: dict[str, None] = {}  # news ids of the records kept so far, in order
        # finished columns, one list, string or array per kept chunk; post
        # ids are joined into one string per chunk, with their lengths
        self.post_text: list[str] = []
        self.post_length: list[np.ndarray] = []
        self.labels: list[np.ndarray] = []
        self.published: list[np.ndarray] = []
        self.post_count: list[np.ndarray] = []
        self.created: list[np.ndarray] = []
        self.tag_count: list[np.ndarray] = []
        self.tokens: list[np.ndarray] = []

    def read(self, lines: list[tuple[int, str | CorpusError]]) -> None:
        """Read a chunk of numbered, stripped, nonblank lines, or the error
        of a line that is not UTF-8.  The fast pass only notices that
        something in it is wrong; the re-read then finds the first error
        in stream order."""
        chunk = _Pending()
        try:
            for line_no, line in lines:
                obj = json.loads(line)
                self.scan(chunk, obj, line_no, _label(obj, line_no))
        except Exception:  # the re-read raises or reports it, or an earlier error
            chunk = None
        if chunk is None or not self.keep(chunk):
            self.reread(lines)

    def reread(self, lines: list[tuple[int, str | CorpusError]]) -> None:
        """Read a chunk one record at a time: skip each malformed record, or
        raise its error; duplicate ids and labels are always fatal."""
        kept, kept_ids = _Pending(), set()
        for line_no, line in lines:
            if isinstance(line, CorpusError):  # the line is not UTF-8
                self.skip(line_no, line)
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep to decode
                self.skip(line_no, CorpusError(f"line {line_no}: invalid JSON: {getattr(exc, 'msg', exc)}"))
                continue
            label = _label(obj, line_no)
            record, failure = _Pending(), None
            try:
                self.scan(record, obj, line_no, label)
            except CorpusError as exc:
                failure = exc
            # a bad time value read before a structural error comes first
            error = record.time_error(line_no) or failure
            if error is not None:
                self.skip(line_no, error)
                continue
            news_id = record.ids[0]
            if news_id in self.ids or news_id in kept_ids:
                raise CorpusError(f"line {line_no}: duplicate news id {news_id!r}")
            kept_ids.add(news_id)
            kept.extend(record)
        if not self.keep(kept):
            raise AssertionError("records read one by one were refused")

    def scan(self, p: _Pending, obj, line_no: int, label: int) -> None:
        """Check one record's structure and append its raw values to ``p``."""
        if not isinstance(obj, dict):
            raise CorpusError(f"line {line_no}: record must be a JSON object")
        news_id = obj.get("id")
        if not isinstance(news_id, str) or not news_id:
            raise CorpusError(f"line {line_no}: id must be a nonempty string")
        published = obj.get("published_at")
        if published is not None and not isinstance(published, str):
            raise CorpusError(f"line {line_no}: news {news_id!r}: published_at must be a string or null")
        p.ids.append(news_id)
        p.labels.append(label)
        p.published.append(published)
        posts = obj.get("posts", [])
        if not isinstance(posts, list):
            raise CorpusError(f"line {line_no}: news {news_id!r}: posts must be a list")
        token_id = self.token_ids.__getitem__
        add_post_id, add_created = p.post_ids.append, p.created.append
        add_count, add_tokens = p.tag_count.append, p.tokens.extend
        for post in posts:
            if not isinstance(post, dict):
                raise CorpusError(f"line {line_no}: post must be an object")
            post_id = post.get("post_id")
            if not isinstance(post_id, str) or not post_id:
                raise CorpusError(f"line {line_no}: news {news_id!r}: post_id must be a nonempty string")
            created = post.get("created_at")
            if created is not None and not isinstance(created, str):
                raise CorpusError(f"line {line_no}: post {post_id!r}: created_at must be a string or null")
            add_post_id(post_id)
            add_created(created)
            raw_tags = post.get("hashtags", [])
            if not isinstance(raw_tags, list):
                raise CorpusError(f"line {line_no}: post {post_id!r}: hashtags must be a list")
            try:
                add_tokens(map(token_id, raw_tags))
            except TypeError:
                raise CorpusError(f"line {line_no}: post {post_id!r}: hashtags must be strings") from None
            add_count(len(raw_tags))
        p.post_count.append(len(posts))

    def skip(self, line_no: int, error: CorpusError) -> None:
        """Raise ``error``, or in lenient mode report the record it skips."""
        if not self.lenient:
            raise error
        logger.warning("skipping malformed record: %s", error)
        if self.errors is not None:
            self.errors.append((line_no, str(error)))
        self.skipped = True

    def keep(self, p: _Pending) -> bool:
        """Run the timestamp kernel over a chunk and append it to the
        finished columns, unless one of its time values is bad or one of
        its ids repeats or was kept before; return whether it was kept."""
        times, bad = _read_times(p.published + p.created)
        ids = dict.fromkeys(p.ids)
        if bad.any() or len(ids) < len(p.ids) or not self.ids.keys().isdisjoint(ids):
            return False
        self.ids.update(ids)
        self.post_text.append("".join(p.post_ids))
        self.post_length.append(_lengths(p.post_ids))
        self.labels.append(np.array(p.labels, dtype=np.int64))
        self.published.append(times[: len(p.ids)])
        self.post_count.append(np.array(p.post_count, dtype=np.int64))
        self.created.append(times[len(p.ids) :])
        self.tag_count.append(np.array(p.tag_count, dtype=np.int64))
        self.tokens.append(np.array(p.tokens, dtype=np.int64))
        return True

    def finish(self) -> Corpus:
        """Normalize each distinct raw token once, drop empty ones and
        de-duplicate hashtags within each post."""
        self.keep(_Pending())  # so that every column has a chunk, even with no records
        post_ids = _Strings.from_lengths("".join(self.post_text), np.concatenate(self.post_length))
        tag_count = np.concatenate(self.tag_count)
        post = np.repeat(np.arange(len(tag_count)), tag_count)
        # normalized hashtag -> its index in raw-token order, which is its
        # order of first appearance unless a skipped record's tokens were read
        names: dict[str, int] = {}
        keys = [
            -1 if name is None else names.setdefault(name, len(names))
            for name in map(normalize_hashtag, self.token_ids)
        ]
        tag = np.array(keys, dtype=np.int64)[np.concatenate(self.tokens)]
        empty = tag < 0
        if logger.isEnabledFor(logging.DEBUG):
            dropped = np.bincount(post[empty], minlength=len(tag_count))
            for p in np.flatnonzero(dropped).tolist():
                logger.debug("post %r: dropped %d empty hashtag token(s)", post_ids[p], dropped[p])
        post, tag = post[~empty], tag[~empty]
        # the first occurrence of each hashtag in each post, in stream order
        first = _first_per_group(post, tag, len(names))
        tag, vocabulary = tag[first], list(names)
        if self.skipped:
            order, tag = _first_appearance(tag, len(names))
            vocabulary = [vocabulary[k] for k in order.tolist()]
        return _from_columns(
            ids=self.ids,
            labels=np.concatenate(self.labels),
            published=np.concatenate(self.published),
            post_count=np.concatenate(self.post_count),
            post_ids=post_ids,
            created=np.concatenate(self.created),
            post=post[first],
            tag=tag,
            vocabulary=vocabulary,
        )


def parse_corpus(
    source: Iterable[str] | str | Path,
    *,
    lenient: bool = False,
    clock_skew: timedelta = timedelta(0),
    errors: list[tuple[int, str]] | None = None,
) -> Corpus:
    """Parse a line-delimited JSON corpus stream into a validated Corpus.

    ``source`` may be a path or any iterable of lines.  A file is read as
    UTF-8, line by line: a line that is not UTF-8 is a malformed record.
    Malformed records are fatal unless ``lenient`` is set, in which case
    they are skipped and reported (appended to ``errors`` when given, and
    logged).  Duplicate news ids and out-of-range labels are always
    fatal.  Posts created earlier than ``published_at - clock_skew`` are
    warned about, not rejected: real streams contain retweet-time
    anomalies.  A negative ``clock_skew`` raises ValueError.

    Lines are read ``CHUNK_LINES`` nonblank lines at a time.  Each line
    of a chunk gets one structural pass that keeps its raw values, then
    the chunk's time values are converted as arrays; a chunk in which
    anything is wrong is read again one record at a time.  At the end
    each distinct raw hashtag token is normalized once.  The first error
    in stream order is the one raised or reported first.
    """
    _check_clock_skew(clock_skew)
    reader = _Reader(lenient, errors)
    opened = isinstance(source, (str, Path))
    with open(source, "r", encoding="utf-8", errors="surrogateescape") if opened else nullcontext(source) as lines:
        numbered = _numbered(lines, check_utf8=opened)
        while chunk := list(islice(numbered, CHUNK_LINES)):
            reader.read(chunk)
    corpus = reader.finish()
    skew_violations = _skew_violations(corpus, clock_skew)
    if skew_violations:
        logger.warning(
            "%d post(s) created before their news publish time (clock skew allowance %s)",
            skew_violations,
            clock_skew,
        )
    return corpus


def _utf8_error(line: str) -> str | None:
    """Why the bytes ``line`` was read from with ``errors="surrogateescape"``
    are not UTF-8, or None when they are."""
    if not line.isascii():
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            return f"invalid UTF-8: {exc}"
    return None


def _numbered(lines: Iterable[str], check_utf8: bool) -> Iterator[tuple[int, str | CorpusError]]:
    """Each nonblank line, stripped, with its number counted from 1; with
    ``check_utf8``, the error of a line that is not UTF-8 in its place."""
    for line_no, line in enumerate(lines, start=1):
        if text := line.strip():
            error = check_utf8 and _utf8_error(line)
            yield line_no, CorpusError(f"line {line_no}: {error}") if error else text


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


_LABEL_TEXT = {FAKE: "-1", TRUE: "1", 0: "null"}


def corpus_to_jsonl(corpus: Corpus) -> Iterator[str]:
    """One JSON line per news item: the text ``json.dumps`` gives the
    record with ``separators=(", ", ": ")`` and ASCII escapes, assembled
    from strings each escaped once, ``CHUNK_LINES`` news rows at a time."""
    quote = json.encoder.encode_basestring_ascii
    names = list(map(quote, corpus.vocabulary))
    occ = corpus.occurrences
    post_start = _bounds(occ.post_count)
    tag_start = _bounds(np.bincount(occ.post, minlength=occ.n_posts))
    news_ids, post_ids = map(quote, corpus.ids), map(quote, corpus.post_ids)
    for a in range(0, len(corpus), CHUNK_LINES):
        b = min(a + CHUNK_LINES, len(corpus))
        first, last = post_start[a], post_start[b]
        t0, t1 = tag_start[first], tag_start[last]
        hashtags = [names[t] for t in occ.tag[t0:t1].tolist()]
        tags = (tag_start[first : last + 1] - t0).tolist()
        posts = [
            f'{{"post_id": {post_id}, "created_at": {created}, "hashtags": [{", ".join(hashtags[i:j])}]}}'
            for post_id, created, i, j in zip(
                islice(post_ids, last - first), _stamps(corpus.created[first:last]), tags, tags[1:]
            )
        ]
        rows = (post_start[a : b + 1] - first).tolist()
        labels = [_LABEL_TEXT[label] for label in occ.labels[a:b].tolist()]
        for news_id, label, published, i, j in zip(
            islice(news_ids, b - a), labels, _stamps(corpus.published[a:b]), rows, rows[1:]
        ):
            yield f'{{"id": {news_id}, "label": {label}, "published_at": {published}, "posts": [{", ".join(posts[i:j])}]}}'


def _stamps(times: np.ndarray) -> list[str]:
    """Each time column entry as a JSON string holding its canonical
    ``YYYY-MM-DDTHH:MM:SSZ`` stamp (a four-digit year, floored to the
    second), ``null`` when absent."""
    missing = times == NO_TIME
    seconds = np.where(missing, 0, times // 1_000_000).astype("M8[s]")  # floored to the second
    text = np.datetime_as_string(seconds, unit="s").tolist()
    return ["null" if absent else f'"{stamp}Z"' for stamp, absent in zip(text, missing.tolist())]


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
    order, tag = _first_appearance(occ.tag[kept], len(corpus.vocabulary))
    post_news = np.repeat(np.arange(len(corpus)), occ.post_count)
    return _from_columns(
        ids=corpus.ids,
        labels=occ.labels,
        published=corpus.published,
        post_count=np.bincount(post_news[keep], minlength=len(corpus)),
        post_ids=_Strings(list(compress(corpus.post_ids, keep.tolist()))),
        created=corpus.created[keep],
        post=(np.cumsum(keep) - 1)[occ.post[kept]],
        tag=tag,
        vocabulary=[corpus.vocabulary[k] for k in order.tolist()],
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
    test = np.ones(len(labels), dtype=bool)
    test[train] = False
    return train, np.flatnonzero(test)


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
