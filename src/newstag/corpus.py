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

import io
import json
import logging
import os
import pickle
import signal
import stat
import threading
import unicodedata
import warnings
from collections.abc import Callable, Collection, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import cached_property
from itertools import compress, count, islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

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
    credibility and news scores are products with the sparse incidence
    built from these arrays (:attr:`post_incidence`, :meth:`news_incidence`);
    purity is a reduction over them.  A news row is the item's position
    in the corpus; the experiment path addresses news by row, and splits
    draw from ``labels``.
    """

    post: np.ndarray  # int64 position of the post in the corpus-wide post sequence
    tag: np.ndarray  # int64 vocabulary index per occurrence
    n_posts: int
    n_tags: int  # vocabulary size
    labels: np.ndarray  # int64 per news row: -1 fake, +1 true, 0 unlabeled
    post_count: np.ndarray  # int64 number of posts per news row

    @property
    def news(self) -> np.ndarray:
        """int64 news row per occurrence, computed from ``post`` on each access."""
        return np.repeat(np.arange(len(self.post_count)), self.post_count)[self.post]

    @cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """(news, tag) arrays holding each hashtag once per news item,
        in first-appearance order."""
        news = self.news
        first = _first_per_group(news, self.tag, int(self.tag.max(initial=-1)) + 1)
        return news[first], self.tag[first]

    @cached_property
    def post_incidence(self):
        """The post x hashtag incidence ``B`` as CSR: one stored 1.0 per
        occurrence, in stream order (each row in its post's hashtag
        order).  Its ``data`` and ``indices`` are shared with the
        per-post news incidence."""
        return _incidence(self.post, self.n_posts, self.tag, self.n_tags)

    @cached_property
    def _news_incidence(self):
        import scipy.sparse as sp

        B = self.post_incidence
        indptr = B.indptr[np.concatenate(([0], np.cumsum(self.post_count)))]
        return sp.csr_matrix((B.data, B.indices, indptr), shape=(len(self.labels), self.n_tags), copy=False)

    @cached_property
    def _distinct_incidence(self):
        news, tag = self.distinct
        return _incidence(news, len(self.labels), tag, self.n_tags)

    def news_incidence(self, per_post: bool = True):
        """The news x hashtag incidence as CSR, in stream order.

        With ``per_post`` it holds the stored entries of
        :attr:`post_incidence` (the same arrays) with rows grouped by news,
        so a hashtag carried by several posts of one news is stored once
        per post; without it, each hashtag once per news item, in
        first-appearance order.  Summing over a row in stored order is
        the stream-order sum over that news item's occurrences.
        """
        return self._news_incidence if per_post else self._distinct_incidence


def _incidence(row: np.ndarray, rows: int, tag: np.ndarray, q: int):
    """A rows x q CSR matrix holding 1.0 at (row[i], tag[i]) for each i,
    in the given order; ``row`` must be sorted.  scipy is imported here,
    not with the module, so that reading or generating a corpus does
    not load it."""
    import scipy.sparse as sp

    index = np.int32 if max(tag.size, rows, q) < np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(rows + 1, dtype=index)
    np.cumsum(np.bincount(row, minlength=rows), out=indptr[1:])
    return sp.csr_matrix((np.ones(tag.size), tag.astype(index), indptr), shape=(rows, q), copy=False)


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
            post=post,
            tag=np.asarray(tag, dtype=np.int64),
            n_posts=len(post_ids),
            n_tags=len(vocabulary),
            labels=np.asarray(labels, dtype=np.int64),
            post_count=post_count,
        ),
    )


def _first_per_group(group: np.ndarray, tag: np.ndarray, size: int) -> np.ndarray:
    """Sorted positions of the first occurrence of each ``tag`` (each
    below ``size``) within each ``group``."""
    key = group * size + tag
    order = np.argsort(key, kind="stable")  # equal keys stay in position order
    key = key[order]
    repeated = np.zeros(len(key), dtype=bool)
    repeated[order[1:][key[1:] == key[:-1]]] = True
    return np.flatnonzero(~repeated)


def _first_appearance(tag: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``tag`` (each below ``size``) in order of
    first appearance, and ``tag`` renumbered in that order.

    One stable sort groups the positions of each value, the head of each
    run is its first position, and the values at those positions, read
    in position order, are the distinct values.  The sort key is the
    narrowest unsigned type that holds ``size - 1``: NumPy radix-sorts 8-
    and 16-bit keys, so up to 65,536 values sort in linear time.
    """
    key = tag.astype(np.min_scalar_type(max(size - 1, 0)))
    by_value = np.argsort(key, kind="stable")
    key = key[by_value]
    head = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=head[1:])
    first = np.zeros(len(tag), dtype=bool)
    first[by_value[head]] = True
    order = tag[first]
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

# Bytes of a corpus file per byte range, at least: a regular file of two
# or more of them is cut into ranges that forked processes read at once.
PARSE_RANGE_BYTES = 1 << 20

# Most threads or processes one call spreads its work over.
MAX_WORKERS = 8


def worker_count(units: int, affinity: Collection[int] | None = None) -> int:
    """Workers for ``units`` independent pieces of work on the CPU set
    ``affinity``, by default the CPUs this process may run on: one at
    least, and at most the units, the CPUs and ``MAX_WORKERS``.  The
    threads of :func:`run_threads` and the parse's byte ranges both
    follow it."""
    if affinity is None:
        affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return max(1, min(len(affinity), units, MAX_WORKERS))


def run_threads(fn: Callable[[object], object], pieces: Sequence) -> None:
    """Call ``fn(piece)`` for every piece on ``worker_count(len(pieces))``
    threads, the calling thread among them, each taking the next piece
    not yet taken (inline and in order with one worker); every thread
    ends before this returns.  The first error ``fn`` raises stops the
    taking of pieces and is raised here once the running pieces end."""
    pending, lock, errors = iter(pieces), threading.Lock(), []

    def work() -> None:
        while not errors:
            with lock:
                piece = next(pending, pending)  # the iterator itself marks the end
            if piece is pending:
                return
            try:
                fn(piece)
            except BaseException as exc:
                errors.append(exc)

    workers = worker_count(len(pieces))
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        for _ in range(workers - 1):
            pool.submit(work)
        work()
    if errors:
        raise errors[0]


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


def _dates_of_year(leap: int) -> np.ndarray:
    """Month and day of the month of each day of a common or leap year,
    counted from 0: two rows of 366 entries (a common year's last is 0)."""
    lengths = _MONTH_DAYS[1:] + leap * (np.arange(1, 13) == 2)
    month = np.repeat(np.arange(1, 13), lengths)
    day = np.arange(len(month)) - (_MONTH_START[month] + leap * (month > 2)) + 1
    return np.pad(np.stack([month, day]), ((0, 0), (0, 1 - leap)))


# Per day of the year, counted from 0 and plus 366 in a leap year
_MONTH_OF_DAY, _DAY_OF_MONTH = np.concatenate([_dates_of_year(0), _dates_of_year(1)], axis=1)


def _stamp_micros(stamps: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Time column entries of strings 20 characters long read as
    canonical stamps, and which of them are valid stamps.

    A stamp is valid when its separators are in place, its digits are
    ASCII and its date and time are in range (years 1-9999, seconds
    0-59); only valid stamps get a meaningful entry.  The stamps are
    held one row per character position, so that every step runs over
    a contiguous row.
    """
    # a character outside ASCII becomes "?", which is no digit or separator
    text = "".join(stamps).encode("ascii", "replace")
    chars = np.frombuffer(text, dtype=np.uint8).reshape(-1, len(_STAMP))
    offset = np.ascontiguousarray(chars.T) - _STAMP_LOW[:, None]  # wraps below
    valid = (offset <= _STAMP_SPAN[:, None]).all(axis=0)
    # clamped, so that the calendar tables below are indexed in range
    digits = np.minimum(offset[_STAMP_DIGITS], 9).astype(np.int32)
    year = ((digits[0] * 10 + digits[1]) * 10 + digits[2]) * 10 + digits[3]
    month, day, hour, minute, second = digits[4::2] * 10 + digits[5::2]
    leap, month_index = _LEAP[year], np.minimum(month, 12)
    month_days = _MONTH_DAYS[month_index] + (leap & (month == 2))
    valid &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    valid &= (hour <= 23) & (minute <= 59) & (second <= 59)
    days = _YEAR_START[year] + _MONTH_START[month_index] + (leap & (month > 2)) + day - 1
    return (((days * 24 + hour) * 60 + minute) * 60 + second) * 1_000_000, valid


def _read_times(values: list) -> tuple[np.ndarray, np.ndarray]:
    """Time column entries of raw values (strings, or None when absent),
    and which of the values are no timestamp.

    Strings 20 characters long go through the stamp kernel as one
    array; only those it does not read as canonical
    ``YYYY-MM-DDTHH:MM:SSZ`` stamps, and strings of other lengths, go
    through ``parse_timestamp``.
    """
    out = np.full(len(values), NO_TIME, dtype=np.int64)
    bad = np.zeros(len(values), dtype=bool)
    at = np.arange(len(values))  # the place of each string among the values
    if None in values:
        at = np.flatnonzero([value is not None for value in values])
        values = [values[i] for i in at.tolist()]
    stamped = np.fromiter(map(len, values), dtype=np.int64, count=len(values)) == len(_STAMP)
    micros, valid = _stamp_micros(values if stamped.all() else list(compress(values, stamped.tolist())))
    read = np.flatnonzero(stamped)[valid]
    out[at[read]] = micros[valid]
    rest = np.ones(len(values), dtype=bool)
    rest[read] = False
    for i in np.flatnonzero(rest).tolist():
        try:
            out[at[i]] = (parse_timestamp(values[i]) - EPOCH) // _MICROSECOND
        except (ValueError, OverflowError):
            bad[at[i]] = True
    return out, bad


class _TokenIds(dict):
    """Raw hashtag token -> id, in first-appearance order."""

    def __missing__(self, token: str) -> int:
        self[token] = n = len(self)
        return n


class _Pending:
    """Raw columns of records whose time values and tokens are not
    converted yet.  A record that fails a structural check leaves what it
    read before it."""

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.labels: list[int] = []  # 0 when unlabeled
        self.published: list[str | None] = []
        self.post_count: list[int] = []
        self.post_ids: list[str] = []
        self.created: list[str | None] = []
        self.tag_count: list[int] = []  # raw tokens per post
        self.tokens: list[str] = []  # raw tokens, post after post

    def extend(self, other: "_Pending") -> None:
        for name, column in vars(self).items():
            column.extend(getattr(other, name))

    def value_error(self, line_no: int) -> CorpusError | None:
        """For the one record read into this: the error of the first of
        its ids, time values and tokens, in the order they were read, that
        is not valid Unicode or no timestamp.  A column the record's error
        cut short reads as if its last value were absent."""
        tokens = iter(self.tokens)
        owners = [("news", i, "published_at", value, 0) for i, value in zip(self.ids, self.published + [None])]
        owners += [
            ("post", i, "created_at", value, n)
            for i, value, n in zip(self.post_ids, self.created + [None], self.tag_count + [0])
        ]
        for owner, owner_id, name, value, n in owners:
            where = f"line {line_no}: {owner} {owner_id!r}"
            if not _encodable(owner_id):
                return CorpusError(f"{where}: id is not valid Unicode")
            if value is not None:
                try:
                    parse_timestamp(value)
                except (ValueError, OverflowError) as exc:
                    return CorpusError(f"{where}: bad {name}: {exc}")
            for token in islice(tokens, n):
                if not _encodable(token):
                    return CorpusError(f"{where}: hashtag {token!r} is not valid Unicode")
        return None


def _encodable(text: str) -> bool:
    """Whether UTF-8 can encode ``text``: it cannot encode a lone
    surrogate, which a JSON escape such as ``"\\ud800"`` decodes to."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return False
    return True


def _label(obj, line_no: int) -> int:
    """A decoded record's label, 0 when absent.  Out-of-range labels are
    fatal even in lenient mode: they would silently corrupt training."""
    label = obj.get("label") if type(obj) is dict else None
    if label is None:
        return 0
    if type(label) is not int or label not in VALID_LABELS:  # a bool's type is bool
        raise CorpusError(f"line {line_no}: label must be -1, 1, or null, got {label!r}")
    return label


# What the decoder gives for a line: the JSON value that starts at an
# index, and the index just after it
_scan_json = json.JSONDecoder().scan_once
# The value of a missing list field: read as an empty list
_ABSENT = ()


# The finished columns of a reader, besides its ids and raw-token ids
_COLUMNS = ("post_text", "post_length", "labels", "published", "post_count", "created", "tag_count")


class _Part(NamedTuple):
    """What the reader of one byte range hands on: its news ids, its raw
    tokens in first-appearance order, its finished columns (named as in
    ``_COLUMNS``, one list of chunks each), its raw-token id per token
    and chunk, in its own raw-token order, and the number of lines it
    read."""

    ids: list[str]
    raw_tokens: list[str]
    columns: dict[str, list]
    tokens: list[np.ndarray]
    lines: int


class _Refused(Exception):
    """A chunk that only a record-by-record read can settle."""


class _Reader:
    """One parse: each chunk of lines read in one pass and its time values
    converted as arrays, or, when something in the chunk is wrong, read
    again record by record, both passes checking records with ``scan``;
    the token kernel over the whole corpus at the end.  The part a range
    reader in another process read is taken in whole by ``merge``, its
    raw tokens renumbered into this reader's order of first appearance."""

    def __init__(self, lenient: bool, errors: list[tuple[int, str]] | None) -> None:
        self.lenient, self.errors = lenient, errors
        self.token_ids = _TokenIds()  # raw tokens of the records kept so far
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
        in stream order.

        The fast pass decodes each line with the decoder's scanner, which
        ``json.loads`` runs too: a stripped line holds one JSON value when
        the value ends at the end of the line.  Each record then goes
        through ``scan``, and the chunk's values through ``keep``."""
        chunk = _Pending()
        try:
            for line_no, line in lines:
                record, end = _scan_json(line, 0)
                if end < len(line):
                    raise _Refused
                self.scan(chunk, record, line_no, _label(record, line_no))
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
            # a bad value read before a structural error comes first
            error = record.value_error(line_no) or failure
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
        """Check one decoded record's structure and append its raw values
        to ``p``, or raise the error of the first thing in it that is
        wrong.  Its values are checked later, a chunk's by ``keep``, a
        record the re-read reads alone by ``_Pending.value_error``."""
        if type(obj) is not dict:
            raise CorpusError(f"line {line_no}: record must be a JSON object")
        news_id = obj.get("id")
        if type(news_id) is not str or not news_id:
            raise CorpusError(f"line {line_no}: id must be a nonempty string")
        p.ids.append(news_id)
        p.labels.append(label)
        published = obj.get("published_at")
        if published is not None and type(published) is not str:
            raise CorpusError(f"line {line_no}: news {news_id!r}: published_at must be a string or null")
        p.published.append(published)
        posts = obj.get("posts", _ABSENT)
        if type(posts) is not list and posts is not _ABSENT:
            raise CorpusError(f"line {line_no}: news {news_id!r}: posts must be a list")
        add_post_id, add_created, add_count = p.post_ids.append, p.created.append, p.tag_count.append
        tokens = p.tokens
        for post in posts:
            if type(post) is not dict:
                raise CorpusError(f"line {line_no}: post must be an object")
            post_id = post.get("post_id")
            if type(post_id) is not str or not post_id:
                raise CorpusError(f"line {line_no}: news {news_id!r}: post_id must be a nonempty string")
            add_post_id(post_id)
            created = post.get("created_at")
            if created is not None and type(created) is not str:
                raise CorpusError(f"line {line_no}: post {post_id!r}: created_at must be a string or null")
            add_created(created)
            raw_tags = post.get("hashtags", _ABSENT)
            if type(raw_tags) is not list and raw_tags is not _ABSENT:
                raise CorpusError(f"line {line_no}: post {post_id!r}: hashtags must be a list")
            try:
                "".join(raw_tags)
            except TypeError:
                raise CorpusError(f"line {line_no}: post {post_id!r}: hashtags must be strings") from None
            tokens += raw_tags
            add_count(len(raw_tags))
        p.post_count.append(len(posts))

    def skip(self, line_no: int, error: CorpusError) -> None:
        """Raise ``error``, or in lenient mode report the record it skips."""
        if not self.lenient:
            raise error
        logger.warning("skipping malformed record: %s", error)
        if self.errors is not None:
            self.errors.append((line_no, str(error)))

    def keep(self, p: _Pending) -> bool:
        """Append a chunk of records ``scan`` read to the finished columns,
        unless one of its news ids repeats or was kept before, a time value
        is bad, or an id or token is not valid Unicode; return whether it
        was kept.  Its tokens get ids only once nothing else can fail, so
        only the tokens of kept records have ids."""
        ids = dict.fromkeys(p.ids)
        if len(ids) < len(p.ids) or not self.ids.keys().isdisjoint(ids):
            return False
        times, bad = _read_times(p.published + p.created)
        post_text = "".join(p.post_ids)
        if bad.any() or not all(map(_encodable, ("".join(ids), post_text, "".join(p.tokens)))):
            return False
        self.ids.update(ids)
        self.post_text.append(post_text)
        self.post_length.append(_lengths(p.post_ids))
        self.labels.append(np.array(p.labels, dtype=np.int64))
        self.published.append(times[: len(p.ids)])
        self.post_count.append(np.array(p.post_count, dtype=np.int64))
        self.created.append(times[len(p.ids) :])
        self.tag_count.append(np.array(p.tag_count, dtype=np.int64))
        self.tokens.append(np.fromiter(map(self.token_ids.__getitem__, p.tokens), dtype=np.int64, count=len(p.tokens)))
        return True

    def merge(self, part: _Part) -> bool:
        """Append the part another reader read of the stream that follows,
        unless one of its ids was kept before; return whether it was kept."""
        if not self.ids.keys().isdisjoint(part.ids):
            return False
        self.ids.update(dict.fromkeys(part.ids))
        for name, chunks in part.columns.items():
            getattr(self, name).extend(chunks)
        # the part's raw tokens, in its order, get this reader's ids
        raw = part.raw_tokens
        token_id = np.fromiter(map(self.token_ids.__getitem__, raw), dtype=np.int64, count=len(raw))
        self.tokens.extend(token_id[tokens] for tokens in part.tokens)
        return True

    def finish(self) -> Corpus:
        """Normalize each distinct raw token once, drop empty ones and
        de-duplicate hashtags within each post."""
        self.keep(_Pending())  # so that every column has a chunk, even with no records
        post_ids = _Strings.from_lengths("".join(self.post_text), np.concatenate(self.post_length))
        tag_count = np.concatenate(self.tag_count)
        post = np.repeat(np.arange(len(tag_count)), tag_count)
        # normalized hashtag -> its index, in order of first appearance, as
        # only the tokens of kept records have raw-token ids
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
        return _from_columns(
            ids=self.ids,
            labels=np.concatenate(self.labels),
            published=np.concatenate(self.published),
            post_count=np.concatenate(self.post_count),
            post_ids=post_ids,
            created=np.concatenate(self.created),
            post=post[first],
            tag=tag[first],
            vocabulary=names,
        )


class _RangeReader(_Reader):
    """The reader of one byte range in a forked process.  It refuses its
    range at the first chunk that would need a re-read, which the parse
    then reads itself, so errors, reports and warnings come only from
    the parse's own process."""

    def __init__(self) -> None:
        super().__init__(lenient=False, errors=None)

    def reread(self, lines: list[tuple[int, str | CorpusError]]) -> None:
        raise _Refused

    def part(self, lines: int) -> _Part:
        """What this reader read, having read ``lines`` lines."""
        columns = {name: getattr(self, name) for name in _COLUMNS}
        return _Part(list(self.ids), list(self.token_ids), columns, self.tokens, lines)


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
    logged).  An id or hashtag that is not valid Unicode (a JSON escape
    of a lone surrogate) is malformed.  Duplicate news ids and
    out-of-range labels are always fatal.  Posts created earlier than ``published_at - clock_skew`` are
    warned about, not rejected: real streams contain retweet-time
    anomalies.  A negative ``clock_skew`` raises ValueError.

    Lines are read ``CHUNK_LINES`` nonblank lines at a time.  Each line
    of a chunk gets one structural pass that keeps its raw values, then
    the chunk's time values are converted as arrays; a chunk in which
    anything is wrong is read again one record at a time, through the
    same record checker.  Only kept records' tokens enter the
    vocabulary: at the end each distinct raw hashtag token is
    normalized once.  The first error
    in stream order is the one raised or reported first.

    A regular file of at least two ``PARSE_RANGE_BYTES`` is cut into
    ``worker_count`` byte ranges, each ending just after a newline, on a
    host with ``os.fork``.  A forked process reads each range after the
    first while this one reads the first; then each range's columns are
    merged in stream order.  A range whose reader met anything wrong, or
    whose news ids repeat ones kept before, is read again here, with the
    line numbers carried on, so the corpus, the errors and their line
    numbers are those of one streamed read.  Every forked reader is
    ended before this returns or raises.
    """
    _check_clock_skew(clock_skew)
    reader = _Reader(lenient, errors)
    if isinstance(source, (str, Path)):
        _read_file(reader, source)
    else:
        _read_lines(reader, source, check_utf8=False)
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


def _read_lines(reader: _Reader, lines: Iterable[str], check_utf8: bool, first_line: int = 1) -> int:
    """Read ``lines``, numbered from ``first_line``, into ``reader``
    ``CHUNK_LINES`` nonblank lines at a time; return the number the line
    after them would get.  Each chunk holds the stripped nonblank lines
    and, with ``check_utf8``, the error of a line that is not UTF-8 in
    its place."""
    line_nos = count(first_line)

    def numbered() -> Iterator[tuple[int, str | CorpusError]]:
        for line, line_no in zip(lines, line_nos):  # at the end of lines, zip draws no number
            if text := line.strip():
                error = check_utf8 and _utf8_error(line)
                yield line_no, CorpusError(f"line {line_no}: {error}") if error else text

    chunks = numbered()
    while chunk := list(islice(chunks, CHUNK_LINES)):
        reader.read(chunk)
    return next(line_nos)


def _text(stream: io.BufferedIOBase) -> io.TextIOWrapper:
    """The lines of a byte stream as a file opened for reading gives them."""
    return io.TextIOWrapper(stream, encoding="utf-8", errors="surrogateescape")


def _read_file(reader: _Reader, path: str | Path) -> None:
    """Read the file at ``path`` into ``reader``: in byte ranges when
    ``_range_cuts`` makes more than one, else as one stream."""
    with open(path, "rb") as fh:
        cuts = _range_cuts(fh.fileno())
        if len(cuts) > 2:
            _read_ranges(reader, fh.fileno(), cuts)
        else:
            with _text(fh) as lines:
                _read_lines(reader, lines, check_utf8=True)


def _range_cuts(fd: int) -> list[int | None]:
    """The offsets that cut the open file ``fd`` into byte ranges, the
    last range ending at the end of the file (``None``).  Every other
    range ends just after a newline, so each holds whole lines.  A file
    that is not regular, smaller than two ``PARSE_RANGE_BYTES`` or on a
    host without ``os.fork`` is one range, and so is a file whose cuts
    all fall in one line."""
    info = os.fstat(fd)
    if not hasattr(os, "fork") or not stat.S_ISREG(info.st_mode):
        return [0, None]
    size = info.st_size
    ranges = worker_count(size // PARSE_RANGE_BYTES)
    cuts = [0]
    for k in range(1, ranges):
        cut = _line_end(fd, size * k // ranges)
        if cuts[-1] < cut < size:
            cuts.append(cut)
    return [*cuts, None]


def _line_end(fd: int, offset: int) -> int:
    """The offset just after the first newline at or after ``offset`` in
    the file ``fd``, or the end of the file."""
    while block := os.pread(fd, 1 << 16, offset):
        at = block.find(b"\n")
        if at >= 0:
            return offset + at + 1
        offset += len(block)
    return offset


class _ByteRange(io.RawIOBase):
    """Bytes ``start:stop`` (``stop`` None: to the end) of the open file
    ``fd``.  It reads with ``os.pread``, so readers of other ranges, in
    this process or a forked one, share the file descriptor but not a
    file position."""

    def __init__(self, fd: int, start: int, stop: int | None) -> None:
        self._fd, self._at, self._stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = len(buffer) if self._stop is None else min(len(buffer), self._stop - self._at)
        data = os.pread(self._fd, size, self._at)
        buffer[: len(data)] = data
        self._at += len(data)
        return len(data)


def _read_range(reader: _Reader, fd: int, start: int, stop: int | None, first_line: int) -> int:
    """Read bytes ``start:stop`` of the file ``fd`` into ``reader``, their
    lines numbered from ``first_line``; return the number the next line
    would get."""
    with _text(io.BufferedReader(_ByteRange(fd, start, stop), 1 << 16)) as lines:
        return _read_lines(reader, lines, True, first_line)


def _read_ranges(reader: _Reader, fd: int, cuts: list[int | None]) -> None:
    """Read the byte ranges ``cuts`` make of the file ``fd`` into
    ``reader``: each after the first in a forked child, the first here;
    then take in the children's parts in stream order, or read a range
    here when its child refused it, failed, or read ids kept before."""
    ranges = list(zip(cuts, cuts[1:]))
    children: list[_Child] = []
    try:
        for start, stop in ranges[1:]:
            child = _Child.fork(fd, start, stop)
            if child is None:  # no fork: this process reads the rest
                break
            children.append(child)
        line_no = _read_range(reader, fd, *ranges[0], 1)
        for k, (start, stop) in enumerate(ranges[1:]):
            part = children[k].receive() if k < len(children) else None
            if part is not None and reader.merge(part):
                line_no += part.lines
            else:
                line_no = _read_range(reader, fd, start, stop, line_no)
    finally:
        for child in children:
            child.end()


class _Child:
    """A forked process reading one byte range, and the pipe it sends
    its part through."""

    def __init__(self, pid: int, pipe: io.BufferedReader) -> None:
        self.pid: int | None = pid
        self.pipe = pipe

    @classmethod
    def fork(cls, fd: int, start: int, stop: int | None) -> "_Child | None":
        """A child reading bytes ``start:stop`` of the file ``fd``, or None
        when no process can be forked."""
        read_end, write_end = os.pipe()
        try:
            # Python 3.12 and later warn when a process that runs other
            # threads forks (an idle BLAS thread pool is one), after the
            # child exists: the warning is recorded and dropped, so that no
            # warnings filter can turn it into an exception that loses the
            # pid of a running child.  The child is safe: it runs only the
            # JSON decoder, the structural scan and element-wise NumPy, with
            # no BLAS, no threads and no logging, then leaves by os._exit.
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            return None
        if pid == 0:
            _serve(fd, start, stop, read_end, write_end)
        os.close(write_end)
        return cls(pid, open(read_end, "rb"))

    def receive(self) -> _Part | None:
        """The child's part, or None when it refused its range or failed."""
        try:
            part = pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):  # nothing sent, or not all of it
            part = None
        self.pipe.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return part if status == 0 else None

    def end(self) -> None:
        """Kill and reap the child unless it was reaped, and close its pipe."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self.pipe.close()


def _serve(fd: int, start: int, stop: int | None, read_end: int, write_end: int) -> None:
    """In a forked child: read bytes ``start:stop`` of the file ``fd`` and
    send the part through ``write_end``, then leave the process, with
    status 0 only when the whole part was sent."""
    status = 1
    try:
        os.close(read_end)
        reader = _RangeReader()
        lines = _read_range(reader, fd, start, stop, 1) - 1
        with open(write_end, "wb") as pipe:
            pickle.dump(reader.part(lines), pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


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
    """Write a corpus in the JSONL external schema (deterministic bytes),
    one block of ``CHUNK_LINES`` lines per write."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for lines in _jsonl_blocks(corpus):
            lines.append("")
            fh.write("\n".join(lines))


def corpus_to_jsonl(corpus: Corpus) -> Iterator[str]:
    """One JSON line per news item: the text ``json.dumps`` gives the
    record with ``separators=(", ", ": ")`` and ASCII escapes."""
    for lines in _jsonl_blocks(corpus):
        yield from lines


_LABEL_TEXT = {FAKE: "-1", TRUE: "1", 0: "null"}


def _jsonl_blocks(corpus: Corpus) -> Iterator[list[str]]:
    """The lines of :func:`corpus_to_jsonl`, ``CHUNK_LINES`` news rows at
    a time, assembled from strings each escaped once."""
    quote = json.encoder.encode_basestring_ascii
    names = list(map(quote, corpus.vocabulary))
    # each hashtag as it follows another in a post's list, and as it
    # opens one: after a newline, which no ASCII-escaped string holds
    follows = np.array([", " + name for name in names], dtype=object)
    opens = np.array(["\n" + name for name in names], dtype=object)
    occ = corpus.occurrences
    post_start = _bounds(occ.post_count)
    tag_start = _bounds(np.bincount(occ.post, minlength=occ.n_posts))
    news_ids, post_ids = map(quote, corpus.ids), map(quote, corpus.post_ids)
    for a in range(0, len(corpus), CHUNK_LINES):
        b = min(a + CHUNK_LINES, len(corpus))
        first, last = post_start[a], post_start[b]
        tags = tag_start[first : last + 1]
        hashtags = _hashtag_lists(occ.tag[tags[0] : tags[-1]], tags - tags[0], follows, opens)
        posts = [
            f'{{"post_id": {post_id}, "created_at": {created}, "hashtags": [{listed}]}}'
            for post_id, created, listed in zip(
                islice(post_ids, last - first), _stamps(corpus.created[first:last]), hashtags
            )
        ]
        rows = (post_start[a : b + 1] - first).tolist()
        labels = [_LABEL_TEXT[label] for label in occ.labels[a:b].tolist()]
        yield [
            f'{{"id": {news_id}, "label": {label}, "published_at": {published}, "posts": [{", ".join(posts[i:j])}]}}'
            for news_id, label, published, i, j in zip(
                islice(news_ids, b - a), labels, _stamps(corpus.published[a:b]), rows, rows[1:]
            )
        ]


def _hashtag_lists(tag: np.ndarray, start: np.ndarray, follows: np.ndarray, opens: np.ndarray) -> list[str]:
    """The text inside each post's hashtag list, for the hashtags ``tag``
    of consecutive posts whose lists start at ``start`` (one more entry
    than posts): the posts' lists are joined at once, each opened by a
    newline, and split at the newlines."""
    parts = follows[tag]
    empty = start[:-1] == start[1:]
    heads = start[:-1][~empty]
    parts[heads] = opens[tag[heads]]
    parts = np.insert(parts, start[:-1][empty], "\n")  # the list of a post without hashtags
    return "".join(parts.tolist()).split("\n")[1:]


# A rendered stamp, as code points, and where each two-digit field of
# it starts: the year's hundreds and the rest, month, day, hour, minute
# and second
_STAMP_TEXT = np.array([ord(c) for c in f'"{_STAMP}"'], dtype=np.uint32)
_FIELD_AT = (1, 3, 6, 9, 12, 15, 18)


def _stamps(times: np.ndarray) -> list[str]:
    """Each time column entry as a JSON string holding its canonical
    ``YYYY-MM-DDTHH:MM:SSZ`` stamp (a four-digit year, floored to the
    second), ``null`` when absent.

    The date comes from the calendar tables the stamp kernel reads.  The
    stamps are built one row per character position and read back as
    fixed-width strings in one call.
    """
    missing = times == NO_TIME
    days, second = np.divmod(np.where(missing, 0, times) // 1_000_000, 86_400)  # floored to the second
    year = np.searchsorted(_YEAR_START, days, side="right") - 1
    day = days - _YEAR_START[year] + 366 * _LEAP[year]
    fields = (
        year // 100, year % 100, _MONTH_OF_DAY[day], _DAY_OF_MONTH[day], second // 3600, second // 60 % 60, second % 60
    )
    chars = np.repeat(_STAMP_TEXT[:, None], len(times), axis=1)
    for at, field in zip(_FIELD_AT, fields):
        chars[at] = field // 10 + ord("0")
        chars[at + 1] = field % 10 + ord("0")
    stamps = np.ascontiguousarray(chars.T).view(f"U{len(_STAMP_TEXT)}").ravel().tolist()
    for i in np.flatnonzero(missing).tolist():
        stamps[i] = "null"
    return stamps


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
    keep = posts_within(corpus, horizon_hours)
    n_exempt = int(np.count_nonzero(corpus.published == NO_TIME))
    if n_exempt:
        logger.info("time filter: %d news without publish time kept whole", n_exempt)
    dropped_untimed = int(np.count_nonzero(~keep & (corpus.created == NO_TIME)))
    if dropped_untimed:
        logger.info("time filter: dropped %d post(s) without creation time", dropped_untimed)
    return _keep_posts(corpus, keep)


def posts_within(corpus: Corpus, horizon_hours: float | None) -> np.ndarray:
    """Whether :func:`filter_by_time` keeps each post at ``horizon_hours``;
    with no horizon, every post.  A longer horizon keeps every post a
    shorter one keeps."""
    if horizon_hours is None:
        return np.ones(corpus.occurrences.n_posts, dtype=bool)
    if not 0 < horizon_hours <= MAX_SPAN_HOURS:
        raise ValueError(
            f"horizon_hours must be positive and at most {MAX_SPAN_HOURS} hours, got {horizon_hours}"
        )
    # the window's closed bound, computed once as timedelta rounds it
    horizon = min(timedelta(hours=horizon_hours) // _MICROSECOND, _MAX_GAP)
    published = _post_published(corpus)
    keep = published == NO_TIME  # exempt
    window = (corpus.created != NO_TIME) & ~keep
    keep[window] = corpus.created[window] - published[window] <= horizon
    return keep


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
