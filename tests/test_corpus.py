import json
import subprocess
import sys
from datetime import timedelta, timezone

import numpy as np
import pytest

import newstag
import newstag.corpus
from newstag.corpus import (
    EPOCH,
    MAX_SPAN_HOURS,
    CorpusError,
    corpus_stats,
    filter_by_time,
    normalize_hashtag,
    parse_corpus,
    parse_timestamp,
    split_corpus,
    write_corpus,
)

from helpers import (
    assert_same_columns,
    corpus_of,
    corpus_to_jsonl_oracle,
    parse_corpus_oracle,
    random_stream,
    timed_news,
    untimed_corpus,
    untimed_news,
)


# --- normalize_hashtag -----------------------------------------------------

def test_normalize_strips_hash_and_case():
    assert normalize_hashtag("#COVID19") == "covid19"


def test_normalize_already_normal():
    assert normalize_hashtag("#covid19") == "covid19"


def test_normalize_rejects_empty():
    assert normalize_hashtag("#") is None
    assert normalize_hashtag("   ") is None
    assert normalize_hashtag("###") is None


def test_normalize_compatibility_forms():
    # fullwidth and small number signs fold to '#' under NFKC and must be
    # stripped; fullwidth letters fold to ASCII.
    assert normalize_hashtag("＃Tag") == "tag"
    assert normalize_hashtag("﹟Tag") == "tag"
    assert normalize_hashtag("ＡＢ") == "ab"


def test_normalize_idempotent():
    rng = np.random.default_rng(7)
    samples = ["#Hello", "  #covid  ", "＃MiXeD", "straße", "İstanbul", "#①"]
    alphabet = "abcXYZ#ß＃İ \t①テ"
    for _ in range(300):
        n = int(rng.integers(1, 8))
        samples.append("".join(alphabet[int(rng.integers(len(alphabet)))] for _ in range(n)))
    for raw in samples:
        once = normalize_hashtag(raw)
        if once is not None:
            assert normalize_hashtag(once) == once


# --- parse_corpus ----------------------------------------------------------

def _record(news_id="n1", label=1, published="2020-03-01T00:00:00Z", posts=None):
    if posts is None:
        posts = [{"post_id": "p1", "created_at": None, "hashtags": ["#A", "#a"]}]
    return json.dumps({"id": news_id, "label": label, "published_at": published, "posts": posts})


def test_parse_dedupes_hashtags_within_post():
    corpus = parse_corpus([_record()])
    assert corpus.news[0].posts[0].hashtags == ("a",)
    assert corpus.vocabulary == ("a",)


def test_parse_duplicate_id_fatal():
    with pytest.raises(CorpusError, match="duplicate news id"):
        parse_corpus([_record(), _record()])


def test_parse_duplicate_id_fatal_even_when_lenient():
    with pytest.raises(CorpusError, match="duplicate news id"):
        parse_corpus([_record(), _record()], lenient=True)


def test_parse_empty_stream():
    corpus = parse_corpus([])
    assert len(corpus.news) == 0
    assert corpus.vocabulary == ()


def test_parse_reads_a_path_in_one_call(tmp_path, monkeypatch):
    # a wrapper installed on the module attribute sees one call per parse
    path = tmp_path / "c.jsonl"
    path.write_text(_record() + "\n", encoding="utf-8")
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return parse_unwrapped(*args, **kwargs)

    parse_unwrapped = newstag.corpus.parse_corpus
    monkeypatch.setattr(newstag.corpus, "parse_corpus", counting)
    corpus = newstag.corpus.parse_corpus(str(path))
    assert calls == [str(path)] and corpus.ids == ("n1",)


def test_parse_bad_label_fatal():
    with pytest.raises(CorpusError, match="label"):
        parse_corpus([_record(label=2)])
    with pytest.raises(CorpusError, match="label"):
        parse_corpus([_record(label=True)])


def test_parse_bad_label_fatal_even_when_lenient():
    with pytest.raises(CorpusError, match="label"):
        parse_corpus([_record(label=2)], lenient=True)


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(CorpusError, match="line 2"):
        parse_corpus([_record(), "{not json"])


def test_parse_lenient_skips_and_reports():
    problems = []
    corpus = parse_corpus(
        [_record(), "{broken", _record(news_id="n2")], lenient=True, errors=problems
    )
    assert [item.id for item in corpus.news] == ["n1", "n2"]
    assert problems and problems[0][0] == 2


def test_parse_too_deeply_nested_line_is_invalid_json():
    # deeper than the decoder's recursion limit: RecursionError, not JSONDecodeError
    deep = "[" * 100_000 + "]" * 100_000
    lines = [_record(), deep, _record(news_id="n2")]
    with pytest.raises(CorpusError, match="^line 2: invalid JSON: "):
        parse_corpus(lines)
    problems = []
    corpus = parse_corpus(lines, lenient=True, errors=problems)
    assert list(corpus.ids) == ["n1", "n2"]
    assert [line_no for line_no, _ in problems] == [2]


def test_parse_clock_skew_counted(caplog):
    record = _record(
        posts=[{"post_id": "p1", "created_at": "2020-02-29T00:00:00Z", "hashtags": ["a"]}]
    )
    with caplog.at_level("WARNING"):
        corpus = parse_corpus([record])
    assert "clock skew" in caplog.text
    # a generous allowance silences the warning
    stats = corpus_stats(corpus, clock_skew=timedelta(days=2))
    assert stats["clock_skew_violations"] == 0


def test_negative_clock_skew_rejected():
    record = _record()
    with pytest.raises(ValueError, match="clock skew allowance must be >= 0 hours, got -5"):
        parse_corpus([record], clock_skew=timedelta(hours=-5))
    with pytest.raises(ValueError, match="clock skew"):
        corpus_stats(parse_corpus([record]), clock_skew=timedelta(hours=-5))


def _time_error(text):
    """The ValueError text ``parse_timestamp`` gives for ``text`` on this Python."""
    with pytest.raises(ValueError) as info:
        parse_timestamp(text)
    return str(info.value)


def _post(**fields):
    return {"post_id": "p1", "created_at": None, "hashtags": ["#b"], **fields}


def _bad(**fields):
    return json.dumps({"id": "n2", "label": 1, "published_at": None, "posts": [_post()], **fields})


# (malformed line, the CorpusError text it gives as line 2 of a stream)
SKIPPABLE = [
    ("{broken", "invalid JSON: Expecting property name enclosed in double quotes"),
    ("[1, 2]", "record must be a JSON object"),
    ('"n2"', "record must be a JSON object"),
    (json.dumps({"label": 1}), "id must be a nonempty string"),
    (_bad(id=""), "id must be a nonempty string"),
    (_bad(id=7), "id must be a nonempty string"),
    (_bad(published_at=5), "news 'n2': published_at must be a string or null"),
    (_bad(published_at="yesterday"), f"news 'n2': bad published_at: {_time_error('yesterday')}"),
    (_bad(published_at="2020-02-30T00:00:00Z"),
     f"news 'n2': bad published_at: {_time_error('2020-02-30T00:00:00Z')}"),
    (_bad(posts={"p": 1}), "news 'n2': posts must be a list"),
    (_bad(posts=[_post(), 5]), "post must be an object"),
    (_bad(posts=[_post(post_id="")]), "news 'n2': post_id must be a nonempty string"),
    (_bad(posts=[{"hashtags": []}]), "news 'n2': post_id must be a nonempty string"),
    (_bad(posts=[_post(created_at=3)]), "post 'p1': created_at must be a string or null"),
    (_bad(posts=[_post(created_at="2020-03-01T25:00:00Z")]),
     f"post 'p1': bad created_at: {_time_error('2020-03-01T25:00:00Z')}"),
    (_bad(posts=[_post(hashtags="#b")]), "post 'p1': hashtags must be a list"),
    (_bad(posts=[_post(hashtags=["#b", 5])]), "post 'p1': hashtags must be strings"),
    (_bad(posts=[_post(hashtags=["#a", ["#b"]])]), "post 'p1': hashtags must be strings"),
    (_bad(posts=[_post(), _post(post_id="p2", hashtags=[None])]), "post 'p2': hashtags must be strings"),
]

# (line, the CorpusError text it gives as line 2, even in lenient mode)
FATAL = [
    (_bad(label=2), "label must be -1, 1, or null, got 2"),
    (_bad(label=True), "label must be -1, 1, or null, got True"),
    (_bad(label="1"), "label must be -1, 1, or null, got '1'"),
    (_bad(label=1.0, posts=5), "label must be -1, 1, or null, got 1.0"),
    (_bad(id="n1"), "duplicate news id 'n1'"),
]


def _stream(line):
    good = [_record(news_id="n1", posts=[_post(hashtags=["#a"])]), _record(news_id="n3", posts=[_post(hashtags=["#c"])])]
    return [good[0], line, good[1]]


@pytest.mark.parametrize("line, message", SKIPPABLE + FATAL)
def test_corpus_error_messages_when_strict(line, message):
    with pytest.raises(CorpusError) as info:
        parse_corpus(_stream(line))
    assert str(info.value) == f"line 2: {message}"


@pytest.mark.parametrize("line, message", SKIPPABLE)
def test_lenient_mode_skips_malformed_records(line, message):
    problems = []
    corpus = parse_corpus(_stream(line), lenient=True, errors=problems)
    assert problems == [(2, f"line 2: {message}")]
    assert [item.id for item in corpus.news] == ["n1", "n3"]
    # the skipped record's hashtags never enter the vocabulary
    assert corpus.vocabulary == ("a", "c")


@pytest.mark.parametrize("line, message", FATAL)
def test_lenient_mode_keeps_label_and_duplicate_errors_fatal(line, message):
    with pytest.raises(CorpusError) as info:
        parse_corpus(_stream(line), lenient=True, errors=[])
    assert str(info.value) == f"line 2: {message}"


# --- input that is not UTF-8 ----------------------------------------------------

# bytes that are no UTF-8, one of them a surrogate's encoding, which a
# decoder that lets surrogates through would accept
NOT_UTF8 = [b"\xff", b"caf\xe9", b"\xc3(", b"\xed\xa0\x80", b"\xf0\x9f\x98"]


def _bytes_stream(tmp_path, middle: bytes):
    """A corpus file whose line 2 holds ``middle`` in a hashtag, between
    two good records, and the error its line gives as line 2."""
    good = [_record(news_id="n1", posts=[_post(hashtags=["#a"])]), _record(news_id="n3", posts=[_post(hashtags=["#c"])])]
    line = _bad().encode("ascii").replace(b"#b", b"#b" + middle)
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"\n".join([good[0].encode("ascii"), line, good[1].encode("ascii")]) + b"\n")
    with pytest.raises(UnicodeDecodeError) as info:
        line.decode("utf-8")
    return path, f"line 2: invalid UTF-8: {info.value}"


@pytest.mark.parametrize("middle", NOT_UTF8)
def test_line_that_is_not_utf8_is_a_corpus_error(tmp_path, middle):
    path, message = _bytes_stream(tmp_path, middle)
    with pytest.raises(CorpusError) as info:
        parse_corpus(path)
    assert str(info.value) == message


@pytest.mark.parametrize("middle", NOT_UTF8)
def test_lenient_mode_skips_a_line_that_is_not_utf8(tmp_path, middle):
    path, message = _bytes_stream(tmp_path, middle)
    problems = []
    corpus = parse_corpus(path, lenient=True, errors=problems)
    assert problems == [(2, message)]
    assert corpus.ids == ("n1", "n3") and corpus.vocabulary == ("a", "c")


@pytest.mark.parametrize("chunk", [1, 2, newstag.corpus.CHUNK_LINES])
def test_utf8_errors_come_in_stream_order(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(newstag.corpus, "CHUNK_LINES", chunk)
    path = tmp_path / "c.jsonl"
    lines = [_record(news_id="n1").encode("ascii"), b"{broken", b'{"id": "n\xff"}', _record(news_id="n4").encode("ascii")]
    path.write_bytes(b"\n".join(lines) + b"\n")
    problems = []
    assert parse_corpus(path, lenient=True, errors=problems).ids == ("n1", "n4")
    assert [line_no for line_no, _ in problems] == [2, 3]
    assert problems[1][1].startswith("line 3: invalid UTF-8: 'utf-8' codec can't decode byte 0xff in position 9")
    with pytest.raises(CorpusError, match="^line 2: invalid JSON"):
        parse_corpus(path)
    path.write_bytes(b"\n".join([lines[0], lines[2], lines[1]]) + b"\n")
    with pytest.raises(CorpusError, match="^line 2: invalid UTF-8"):
        parse_corpus(path)


def test_utf8_text_outside_ascii_is_read(tmp_path):
    path = tmp_path / "c.jsonl"
    record = {"id": "n\u00e9", "label": 1, "posts": [{"post_id": "p\U0001f600", "hashtags": ["Stra\u00dfe", "\U0001f600"]}]}
    path.write_text(json.dumps(record, ensure_ascii=False) + "\r\n", encoding="utf-8")
    corpus = parse_corpus(path)
    assert corpus.ids == ("n\u00e9",) and tuple(corpus.post_ids) == ("p\U0001f600",)
    assert corpus.vocabulary == ("strasse", "\U0001f600")


# --- parse_corpus against the record-by-record oracle ------------------------

GOOD_TIMES = [
    None,
    "2020-03-01T00:00:00Z",
    "2020-02-29T12:30:00Z",
    "0999-02-25T08:00:00Z",
    "2020-03-01T05:30:00+02:00",
    " 2020-03-01T23:59:59z",
    "2020-03-01T06:00:00.250000Z",
]
BAD_TIMES = [
    "yesterday",
    "",
    "2021-02-29T00:00:00Z",
    "0000-01-01T00:00:00Z",
    "2020-03-01T24:00:00Z",
    "2020-03-01T00:00:60Z",
    "0001-01-01T00:00:00+01:00",
]
TOKENS = ["#A", "a", "＃a", "B", "#b", "c", "#", "  ", "#D", "e", "Straße", "İ"]
NOT_STRINGS = [5, None, ["#b"], 1.5, True]


def random_lines(seed: int) -> list[str]:
    """JSONL lines that mix good records with every skippable and fatal
    kind of line, bad time values, non-string tokens, blank lines and
    repeated news ids, at random positions."""
    rng = np.random.default_rng(seed)

    def pick(values):
        return values[int(rng.integers(len(values)))]

    def time():
        return pick(BAD_TIMES) if rng.random() < 0.04 else pick(GOOD_TIMES)

    lines = []
    for i in range(int(rng.integers(0, 16))):
        roll = rng.random()
        if roll < 0.06:
            lines.append("")
        elif roll < 0.16:
            lines.append(pick(SKIPPABLE)[0])
        elif roll < 0.19:
            lines.append(pick(FATAL)[0])
        else:
            posts = []
            for j in range(int(rng.integers(0, 4))):
                tags = [pick(TOKENS) for _ in range(int(rng.integers(0, 5)))]
                if tags and rng.random() < 0.03:
                    tags[int(rng.integers(len(tags)))] = pick(NOT_STRINGS)
                posts.append({"post_id": f"n{i}-p{j}", "created_at": time(), "hashtags": tags})
            news_id = f"n{int(rng.integers(i))}" if i and rng.random() < 0.05 else f"n{i}"
            record = {"id": news_id, "label": pick([-1, 1, None]), "published_at": time(), "posts": posts}
            lines.append(json.dumps(record))
    return lines


def _outcome(parse, lines, lenient):
    errors = []
    try:
        corpus = parse(lines, lenient=lenient, errors=errors)
    except CorpusError as exc:
        return str(exc), errors
    return corpus, errors


@pytest.mark.parametrize("chunk", [1, 2, 3, newstag.corpus.CHUNK_LINES])
def test_parse_matches_record_by_record_oracle(monkeypatch, chunk):
    monkeypatch.setattr(newstag.corpus, "CHUNK_LINES", chunk)
    streams = [(random_lines(seed), None) for seed in range(150)]
    streams += [random_stream(seed) for seed in range(60)]
    for k, (lines, skipped) in enumerate(streams):
        for lenient in (False, True):
            got, got_errors = _outcome(parse_corpus, lines, lenient)
            expected, expected_errors = _outcome(parse_corpus_oracle, lines, lenient)
            assert got_errors == expected_errors, (k, lenient)
            if isinstance(expected, str):
                assert got == expected, (k, lenient)
            else:
                assert_same_columns(got, expected)
        if skipped is not None:
            assert len(got_errors) == skipped, k


@pytest.mark.parametrize("chunk", [1, 2, 3, newstag.corpus.CHUNK_LINES])
def test_duplicate_of_a_skipped_record_is_kept(monkeypatch, chunk):
    monkeypatch.setattr(newstag.corpus, "CHUNK_LINES", chunk)
    stale = _post(created_at="2020-03-01T25:00:00Z")
    lines = [
        _record(news_id="n1", posts=[stale]),
        _record(news_id="n2"),
        _record(news_id="n1", posts=[_post(hashtags=["#c"])]),
    ]
    message = f"line 1: post 'p1': bad created_at: {_time_error('2020-03-01T25:00:00Z')}"
    problems = []
    corpus = parse_corpus(lines, lenient=True, errors=problems)
    assert problems == [(1, message)]
    assert [item.id for item in corpus.news] == ["n2", "n1"]
    assert corpus.vocabulary == ("a", "c")
    with pytest.raises(CorpusError) as info:
        parse_corpus(lines)
    assert str(info.value) == message
    # a duplicate of a kept record stays fatal after the kernel has run over both
    with pytest.raises(CorpusError, match="line 3: duplicate news id 'n2'"):
        parse_corpus([*lines[1:], lines[1]], lenient=True)


@pytest.mark.parametrize("chunk", [1, 2, 3, newstag.corpus.CHUNK_LINES])
def test_first_error_in_stream_order_wins(monkeypatch, chunk):
    monkeypatch.setattr(newstag.corpus, "CHUNK_LINES", chunk)
    late = _record(news_id="n1", published="2020-02-30T00:00:00Z")
    message = f"line 1: news 'n1': bad published_at: {_time_error('2020-02-30T00:00:00Z')}"
    for later in ("{broken", _bad(label=2), _bad(posts=5), _record(news_id="n1"), _bad(published_at="soon")):
        with pytest.raises(CorpusError) as info:
            parse_corpus([late, later])
        assert str(info.value) == message
    # within a record, a bad time read before a structural error is the error
    record = _bad(published_at="2020-02-30T00:00:00Z", posts=5)
    with pytest.raises(CorpusError) as info:
        parse_corpus([record])
    assert str(info.value) == message.replace("'n1'", "'n2'")


def test_records_refused_after_the_reread_fail_loudly(monkeypatch):
    # the re-read hands on only records it found sound; were they refused
    # anyway, the parse must fail rather than drop them
    monkeypatch.setattr(newstag.corpus._Reader, "keep", lambda self, chunk: False)
    with pytest.raises(AssertionError, match="refused"):
        parse_corpus([_record()])


STAMP_EDGES = [
    "2020-02-29T00:00:00Z",
    "2021-02-29T00:00:00Z",
    "1900-02-29T00:00:00Z",
    "2000-02-29T23:59:59Z",
    "0000-01-01T00:00:00Z",
    "0001-01-01T00:00:00Z",
    "9999-12-31T23:59:59Z",
    "1969-12-31T23:59:59Z",
    "2020-01-01T24:00:00Z",
    "2020-01-01T23:59:60Z",
    "2020-01-01T23:60:00Z",
    "2020-13-01T00:00:00Z",
    "2020-00-10T00:00:00Z",
    "2020-04-31T00:00:00Z",
    "2020-01-00T00:00:00Z",
    "２０２０-01-01T00:00:00Z",
    "2020-01-01T00:00:0９Z",
    "2020-01-01T00:00:0\ud800Z",
    "2020-01-01T00:00:00z",
    "2020-01-01 00:00:00Z",
    "2020/01/01T00:00:00Z",
    "2020-01-01T00:00:00+00:00",
    "2020-01-01T00:00:00",
    " 2020-01-01T00:00:00Z",
    "2020-01-01T00:00:00Z ",
    "2020-01-01T00:00:00ZZ",
    "2020-01-01T00:00Z",
]


def _expected_micros(text):
    """(time column entry, None) as parse_timestamp reads ``text``, or (None, its error)."""
    try:
        return (parse_timestamp(text) - EPOCH) // timedelta(microseconds=1), None
    except (ValueError, OverflowError) as exc:
        return None, str(exc)


def test_timestamp_kernel_matches_parse_timestamp():
    values = [*STAMP_EDGES, None]
    micros, bad = newstag.corpus._read_times(values)
    for i, text in enumerate(STAMP_EDGES):
        expected, error = _expected_micros(text)
        assert bad[i] == (error is not None), text
        if error is None:
            assert micros[i] == expected, text
    assert micros[-1] == newstag.corpus.NO_TIME and not bad[-1]


def test_timestamp_kernel_reads_canonical_stamps_itself():
    # every canonical-shaped stamp, in range or not: the array path accepts
    # exactly those parse_timestamp accepts, with the same entry
    rng = np.random.default_rng(5)
    fields = np.column_stack(
        [rng.integers(0, 10000, 3000)] + [rng.integers(0, hi, 3000) for hi in (14, 33, 26, 62, 62)]
    )
    stamps = ["%04d-%02d-%02dT%02d:%02d:%02dZ" % tuple(row) for row in fields.tolist()]
    # leap days and the days around them, across the four-century cycle
    for year in [*range(0, 10000, 7), 1600, 1700, 1900, 2000, 2100, 2400]:
        stamps += [f"{year:04d}-{date}" for date in ("02-28T23:59:59Z", "02-29T12:00:00Z", "03-01T00:00:00Z")]
    micros, valid = newstag.corpus._stamp_micros(stamps)
    for text, entry, ok in zip(stamps, micros.tolist(), valid.tolist()):
        expected, error = _expected_micros(text)
        assert ok == (error is None), text
        if ok:
            assert entry == expected, text


def test_parse_timestamp_variants():
    z = parse_timestamp("2020-03-01T12:00:00Z")
    offset = parse_timestamp("2020-03-01T12:00:00+00:00")
    naive = parse_timestamp("2020-03-01T12:00:00")
    assert z == offset == naive
    assert z.tzinfo == timezone.utc


def test_vocabulary_is_exact_union_first_appearance():
    corpus = untimed_corpus(
        [("n1", 1, [["b", "a"], ["c"]]), ("n2", -1, [["a", "d"]])]
    )
    assert corpus.vocabulary == ("b", "a", "c", "d")
    union = set()
    for item in corpus.news:
        for post in item.posts:
            union.update(post.hashtags)
    assert set(corpus.vocabulary) == union


def test_write_corpus_roundtrip(tmp_path):
    news = [
        timed_news("n1", 1, 0, [(1.0, ["a", "b"]), (None, ["c"])]),
        timed_news("n2", -1, 5, [(0.5, ["b"])]),
    ]
    news.append(untimed_news("n3", None, [["d"]]))
    corpus = corpus_of(news)
    path = tmp_path / "c.jsonl"
    write_corpus(corpus, path)
    back = parse_corpus(path)
    assert_same_columns(back, corpus)
    # serialization is stable byte-for-byte
    path2 = tmp_path / "c2.jsonl"
    write_corpus(back, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("chunk", [1, 2, 3, newstag.corpus.CHUNK_LINES])
def test_writer_matches_json_encoder_on_awkward_strings(monkeypatch, chunk):
    monkeypatch.setattr(newstag.corpus, "CHUNK_LINES", chunk)
    awkward = ['q"uote', "back\\slash", "ctl\x00\x01\x1f\x7f", "nl\nr\rt\t", "\u00e9t\u00e9",
               "\u2028sep", "\U0001d518\U0001f600", "/slash", ""]
    news = [
        timed_news(f"n{k}-{text}", [1, -1, None][k % 3], k, [(0.5, [text, f"x{text}"]), (None, [])])
        for k, text in enumerate(awkward)
    ]
    news.append(untimed_news("untimed\u0085", None, [["a", "\ud83d"]]))
    news.append(untimed_news("no-posts", 1, []))
    news.insert(0, untimed_news("no-posts-first", -1, []))
    corpus = corpus_of(news)
    assert list(newstag.corpus.corpus_to_jsonl(corpus)) == corpus_to_jsonl_oracle(corpus)


# --- filter_by_time ----------------------------------------------------------

def test_filter_keeps_only_posts_within_horizon():
    corpus = corpus_of([timed_news("n1", 1, 0, [(1.0, ["a"]), (20.0, ["b"])])])
    out = filter_by_time(corpus, 12.0)
    assert [p.post_id for p in out.news[0].posts] == ["n1-p0"]
    assert out.vocabulary == ("a",)


def test_filter_boundary_is_closed():
    corpus = corpus_of([timed_news("n1", 1, 0, [(12.0, ["a"])])])
    out = filter_by_time(corpus, 12.0)
    assert len(out.news[0].posts) == 1


def test_filter_without_timestamps_is_identity():
    corpus = untimed_corpus([("n1", 1, [["a"], ["b"]])])
    out = filter_by_time(corpus, 1.0)
    assert_same_columns(out, corpus)


def test_filter_drops_untimed_posts_of_timed_news():
    corpus = corpus_of([timed_news("n1", 1, 0, [(None, ["a"]), (1.0, ["b"])])])
    out = filter_by_time(corpus, 12.0)
    assert [p.post_id for p in out.news[0].posts] == ["n1-p1"]


def test_filter_rejects_nonpositive_horizon():
    corpus = untimed_corpus([("n1", 1, [["a"]])])
    with pytest.raises(ValueError):
        filter_by_time(corpus, 0.0)


def test_filter_rejects_horizon_beyond_a_timedelta():
    corpus = untimed_corpus([("n1", 1, [["a"]])])
    with pytest.raises(ValueError, match="horizon_hours"):
        filter_by_time(corpus, MAX_SPAN_HOURS * 2)
    with pytest.raises(ValueError, match="horizon_hours"):
        filter_by_time(corpus, 1e20)


def test_filter_horizon_past_year_9999_keeps_every_timed_post():
    # publish time + horizon is past datetime's range; the window still closes exactly
    corpus = corpus_of([timed_news("n1", 1, 0, [(1.0, ["a"]), (None, ["b"]), (1e5, ["c"])])])
    out = filter_by_time(corpus, MAX_SPAN_HOURS)
    assert [p.post_id for p in out.news[0].posts] == ["n1-p0", "n1-p2"]
    assert out.vocabulary == ("a", "c")


def test_huge_clock_skew_allowance_counts_no_violation():
    record = _record(posts=[{"post_id": "p1", "created_at": "2020-02-29T00:00:00Z", "hashtags": ["a"]}])
    corpus = parse_corpus([record], clock_skew=timedelta.max)
    assert corpus_stats(corpus, clock_skew=timedelta.max)["clock_skew_violations"] == 0
    assert corpus_stats(corpus)["clock_skew_violations"] == 1


def test_timestamp_outside_datetime_range_is_a_corpus_error():
    # valid ISO text whose UTC instant falls before year 1
    record = _record(posts=[{"post_id": "p1", "created_at": "0001-01-01T00:00:00+01:00", "hashtags": ["a"]}])
    with pytest.raises(CorpusError) as info:
        parse_corpus([record])
    assert str(info.value) == "line 1: post 'p1': bad created_at: date value out of range"


def test_filter_monotone_in_horizon():
    rng = np.random.default_rng(11)
    news = [
        timed_news(
            f"n{i}",
            1,
            float(rng.uniform(0, 5)),
            [(float(rng.uniform(0, 72)), ["a", f"h{int(rng.integers(6))}"]) for _ in range(6)],
        )
        for i in range(8)
    ]
    corpus = corpus_of(news)
    for h1, h2 in [(6.0, 12.0), (12.0, 48.0), (1.0, 71.9)]:
        small = filter_by_time(corpus, h1)
        large = filter_by_time(corpus, h2)
        for a, b in zip(small.news, large.news):
            assert set(p.post_id for p in a.posts) <= set(p.post_id for p in b.posts)


# --- split_corpus ------------------------------------------------------------

def _labeled_corpus(n_labeled=10, n_unlabeled=0):
    spec = [(f"n{i}", 1 if i % 2 else -1, [["a"]]) for i in range(n_labeled)]
    spec += [(f"u{i}", None, [["a"]]) for i in range(n_unlabeled)]
    return untimed_corpus(spec)


def test_split_floor_rule():
    corpus = _labeled_corpus(10)
    train, test = split_corpus(corpus, 0.8, seed=123)
    assert len(train) == 8 and len(test) == 2
    train99, test99 = split_corpus(corpus, 0.99, seed=123)
    assert len(train99) == 9 and len(test99) == 1


def test_split_deterministic():
    corpus = _labeled_corpus(10)
    def split(seed):
        return [side.tolist() for side in split_corpus(corpus, 0.8, seed=seed)]

    assert split(5) == split(5)
    assert split(5) != split(6)


def test_split_disjoint_and_covering():
    corpus = _labeled_corpus(9, n_unlabeled=3)
    train, test = split_corpus(corpus, 0.6, seed=0)
    assert not set(train) & set(test)
    assert set(train) | set(test) == set(range(len(corpus.news)))


def test_split_unlabeled_always_in_test():
    corpus = _labeled_corpus(6, n_unlabeled=4)
    for seed in range(5):
        train, test = split_corpus(corpus, 0.5, seed=seed)
        assert all(not corpus.news[r].id.startswith("u") for r in train)
        assert {f"u{k}" for k in range(4)} <= {corpus.news[r].id for r in test}


def test_split_validates_fraction_and_labels():
    corpus = _labeled_corpus(10)
    with pytest.raises(ValueError):
        split_corpus(corpus, 1.0, seed=0)
    with pytest.raises(ValueError):
        split_corpus(corpus, 0.0, seed=0)
    with pytest.raises(CorpusError):
        split_corpus(_labeled_corpus(1), 0.5, seed=0)


def test_split_test_side_is_the_sorted_complement_of_train():
    rng = np.random.default_rng(3)
    for seed in range(30):
        spec = [(f"n{i}", (-1, 1, None)[int(rng.integers(3))], [["a"]]) for i in range(int(rng.integers(4, 40)))]
        corpus = untimed_corpus(spec)
        if np.count_nonzero(corpus.occurrences.labels) < 2:
            continue
        train, test = split_corpus(corpus, 0.7, seed=seed)
        expected = np.setdiff1d(np.arange(len(corpus)), train)
        assert test.dtype == expected.dtype and np.array_equal(test, expected)


# --- the package -------------------------------------------------------------------

def test_reading_and_generating_corpora_loads_no_scipy():
    code = "import sys, newstag.corpus, newstag.synth; sys.exit('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_package_exports_resolve_on_access():
    for name in newstag.__all__:
        value = getattr(newstag, name)
        assert getattr(sys.modules[value.__module__], name) is value
    assert newstag.parse_corpus is parse_corpus
    assert set(newstag.__all__) <= set(dir(newstag))
    with pytest.raises(AttributeError, match="no attribute 'parse'"):
        newstag.parse
