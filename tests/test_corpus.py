import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
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
from newstag.synth import SyntheticParams, generate_synthetic

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


@pytest.mark.parametrize("where", ["bare", "unknown-field"])
@pytest.mark.parametrize("depth", [100_000, 1_000_000])
def test_parse_too_deeply_nested_line_is_invalid_json(tmp_path, depth, where):
    # deeper than the decoder's recursion limit: RecursionError, not
    # JSONDecodeError, and never a crashed interpreter (the validate
    # subprocess below would exit by signal)
    deep = "[" * depth + "]" * depth
    if where == "unknown-field":
        deep = _record(news_id="deep")[:-1] + ', "extra": ' + deep + "}"
    lines = [_record(), deep, _record(news_id="n2")]
    with pytest.raises(CorpusError, match="^line 2: invalid JSON: "):
        parse_corpus(lines)
    problems = []
    corpus = parse_corpus(lines, lenient=True, errors=problems)
    assert list(corpus.ids) == ["n1", "n2"]
    assert [line_no for line_no, _ in problems] == [2]

    path = tmp_path / "deep.jsonl"
    path.write_text("\n".join(lines) + "\n")
    validate = [sys.executable, "-m", "newstag", "validate", "--input", str(path)]
    strict = subprocess.run(validate, capture_output=True, text=True, timeout=120)
    assert strict.returncode == 2
    assert strict.stderr.startswith("error: line 2: invalid JSON: ") and strict.stderr.count("\n") == 1
    lenient = subprocess.run([*validate, "--lenient"], capture_output=True, text=True, timeout=120)
    assert lenient.returncode == 0, lenient.stderr
    summary = json.loads(lenient.stdout)
    assert summary["news"] == 2 and summary["skipped_records"] == 1


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


@pytest.mark.parametrize("extra", [" 5", ' {"id": "n4"}', "]", ", null"])
def test_a_record_with_data_after_it_is_invalid_json(extra):
    # the fast pass decodes one value from the start of the line: the
    # line is refused unless that value ends where the line ends
    stream = _stream(_bad() + extra)
    with pytest.raises(CorpusError) as info:
        parse_corpus(stream)
    assert str(info.value) == "line 2: invalid JSON: Extra data"
    problems = []
    assert parse_corpus(stream, lenient=True, errors=problems).ids == ("n1", "n3")
    assert problems == [(2, "line 2: invalid JSON: Extra data")]


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


# --- ids and tokens that are not valid Unicode ------------------------------------

# (line holding a lone surrogate, which a JSON escape decodes to and UTF-8
# cannot encode, and the CorpusError text it gives as line 2)
NOT_UNICODE = [
    (_bad(id="n\ud800"), "news 'n\\ud800': id is not valid Unicode"),
    (_bad(posts=[_post(), _post(post_id="\udfffp2")]), "post '\\udfffp2': id is not valid Unicode"),
    (_bad(posts=[_post(hashtags=["#b", "\ud800x"])]), "post 'p1': hashtag '\\ud800x' is not valid Unicode"),
]


@pytest.mark.parametrize("chunk", [1, newstag.corpus.CHUNK_LINES])
@pytest.mark.parametrize("line, message", NOT_UNICODE)
def test_an_id_or_token_that_is_not_valid_unicode_is_a_malformed_record(monkeypatch, chunk, line, message):
    monkeypatch.setattr(newstag.corpus, "CHUNK_LINES", chunk)
    assert "\\ud" in line  # written as a JSON escape
    with pytest.raises(CorpusError) as info:
        parse_corpus(_stream(line))
    assert str(info.value) == f"line 2: {message}"
    problems = []
    corpus = parse_corpus(_stream(line), lenient=True, errors=problems)
    assert problems == [(2, f"line 2: {message}")]
    assert corpus.ids == ("n1", "n3") and corpus.vocabulary == ("a", "c")


def test_a_surrogate_pair_escape_is_valid_unicode():
    line = _bad(id="n\U0001f600", posts=[_post(post_id="p\U0001f600", hashtags=["#\U0001f600"])])
    assert line.count("\\ud83d\\ude00") == 3
    corpus = parse_corpus(_stream(line))
    assert corpus.ids == ("n1", "n\U0001f600", "n3") and corpus.post_ids[1] == "p\U0001f600"
    assert corpus.vocabulary == ("a", "\U0001f600", "c")


@pytest.mark.parametrize("line, message", [
    (_bad(id="n\ud800", published_at=5), "news 'n\\ud800': id is not valid Unicode"),
    (_bad(id="n\ud800", published_at="soon"), "news 'n\\ud800': id is not valid Unicode"),
    (_bad(published_at="soon", posts=[_post(post_id="\ud800")]),
     f"news 'n2': bad published_at: {_time_error('soon')}"),
    (_bad(posts=[_post(post_id="\ud800", created_at=5)]), "post '\\ud800': id is not valid Unicode"),
    (_bad(posts=[_post(created_at="soon", hashtags=["\ud800"])]),
     f"post 'p1': bad created_at: {_time_error('soon')}"),
    (_bad(posts=[_post(hashtags=["\ud800", 5])]), "post 'p1': hashtags must be strings"),
    (_bad(posts=[_post(hashtags=["\ud800"]), 5]), "post 'p1': hashtag '\\ud800' is not valid Unicode"),
])
def test_a_record_is_named_by_the_first_bad_value_it_read(line, message):
    with pytest.raises(CorpusError) as info:
        parse_corpus(_stream(line))
    assert str(info.value) == f"line 2: {message}"


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


# Raw spellings that all normalize to "a", and other tokens
SPELLINGS_OF_A = ["#A", "a", "＃a", "A", " #a ", "##a", "ａ", "#ａ"]
OTHER_TOKENS = ["b", "#B", "c", "#", "d", "Straße", "STRASSE"]


def long_post_lines(seed: int) -> list[str]:
    """Records whose posts hold 5 to 12 hashtags, several of them
    spellings of one normalized hashtag, with now and then a record
    that lenient parsing skips."""
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(int(rng.integers(1, 12))):
        posts = []
        for j in range(int(rng.integers(1, 4))):
            tags = [
                str(rng.choice(SPELLINGS_OF_A if rng.random() < 0.5 else OTHER_TOKENS))
                for _ in range(int(rng.integers(5, 13)))
            ]
            posts.append({"post_id": f"n{i}-p{j}", "created_at": "2020-03-01T01:00:00Z", "hashtags": tags})
        if rng.random() < 0.1:
            posts[-1]["hashtags"].append(7)
        lines.append(json.dumps({"id": f"n{i}", "label": 1, "published_at": "2020-03-01T00:00:00Z", "posts": posts}))
    return lines


@pytest.mark.parametrize("chunk", [1, 2, 3, newstag.corpus.CHUNK_LINES])
def test_long_posts_with_many_spellings_of_one_hashtag_match_the_oracle(monkeypatch, chunk):
    monkeypatch.setattr(newstag.corpus, "CHUNK_LINES", chunk)
    for seed in range(40):
        lines = long_post_lines(seed)
        for lenient in (False, True):
            got, got_errors = _outcome(parse_corpus, lines, lenient)
            expected, expected_errors = _outcome(parse_corpus_oracle, lines, lenient)
            assert got_errors == expected_errors, (seed, lenient)
            if isinstance(expected, str):
                assert got == expected, (seed, lenient)
            else:
                assert_same_columns(got, expected)
    # one post: each hashtag once, at its first spelling's place
    corpus = parse_corpus([_record(posts=[_post(hashtags=["b", "#A", "c", "＃a", "B", "a", "d", "ａ", "#c"])])])
    assert corpus.news[0].posts[0].hashtags == ("b", "a", "c", "d")


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


def _time_value(rng, kind):
    """A raw time value of one kind, drawn at random."""
    year, month, day = int(rng.integers(1, 10000)), int(rng.integers(1, 13)), int(rng.integers(1, 29))
    hour, minute, second = int(rng.integers(24)), int(rng.integers(60)), int(rng.integers(60))
    stamp = f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}Z"
    if kind == "canonical":
        return stamp
    if kind == "offset":
        return stamp[:-1] + ("+02:00", "-11:30", "+00:00")[int(rng.integers(3))]
    if kind == "fraction":
        return stamp[:-1] + f".{int(rng.integers(10**6)):06d}Z"
    if kind == "lowercase z":
        return stamp[:-1] + "z"
    if kind == "basic format":
        return stamp.replace("-", "").replace(":", "")
    if kind == "out of range":
        field = int(rng.integers(6))
        bounds = [(0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19)][field]
        wrong = ("0000", "13", "32", "24", "60", "60")[field]
        return stamp[: bounds[0]] + wrong + stamp[bounds[1] :]
    if kind == "other separator":
        at = int(rng.choice([k for k, c in enumerate(stamp) if not c.isdigit()]))
        return stamp[:at] + str(rng.choice(["/", " ", ".", "_", "t"])) + stamp[at + 1 :]
    if kind == "non-ASCII digit":
        at = int(rng.choice([k for k, c in enumerate(stamp) if c.isdigit()]))
        return stamp[:at] + chr(0xFF10 + int(stamp[at])) + stamp[at + 1 :]
    assert kind is None
    return None


TIME_KINDS = [
    "canonical", "offset", "fraction", "lowercase z", "basic format", "other separator", "out of range",
    "non-ASCII digit", None,
]


def _assert_times_read_one_by_one(values):
    micros, bad = newstag.corpus._read_times(values)
    assert len(micros) == len(bad) == len(values)
    for value, entry, wrong in zip(values, micros.tolist(), bad.tolist()):
        if value is None:
            assert entry == newstag.corpus.NO_TIME and not wrong
            continue
        expected, error = _expected_micros(value)
        assert wrong == (error is not None), value
        if error is None:
            assert entry == expected, value


@pytest.mark.parametrize("length", [0, 1, 2, newstag.corpus.CHUNK_LINES])
def test_timestamp_kernel_reads_a_random_mix_value_by_value(length):
    rng = np.random.default_rng(length)
    for _ in range(40 if length < 10 else 6):
        _assert_times_read_one_by_one([_time_value(rng, rng.choice(TIME_KINDS)) for _ in range(length)])
    if length:
        # canonical stamps with one value of another kind among them
        for kind in TIME_KINDS[1:]:
            values = [_time_value(rng, "canonical") for _ in range(length)]
            values[int(rng.integers(length))] = _time_value(rng, kind)
            _assert_times_read_one_by_one(values)


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
    news.append(untimed_news("untimed\u0085", None, [["a", "\ufffd"]]))
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
    # every top-level module the import adds to a fresh interpreter is part
    # of the standard library, numpy or newstag: nothing else (SciPy above
    # all) is paid for by a reader or the generator
    code = (
        "import sys; before = set(sys.modules); import newstag.corpus, newstag.synth; "
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}; "
        "print(sorted(added - set(sys.stdlib_module_names) - {'numpy', 'newstag'}))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_package_exports_resolve_on_access():
    for name in newstag.__all__:
        value = getattr(newstag, name)
        assert getattr(sys.modules[value.__module__], name) is value
    assert newstag.parse_corpus is parse_corpus
    assert set(newstag.__all__) <= set(dir(newstag))
    with pytest.raises(AttributeError, match="no attribute 'parse'"):
        newstag.parse


# --- reading a file in byte ranges --------------------------------------------

def _in_ranges(monkeypatch, ranges):
    """Make a file parse cut any file of two bytes or more into up to
    ``ranges`` byte ranges, whatever the host's CPUs."""
    monkeypatch.setattr(newstag.corpus, "PARSE_RANGE_BYTES", 1)
    monkeypatch.setattr(newstag.corpus, "worker_count", lambda units: min(units, ranges))


def _cuts(path):
    with open(path, "rb") as fh:
        return newstag.corpus._range_cuts(fh.fileno())


def _range_of_lines(path):
    """The byte range each newline-ended line of ``path`` falls in."""
    cuts = _cuts(path)[1:-1]
    starts = np.cumsum([0] + [len(line) + 1 for line in path.read_bytes().split(b"\n")[:-1]])
    return np.searchsorted(cuts, starts[:-1], side="right").tolist()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_ranges_read_alike(monkeypatch, path, most=5):
    """Parsing ``path`` in 2 to ``most`` byte ranges, strict and lenient,
    gives the corpus, the errors and the raised message (line numbers
    included) of the one-range read; return how many parts the range
    readers handed on were taken in."""
    merged = []
    merge = newstag.corpus._Reader.merge

    def counted(self, part):
        merged.append(merge(self, part))
        return merged[-1]

    monkeypatch.setattr(newstag.corpus._Reader, "merge", counted)
    for lenient in (False, True):
        _in_ranges(monkeypatch, 1)
        expected, expected_errors = _outcome(parse_corpus, path, lenient)
        for ranges in range(2, most + 1):
            _in_ranges(monkeypatch, ranges)
            got, got_errors = _outcome(parse_corpus, path, lenient)
            _assert_no_child_left()
            assert got_errors == expected_errors, (path.name, ranges, lenient)
            if isinstance(expected, str):
                assert got == expected, (path.name, ranges, lenient)
            else:
                assert_same_columns(got, expected)
    monkeypatch.setattr(newstag.corpus._Reader, "merge", merge)
    return sum(merged)


def _write_lines(path, lines, ending="\n"):
    """Write ``lines`` with ``ending`` after each; ``"mixed"`` ends them
    with a lone CR, LF and CRLF in turn."""
    endings = ["\r", "\n", "\r\n"] if ending == "mixed" else [ending]
    path.write_bytes(b"".join(
        (line if isinstance(line, bytes) else line.encode("utf-8")) + endings[k % len(endings)].encode("ascii")
        for k, line in enumerate(lines)
    ))
    return path


@pytest.mark.parametrize("ending", ["\n", "\r\n", "mixed"])
def test_ranges_read_the_corpora_above_like_one_stream(tmp_path, monkeypatch, ending):
    if ending == "\n":
        streams = [random_lines(seed) for seed in range(12)] + [random_stream(seed)[0] for seed in range(8)]
        streams += [_stream(line) for line, _ in SKIPPABLE + FATAL]
    else:
        streams = [random_lines(seed) for seed in range(6)] + [random_stream(seed)[0] for seed in range(4)]
    merged = 0
    for k, lines in enumerate(streams):
        merged += _assert_ranges_read_alike(monkeypatch, _write_lines(tmp_path / f"c{k}.jsonl", lines, ending))
    assert merged  # range readers' parts were taken in, not only read again here


def _good_lines(n, tags=("#a",)):
    return [_record(news_id=f"g{k}", posts=[_post(post_id=f"p{k}", hashtags=list(tags))]) for k in range(n)]


BAD_LINES = {
    "json": "{broken",
    "surrogate": _bad(posts=[_post(hashtags=["#b", "\ud800"])]),
    "token": _bad(posts=[_post(hashtags=["#b", 5])]),
    "timestamp": _bad(published_at="2020-02-30T00:00:00Z"),
    "utf8": _bad().encode("ascii").replace(b"#b", b"#b\xff"),
}


@pytest.mark.parametrize("kind", sorted(BAD_LINES))
def test_a_bad_line_in_a_later_range_reads_like_one_stream(tmp_path, monkeypatch, kind):
    places = set()
    for at in (1, 3, 5, 7, 9, 11, 12):
        lines = _good_lines(12)
        lines.insert(at, BAD_LINES[kind])
        path = _write_lines(tmp_path / f"c{at}.jsonl", lines)
        _assert_ranges_read_alike(monkeypatch, path)
        for ranges in (2, 5):
            _in_ranges(monkeypatch, ranges)
            place = _range_of_lines(path)[at]
            places.add("second" if place == 1 else "last" if place == len(_cuts(path)) - 2 else "other")
    assert {"second", "last"} <= places


def test_a_duplicate_id_across_ranges_is_fatal_at_its_line(tmp_path, monkeypatch):
    places = set()
    for first, again in [(0, 11), (2, 9), (6, 11), (10, 11)]:
        lines = _good_lines(12)
        lines[again] = _record(news_id=f"g{first}")
        path = _write_lines(tmp_path / f"c{first}-{again}.jsonl", lines)
        _assert_ranges_read_alike(monkeypatch, path)
        _in_ranges(monkeypatch, 5)
        place = _range_of_lines(path)
        places.add((place[first] > 0, place[again] > place[first]))
        for lenient in (False, True):
            with pytest.raises(CorpusError, match=f"^line {again + 1}: duplicate news id 'g{first}'$"):
                parse_corpus(path, lenient=lenient)
            _assert_no_child_left()
    # an id of this process's range repeated in a child's, and one child's id in another's
    assert {(False, True), (True, True)} <= places


def test_blank_lines_at_a_cut_keep_their_numbers(tmp_path, monkeypatch):
    lines = []
    for line in _good_lines(10):
        lines += [line, "", "  ", ""]
    lines.insert(30, "{broken")
    path = _write_lines(tmp_path / "blank.jsonl", lines)
    _assert_ranges_read_alike(monkeypatch, path)
    data, starts_blank = path.read_bytes(), False
    for ranges in range(2, 6):
        _in_ranges(monkeypatch, ranges)
        starts_blank |= any(data[cut:cut + 1] in (b"\n", b" ") for cut in _cuts(path)[1:-1])
    assert starts_blank


def test_a_token_first_seen_in_a_later_range_keeps_first_appearance_order(tmp_path, monkeypatch):
    lines = _good_lines(3, tags=("#b", "#a")) + [
        _record(news_id=f"late{k}", posts=[_post(post_id=f"q{k}", hashtags=tags)])
        for k, tags in enumerate([["#d", "#a"], ["#c"], ["#D", "#b"], ["#e", "#c"], ["#f"], ["#a"]])
    ]
    path = _write_lines(tmp_path / "late.jsonl", lines)
    assert _assert_ranges_read_alike(monkeypatch, path)
    assert parse_corpus(path).vocabulary == ("b", "a", "d", "c", "e", "f")


def test_a_cut_that_would_leave_an_empty_range_is_dropped(tmp_path, monkeypatch):
    posts = [_post(post_id=f"p{k}", hashtags=[f"#t{k}"]) for k in range(60)]
    path = _write_lines(tmp_path / "long.jsonl", [_record(news_id="long", posts=posts), *_good_lines(6)])
    _in_ranges(monkeypatch, 4)
    assert len(_cuts(path)) - 1 == 2  # all three cut targets fall in the long first line
    assert _assert_ranges_read_alike(monkeypatch, path, most=4)


def test_ranges_of_a_synthetic_corpus_read_like_one_stream(tmp_path, monkeypatch):
    path = tmp_path / "synth.jsonl"
    write_corpus(generate_synthetic(SyntheticParams(hashtags=300, news=200, purity=0.9), 3), path)
    assert _assert_ranges_read_alike(monkeypatch, path) == 2 * (1 + 2 + 3 + 4)


class _Injected(Exception):
    pass


def test_no_reader_is_left_behind(tmp_path, monkeypatch):
    lines = _good_lines(40)
    path = _write_lines(tmp_path / "c.jsonl", lines)
    _in_ranges(monkeypatch, 4)
    assert len(_cuts(path)) == 5
    parse_corpus(path)  # a clean parse
    _assert_no_child_left()
    for at, message in [(2, "^line 3: invalid JSON"), (35, "^line 36: invalid JSON")]:  # the parent's range, a child's
        bad = _write_lines(tmp_path / f"bad{at}.jsonl", [*lines[:at], "{broken", *lines[at:]])
        with pytest.raises(CorpusError, match=message):
            parse_corpus(bad)
        _assert_no_child_left()
    # an exception in this process while it reads its own range
    parent, read = os.getpid(), newstag.corpus._Reader.read

    def interrupted(self, chunk):
        if os.getpid() == parent and chunk[0][0] > 4:
            raise _Injected
        read(self, chunk)

    monkeypatch.setattr(newstag.corpus, "CHUNK_LINES", 2)
    monkeypatch.setattr(newstag.corpus._Reader, "read", interrupted)
    with pytest.raises(_Injected):
        parse_corpus(path)
    _assert_no_child_left()


def test_a_fifo_and_an_iterable_take_one_streamed_read(tmp_path, monkeypatch):
    lines = _good_lines(10)
    _in_ranges(monkeypatch, 4)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert parse_corpus(lines).ids == tuple(f"g{k}" for k in range(10))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=_write_lines, args=(fifo, lines), daemon=True)
    writer.start()
    try:
        assert parse_corpus(fifo).ids == tuple(f"g{k}" for k in range(10))
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()


def test_a_fork_that_warns_or_fails_changes_nothing(tmp_path, monkeypatch):
    path = _write_lines(tmp_path / "c.jsonl", [*_good_lines(20), "{broken", *_good_lines(25)[20:]])
    fork = os.fork

    def warning_fork():
        # what Python 3.12 and later do when a process with other threads forks
        pid = fork()
        if pid:
            warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks", DeprecationWarning)
        return pid

    def failing_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    for patched in (warning_fork, failing_fork):
        monkeypatch.setattr(os, "fork", patched)
        _assert_ranges_read_alike(monkeypatch, path)


# tracemalloc peak of parsing the corpus below from an open file, in MiB:
# 4.50 at the commit before the fast pass took raw tokens (Python 3.11,
# NumPy 2.4), 4.59 after.  The bound allows 20 % over the first.  A fast
# pass that holds a chunk's decoded records peaks at 6.8, one that holds
# every line it was given at 6.1.
STREAMED_PARSE_PEAK_MIB = 4.50 * 1.2


def test_a_streamed_parse_holds_one_chunk_at_a_time(tmp_path):
    # about 1.7 MB in 6,000 lines: three chunks, read as the stream every
    # range reader reads
    params = SyntheticParams(hashtags=2000, news=6000, posts_per_news=(1, 3))
    path = tmp_path / "c.jsonl"
    write_corpus(generate_synthetic(params, 1), path)
    with open(path, encoding="utf-8") as lines:
        tracemalloc.start()
        try:
            corpus = parse_corpus(lines)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(corpus) == 6000
    assert peak / 2**20 < STREAMED_PARSE_PEAK_MIB
