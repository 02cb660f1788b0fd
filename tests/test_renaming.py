"""Language independence, as a metamorphic relation: renaming every
hashtag into another script changes no experiment artifact.

The vocabulary follows first appearance, and nothing downstream reads a
hashtag's spelling, so mapping every hashtag through an injection into
Cyrillic and CJK must leave the ``run``, ``grid-mu``, sweep, ``ablate``
and convergence artifacts byte-identical, and the case study and
``export`` must write the same files once the names are mapped back.  The map has to
commute with ``normalize_hashtag``, which folds some letters into others
(``ß`` to ``ss``, a final ``Σ`` to ``σ``); the test checks that it does
on every raw token it renames.
"""

import json
import string

import numpy as np
import pytest

from newstag.cli import main
from newstag.corpus import normalize_hashtag, write_corpus
from newstag.synth import SyntheticParams, generate_synthetic

# ASCII letters to Cyrillic ones of the same case, digits to CJK ideographs;
# '#' and '-' stay.  A character-wise map of equal-length strings is injective.
RENAME = {
    **{c: chr(0x430 + k) for k, c in enumerate(string.ascii_lowercase)},
    **{c: chr(0x410 + k) for k, c in enumerate(string.ascii_uppercase)},
    **{c: chr(0x4E00 + k) for k, c in enumerate(string.digits)},
}
TO_OTHER_SCRIPT = str.maketrans(RENAME)
BACK = str.maketrans({v: k for k, v in RENAME.items()})

# every artifact each command writes lands in its working directory
COMMANDS = [
    ["run", "--repetitions", "2", "--seed", "5", "--out", "report.json", "--predictions-out", "preds.csv"],
    ["grid-mu", "--repetitions", "2", "--grid", "0.2,0.6", "--out", "grid.csv"],
    ["sweep-volume", "--repetitions", "2", "--fractions", "0.5,0.8", "--out", "volume.csv"],
    ["sweep-time", "--repetitions", "2", "--horizons", "12,30", "--out", "time.csv"],
    ["ablate", "--repetitions", "2", "--out", "ablate.json"],
    ["analyze", "--kind", "convergence", "--k2", "8", "--out", "conv.csv"],
    ["analyze", "--kind", "case-study", "--watchlist", "f0001,t0002,nosuchtag", "--out", "case.csv"],
    ["export", "--k1", "4", "--edges-out", "edges.tsv", "--nodes-out", "nodes.tsv", "--dot-out", "g.dot"],
]
# the files that name hashtags
NAMING = {"corpus.jsonl", "case.csv", "case.csv.config.json", "edges.tsv", "nodes.tsv", "g.dot"}


def spelled_corpus(tmp_path, seed: int, params: SyntheticParams) -> list[dict]:
    """A synthetic corpus whose raw tokens vary in case and '#' prefix."""
    path = tmp_path / f"synth-{seed}.jsonl"
    write_corpus(generate_synthetic(params, seed), path)
    rng = np.random.default_rng(seed)
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for record in records:
        for post in record["posts"]:
            post["hashtags"] = [
                [tag, "#" + tag, tag.upper(), "＃" + tag.upper()][int(rng.integers(4))] for tag in post["hashtags"]
            ]
    return records


def write_records(records, path) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")


def run_all(directory, monkeypatch, names) -> dict[str, bytes]:
    """Every file in ``directory`` once each command has run there, with
    the case study's watchlist translated by ``names``."""
    monkeypatch.chdir(directory)
    for args in COMMANDS:
        args = [arg.translate(names) if args[k - 1] == "--watchlist" else arg for k, arg in enumerate(args)]
        assert main([*args, "--input", "corpus.jsonl"]) == 0, args
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def text(name: str, data: bytes) -> str:
    """A file's text, with JSON's escapes of non-ASCII names undone."""
    if name.endswith(".json"):
        return json.dumps(json.loads(data), ensure_ascii=False, indent=2, sort_keys=True)
    return data.decode("utf-8")


@pytest.mark.parametrize("seed, params", [
    (1, SyntheticParams(hashtags=60, news=40, purity=0.9, posts_per_news=(2, 5))),
    (2, SyntheticParams(hashtags=80, news=50, purity=0.65, chain_depth=2, chains=3)),
])
def test_renaming_every_hashtag_into_another_script_changes_no_artifact(tmp_path, monkeypatch, seed, params):
    records = spelled_corpus(tmp_path, seed, params)
    raw_tokens = {tag for r in records for post in r["posts"] for tag in post["hashtags"]}
    # the map commutes with normalization and stays injective on the vocabulary
    vocabulary = {normalize_hashtag(tag) for tag in raw_tokens}
    for tag in raw_tokens:
        assert normalize_hashtag(tag.translate(TO_OTHER_SCRIPT)) == normalize_hashtag(tag).translate(TO_OTHER_SCRIPT)
    renamed_vocabulary = {name.translate(TO_OTHER_SCRIPT) for name in vocabulary}
    assert len(renamed_vocabulary) == len(vocabulary)
    assert all(not name.isascii() and name.translate(BACK).isascii() for name in renamed_vocabulary)

    original, renamed = tmp_path / "original", tmp_path / "renamed"
    original.mkdir()
    renamed.mkdir()
    write_records(records, original / "corpus.jsonl")
    for r in records:
        for post in r["posts"]:
            post["hashtags"] = [tag.translate(TO_OTHER_SCRIPT) for tag in post["hashtags"]]
    write_records(records, renamed / "corpus.jsonl")

    expected = run_all(original, monkeypatch, {})
    got = run_all(renamed, monkeypatch, TO_OTHER_SCRIPT)
    assert got.keys() == expected.keys()
    for name, data in expected.items():
        if name in NAMING:
            assert text(name, got[name]).translate(BACK) == text(name, data), name
        else:
            assert got[name] == data, name
