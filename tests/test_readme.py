"""Every ``python`` block of README.md runs as written, and so does
every command of its CLI example; replaying the example's config echoes
writes the same files, byte for byte."""

import re
import shlex
from pathlib import Path

import pytest

from newstag.cli import main
from newstag.corpus import write_corpus
from newstag.synth import SyntheticParams, generate_synthetic

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, tmp_path, monkeypatch):
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.9), seed=1)
    write_corpus(corpus, tmp_path / "corpus.jsonl")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_cli_example_runs(tmp_path, monkeypatch):
    # the sh block holding "newstag synth", one command per line
    block = next(b for b in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S) if "newstag synth" in b)
    commands = [
        shlex.split(line) for line in map(str.strip, block.replace("\\\n", " ").splitlines())
        if line and not line.startswith("#")
    ]
    assert [words[0] for words in commands] == ["newstag"] * len(commands)
    run, replay = tmp_path / "run", tmp_path / "replay"
    run.mkdir()
    replay.mkdir()
    monkeypatch.chdir(run)
    for words in commands:
        assert main(words[1:]) == 0, words
    # Replay, in README order and in a second directory, the echo of every
    # command that writes one next to its output. The echoes hold relative
    # paths, so each replay reads what an earlier one wrote there.
    monkeypatch.chdir(replay)
    for words in commands:
        outs = [words[k + 1] for k, word in enumerate(words) if word in ("--out", "--edges-out")]
        if outs:
            assert main([words[1], "--config", str(run / f"{outs[0]}.config.json")]) == 0, words
    names = sorted(path.name for path in run.iterdir())
    assert sorted(path.name for path in replay.iterdir()) == names
    for name in names:
        assert (replay / name).read_bytes() == (run / name).read_bytes(), name
