"""Every ``python`` block of README.md runs as written."""

import re
from pathlib import Path

import pytest

from newstag.corpus import write_corpus
from newstag.synth import SyntheticParams, generate_synthetic

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, tmp_path, monkeypatch):
    corpus = generate_synthetic(SyntheticParams(hashtags=60, news=40, purity=0.9), seed=1)
    write_corpus(corpus, tmp_path / "corpus.jsonl")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
