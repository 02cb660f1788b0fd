"""Every module of the package parses as the oldest Python that
pyproject.toml declares, so newer syntax fails here and not first on an
old interpreter.  ``feature_version`` is best effort: the parser rejects
most syntax newer than the version it is given, not all of it."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = re.search(r'^requires-python = ">=3\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
SOURCES = sorted((ROOT / "src" / "newstag").glob("*.py"))


def test_sources_found():
    assert FLOOR and len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_parses_at_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, int(FLOOR[1])))
