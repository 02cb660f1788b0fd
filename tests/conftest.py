"""The CLI tests start ``python -m newstag`` in subprocesses; put the
source tree on their PYTHONPATH too, as ``pythonpath = ["src"]`` in
pyproject.toml does for the test process itself."""

import os


def pytest_configure(config):
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
