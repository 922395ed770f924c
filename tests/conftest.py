"""CLI runs in subprocesses import kakeyagf from the tree the tests import."""

import os
from pathlib import Path

import pytest

import kakeyagf

SRC = str(Path(kakeyagf.__file__).resolve().parents[1])


@pytest.fixture(autouse=True)
def _kakeyagf_on_child_path(monkeypatch):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    monkeypatch.setenv("PYTHONPATH", path)
