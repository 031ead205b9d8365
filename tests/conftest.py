"""Fixtures, helpers and inputs shared by the CLI test modules."""

import os
from pathlib import Path

import pytest

import shiftmeasure

# The characteristic measure of the orbit of a b, at depth 2.
MEASURE_AB = "!alphabet a b\n!depth 2\n!mass 2\na\t1\nb\t1\na b\t1\nb a\t1\n"


def _subprocess_env(**extra):
    """Environment for a CLI subprocess that imports the package under test."""
    src = str(Path(shiftmeasure.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    path = src + os.pathsep + inherited if inherited else src
    return {**os.environ, "PYTHONPATH": path, **extra}


@pytest.fixture
def files(tmp_path):
    def put(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return put
