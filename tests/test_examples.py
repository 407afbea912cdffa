"""Every ``examples/*.py`` walkthrough runs to completion as a script."""

import glob
import os
import runpy

import pytest

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "*.py")))
assert EXAMPLES, "examples/*.py not found"  # an empty list would just skip


@pytest.mark.parametrize(
    "path", EXAMPLES,
    ids=[os.path.splitext(os.path.basename(p))[0] for p in EXAMPLES])
def test_example_runs(path, capsys):
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out.strip(), "example printed nothing"
