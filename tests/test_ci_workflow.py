"""The CI workflow stays a list of commands: checks live in tier-1.

Plain text checks (no YAML dependency). A shell loop or inline Python in
a ``run:`` block is an assertion no developer runs locally — it belongs
in a test under ``tests/``, which CI then runs with everything else.
"""

import os
import re

WORKFLOW = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".github", "workflows", "ci.yml")


def _lines():
    with open(WORKFLOW) as handle:
        return handle.read().splitlines()


def _run_blocks(lines):
    """The text of every ``run:`` value, continuation lines included."""
    blocks = []
    for number, line in enumerate(lines):
        match = re.match(r"(\s*)(?:- )?run:(.*)", line)
        if match is None:
            continue
        block = [match.group(2)]
        for later in lines[number + 1:]:
            indent = len(later) - len(later.lstrip())
            if later.strip() and indent <= len(match.group(1)):
                break
            block.append(later)
        blocks.append("\n".join(block).strip())
    return blocks


def test_workflow_is_four_short_jobs():
    lines = _lines()
    assert len(lines) <= 100
    jobs = [line.strip()[:-1] for line in lines[lines.index("jobs:") + 1:]
            if re.fullmatch(r"  [\w-]+:", line)]
    assert jobs == ["test", "lint-python", "e2e-smoke", "benches"]


def test_every_run_block_is_one_plain_command():
    blocks = _run_blocks(_lines())
    assert len(blocks) >= 8  # the parser above found them
    for block in blocks:
        assert "\n" not in block and block[0] not in "|>", block
        for construct in ("python -c", "<<", "for ", "case ", "&&", "||",
                          ";"):
            assert construct not in block, (construct, block)
