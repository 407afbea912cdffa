"""The ``static_flow`` program corpus and the golden snapshots taken of it.

``tests/analysis/data/ranges_golden.json`` and
``tests/frontend/data/tokens_golden.json`` pin what range inference and
the lexer produced at the parent of the PR that rewrote their inner
loops; the identity tests compare today's output against them value for
value. Regenerate only when a change is *meant* to move a range or a
token::

    PYTHONPATH=src python -m tests.static_corpus
"""

import glob
import json
from pathlib import Path

from repro.accel import generate
from repro.analysis import infer_design_ranges, infer_module_ranges
from repro.errors import LexError
from repro.frontend import compile_source, tokenize
from repro.workloads import REGISTRY, scale_source

ROOT = Path(__file__).resolve().parents[1]
RANGES_GOLDEN = ROOT / "tests" / "analysis" / "data" / "ranges_golden.json"
TOKENS_GOLDEN = ROOT / "tests" / "frontend" / "data" / "tokens_golden.json"

#: the literal / comment / operator / position cases of test_lexer.py
#: and test_corners.py
SNIPPETS = [
    "func foo cilk_for spawn spawned", "0 42 0xFF", "1.5 0.25",
    "<= < << = ==", "->", "a\n  b", "a // comment\nb", "a /* x\ny */ b",
    "func f() -> i32 { return 0xFF + 0x10; }",
    "func f() -> i32 { return -5 * -3; }",
    "func f(a: i64) -> i64 { return a * 1000000 + 7; }",
    "a\t\tb\r\n c /**/ d /*/ */ e // eof", "x1_y 1.5e 0x1fg 12_3 0X1F",
    "a>>=b&&c||!d^e|f&g%h",
]
#: every way the lexer refuses input
BAD_SNIPPETS = [
    "a @ b", "12abc", "0x", "x = 0x;", "a /* never ends",
    "a\n  b /* never\nends", "a\n\tb $", "1.", "x\n = 0xg", "7up",
    "a \f b", "1.2.3",
]


def programs():
    """(name, source, entry) of the 16 ``static_flow`` programs."""
    found = [(w.name, w.source, w.entry) for w in REGISTRY.all()]
    for path in sorted(glob.glob(str(ROOT / "examples/programs/*.cilk"))):
        found.append((Path(path).name, Path(path).read_text(), None))
    for ops in (10, 50):
        found.append((f"scale_micro{ops}", scale_source(ops), "scale"))
    return found


def _span(interval):
    return None if interval is None else [interval.lo, interval.hi]


def ranges_record(ranges):
    """A ``ModuleRanges`` as JSON, keyed by position instead of ``id()``."""
    where = {}
    for function in ranges.module.functions:
        for argument in function.arguments:
            where[argument] = f"{function.name}:arg{argument.index}"
        for b, block in enumerate(function.blocks):
            for i, inst in enumerate(block.instructions):
                where[inst] = f"{function.name}:b{b}:i{i}"
    return {
        "arg_ranges": {f.name: [_span(r) for r in spans]
                       for f, spans in ranges.arg_ranges.items()},
        "ret_ranges": {f.name: _span(r)
                       for f, r in ranges.ret_ranges.items()},
        "value_ranges": {where[v]: _span(r)
                         for v, r in ranges.value_ranges.items()},
        "cell_ranges": {where[c]: _span(r)
                        for c, r in ranges.cell_ranges.items()},
    }


def ranges_snapshot():
    """Both entry modes the toolchain uses, per program: the design-level
    inference ``lint_design``/``RangeChecker`` run and the entry-less
    module-level one of the build gate."""
    snapshot = {}
    for name, source, entry in programs():
        module = compile_source(source, name)
        design = generate(module)
        entry = entry or design.module.functions[0].name
        snapshot[name] = {
            "design": ranges_record(infer_design_ranges(design, entry=entry)),
            "module": ranges_record(infer_module_ranges(design.module)),
        }
    return snapshot


def lex(source):
    """The token stream as rows, or the ``LexError`` that ended it."""
    try:
        return [[t.kind, t.text, t.line, t.column] for t in tokenize(source)]
    except LexError as exc:
        message = str(exc).split(": ", 1)[1]  # drop the "line L:C" prefix
        return {"error": message, "line": exc.line, "column": exc.column}


def tokens_snapshot():
    sources = {name: source for name, source, _entry in programs()}
    sources.update((snippet, snippet) for snippet in SNIPPETS + BAD_SNIPPETS)
    return {name: lex(source) for name, source in sources.items()}


def _write(path, snapshot):
    path.parent.mkdir(exist_ok=True)
    rows = ",\n".join(f"{json.dumps(name)}: {json.dumps(value, sort_keys=True)}"
                      for name, value in snapshot.items())
    path.write_text("{\n" + rows + "\n}\n")


if __name__ == "__main__":
    _write(RANGES_GOLDEN, ranges_snapshot())
    _write(TOKENS_GOLDEN, tokens_snapshot())
