"""The optimiser's corpus and the golden digests taken of it.

``tests/passes/data/optimized_ir.json`` holds ``sha256(print_module(m))``
of every module below after ``optimize_module``, as produced by the
four-pass fixpoint optimiser (fold, block-local CSE, GVN, DCE) that the
single value-numbering walk replaced; ``test_optimize.py`` holds today's
output to it byte for byte. Regenerate only when a change is *meant* to
move optimised IR::

    PYTHONPATH=src python -m tests.passes.optimize_corpus
"""

import glob
import hashlib
import json
from pathlib import Path

from repro.frontend import compile_source
from repro.ir import Function, IRBuilder, Module, const, print_module
from repro.ir.types import I32, VOID, ptr
from repro.passes import optimize_module
from repro.workloads import REGISTRY, scale_source

from tests.irprograms import (
    build_fib_module,
    build_matrix_add_module,
    build_scale_module,
    build_serial_sum_module,
)

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "passes" / "data" / "optimized_ir.json"


def build_unreachable_module() -> Module:
    """A function with a block no edge reaches. The dominator walk never
    visits it, so it is optimised on its own with an empty table: its
    constant op folds, its duplicate pair is shared, its use of a
    reachable value that GVN replaced follows the replacement, and its
    copy of a reachable expression is *not* shared with the original."""
    m = Module("unreachable")
    f = Function("f", [I32, ptr(I32)], ["x", "p"], VOID)
    m.add_function(f)
    x, p = f.arguments
    entry, next_, dead = (f.add_block(n) for n in ("entry", "next", "dead"))
    b = IRBuilder(entry)
    b.store(b.add(x, const(1)), p)
    b.br(next_)
    b.position_at_end(next_)
    again = b.add(x, const(1))               # GVN: becomes entry's add
    b.store(again, p)
    b.ret()
    b.position_at_end(dead)
    k = b.mul(const(2), const(3))            # folds to 6
    b.add(x, k)
    d2 = b.add(x, k)                         # shared with the add above
    b.store(b.add(again, d2), p)             # follows again -> entry's add
    b.store(b.add(x, const(1)), p)           # no table: stays
    b.ret()
    return m


def modules():
    """(name, fresh unoptimised module) for the 23 corpus entries."""
    found = [(w.name, w.fresh_module) for w in REGISTRY.all()]
    for path in sorted(glob.glob(str(ROOT / "examples/programs/*.cilk"))):
        name = Path(path).name
        found.append((name, lambda path=path, name=name: compile_source(
            Path(path).read_text(), name)))
    for ops in (10, 20, 30, 50):
        found.append((f"scale_micro{ops}", lambda ops=ops: compile_source(
            scale_source(ops), f"scale_micro{ops}")))
    for builder in (build_scale_module, build_matrix_add_module,
                    build_fib_module, build_serial_sum_module,
                    build_unreachable_module):
        found.append((builder.__name__, builder))
    return found


def digest(module: Module) -> str:
    optimize_module(module)
    return hashlib.sha256(print_module(module).encode("utf-8")).hexdigest()


def snapshot():
    return {name: digest(build()) for name, build in modules()}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(snapshot(), indent=1) + "\n")
