"""The Fig 12 scalability microbenchmark: a parallel loop of tiny tasks.

§V-A varies the work per task ("10 adders" ... "50 adders") and the
number of worker tiles to measure spawn-rate scaling (Fig 13) and
resource utilisation (Table III / Fig 14)."""

from __future__ import annotations

from repro.ir.types import I32
from repro.workloads.base import PreparedRun, Workload


def scale_source(work_ops: int) -> str:
    """Generate the microbenchmark with ``work_ops`` chained adders —
    a pure dataflow add chain, like the paper's "10 adders ... 50 adders"."""
    chain = " + 1" * max(1, work_ops)
    return f"""
    func scale(a: i32*, n: i32) {{
      cilk_for (var i: i32 = 0; i < n; i = i + 1) {{
        a[i] = a[i]{chain};
      }}
    }}
    """


class ScaleMicro(Workload):
    name = "scale_micro"
    entry = "scale"
    challenge = "Fine-grain tasks"
    memory_pattern = "Regular"
    paper_tiles = 1

    def __init__(self, work_ops: int = 10):
        self.work_ops = work_ops
        self.source = scale_source(work_ops)

    def default_n(self, scale: int) -> int:
        return 64 * scale

    def prepare(self, memory, scale: int = 1) -> PreparedRun:
        n = self.default_n(scale)
        data = list(range(n))
        expected = [v + self.work_ops for v in data]
        base = memory.alloc_array(I32, data)

        def check(mem, _retval):
            return mem.read_array(base, I32, n) == expected

        return PreparedRun(self.entry, [base, n], check,
                           work_items=n * self.work_ops)
