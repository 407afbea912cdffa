"""Soundness of the static race analysis, property-tested.

Random fork-join programs — a ``cilk_for`` whose body does a random mix
of disjoint (``a[i]``), shifted (``a[i+k]``) and shared (``a[k]``)
accesses — are analyzed statically and then executed on the accelerator
with the dynamic checker tracing every shared-memory access. The
property: **no dynamic determinacy race may escape the static analysis**
(``cross_validate(...).sound``). False positives are allowed (the affine
model is conservative); false negatives are analyzer bugs.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.accel import AcceleratorConfig, build_accelerator
from repro.analysis.races import find_races
from repro.frontend import compile_source
from repro.ir.types import I32
from repro.sim.trace import Trace
from tests.oracles.races import cross_validate, race_check

ARRAY_LEN = 8


@st.composite
def body_statements(draw):
    """Random loop-body accesses over a[] — some racy, some not."""
    statements = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["own", "own", "shift", "fixed"]))
        if kind == "own":
            statements.append(f"a[i] = a[i] + {draw(st.integers(1, 9))};")
        elif kind == "shift":
            offset = draw(st.integers(1, 2))
            # neighbour access: races with the adjacent instance
            statements.append(f"a[i] = a[i + {offset}] + 1;")
        else:
            cell = draw(st.integers(0, ARRAY_LEN - 1))
            if draw(st.booleans()):
                statements.append(f"a[{cell}] = a[{cell}] + 1;")
            else:
                statements.append(f"a[i] = a[i] + a[{cell}];")
    return statements


@st.composite
def programs(draw):
    body = "\n        ".join(draw(body_statements()))
    trips = ARRAY_LEN - 2  # keep a[i + 2] in bounds
    return f"""
    func kernel(a: i32*) {{
      cilk_for (var i: i32 = 0; i < {trips}; i = i + 1) {{
        {body}
      }}
    }}
    """


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(source=programs(), seed=st.integers(0, 2**31 - 1))
def test_no_dynamic_race_escapes_the_static_analysis(source, seed):
    module = compile_source(source, "prop_kernel")
    trace = Trace(enabled=True)
    acc = build_accelerator(module, AcceleratorConfig(default_ntiles=2),
                            trace=trace)
    rng_values = [(seed * 7 + i * 13) % 100 for i in range(ARRAY_LEN)]
    base = acc.memory.alloc_array(I32, rng_values)
    acc.run("kernel", [base])

    findings, _unresolved = find_races(acc.design.graph)
    outcome = cross_validate(findings, trace, acc.design.graph)
    assert outcome.sound, (
        "dynamic race missed by the static analysis:\n"
        + "\n".join(c.describe() for c in outcome.missed)
        + f"\nprogram:\n{source}")


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_disjoint_only_programs_are_race_free_both_ways(data):
    """Programs whose instances each touch only a[i] must be statically
    clean AND dynamically conflict-free."""
    count = data.draw(st.integers(1, 3))
    increments = [data.draw(st.integers(1, 9)) for _ in range(count)]
    body = "\n        ".join(f"a[i] = a[i] + {inc};" for inc in increments)
    source = f"""
    func kernel(a: i32*) {{
      cilk_for (var i: i32 = 0; i < {ARRAY_LEN}; i = i + 1) {{
        {body}
      }}
    }}
    """
    module = compile_source(source, "prop_clean")
    trace = Trace(enabled=True)
    acc = build_accelerator(module, AcceleratorConfig(default_ntiles=2),
                            trace=trace)
    base = acc.memory.alloc_array(I32, list(range(ARRAY_LEN)))
    acc.run("kernel", [base])

    findings, _ = find_races(acc.design.graph)
    assert findings == []
    assert race_check(trace) == []
    expected = [v + sum(increments) for v in range(ARRAY_LEN)]
    assert acc.memory.read_array(base, I32, ARRAY_LEN) == expected
