"""TAPAS reproduction: generating parallel accelerators from parallel programs.

Reproduction of Margerm et al., *TAPAS: Generating Parallel Accelerators
from Parallel Programs* (MICRO 2018). The three front doors:

>>> from repro import compile_source, build_accelerator
>>> module = compile_source("func f(x: i32) -> i32 { return x + 1; }")
>>> accel = build_accelerator(module)
>>> accel.run("f", [41]).retval
42

See README.md for the architecture tour, DESIGN.md for the system
inventory and EXPERIMENTS.md for the paper-vs-measured results.
"""

from repro.accel import (
    Accelerator,
    AcceleratorConfig,
    HostProgram,
    TaskUnitParams,
    build_accelerator,
    generate,
)
from repro.frontend import compile_source
from repro.ir import print_module

__version__ = "1.2.0"

__all__ = [
    "Accelerator", "AcceleratorConfig", "HostProgram", "TaskUnitParams",
    "build_accelerator", "generate", "compile_source", "print_module",
    "__version__",
]
