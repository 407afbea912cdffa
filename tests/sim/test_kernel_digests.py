"""Kernel texts are a pure function of the design.

A compiled kernel is cached in-process under the sha256 of its text
(``sim/compile.py``), so the text must not depend on what the process
happened to derive before, nor on its hash seed. Both are checked as
:func:`tests.sim.grid_corpus.module_digests` dumps.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro.sim.compile as kernel_compiler
import repro.sim.derive as derive
from repro.workloads import REGISTRY

from tests.sim.grid_corpus import FORMS, module_digests

ROOT = Path(__file__).resolve().parents[2]


def test_cold_derivation_writes_the_warm_texts():
    """With every derivation cache cleared -- the class templates, the
    stored-attribute sets, the parsed definitions, the opsem expressions
    and their plans -- the first texts equal those of warm derivation."""
    forms = [(name, 2, "default", form)
             for name in REGISTRY.names() for form in FORMS]
    before = module_digests(forms)
    derive._TEMPLATES.clear()
    derive._STORED.clear()
    derive._defs.cache_clear()
    derive.expression.cache_clear()
    kernel_compiler._PLANS.clear()
    cold = module_digests(forms)
    assert cold == before
    assert module_digests(forms) == cold


def test_every_process_writes_the_same_texts():
    """Two fresh processes with hash seeds 0 and 1 write the same texts
    for every workload at 1 and 4 tiles, plain and observed."""
    forms = [(name, tiles, "default", form) for name in REGISTRY.names()
             for tiles in (1, 4) for form in ("plain", "observed")]
    script = ("import json, sys\n"
              "from tests.sim.grid_corpus import module_digests\n"
              "forms = [tuple(form) for form in json.loads(sys.argv[1])]\n"
              "print(json.dumps(module_digests(forms)))\n")
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    runs = [subprocess.Popen(
        [sys.executable, "-c", script, json.dumps(forms)], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for seed in ("0", "1")]
    outputs = [run.communicate(timeout=120) for run in runs]
    for run, (_out, err) in zip(runs, outputs):
        assert run.returncode == 0, err
    first, second = (json.loads(out) for out, _err in outputs)
    assert len(first) == len(forms)
    assert first == second
