"""Make the repository root importable so tests can share IR builders.

Also points the persistent run registry and the cache root at throwaway
directories: tests exercising ``--stats-json`` / ``repro history`` must
never append to the checkout's real ``results/history/runs.jsonl``, and
the kernel-source mirror and sweep result cache (~19 MB a run) must not
pile up in the developer's ``~/.cache/repro``.
"""

import atexit
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

for _variable in ("REPRO_HISTORY_DIR", "REPRO_CACHE_DIR"):
    if _variable not in os.environ:
        os.environ[_variable] = tempfile.mkdtemp(prefix="repro-test-")
        atexit.register(shutil.rmtree, os.environ[_variable],
                        ignore_errors=True)
