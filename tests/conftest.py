"""Make the repository root importable so tests can share IR builders.

Also points the cache root at a throwaway directory: the kernel-source
mirror and sweep result cache (~19 MB a run) must not pile up in the
developer's ``~/.cache/repro``.
"""

import atexit
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

if "REPRO_CACHE_DIR" not in os.environ:
    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="repro-test-")
    atexit.register(shutil.rmtree, os.environ["REPRO_CACHE_DIR"],
                    ignore_errors=True)
