"""The ``repro`` source fingerprint and the cache root, which key and
hold every on-disk artifact: a leaf module, so the kernel codegen reaches
them without importing the sweep stack of :mod:`repro.exp`."""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Optional

#: environment override for the cache root (the CLI's --cache-dir wins)
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else Path.home() / ".cache" / "repro"


_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over the contents of every ``repro`` source file,
    computed once per process. Folding this into every cache key means
    a result can only ever be replayed by the exact code that produced
    it — local edits between releases cannot serve stale results."""
    global _fingerprint
    if _fingerprint is None:
        root = Path(__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint = digest.hexdigest()
    return _fingerprint
