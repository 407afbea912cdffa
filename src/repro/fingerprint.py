"""The ``repro`` source fingerprint, the cache root and the atomic file
writer, which key, hold and write the result cache and the trace export:
a leaf module, so the Perfetto exporter reaches the writer without
importing the sweep stack of :mod:`repro.exp`."""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Optional, Union

#: environment override for the cache root (the CLI's --cache-dir wins)
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else Path.home() / ".cache" / "repro"


@contextmanager
def atomic_writer(path: Union[str, Path]) -> Iterator[IO[str]]:
    """A text handle whose contents replace ``path`` once the block exits
    cleanly. It writes a sibling scratch file that is renamed into place,
    so a failed write leaves the previous file (if any), never a torn one.
    The scratch name carries the process id, so processes racing on one
    path each rename a complete file; unlike ``mkstemp``'s 0600, the file
    gets the mode the umask gives."""
    scratch = f"{path}.{os.getpid()}.tmp"
    try:
        with open(scratch, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(scratch, path)
    finally:
        if os.path.exists(scratch):  # the write failed part-way
            os.unlink(scratch)


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
