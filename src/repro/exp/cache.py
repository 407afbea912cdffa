"""Content-addressed on-disk result cache.

A sweep point's result is a pure function of (evaluator, point spec,
the program text it compiles, the repro code version). The cache key is
the SHA-256 of exactly that tuple in canonical JSON, so:

* editing a workload's source changes ``program_text`` → new key,
* changing any config field changes the spec → new key,
* editing ANY file under ``src/repro`` changes the code fingerprint →
  every key rolls over (simulator behaviour may have changed; stale
  cycle counts are worse than a cold cache — this is what makes it safe
  for the benchmarks to cache by default),
* a new repro release changes the version → same rollover.

Canonical JSON sorts keys, so the payload opens with the code, evaluator
and program fields, which a sweep repeats across all its points. The
hash state after that head is kept per (code, evaluator, program,
version) and copied per point, which then hashes only its spec and the
version tail: the digest is the one the whole payload gives.

Layout: ``<root>/sweep/<key[:2]>/<key>.json`` — two-level fanout keeps
directories small. Writes are atomic (tmp file + rename), so a killed
sweep never leaves a half-written entry; a corrupted or unreadable
entry is evicted and recomputed, never fatal. A root that cannot be
written raises :class:`~repro.errors.CacheError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro import __version__
from repro.errors import CacheError

#: environment override for the cache root (the CLI's --cache-dir wins)
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over the contents of every ``repro`` source file,
    computed once per process. Folding this into every cache key means
    a result can only ever be replayed by the exact code that produced
    it — local edits between releases cannot serve stale results."""
    global _fingerprint
    if _fingerprint is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint = digest.hexdigest()
    return _fingerprint


#: ``json.dumps`` builds an encoder per call; this one is built once
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              allow_nan=False)


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN. Raises
    ``TypeError`` on non-JSON values — a spec that cannot serialise
    canonically cannot be cached (or shipped to a worker) correctly."""
    return _CANONICAL.encode(obj)


#: how many key heads stay hashed; a sweep compiles a handful of
#: programs, a bench file's evaluators a few more
PREFIX_MEMO_SIZE = 64
#: (code, evaluator, program, version) -> (SHA-256 state after
#: ``{"code":…,"evaluator":…,"program":…,"spec":``, the encoded
#: ``,"version":…}`` tail)
_PREFIXES: Dict[Tuple[str, str, str, str], Tuple[Any, bytes]] = {}


def _key_parts(code: str, evaluator: str, program_text: str,
               version: str) -> Tuple[Any, bytes]:
    """What every key payload of one program shares around its spec."""
    memo = (code, evaluator, program_text, version)
    parts = _PREFIXES.get(memo)
    if parts is None:
        head = canonical_json({"code": code, "evaluator": evaluator,
                               "program": program_text})
        parts = (hashlib.sha256(head[:-1].encode("utf-8") + b',"spec":'),
                 b',"version":' + canonical_json(version).encode("utf-8")
                 + b"}")
        if len(_PREFIXES) >= PREFIX_MEMO_SIZE:
            del _PREFIXES[next(iter(_PREFIXES))]
        _PREFIXES[memo] = parts
    return parts


class ResultCache:
    """Content-addressed store for sweep-point results."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self._entries = os.path.join(self.root, "sweep", "")
        self.hits = 0       # get() served a valid entry
        self.misses = 0     # get() found nothing usable
        self.evictions = 0  # corrupted entries dropped

    # -- keys -------------------------------------------------------------

    def key(self, evaluator: str, spec: Dict[str, Any],
            program_text: str = "") -> str:
        """``sha256(canonical_json({"evaluator", "spec", "program",
        "version", "code"}))``, hashing the program's head once."""
        head, tail = _key_parts(code_fingerprint(), evaluator, program_text,
                                __version__)
        state = head.copy()
        state.update(canonical_json(spec).encode("utf-8"))
        state.update(tail)
        return state.hexdigest()

    def _entry(self, key: str) -> str:
        return f"{self._entries}{key[:2]}{os.sep}{key}.json"

    def path_for(self, key: str) -> Path:
        return Path(self._entry(key))

    # -- entries ----------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached record for ``key``, or None. A missing entry is a
        plain miss; an unreadable one is evicted and reported as a miss
        (it will be recomputed and rewritten)."""
        path = self._entry(key)
        try:
            with open(path, "rb", buffering=0) as fh:
                entry = json.loads(fh.read().decode("utf-8"))
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            entry = None
        if not isinstance(entry, dict) or entry.get("key") != key \
                or "record" not in entry:
            self._evict(path)
            self.misses += 1
            return None
        self.hits += 1
        return entry["record"]

    def counters(self) -> Dict[str, int]:
        """Hit/miss/corruption counters for the sweep telemetry block."""
        return {"hits": self.hits, "misses": self.misses,
                "corruption_evictions": self.evictions}

    def put(self, key: str, record: Dict[str, Any]) -> None:
        """Store ``record`` atomically (tmp + rename: concurrent workers
        racing on the same key both write complete entries, last one
        wins — they are identical by construction). Raises
        :class:`CacheError` when the root cannot hold the entry."""
        path = self._entry(key)
        directory = os.path.dirname(path)
        data = json.dumps({"key": key, "version": __version__,
                           "record": record})
        tmp = None
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(data)
            os.replace(tmp, path)
            tmp = None
        except OSError as exc:
            raise CacheError(f"cannot write the result cache at "
                             f"{self.root}: {exc}") from exc
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def _evict(self, path: str) -> None:
        self.evictions += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    def __repr__(self):
        return f"<ResultCache {self.root}>"
