"""Cache-key invalidation and corruption handling.

The key must move when anything that can change the result moves —
program text, any config field, the repro version — and must NOT move
for identical inputs (that is the whole point of content addressing).
Corrupted entries are evicted and recomputed, never fatal.
"""

import hashlib
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.exp.cache as cache_mod
import repro.fingerprint as fingerprint_mod
from repro.errors import CacheError
from repro.exp import ResultCache, canonical_json
from repro.workloads import REGISTRY

SPEC = {"evaluator": "workload", "workload": "fibonacci",
        "tiles": 2, "scale": 1, "engine": "event"}
NESTED = dict(SPEC, overrides={"cache": {"size_bytes": 4096,
                                         "mshr_count": 2},
                               "memory": {"dram_latency_cycles": 270}})
ODD_TEXT = 'func f() { s = "a\\"b\\\\c"; }\n\t// ü — 中文   \U0001f600\n'


def reference_key(evaluator, spec, program, version, code):
    """The key's definition, spelled out without ``canonical_json``."""
    payload = json.dumps({"evaluator": evaluator, "spec": spec,
                          "program": program, "version": version,
                          "code": code},
                         sort_keys=True, separators=(",", ":"),
                         allow_nan=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path)


def test_identical_inputs_identical_key(cache):
    a = cache.key("workload", dict(SPEC), program_text="func f() {}")
    b = cache.key("workload", dict(SPEC), program_text="func f() {}")
    assert a == b


def test_key_order_insensitive(cache):
    """Canonical JSON sorts keys: dict insertion order is not content."""
    shuffled = dict(reversed(list(SPEC.items())))
    assert cache.key("workload", SPEC) == cache.key("workload", shuffled)


def test_program_text_changes_key(cache):
    a = cache.key("workload", SPEC, program_text="func f() {}")
    b = cache.key("workload", SPEC, program_text="func f() { spawn g(); }")
    assert a != b


def test_any_config_field_changes_key(cache):
    base = cache.key("workload", SPEC)
    for field, value in [("tiles", 4), ("scale", 2), ("engine", "dense"),
                         ("workload", "mergesort")]:
        spec = dict(SPEC)
        spec[field] = value
        assert cache.key("workload", spec) != base, field
    nested = dict(SPEC)
    nested["overrides"] = {"cache": {"size_bytes": 1024}}
    assert cache.key("workload", nested) != base


def test_version_changes_key(cache, monkeypatch):
    a = cache.key("workload", SPEC)
    monkeypatch.setattr(repro.exp.cache, "__version__", "0.0.0-other")
    b = cache.key("workload", SPEC)
    assert a != b


def test_code_fingerprint_changes_key(cache, monkeypatch):
    """Any edit to src/repro rolls every key: a cached cycle count can
    only ever be replayed by the exact code that produced it."""
    a = cache.key("workload", SPEC)
    monkeypatch.setattr(fingerprint_mod, "_fingerprint", "f" * 64)
    b = cache.key("workload", SPEC)
    assert a != b
    assert fingerprint_mod.code_fingerprint() == "f" * 64


def test_code_fingerprint_is_stable_and_hexdigest(monkeypatch):
    monkeypatch.setattr(fingerprint_mod, "_fingerprint", None)
    first = fingerprint_mod.code_fingerprint()
    assert first == fingerprint_mod.code_fingerprint()
    assert len(first) == 64 and int(first, 16) >= 0


def test_evaluator_name_changes_key(cache):
    assert cache.key("workload", SPEC) != cache.key("other", SPEC)


def test_roundtrip(cache):
    key = cache.key("workload", SPEC)
    assert cache.get(key) is None
    cache.put(key, {"value": {"cycles": 123}})
    assert cache.get(key) == {"value": {"cycles": 123}}


def test_corrupted_entry_evicted_not_fatal(cache):
    key = cache.key("workload", SPEC)
    cache.put(key, {"value": 1})
    path = cache.path_for(key)
    path.write_text("{ this is not json", encoding="utf-8")
    assert cache.get(key) is None          # miss, not an exception
    assert not path.exists()               # evicted
    assert cache.evictions == 1
    cache.put(key, {"value": 2})           # recomputed entry lands fine
    assert cache.get(key) == {"value": 2}


def test_wrong_key_entry_evicted(cache):
    """An entry whose recorded key disagrees with its address (e.g. a
    truncated copy) is treated as corruption."""
    key = cache.key("workload", SPEC)
    path = cache.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"key": "deadbeef", "record": {}}),
                    encoding="utf-8")
    assert cache.get(key) is None
    assert cache.evictions == 1


def test_canonical_json_rejects_non_json():
    with pytest.raises(TypeError):
        canonical_json({"bad": object()})
    with pytest.raises(ValueError):
        canonical_json({"bad": float("nan")})


@pytest.mark.parametrize("evaluator, spec, program", [
    ("workload", SPEC, REGISTRY.get("fibonacci").source),
    ("static", dict(SPEC, evaluator="static"),
     REGISTRY.get("fibonacci").source),
    ("workload", NESTED, REGISTRY.get("saxpy").source),
    ("static", NESTED, ""),
    ("workload", SPEC, ""),
    ("workload", dict(SPEC, workload="ü\"\\\n"), ODD_TEXT),
    ("toy", {}, ODD_TEXT),
], ids=["workload", "static", "nested", "static-empty", "empty",
        "odd-spec", "odd-program"])
def test_key_is_the_reference_definition(cache, evaluator, spec, program):
    version = repro.exp.cache.__version__
    code = fingerprint_mod.code_fingerprint()
    assert canonical_json(spec) == json.dumps(
        spec, sort_keys=True, separators=(",", ":"), allow_nan=False)
    for _ in range(2):  # the first call fills the prefix memo, the next reads it
        assert cache.key(evaluator, spec, program) == reference_key(
            evaluator, spec, program, version, code)


def test_key_follows_version_and_fingerprint_past_the_memo(cache,
                                                            monkeypatch):
    """The same instance, the same (evaluator, program) already memoised:
    the key must still be the reference one after either global moves."""
    program = REGISTRY.get("saxpy").source
    code = fingerprint_mod.code_fingerprint()
    assert cache.key("workload", NESTED, program) == reference_key(
        "workload", NESTED, program, repro.__version__, code)
    monkeypatch.setattr(cache_mod, "__version__", "0.0.0-other")
    assert cache.key("workload", NESTED, program) == reference_key(
        "workload", NESTED, program, "0.0.0-other", code)
    monkeypatch.setattr(fingerprint_mod, "_fingerprint", "f" * 64)
    assert cache.key("workload", NESTED, program) == reference_key(
        "workload", NESTED, program, "0.0.0-other", "f" * 64)
    monkeypatch.undo()
    assert cache.key("workload", NESTED, program) == reference_key(
        "workload", NESTED, program, repro.__version__, code)


def test_prefix_memo_stays_bounded(cache):
    code = fingerprint_mod.code_fingerprint()
    for n in range(10_000):
        program = f"func f{n}() {{}}"
        key = cache.key("workload", SPEC, program)
        if n % 997 == 0:
            assert key == reference_key("workload", SPEC, program,
                                        repro.__version__, code)
    assert len(cache_mod._PREFIXES) <= cache_mod.PREFIX_MEMO_SIZE


def test_path_for_is_the_entry_layout(cache, tmp_path):
    key = cache.key("workload", SPEC)
    path = cache.path_for(key)
    assert isinstance(path, Path)
    assert path == tmp_path / "sweep" / key[:2] / (key + ".json")


def test_put_bytes_are_json_dump_bytes(cache):
    record = {"value": {"cycles": 123, "stats": {"ü": [1.5, None, True]},
                        "name": 'a"b\\c\n'}}
    key = cache.key("workload", SPEC)
    cache.put(key, record)
    expected = io.StringIO()
    json.dump({"key": key, "version": repro.__version__, "record": record},
              expected)
    assert cache.path_for(key).read_bytes() == \
        expected.getvalue().encode("utf-8")
    assert [p.name for p in cache.path_for(key).parent.iterdir()] == [
        key + ".json"]


@pytest.mark.parametrize("failure, raised", [
    (OSError(28, "No space left on device"), CacheError),
    (RuntimeError("interrupted"), RuntimeError)])
def test_put_leaves_no_tmp_behind(cache, tmp_path, monkeypatch, failure,
                                  raised):
    def broken_replace(src, dst):
        raise failure

    key = cache.key("workload", SPEC)
    monkeypatch.setattr(cache_mod.os, "replace", broken_replace)
    with pytest.raises(raised):
        cache.put(key, {"value": 1})
    monkeypatch.undo()
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
    assert cache.get(key) is None


def test_put_into_unwritable_root_raises_cache_error(tmp_path):
    """An existing regular file as the root: unwritable even for root."""
    root = tmp_path / "not-a-directory"
    root.write_text("occupied", encoding="utf-8")
    cache = ResultCache(root)
    with pytest.raises(CacheError) as raised:
        cache.put(cache.key("workload", SPEC), {"value": 1})
    message = str(raised.value)
    assert str(root) in message
    assert isinstance(raised.value.__cause__, OSError)
    assert str(raised.value.__cause__) in message
    assert root.read_text(encoding="utf-8") == "occupied"


def _valid_entry(key):
    return json.dumps({"key": key, "version": repro.__version__,
                       "record": {"value": {"name": "X"}}}).encode("utf-8")


@pytest.mark.parametrize("content", [
    lambda key: _valid_entry(key).replace(b"X", b"\xff"),
    lambda key: _valid_entry(key).decode("utf-8").encode("utf-16"),
    lambda key: _valid_entry(key)[:-7],
    lambda key: b"",
    lambda key: b"[1, 2]",
    lambda key: b"null",
    lambda key: json.dumps({"key": "deadbeef", "record": {}}).encode(),
    lambda key: json.dumps({"key": key, "version": "x"}).encode(),
    lambda key: json.dumps({"key": key, "record": []}).encode(),
    lambda key: json.dumps({"key": key, "record": "x"}).encode(),
    lambda key: json.dumps({"key": key, "record": {"nothing": 1}}).encode(),
    lambda key: json.dumps({"key": key, "record": None}).encode(),
], ids=["invalid-utf8", "utf16", "truncated", "empty", "list", "null",
        "wrong-key", "no-record", "record-list", "record-string",
        "record-without-value", "record-null"])
def test_unusable_entry_is_evicted_miss(cache, content):
    key = cache.key("workload", SPEC)
    path = cache.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(content(key))
    assert cache.get(key) is None
    assert cache.counters() == {"hits": 0, "misses": 1,
                                "corruption_evictions": 1}
    assert not path.exists()


def test_missing_entry_is_plain_miss(cache):
    assert cache.get(cache.key("workload", SPEC)) is None
    assert cache.counters() == {"hits": 0, "misses": 1,
                                "corruption_evictions": 0}


def test_directory_at_entry_path_is_miss(cache):
    key = cache.key("workload", SPEC)
    cache.path_for(key).mkdir(parents=True)
    assert cache.get(key) is None
    assert cache.counters() == {"hits": 0, "misses": 1,
                                "corruption_evictions": 1}
    assert cache.path_for(key).is_dir()


def test_valid_entry_is_hit(cache):
    key = cache.key("workload", SPEC)
    path = cache.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(_valid_entry(key))
    assert cache.get(key) == {"value": {"name": "X"}}
    assert cache.counters() == {"hits": 1, "misses": 0,
                                "corruption_evictions": 0}


#: a writer that SIGKILLs itself inside ``ResultCache.put``: part-way
#: through its scratch file, or with the file whole but not yet renamed
_KILLED_WRITER = """
import os, signal, sys
import repro.fingerprint as fingerprint
from repro.exp import ResultCache

root, key, point = sys.argv[1:]


def die(*_args):
    os.kill(os.getpid(), signal.SIGKILL)


class TornFile:
    def __init__(self, *args, **kwargs):
        self.handle = open(*args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.handle.__exit__(*exc)

    def write(self, text):
        self.handle.write(text[:len(text) // 2])
        self.handle.flush()
        die()


if point == "mid-write":
    fingerprint.open = TornFile
else:
    os.replace = die
ResultCache(root).put(key, {"value": {"cycles": 2}})
"""


@pytest.mark.parametrize("previous", [None, {"value": {"cycles": 1}}],
                         ids=["empty", "previous-entry"])
@pytest.mark.parametrize("point", ["mid-write", "before-replace"])
def test_writer_killed_inside_put(cache, tmp_path, point, previous):
    """A writer killed inside ``put`` leaves the entry as it was: a later
    ``get`` serves the previous record whole or counts a plain miss, the
    orphaned ``<key>.json.<pid>.tmp`` is never served, and a fresh
    ``put``/``get`` round-trips."""
    key = cache.key("workload", SPEC)
    if previous is not None:
        cache.put(key, previous)
    src = str(Path(repro.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-c", _KILLED_WRITER, str(tmp_path), key, point],
        env=dict(os.environ, PYTHONPATH=src), stderr=subprocess.PIPE,
        text=True)
    _out, err = child.communicate(timeout=60)
    assert child.returncode == -signal.SIGKILL, err
    entry = cache.path_for(key)
    orphan = Path(f"{entry}.{child.pid}.tmp")
    written = json.dumps({"key": key, "version": repro.__version__,
                          "record": {"value": {"cycles": 2}}})
    expected = written[:len(written) // 2] if point == "mid-write" \
        else written
    assert orphan.read_text(encoding="utf-8") == expected

    assert cache.get(key) == previous
    hit = previous is not None
    assert cache.counters() == {"hits": int(hit), "misses": int(not hit),
                                "corruption_evictions": 0}
    cache.put(key, {"value": {"cycles": 3}})
    assert ResultCache(tmp_path).get(key) == {"value": {"cycles": 3}}


def test_fingerprint_covers_analysis_package(tmp_path, monkeypatch):
    """Regression for the static-analysis layer: editing any file under
    src/repro/analysis/ (here: lint.py) must move the code fingerprint,
    and with it every cache key — stale sweep results cannot survive a
    lint-rule change."""
    import shutil

    copy = tmp_path / "repro"
    shutil.copytree(Path(fingerprint_mod.__file__).resolve().parent, copy)
    monkeypatch.setattr(fingerprint_mod, "__file__",
                        str(copy / "fingerprint.py"))

    monkeypatch.setattr(fingerprint_mod, "_fingerprint", None)
    before = fingerprint_mod.code_fingerprint()

    lint = copy / "analysis" / "lint.py"
    assert lint.exists()  # the analysis package is inside the covered tree
    lint.write_text(lint.read_text(encoding="utf-8") + "\n# edited\n",
                    encoding="utf-8")

    monkeypatch.setattr(fingerprint_mod, "_fingerprint", None)
    after = fingerprint_mod.code_fingerprint()
    assert before != after
