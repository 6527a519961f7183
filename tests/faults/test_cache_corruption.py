"""On-disk cache corruption: damaged entries miss and are removed.

The cache's promise under fault is *integrity, not availability*: a
bit-flipped or truncated entry file may cost a recomputation, but it
must never be served as a result.
"""

from __future__ import annotations

import json

import pytest

from repro.core.engine import EngineLimits
from repro.faults import plane
from repro.faults.plane import FaultSchedule, PlannedFault
from repro.obs import recorder as obs
from repro.serve.cache import ENTRY_FORMAT, ResultCache, entry_checksum


def _store(cache: ResultCache, key: str = "k1") -> None:
    cache.store(key, "ladder", EngineLimits(), {"confidence": "exact", "answer": 42})


def _fresh(directory) -> ResultCache:
    """A cold cache over the same directory (disk-only state)."""
    return ResultCache(directory)


def test_clean_roundtrip_survives_reload(tmp_path):
    cache = ResultCache(tmp_path)
    _store(cache)
    reloaded = _fresh(tmp_path)
    entry = reloaded.lookup("k1")
    assert entry is not None and entry["result"]["answer"] == 42


def test_bit_flipped_entry_misses_and_evicts(tmp_path):
    cache = ResultCache(tmp_path)
    _store(cache)
    path = tmp_path / "k1.json"
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    with obs.recording():
        assert _fresh(tmp_path).lookup("k1") is None
        counters = dict(obs.active_recorder().counters)
    assert counters["serve.cache.corrupt_evictions"] >= 1
    assert not path.exists(), "corrupt entry must be removed from disk"


def test_truncated_entry_misses_and_evicts(tmp_path):
    cache = ResultCache(tmp_path)
    _store(cache)
    path = tmp_path / "k1.json"
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 3])
    with obs.recording():
        assert _fresh(tmp_path).lookup("k1") is None
        counters = dict(obs.active_recorder().counters)
    assert counters["serve.cache.corrupt_evictions"] >= 1
    assert not path.exists()


def test_checksum_mismatch_on_tampered_result(tmp_path):
    """Valid JSON with a silently edited result is the nastiest case —
    only the checksum layer can catch it."""
    cache = ResultCache(tmp_path)
    _store(cache)
    path = tmp_path / "k1.json"
    entry = json.loads(path.read_text())
    entry["result"]["answer"] = 43  # tampered, checksum now stale
    path.write_text(json.dumps(entry, sort_keys=True))
    with obs.recording():
        assert _fresh(tmp_path).lookup("k1") is None
        counters = dict(obs.active_recorder().counters)
    assert counters["serve.cache.corrupt_evictions"] >= 1


def test_old_format_version_skipped_not_deleted(tmp_path):
    """A pre-checksum entry (format /1) is not corruption — it is
    skipped without eviction so a rollback can still read it."""
    cache = ResultCache(tmp_path)
    _store(cache)
    path = tmp_path / "k1.json"
    entry = json.loads(path.read_text())
    entry["format"] = "repro-serve-cache/1"
    path.write_text(json.dumps(entry, sort_keys=True))
    with obs.recording():
        assert _fresh(tmp_path).lookup("k1") is None
        counters = dict(obs.active_recorder().counters)
    assert counters.get("serve.cache.corrupt_evictions", 0) == 0
    assert counters["serve.cache.index_skipped"] >= 1
    assert path.exists()


def test_checksum_is_over_canonical_content(tmp_path):
    cache = ResultCache(tmp_path)
    _store(cache)
    entry = json.loads((tmp_path / "k1.json").read_text())
    assert entry["format"] == ENTRY_FORMAT
    assert entry["checksum"] == entry_checksum(entry)


def test_injected_read_corruption_never_serves(tmp_path):
    """The fault-plane path: pristine disk bytes, corrupted in flight."""
    cache = ResultCache(tmp_path)
    _store(cache)
    schedule = FaultSchedule(
        [PlannedFault("cache.read.corrupt", hit=1, count=1, arg=0.3)], label="t"
    )
    with obs.recording():
        with plane.engaged(schedule):
            assert _fresh(tmp_path).lookup("k1") is None
        counters = dict(obs.active_recorder().counters)
    assert counters["serve.cache.corrupt_evictions"] >= 1


@pytest.mark.parametrize(
    "payload",
    [b"", b"not json at all", b"[1, 2, 3]", b'{"foRmat": "repro-serve-cache/2"}'],
)
def test_unparseable_shapes_evict(tmp_path, payload):
    cache = ResultCache(tmp_path)
    _store(cache)
    path = tmp_path / "k1.json"
    path.write_bytes(payload)
    with obs.recording():
        assert _fresh(tmp_path).lookup("k1") is None
    assert not path.exists()
