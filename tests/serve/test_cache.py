"""The content-addressed result cache: keying soundness, durability,
the LRU mirror, and entries written by older builds of the format."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import cfg_fingerprint
from repro.core.driver import analyze_with_fallback
from repro.core.engine import EngineLimits
from repro.corpus.generator import generate
from repro.lang import parse
from repro.lang.cfg import build_cfg
from repro.serve.cache import (
    ENTRY_FORMAT,
    ResultCache,
    canonical_limits,
    compute_key,
    entry_checksum,
    render_report,
)


def _fingerprint(seed: int) -> str:
    return cfg_fingerprint(build_cfg(parse(generate(seed).source)))


class TestCacheKeySoundness:
    """Distinct analysis questions must get distinct keys — a collision
    would serve one program's answer for another."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_key_is_deterministic(self, seed):
        limits = EngineLimits(deadline_sec=5.0)
        fp = _fingerprint(seed)
        assert compute_key(fp, "ladder", limits) == compute_key(fp, "ladder", limits)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=1, max_value=5_000),
    )
    def test_distinct_programs_never_collide(self, seed_a, delta):
        seed_b = seed_a + delta
        fp_a, fp_b = _fingerprint(seed_a), _fingerprint(seed_b)
        limits = EngineLimits()
        key_a = compute_key(fp_a, "ladder", limits)
        key_b = compute_key(fp_b, "ladder", limits)
        if fp_a == fp_b:
            # structurally identical generations legitimately share a key
            assert key_a == key_b
        else:
            assert key_a != key_b

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=5_000),
        st.sampled_from(["max_steps", "deadline_sec", "max_state_bytes", "max_psets"]),
    )
    def test_changed_limits_change_the_key(self, seed, knob):
        fp = _fingerprint(seed)
        base = EngineLimits(deadline_sec=10.0, max_state_bytes=1 << 20)
        changed = {
            "max_steps": EngineLimits(max_steps=base.max_steps * 2,
                                      deadline_sec=10.0, max_state_bytes=1 << 20),
            "deadline_sec": EngineLimits(deadline_sec=20.0, max_state_bytes=1 << 20),
            "max_state_bytes": EngineLimits(deadline_sec=10.0, max_state_bytes=1 << 21),
            "max_psets": EngineLimits(deadline_sec=10.0, max_state_bytes=1 << 20,
                                      max_psets=base.max_psets + 1),
        }[knob]
        assert compute_key(fp, "ladder", base) != compute_key(fp, "ladder", changed)

    def test_changed_ladder_changes_the_key(self):
        fp = _fingerprint(0)
        limits = EngineLimits()
        assert compute_key(fp, "default", limits) != compute_key(fp, "baseline", limits)


class TestResultCache:
    def _store_one(self, cache, seed=3, limits=None):
        limits = limits or EngineLimits()
        program = parse(generate(seed).source)
        fp = cfg_fingerprint(build_cfg(program))
        report = analyze_with_fallback(program, limits=limits)
        key = compute_key(fp, "ladder", limits)
        cache.store(key, "ladder", limits, render_report(report))
        return key, fp

    def test_store_then_lookup(self, tmp_path):
        cache = ResultCache(tmp_path)
        key, _fp = self._store_one(cache)
        entry = cache.lookup(key)
        assert entry is not None
        assert entry["result"]["confidence"] in ("exact", "partial", "gave_up")

    def test_lookup_survives_restart(self, tmp_path):
        cache = ResultCache(tmp_path)
        key, _fp = self._store_one(cache)
        reborn = ResultCache(tmp_path)
        assert reborn.lookup(key) is not None

    def test_malformed_entry_files_are_skipped(self, tmp_path):
        cache = ResultCache(tmp_path)
        key, _fp = self._store_one(cache)
        (tmp_path / "garbage.json").write_text("{not json")
        (tmp_path / "wrong.json").write_text(json.dumps({"format": "other/1"}))
        reborn = ResultCache(tmp_path)
        assert reborn.lookup(key) is not None
        assert reborn.lookup("missing") is None

    def test_lru_eviction_falls_back_to_disk(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=1)
        key_a, _ = self._store_one(cache, seed=3)
        key_b, _ = self._store_one(cache, seed=4)
        # key_a was dropped from the mirror but must still hit via disk
        assert cache.lookup(key_a) is not None
        assert cache.lookup(key_b) is not None

    def test_entry_format_is_versioned(self, tmp_path):
        cache = ResultCache(tmp_path)
        key, _fp = self._store_one(cache)
        document = json.loads((tmp_path / f"{key}.json").read_text())
        assert document["format"] == ENTRY_FORMAT
        assert document["key"] == key

    def test_entry_in_the_older_layout_still_hits_after_restart(self, tmp_path):
        """Entries of this format written before the warm-start fields
        were dropped carry ``"snapshot": null`` and ``"cfg"``; they must
        still verify and hit."""
        limits = EngineLimits()
        program = parse(generate(3).source)
        fp = cfg_fingerprint(build_cfg(program))
        key = compute_key(fp, "ladder", limits)
        result = render_report(analyze_with_fallback(program, limits=limits))
        entry = {
            "format": ENTRY_FORMAT,
            "key": key,
            "cfg": fp,
            "ladder": "ladder",
            "limits": canonical_limits(limits),
            "result": result,
            "snapshot": None,
            "created": 1.0,
        }
        entry["checksum"] = entry_checksum(entry)
        (tmp_path / f"{key}.json").write_text(json.dumps(entry, sort_keys=True))
        reborn = ResultCache(tmp_path)
        assert reborn.stats()["resident_entries"] == 1
        hit = reborn.lookup(key)
        assert hit is not None and hit["result"] == result
