"""Shared fixtures."""

import pytest


@pytest.fixture
def cold_memos(monkeypatch):
    """Empty process-wide memos for one test: the shared schedule memo, the
    twins' structure store and the shape tables, as the first replay of a
    fresh process finds them.  Layer-timing tests use it so every layer a
    replay reaches does measurable work whatever ran earlier in the process
    (with the memos warm, ``compile`` takes a few microseconds per
    replay)."""
    from repro.alloc import slowpath
    from repro.sim import trace_cache, uop
    from repro.sim.columns import StructStore

    monkeypatch.setattr(trace_cache, "SCHEDULE_MEMO", trace_cache.TraceCache(1 << 16))
    monkeypatch.setattr(slowpath, "_STRUCTS", StructStore(slowpath.compile_struct))
    monkeypatch.setattr(uop, "_SHAPES", {})
    monkeypatch.setattr(uop, "_STRUCTURES", {})
