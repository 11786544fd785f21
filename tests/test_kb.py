import json
import threading
from datetime import datetime, timezone

import pytest

from aidiscover.kb import (
    VERDICT_AI,
    VERDICT_NON_AI,
    KbKey,
    KbRecord,
    KnowledgeBase,
    SummaryCache,
    kb_sync,
    normalize_text,
)


def ai_record(kind="Package", text="com.google.mlkit", **kwargs) -> KbRecord:
    defaults = dict(verdict=VERDICT_AI, analysis="object detection toolkit", model_id="mock")
    defaults.update(kwargs)
    return KbRecord(key=KbKey.make(kind, text), **defaults)


def non_ai_record(kind="Package", text="com.acme.logging", **kwargs) -> KbRecord:
    defaults = dict(verdict=VERDICT_NON_AI, model_id="mock")
    defaults.update(kwargs)
    return KbRecord(key=KbKey.make(kind, text), **defaults)


def test_normalize_text():
    assert normalize_text("  Foo   BAR\tbaz ") == "foo bar baz"
    assert normalize_text(normalize_text("  Foo   BAR ")) == normalize_text("  Foo   BAR ")


def test_insert_then_lookup(tmp_path):
    kb = kb_sync(tmp_path / "kb.jsonl")
    stored = kb.insert(ai_record())
    assert stored.created_at is not None
    assert kb.lookup(stored.key) == stored


def test_lookup_absent_returns_none():
    kb = KnowledgeBase()
    assert kb.lookup(KbKey.make("Package", "com.nothing")) is None


def test_last_write_wins_in_memory_and_on_replay(tmp_path):
    path = tmp_path / "kb.jsonl"
    kb = kb_sync(path)
    key_text = "com.flip.Flop"
    kb.insert(non_ai_record(text=key_text))
    kb.insert(ai_record(text=key_text))
    key = KbKey.make("Package", key_text)
    assert kb.lookup(key).verdict == VERDICT_AI

    reloaded = kb_sync(path)
    assert reloaded.lookup(key).verdict == VERDICT_AI


def test_invalid_records_rejected():
    kb = KnowledgeBase()
    with pytest.raises(ValueError):
        kb.insert(KbRecord(key=KbKey.make("Package", "x"), verdict=VERDICT_AI, analysis="  "))
    with pytest.raises(ValueError):
        kb.insert(
            KbRecord(
                key=KbKey.make("Package", "x"),
                verdict=VERDICT_NON_AI,
                domain="ComputerVision",
            )
        )
    with pytest.raises(ValueError):
        kb.insert(KbRecord(key=KbKey.make("Package", "x"), verdict="Maybe"))


def test_sync_empty_file(tmp_path):
    path = tmp_path / "kb.jsonl"
    path.write_text("")
    kb = kb_sync(path)
    assert kb.records == {}


def test_sync_skips_corrupt_lines(tmp_path):
    path = tmp_path / "kb.jsonl"
    lines = [
        ai_record(text="a.one").to_line(),
        "{this is not json",
        ai_record(text="a.two").to_line(),
        "[]",  # valid JSON, not a record
        ai_record(text="a.three").to_line(),
    ]
    path.write_text("\n".join(lines) + "\n")
    kb = kb_sync(path)
    assert len(kb.records) == 3
    assert kb.corrupt_lines == 2


def test_round_trip_10k_records(tmp_path):
    path = tmp_path / "kb.jsonl"
    kb = kb_sync(path)
    expected: dict[KbKey, str] = {}
    for i in range(10_000):
        text = f"com.pkg{i % 4000}.mod{i}"
        if i % 3 == 0:
            record = ai_record(text=text, analysis=f"analysis {i}")
        else:
            record = non_ai_record(text=text)
        kb.insert(record)
        expected[record.key] = record.verdict
    reloaded = kb_sync(path)
    assert {k: r.verdict for k, r in reloaded.records.items()} == expected


def test_append_only(tmp_path):
    path = tmp_path / "kb.jsonl"
    kb = kb_sync(path)
    kb.insert(ai_record(text="com.first"))
    before = path.read_bytes()
    kb.insert(ai_record(text="com.second"))
    after = path.read_bytes()
    assert after[: len(before)] == before
    assert len(after) > len(before)


def test_concurrent_appends_distinct_keys(tmp_path):
    path = tmp_path / "kb.jsonl"
    kb = kb_sync(path)

    def writer(start: int):
        for i in range(start, start + 200):
            kb.insert(non_ai_record(text=f"com.worker.k{i}"))

    threads = [threading.Thread(target=writer, args=(n * 200,)) for n in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    reloaded = kb_sync(path)
    assert len(reloaded.records) == 800
    for i in range(800):
        assert reloaded.lookup(KbKey.make("Package", f"com.worker.k{i}")) is not None


def test_degraded_mode_keeps_memory_view(tmp_path):
    blocked = tmp_path / "as_dir"
    blocked.mkdir()
    kb = KnowledgeBase(path=blocked)  # appending to a directory fails
    stored = kb.insert(ai_record())
    assert kb.degraded is True
    assert kb.lookup(stored.key) == stored


def test_no_key_is_both_verdicts_after_replay(tmp_path):
    path = tmp_path / "kb.jsonl"
    kb = kb_sync(path)
    for i in range(50):
        kb.insert(non_ai_record(text=f"com.k{i % 10}"))
        kb.insert(ai_record(text=f"com.k{i % 10}"))
    reloaded = kb_sync(path)
    seen: dict[KbKey, str] = {}
    for key, record in reloaded.records.items():
        assert seen.setdefault(key, record.verdict) == record.verdict


def test_record_line_round_trip():
    record = ai_record(
        domain="ComputerVision",
        task="Object Detection",
        created_at=datetime(2024, 5, 1, tzinfo=timezone.utc),
    )
    parsed = KbRecord.from_line(record.to_line())
    assert parsed == record
    payload = json.loads(record.to_line())
    assert set(payload) == {
        "kind",
        "text",
        "verdict",
        "analysis",
        "domain",
        "task",
        "model_id",
        "created_at",
    }


def test_summary_cache_round_trip(tmp_path):
    path = tmp_path / "kb.jsonl.summaries"
    cache = SummaryCache(path)
    cache.put("digest-1", {"summary": "s", "capabilities": ["a"]})
    assert cache.get("digest-1") == {"summary": "s", "capabilities": ["a"]}
    reloaded = SummaryCache(path)
    assert reloaded.get("digest-1") == {"summary": "s", "capabilities": ["a"]}
    assert reloaded.get("missing") is None


def test_summary_cache_skips_corrupt_lines(tmp_path):
    path = tmp_path / "kb.jsonl.summaries"
    SummaryCache(path).put("digest-1", {"summary": "s", "capabilities": []})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"digest": "torn\n[]\n')
    reloaded = SummaryCache(path)
    assert reloaded.get("digest-1") == {"summary": "s", "capabilities": []}
    assert reloaded.corrupt_lines == 2
