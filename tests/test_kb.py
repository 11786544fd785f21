import json
import re
import sys
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


_WS = re.compile(r"\s+")


def reference_normalize_text(text: str) -> str:
    return _WS.sub(" ", text.strip().lower())


def test_normalize_text_equals_the_regex_rule_on_every_code_point():
    # Each code point at both ends, doubled inside, and next to letters that
    # lowercase, so whitespace, strip and case mapping are all exercised.
    texts = [f"{c}A{c}{c}b{c}" for c in map(chr, range(sys.maxunicode + 1))]
    got = list(map(normalize_text, texts))
    want = list(map(reference_normalize_text, texts))
    assert [t for t, g, w in zip(texts, got, want) if g != w] == []


def test_insert_then_lookup(tmp_path):
    kb = kb_sync(tmp_path / "kb.jsonl")
    stored = kb.insert(ai_record())
    kb.close()
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
    kb.close()

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


@pytest.mark.parametrize(
    "field, value",
    [
        ("kind", ["Package"]),
        ("text", 7),
        ("verdict", None),
        ("created_at", 0),
        ("analysis", ["a"]),
        ("domain", 5),
        ("task", {"name": "detection"}),
        ("model_id", True),
    ],
)
def test_sync_skips_a_line_whose_field_has_the_wrong_type(tmp_path, field, value):
    line = json.loads(ai_record(text="a.bad", domain="ComputerVision", task="Detection").to_line())
    line[field] = value
    path = tmp_path / "kb.jsonl"
    path.write_text(ai_record(text="a.good").to_line() + "\n" + json.dumps(line) + "\n")
    kb = kb_sync(path)
    assert list(kb.records) == [KbKey.make("Package", "a.good")]
    assert kb.corrupt_lines == 1


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
    kb.close()
    reloaded = kb_sync(path)
    assert {k: r.verdict for k, r in reloaded.records.items()} == expected


def test_append_only(tmp_path):
    path = tmp_path / "kb.jsonl"
    kb = kb_sync(path)
    kb.insert(ai_record(text="com.first"))
    before = path.read_bytes()
    kb.insert(ai_record(text="com.second"))
    kb.close()
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
    kb.close()

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
    kb.close()
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
    cache.close()
    assert cache.get("digest-1") == {"summary": "s", "capabilities": ["a"]}
    reloaded = SummaryCache(path)
    assert reloaded.get("digest-1") == {"summary": "s", "capabilities": ["a"]}
    assert reloaded.get("missing") is None


def test_summary_cache_skips_corrupt_lines(tmp_path):
    path = tmp_path / "kb.jsonl.summaries"
    first = SummaryCache(path)
    first.put("digest-1", {"summary": "s", "capabilities": []})
    first.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"digest": "torn\n[]\n')
    reloaded = SummaryCache(path)
    assert reloaded.get("digest-1") == {"summary": "s", "capabilities": []}
    assert reloaded.corrupt_lines == 2


@pytest.mark.parametrize(
    "line",
    [
        {"digest": "digest-1", "value": {"summary": 7}},
        {"digest": "digest-1", "value": {"summary": "s", "capabilities": "a"}},
        {"digest": "digest-1", "value": {"summary": "s", "capabilities": [1]}},
        {"digest": "digest-1", "value": ["s"]},
        {"digest": ["digest-1"], "value": {"summary": "s", "capabilities": []}},
    ],
)
def test_summary_cache_skips_records_it_cannot_use(tmp_path, line):
    path = tmp_path / "kb.jsonl.summaries"
    first = SummaryCache(path)
    first.put("digest-1", {"summary": "s", "capabilities": ["a"]})
    first.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line) + "\n")
    reloaded = SummaryCache(path)
    assert reloaded.get("digest-1") == {"summary": "s", "capabilities": ["a"]}
    assert reloaded.corrupt_lines == 1


def test_append_after_torn_tail_starts_fresh_line(tmp_path):
    path = tmp_path / "kb.jsonl"
    path.write_text(ai_record(text="com.a").to_line() + "\n" + '{"kind": "Package", "te')
    kb = kb_sync(path)
    kb.insert(ai_record(text="com.b"))
    kb.close()
    reloaded = kb_sync(path)
    assert set(reloaded.records) == {KbKey.make("Package", "com.a"), KbKey.make("Package", "com.b")}
    assert reloaded.corrupt_lines == 1


def test_summary_cache_append_after_torn_tail(tmp_path):
    path = tmp_path / "kb.jsonl.summaries"
    first = SummaryCache(path)
    first.put("digest-1", {"summary": "s", "capabilities": []})
    first.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"digest": "to')
    cache = SummaryCache(path)
    cache.put("digest-2", {"summary": "t", "capabilities": []})
    cache.close()
    reloaded = SummaryCache(path)
    assert reloaded.get("digest-1") == {"summary": "s", "capabilities": []}
    assert reloaded.get("digest-2") == {"summary": "t", "capabilities": []}
    assert reloaded.corrupt_lines == 1


def test_append_handle_stays_open_until_close(tmp_path):
    path = tmp_path / "kb.jsonl"
    kb = kb_sync(path)
    kb.insert(ai_record(text="com.first"))
    handle = kb._fh
    kb.insert(ai_record(text="com.second"))
    assert kb._fh is handle and not handle.closed
    assert len(kb_sync(path).records) == 2  # each line is flushed as it is written
    kb.close()
    assert handle.closed
    kb.insert(ai_record(text="com.third"))  # reopens lazily
    kb.close()
    assert len(kb_sync(path).records) == 3
