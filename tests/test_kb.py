import functools
import json
import logging
import re
import sys
import tempfile
import threading
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from aidiscover import kb as kb_module
from aidiscover.kb import (
    VERDICT_AI,
    VERDICT_NON_AI,
    InputOrder,
    JsonlLog,
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


@given(st.sampled_from(["Package", "Api"]), st.text())
@example("Api", " \u212a\x1c\xa0\u2028İ\t")  # whitespace str.split() knows, and case maps that grow
def test_kb_key_normalizes_as_normalize_text(kind, text):
    assert KbKey.make(kind, text) == (kind, normalize_text(text))


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


def test_sync_skips_a_line_nested_past_the_recursion_limit(tmp_path):
    path = tmp_path / "kb.jsonl"
    nested = "[" * 100_000 + "]" * 100_000
    lines = [ai_record(text="a.one").to_line(), nested, ai_record(text="a.two").to_line()]
    path.write_text("\n".join(lines) + "\n")
    kb = kb_sync(path)
    assert list(kb.records) == [KbKey.make("Package", "a.one"), KbKey.make("Package", "a.two")]
    assert kb.corrupt_lines == 1


@pytest.mark.parametrize("tail", [" x", "{}", ' {"kind": "Package"}', ",", "]"])
def test_sync_skips_a_line_with_data_after_the_record(tmp_path, tail):
    path = tmp_path / "kb.jsonl"
    path.write_text(ai_record(text="a.good").to_line() + "\n" + ai_record(text="a.bad").to_line() + tail + "\n")
    kb = kb_sync(path)
    assert list(kb.records) == [KbKey.make("Package", "a.good")]
    assert kb.corrupt_lines == 1


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


@pytest.mark.parametrize("field", ["text", "analysis", "domain", "model_id"])
@pytest.mark.parametrize("escape", ["\\ud800", "\\uDFFF", "\\ude00\\ud83d"])
def test_sync_skips_a_line_holding_a_lone_surrogate(tmp_path, field, escape):
    good = ai_record(text="a.good", domain="ComputerVision", task="Detection").to_line()
    bad = ai_record(text="a.bad", domain="ComputerVision", task="Detection").to_line()
    value = json.loads(bad)[field]
    bad = bad.replace(json.dumps(value), json.dumps(value)[:-1] + escape + '"')
    path = tmp_path / "kb.jsonl"
    path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
    kb = kb_sync(path)
    assert list(kb.records) == [KbKey.make("Package", "a.good")]
    assert kb.corrupt_lines == 1


def test_sync_keeps_a_line_whose_escapes_decode_to_text_utf8_can_hold(tmp_path):
    line = ai_record(text="a.good", analysis="tab\tpair 😀 backslash-u \\ud800").to_line()
    assert "\\t" in line and "\\\\ud800" in line
    path = tmp_path / "kb.jsonl"
    path.write_text(line.replace("😀", "\\ud83d\\ude00") + "\n", encoding="utf-8")
    [record] = kb_sync(path).records.values()
    assert record.analysis == "tab\tpair 😀 backslash-u \\ud800"


@pytest.mark.parametrize("torn", [b"caf\xc3", b"\xe2\x82", b"\xf0\x9f\x98"])
def test_sync_skips_a_torn_multibyte_tail(tmp_path, torn):
    path = tmp_path / "kb.jsonl"
    first = ai_record(text="a.one").to_line().encode("utf-8")
    tail = ai_record(text="a.two", analysis="caf\u00e9 \u20ac \U0001f600").to_line().encode("utf-8")
    path.write_bytes(first + b"\n" + tail[: tail.index(torn) + len(torn)])
    kb = kb_sync(path)
    assert list(kb.records) == [KbKey.make("Package", "a.one")]
    assert kb.corrupt_lines == 1
    kb.insert(ai_record(text="a.three"))
    kb.close()
    assert len(kb_sync(path).records) == 2


def test_sync_skips_a_line_that_is_not_utf8_and_keeps_the_rest(tmp_path):
    path = tmp_path / "kb.jsonl"
    latin1 = ai_record(text="a.latin1", analysis="caf\u00e9").to_line().encode("latin-1")
    lines = [ai_record(text="a.one").to_line().encode(), latin1, ai_record(text="a.two").to_line().encode()]
    path.write_bytes(b"\n".join(lines))
    kb = kb_sync(path)
    assert list(kb.records) == [KbKey.make("Package", "a.one"), KbKey.make("Package", "a.two")]
    assert kb.corrupt_lines == 1


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


def _is_valid(record: KbRecord) -> bool:
    try:
        record.validate()
    except ValueError:
        return False
    return True


# Quotes, backslashes, control characters and non-BMP text besides any code
# point but a surrogate, which no UTF-8 file holds and replay refuses.
_CHARS = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "é", "😀", "a", " "]) | st.characters(
    exclude_categories=("Cs",)
)
_TEXT = st.text(_CHARS)
_RECORDS = st.builds(
    KbRecord,
    key=st.builds(KbKey, kind=st.sampled_from(["Package", "Api", "HttpsRequest", "ModelAsset"]), normalized_text=_TEXT),
    verdict=st.sampled_from([VERDICT_AI, VERDICT_NON_AI]),
    analysis=st.none() | _TEXT,
    domain=st.none() | _TEXT,
    task=st.none() | _TEXT,
    model_id=_TEXT,
    created_at=st.datetimes(timezones=st.none() | st.just(timezone.utc)),
).filter(_is_valid)


@given(_RECORDS)
def test_record_line_round_trips_and_keeps_the_dumps_bytes(record):
    parsed = KbRecord.from_line(record.to_line())
    assert parsed == record
    assert type(parsed) is KbRecord and type(parsed.key) is KbKey
    payload = {
        "kind": record.key.kind,
        "text": record.key.normalized_text,
        "verdict": record.verdict,
        "analysis": record.analysis,
        "domain": record.domain,
        "task": record.task,
        "model_id": record.model_id,
        "created_at": record.created_at.isoformat(),
    }
    assert record.to_line() == json.dumps(payload, ensure_ascii=False, sort_keys=True)


def _reference_from_line(line: str) -> KbRecord:
    """Reference rule: type loops over the fields, then the record's validate()."""
    payload = json.loads(line)
    kind, text, verdict, created_at = (payload[f] for f in ("kind", "text", "verdict", "created_at"))
    optional = {f: payload.get(f) for f in ("analysis", "domain", "task")}
    optional["model_id"] = payload.get("model_id", "unknown")
    for name, value in (("kind", kind), ("text", text), ("verdict", verdict), ("created_at", created_at)):
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a string")
    for name, value in optional.items():
        if not isinstance(value, (str, type(None))):
            raise ValueError(f"{name} must be a string or null")
    record = KbRecord(KbKey(kind, text), verdict, created_at=datetime.fromisoformat(created_at), **optional)
    record.validate()
    return record


def _outcome(decode, line):
    try:
        return decode(line)
    except (KeyError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


_FIELDS = ("kind", "text", "verdict", "created_at", "analysis", "domain", "task", "model_id")
_FIELD = st.sampled_from([None, 0, [None], "", " ", "x", "Maybe", "yesterday"])


# A valid line with up to two fields replaced and some optional ones left out.
@given(
    st.sampled_from([VERDICT_AI, VERDICT_NON_AI]),
    st.dictionaries(st.sampled_from(_FIELDS), _FIELD, max_size=2),
    st.sets(st.sampled_from(_FIELDS[4:])),
)
@example(VERDICT_AI, {"analysis": " "}, set())
@example(VERDICT_NON_AI, {"task": "x"}, set())
def test_from_line_accepts_and_refuses_as_the_reference(verdict, replaced, left_out):
    payload = {
        "kind": "Package", "text": "com.a", "verdict": verdict, "created_at": "2024-05-01T00:00:00+00:00",
        "analysis": "detects objects", "domain": None, "task": None, "model_id": "mock",
    }
    payload.update(replaced)
    line = json.dumps({k: v for k, v in payload.items() if k not in left_out}, sort_keys=True)
    assert _outcome(KbRecord.from_line, line) == _outcome(_reference_from_line, line)


def test_replay_shares_closed_set_values_but_not_analysis(tmp_path):
    path = tmp_path / "kb.jsonl"
    analysis = "on-device object detection for camera frames"
    path.write_text("".join(
        ai_record(text=f"com.vendor.m{i}", analysis=analysis, domain="ComputerVision", task="Object Detection").to_line()
        + "\n"
        for i in range(2)
    ))
    first, second = kb_sync(path).records.values()
    for part in (lambda r: r.key.kind, lambda r: r.verdict, lambda r: r.model_id, lambda r: r.domain, lambda r: r.task):
        assert part(first) is part(second)
    assert first.analysis == second.analysis and first.analysis is not second.analysis
    # The memo lives for one replay only.
    [again, _] = kb_sync(path).records.values()
    assert again.verdict == first.verdict and again.verdict is not first.verdict


def test_insert_stamps_the_clock_on_a_copy():
    stamp = datetime(2024, 5, 1, tzinfo=timezone.utc)
    kb = KnowledgeBase(clock=lambda: stamp)
    record = ai_record()
    stored = kb.insert(record)
    assert type(stored) is KbRecord
    assert stored == record._replace(created_at=stamp)
    assert record.created_at is None
    kept = ai_record(text="com.other", created_at=datetime(2020, 1, 1, tzinfo=timezone.utc))
    assert kb.insert(kept) is kept


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


@pytest.mark.parametrize("where", ["digest", "summary", "capabilities"])
def test_summary_cache_skips_a_line_holding_a_lone_surrogate(tmp_path, where):
    path = tmp_path / "kb.jsonl.summaries"
    first = SummaryCache(path)
    first.put("digest-1", {"summary": "s", "capabilities": ["a"]})
    first.close()
    line = {"digest": "digest-2", "value": {"summary": "s", "capabilities": ["a"]}}
    if where == "digest":
        line["digest"] = "\ud800"
    elif where == "summary":
        line["value"]["summary"] = "\udc80"
    else:
        line["value"]["capabilities"] = ["\udfff"]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line) + "\n")  # ensure_ascii writes the surrogate as an escape
    reloaded = SummaryCache(path)
    assert list(reloaded.records) == ["digest-1"]
    assert reloaded.corrupt_lines == 1


def test_summary_cache_skips_a_torn_multibyte_tail(tmp_path):
    path = tmp_path / "kb.jsonl.summaries"
    first = SummaryCache(path)
    first.put("digest-1", {"summary": "s", "capabilities": []})
    first.close()
    with open(path, "ab") as fh:
        fh.write('{"digest": "digest-2", "value": {"summary": "caf\u00e9'.encode("utf-8")[:-1])
    reloaded = SummaryCache(path)
    assert list(reloaded.records) == ["digest-1"]
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


# The <kb>.snapshot sidecar.


class _Recorder(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append(record)


def _synced(path, snapshot=True):
    """``kb_sync(path)``, or the full replay it replaces, and the ``(line number,
    reason)`` of each line it logged as corrupt."""
    logger, recorder = logging.getLogger("aidiscover.kb"), _Recorder()
    logger.addHandler(recorder)
    try:
        if snapshot:
            kb = kb_sync(path)
        else:
            kb = KnowledgeBase(path)
            kb.replay(functools.partial(KbRecord.from_line, shared={}))
    finally:
        logger.removeHandler(recorder)
    return kb, [r.args[1:] for r in recorder.records if "corrupt line" in r.msg]


def _snapshot_of(path) -> Path:
    return Path(f"{path}.snapshot")


def _assert_loads_as_full_replay(path) -> KnowledgeBase:
    loaded, logged = _synced(path)
    replayed, replay_logged = _synced(path, snapshot=False)
    # repr also compares the order and each timestamp's tzinfo.
    assert repr(list(loaded.records.items())) == repr(list(replayed.records.items()))
    assert loaded.corrupt_lines == replayed.corrupt_lines
    assert logged == replay_logged
    return loaded


def _assert_snapshot_used(loaded, path) -> None:
    """A snapshot this code wrote is used while its log only grows."""
    if _snapshot_of(path).exists():
        header = json.loads(_snapshot_of(path).read_text(encoding="utf-8").split("\n", 1)[0])
        assert loaded.load_counts["snapshot_rows"] == header["rows"]


# Valid by construction, so generation stays fast; keys from a small pool
# too, so later lines overwrite earlier ones.
_SHORT = st.text(_CHARS, max_size=8)
_KEYS = st.builds(KbKey, kind=st.sampled_from(["Package", "Api"]), normalized_text=st.sampled_from(["com.a", "com.b"]) | _SHORT)
_STAMPS = st.datetimes(timezones=st.sampled_from([None, timezone.utc, timezone(timedelta(hours=5, minutes=30))]))
_LOGGED = st.builds(
    KbRecord,
    key=_KEYS,
    verdict=st.just(VERDICT_AI),
    analysis=_SHORT.map(lambda t: 'on-device "OCR" \\ ' + t),
    domain=st.none() | _SHORT,
    task=st.none() | _SHORT,
    model_id=_SHORT,
    created_at=_STAMPS,
) | st.builds(
    KbRecord,
    key=_KEYS,
    verdict=st.just(VERDICT_NON_AI),
    analysis=st.none() | _SHORT,
    domain=st.none(),
    task=st.none(),
    model_id=_SHORT,
    created_at=_STAMPS,
)
_LINE = st.one_of(
    _LOGGED.map(lambda r: r.to_line().encode("utf-8")),
    _LOGGED.map(lambda r: json.dumps(json.loads(r.to_line())).encode()),  # every non-ASCII character escaped
    st.sampled_from([b"", b" \t", b"{not json", b"[]", b"caf\xe9", b'{"kind": "Package", "text": "\\ud800"}']),
)
# Lines as text mode ends them, then a torn tail: a cut that may fall inside a character.
_LOG = st.tuples(
    st.lists(st.tuples(_LINE, st.sampled_from([b"\n", b"\r\n", b"\r"])).map(b"".join), max_size=8),
    _LINE,
    st.integers(0, 300),
).map(lambda parts: b"".join(parts[0]) + parts[1][: parts[2]])


@given(head=_LOG, inserted=st.lists(_LOGGED, max_size=4), tail=_LOG, more=st.lists(_LOGGED, max_size=3))
@example(head=b'{"x"\n\xe2\x82', inserted=[non_ai_record()], tail=b"\r\n", more=[])
def test_loading_through_the_snapshot_equals_a_full_replay(head, inserted, tail, more):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "kb.jsonl"
        path.write_bytes(head)
        kb = kb_sync(path)
        for record in inserted:
            kb.insert(record)
        kb.close()
        with open(path, "ab") as fh:  # lines another writer appended, or a torn tail
            fh.write(tail)
        loaded = _assert_loads_as_full_replay(path)
        _assert_snapshot_used(loaded, path)
        for record in more:
            loaded.insert(record)
        loaded.close()
        _assert_snapshot_used(_assert_loads_as_full_replay(path), path)


def test_a_snapshot_is_written_on_close_and_loaded_with_the_new_tail(tmp_path):
    path = tmp_path / "kb.jsonl"
    path.write_text("{not a record\n" + ai_record(text="com.a").to_line() + "\n", encoding="utf-8")
    kb = kb_sync(path)
    assert kb.load_counts == {"snapshot_rows": 0, "tail_lines": 2, "snapshot_written": False}
    kb.insert(non_ai_record(text="com.b"))
    kb.close()
    assert kb.load_counts["snapshot_written"] is True
    with open(path, "a", encoding="utf-8") as fh:  # another writer's line
        fh.write("\n" + ai_record(text="com.c").to_line() + "\n")
    loaded, logged = _synced(path)
    assert loaded.load_counts == {"snapshot_rows": 2, "tail_lines": 2, "snapshot_written": False}
    assert list(loaded.records) == [KbKey.make("Package", t) for t in ("com.a", "com.b", "com.c")]
    assert logged == [(1, loaded.skipped[0][1])] and loaded.corrupt_lines == 1


def test_a_run_that_appends_nothing_to_a_current_snapshot_writes_nothing(tmp_path):
    path = tmp_path / "kb.jsonl"
    kb = kb_sync(path)
    kb.insert(ai_record())
    kb.close()
    before = _snapshot_of(path).stat()
    again = kb_sync(path)
    again.close()
    assert again.load_counts == {"snapshot_rows": 1, "tail_lines": 0, "snapshot_written": False}
    assert _snapshot_of(path).stat().st_mtime_ns == before.st_mtime_ns


def test_a_log_without_a_snapshot_gets_one_on_close_unless_its_last_line_is_torn(tmp_path):
    path = tmp_path / "kb.jsonl"
    path.write_text(ai_record().to_line() + "\n" + '{"kind": "Pack', encoding="utf-8")
    kb_sync(path).close()
    assert not _snapshot_of(path).exists()
    path.write_text(ai_record().to_line() + "\n", encoding="utf-8")
    kb = kb_sync(path)
    kb.close()
    assert kb.load_counts["snapshot_written"] and _snapshot_of(path).exists()
    KnowledgeBase(tmp_path / "empty.jsonl").close()
    kb_sync(tmp_path / "missing.jsonl").close()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kb.jsonl", "kb.jsonl.snapshot"]


def test_snapshot_load_shares_closed_set_values_but_not_analysis(tmp_path):
    path = tmp_path / "kb.jsonl"
    analysis = "on-device object detection for camera frames"
    line = lambda i: ai_record(  # noqa: E731
        text=f"com.vendor.m{i}", analysis=analysis, domain="ComputerVision", task="Object Detection"
    ).to_line() + "\n"
    path.write_text(line(0) + line(1), encoding="utf-8")
    kb_sync(path).close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line(2))
    kb = kb_sync(path)
    assert kb.load_counts["snapshot_rows"] == 2 and kb.load_counts["tail_lines"] == 1
    first, second, tail = kb.records.values()
    for part in (lambda r: r.key.kind, lambda r: r.verdict, lambda r: r.model_id, lambda r: r.domain, lambda r: r.task):
        assert part(first) is part(second) is part(tail)
    assert first.analysis == second.analysis == tail.analysis
    assert first.analysis is not second.analysis and second.analysis is not tail.analysis
    [again, _, _] = kb_sync(path).records.values()
    assert again.verdict == first.verdict and again.verdict is not first.verdict


def _rewrite_snapshot(path, header=None, columns=None) -> None:
    """Apply ``header(h)`` to the snapshot's header and ``columns(c)`` to its first column line."""
    snapshot = _snapshot_of(path)
    head, first, *rest = snapshot.read_text(encoding="utf-8").splitlines()
    head, first = json.loads(head), json.loads(first)
    if header is not None:
        header(head)
    if columns is not None:
        columns(first)
    snapshot.write_text("\n".join([json.dumps(head), json.dumps(first), *rest]) + "\n", encoding="utf-8")


def _set(container, key, value):
    container[key] = value


_KINDS, _TEXTS, _VERDICTS, _ANALYSES, _DOMAINS, _TASKS, _MODELS, _CREATED = range(8)
_FAULTS = {
    "head byte changed": lambda path: path.write_bytes(path.read_bytes().replace(b"com.a0", b"com.A0")),
    "log shorter than covers": lambda path: path.write_bytes(path.read_bytes()[:-40]),
    "snapshot cut mid-line": lambda path: _snapshot_of(path).write_bytes(_snapshot_of(path).read_bytes()[:-30]),
    "snapshot missing its last line": lambda path: _snapshot_of(path).write_text(
        "".join(_snapshot_of(path).read_text(encoding="utf-8").splitlines(True)[:-1]), encoding="utf-8"
    ),
    "snapshot garbled": lambda path: _snapshot_of(path).write_bytes(b"\xff\xfe\x00garbage\n[1, 2]\n"),
    "snapshot empty": lambda path: _snapshot_of(path).write_bytes(b""),
    "unknown format": lambda path: _rewrite_snapshot(path, header=lambda h: _set(h, "format", 2)),
    "header not an object": lambda path: _rewrite_snapshot(path, header=lambda h: h.clear()),
    "covers not a number": lambda path: _rewrite_snapshot(path, header=lambda h: _set(h, "covers", str(h["covers"]))),
    "skipped not pairs": lambda path: _rewrite_snapshot(path, header=lambda h: _set(h, "skipped", [[1]])),
    "values not strings": lambda path: _rewrite_snapshot(path, header=lambda h: h["values"].append([])),
    "nested past the recursion limit": lambda path: _snapshot_of(path).write_text(
        _snapshot_of(path).read_text(encoding="utf-8").split("\n", 1)[0] + "\n" + "[" * 100_000 + "]" * 100_000 + "\n",
        encoding="utf-8",
    ),
    "columns one string": lambda path: _rewrite_snapshot(path, columns=lambda c: c.__setitem__(slice(None), ["abcdefgh"])),
    "a column not a list": lambda path: _rewrite_snapshot(path, columns=lambda c: _set(c, _TEXTS, "ab")),
    "texts not strings": lambda path: _rewrite_snapshot(path, columns=lambda c: _set(c, _TEXTS, [1, 2])),
    "analysis a number": lambda path: _rewrite_snapshot(path, columns=lambda c: _set(c[_ANALYSES], 0, 7)),
    "index a string": lambda path: _rewrite_snapshot(path, columns=lambda c: _set(c[_VERDICTS], 0, "0")),
    "columns of unequal length": lambda path: _rewrite_snapshot(path, columns=lambda c: c[_CREATED].pop()),
    "a column missing": lambda path: _rewrite_snapshot(path, columns=lambda c: c.pop()),
    "index out of range": lambda path: _rewrite_snapshot(path, columns=lambda c: _set(c[_KINDS], 0, 99)),
    "negative index": lambda path: _rewrite_snapshot(path, columns=lambda c: _set(c[_DOMAINS], 1, -1)),
    "bad timestamp": lambda path: _rewrite_snapshot(path, columns=lambda c: _set(c[_CREATED], 0, "yesterday")),
    "timestamp not a string": lambda path: _rewrite_snapshot(path, columns=lambda c: _set(c[_CREATED], 1, 5)),
    "duplicate key": lambda path: _rewrite_snapshot(path, columns=lambda c: _set(c[_TEXTS], 1, c[_TEXTS][0])),
}


def _fill(path, prefix="com.a") -> None:
    path.write_text("{not a record\n", encoding="utf-8")
    kb = kb_sync(path)
    for i in range(5):
        kb.insert(ai_record(text=f"{prefix}{i}", domain="ComputerVision", task="Detection") if i % 2 else non_ai_record(text=f"{prefix}{i}"))
    kb.close()


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_a_faulty_or_foreign_snapshot_falls_back_to_a_full_replay(tmp_path, monkeypatch, fault):
    monkeypatch.setattr(kb_module, "_SNAPSHOT_ROWS", 2)  # three column lines
    path = tmp_path / "kb.jsonl"
    _fill(path)
    assert len(_snapshot_of(path).read_text(encoding="utf-8").splitlines()) == 4
    _FAULTS[fault](path)
    loaded = _assert_loads_as_full_replay(path)
    assert loaded.load_counts["snapshot_rows"] == 0


def test_a_snapshot_copied_from_another_kb_falls_back_to_a_full_replay(tmp_path):
    path, other = tmp_path / "kb.jsonl", tmp_path / "other.jsonl"
    _fill(path)
    _fill(other, prefix="org.b")
    _snapshot_of(path).write_bytes(_snapshot_of(other).read_bytes())
    loaded = _assert_loads_as_full_replay(path)
    assert loaded.load_counts["snapshot_rows"] == 0 and len(loaded.records) == 5


def test_a_leftover_temporary_file_is_ignored(tmp_path):
    path = tmp_path / "kb.jsonl"
    _fill(path)
    (tmp_path / "kb.jsonl.snapshot.x1y2.tmp").write_text("{broken", encoding="utf-8")
    assert _assert_loads_as_full_replay(path).load_counts["snapshot_rows"] == 5


def test_no_snapshot_after_a_degraded_append(tmp_path, monkeypatch):
    path = tmp_path / "kb.jsonl"
    path.write_text(ai_record().to_line() + "\n", encoding="utf-8")
    kb = kb_sync(path)

    def refuse(log):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(JsonlLog, "_open", refuse)
    kb.insert(non_ai_record())
    kb.close()
    assert kb.degraded and not _snapshot_of(path).exists()


def test_no_snapshot_when_another_handle_appended_during_the_run(tmp_path):
    path = tmp_path / "kb.jsonl"
    path.write_text(ai_record().to_line() + "\n", encoding="utf-8")
    kb = kb_sync(path)
    other = KnowledgeBase(path)
    other.insert(non_ai_record(text="com.other"))
    other.close()
    kb.insert(non_ai_record(text="com.mine"))
    kb.close()
    assert not kb.load_counts["snapshot_written"] and not other.load_counts["snapshot_written"]
    assert not _snapshot_of(path).exists()
    assert len(_assert_loads_as_full_replay(path).records) == 3


def test_no_snapshot_without_a_path():
    kb = kb_sync(None)
    kb.insert(ai_record())
    kb.close()
    assert kb.load_counts == {"snapshot_rows": 0, "tail_lines": 0, "snapshot_written": False}


def test_a_failed_snapshot_write_keeps_the_old_one_and_leaves_no_temporary_file(tmp_path, monkeypatch, caplog):
    path = tmp_path / "kb.jsonl"
    _fill(path)
    before = _snapshot_of(path).read_bytes()
    kb = kb_sync(path)
    kb.insert(ai_record(text="com.new"))

    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(kb_module.os, "replace", refuse)
    kb.close()  # does not raise
    assert "not written" in caplog.text and not kb.load_counts["snapshot_written"]
    assert _snapshot_of(path).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kb.jsonl", "kb.jsonl.snapshot"]
    monkeypatch.undo()
    assert KbKey.make("Package", "com.new") in _assert_loads_as_full_replay(path).records


def _in_thread(fn, *args):
    """Start ``fn(*args)``; returns the thread and a dict that gets its result."""
    outcome = {}
    thread = threading.Thread(target=lambda: outcome.setdefault("result", fn(*args)), daemon=True)
    thread.start()
    return thread, outcome


class TestInputOrder:
    K1, K2, K3 = (KbKey.make("Package", f"com.k{i}") for i in range(3))

    def test_a_claim_waits_for_every_earlier_claim_turn(self):
        order = InputOrder(3)
        first, second, third = (order.app(rank) for rank in range(3))
        assert third.claim([]) == {}  # nothing to claim: no wait, even before rank 0
        thread, outcome = _in_thread(second.claim, [self.K1])
        thread.join(0.05)
        assert thread.is_alive()
        first.claim([])
        thread.join(5)
        assert outcome["result"] == {}

    def test_each_claimant_is_told_the_latest_earlier_holder(self):
        order = InputOrder(3)
        first, second, third = (order.app(rank) for rank in range(3))
        assert first.claim([self.K1, self.K2]) == {}
        assert second.claim([self.K2, self.K3]) == {self.K2: first}
        assert third.claim([self.K1, self.K2]) == {self.K1: first, self.K2: second}
        first.finish()
        second.finish()
        first.wait_committed()  # each returns at once: both committed
        second.wait_committed()
        assert order._holders == {self.K1: third, self.K2: third}

    def test_a_failed_app_hands_its_keys_on_when_its_turn_comes(self):
        order = InputOrder(3)
        first, second, third = (order.app(rank) for rank in range(3))
        first.claim([])
        second.claim([self.K1])
        assert third.claim([self.K1]) == {self.K1: second}
        waiter, _ = _in_thread(second.wait_committed)
        second.finish()  # the second app failed before it wrote anything
        waiter.join(0.05)
        assert waiter.is_alive()  # its commit still waits for the first app's
        first.finish()
        waiter.join(5)
        assert not waiter.is_alive()
        assert order._holders == {self.K1: third}
        second.finish()  # idempotent

    def test_writes_run_in_input_order_and_no_app_waits_for_them(self):
        order = InputOrder(3)
        turns = [order.app(rank) for rank in range(3)]
        written = []
        for turn in (turns[2], turns[1]):  # later apps hand over first, and return at once
            turn.claim([])
            turn.commit(lambda rank=turn.rank: written.append(rank))
        assert written == []
        turns[0].finish()  # an app that failed: no writes, but it frees the others'
        assert written == [1, 2]
        for turn in turns:
            turn.finish()
        assert written == [1, 2]

    def test_a_failed_write_is_kept_on_its_app_and_the_later_writes_still_run(self):
        order = InputOrder(3)
        turns = [order.app(rank) for rank in range(3)]
        written = []

        def fail():
            raise ValueError("bad record")

        turns[0].claim([])
        turns[1].claim([self.K1])
        assert turns[2].claim([self.K1]) == {self.K1: turns[1]}
        turns[2].commit(lambda: written.append(2))
        turns[1].commit(fail)
        turns[0].finish()  # runs all three writes on this thread
        assert written == [2]
        assert isinstance(turns[1].write_error, ValueError)
        assert turns[0].write_error is None and turns[2].write_error is None
        turns[2].wait_committed()
        assert order._holders == {}
