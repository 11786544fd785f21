import gc
import hashlib
import json
import math
import random
import tempfile
import tracemalloc
from collections import Counter
from enum import Enum, IntEnum

from hypothesis import given, strategies as st

from aidiscover import report as report_module
from aidiscover.candidates import Candidate, CandidateKind, CandidateSet
from aidiscover.kb import VERDICT_AI, VERDICT_NON_AI, KbKey, KbRecord, KnowledgeBase, SummaryCache
from aidiscover.pipeline import (
    PROVENANCE_FRESH, PROVENANCE_KB, ComponentVerdict, PipelineConfig, PipelineResult, run_pipeline,
)
from aidiscover.report import (
    VerdictTable, _summary_digest, _verdict_table, analyze_app, read_report, render_json, summarize_with_cache,
    write_report,
)
from aidiscover.whitelist import load_whitelist

from conftest import make_gateway


def reference_render(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)


def lines_of(text: str) -> list[str]:
    # A failing comparison of long texts is reported line by line: pytest's
    # character diff of two whole documents takes minutes.
    return text.split("\n")


# Strings full of what the renderer must not mistake for structure: quotes,
# backslashes, braces, control characters, non-BMP text, and the row boundary
# itself as literal text. No surrogates: a UTF-8 report cannot hold one, and
# every input boundary (backend replies, KB and summary-cache replay,
# description rows, APK paths) refuses them.
_text = st.one_of(
    st.text(
        alphabet=st.one_of(
            st.sampled_from(['"', "\\", "{", "}", "[", "]", ",", ":", " ", "\n", "\t", "\x00", "\x1f", "\x7f"]),
            st.sampled_from([" ", "é", "\U0001f600", "\U00010000"]),
            st.characters(exclude_categories=("Cs",)),
        ),
        max_size=12,
    ),
    st.just('"},\n      {"'),
)
_optional_text = st.none() | _text
_row = st.fixed_dictionaries(
    {
        "kind": _text,
        "text": _text,
        "occurrences": st.integers(min_value=0),
        "source": _text,
        "is_ai": st.booleans(),
        "analysis": _optional_text,
        "rationale": _optional_text,
        "provenance": _text,
        "domain": _optional_text,
        "task": _optional_text,
    }
)
_reports = st.fixed_dictionaries(
    {
        "schema_version": st.integers(),
        "app_id": st.sampled_from(["app", "com.example.app"]),
        "is_ai_app": st.booleans(),
        "verdicts": st.lists(_row, max_size=4),
        "summary": _text,
        "capabilities": st.lists(_text, max_size=3),
        "app_label": st.none() | st.fixed_dictionaries({"domain": _text, "task": _text}),
        "obfuscation": st.fixed_dictionaries(
            {
                "file_name_ratio": st.floats(0, 1),
                "dir_name_ratio": st.floats(0, 1),
                "total_classes": st.integers(0, 10**6),
            }
        ),
        "warnings": st.lists(_text, max_size=3),
        "degraded": st.booleans(),
        "generated_at": _text,
    },
    optional={"kind_counts": st.dictionaries(_text, st.integers(0, 99), max_size=3)},
)
_scalars = st.none() | st.booleans() | st.integers() | st.floats() | _text
_json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=20,
)


@st.composite
def _long_flat_lists(draw):
    """257 to 700 scalars, more than one 256-item piece, drawn from a small pool."""
    pool = draw(st.lists(_scalars, min_size=1, max_size=8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))  # a seed shrinks faster than every choice
    return [rng.choice(pool) for _ in range(draw(st.integers(257, 700)))]


_flat_dicts_in_lists = st.lists(st.dictionaries(_text, _scalars, max_size=4), min_size=1, max_size=4)


@given(_reports)
def test_render_json_equals_indented_json_dumps_on_reports(report):
    assert render_json(report) == reference_render(report)


@given(_json_values | _long_flat_lists() | _flat_dicts_in_lists)
def test_render_json_equals_indented_json_dumps_on_any_json_value(value):
    assert lines_of(render_json(value)) == lines_of(reference_render(value))


@given(_reports)
def test_written_report_is_the_reference_bytes_and_reads_back(report):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_report(report, tmp)
        assert path.read_bytes() == (reference_render(report) + "\n").encode("utf-8")
        assert read_report(path) == report


class _Colour(str, Enum):
    RED = 'r%s"\\'


class _Level(IntEnum):
    HIGH = 3


# Keys full of what the row template must escape: its own "%", quotes,
# backslashes, newlines and text beyond ASCII.
_key = st.text(st.sampled_from(["%", "s", '"', "\\", "\n", "é", "\U0001f600", "k"]), min_size=1, max_size=4)
# Column types the template encodes apart (str or None, bool, exact int) and
# values that send their piece to the per-item path: 1 beside True and 1.0,
# NaN and infinities, a str Enum and an IntEnum.
_column = st.one_of(
    st.lists(_optional_text, min_size=1, max_size=4),
    st.lists(st.booleans(), min_size=1, max_size=2),
    st.lists(st.integers(), min_size=1, max_size=4),
    st.lists(
        st.sampled_from([True, 1, 1.0, None, math.nan, math.inf, -math.inf, _Colour.RED, _Level.HIGH, "s"]),
        min_size=1,
        max_size=4,
    ),
)


@st.composite
def _tables(draw, min_rows=0):
    """Up to 700 rows, more than one 256-row piece, each drawing its values from its column's pool."""
    pools = draw(st.dictionaries(_key, _column, min_size=1, max_size=5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))  # a seed shrinks faster than every choice
    count = draw(st.integers(min_rows, 700))
    return [{key: rng.choice(pool) for key, pool in pools.items()} for _ in range(count)]


@given(_tables())
def test_render_json_equals_indented_json_dumps_on_row_tables(rows):
    assert lines_of(render_json(rows)) == lines_of(reference_render(rows))
    assert lines_of(render_json({"verdicts": rows})) == lines_of(reference_render({"verdicts": rows}))


@given(
    _tables(min_rows=1),
    st.integers(min_value=0),
    st.sampled_from(["drop", "add", "rename", "nest list", "nest dict"]),
)
def test_a_row_with_other_keys_or_a_nested_value_renders_as_json_dumps(rows, position, change):
    row = rows[position % len(rows)]
    key = min(row)
    if change == "drop":
        del row[key]
    elif change == "add":
        row[key + "+"] = 1
    elif change == "rename":
        row[key + "+"] = row.pop(key)
    else:
        row[key] = [row[key]] if change == "nest list" else {key: row[key]}
    assert lines_of(render_json(rows)) == lines_of(reference_render(rows))


def _large_report(rows: int) -> dict:
    return {
        "app_id": "large",
        "is_ai_app": True,
        "verdicts": [
            {
                "kind": "Api",
                "text": f"<com.example.sdk{i % 97}.Client{i}: java.lang.String call{i}(int,java.lang.String)>",
                "occurrences": i % 5 + 1,
                "source": f"classes{i % 3 or ''}.dex",
                "is_ai": i % 10 == 0,
                "analysis": f"Analysis {i}: a client call of an example SDK, with \"quotes\" and é",
                "rationale": "Reused prior verdict from knowledge base (model mock)",
                "provenance": "KbHit",
                "domain": "ComputerVision" if i % 10 == 0 else None,
                "task": "Object Detection" if i % 10 == 0 else None,
            }
            for i in range(rows)
        ],
        "summary": "An app.",
        "capabilities": [],
        "app_label": None,
        "warnings": [],
    }


def test_write_report_memory_is_bounded_by_the_piece_not_the_document(tmp_path):
    report = _large_report(9000)
    tracemalloc.start()
    try:
        path = write_report(report, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == (reference_render(report) + "\n").encode("utf-8")
    assert peak < path.stat().st_size / 4


@st.composite
def _verdict_tables(draw):
    """Up to 700 rows, more than one 256-row piece, each value drawn from its column's
    small pool, so rows share analyses and the fields between analysis and text."""
    pools = {key: draw(st.lists(_optional_text, min_size=1, max_size=3)) for key in ("analysis", "domain", "rationale", "task")}
    pools |= {key: draw(st.lists(_text, min_size=1, max_size=3)) for key in ("kind", "provenance", "source", "text")}
    pools["is_ai"] = [True, False]
    pools["occurrences"] = draw(st.lists(st.sampled_from([0, 1]) | st.integers(min_value=0), min_size=1, max_size=3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))  # a seed shrinks faster than every choice
    count = draw(st.integers(0, 700))
    return VerdictTable(**{key: [rng.choice(pool) for _ in range(count)] for key, pool in pools.items()})


@given(_verdict_tables())
def test_a_verdict_table_renders_as_json_dumps_of_its_rows(table):
    rows = list(table)
    assert len(rows) == len(table) and all(sorted(row) == list(row) for row in rows)
    assert lines_of(render_json(table)) == lines_of(reference_render(rows))
    assert lines_of(render_json({"verdicts": table})) == lines_of(reference_render({"verdicts": rows}))


def test_write_report_memory_of_a_verdict_table_is_bounded_by_the_piece(tmp_path):
    report = _large_report(9000)
    rows = report["verdicts"]
    for i, row in enumerate(rows):  # every row a distinct tuple of the fields between analysis and text
        row["rationale"] += f" {i}"
    expected = (reference_render(report) + "\n").encode("utf-8")
    report["verdicts"] = VerdictTable(**{key: [row[key] for row in rows] for key in rows[0]})
    tracemalloc.start()
    try:
        path = write_report(report, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == expected
    assert peak < path.stat().st_size / 4


def test_in_memory_rows_and_the_verdicts_view_agree_with_the_written_report(tmp_path, fixture_corpus, monkeypatch):
    apks, _, _ = fixture_corpus
    runs = []
    run_pipeline = report_module.run_pipeline
    monkeypatch.setattr(report_module, "run_pipeline", lambda *args: runs.append(run_pipeline(*args)) or runs[-1])
    kb, whitelist, cache = KnowledgeBase(), load_whitelist(), SummaryCache(None)
    provenances = {}
    for name in ("cold", "warm"):
        for apk in apks:
            report = analyze_app(apk, PipelineConfig(), kb, make_gateway(), whitelist, cache)
            path = write_report(report, tmp_path / name)
            assert list(report["verdicts"]) == read_report(path)["verdicts"]
            column = list(report["verdicts"].provenance)
            assert [v.provenance for v in runs[-1].verdicts] == column
            provenances.setdefault(name, set()).update(column)
    assert PROVENANCE_FRESH in provenances["cold"] and provenances["warm"] == {PROVENANCE_KB}


def test_a_verdict_table_of_many_rows_makes_no_garbage_for_the_collector():
    # 5,000 NonAI KB hits and one fresh verdict in 100: building the columns must
    # hold no object per row that the collector tracks, or generation 0 fills.
    n = 5000
    candidates = [Candidate(CandidateKind.API, f"<a.B{i}: void m()>", "classes.dex", 1) for i in range(n)]
    records = [KbRecord(KbKey.make(c.kind, c.text), VERDICT_NON_AI, f"Analysis {i}", model_id="mock")
               for i, c in enumerate(candidates)]
    objects = [ComponentVerdict(c, False, "fresh") if i % 100 == 0 else None for i, c in enumerate(candidates)]
    run = PipelineResult(objects, candidates=candidates, records=records)
    thresholds = gc.get_threshold()
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    gc.set_threshold(100)
    try:
        table = _verdict_table(run)
    finally:
        gc.set_threshold(*thresholds)
    assert gc.get_stats()[0]["collections"] == before
    assert len(table) == n and table.analysis[:2] == ["fresh", "Analysis 1"]
    assert table.provenance[:2] == [PROVENANCE_FRESH, PROVENANCE_KB]


def _labeled_hits_run():
    """A run where AI KB hits with both labels, kept as records, sit around a fresh AI
    verdict and a fresh NonAI one, in candidate order."""
    kb = KnowledgeBase()
    api = "<org.tensorflow.lite.Interpreter: void run()>"
    for kind, text in [(CandidateKind.PACKAGE, "com.acme.speech"), (CandidateKind.API, api)]:
        kb.insert(KbRecord(KbKey.make(kind, text), VERDICT_AI, f"analysis of {text}", "asp", "speech recognition"))
    candidates = [
        Candidate(CandidateKind.PACKAGE, "com.acme.speech", "classes.dex", 2),
        Candidate(CandidateKind.PACKAGE, "com.google.mlkit.vision", "classes.dex", 1),
        Candidate(CandidateKind.PACKAGE, "com.plain.util", "classes.dex", 1),
        Candidate(CandidateKind.API, api, "classes2.dex", 3),
    ]
    run = run_pipeline(CandidateSet("app", candidates), PipelineConfig(), kb, make_gateway())
    assert run.ai_hits == [0, 3] and [v.is_ai for v in run.objects[1:3]] == [True, False]
    return run


def test_the_summary_digest_and_kind_counts_of_kb_hit_records_equal_the_verdict_form():
    run = _labeled_hits_run()
    verdict_form = PipelineResult(list(run.verdicts))
    assert verdict_form.ai_hits == []
    ai = [v for v in run.verdicts if v.is_ai]
    payload = {
        "app_id": "app",
        "audience": "user",
        "items": sorted((v.candidate.kind, v.candidate.text, v.analysis or "", v.candidate.occurrences) for v in ai),
    }
    reference = hashlib.sha256(json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")).hexdigest()
    assert _summary_digest("app", run, "user") == _summary_digest("app", verdict_form, "user") == reference
    cache = SummaryCache(None)
    cache.put(reference, {"summary": "s", "capabilities": ["c"]})
    counts = [summarize_with_cache("app", r, make_gateway(), cache, "user")[0].kind_counts for r in (run, verdict_form)]
    expected = dict(Counter(v.candidate.kind for v in ai))
    assert counts == [expected] * 2 and expected == {CandidateKind.PACKAGE: 2, CandidateKind.API: 1}


def test_a_summary_cache_miss_hands_summarize_app_the_ai_verdicts_in_candidate_order(monkeypatch):
    run = _labeled_hits_run()
    summarize_app = report_module.summarize_app
    handed = []
    monkeypatch.setattr(
        report_module, "summarize_app",
        lambda app_id, verdicts, gateway: handed.append(verdicts) or summarize_app(app_id, verdicts, gateway),
    )
    service, digest = summarize_with_cache("app", run, make_gateway(), SummaryCache(None), "user")
    (verdicts,) = handed
    assert [(v.candidate, v.analysis, v.provenance) for v in verdicts] == [
        (v.candidate, v.analysis, v.provenance) for v in run.verdicts if v.is_ai
    ]
    assert [v.provenance for v in verdicts] == [PROVENANCE_KB, PROVENANCE_FRESH, PROVENANCE_KB]
    assert digest == _summary_digest("app", run, "user") and not service.degraded


def test_labeled_ai_kb_hits_make_no_garbage_for_the_collector_on_the_way_to_the_verdict_table():
    # 5,000 AI KB hits that carry both labels: the pipeline keeps each as its record and the
    # table reads their labels through one label_of, so neither holds a tracked object per row.
    n = 5000
    candidates = [Candidate(CandidateKind.API, f"<a.B{i}: void m()>", "classes.dex", 1) for i in range(n)]
    cand_set = CandidateSet("t", candidates)
    kb = KnowledgeBase()
    for c in candidates:
        key = KbKey.make(c.kind, c.text)
        kb.records[key] = KbRecord(key, VERDICT_AI, f"Analysis {c.text}", "cv", "object detection", "mock")
    gateway = make_gateway()
    _verdict_table(run_pipeline(cand_set, PipelineConfig(), kb, gateway))  # a first call's one-off allocations
    thresholds = gc.get_threshold()
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    gc.set_threshold(100)
    try:
        run = run_pipeline(cand_set, PipelineConfig(), kb, gateway)
        table = _verdict_table(run)
    finally:
        gc.set_threshold(*thresholds)
    assert gc.get_stats()[0]["collections"] == before
    assert len(run.ai_hits) == n and set(table.domain) == {"ComputerVision"} and set(table.task) == {"Object Detection"}
    assert all(table.is_ai) and set(table.provenance) == {PROVENANCE_KB}


def test_a_nonai_record_with_labels_reports_them_as_they_are_beside_a_labeled_ai_hit():
    # Replay rejects a NonAI record with labels, but a snapshot edited on disk can hold one.
    kb = KnowledgeBase()
    candidates = [Candidate(CandidateKind.PACKAGE, f"com.acme.p{i}", "classes.dex", 1) for i in range(2)]
    for cand, verdict in zip(candidates, (VERDICT_AI, VERDICT_NON_AI)):
        key = KbKey.make(cand.kind, cand.text)
        kb.records[key] = KbRecord(key, verdict, "an analysis", "odd domain", "odd task", "mock")
    run = run_pipeline(CandidateSet("app", candidates), PipelineConfig(), kb, make_gateway())
    assert run.objects == [None, None] and run.ai_hits == [0]
    table = _verdict_table(run)
    assert (table.domain[1], table.task[1]) == ("odd domain", "odd task")
    assert table.domain[0] != "odd domain" and table.task[0] == "Odd Task"
