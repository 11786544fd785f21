"""Tests of the benchmark itself: corpus, latency backend, probes, checker.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import corpus  # noqa: F401  (puts src/ and tests/ on sys.path)
import latency
import probes
import run
from aidiscover.gateway import LlmGateway, TaskId
from aidiscover.prompts import load_templates

HERE = Path(__file__).resolve().parent

# Changes when the builders in tests/helpers.py or the generator change what
# they emit. Every benchmark input then changed too: re-measure the baseline
# in README.md before updating it.
TINY_DIGEST = "d2b4956faa797b4216daa5e75f8d5873b464f0da3cf167675915b85bb44be267"


def test_corpus_digest_is_pinned():
    assert corpus.corpus_digest(7, corpus.TINY) == TINY_DIGEST


def test_corpus_depends_on_seed_but_not_its_shape():
    a, b = list(corpus.iter_apps(7, corpus.TINY)), list(corpus.iter_apps(8, corpus.TINY))
    assert [app.app_id for app in a] != [app.app_id for app in b]
    assert [len(app.truth) for app in a] == [len(app.truth) for app in b]


def _analyze(tmp_path: Path, apks, truth, audience="user") -> tuple[dict, Path]:
    out = tmp_path / f"out-{audience}"
    spec = {
        "seed": 7,
        "apks": [str(p) for p in apks],
        "kb": str(tmp_path / "kb.jsonl"),
        "out": str(out),
        "jobs": 2,
        "audience": audience,
        "latency": False,
        "trace": True,
        "repeat": 1,
        "repeat_s": 0,
        "trace_out": str(tmp_path / "spans.jsonl"),
        "result": str(tmp_path / "result.json"),
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(tmp_path / "spec.json")],
        check=True,
        capture_output=True,
        timeout=120,
    )
    return json.loads((tmp_path / "result.json").read_text())[0], out


def test_tiny_corpus_passes_check_cold_and_warm(tmp_path):
    apks, truth = corpus.write_corpus(7, corpus.TINY, tmp_path / "apks")
    cold, out = _analyze(tmp_path, apks, truth)
    assert run.check_reports(out, truth) == 0
    assert cold["layers"]["backends.calls"] > 0
    assert cold["layers"]["kb.inserts"] > 0
    assert len(cold["app_s"]) == len(apks)

    warm, out = _analyze(tmp_path, apks, truth, audience="developer")
    assert run.check_reports(out, truth) == 0
    assert warm["layers"]["kb.hit_ratio"] == 1.0
    assert warm["layers"]["backends.calls"] == warm["layers"]["backends.calls.Summarize"] > 0
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {"app", "candidates.extract", "dex.parse", "report.write"} <= {s["name"] for s in spans}


def test_check_reports_flags_a_wrong_domain_a_failed_item_and_a_missing_report(tmp_path):
    from aidiscover.pipeline import FAILURE_RATIONALE

    apks, truth = corpus.write_corpus(7, corpus.TINY, tmp_path / "apks")
    _, out = _analyze(tmp_path, apks, truth)
    first, second, third = sorted(truth)
    path = out / f"{first}.json"
    report = json.loads(path.read_text())
    row = next(r for r in report["verdicts"] if r["is_ai"])
    row["domain"] = "Others"
    path.write_text(json.dumps(report))
    path = out / f"{second}.json"
    report = json.loads(path.read_text())
    next(r for r in report["verdicts"] if not r["is_ai"])["rationale"] = FAILURE_RATIONALE
    path.write_text(json.dumps(report))
    assert run.check_reports(out, truth) == 2
    (out / f"{third}.json").unlink()
    assert run.check_reports(out, truth) == 3


def _gateway(backend) -> LlmGateway:
    return LlmGateway(backend, load_templates(), sleeper=lambda _: None)


def test_latency_backend_sees_retries_and_duplicates(monkeypatch):
    monkeypatch.setattr(latency, "MISALIGN_SHARE", 1.0)  # every first attempt fails
    backend = latency.LatencyBackend(seed=3, sleep=lambda _: None)
    items = [f"com.example.item{i}" for i in range(6)]
    results = _gateway(backend).run_items(TaskId.ANALYZE, items, batch_size=3)
    assert all(r.error is None for r in results)
    counters = backend.counters()
    assert counters["calls"] == {TaskId.ANALYZE: 4}
    assert counters["retries"] == 2
    assert counters["useful_items"] == 6
    assert counters["dup_items"] == 0

    monkeypatch.setattr(latency, "MISALIGN_SHARE", 0.0)
    _gateway(backend).run_items(TaskId.ANALYZE, items, batch_size=3)
    assert backend.counters()["dup_items"] == 6


def test_latency_backend_sees_singleton_fallbacks(monkeypatch):
    monkeypatch.setattr(latency, "MISALIGN_SHARE", 1.0)
    backend = latency.LatencyBackend(seed=3, sleep=lambda _: None)
    gateway = LlmGateway(backend, load_templates(), retry_budget=0, sleeper=lambda _: None)
    results = gateway.run_items(TaskId.DETECT, ["a", "b", "c"], batch_size=3)
    # Each singleton is a first attempt too, so it fails and is not retried.
    assert all(r.error for r in results)
    assert backend.counters()["singleton_fallbacks"] == 3


def test_latency_backend_counters_hold_under_threads():
    backend = latency.LatencyBackend(seed=5, sleep=lambda _: None)
    gateway = _gateway(backend)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(
                target=gateway.run_items,
                args=(TaskId.DETECT, [f"t{t}.item{i}" for i in range(60)], 3),
            )
            for t in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    counters = backend.counters()
    assert counters["useful_items"] == 360
    assert counters["calls"][TaskId.DETECT] == counters["array_calls"] == 120 + counters["retries"]
    assert counters["dup_items"] == 0


def test_latency_is_keyed_on_the_request():
    backend = latency.LatencyBackend(seed=9)
    assert backend.delay_s("prompt", 3) == backend.delay_s("prompt", 3)
    factors = [latency.tail_factor(u / 1000) for u in range(1, 1000)]
    assert 0.9 < sum(factors) / len(factors) < 1.1
    assert max(factors) <= latency.TAIL_CAP


def test_self_time_subtracts_direct_children():
    spans = [
        (1, "pipeline.run", 0.0, 10.0, None, "a", 1),
        (2, "gateway.run_items", 1.0, 7.0, 1, "a", 1),
        (3, "backend.complete", 2.0, 6.0, 2, "a", 1),
        (4, "kb.insert", 8.0, 9.0, 1, "a", 1),
    ]
    total, self_time, calls = probes.span_times(spans)
    assert self_time["pipeline.run"] == pytest.approx(3.0)
    assert self_time["gateway.run_items"] == pytest.approx(2.0)
    assert total["backend.complete"] == pytest.approx(4.0)
    assert calls["kb.insert"] == 1
