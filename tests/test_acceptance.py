"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (or -s to see the lines).
"""

import json
import random
import time
from pathlib import Path

import pytest

from aidiscover import cli
from aidiscover.apk import open_apk
from aidiscover.candidates import Candidate, CandidateKind, CandidateSet, extract_candidates, measure_obfuscation
from aidiscover.curation import AppDescription, KeywordList, curate, keyword_screen
from aidiscover.gateway import TaskId
from aidiscover.kb import VERDICT_AI, KbKey, KbRecord, KnowledgeBase, kb_sync
from aidiscover.metrics import cohen_kappa
from aidiscover.pipeline import PipelineConfig, PipelineOrder, run_pipeline
from aidiscover.report import iter_report_paths, read_report
from aidiscover.taxonomy import AppAggregate, DomainLabel, TaxonomyLabel, aggregate_stats
from aidiscover.whitelist import Whitelist, apply_whitelist, load_whitelist

from conftest import build_golden_apk, make_fixture_corpus, make_gateway, write_jsonl
from helpers import DroppingBackend, marked_items, mock_rows, result_rows
from test_candidates import GOLDEN_EXPECTED, serialize
from test_curation import WISE_DESCRIPTION
from test_metrics import brute_force_binary_kappa


def _report(n: int, message: str) -> None:
    print(f"[acceptance] criterion {n:02d} PASS: {message}")


def test_criterion_01_golden_extraction(tmp_path):
    started = time.monotonic()
    apk = build_golden_apk(tmp_path / "golden.apk")

    with open_apk(apk) as archive:
        first = extract_candidates(archive, "golden")
    with open_apk(apk) as archive:
        second = extract_candidates(archive, "golden")

    assert [(c.kind, c.text, c.occurrences) for c in first.candidates] == GOLDEN_EXPECTED
    assert serialize(first) == serialize(second)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(1, f"golden candidate set matches hand enumeration, {elapsed:.2f}s")


def test_criterion_02_mock_end_to_end(tmp_path):
    started = time.monotonic()
    apks, component_truth, app_truth = make_fixture_corpus(tmp_path / "corpus")
    out_dir = tmp_path / "reports"
    code = cli.main(
        [
            "analyze",
            "--backend",
            "mock",
            "--kb",
            str(tmp_path / "kb.jsonl"),
            "--out",
            str(out_dir),
            "--deterministic",
            *[str(p) for p in apks],
        ]
    )
    assert code == cli.EXIT_OK
    truth_path = write_jsonl(tmp_path / "truth.jsonl", component_truth + app_truth)
    result = cli.run_evaluate(out_dir, truth_path)
    assert result["precision"] == 1.0
    assert result["recall"] == 1.0
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(2, f"10-app corpus scores precision=recall=1.0 in {elapsed:.2f}s")


def _corpus_candidate_sets(tmp_path) -> list[CandidateSet]:
    apks, _, _ = make_fixture_corpus(tmp_path / "corpus")
    whitelist = load_whitelist()
    sets = []
    for apk in apks:
        with open_apk(apk) as archive:
            sets.append(apply_whitelist(extract_candidates(archive, apk.stem), whitelist))
    return sets


def test_criterion_03_ordering_property(tmp_path):
    sets = _corpus_candidate_sets(tmp_path)

    def run_order(order: PipelineOrder):
        gateway = make_gateway()
        kb = KnowledgeBase()
        vectors = []
        for cand_set in sets:
            result = run_pipeline(cand_set, PipelineConfig(order=order), kb, gateway)
            vectors.append([v.is_ai for v in result.verdicts])
        return gateway.call_count, vectors

    calls_atd, vec_atd = run_order(PipelineOrder.ANALYSIS_THEN_DETECTION)
    calls_dta, vec_dta = run_order(PipelineOrder.DETECTION_THEN_ANALYSIS)

    non_ai = sum(1 for vec in vec_atd for flag in vec if not flag)
    assert non_ai >= 3
    assert vec_atd == vec_dta
    assert calls_dta < calls_atd
    _report(3, f"detection-first used {calls_dta} calls vs {calls_atd}, same verdict vectors")


def test_criterion_04_kb_reuse(tmp_path):
    apks, _, _ = make_fixture_corpus(tmp_path / "corpus")
    kb_path = tmp_path / "kb.jsonl"

    def run(out_name: str) -> Path:
        out_dir = tmp_path / out_name
        code = cli.main(
            [
                "analyze",
                "--backend",
                "mock",
                "--kb",
                str(kb_path),
                "--out",
                str(out_dir),
                "--deterministic",
                *[str(p) for p in apks],
            ]
        )
        assert code == cli.EXIT_OK
        return out_dir

    first = run("first")
    second = run("second")

    manifest = json.loads((second / "manifest.json").read_text())
    assert manifest["backend_calls"] == 0

    for path_a in iter_report_paths(first):
        report_a = read_report(path_a)
        report_b = read_report(second / path_a.name)
        assert report_a["is_ai_app"] == report_b["is_ai_app"]
        assert report_a["summary"] == report_b["summary"]
        assert report_a["capabilities"] == report_b["capabilities"]
        rows_a = [
            (v["kind"], v["text"], v["is_ai"], v["analysis"], v["domain"], v["task"])
            for v in report_a["verdicts"]
        ]
        rows_b = [
            (v["kind"], v["text"], v["is_ai"], v["analysis"], v["domain"], v["task"])
            for v in report_b["verdicts"]
        ]
        assert rows_a == rows_b
        assert all(v["provenance"] == "KbHit" for v in report_b["verdicts"])
    _report(4, "second analyze run issued 0 backend calls with unchanged verdicts")


def test_criterion_05_batching():
    import math

    for n in (0, 1, 2, 3, 4, 7, 100):
        gateway = make_gateway()
        items = marked_items(n, prefix="com.pkg.item")
        results = gateway.run_items(TaskId.DETECT, items, batch_size=3)
        assert gateway.call_count == math.ceil(n / 3), f"N={n}"
        assert result_rows(results) == mock_rows(TaskId.DETECT, items), f"N={n}"

    gateway = make_gateway(DroppingBackend())
    items = ["a.mlkit.one", "b.plain.two", "c.speech.three"]
    results = gateway.run_items(TaskId.DETECT, items)
    assert result_rows(results) == mock_rows(TaskId.DETECT, items)
    _report(5, "request count = ceil(N/3) for all N; misalignment fallback kept per-item results")


def test_criterion_06_table_totals_echo(tmp_path, capsys):
    kb_path = tmp_path / "kb.jsonl"
    spec = [
        (CandidateKind.PACKAGE, 5000),
        (CandidateKind.API, 5285),
        (CandidateKind.MODEL_ASSET, 644),
        (CandidateKind.HTTPS_REQUEST, 120),
        (CandidateKind.OTHER, 32),
    ]
    with open(kb_path, "w", encoding="utf-8") as fh:
        row = 0
        for kind, count in spec:
            for _ in range(count):
                record = KbRecord(
                    key=KbKey.make(kind, f"component.number{row}"),
                    verdict=VERDICT_AI,
                    analysis="a",
                    model_id="mock",
                )
                fh.write(record.to_line() + "\n")
                row += 1

    stats = cli.stats_from_kb(kb_sync(kb_path))
    assert stats.kind_totals == {
        "package_api": 10285,
        "model": 644,
        "http_request": 120,
        "others": 32,
        "total": 11081,
    }
    code = cli.main(["stats", "--kb", str(kb_path), "--json"])
    assert code == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind_totals"]["total"] == 11081
    _report(6, "kind totals echo 10285/644/120/32 with sum 11081 exactly")


def test_criterion_07_distribution_arithmetic():
    proportions = {
        DomainLabel.COMPUTER_VISION: 5480,
        DomainLabel.DATA_ANALYSIS: 2685,
        DomainLabel.NATURAL_LANGUAGE_PROCESSING: 1338,
        DomainLabel.OTHERS: 275,
        DomainLabel.AUDIO_SPEECH_PROCESSING: 190,
        DomainLabel.AUGMENTED_REALITY: 32,
    }
    assert sum(proportions.values()) == 10_000
    labels = [
        TaxonomyLabel(domain, "Any Task") for domain, n in proportions.items() for _ in range(n)
    ]
    rng = random.Random(7)
    rng.shuffle(labels)
    stats = aggregate_stats([AppAggregate(app_id="corpus", labels=labels)])
    for domain, count in proportions.items():
        assert abs(stats.component_domain_dist[domain] - count / 10_000) <= 1e-9
    assert abs(sum(stats.component_domain_dist.values()) - 1.0) <= 1e-9
    assert abs(sum(stats.component_task_dist.values()) - 1.0) <= 1e-9
    _report(7, "54.80/26.85/13.38/2.75/1.90/0.32 proportions recovered within 1e-9")


def test_criterion_08_kappa_oracle():
    assert cohen_kappa(["AI", "NonAI", "AI"], ["AI", "NonAI", "AI"]) == 1.0
    rng = random.Random(6021023)
    for trial in range(25):
        n = rng.randint(1, 14)
        a = [rng.choice(["AI", "NonAI"]) for _ in range(n)]
        b = [rng.choice(["AI", "NonAI"]) for _ in range(n)]
        expected = brute_force_binary_kappa(a, b)
        assert cohen_kappa(a, b) == pytest.approx(expected, abs=1e-12), (a, b)
    _report(8, "25 randomized vectors match the contingency-table oracle to 1e-12")


def test_criterion_09_obfuscation_measurement():
    assert measure_obfuscation(["d.f.e.x.b"]).file_name_ratio == 1.0

    crafted = [
        "com.example.app.MainActivity",
        "com.example.app.Helper",
        "com.example.a.b.c.Zz",
        "org.acme.x.y.Widget",
        "net.thing.LongName",
        "q.w.e",
    ]
    stats = measure_obfuscation(crafted)
    assert stats.file_name_ratio == 2 / 6
    assert stats.dir_name_ratio == 2 / 5
    assert stats.total_classes == 6
    _report(9, "file/dir ratios equal hand counts; single obfuscated name scores 1.0")


def test_criterion_10_curation_monotonicity(mock_gateway):
    rng = random.Random(42)
    fillers = [
        "Plan your trips with offline maps.",
        "A simple notebook for shopping lists.",
        "Track daily hydration goals.",
        "Classic solitaire with daily challenges.",
        "Brought to you by AI Holdings LLC, a card game.",
    ]
    ai_texts = [
        WISE_DESCRIPTION,
        "Scan receipts with machine learning text recognition.",
        "An AI chatbot that helps you practice languages.",
        "Deep learning photo enhancer with face recognition albums.",
    ]
    descs = [
        AppDescription(package_name=f"com.app{i:02d}", text=rng.choice(fillers + ai_texts))
        for i in range(49)
    ]
    descs.append(AppDescription(package_name="com.wise.chat", text=WISE_DESCRIPTION))
    assert len(descs) == 50

    kw = KeywordList(("ai", "machine learning", "deep learning"))
    result = curate(descs, kw, mock_gateway)
    survivors = [d for d in descs if keyword_screen(d, kw)]

    ids = lambda items: {d.package_name for d in items}  # noqa: E731
    assert ids(result.selected) <= ids(survivors) <= ids(descs)
    assert result.stage1_passed == len(survivors)
    wise = AppDescription(package_name="com.wise.chat", text=WISE_DESCRIPTION)
    assert keyword_screen(wise, kw)
    assert curate([wise], kw, mock_gateway).selected == [wise]
    assert "com.wise.chat" in ids(result.selected)
    _report(10, "curate output within keyword survivors within input; exemplar passes both stages")


def test_criterion_11_whitelist_idempotence_and_exemption():
    rng = random.Random(1187)
    tokens = ["java", "javax", "android", "com", "acme", "ml", "vision", "net", "util", "x"]

    def random_candidate() -> Candidate:
        kind = rng.choice(CandidateKind.ALL)
        dotted = ".".join(rng.choice(tokens) for _ in range(rng.randint(1, 4)))
        if kind == CandidateKind.API:
            text = f"<{dotted}.Cls: void m()>"
        elif kind == CandidateKind.HTTPS_REQUEST:
            text = f"https://{dotted.replace('.', '-')}.example.com/"
        elif kind == CandidateKind.MODEL_ASSET:
            text = f"assets/{dotted.replace('.', '_')}.tflite"
        else:
            text = dotted
        return Candidate(kind, text, "src", rng.randint(1, 5))

    for _ in range(60):
        cands = CandidateSet(
            app_id="t", candidates=[random_candidate() for _ in range(rng.randint(0, 25))]
        )
        prefixes = frozenset(
            ".".join(rng.choice(tokens) for _ in range(rng.randint(1, 2)))
            for _ in range(rng.randint(1, 4))
        )
        wl = Whitelist(prefixes=prefixes)
        once = apply_whitelist(cands, wl)
        twice = apply_whitelist(once, wl)
        assert [(c.kind, c.text, c.occurrences) for c in once.candidates] == [
            (c.kind, c.text, c.occurrences) for c in twice.candidates
        ]
        for kind in (CandidateKind.HTTPS_REQUEST, CandidateKind.MODEL_ASSET):
            assert len([c for c in once.candidates if c.kind == kind]) == len(
                [c for c in cands.candidates if c.kind == kind]
            )
    _report(11, "apply∘apply = apply on 60 random sets; URL/model candidates never dropped")
