"""The benchmark's probes find every name they patch, in its call shape.

``perfbench/probes.py`` replaces functions at the names their callers look
up; renaming one of them breaks the benchmark, and this test catches it.
"""

import importlib.util
import json
from pathlib import Path

from aidiscover import cli, kb, report
from aidiscover.backends import MockBackend

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def probed_names():
    return (cli.analyze_app, cli.write_report, report.run_pipeline, kb.KnowledgeBase.insert, MockBackend.complete)


def test_full_tracer_installs_traces_a_run_and_uninstalls(tmp_path, fixture_corpus):
    apks, _, _ = fixture_corpus
    probes = load_probes()
    originals = probed_names()
    tracer = probes.Tracer(full=True)
    tracer.install(MockBackend)
    try:
        code = cli.main([
            "analyze", "--backend", "mock", "--kb", str(tmp_path / "kb.jsonl"),
            "--out", str(tmp_path / "out"), "--deterministic", *map(str, apks[:2]),
        ])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    assert probed_names() == originals
    assert sorted(probes.app_times(tracer.spans)) == ["app_00", "app_01"]
    names = {span[1] for span in tracer.spans}
    assert {
        "app", "report.write", "kb.replay", "apk.open", "apk.read", "candidates.extract",
        "whitelist.apply", "pipeline.run", "kb.insert", "gateway.run_items",
        "backend.complete", "taxonomy.classify", "taxonomy.summarize", "report.build",
    } <= names


def test_full_tracer_counts_the_fresh_verdicts_the_manifest_counts(tmp_path, fixture_corpus):
    apks, _, _ = fixture_corpus
    probes = load_probes()
    fresh = {}
    for name in ("cold", "warm"):
        tracer = probes.Tracer(full=True)
        tracer.install(MockBackend)
        try:
            code = cli.main([
                "analyze", "--backend", "mock", "--kb", str(tmp_path / "kb.jsonl"),
                "--out", str(tmp_path / name), "--deterministic", *map(str, apks),
            ])
        finally:
            tracer.uninstall()
        assert code == cli.EXIT_OK
        manifest = json.loads((tmp_path / name / "manifest.json").read_text(encoding="utf-8"))
        fresh[name] = sum(app["fresh"] for app in manifest["apps"])
        assert tracer.counts["pipeline.fresh"] == fresh[name]
    assert fresh["cold"] > 0 and fresh["warm"] == 0
