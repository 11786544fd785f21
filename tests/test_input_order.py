"""Reports, KB and summary cache do not depend on ``--jobs``, and no app
waits forever on another.

The corpus shares SDK classes across apps, so under ``--jobs 4`` several
apps claim the same keys at once; the single flight in ``kb.InputOrder``
must make them give exactly what ``--jobs 1`` gives. Each run goes through
``cli.main`` in a thread that is joined with a timeout, so a turn that is
never passed fails the test instead of hanging it.
"""

import json
import sys
import threading
import time
from pathlib import Path

import pytest

from aidiscover import cli, report
from aidiscover.apk import open_apk
from aidiscover.backends import MockBackend
from aidiscover.candidates import extract_candidates
from aidiscover.kb import KbKey, kb_sync
from aidiscover.whitelist import apply_whitelist, load_whitelist

from helpers import DexBuilder, FailingCall, build_apk

RUN_TIMEOUT_S = 60

# (class, methods): AI and non-AI SDK classes that several apps bundle.
SDK = (
    ("com.google.mlkit.vision.face.FaceDetector", ("detect", "close", "process")),
    ("org.tensorflow.lite.Interpreter", ("run", "resize", "allocate")),
    ("com.acme.speech.Recognizer", ("listen", "cancel")),
    ("com.shared.util.Strings", ("format", "join", "split")),
    ("com.shared.net.Fetcher", ("get", "post")),
)


class SlowMock(MockBackend):
    """Mock answers after 2 ms, so the apps' requests really overlap."""

    def complete(self, request):
        time.sleep(0.002)
        return super().complete(request)


def _dex(classes) -> bytes:
    builder = DexBuilder()
    for name, methods in classes:
        builder.add_class(name, [("void", m, []) for m in methods])
    return builder.build()


def make_shared_corpus(root: Path, apps: int = 6) -> list[Path]:
    """Each app bundles three of the SDK classes, overlapping its neighbours,
    plus two classes and a model asset of its own."""
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(apps):
        classes = [SDK[(i + j) % len(SDK)] for j in range(3)]
        classes += [(f"com.app{i}.main.Main", ("run", "stop")), (f"com.app{i}.vision.Scanner", ("scan",))]
        entries = [("classes.dex", _dex(classes)), ("assets/shared.tflite", b"TFL3model")]
        paths.append(build_apk(root / f"app{i}.apk", entries))
    return paths


def analyze(work: Path, apks, jobs: int, out: str, monkeypatch, order="atd", backend=None) -> Path:
    """``analyze`` into ``work/out`` on the KB ``work/kb.jsonl``, run through
    ``cli.main`` in a thread that must return in time."""
    work.mkdir(exist_ok=True)
    out_dir = work / out
    argv = ["analyze", "--backend", "mock", "--order", order, "--kb", work / "kb.jsonl",
            "--out", out_dir, "--jobs", jobs, "--deterministic", *apks]
    backend = backend or SlowMock()
    monkeypatch.setattr(cli, "MockBackend", lambda: backend)
    outcome = {}
    thread = threading.Thread(
        target=lambda: outcome.setdefault("code", cli.main([str(a) for a in argv])), daemon=True
    )
    thread.start()
    thread.join(RUN_TIMEOUT_S)
    assert not thread.is_alive(), "analyze did not finish: an app waits on a turn never passed"
    assert outcome["code"] == cli.EXIT_OK
    return out_dir


def outputs(out_dir: Path, work: Path) -> dict:
    """Every report byte, the KB and summary cache bytes, and the calls by task."""
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return {
        "reports": files,
        "kb": (work / "kb.jsonl").read_bytes(),
        "summaries": (work / "kb.jsonl.summaries").read_bytes(),
        "calls": manifest["backend_calls_by_task"],
    }


def manifest_apps(out_dir: Path) -> dict:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return {entry["app_id"]: entry for entry in manifest["apps"]}


@pytest.mark.parametrize("order", ["atd", "dta"])
def test_jobs_one_and_four_give_byte_identical_outputs(tmp_path, monkeypatch, order):
    apks = make_shared_corpus(tmp_path / "corpus")
    seen = {}
    for jobs in (1, 4):
        work = tmp_path / f"jobs{jobs}"
        seen[jobs] = [
            outputs(analyze(work, apks, jobs, name, monkeypatch, order), work) for name in ("cold", "warm")
        ]
    cold, warm = seen[1]
    assert cold["calls"]["Detect"] > 0 and warm["calls"] == {}
    assert len(cold["reports"]) == 2 * len(apks)
    assert seen[4] == seen[1]


def test_outputs_hold_with_more_apps_at_once_than_cores_and_fast_switching(tmp_path, monkeypatch):
    apks = make_shared_corpus(tmp_path / "corpus", apps=8)
    expected = outputs(analyze(tmp_path / "one", apks, 1, "out", monkeypatch), tmp_path / "one")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = outputs(analyze(tmp_path / "eight", apks, 8, "out", monkeypatch), tmp_path / "eight")
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


def test_manifest_counts_add_up_to_the_whitelisted_candidates(tmp_path, monkeypatch):
    apks = make_shared_corpus(tmp_path / "corpus")
    whitelist = load_whitelist(None)
    kept = {}
    for apk in apks:
        with open_apk(apk) as archive:
            kept[apk.stem] = len(apply_whitelist(extract_candidates(archive, apk.stem), whitelist).candidates)
    counts = {}
    for jobs in (1, 4):
        work = tmp_path / f"jobs{jobs}"
        counts[jobs] = manifest_apps(analyze(work, apks, jobs, "cold", monkeypatch))
        for app_id, entry in counts[jobs].items():
            assert min(entry["kb_hits"], entry["fresh"], entry["from_earlier_app"]) >= 0
            assert entry["kb_hits"] + entry["fresh"] + entry["from_earlier_app"] == kept[app_id]
    assert all(entry["from_earlier_app"] == 0 for entry in counts[1].values())
    for app_id, entry in counts[4].items():
        assert entry["fresh"] == counts[1][app_id]["fresh"]
        assert entry["kb_hits"] + entry["from_earlier_app"] == counts[1][app_id]["kb_hits"]
    # The apps share keys, and with four at once some claims collide.
    assert sum(entry["kb_hits"] for entry in counts[1].values()) > 0
    assert sum(entry["from_earlier_app"] for entry in counts[4].values()) > 0


@pytest.mark.parametrize("broken", ["missing", "corrupt"])
def test_a_failed_app_in_the_middle_stalls_no_later_app(tmp_path, monkeypatch, broken):
    apks = make_shared_corpus(tmp_path / "corpus", apps=5)
    bad = tmp_path / "corpus" / "bad.apk"
    if broken == "corrupt":
        bad.write_bytes(b"PK\x03\x04 this is not a zip archive")
    corpus = [*apks[:2], bad, *apks[2:]]
    expected = outputs(analyze(tmp_path / "one", corpus, 1, "out", monkeypatch), tmp_path / "one")
    got = outputs(analyze(tmp_path / "four", corpus, 4, "out", monkeypatch), tmp_path / "four")
    assert got == expected
    statuses = {app_id: e["status"] for app_id, e in manifest_apps(tmp_path / "four" / "out").items()}
    assert statuses == {**{apk.stem: "ok" for apk in apks}, "bad": "error"}


def test_keys_of_a_degraded_app_are_resolved_by_the_next_claimant(tmp_path, monkeypatch):
    [first] = make_shared_corpus(tmp_path / "corpus", apps=1)
    # A later app with exactly the first app's keys: each one was claimed first by the degraded app.
    second = tmp_path / "corpus" / "second.apk"
    second.write_bytes(first.read_bytes())
    # Call 2 is one of the first app's Analyze batches: that app degrades and writes no fresh verdict.
    out_dir = analyze(tmp_path / "four", [first, second], 2, "out", monkeypatch, backend=FailingCall(fail_at=2))
    alone = analyze(tmp_path / "alone", [second], 1, "out", monkeypatch)

    degraded = json.loads((out_dir / "app0.json").read_text())
    assert degraded["degraded"] is True
    assert (out_dir / "second.json").read_bytes() == (alone / "second.json").read_bytes()
    entry = manifest_apps(out_dir)["second"]
    assert entry["from_earlier_app"] == 0 and entry["fresh"] == len(degraded["verdicts"])
    records = kb_sync(tmp_path / "four" / "kb.jsonl").records
    assert {KbKey.make(v["kind"], v["text"]) for v in degraded["verdicts"]} <= set(records)


def test_a_failed_write_marks_its_app_an_error_in_the_manifest(tmp_path, monkeypatch):
    apks = make_shared_corpus(tmp_path / "corpus", apps=4)
    write_back = report.write_back

    def failing_for_app1(run, kb, model_id):
        if any(v.candidate.text.startswith("com.app1.") for v in run.verdicts):
            raise ValueError("disk says no")
        write_back(run, kb, model_id)

    monkeypatch.setattr(report, "write_back", failing_for_app1)
    out_dir = analyze(tmp_path / "four", apks, 4, "out", monkeypatch)
    apps = manifest_apps(out_dir)
    assert apps["app1"]["status"] == "error" and "disk says no" in apps["app1"]["error"]
    assert all(apps[f"app{i}"]["status"] == "ok" for i in (0, 2, 3))
    assert json.loads((out_dir / "manifest.json").read_text())["failed"] == 1
