import json
from pathlib import Path

import pytest

from aidiscover import candidates, cli
from aidiscover.kb import VERDICT_AI, VERDICT_NON_AI, KbKey, KbRecord, kb_sync
from aidiscover.pipeline import PipelineConfig
from aidiscover.report import iter_report_paths, read_report

from conftest import write_jsonl
from helpers import build_apk


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def analyze(tmp_path, apk_paths, out="reports", extra=()):
    out_dir = tmp_path / out
    code = run_cli(
        "analyze",
        "--backend",
        "mock",
        "--kb",
        tmp_path / f"{out}.kb.jsonl",
        "--out",
        out_dir,
        "--deterministic",
        *extra,
        *apk_paths,
    )
    return code, out_dir


class TestAnalyze:
    def test_ai_fixture_app(self, tmp_path, fixture_corpus):
        apks, _, _ = fixture_corpus
        code, out_dir = analyze(tmp_path, [apks[0]])
        assert code == cli.EXIT_OK
        report = read_report(out_dir / "app_00.json")
        assert report["is_ai_app"] is True
        assert len(report["capabilities"]) >= 1
        assert report["summary"]
        assert report["app_label"]["domain"] == "ComputerVision"
        # whitelisted platform packages never reach the verdict list
        assert all(not v["text"].startswith("java.") for v in report["verdicts"])

    def test_non_ai_fixture_app(self, tmp_path, fixture_corpus):
        apks, _, _ = fixture_corpus
        code, out_dir = analyze(tmp_path, [apks[6]])
        assert code == cli.EXIT_OK
        report = read_report(out_dir / "app_06.json")
        assert report["is_ai_app"] is False
        assert report["capabilities"] == []
        assert report["app_label"] is None

    def test_duplicate_app_id_is_refused(self, tmp_path, fixture_corpus, capsys):
        apks, _, _ = fixture_corpus
        first, second = tmp_path / "a" / "app.apk", tmp_path / "b" / "app.apk"
        for path in (first, second):
            path.parent.mkdir()
            path.write_bytes(Path(apks[0]).read_bytes())
        code, out_dir = analyze(tmp_path, [first, second])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "'app'" in err and str(first) in err and str(second) in err
        assert not out_dir.exists()
        assert not (tmp_path / "reports.kb.jsonl").exists()

    def test_missing_apk_is_isolated(self, tmp_path, fixture_corpus):
        apks, _, _ = fixture_corpus
        code, out_dir = analyze(tmp_path, [apks[0], tmp_path / "missing.apk"])
        assert code == cli.EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        by_status = {e["apk"]: e["status"] for e in manifest["apps"]}
        assert len([s for s in by_status.values() if s == "ok"]) == 1
        assert len([s for s in by_status.values() if s == "error"]) == 1

    def test_all_failures_exit_nonzero(self, tmp_path):
        code, _ = analyze(tmp_path, [tmp_path / "nope.apk"])
        assert code == cli.EXIT_FAILURE

    def test_manifest_counts_calls_by_task(self, tmp_path, fixture_corpus):
        apks, _, _ = fixture_corpus
        kb_path = tmp_path / "cold.kb.jsonl"
        _, cold = analyze(tmp_path, apks, out="cold")
        manifest = json.loads((cold / "manifest.json").read_text())
        by_task = manifest["backend_calls_by_task"]
        assert set(by_task) >= {"Analyze", "Detect", "ClassifyTaxonomy", "Summarize"}
        assert sum(by_task.values()) == manifest["backend_calls"] > 0

        warm = tmp_path / "warm"
        assert run_cli("analyze", "--kb", kb_path, "--out", warm, "--deterministic", *apks) == cli.EXIT_OK
        manifest = json.loads((warm / "manifest.json").read_text())
        assert manifest["backend_calls_by_task"] == {}
        assert manifest["backend_calls"] == 0

    def test_deterministic_reports_byte_identical(self, tmp_path, fixture_corpus):
        apks, _, _ = fixture_corpus
        _, dir_a = analyze(tmp_path, apks[:3], out="run_a")
        _, dir_b = analyze(tmp_path, apks[:3], out="run_b")
        for path_a in iter_report_paths(dir_a):
            path_b = dir_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_cold_run_writes_one_kb_line_per_key(self, tmp_path, fixture_corpus):
        apks, _, _ = fixture_corpus
        kb_path = tmp_path / "cold.kb.jsonl"
        analyze(tmp_path, apks, out="cold")
        kb_bytes = kb_path.read_bytes()
        rows = [json.loads(line) for line in kb_bytes.decode().splitlines()]
        assert len(rows) == len({(r["kind"], r["text"]) for r in rows})

        def warm(out: str) -> Path:
            out_dir = tmp_path / out
            assert run_cli("analyze", "--kb", kb_path, "--out", out_dir, "--deterministic", *apks) == cli.EXIT_OK
            return out_dir

        second, third = warm("warm_a"), warm("warm_b")
        assert json.loads((second / "manifest.json").read_text())["backend_calls"] == 0
        assert kb_path.read_bytes() == kb_bytes
        for path in iter_report_paths(second):
            assert path.read_bytes() == (third / path.name).read_bytes()

    def test_unusable_cached_summary_is_regenerated(self, tmp_path, fixture_corpus):
        apks, _, _ = fixture_corpus
        _, cold = analyze(tmp_path, apks, out="cold")
        summaries = tmp_path / "cold.kb.jsonl.summaries"
        rows = [json.loads(line) for line in summaries.read_text().splitlines()]
        summaries.write_text("".join(
            json.dumps({"digest": r["digest"], "value": {"summary": 7}}) + "\n" for r in rows
        ))
        warm = tmp_path / "warm"
        kb_path = tmp_path / "cold.kb.jsonl"
        assert run_cli("analyze", "--kb", kb_path, "--out", warm, "--deterministic", *apks) == cli.EXIT_OK
        manifest = json.loads((warm / "manifest.json").read_text())
        assert manifest["failed"] == 0
        assert manifest["backend_calls_by_task"] == {"Summarize": len(rows)}
        for path in iter_report_paths(cold):
            assert read_report(warm / path.name)["summary"] == read_report(path)["summary"]

    def test_packaged_model_suffixes_are_read_once_per_run(self, tmp_path, fixture_corpus, monkeypatch):
        apks, _, _ = fixture_corpus
        reads = []
        read_list = candidates.read_list
        monkeypatch.setattr(
            candidates, "read_list", lambda name, path=None: reads.append(name) or read_list(name, path)
        )
        code, _ = analyze(tmp_path, apks[:3])
        assert code == cli.EXIT_OK
        assert reads.count("model_suffixes.txt") == 1

    def test_order_flag_round_trips(self, tmp_path, fixture_corpus):
        apks, _, _ = fixture_corpus
        code, out_dir = analyze(tmp_path, [apks[0]], out="dta", extra=["--order", "dta"])
        assert code == cli.EXIT_OK
        assert read_report(out_dir / "app_00.json")["is_ai_app"] is True

    def test_config_file_with_flag_override(self, tmp_path, fixture_corpus):
        apks, _, _ = fixture_corpus
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"batch_size": 2, "order": "dta", "backend": "mock"}))
        out_dir = tmp_path / "cfged"
        code = run_cli(
            "analyze",
            "--config",
            config,
            "--order",
            "atd",  # flag beats file
            "--out",
            out_dir,
            "--deterministic",
            apks[0],
        )
        assert code == cli.EXIT_OK
        report = read_report(out_dir / "app_00.json")
        assert report["is_ai_app"] is True


class TestEvaluate:
    def test_reports_vs_truth_perfect(self, tmp_path, fixture_corpus, capsys):
        apks, component_truth, app_truth = fixture_corpus
        _, out_dir = analyze(tmp_path, apks)
        truth_path = write_jsonl(tmp_path / "truth.jsonl", component_truth + app_truth)
        result = cli.run_evaluate(out_dir, truth_path)
        assert result["precision"] == 1.0
        assert result["recall"] == 1.0
        assert result["kappa"] == 1.0
        assert result["coverage_warnings"] == []

    def test_evaluate_command_output(self, tmp_path, capsys):
        predictions = write_jsonl(
            tmp_path / "p.jsonl",
            [
                {"kind": "Package", "text": "com.a", "label": "AI"},
                {"kind": "Package", "text": "com.b", "label": "NonAI"},
            ],
        )
        truth = write_jsonl(
            tmp_path / "t.jsonl",
            [
                {"kind": "Package", "text": "com.a", "label": "AI"},
                {"kind": "Package", "text": "com.b", "label": "AI"},
            ],
        )
        code = run_cli("evaluate", "--predictions", predictions, "--truth", truth)
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "precision: 1.0000" in out
        assert "recall:    0.5000" in out

    @pytest.mark.parametrize(
        "bad_line",
        ['{"kind": "Package", "label": "AI"}', '["Package", "com.b", "AI"]', '{"kind": Package'],
        ids=["no-text", "not-an-object", "invalid-json"],
    )
    def test_malformed_truth_row_names_its_line(self, tmp_path, capsys, bad_line):
        good = {"kind": "Package", "text": "com.a", "label": "AI"}
        predictions = write_jsonl(tmp_path / "p.jsonl", [good])
        truth = tmp_path / "t.jsonl"
        truth.write_text(json.dumps(good) + "\n" + bad_line + "\n", encoding="utf-8")
        code = run_cli("evaluate", "--predictions", predictions, "--truth", truth)
        assert code == cli.EXIT_FAILURE
        assert f"{truth}:2:" in capsys.readouterr().err

    def test_degenerate_precision_flagged(self, tmp_path, capsys):
        predictions = write_jsonl(
            tmp_path / "p.jsonl", [{"kind": "Package", "text": "com.a", "label": "NonAI"}]
        )
        truth = write_jsonl(
            tmp_path / "t.jsonl", [{"kind": "Package", "text": "com.a", "label": "AI"}]
        )
        code = run_cli("evaluate", "--predictions", predictions, "--truth", truth)
        assert code == cli.EXIT_OK
        assert "precision: undefined" in capsys.readouterr().out

    def test_disjoint_keys_fail(self, tmp_path):
        predictions = write_jsonl(
            tmp_path / "p.jsonl", [{"kind": "Package", "text": "com.a", "label": "AI"}]
        )
        truth = write_jsonl(tmp_path / "t.jsonl", [{"app_id": "other", "label": "AI"}])
        assert run_cli("evaluate", "--predictions", predictions, "--truth", truth) == cli.EXIT_FAILURE


def seed_kb(path: Path, spec: list[tuple[str, str, int, str | None, str | None]]):
    """spec rows: (kind, verdict, count, domain, task)."""
    with open(path, "w", encoding="utf-8") as fh:
        row = 0
        for kind, verdict, count, domain, task in spec:
            for _ in range(count):
                record = KbRecord(
                    key=KbKey.make(kind, f"component.number{row}"),
                    verdict=verdict,
                    analysis="a" if verdict == VERDICT_AI else None,
                    domain=domain,
                    task=task,
                    model_id="mock",
                )
                fh.write(record.to_line() + "\n")
                row += 1
    return path


class TestStats:
    def test_kb_totals_and_distribution(self, tmp_path, capsys):
        kb_path = seed_kb(
            tmp_path / "kb.jsonl",
            [
                ("Package", VERDICT_AI, 3, "ComputerVision", "Object Detection"),
                ("Api", VERDICT_AI, 2, "DataAnalysis", "Data Processing"),
                ("ModelAsset", VERDICT_AI, 1, "ComputerVision", "Image Analysis"),
                ("Package", VERDICT_NON_AI, 4, None, None),
            ],
        )
        code = run_cli("stats", "--kb", kb_path, "--json")
        assert code == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind_totals"] == {
            "package_api": 5,
            "model": 1,
            "http_request": 0,
            "others": 0,
            "total": 6,
        }
        assert doc["component_domain_dist"]["ComputerVision"] == pytest.approx(4 / 6)

    def test_empty_kb_fails(self, tmp_path):
        kb_path = tmp_path / "kb.jsonl"
        kb_path.write_text("")
        assert run_cli("stats", "--kb", kb_path) == cli.EXIT_FAILURE

    def test_reports_stats(self, tmp_path, fixture_corpus, capsys):
        apks, _, _ = fixture_corpus
        _, out_dir = analyze(tmp_path, apks)
        capsys.readouterr()  # drop the analyze progress line
        code = run_cli("stats", "--reports", out_dir, "--json")
        assert code == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["app_domain_counts"]  # six AI apps spread over domains
        assert doc["kind_totals"]["total"] > 0

    def test_text_table_renders(self, tmp_path, capsys):
        kb_path = seed_kb(
            tmp_path / "kb.jsonl",
            [("Package", VERDICT_AI, 2, "ComputerVision", "Object Detection")],
        )
        code = run_cli("stats", "--kb", kb_path)
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "package_api" in out and "Computer Vision" in out

    def test_kb_labels_read_the_same_in_report_app_label_and_both_stats(self, tmp_path, fixture_corpus, capsys):
        apks, _, _ = fixture_corpus
        analyze(tmp_path, [apks[0]], out="cold")
        kb_path = tmp_path / "cold.kb.jsonl"
        rows = [json.loads(line) for line in kb_path.read_text().splitlines()]
        for row in rows:
            if row["verdict"] == VERDICT_AI:
                row.update(domain="computer vision", task="object detection")
        kb_path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        out_dir = tmp_path / "warm"
        assert run_cli("analyze", "--kb", kb_path, "--out", out_dir, "--deterministic", apks[0]) == cli.EXIT_OK
        label = {"domain": "ComputerVision", "task": "Object Detection"}
        report = read_report(out_dir / "app_00.json")
        ai_rows = [row for row in report["verdicts"] if row["is_ai"]]
        assert ai_rows and all({"domain": r["domain"], "task": r["task"]} == label for r in ai_rows)
        assert report["app_label"] == label
        capsys.readouterr()
        for source in (("--reports", out_dir), ("--kb", kb_path)):
            assert run_cli("stats", *source, "--json") == cli.EXIT_OK
            doc = json.loads(capsys.readouterr().out)
            assert doc["component_task_dist"] == {"ComputerVision/Object Detection": 1.0}

    @pytest.mark.parametrize("command", ["stats", "evaluate"])
    def test_stray_json_in_report_dir_is_an_error_naming_it(self, tmp_path, fixture_corpus, capsys, command):
        apks, component_truth, _ = fixture_corpus
        _, out_dir = analyze(tmp_path, [apks[0]])
        stray = out_dir / "notes.json"
        stray.write_text(json.dumps({"app_id": "app_00"}))
        truth = write_jsonl(tmp_path / "truth.jsonl", component_truth)
        capsys.readouterr()
        argv = {
            "stats": ("stats", "--reports", out_dir),
            "evaluate": ("evaluate", "--predictions", out_dir, "--truth", truth),
        }[command]
        assert run_cli(*argv) == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(stray) in err

    @pytest.mark.parametrize("command", ["stats", "evaluate"])
    @pytest.mark.parametrize(
        "spoil",
        [lambda report: report["verdicts"][0].pop("is_ai"), lambda report: report.update(app_label="CV")],
        ids=["row_without_is_ai", "app_label_not_an_object"],
    )
    def test_report_with_a_malformed_field_is_an_error_naming_it(
        self, tmp_path, fixture_corpus, capsys, command, spoil
    ):
        apks, component_truth, _ = fixture_corpus
        _, out_dir = analyze(tmp_path, [apks[0]])
        path = out_dir / "app_00.json"
        report = json.loads(path.read_text())
        spoil(report)
        path.write_text(json.dumps(report))
        truth = write_jsonl(tmp_path / "truth.jsonl", component_truth)
        capsys.readouterr()
        argv = {
            "stats": ("stats", "--reports", out_dir),
            "evaluate": ("evaluate", "--predictions", out_dir, "--truth", truth),
        }[command]
        assert run_cli(*argv) == cli.EXIT_FAILURE
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


class TestCurateCommand:
    def test_curate_writes_survivors(self, tmp_path, capsys):
        descriptions = write_jsonl(
            tmp_path / "descs.jsonl",
            [
                {"package_name": "com.wise.chat", "text": "Our AI chatbot powered by ChatGPT."},
                {"package_name": "com.travel", "text": "Visit Bangkok and Shanghai."},
            ],
        )
        out = tmp_path / "selected.jsonl"
        code = run_cli("curate", "--backend", "mock", "--descriptions", descriptions, "--out", out)
        assert code == cli.EXIT_OK
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["package_name"] for r in rows] == ["com.wise.chat"]
        assert "keyword pass: 1" in capsys.readouterr().out


class TestUsage:
    @pytest.mark.parametrize(
        "config",
        [{}, {"batch_size": None, "order": None, "kb": None, "sampling": None}, {"sampling": {"top_p": None}}],
    )
    def test_unset_and_null_settings_take_the_config_class_defaults(self, tmp_path, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        args = cli.build_parser().parse_args(["analyze", "x.apk"])
        assert cli.build_pipeline_config(args, cli._load_config_file(str(path))) == PipelineConfig()

    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == cli.EXIT_USAGE

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--backend", "carrier-pigeon", "x.apk"])
        assert exc.value.code == cli.EXIT_USAGE

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_refused_before_anything_is_written(self, tmp_path, fixture_corpus, jobs):
        apks, _, _ = fixture_corpus
        with pytest.raises(SystemExit) as exc:
            analyze(tmp_path, [apks[0]], extra=("--jobs", jobs))
        assert exc.value.code == cli.EXIT_USAGE
        assert not (tmp_path / "reports").exists()
        assert not (tmp_path / "reports.kb.jsonl").exists()

    @pytest.mark.parametrize("command", ["analyze", "curate"])
    @pytest.mark.parametrize(
        "config",
        [
            [1],
            {"sampling": 5},
            {"sampling": {"temperature": "hot"}},
            {"sampling": {"top_p": True}},
            {"batch_size": [1]},
            {"kb": 5},
            {"retry_budget": True},
            {"order": ""},
            {"backend": ""},
            {"audience": "everyone"},
        ],
    )
    def test_malformed_config_is_an_error_naming_the_file(self, tmp_path, capsys, command, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        descriptions = write_jsonl(tmp_path / "descs.jsonl", [])
        args = {
            "analyze": ("--out", tmp_path / "out", tmp_path / "app.apk"),
            "curate": ("--descriptions", descriptions),
        }[command]
        assert run_cli(command, "--config", path, *args) == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("key", ["kb", "whitelist"])
    def test_empty_path_in_config_is_refused(self, tmp_path, fixture_corpus, capsys, key):
        apks, _, _ = fixture_corpus
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: ""}))
        assert run_cli("analyze", "--config", path, "--out", tmp_path / "out", apks[0]) == cli.EXIT_FAILURE
        assert capsys.readouterr().err.startswith(f"error: {path}: {key} must be a non-empty string")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--kb", "", "x.apk"),
            ("analyze", "--whitelist", "", "x.apk"),
            ("analyze", "--model-suffixes", "", "x.apk"),
            ("analyze", "--model", "", "x.apk"),
            ("stats", "--kb", ""),
            ("stats", "--reports", ""),
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_empty_path_flag_is_a_usage_error(self, tmp_path, argv, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == cli.EXIT_USAGE
        assert list(tmp_path.iterdir()) == []


class TestParallelJobs:
    def test_worker_pool_run_still_evaluates_perfectly(self, tmp_path, fixture_corpus):
        apks, component_truth, app_truth = fixture_corpus
        out_dir = tmp_path / "parallel"
        code = run_cli(
            "analyze",
            "--backend",
            "mock",
            "--kb",
            tmp_path / "parallel.kb.jsonl",
            "--out",
            out_dir,
            "--jobs",
            "4",
            *apks,
        )
        assert code == cli.EXIT_OK
        truth_path = write_jsonl(tmp_path / "truth.jsonl", component_truth + app_truth)
        result = cli.run_evaluate(out_dir, truth_path)
        assert result["precision"] == 1.0
        assert result["recall"] == 1.0
