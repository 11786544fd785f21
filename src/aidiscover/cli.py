"""Command-line interface: analyze APKs, evaluate against ground truth,
report corpus statistics, and curate description datasets."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from .backends import LiveBackend, MockBackend
from .candidates import load_model_suffixes
from .curation import curate, load_descriptions, load_keywords
from .gateway import LlmGateway, SamplingConfig
from .kb import VERDICT_AI, KnowledgeBase, SummaryCache, kb_sync, normalize_text, utc_now
from .metrics import cohen_kappa, confusion
from .pipeline import PipelineConfig, PipelineOrder
from .prompts import AUDIENCES, load_templates
from .report import (
    analyze_app,
    iter_report_paths,
    read_report,
    report_aggregate,
    write_report,
)
from .taxonomy import AppAggregate, CorpusStats, aggregate_stats, label_of
from .whitelist import EmptyWhitelist, Whitelist, load_whitelist

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

FIXED_CLOCK_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


class NoLabeledRecords(ValueError):
    """The stats input carries no AI-labeled records at all."""


BACKENDS = ("mock", "live")
ORDERS = tuple(o.value for o in PipelineOrder)

# Config-file keys besides ``sampling`` and the choice keys below, and the JSON
# type each one takes.
_INTEGER = (int, "an integer")
_NUMBER = ((int, float), "a number")
_STRING = (str, "a non-empty string")
_CONFIG_TYPES = {
    "batch_size": _INTEGER,
    "few_shot_k": _INTEGER,
    "max_in_flight": _INTEGER,
    "retry_budget": _INTEGER,
    "kb": _STRING,
    "whitelist": _STRING,
    "model": _STRING,
    "endpoint": _STRING,
}
# The config keys that take one of a closed set of strings, and that set.
_CONFIG_CHOICES = {
    "order": ORDERS,
    "audience": AUDIENCES,
    "backend": BACKENDS,
}


def _load_config_file(path: Optional[str]) -> dict:
    """The JSON config object, every known key of it checked; null is unset."""
    if not path:
        return {}
    cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    if cfg.get("sampling") is None:
        cfg["sampling"] = {}
    if not isinstance(cfg["sampling"], dict):
        raise ValueError(f"{path}: 'sampling' must be a JSON object")
    checks = [(name, cfg.get(name), kind) for name, kind in _CONFIG_TYPES.items()]
    checks += [
        (f"sampling.{f.name}", cfg["sampling"].get(f.name), _NUMBER) for f in fields(SamplingConfig)
    ]
    for name, value, (types, noun) in checks:
        if value is not None and (isinstance(value, bool) or not isinstance(value, types) or value == ""):
            raise ValueError(f"{path}: {name} must be {noun}, got {json.dumps(value)}")
    for name, choices in _CONFIG_CHOICES.items():
        if cfg.get(name) is not None and cfg[name] not in choices:
            allowed = ", ".join(choices)
            raise ValueError(f"{path}: {name} must be one of {allowed}, got {json.dumps(cfg[name])}")
    return cfg


def _setting(args: argparse.Namespace, file_cfg: dict, name: str, default=None):
    """A flag beats the config file beats the default."""
    value = getattr(args, name, None)
    if value is None:
        value = file_cfg.get(name)
    return default if value is None else value


def _set_only(**kwargs) -> dict:
    """The keyword arguments that are set, so the callee's defaults fill the rest."""
    return {name: value for name, value in kwargs.items() if value is not None}


def build_pipeline_config(args: argparse.Namespace, file_cfg: dict) -> PipelineConfig:
    sampling = file_cfg.get("sampling", {})
    sampling = {f.name: sampling.get(f.name) for f in fields(SamplingConfig)}
    order, kb, whitelist = (_setting(args, file_cfg, name) for name in ("order", "kb", "whitelist"))
    return PipelineConfig(**_set_only(
        order=PipelineOrder(order) if order is not None else None,
        batch_size=_setting(args, file_cfg, "batch_size"),
        sampling=SamplingConfig(**_set_only(**sampling)),
        few_shot_k=file_cfg.get("few_shot_k"),
        audience=_setting(args, file_cfg, "audience"),
        whitelist_path=Path(whitelist) if whitelist is not None else None,
        kb_path=Path(kb) if kb is not None else None,
        max_in_flight=file_cfg.get("max_in_flight"),
        retry_budget=file_cfg.get("retry_budget"),
    ))


def make_gateway(args: argparse.Namespace, file_cfg: dict, cfg: PipelineConfig) -> LlmGateway:
    backend_name = _setting(args, file_cfg, "backend", "mock")
    if backend_name == "mock":
        backend = MockBackend()
    elif backend_name == "live":
        model = _setting(args, file_cfg, "model", "gpt-3.5-turbo")
        backend = LiveBackend(model, **_set_only(endpoint=file_cfg.get("endpoint")))
    else:
        raise ValueError(f"unknown backend {backend_name!r}")
    templates = load_templates(few_shot_k=cfg.few_shot_k, audience=cfg.audience)
    return LlmGateway(
        backend,
        templates,
        sampling=cfg.sampling,
        retry_budget=cfg.retry_budget,
        max_in_flight=cfg.max_in_flight,
    )


def _non_empty(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_whitelist_or_warn(path: Optional[Path]) -> Whitelist:
    try:
        return load_whitelist(path)
    except EmptyWhitelist as exc:
        log.warning("whitelist empty (%s); proceeding unfiltered", exc)
        return Whitelist.empty()


def cmd_analyze(args: argparse.Namespace) -> int:
    paths_by_id: dict[str, str] = {}
    for apk_path in args.apks:
        app_id = Path(apk_path).stem
        if app_id in paths_by_id:
            print(
                f"error: app id {app_id!r} names both {paths_by_id[app_id]} and {apk_path}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        paths_by_id[app_id] = apk_path
    file_cfg = _load_config_file(args.config)
    cfg = build_pipeline_config(args, file_cfg)
    gateway = make_gateway(args, file_cfg, cfg)
    whitelist = _load_whitelist_or_warn(cfg.whitelist_path)
    suffixes = load_model_suffixes(args.model_suffixes)

    clock = (lambda: FIXED_CLOCK_EPOCH) if args.deterministic else utc_now
    kb = kb_sync(cfg.kb_path, clock)
    cache = SummaryCache(Path(str(cfg.kb_path) + ".summaries") if cfg.kb_path else None)

    jobs = 1 if args.deterministic else (args.jobs or os.cpu_count() or 1)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def one(apk_path: str) -> dict:
        entry = {"apk": apk_path, "app_id": Path(apk_path).stem}
        try:
            report = analyze_app(
                apk_path,
                cfg,
                kb,
                gateway,
                whitelist,
                summary_cache=cache,
                model_suffixes=suffixes,
                clock=clock,
            )
            path = write_report(report, out_dir)
            entry.update(status="ok", report=str(path), is_ai_app=report["is_ai_app"])
        except Exception as exc:  # noqa: BLE001 - per-app isolation
            log.error("analysis failed for %s: %s", apk_path, exc)
            entry.update(status="error", error=f"{type(exc).__name__}: {exc}")
        return entry

    try:
        with ThreadPoolExecutor(jobs) as pool:
            entries = list(pool.map(one, args.apks))
    finally:
        kb.close()
        cache.close()

    manifest = {
        "apps": entries,
        "backend_calls": gateway.call_count,
        "backend_calls_by_task": dict(gateway.call_counts),
        "failed": sum(1 for e in entries if e["status"] == "error"),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    ok = sum(1 for e in entries if e["status"] == "ok")
    print(f"analyzed {ok}/{len(entries)} apps; reports in {out_dir}")
    return EXIT_OK if ok > 0 else EXIT_FAILURE


def _label_key(row: dict) -> str:
    """Evaluate's join key for an app (a row with ``app_id``, or a report) or
    for a component (a row or verdict with ``kind`` and ``text``)."""
    if "app_id" in row:
        return f"app::{row['app_id']}"
    return f"{row['kind']}::{normalize_text(row['text'])}"


def load_label_file(path: Path) -> dict[str, str]:
    """Read a labels JSONL file into key -> AI/NonAI.

    Component records carry (kind, text); app records carry app_id.
    """
    labels: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(payload, dict):
                raise ValueError(f"{path}:{lineno}: row must be a JSON object")
            label = payload.get("label")
            if label not in ("AI", "NonAI"):
                raise ValueError(f"{path}:{lineno}: label must be AI or NonAI")
            if "app_id" not in payload and not (
                isinstance(payload.get("kind"), str) and isinstance(payload.get("text"), str)
            ):
                raise ValueError(f"{path}:{lineno}: row needs an app_id, or kind and text strings")
            labels[_label_key(payload)] = label
    return labels


def load_predictions(path: Path) -> dict[str, str]:
    """Predictions from either a report directory or a labels JSONL file."""
    if not path.is_dir():
        return load_label_file(path)
    labels: dict[str, str] = {}
    for report_path in iter_report_paths(path):
        report = read_report(report_path)
        for row in report["verdicts"]:
            labels[_label_key(row)] = "AI" if row["is_ai"] else "NonAI"
        labels[_label_key(report)] = "AI" if report["is_ai_app"] else "NonAI"
    return labels


def run_evaluate(predictions_path: Path, truth_path: Path) -> dict:
    """Confusion metrics plus kappa over the key intersection."""
    predictions = load_predictions(predictions_path)
    truth = load_label_file(truth_path)
    metrics, uncovered = confusion(predictions, truth)
    shared = sorted(set(predictions) & set(truth))
    kappa = cohen_kappa([predictions[k] for k in shared], [truth[k] for k in shared])
    return {
        "true_positives": metrics.true_positives,
        "false_positives": metrics.false_positives,
        "false_negatives": metrics.false_negatives,
        "true_negatives": metrics.true_negatives,
        "precision": metrics.precision,
        "recall": metrics.recall,
        "kappa": kappa,
        "compared": metrics.total,
        "coverage_warnings": [f"key only on one side: {k}" for k in uncovered],
    }


def cmd_evaluate(args: argparse.Namespace) -> int:
    result = run_evaluate(Path(args.predictions), Path(args.truth))
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        precision = "undefined" if result["precision"] is None else f"{result['precision']:.4f}"
        recall = "undefined" if result["recall"] is None else f"{result['recall']:.4f}"
        print(f"compared:  {result['compared']}")
        print(
            "confusion: "
            f"TP={result['true_positives']} FP={result['false_positives']} "
            f"FN={result['false_negatives']} TN={result['true_negatives']}"
        )
        print(f"precision: {precision}")
        print(f"recall:    {recall}")
        print(f"kappa:     {result['kappa']:.4f}")
        for warning in result["coverage_warnings"]:
            print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def stats_from_kb(kb: KnowledgeBase) -> CorpusStats:
    """Component-level statistics straight from the knowledge base.

    The KB has no app identity, so app-level counts stay empty.
    """
    ai_records = [r for r in kb.records.values() if r.verdict == VERDICT_AI]
    if not ai_records:
        raise NoLabeledRecords("knowledge base holds no AI records")
    labels = [label_of(r.domain, r.task) for r in ai_records if r.domain and r.task]
    kind_counts: dict[str, int] = {}
    for record in ai_records:
        kind_counts[record.key.kind] = kind_counts.get(record.key.kind, 0) + 1
    aggregate = AppAggregate(app_id="<kb>", labels=labels, app_label=None, kind_counts=kind_counts)
    return aggregate_stats([aggregate])


def stats_from_reports(report_dir: Path) -> CorpusStats:
    aggregates = [report_aggregate(read_report(p)) for p in iter_report_paths(report_dir)]
    if not aggregates:
        raise NoLabeledRecords(f"no reports under {report_dir}")
    stats = aggregate_stats(aggregates)
    if stats.kind_totals.get("total", 0) == 0 and not stats.component_domain_dist:
        raise NoLabeledRecords("reports contain no AI-labeled components")
    return stats


def stats_document(stats: CorpusStats) -> dict:
    return {
        "kind_totals": stats.kind_totals,
        "component_domain_dist": {d.value: f for d, f in stats.component_domain_dist.items()},
        "component_task_dist": {f"{d.value}/{task}": f for (d, task), f in stats.component_task_dist.items()},
        "app_domain_counts": {d.value: c for d, c in stats.app_domain_counts.items()},
        "component_label_count": stats.component_label_count,
    }


def render_stats_text(stats: CorpusStats) -> str:
    lines = ["AI component totals by kind"]
    header = f"  {'kind':<14} {'count':>8}"
    lines.append(header)
    for group in ("package_api", "model", "http_request", "others", "total"):
        lines.append(f"  {group:<14} {stats.kind_totals.get(group, 0):>8}")
    if stats.component_domain_dist:
        lines.append("Component domain distribution")
        for domain, fraction in sorted(
            stats.component_domain_dist.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {domain.display:<30} {fraction * 100:6.2f}%")
    if stats.app_domain_counts:
        lines.append("Apps per primary domain")
        for domain, count in sorted(stats.app_domain_counts.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {domain.display:<30} {count:>6}")
    return "\n".join(lines) + "\n"


def cmd_stats(args: argparse.Namespace) -> int:
    if args.kb:
        stats = stats_from_kb(kb_sync(Path(args.kb)))
    else:
        stats = stats_from_reports(Path(args.reports))
    if args.json:
        print(json.dumps(stats_document(stats), indent=2, sort_keys=True))
    else:
        print(render_stats_text(stats), end="")
    return EXIT_OK


def cmd_curate(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args.config)
    cfg = build_pipeline_config(args, file_cfg)
    gateway = make_gateway(args, file_cfg, cfg)
    keywords = load_keywords(args.keywords)
    descriptions = load_descriptions(args.descriptions)

    result = curate(descriptions, keywords, gateway, batch_size=cfg.batch_size)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(
        f"input: {len(descriptions)}  keyword pass: {result.stage1_passed}  "
        f"semantic pass: {result.stage2_passed}"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for desc in result.selected:
                fh.write(
                    json.dumps(
                        {
                            "package_name": desc.package_name,
                            "text": desc.text,
                            "release_date": desc.release_date.isoformat()
                            if desc.release_date
                            else None,
                        },
                        ensure_ascii=False,
                    )
                    + "\n"
                )
    else:
        for desc in result.selected:
            print(desc.package_name)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aidiscover",
        description="Discover and summarize AI capabilities in Android APKs.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--backend", choices=BACKENDS, help="completion backend")
    common.add_argument("--model", type=_non_empty, help="model name for the live backend")
    common.add_argument("--batch-size", type=int, dest="batch_size", help="items per request")
    common.add_argument("--order", choices=ORDERS, help="analysis/detection order")
    common.add_argument("--audience", choices=AUDIENCES)

    p_analyze = sub.add_parser("analyze", parents=[common], help="analyze APK files end to end")
    p_analyze.add_argument("apks", nargs="+", metavar="APK")
    p_analyze.add_argument("--out", default="reports", help="report output directory")
    p_analyze.add_argument("--kb", type=_non_empty, help="knowledge base log path")
    p_analyze.add_argument("--whitelist", type=_non_empty, help="non-AI prefix whitelist file")
    p_analyze.add_argument("--model-suffixes", type=_non_empty, help="model asset suffix list file")
    p_analyze.add_argument(
        "--jobs", type=_positive_int, help="apps analyzed at once, at least 1 (default: CPU count)"
    )
    p_analyze.add_argument(
        "--deterministic",
        action="store_true",
        help="fixed clock and single worker for reproducible reports",
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_eval = sub.add_parser("evaluate", help="score predictions against ground-truth labels")
    p_eval.add_argument("--predictions", required=True, help="report directory or labels JSONL")
    p_eval.add_argument("--truth", required=True, help="ground-truth labels JSONL")
    p_eval.add_argument("--json", action="store_true", help="machine-readable output")
    p_eval.set_defaults(func=cmd_evaluate)

    p_stats = sub.add_parser("stats", help="corpus statistics from a KB or report directory")
    group = p_stats.add_mutually_exclusive_group(required=True)
    group.add_argument("--kb", type=_non_empty, help="knowledge base log path")
    group.add_argument("--reports", type=_non_empty, help="report directory")
    p_stats.add_argument("--json", action="store_true", help="machine-readable output")
    p_stats.set_defaults(func=cmd_stats)

    p_curate = sub.add_parser(
        "curate", parents=[common], help="two-stage screen over app descriptions"
    )
    p_curate.add_argument("--descriptions", required=True, help="JSONL description records")
    p_curate.add_argument("--keywords", help="keyword phrase file")
    p_curate.add_argument("--out", help="write survivors as JSONL here")
    p_curate.set_defaults(func=cmd_curate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # NoLabeledRecords and EmptyIntersection included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
