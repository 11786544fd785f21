"""End-to-end analysis of one APK and the report document it produces."""

from __future__ import annotations

import hashlib
import json
import logging
from collections import Counter
from datetime import datetime
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from .apk import open_apk
from .candidates import CandidateSet, extract_candidates
from .gateway import LlmGateway
from .kb import KnowledgeBase, SummaryCache, utc_now
from .pipeline import (
    ComponentVerdict,
    PipelineConfig,
    PipelineResult,
    is_ai_app,
    run_pipeline,
    write_back,
)
from .taxonomy import (
    UNCLASSIFIED,
    AiServiceReport,
    AppAggregate,
    classify_app,
    classify_components,
    label_of,
    summarize_app,
)
from .whitelist import Whitelist, apply_whitelist

log = logging.getLogger(__name__)

REPORT_SCHEMA_VERSION = 1


def _summary_digest(app_id: str, ai_verdicts: Sequence[ComponentVerdict], audience: str) -> str:
    payload = {
        "app_id": app_id,
        "audience": audience,
        "items": sorted(
            (v.candidate.kind, v.candidate.text, v.analysis or "", v.candidate.occurrences)
            for v in ai_verdicts
        ),
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def summarize_with_cache(
    app_id: str,
    ai_verdicts: Sequence[ComponentVerdict],
    gateway: LlmGateway,
    cache: Optional[SummaryCache],
    audience: str,
) -> AiServiceReport:
    """summarize_app with a digest-keyed reuse cache; failures are not cached."""
    digest = _summary_digest(app_id, ai_verdicts, audience)
    if cache is not None and ai_verdicts:
        hit = cache.get(digest)
        if hit is not None:
            return AiServiceReport(
                app_id=app_id,
                summary=hit["summary"],
                capabilities=list(hit["capabilities"]),
                kind_counts=dict(Counter(v.candidate.kind for v in ai_verdicts)),
            )
    report = summarize_app(app_id, ai_verdicts, gateway)
    if cache is not None and ai_verdicts and not report.degraded:
        cache.put(digest, {"summary": report.summary, "capabilities": report.capabilities})
    return report


def analyze_app(
    apk_path: Union[str, Path],
    cfg: PipelineConfig,
    kb: KnowledgeBase,
    gateway: LlmGateway,
    whitelist: Whitelist,
    summary_cache: Optional[SummaryCache] = None,
    app_id: Optional[str] = None,
    model_suffixes: Optional[tuple[str, ...]] = None,
    clock: Callable[[], datetime] = utc_now,
) -> dict:
    """Full single-app run: extract, prefilter, verdicts, labels, summary.

    Returns the report document (JSON-serializable dict).
    """
    apk_path = Path(apk_path)
    app_id = app_id or apk_path.stem

    with open_apk(apk_path) as archive:
        cand_set = extract_candidates(archive, app_id, model_suffixes)
    filtered = apply_whitelist(cand_set, whitelist)

    run = run_pipeline(filtered, cfg, kb, gateway)
    ai_verdicts = [v for v in run.verdicts if v.is_ai]

    labels = classify_components(ai_verdicts, gateway, cfg.batch_size)
    write_back(run, kb, gateway.model_id)
    service = summarize_with_cache(app_id, ai_verdicts, gateway, summary_cache, cfg.audience)
    if labels:
        service.app_label = classify_app(labels)

    return build_report(filtered, run, service, clock=clock)


def build_report(
    cand_set: CandidateSet,
    run: PipelineResult,
    service: AiServiceReport,
    clock: Callable[[], datetime] = utc_now,
) -> dict:
    app_label = None
    if service.app_label is not None:
        app_label = {"domain": service.app_label.domain.value, "task": service.app_label.task}
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "app_id": service.app_id,
        "is_ai_app": is_ai_app(run.verdicts),
        "verdicts": [_verdict_row(v) for v in run.verdicts],
        "summary": service.summary,
        "capabilities": service.capabilities,
        "kind_counts": service.kind_counts,
        "app_label": app_label,
        "obfuscation": {
            "file_name_ratio": cand_set.obfuscation.file_name_ratio,
            "dir_name_ratio": cand_set.obfuscation.dir_name_ratio,
            "total_classes": cand_set.obfuscation.total_classes,
        },
        "warnings": list(cand_set.warnings) + list(run.warnings),
        "degraded": run.degraded or service.degraded,
        "generated_at": clock().isoformat(),
    }


def _verdict_row(v: ComponentVerdict) -> dict:
    # An AI component whose labeling failed is reported under the fallback
    # label, which the verdict itself does not carry (see classify_components).
    unlabeled = v.is_ai and not (v.domain and v.task)
    return {
        "kind": v.candidate.kind,
        "text": v.candidate.text,
        "occurrences": v.candidate.occurrences,
        "source": v.candidate.source,
        "is_ai": v.is_ai,
        "analysis": v.analysis,
        "rationale": v.rationale,
        "provenance": v.provenance,
        "domain": UNCLASSIFIED.domain.value if unlabeled else v.domain,
        "task": UNCLASSIFIED.task if unlabeled else v.task,
    }


def render_report_text(report: dict) -> str:
    lines = [
        f"App: {report['app_id']}",
        f"AI app: {'yes' if report['is_ai_app'] else 'no'}",
        f"Summary: {report['summary']}",
    ]
    if report["capabilities"]:
        lines.append("Capabilities:")
        lines.extend(f"  - {c}" for c in report["capabilities"])
    if report["app_label"]:
        lines.append(
            f"Primary domain/task: {report['app_label']['domain']} / {report['app_label']['task']}"
        )
    ai_rows = [v for v in report["verdicts"] if v["is_ai"]]
    lines.append(f"AI components ({len(ai_rows)} of {len(report['verdicts'])} candidates):")
    for row in ai_rows:
        lines.append(f"  [{row['kind']}] {row['text']}")
    if report["warnings"]:
        lines.append("Warnings:")
        lines.extend(f"  ! {w}" for w in report["warnings"])
    return "\n".join(lines) + "\n"


def write_report(report: dict, out_dir: Union[str, Path]) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{report['app_id']}.json"
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    (out_dir / f"{report['app_id']}.txt").write_text(render_report_text(report), encoding="utf-8")
    return path


def read_report(path: Union[str, Path]) -> dict:
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    if not (
        isinstance(report, dict)
        and isinstance(report.get("app_id"), str)
        and isinstance(report.get("verdicts"), list)
    ):
        raise ValueError(f"{path}: not a report (needs an app_id string and a verdicts list)")
    return report


def iter_report_paths(report_dir: Union[str, Path]) -> list[Path]:
    return sorted(
        p for p in Path(report_dir).glob("*.json") if p.name != "manifest.json"
    )


def report_aggregate(report: dict) -> AppAggregate:
    """One report's contribution to corpus statistics."""
    app_label = report.get("app_label")
    return AppAggregate(
        app_id=report["app_id"],
        labels=[label_of(v.get("domain"), v.get("task")) for v in report["verdicts"] if v["is_ai"]],
        app_label=label_of(app_label["domain"], app_label["task"]) if app_label else None,
        kind_counts=dict(report.get("kind_counts", {})),
    )
