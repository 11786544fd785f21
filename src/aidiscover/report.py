"""End-to-end analysis of one APK and the report document it produces."""

from __future__ import annotations

import hashlib
import json
import logging
from collections import Counter
from datetime import datetime
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, Union

from .apk import open_apk
from .candidates import CandidateSet, extract_candidates
from .gateway import LlmGateway
from .kb import AppTurn, KnowledgeBase, SummaryCache, utc_now
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
from .utf8 import loads
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
) -> tuple[AiServiceReport, Optional[str]]:
    """summarize_app with a digest-keyed reuse cache.

    Returns the report and the digest to store it under, or None when there
    is nothing new to cache: a hit, no cache, no AI component, or a failure.
    """
    digest = _summary_digest(app_id, ai_verdicts, audience)
    if cache is not None and ai_verdicts:
        hit = cache.get(digest)
        if hit is not None:
            return AiServiceReport(
                app_id=app_id,
                summary=hit["summary"],
                capabilities=list(hit["capabilities"]),
                kind_counts=dict(Counter(v.candidate.kind for v in ai_verdicts)),
            ), None
    report = summarize_app(app_id, ai_verdicts, gateway)
    if cache is None or not ai_verdicts or report.degraded:
        return report, None
    return report, digest


def analyze_app(
    apk_path: Union[str, Path],
    cfg: PipelineConfig,
    kb: KnowledgeBase,
    gateway: LlmGateway,
    whitelist: Whitelist,
    summary_cache: Optional[SummaryCache] = None,
    model_suffixes: Optional[tuple[str, ...]] = None,
    clock: Callable[[], datetime] = utc_now,
    turn: Optional[AppTurn] = None,
) -> dict:
    """Full single-app run: extract, prefilter, verdicts, labels, summary.

    Returns the report document (JSON-serializable dict). The app claims
    its keys through its ``turn`` in input order (see ``run_pipeline``; none
    means the app runs alone), its backend requests are queued at the turn's
    rank, and its KB lines and summary-cache line are written in input order
    too, perhaps after it returns; what they raise lands in
    ``turn.write_error``. Every exit path, an exception included, finishes
    the turn, so later apps never wait on a failed one.
    """
    apk_path = Path(apk_path)
    app_id = apk_path.stem
    turn = turn or AppTurn.alone()

    try:
        gateway = gateway.for_app(turn.rank)
        with open_apk(apk_path) as archive:
            cand_set = extract_candidates(archive, app_id, model_suffixes, whitelist)
        filtered = apply_whitelist(cand_set, whitelist)

        run = run_pipeline(filtered, cfg, kb, gateway, turn)
        ai_verdicts = [v for v in run.verdicts if v.is_ai]

        labels = classify_components(ai_verdicts, gateway, cfg.batch_size)
        service, digest = summarize_with_cache(app_id, ai_verdicts, gateway, summary_cache, cfg.audience)

        def write() -> None:
            write_back(run, kb, gateway.model_id)
            if digest is not None:
                summary_cache.put(digest, {"summary": service.summary, "capabilities": service.capabilities})

        turn.commit(write)
    finally:
        turn.finish()
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


_INDENT = "  "
_STR_BOOL_OR_NONE = frozenset({str, bool, type(None)})
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_ITEMS_PER_PIECE = 256
# A scalar or an empty container as JSON; one encoder serves every call.
_encode_scalar = json.JSONEncoder(ensure_ascii=False).encode


def render_json(obj, depth: int = 0) -> str:
    r"""``json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)``, byte for
    byte, for a JSON value whose object keys are strings.

    Each scalar and each key is encoded once. Lists go 256 items a piece:
    scalar-only dicts with one key set (the verdict rows) fill one ``%``
    template, encoded column by column; other items recurse one by one, as
    the values of dicts do.
    """
    return "".join(_pieces(obj, depth))


def _pieces(obj, depth: int) -> Iterator[str]:
    # render_json's text in pieces, so write_report copies none of it into a whole.
    if not obj or not isinstance(obj, (dict, list, tuple)):  # a scalar or an empty container
        yield _encode_scalar(obj)
        return
    brackets = "{}" if isinstance(obj, dict) else "[]"
    inner = "\n" + _INDENT * (depth + 1)
    yield brackets[0] + inner
    if brackets == "{}":
        for i, (key, value) in enumerate(sorted(obj.items())):
            if i:
                yield "," + inner
            yield encode_basestring(key) + ": "
            yield from _pieces(value, depth + 1)
    else:
        for start in range(0, len(obj), _ITEMS_PER_PIECE):
            if start:
                yield "," + inner
            piece = obj[start : start + _ITEMS_PER_PIECE]
            yield _table_rows(piece, inner) or ("," + inner).join(render_json(v, depth + 1) for v in piece)
    yield "\n" + _INDENT * depth + brackets[1]


def _table_rows(items, inner: str) -> Optional[str]:
    """The items as text if they are non-empty dicts of scalars with one set of str keys."""
    if not {dict}.issuperset(map(type, items)) or not items[0]:
        return None
    keys = sorted(items[0])
    if not {str}.issuperset(map(type, keys)) or not {len(keys)}.issuperset(map(len, items)):
        return None
    try:  # with one length, every row that has every key has no other
        columns = [_encoded_column(list(map(itemgetter(key), items))) for key in keys]
    except KeyError:
        return None
    if None in columns:
        return None
    row_inner = inner + _INDENT
    template = "{" + row_inner + ("," + row_inner).join(
        encode_basestring(key).replace("%", "%%") + ": %s" for key in keys
    ) + inner + "}"
    return ("," + inner).join(map(template.__mod__, zip(*columns)))


def _encoded_column(values: list) -> Optional[Iterator[str]]:
    # Each value as JSON, or None when one is not a str, bool, None or plain int.
    types = set(map(type, values))
    if _STR_BOOL_OR_NONE.issuperset(types):  # each distinct value once
        strings = set(values).difference(_JSON_CONSTANTS)
        encoded = _JSON_CONSTANTS | dict(zip(strings, map(encode_basestring, strings)))
        return map(encoded.__getitem__, values)
    if types == {int}:
        return map(int.__repr__, values)
    return None


def write_report(report: dict, out_dir: Union[str, Path]) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{report['app_id']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_pieces(report, 0))
        fh.write("\n")
    (out_dir / f"{report['app_id']}.txt").write_text(render_report_text(report), encoding="utf-8")
    return path


def _is_verdict_row(row) -> bool:
    """A row has what ``evaluate`` and ``report_aggregate`` read from it."""
    return (
        isinstance(row, dict)
        and isinstance(row.get("is_ai"), bool)
        and isinstance(row.get("kind"), str)
        and isinstance(row.get("text"), str)
        and isinstance(row.get("domain"), (str, type(None)))
        and isinstance(row.get("task"), (str, type(None)))
    )


def _is_app_label(label) -> bool:
    return label is None or (
        isinstance(label, dict)
        and isinstance(label.get("domain"), str)
        and isinstance(label.get("task"), str)
    )


def read_report(path: Union[str, Path]) -> dict:
    """A report file, checked for every field that ``evaluate`` and ``stats`` read.

    Raises:
        ValueError: naming the file, when it is not such a report.
    """
    try:
        report = loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or a lone surrogate
        raise ValueError(f"{path}: {exc}") from exc
    if not (
        isinstance(report, dict)
        and isinstance(report.get("app_id"), str)
        and isinstance(report.get("is_ai_app"), bool)
        and isinstance(report.get("verdicts"), list)
    ):
        raise ValueError(
            f"{path}: not a report (needs an app_id string, an is_ai_app bool and a verdicts list)"
        )
    if not _is_app_label(report.get("app_label")):
        raise ValueError(f"{path}: app_label must be null or an object with domain and task strings")
    kind_counts = report.get("kind_counts", {})
    if not (isinstance(kind_counts, dict) and all(type(n) is int for n in kind_counts.values())):
        raise ValueError(f"{path}: kind_counts must be an object of integer counts")
    for i, row in enumerate(report["verdicts"]):
        if not _is_verdict_row(row):
            raise ValueError(
                f"{path}: verdicts[{i}] needs a bool is_ai, kind and text strings,"
                " and domain and task strings or null"
            )
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
