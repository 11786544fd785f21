"""End-to-end analysis of one APK and the report document it produces."""

from __future__ import annotations

import hashlib
import json
import logging
from collections import Counter
from datetime import datetime
from json.encoder import encode_basestring
from dataclasses import dataclass, fields
from itertools import compress, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, Union

from .apk import open_apk
from .candidates import CandidateSet, extract_candidates
from .gateway import LlmGateway
from .kb import VERDICT_AI, VERDICT_NON_AI, AppTurn, KnowledgeBase, SummaryCache, utc_now
from .pipeline import (
    PROVENANCE_KB,
    PipelineConfig,
    PipelineResult,
    is_ai_app,
    reused_rationale,
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


def _summary_digest(app_id: str, run: PipelineResult, audience: str) -> str:
    cands, hits = run.candidates, run.ai_hits
    analyses = list(map(itemgetter(2), map(run.records.__getitem__, hits)))
    if None in analyses:  # an AI record holds an analysis, unless its snapshot was edited
        analyses = [analysis or "" for analysis in analyses]
    items = list(zip(
        map(cands.kind.__getitem__, hits), map(cands.text.__getitem__, hits), analyses,
        map(cands.occurrences.__getitem__, hits),
    ))
    items += ((v.candidate.kind, v.candidate.text, v.analysis or "", v.candidate.occurrences) for v in run.ai_objects())
    payload = {"app_id": app_id, "audience": audience, "items": sorted(items)}
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def summarize_with_cache(
    app_id: str,
    run: PipelineResult,
    gateway: LlmGateway,
    cache: Optional[SummaryCache],
    audience: str,
) -> tuple[AiServiceReport, Optional[str]]:
    """summarize_app of the run's AI rows, with a digest-keyed reuse cache.

    Returns the report and the digest to store it under, or None when there
    is nothing new to cache: a hit, no cache, no AI component, or a failure.
    Only a miss builds the AI rows' verdicts, in candidate order.
    """
    digest = _summary_digest(app_id, run, audience)
    rows = run.ai_rows()
    if cache is not None and rows:
        hit = cache.get(digest)
        if hit is not None:
            kind_counts = dict(Counter(map(run.candidates.kind.__getitem__, rows)))
            return AiServiceReport(app_id, hit["summary"], list(hit["capabilities"]), kind_counts), None
    report = summarize_app(app_id, run.ai_verdicts(), gateway)
    if cache is None or not rows or report.degraded:
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

    Returns the report document for ``write_report`` or ``render_json``; its
    ``"verdicts"`` is a ``VerdictTable``, which ``json.dumps`` cannot take. The app claims
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
        # The AI KB hits that carry both labels stay records: labeled once per distinct pair.
        labels = classify_components(run.ai_objects(), gateway, cfg.batch_size)
        for pair, hits in run.ai_hit_labels.items():
            labels += repeat(label_of(*pair), hits)
        service, digest = summarize_with_cache(app_id, run, gateway, summary_cache, cfg.audience)

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
        "is_ai_app": bool(run.ai_hits) or is_ai_app(filter(None, run.objects)),
        "verdicts": _verdict_table(run),
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


@dataclass(frozen=True)
class VerdictTable:
    """A report's verdict rows as columns, in sorted key order; iterates as row dicts."""

    analysis: Sequence[Optional[str]]
    domain: Sequence[Optional[str]]
    is_ai: Sequence[bool]
    kind: Sequence[str]
    occurrences: Sequence[int]
    provenance: Sequence[str]
    rationale: Sequence[Optional[str]]
    source: Sequence[str]
    task: Sequence[Optional[str]]
    text: Sequence[str]

    def __len__(self) -> int:
        return len(self.text)

    def __iter__(self) -> Iterator[dict]:
        return map(dict, map(zip, repeat(_VERDICT_KEYS), zip(*_columns(self))))


_VERDICT_KEYS = tuple(f.name for f in fields(VerdictTable))
_columns = attrgetter(*_VERDICT_KEYS)


class _Parts(dict):
    """A record's (verdict, label part) to the part it is reported with: an AI hit's is
    label_of's. A NonAI record's part stands as it is; it is None unless the KB snapshot
    the record came from was edited."""

    def __missing__(self, verdict_part):
        return verdict_part[1]


def _verdict_table(run: PipelineResult) -> VerdictTable:
    # KB hits as columns straight from their candidates and records, a column at a time:
    # zip(*rows) would hold one iterator per row, each tracked by the collector. An AI
    # hit's labels are label_of's, through one map per part, since label_of of a labeled
    # pair normalizes each part alone; label_of runs once per distinct pair. The rows that
    # are objects overwrite their placeholders.
    candidates, records = run.candidates, run.records
    verdicts = list(map(itemgetter(1), records))
    domains, tasks = _Parts({(VERDICT_NON_AI, None): None}), _Parts({(VERDICT_NON_AI, None): None})
    for domain, task in run.ai_hit_labels:
        label = label_of(domain, task)
        domains[VERDICT_AI, domain], tasks[VERDICT_AI, task] = label.domain.value, label.task
    analysis = list(map(itemgetter(2), records))
    domain = list(map(domains.__getitem__, zip(verdicts, map(itemgetter(3), records))))
    task = list(map(tasks.__getitem__, zip(verdicts, map(itemgetter(4), records))))
    is_ai = list(map(VERDICT_AI.__eq__, verdicts))
    rationale = list(map(reused_rationale, map(itemgetter(5), records)))
    provenance = [PROVENANCE_KB] * len(records)
    for i, v in compress(enumerate(run.objects), run.objects):
        is_ai[i], analysis[i], rationale[i], provenance[i] = v.is_ai, v.analysis, v.rationale, v.provenance
        # An AI component whose labeling failed is reported under the fallback
        # label, which the verdict itself does not carry (see classify_components).
        unlabeled = v.is_ai and not (v.domain and v.task)
        domain[i], task[i] = (UNCLASSIFIED.domain.value, UNCLASSIFIED.task) if unlabeled else (v.domain, v.task)
    return VerdictTable(
        analysis, domain, is_ai, candidates.kind, candidates.occurrences, provenance, rationale,
        candidates.source, task, candidates.text,
    )


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
    verdicts = report["verdicts"]
    if isinstance(verdicts, VerdictTable):
        ai_rows = list(compress(zip(verdicts.kind, verdicts.text), verdicts.is_ai))
    else:  # rows as dicts, as read_report gives them
        ai_rows = [(row["kind"], row["text"]) for row in verdicts if row["is_ai"]]
    lines.append(f"AI components ({len(ai_rows)} of {len(verdicts)} candidates):")
    lines.extend(f"  [{kind}] {text}" for kind, text in ai_rows)
    if report["warnings"]:
        lines.append("Warnings:")
        lines.extend(f"  ! {w}" for w in report["warnings"])
    return "\n".join(lines) + "\n"


_INDENT = "  "
_ITEMS_PER_PIECE = 256
# A scalar or an empty container as JSON; one encoder serves every call.
_encode_scalar = json.JSONEncoder(ensure_ascii=False).encode


def render_json(obj, depth: int = 0) -> str:
    r"""``json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)``, byte for
    byte, for a JSON value whose object keys are strings; a ``VerdictTable``
    renders as the list of its rows.

    Each scalar and each key is encoded once. Lists and tables go 256 items
    a piece; list items recurse one by one, as the values of dicts do.
    """
    return "".join(_pieces(obj, depth))


def _pieces(obj, depth: int) -> Iterator[str]:
    # render_json's text in pieces, so write_report copies none of it into a whole.
    if not obj or not isinstance(obj, (dict, list, tuple, VerdictTable)):  # a scalar or an empty container
        yield "[]" if isinstance(obj, VerdictTable) else _encode_scalar(obj)
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
        piece = _table_rows(obj, inner) if isinstance(obj, VerdictTable) else (
            lambda start: ("," + inner).join(render_json(v, depth + 1) for v in obj[start : start + _ITEMS_PER_PIECE])
        )
        for start in range(0, len(obj), _ITEMS_PER_PIECE):
            if start:
                yield "," + inner
            yield piece(start)
    yield "\n" + _INDENT * depth + brackets[1]


class _Rendered(dict):
    """``render(key)`` of each key, rendered once while held; at most a piece's worth is held."""

    def __init__(self, render: Callable):
        self.render = render

    def __missing__(self, key):
        if len(self) >= _ITEMS_PER_PIECE:  # fresh rationales are all distinct
            self.clear()
        text = self[key] = self.render(key)
        return text


def _table_rows(table: VerdictTable, inner: str) -> Callable[[int], str]:
    """A function from ``start`` to the text of the table's rows from there, a piece's worth.

    A row is its analysis, the eight fields between, and its text. Each distinct analysis
    and each distinct tuple of the fields between is rendered once. The tuples are keyed
    by raw value, which is exact because ``is_ai`` is always a bool (the gateway checks
    it) and ``occurrences`` always an int; otherwise True and 1 would share a key.
    """
    row_inner = inner + _INDENT
    template = "".join(f',{row_inner}"{key}": %s' for key in _VERDICT_KEYS[1:-1]) + f',{row_inner}"text": '
    analyses = _Rendered(_encode_scalar)
    middles = _Rendered(lambda values: template % tuple(map(_encode_scalar, values)))
    head, tail = "{" + row_inner + '"analysis": ', inner + "}"
    columns = _columns(table)

    def piece(start: int) -> str:
        analysis, *middle, text = (column[start : start + _ITEMS_PER_PIECE] for column in columns)
        rows = zip(map(analyses.__getitem__, analysis), map(middles.__getitem__, zip(*middle)), map(encode_basestring, text))
        return head + (tail + "," + inner + head).join(map("".join, rows)) + tail

    return piece


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
