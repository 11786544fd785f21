"""Spans and counters recorded from outside the program under test.

Modules of ``aidiscover`` import names directly (``from .candidates import
extract_candidates``), so a probe replaces a function at the name its caller
looks up, for example ``aidiscover.report.extract_candidates``, or a method on
its class. A span carries name, start, end, parent span, app id and thread;
spans stay in memory until :meth:`Tracer.write` runs at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

from aidiscover import apk, cli, candidates, gateway, kb, report
from aidiscover.pipeline import PROVENANCE_FRESH


class Tracer:
    """Installs probes; ``full=False`` keeps only the per-app probes."""

    def __init__(self, full: bool):
        self.full = full
        self.spans: list[tuple] = []  # (id, name, start, end, parent, app, thread)
        self.counts: Counter[str] = Counter()
        self.inserted_keys: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        with self._count_lock:
            self.counts[name] += amount

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str, after=None, app_of=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``after(result, args)`` adds counters; ``app_of(args)`` names the app
        the calling thread works on from then on.
        """
        original = getattr(owner, attr)
        local, spans, ids = self._local, self.spans, self._ids

        def probe(*args, **kwargs):
            if app_of is not None:
                local.app = app_of(args)
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(
                    (span_id, name, start, end, parent, getattr(local, "app", None), threading.get_ident())
                )
            if after is not None:
                after(result, args)
            return result

        self._patch(owner, attr, probe)

    def counter(self, owner, attr: str, after) -> None:
        """Count what ``after(result, args)`` adds on every call; no span."""
        original = getattr(owner, attr)

        def probe(*args, **kwargs):
            result = original(*args, **kwargs)
            after(result, args)
            return result

        self._patch(owner, attr, probe)

    def install(self, backend_class) -> None:
        self.span(cli, "analyze_app", "app", app_of=lambda a: Path(a[0]).stem)
        self.span(cli, "write_report", "report.write", after=self._report_bytes)
        if not self.full:
            return
        c = self.count
        self.span(cli, "kb_sync", "kb.replay")
        self.span(cli, "SummaryCache", "kb.replay")
        self.span(report, "open_apk", "apk.open")
        self.span(apk.ApkArchive, "read_bytes", "apk.read", after=lambda r, a: c("apk.read_bytes", len(r)))
        self.span(report, "extract_candidates", "candidates.extract",
                  after=lambda r, a: c("candidates.count", len(r.candidates)))
        self.span(candidates, "parse_dex", "dex.parse", after=lambda r, a: c("dex.method_ids", len(r.methods)))
        self.span(candidates, "scan_elf_strings", "native.scan", after=lambda r, a: c("native.bytes", len(a[0])))
        self.span(report, "apply_whitelist", "whitelist.apply", after=self._whitelist)
        self.span(report, "run_pipeline", "pipeline.run", after=self._pipeline)
        self.counter(kb.KnowledgeBase, "lookup", after=self._lookup)
        self.span(kb.KnowledgeBase, "insert", "kb.insert", after=self._insert)
        self.span(gateway.LlmGateway, "run_items", "gateway.run_items", after=self._items)
        self.span(gateway.LlmGateway, "run_summary", "gateway.run_summary")
        self.span(backend_class, "complete", "backend.complete")
        self.span(report, "classify_components", "taxonomy.classify")
        self.span(report, "summarize_app", "taxonomy.summarize")
        self.counter(kb.SummaryCache, "get", after=lambda r, a: c("taxonomy.summary_cache_hits", r is not None))
        self.span(report, "build_report", "report.build")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _report_bytes(self, path, args) -> None:
        path = Path(path)
        self.count("report.bytes", path.stat().st_size + path.with_suffix(".txt").stat().st_size)

    def _whitelist(self, result, args) -> None:
        self.count("whitelist.in", len(args[0].candidates))
        self.count("whitelist.kept", len(result.candidates))

    def _pipeline(self, result, args) -> None:
        self.count("pipeline.fresh", sum(v.provenance == PROVENANCE_FRESH for v in result.verdicts))

    def _lookup(self, result, args) -> None:
        self.count("kb.lookups")
        self.count("kb.hits", result is not None)

    def _insert(self, result, args) -> None:
        self.inserted_keys.add(result.key)

    def _items(self, result, args) -> None:
        self.count("gateway.item_failures", sum(r.error is not None for r in result))

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, app, thread in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "app": app, "thread": thread}) + "\n")


def span_times(spans: list[tuple]) -> tuple[dict[str, float], dict[str, float], Counter]:
    """Total duration, self time and call count per span name.

    Self time is a span's duration minus the durations of its direct
    children, which ran on the same thread and so never overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span_id, name, start, end, _, _, _ in spans:
        total[name] += end - start
        self_time[name] += end - start - child_time[span_id]
        calls[name] += 1
    return total, self_time, calls


def app_times(spans: list[tuple]) -> dict[str, tuple[float, float]]:
    """(analyze_app call, report written) per app that got a report."""
    starts = {app: start for _, name, start, _, _, app, _ in spans if name == "app"}
    return {
        app: (starts[app], end)
        for _, name, _, end, _, app, _ in spans
        if name == "report.write" and app in starts
    }


TASKS = (
    gateway.TaskId.ANALYZE,
    gateway.TaskId.DETECT,
    gateway.TaskId.CLASSIFY_TAXONOMY,
    gateway.TaskId.SUMMARIZE,
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, backend: dict, wall_s: float, apps: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation, named ``<module>.<metric>``."""
    total, self_time, calls = span_times(tracer.spans)
    n = tracer.counts
    metrics = {
        "apk.open_s": total["apk.open"],
        "apk.read_s": total["apk.read"],
        "apk.read_bytes": n["apk.read_bytes"],
        "dex.parse_s": total["dex.parse"],
        "dex.method_ids": n["dex.method_ids"],
        "native.scan_s": total["native.scan"],
        "native.bytes": n["native.bytes"],
        "candidates.extract_self_s": self_time["candidates.extract"],
        "candidates.count": n["candidates.count"],
        "whitelist.apply_s": total["whitelist.apply"],
        "whitelist.kept_ratio": _ratio(n["whitelist.kept"], n["whitelist.in"]),
        "kb.replay_s": total["kb.replay"],
        "kb.lookups": n["kb.lookups"],
        "kb.hit_ratio": _ratio(n["kb.hits"], n["kb.lookups"]),
        "kb.insert_s": total["kb.insert"],
        "kb.inserts": calls["kb.insert"],
        "kb.lines_per_key": _ratio(calls["kb.insert"], len(tracer.inserted_keys)),
        "pipeline.self_s": self_time["pipeline.run"],
        "pipeline.fresh": n["pipeline.fresh"],
        "gateway.self_s": self_time["gateway.run_items"],
        "gateway.items_per_call": _ratio(backend["useful_items"], backend["array_calls"]),
        "gateway.retries": backend["retries"],
        "gateway.singleton_fallbacks": backend["singleton_fallbacks"],
        "gateway.item_failures": n["gateway.item_failures"],
        "backends.calls": sum(backend["calls"].values()),
        "backends.tokens": backend["tokens"],
        "backends.busy_s": backend["busy_s"],
        "backends.concurrency": _ratio(backend["busy_s"], wall_s),
        "backends.dup_items": backend["dup_items"],
        "taxonomy.classify_s": total["taxonomy.classify"],
        "taxonomy.summarize_s": total["taxonomy.summarize"],
        "taxonomy.summary_attempts": _ratio(calls["gateway.run_summary"], apps),
        "taxonomy.summary_cache_hits": n["taxonomy.summary_cache_hits"],
        "report.build_s": total["report.build"],
        "report.write_s": total["report.write"],
        "report.bytes": n["report.bytes"],
    }
    for task in TASKS:
        metrics[f"backends.calls.{task}"] = backend["calls"].get(task, 0)
    return metrics
