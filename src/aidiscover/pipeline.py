"""Per-candidate verdict pipeline: KB consult, LLM analysis and detection,
conservative failure handling, and KB write-back.

Candidates the KB cannot answer take one path in either order. The order
decides only when Analyze runs: on every fresh candidate before Detect
(``atd``), or after Detect on the positives alone (``dta``).
"""

from __future__ import annotations

import functools
import logging
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, count, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .candidates import Candidate, CandidateColumns, CandidateSet, positions
from .gateway import BackendUnavailable, ItemResult, LlmGateway, SamplingConfig, TaskId
from .kb import VERDICT_AI, VERDICT_NON_AI, AppTurn, KbKey, KbRecord, KnowledgeBase, normalize_text

log = logging.getLogger(__name__)
_tuple_new = tuple.__new__

FAILURE_ANALYSIS = "[analysis unavailable: backend item failure]"
FAILURE_RATIONALE = "[detection unavailable: backend item failure; defaulted to non-AI]"

PROVENANCE_KB = "KbHit"
PROVENANCE_FRESH = "FreshLlm"


class PipelineOrder(Enum):
    ANALYSIS_THEN_DETECTION = "atd"
    DETECTION_THEN_ANALYSIS = "dta"


@dataclass
class PipelineConfig:
    """Every knob of one analysis run, including all sampling defaults."""

    order: PipelineOrder = PipelineOrder.ANALYSIS_THEN_DETECTION
    batch_size: int = 3
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    few_shot_k: int = 5
    audience: str = "user"
    whitelist_path: Optional[Path] = None
    kb_path: Optional[Path] = None
    max_in_flight: int = 4
    retry_budget: int = 2

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive: {self.batch_size}")
        if self.few_shot_k < 1:
            raise ValueError(f"few_shot_k must be positive: {self.few_shot_k}")


@dataclass
class ComponentVerdict:
    """Is-AI decision for one candidate, with its supporting texts."""

    candidate: Candidate
    is_ai: bool
    analysis: Optional[str] = None
    rationale: Optional[str] = None
    provenance: str = PROVENANCE_FRESH
    domain: Optional[str] = None
    task: Optional[str] = None
    # The candidate's KB key, once built; run_pipeline passes the one it looked up.
    key: Optional[KbKey] = field(default=None, repr=False, compare=False)

    def kb_key(self) -> KbKey:
        if self.key is None:
            self.key = KbKey.make(self.candidate.kind, self.candidate.text)
        return self.key


# The record of a row that is not a KB hit kept as its record.
_NO_RECORD = KbRecord(KbKey("", ""), VERDICT_NON_AI)
_verdict_of, _labels_of = itemgetter(1), itemgetter(3, 4)


def _ai_hits(records: list[KbRecord]) -> tuple[list[int], Counter]:
    """The rows whose record is AI, and those records' (domain, task) pairs, counted."""
    rows = list(compress(count(), map(VERDICT_AI.__eq__, map(_verdict_of, records))))
    return rows, Counter(map(_labels_of, map(records.__getitem__, rows)))


@dataclass
class PipelineResult:
    """One verdict per candidate, in candidate order, plus degradation flags.

    A KB hit whose record is NonAI, or AI with both labels, stays the record
    that answered it, ``records[i]``, with no object: it is never fresh or
    written, and needs no labeling. Every other row is a ComponentVerdict,
    ``objects[i]``, over a NonAI placeholder record; given verdicts alone,
    every row is one. ``ai_hits`` are the rows of the AI records, and
    ``ai_hit_labels`` counts their (domain, task) pairs.
    """

    objects: list[Optional[ComponentVerdict]]
    degraded: bool = False
    warnings: list[str] = field(default_factory=list)
    candidates: Optional[Sequence[Candidate]] = None
    records: Optional[Sequence[KbRecord]] = None
    ai_hits: Optional[list[int]] = None
    ai_hit_labels: Optional[Counter] = None

    def __post_init__(self):
        if self.records is None:
            self.candidates = [v.candidate for v in self.objects]
            self.records = [_NO_RECORD] * len(self.objects)
        if not isinstance(self.candidates, CandidateColumns):
            self.candidates = CandidateColumns.of(self.candidates)
        if self.ai_hits is None:
            self.ai_hits, self.ai_hit_labels = _ai_hits(self.records)

    @functools.cached_property
    def verdicts(self) -> tuple[ComponentVerdict, ...]:
        """Every row as a verdict, read-only; the objects themselves where there are some."""
        return tuple(
            verdict or _reused(candidate, record, None)
            for verdict, candidate, record in zip(self.objects, self.candidates, self.records)
        )

    def ai_objects(self) -> list[ComponentVerdict]:
        """The AI verdicts that are objects, in candidate order."""
        return [v for v in filter(None, self.objects) if v.is_ai]

    def ai_rows(self) -> list[int]:
        """Every AI row, in candidate order."""
        objects = self.objects
        return sorted(chain(self.ai_hits, (i for i in compress(count(), objects) if objects[i].is_ai)))

    def ai_verdicts(self) -> list[ComponentVerdict]:
        """Every AI row as a verdict, in candidate order; a KB hit's is built here."""
        objects, candidates, records = self.objects, self.candidates, self.records
        return [objects[i] or _reused(candidates[i], records[i], None) for i in self.ai_rows()]


def component_line(text: str, analysis: Optional[str]) -> str:
    """One component as the Detect, Summarize and Classify prompts show it."""
    return f"{text} :: {analysis}" if analysis else text


def _detection_of(result: ItemResult) -> tuple[bool, str]:
    if result.error:
        return False, FAILURE_RATIONALE
    return result.payload["is_ai"], result.payload["rationale"]


def _analysis_of(result: ItemResult) -> str:
    if result.error:
        return FAILURE_ANALYSIS
    return result.payload["analysis"]


def run_pipeline(
    cand_set: CandidateSet,
    cfg: PipelineConfig,
    kb: KnowledgeBase,
    gateway: LlmGateway,
    turn: Optional[AppTurn] = None,
) -> PipelineResult:
    """Produce exactly one verdict per candidate, in candidate order.

    KB hits short-circuit without any backend traffic. Nothing is written
    here: ``write_back`` persists the verdicts once they carry their labels.
    If the backend goes away mid-run the unresolved candidates are failed
    conservatively and the run is flagged degraded, while KB-resolved
    verdicts are still returned.

    The keys this app will write (misses, and AI hits without labels) are
    claimed through its ``turn`` in input order; without one the app runs
    alone. A key that an earlier app of the run holds is not sent again:
    once that app has committed, its record is read as a KB hit, and the key
    is resolved here only if it wrote none. The verdicts are then the ones a
    run of the apps one at a time gives.
    """
    turn = turn or AppTurn.alone()
    candidates = cand_set.candidates
    # One lookup per row, each key built as it is read; a row gets a Python step of its
    # own below only when it is a miss or an AI hit without both labels.
    records = list(map(kb.lookup, _keys(candidates)))
    misses = positions(records, None)
    for i in misses:
        records[i] = _NO_RECORD
    ai_hits, ai_hit_labels = _ai_hits(records)
    # An AI hit that lacks a label goes on as a verdict, to be labeled.
    unlabeled = [] if all(map(all, ai_hit_labels)) else [i for i in ai_hits if not all(_labels_of(records[i]))]
    objects: list[Optional[ComponentVerdict]] = [None] * len(candidates)
    # key -> (record seen by the lookup, indexes of its verdicts)
    pending: dict[KbKey, tuple[Optional[KbRecord], list[int]]] = {}
    for i in sorted(misses + unlabeled):
        candidate, record = candidates[i], records[i]
        key = KbKey.make(candidate.kind, candidate.text)
        if record is _NO_RECORD:
            # The conservative verdict stands until this run's Detect call returns.
            objects[i] = ComponentVerdict(candidate, is_ai=False, rationale=FAILURE_RATIONALE, key=key)
            record = None
        else:
            objects[i] = _reused(candidate, record, key)
            records[i] = _NO_RECORD
        pending.setdefault(key, (record, []))[1].append(i)
    if unlabeled:
        ai_hits, ai_hit_labels = _ai_hits(records)

    warnings: list[str] = []

    def settle(keys: list[KbKey]) -> None:
        # Take what an earlier app wrote since the lookup, then send the misses
        # left together, in candidate order, unless the backend went away.
        fresh: list[int] = []
        for key in keys:
            seen, indexes = pending[key]
            record = kb.records.get(key)  # a check of the store, not a verdict lookup
            if record is None:
                fresh += indexes
            elif record is not seen:
                for i in indexes:
                    objects[i] = _reused(candidates[i], record, key)
                turn.from_earlier_app += len(indexes)
        if fresh and not warnings:
            try:
                _run_fresh([objects[i] for i in sorted(fresh)], cfg, gateway)
            except BackendUnavailable as exc:
                warnings.append(f"backend unavailable mid-run: {exc}")

    earlier = turn.claim(pending)
    settle([key for key in pending if key not in earlier])
    if earlier:
        for holder in set(earlier.values()):
            holder.wait_committed()
        settle(list(earlier))
    return PipelineResult(objects, bool(warnings), warnings, candidates, records, ai_hits, ai_hit_labels)


def _keys(candidates: CandidateColumns) -> Iterator[KbKey]:
    """``KbKey.make(kind, text)`` of every row, in order: ``text.lower()`` for the rows
    where that is the normalized text, ``normalize_text`` for the rest."""
    texts, lower = candidates.text, candidates.lower_rows
    normalized = chain(
        map(normalize_text, islice(texts, lower.start)),
        map(str.lower, islice(texts, lower.start, lower.stop)),
        map(normalize_text, islice(texts, lower.stop, None)),
    )
    return map(_tuple_new, repeat(KbKey), zip(candidates.kind, normalized))


# One string per model, not one per KB hit.
reused_rationale = functools.lru_cache(maxsize=64)("Reused prior verdict from knowledge base (model {})".format)


def _reused(candidate: Candidate, record: KbRecord, key: Optional[KbKey]) -> ComponentVerdict:
    # Positional, since this runs once per KB hit: eight keywords take about three times as long.
    return ComponentVerdict(
        candidate, record.verdict == VERDICT_AI, record.analysis, reused_rationale(record.model_id),
        PROVENANCE_KB, record.domain, record.task, key,
    )


def _run_fresh(fresh: list[ComponentVerdict], cfg: PipelineConfig, gateway: LlmGateway) -> None:
    analyze_first = cfg.order is PipelineOrder.ANALYSIS_THEN_DETECTION
    analyses = _analyses(fresh, cfg, gateway) if analyze_first else [None] * len(fresh)
    items = [component_line(v.candidate.text, a) for v, a in zip(fresh, analyses)]
    detections = gateway.run_items(TaskId.DETECT, items, cfg.batch_size)
    # Set before any later Analyze call, so an outage there keeps them.
    for verdict, analysis, detection in zip(fresh, analyses, detections):
        verdict.analysis = analysis
        verdict.is_ai, verdict.rationale = _detection_of(detection)
    if not analyze_first:
        # Positives still get analyzed so every AI verdict carries an analysis.
        positives = [v for v in fresh if v.is_ai]
        for verdict, analysis in zip(positives, _analyses(positives, cfg, gateway)):
            verdict.analysis = analysis


def _analyses(verdicts: list[ComponentVerdict], cfg: PipelineConfig, gateway: LlmGateway) -> list[str]:
    texts = [v.candidate.text for v in verdicts]
    return [_analysis_of(r) for r in gateway.run_items(TaskId.ANALYZE, texts, cfg.batch_size)]


def _reliable(verdict: ComponentVerdict) -> bool:
    # Verdicts that only exist because an item failed are transient; caching
    # them would make the failure permanent across runs.
    failed_analysis = verdict.is_ai and verdict.analysis in (None, FAILURE_ANALYSIS)
    return verdict.rationale != FAILURE_RATIONALE and not failed_analysis


def write_back(run: PipelineResult, kb: KnowledgeBase, model_id: str) -> None:
    """Persist what this run learned: the only place that writes the KB.

    Call once per app, after taxonomy labeling, so each record carries its
    labels. Only a reliable verdict is written: a fresh one, from a degraded
    run too, where a verdict the outage left unfinished is not reliable; and
    a KB hit when this run filled in the labels its record lacked. A verdict
    whose labeling failed has no labels, so its record carries none and the
    next run asks again.
    """
    for verdict in filter(None, run.objects):
        if verdict.provenance != PROVENANCE_FRESH and (
            not (verdict.domain and verdict.task) or _labeled_in_kb(verdict, kb)
        ):
            continue
        if _reliable(verdict):
            kb.insert(KbRecord(
                key=verdict.kb_key(),
                verdict=VERDICT_AI if verdict.is_ai else VERDICT_NON_AI,
                # A failed analysis is this run's marker, not knowledge.
                analysis=None if verdict.analysis == FAILURE_ANALYSIS else verdict.analysis,
                domain=verdict.domain,
                task=verdict.task,
                model_id=model_id,
            ))


def _labeled_in_kb(verdict: ComponentVerdict, kb: KnowledgeBase) -> bool:
    # A check of the store, not a verdict lookup: lookup() stays the pipeline's read path.
    stored = kb.records.get(verdict.kb_key())
    return stored is not None and bool(stored.domain and stored.task)


def is_ai_app(verdicts: Iterable[ComponentVerdict]) -> bool:
    """An app counts as an AI app when at least one component verdict is AI."""
    return any(v.is_ai for v in verdicts)
