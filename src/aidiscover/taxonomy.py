"""App-level AI service reports and the two-level domain/task taxonomy.

Components are labeled through the gateway, labels roll up to an app label by
highest frequency, and per-corpus distributions are aggregated from many apps.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

from .candidates import ApiSignature, CandidateKind, dotted_prefixes, package_of
from .gateway import GatewayError, LlmGateway, TaskId
from .pipeline import ComponentVerdict, PipelineConfig, component_line

log = logging.getLogger(__name__)

SUMMARY_UNAVAILABLE = "[summary unavailable: backend failure]"
NO_AI_SUMMARY = "No AI components were detected in this app."
UNCLASSIFIED_TASK = "Unclassified"


class EmptyLabels(Exception):
    """classify_app needs at least one label."""


class DomainLabel(Enum):
    """The closed domain set, declared in app-label tie-break order."""

    COMPUTER_VISION = "ComputerVision"
    DATA_ANALYSIS = "DataAnalysis"
    NATURAL_LANGUAGE_PROCESSING = "NaturalLanguageProcessing"
    AUDIO_SPEECH_PROCESSING = "AudioSpeechProcessing"
    AUGMENTED_REALITY = "AugmentedReality"
    OTHERS = "Others"

    @property
    def display(self) -> str:
        return _DISPLAY[self]


_DISPLAY = {
    DomainLabel.COMPUTER_VISION: "Computer Vision",
    DomainLabel.DATA_ANALYSIS: "Data Analysis",
    DomainLabel.NATURAL_LANGUAGE_PROCESSING: "Natural Language Processing",
    DomainLabel.AUDIO_SPEECH_PROCESSING: "Audio and Speech Processing",
    DomainLabel.AUGMENTED_REALITY: "Augmented Reality",
    DomainLabel.OTHERS: "Others",
}

# Deterministic tie-break order for app labeling, most common domain first.
DOMAIN_PRECEDENCE = tuple(DomainLabel)

_DOMAIN_ALIASES = {
    "cv": DomainLabel.COMPUTER_VISION,
    "da": DomainLabel.DATA_ANALYSIS,
    "nlp": DomainLabel.NATURAL_LANGUAGE_PROCESSING,
    "asp": DomainLabel.AUDIO_SPEECH_PROCESSING,
    "ar": DomainLabel.AUGMENTED_REALITY,
}


def _squash(text: str) -> str:
    return "".join(ch for ch in text.lower() if ch.isalnum())


_DOMAIN_LOOKUP: dict[str, DomainLabel] = {}
for _label in DomainLabel:
    _DOMAIN_LOOKUP[_squash(_label.value)] = _label
    _DOMAIN_LOOKUP[_squash(_label.display)] = _label
for _alias, _label in _DOMAIN_ALIASES.items():
    _DOMAIN_LOOKUP[_alias] = _label


def parse_domain(text: str) -> DomainLabel:
    """Closed-set domain parser; anything unrecognized maps to Others."""
    return _DOMAIN_LOOKUP.get(_squash(text or ""), DomainLabel.OTHERS)


def normalize_task(text: str) -> str:
    cleaned = " ".join((text or "").split())
    return cleaned.title() if cleaned else UNCLASSIFIED_TASK


@dataclass(frozen=True)
class TaxonomyLabel:
    """Domain plus free-form (but normalized) task of one AI component."""

    domain: DomainLabel
    task: str


UNCLASSIFIED = TaxonomyLabel(DomainLabel.OTHERS, UNCLASSIFIED_TASK)


def label_of(domain: Optional[str], task: Optional[str]) -> TaxonomyLabel:
    """The one component-label rule: both parts normalized, or UNCLASSIFIED
    unless both are set."""
    if not (domain and task):
        return UNCLASSIFIED
    return TaxonomyLabel(parse_domain(domain), normalize_task(task))


@dataclass
class AiServiceReport:
    """Per-app AI service summary."""

    app_id: str
    summary: str
    capabilities: list[str] = field(default_factory=list)
    kind_counts: dict[str, int] = field(default_factory=dict)
    app_label: Optional[TaxonomyLabel] = None
    degraded: bool = False


@dataclass
class CorpusStats:
    """Corpus-level distributions over component labels and app labels."""

    component_domain_dist: dict[DomainLabel, float] = field(default_factory=dict)
    component_task_dist: dict[tuple[DomainLabel, str], float] = field(default_factory=dict)
    app_domain_counts: dict[DomainLabel, int] = field(default_factory=dict)
    kind_totals: dict[str, int] = field(default_factory=dict)
    component_label_count: int = 0


def _subsumed_by_package(verdict: ComponentVerdict, ai_packages: set[str]) -> bool:
    if verdict.candidate.kind != CandidateKind.API:
        return False
    class_name = ApiSignature.class_name_of(verdict.candidate.text)
    if not class_name:
        return False
    pkg = package_of(class_name)
    if not pkg:
        return False
    return not ai_packages.isdisjoint(dotted_prefixes(pkg))


def summarize_app(
    app_id: str,
    ai_verdicts: Sequence[ComponentVerdict],
    gateway: LlmGateway,
) -> AiServiceReport:
    """Generate the per-app AI service report from its AI-positive verdicts.

    Low-level API components whose parent package is itself an AI component
    are left out of the prompt. The rest are ranked by occurrences, kind and
    text, and the longest ranked prefix that fits the context budget is sent,
    so the least-seen components are dropped first. Backend failure degrades
    to a marker summary with the raw analyses as capabilities.
    """
    kind_counts = dict(Counter(v.candidate.kind for v in ai_verdicts))
    if not ai_verdicts:
        return AiServiceReport(app_id=app_id, summary=NO_AI_SUMMARY, kind_counts=kind_counts)

    ai_packages = {
        v.candidate.text for v in ai_verdicts if v.candidate.kind == CandidateKind.PACKAGE
    }
    included = [v for v in ai_verdicts if not _subsumed_by_package(v, ai_packages)]
    # Ranked so context truncation drops the least-seen components first.
    included.sort(
        key=lambda v: (
            -v.candidate.occurrences,
            CandidateKind.sort_key(v.candidate.kind),
            v.candidate.text,
        )
    )

    lines = [component_line(v.candidate.text, v.analysis) for v in included]
    kept = gateway.summary_fit(lines)
    if kept < len(included):
        log.info(
            "summary over budget for %s; dropped %d components, kept %d",
            app_id, len(included) - kept, kept,
        )
    if not kept:
        # Nothing fits the context at all; report what we know verbatim.
        return AiServiceReport(
            app_id=app_id,
            summary=SUMMARY_UNAVAILABLE,
            capabilities=[v.analysis for v in ai_verdicts if v.analysis],
            kind_counts=kind_counts,
            degraded=True,
        )
    try:
        payload = gateway.run_summary(lines[:kept])
    except GatewayError as exc:
        log.warning("summary generation failed for %s: %s", app_id, exc)
        return AiServiceReport(
            app_id=app_id,
            summary=SUMMARY_UNAVAILABLE,
            capabilities=[v.analysis for v in included[:kept] if v.analysis],
            kind_counts=kind_counts,
            degraded=True,
        )
    return AiServiceReport(
        app_id=app_id,
        summary=payload["summary"],
        capabilities=list(payload["capabilities"]),
        kind_counts=kind_counts,
    )


def classify_components(
    verdicts: Sequence[ComponentVerdict],
    gateway: LlmGateway,
    batch_size: int = PipelineConfig.batch_size,
) -> list[TaxonomyLabel]:
    """Label AI components with (domain, task), one label per verdict.

    Components that already carry both labels are not re-sent. A verdict
    left with both labels gets them back normalized by ``label_of``. An
    item-level or gateway failure, or a reply missing a part, labels as
    UNCLASSIFIED but leaves the verdict unlabeled, so the KB never stores the
    fallback and a later run asks again.
    """
    pending = [v for v in verdicts if not (v.domain and v.task)]
    if pending:
        items = [component_line(v.candidate.text, v.analysis) for v in pending]
        try:
            results = gateway.run_items(TaskId.CLASSIFY_TAXONOMY, items, batch_size)
        except GatewayError as exc:
            log.warning("taxonomy classification failed: %s", exc)
            results = []
        for verdict, result in zip(pending, results):
            if result.payload and not result.error:
                verdict.domain, verdict.task = result.payload["domain"], result.payload["task"]
    labels = [label_of(v.domain, v.task) for v in verdicts]
    for verdict, label in zip(verdicts, labels):
        labeled = verdict.domain and verdict.task
        verdict.domain, verdict.task = (label.domain.value, label.task) if labeled else (None, None)
    return labels


def classify_app(labels: Sequence[TaxonomyLabel]) -> TaxonomyLabel:
    """App label = most frequent domain, then most frequent task inside it.

    Domain ties fall back to a fixed precedence order; task ties inside the
    winning domain resolve lexicographically. Permutation-invariant, and
    invariant under scaling every label's multiplicity.
    """
    if not labels:
        raise EmptyLabels("cannot label an app without component labels")
    domain_counts = Counter(label.domain for label in labels)
    best_domain = max(
        domain_counts,
        key=lambda d: (domain_counts[d], -DOMAIN_PRECEDENCE.index(d)),
    )
    task_counts = Counter(label.task for label in labels if label.domain is best_domain)
    top = max(task_counts.values())
    best_task = min(t for t, c in task_counts.items() if c == top)
    return TaxonomyLabel(domain=best_domain, task=best_task)


@dataclass
class AppAggregate:
    """One app's contribution to corpus statistics."""

    app_id: str
    labels: list[TaxonomyLabel] = field(default_factory=list)
    app_label: Optional[TaxonomyLabel] = None
    kind_counts: dict[str, int] = field(default_factory=dict)


_TABLE_KIND_GROUPS = {
    CandidateKind.PACKAGE: "package_api",
    CandidateKind.API: "package_api",
    CandidateKind.MODEL_ASSET: "model",
    CandidateKind.HTTPS_REQUEST: "http_request",
    CandidateKind.OTHER: "others",
}


def aggregate_stats(all_apps: Iterable[AppAggregate]) -> CorpusStats:
    """Corpus roll-up: label distributions, app domain counts, kind totals.

    Each returned distribution sums to 1 (within float error) when nonempty.
    """
    label_counter: Counter[TaxonomyLabel] = Counter()
    app_domains: Counter[DomainLabel] = Counter()
    kind_totals = {group: 0 for group in ("package_api", "model", "http_request", "others")}

    for app in all_apps:
        label_counter.update(app.labels)
        if app.app_label is not None:
            app_domains[app.app_label.domain] += 1
        for kind, count in app.kind_counts.items():
            group = _TABLE_KIND_GROUPS.get(kind)
            if group:
                kind_totals[group] += count

    total_labels = sum(label_counter.values())
    domain_counter: Counter[DomainLabel] = Counter()
    for label, count in label_counter.items():
        domain_counter[label.domain] += count

    # Both are empty when there are no labels, so nothing divides by zero.
    domain_dist = {d: c / total_labels for d, c in domain_counter.items()}
    task_dist = {(label.domain, label.task): c / total_labels for label, c in label_counter.items()}
    kind_totals["total"] = sum(kind_totals.values())

    return CorpusStats(
        component_domain_dist=domain_dist,
        component_task_dist=task_dist,
        app_domain_counts=dict(app_domains),
        kind_totals=kind_totals,
        component_label_count=total_labels,
    )
