"""Two-stage screen over app descriptions: exact keyword filter, then a
semantic pass through the gateway."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Optional, Sequence, Union

from .gateway import GatewayError, LlmGateway, TaskId
from .listfile import parse_list, read_list
from .pipeline import PipelineConfig
from .utf8 import jsonl_lines, loads

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AppDescription:
    """Store listing text for one app."""

    package_name: str
    text: str
    release_date: Optional[date] = None


@dataclass(frozen=True)
class KeywordList:
    """Lowercased screening phrases, high-level terms through task names.

    An empty list is representable but screens nothing out of stage 1.
    """

    terms: tuple[str, ...]


@dataclass
class CurationResult:
    """Descriptions that passed both stages, with per-stage counts."""

    selected: list[AppDescription]
    stage1_passed: int = 0
    stage2_passed: int = 0
    warnings: list[str] = field(default_factory=list)


def load_keywords(path: Union[str, Path, None] = None) -> KeywordList:
    """Keyword file: one phrase per line, '#' comments, UTF-8.

    Without a path, the packaged default list is used.
    """
    return KeywordList(terms=parse_list(read_list("keywords.txt", path)))


def load_descriptions(path: Union[str, Path]) -> list[AppDescription]:
    """Read line-delimited JSON records (package_name, text, release_date)."""
    out: list[AppDescription] = []
    with jsonl_lines(path) as lines:
        for lineno, line in lines:
            try:
                payload = loads(line)
                if not isinstance(payload, dict):
                    raise ValueError("not a JSON object")
                name, text = payload.get("package_name"), payload.get("text", "")
                released = payload.get("release_date")
                if not (isinstance(name, str) and isinstance(text, str)
                        and isinstance(released, (str, type(None)))):
                    raise ValueError("package_name, text and release_date must be strings")
                out.append(
                    AppDescription(
                        package_name=name,
                        text=text,
                        release_date=date.fromisoformat(released) if released else None,
                    )
                )
            except ValueError as exc:
                log.warning("%s:%d: skipping bad description record (%s)", path, lineno, exc)
    return out


def _phrase_pattern(term: str) -> re.Pattern[str]:
    # Whole-word/phrase match with non-alphanumeric boundaries, so "ai" hits
    # "our AI chatbot" but not "Shanghai".
    return re.compile(rf"(?<![0-9a-z]){re.escape(term)}(?![0-9a-z])")


def keyword_screen(desc: AppDescription, kw: KeywordList) -> bool:
    """True when any keyword occurs as a whole word or phrase, case-insensitive."""
    lowered = desc.text.lower()
    if not lowered:
        return False
    return any(_phrase_pattern(term).search(lowered) for term in kw.terms)


def curate(
    descs: Sequence[AppDescription],
    kw: KeywordList,
    gateway: LlmGateway,
    batch_size: int = PipelineConfig.batch_size,
) -> CurationResult:
    """Run both stages over a description list, preserving input order.

    The result is always a subset of the stage-1 survivors, which are a
    subset of the input.
    """
    warnings: list[str] = []
    if not kw.terms:
        warnings.append("empty keyword list: stage 1 blocks every description")
    stage1 = [d for d in descs if keyword_screen(d, kw)]
    if not stage1:
        return CurationResult(selected=[], stage1_passed=0, stage2_passed=0, warnings=warnings)

    selected: list[AppDescription] = []
    try:
        results = gateway.run_items(TaskId.DESCRIPTION_SCREEN, [d.text for d in stage1], batch_size)
    except GatewayError as exc:
        warnings.append(f"semantic stage unavailable, excluding all stage-1 survivors: {exc}")
        results = []
    for desc, result in zip(stage1, results):
        if result.error:
            warnings.append(f"{desc.package_name}: semantic screen item failed, excluded")
        elif result.payload["likely_ai"]:
            selected.append(desc)

    return CurationResult(
        selected=selected,
        stage1_passed=len(stage1),
        stage2_passed=len(selected),
        warnings=warnings,
    )
