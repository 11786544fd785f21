"""Rule-based prefilter: drop platform/runtime packages before any LLM work."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

from .candidates import ApiSignature, Candidate, CandidateKind, CandidateSet, dotted_prefixes
from .listfile import parse_list, read_list


class EmptyWhitelist(Exception):
    """The whitelist file parsed to zero prefixes; filtering would be a no-op."""


@dataclass(frozen=True)
class Whitelist:
    """Package-prefix deny list for obviously non-AI platform components.

    Prefixes are stored lowercase without a trailing dot; matching is
    segment-aware, so prefix "java" covers "java.lang" but never "javax".
    """

    prefixes: frozenset[str]
    version: str = "0"

    def matches(self, dotted: str) -> bool:
        return not self.prefixes.isdisjoint(dotted_prefixes(dotted.lower()))

    @classmethod
    def empty(cls) -> "Whitelist":
        return cls(prefixes=frozenset(), version="empty")


def parse_whitelist(text: str) -> Whitelist:
    entries, version = parse_list(text)
    prefixes = frozenset(e.rstrip(".") for e in entries) - {""}
    if not prefixes:
        raise EmptyWhitelist("no prefixes parsed; pipeline may proceed unfiltered")
    return Whitelist(prefixes=prefixes, version=version)


def load_whitelist(path: Union[str, Path, None] = None) -> Whitelist:
    """Load a whitelist file (one prefix per line, '#' comments, UTF-8).

    Without a path, the packaged default list is used.

    Raises:
        EmptyWhitelist: the file parsed to zero prefixes. Callers that want
            to continue unfiltered should catch this and use Whitelist.empty().
    """
    return parse_whitelist(read_list("whitelist.txt", path))


def _drop(candidate: Candidate, matches: Callable[[str], bool]) -> bool:
    """Whether ``matches`` (a whitelist test on a dotted name) drops one candidate."""
    if candidate.kind == CandidateKind.PACKAGE:
        return matches(candidate.text)
    if candidate.kind == CandidateKind.API:
        class_name = ApiSignature.class_name_of(candidate.text)
        return class_name is not None and matches(class_name)
    # URL and model-asset candidates are never whitelisted away.
    return False


def apply_whitelist(cand_set: CandidateSet, wl: Whitelist) -> CandidateSet:
    """Drop Package/Api candidates under any whitelisted prefix.

    Idempotent; preserves candidate order, occurrences, and every candidate
    of other kinds. Each distinct name is tested once per call, since an app
    has many API candidates per class.
    """
    matches = functools.cache(wl.matches)
    return CandidateSet(
        app_id=cand_set.app_id,
        candidates=[c for c in cand_set.candidates if not _drop(c, matches)],
        obfuscation=cand_set.obfuscation,
        warnings=list(cand_set.warnings),
    )
