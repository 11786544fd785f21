"""Rule-based prefilter: drop platform/runtime packages before any LLM work."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Union

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

    def matches(self, dotted: str) -> bool:
        return not self.prefixes.isdisjoint(dotted_prefixes(dotted.lower()))

    def drops_api_head(self, head: str) -> bool:
        """Whether an API signature whose text before its first ``:`` is ``head``
        is dropped: the class that ``head`` opens with ``<`` is whitelisted."""
        # class_name_of(head + ":") is class_name_of(text) for a text with a ":".
        class_name = ApiSignature.class_name_of(head + ":")
        return class_name is not None and self.matches(class_name)

    @classmethod
    def empty(cls) -> "Whitelist":
        return cls(prefixes=frozenset())


def parse_whitelist(text: str) -> Whitelist:
    prefixes = frozenset(e.rstrip(".") for e in parse_list(text)) - {""}
    if not prefixes:
        raise EmptyWhitelist("no prefixes parsed; pipeline may proceed unfiltered")
    return Whitelist(prefixes=prefixes)


def load_whitelist(path: Union[str, Path, None] = None) -> Whitelist:
    """Load a whitelist file (one prefix per line, '#' comments, UTF-8).

    Without a path, the packaged default list is used.

    Raises:
        EmptyWhitelist: the file parsed to zero prefixes. Callers that want
            to continue unfiltered should catch this and use Whitelist.empty().
    """
    return parse_whitelist(read_list("whitelist.txt", path))


def apply_whitelist(cand_set: CandidateSet, wl: Whitelist) -> CandidateSet:
    """Drop Package/Api candidates under any whitelisted prefix.

    Idempotent; preserves candidate order, occurrences, and every candidate
    of other kinds. An API candidate is decided by its class, the text before
    its first ``:``; each distinct class and name is decided once per call.
    """
    matches = functools.cache(wl.matches)
    drops_class = functools.cache(wl.drops_api_head)

    # URL and model-asset candidates are never whitelisted away; the many API ones go first.
    api, package = CandidateKind.API, CandidateKind.PACKAGE
    kept = [
        c for c in cand_set.candidates
        if not (
            ":" in c.text and drops_class(c.text.partition(":")[0]) if c.kind == api
            else c.kind == package and matches(c.text)
        )
    ]
    return CandidateSet(
        app_id=cand_set.app_id,
        candidates=kept,
        obfuscation=cand_set.obfuscation,
        warnings=list(cand_set.warnings),
    )
