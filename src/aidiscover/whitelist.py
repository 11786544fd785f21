"""Rule-based prefilter: drop platform/runtime packages before any LLM work."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import Union

from .candidates import CandidateKind, CandidateSet, dotted_prefixes, positions
from .listfile import parse_list, read_list


class EmptyWhitelist(Exception):
    """The whitelist file parsed to zero prefixes; filtering would be a no-op."""


@dataclass(frozen=True)
class Whitelist:
    """Package-prefix deny list for obviously non-AI platform components.

    Prefixes are stored lowercase without a trailing dot; matching is
    segment-aware, so prefix "java" covers "java.lang" but never "javax".

    A name is decided by an exact hit, or else by its package, the text before
    its last ".". Each package is decided once per instance and remembered,
    so all apps and threads that share the instance share the decisions.
    """

    prefixes: frozenset[str]
    _longest: int = field(init=False, repr=False, compare=False)
    _packages: dict[str, bool] = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_longest", max(map(len, self.prefixes), default=0))

    def _decide(self, lowered: str) -> bool:
        """Whether lowercased ``lowered`` or a prefix of it that ends before a "." is whitelisted."""
        # No cut longer than every prefix can match, so a hostile name of many
        # segments costs no more than the longest prefix, and neither does its entry.
        head = lowered[: self._longest + 1]
        hit = self._packages.get(head)
        if hit is None:
            hit = self._packages[head] = not self.prefixes.isdisjoint(dotted_prefixes(head))
        return hit

    def matches(self, dotted: str) -> bool:
        lowered = dotted.lower()
        package, dot, _ = lowered.rpartition(".")
        return lowered in self.prefixes or (bool(dot) and self._decide(package))

    def matches_package(self, package: str) -> bool:
        """``matches(package)``, remembered for ``package`` itself rather than its parent."""
        return self._decide(package.lower())

    def drops_api_head(self, head: str) -> bool:
        """Whether an API signature whose text before its first ``:`` is ``head``
        is dropped: the class that ``head`` opens with ``<`` is whitelisted."""
        # The class ApiSignature.class_name_of(head + ":") parses, found without its regex.
        name = head[1:]
        return head[:1] == "<" and ">" not in name and self.matches(name.strip())

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
    its first ``:``, each distinct one once per call; a Package candidate by
    itself. Both reuse the package decisions extraction made with ``wl``. A
    set whose ``api_whitelist`` equals ``wl`` keeps its API candidates as
    they are: only its Package rows are decided.
    """
    cands = cand_set.candidates
    kinds, texts = cands.kind, cands.text
    api, package = CandidateKind.API, CandidateKind.PACKAGE
    if cand_set.api_whitelist == wl:
        dropped = [i for i in positions(kinds, package) if wl.matches_package(texts[i])]
    else:
        drops_class = functools.cache(wl.drops_api_head)
        # URL and model-asset candidates are never whitelisted away; the many API ones go first.
        dropped = [
            i for i, kind, text in zip(count(), kinds, texts)
            if (":" in text and drops_class(text.partition(":")[0]) if kind == api
                else kind == package and wl.matches_package(text))
        ]
    return CandidateSet(
        app_id=cand_set.app_id,
        candidates=cands.without(dropped),
        obfuscation=cand_set.obfuscation,
        warnings=list(cand_set.warnings),
        api_whitelist=wl,
    )
