"""Candidate extraction: packages, API signatures, endpoint URLs, model assets.

Each extractor is a pure function over bytes or names; :func:`extract_candidates`
merges all per-entry results into one deduplicated, deterministically ordered
set per app, together with name-obfuscation statistics.
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Union
from urllib.parse import urlsplit

from .apk import ApkArchive, EntryKind
from .dex import DexSymbols, MethodRef, parse_dex
from .listfile import parse_list, read_list
from .native import scan_elf_strings

if TYPE_CHECKING:  # whitelist.py imports this module
    from .whitelist import Whitelist

log = logging.getLogger(__name__)

# Scheme, host that neither starts nor ends with a separator, optional port
# and path. Path charset excludes whitespace, quotes, and angle brackets so a
# match never drags in surrounding prose or control bytes.
URL_RE = re.compile(
    r"https?://[A-Za-z0-9](?:[A-Za-z0-9.-]*[A-Za-z0-9])?(?::\d{1,5})?(?:/[^\s\"'<>`\\]*)?"
)

_no_control_character = re.compile(r"[^\x00-\x1f\x7f]*").fullmatch


def _is_clean_signature(text: str) -> bool:
    """Whether ``text`` holds no C0 control character or DEL: a rendered signature, bracketed
    and never padded, is then clean. Text with no unprintable character holds none, and
    ASCII text is unprintable only by one, so the regex runs only on text beyond ASCII."""
    return text.isprintable() or (not text.isascii() and _no_control_character(text) is not None)


_SIGNATURE_CLASS = re.compile(r"<([^:>]+):")
_tuple_new = tuple.__new__

# Obfuscators rename to one- and two-letter identifiers.
OBFUSCATED_SEGMENT_LEN = 2


class CandidateKind:
    """Closed set of candidate categories, in canonical report order."""

    PACKAGE = "Package"
    API = "Api"
    HTTPS_REQUEST = "HttpsRequest"
    MODEL_ASSET = "ModelAsset"
    OTHER = "Other"

    ALL = (PACKAGE, API, HTTPS_REQUEST, MODEL_ASSET, OTHER)

    _ORDER = {k: i for i, k in enumerate(ALL)}

    @classmethod
    def sort_key(cls, kind: str) -> int:
        return cls._ORDER.get(kind, len(cls.ALL))


class ApiSignature:
    """The rendered API signature format: ``<class: ret name(params)>``."""

    @staticmethod
    def render(method: MethodRef) -> str:
        params = ",".join(method.param_types)
        return f"<{method.class_name}: {method.return_type} {method.name}({params})>"

    @staticmethod
    def class_name_of(rendered: str) -> Optional[str]:
        """Recover the class name from a rendered signature, if well formed."""
        m = _SIGNATURE_CLASS.match(rendered)
        return m.group(1).strip() if m else None


def dotted_prefixes(name: str) -> list[str]:
    """``name`` cut before each ``.``, then ``name`` itself: every prefix that ends at a
    segment boundary, so a segment-aware prefix test is one set lookup per segment."""
    prefixes = []
    dot = name.find(".")
    while dot >= 0:
        prefixes.append(name[:dot])
        dot = name.find(".", dot + 1)
    prefixes.append(name)
    return prefixes


class Candidate(NamedTuple):
    """One extracted component: category, canonical text, origin, multiplicity."""

    kind: str
    text: str
    source: str
    occurrences: int = 1


@dataclass
class ObfuscationStats:
    """Share of shortened class file names and package directory names."""

    file_name_ratio: float = 0.0
    dir_name_ratio: float = 0.0
    total_classes: int = 0


class CandidateColumns(Sequence):
    """An app's candidates as four parallel columns, read as a sequence of ``Candidate``
    rows; a row is built only when it is read, as ``DexSymbols.methods`` does.

    ``lower_rows`` are rows whose KB text, ``normalize_text(text)``, is ``text.lower()``.
    Extraction proves it for its API rows when every one of their texts is ASCII and holds
    only its two separator spaces, each single.
    """

    __slots__ = ("kind", "text", "source", "occurrences", "lower_rows")

    def __init__(
        self, kind: list[str], text: list[str], source: list[str], occurrences: list[int], lower_rows: range = range(0)
    ):
        self.kind, self.text, self.source, self.occurrences = kind, text, source, occurrences
        self.lower_rows = lower_rows

    @classmethod
    def of(cls, candidates: Iterable[Candidate]) -> "CandidateColumns":
        rows = list(candidates)
        return cls(*(list(map(itemgetter(k), rows)) for k in range(4)))

    def __len__(self) -> int:
        return len(self.text)

    def __getitem__(self, i: int) -> Candidate:
        return _tuple_new(Candidate, (self.kind[i], self.text[i], self.source[i], self.occurrences[i]))

    def __iter__(self) -> Iterator[Candidate]:
        return map(_tuple_new, repeat(Candidate), zip(self.kind, self.text, self.source, self.occurrences))

    def __eq__(self, other) -> bool:
        if isinstance(other, CandidateColumns):
            return (self.kind, self.text, self.source, self.occurrences) == (
                other.kind, other.text, other.source, other.occurrences
            )
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"CandidateColumns({list(self)!r})"

    def without(self, dropped: list[int]) -> "CandidateColumns":
        """These rows but the ones at ``dropped``, ascending positions; the rows after
        the last of those are copied as a slice."""
        end = dropped[-1] + 1 if dropped else 0
        kept = [True] * end
        for i in dropped:
            kept[i] = False
        lower = self.lower_rows
        columns = (self.kind, self.text, self.source, self.occurrences)
        return CandidateColumns(
            *(list(compress(column, kept)) + column[end:] for column in columns),
            range(lower.start - bisect_left(dropped, lower.start), lower.stop - bisect_left(dropped, lower.stop)),
        )


def positions(values: list, value) -> list[int]:
    """The ascending positions of ``value`` in ``values``, found by the list's own search:
    a Python step per match, none per other item."""
    found, i = [], -1
    for _ in range(values.count(value)):
        i = values.index(value, i + 1)
        found.append(i)
    return found


@dataclass
class CandidateSet:
    """All candidates of one app, deduplicated and deterministically ordered.

    ``candidates`` are columns (``CandidateColumns``); a sequence of ``Candidate``
    passed in is turned into them.

    ``api_whitelist`` is a whitelist that already decided every API candidate: the one
    ``extract_candidates`` skipped classes by, or the one ``apply_whitelist`` applied. It
    is a hint, so it takes no part in equality; a set whose API candidates change after
    it was made must go without it.
    """

    app_id: str
    candidates: Sequence[Candidate] = ()
    obfuscation: ObfuscationStats = field(default_factory=ObfuscationStats)
    warnings: list[str] = field(default_factory=list)
    api_whitelist: Optional[Whitelist] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.candidates, CandidateColumns):
            self.candidates = CandidateColumns.of(self.candidates)


def find_urls(text: str) -> list[str]:
    """All URL substrings of one string, in order of appearance."""
    return [m.group(0) for m in URL_RE.finditer(text)]


def _urls_in(texts: Iterable[str]) -> Iterable[str]:
    # Every URL_RE match contains "://", so a text without it is not scanned.
    return (url for text in texts if "://" in text for url in find_urls(text))


def _is_clean_text(text: str) -> bool:
    return bool(text) and text == text.strip() and _is_clean_signature(text)


def _is_clean_url(text: str) -> bool:
    if not _is_clean_text(text):
        return False
    try:
        parts = urlsplit(text)
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.netloc)


def _counted(
    kind: str, texts: Iterable[str], source: str, keep: Optional[Callable[[str], bool]] = None
) -> list[Candidate]:
    """One candidate per distinct text, or per distinct kept one, in first-seen order, with its
    count: the per-entry rule the tests render their reference candidates by."""
    counts = Counter(texts).items()
    if keep is not None:
        counts = [(text, count) for text, count in counts if keep(text)]
    return [_tuple_new(Candidate, (kind, text, source, count)) for text, count in counts]


def package_of(class_name: str) -> Optional[str]:
    """Dotted package prefix of a class name, or None for the default package."""
    head, sep, _ = class_name.rpartition(".")
    return head if sep else None


def _api_texts(symbols: DexSymbols, whitelist: Optional[Whitelist]) -> Iterator[str]:
    """``ApiSignature.render`` of every method_ids row that is clean and whose class
    ``whitelist`` keeps, in row order: a ``"<class: "`` per type, a ``"ret "`` and a
    ``"(params)>"`` per proto, so a method costs one concatenation with its name.

    A concatenation holds no control character exactly when none of its pieces does, so
    each type, proto and string is checked once, and a row with an unclean piece is skipped
    unrendered, as is a row of a class ``whitelist`` drops.
    """
    clean = _is_clean_signature
    heads = ["<" + t + ": " if clean(t) else None for t in symbols.types]
    if whitelist is not None:
        heads = [None if head is None or whitelist.drops_api_head(head.partition(":")[0]) else head for head in heads]
    rets = [ret + " " for ret, _ in symbols.protos]
    tails = ["(" + ",".join(params) + ")>" for _, params in symbols.protos]
    tails = [tail if clean(ret + tail) else None for ret, tail in zip(rets, tails)]
    names = [name if clean(name) else None for name in symbols.strings]
    return (
        f"{head}{rets[proto]}{name}{tail}"
        for cls, proto, string in zip(symbols.method_classes, symbols.method_protos, symbols.method_names)
        if (head := heads[cls]) is not None and (tail := tails[proto]) is not None and (name := names[string]) is not None
    )


def candidates_from_symbols(
    symbols: DexSymbols, source: str, whitelist: Optional[Whitelist] = None
) -> CandidateColumns:
    """Candidates from one parsed .dex file: packages, API signatures, URL strings,
    each kind's rows in first-seen order. ``extract_candidates`` is the same tally
    over every entry of an app, ordered by text.

    A method whose class ``whitelist`` drops, or whose signature would not be clean, is
    skipped before its text is built.
    """
    return _Tally(extracted=True).add_dex(symbols, source, whitelist).columns(ordered=False)


def _native_urls(data: bytes, source: str) -> Iterator[str]:
    scan = scan_elf_strings(data)
    for warning in scan.warnings:
        log.warning("%s: %s", source or "<elf>", warning)
    return _urls_in(scan.runs)


def extract_native_candidates(data: bytes, source: str = "") -> CandidateColumns:
    """Endpoint URL candidates from one ELF shared object, in first-seen order.

    Raises BadElfMagic for non-ELF input. Corrupt sections only produce
    warnings inside the scan, never a failure.
    """
    urls = _native_urls(data, source)
    return _Tally(extracted=True).add(CandidateKind.HTTPS_REQUEST, urls, source).columns(ordered=False)


def load_model_suffixes(path: Union[str, Path, None] = None) -> tuple[str, ...]:
    """Model-file suffix list: one suffix per line, '#' comments, UTF-8.

    Without a path, the packaged default list is used.
    """
    entries = parse_list(read_list("model_suffixes.txt", path))
    return tuple(dict.fromkeys(e if e.startswith(".") else "." + e for e in entries))


def extract_asset_candidates(
    entry_names: Iterable[str],
    model_suffixes: Optional[tuple[str, ...]] = None,
) -> list[Candidate]:
    """ModelAsset candidates among asset entries, by file suffix.

    A ".bin" asset only counts when a sibling in the same directory carries a
    recognized model suffix (paired weight/graph layouts). Non-model assets
    surface only in the odd case that their name embeds a URL, as Other.
    """
    suffixes = model_suffixes if model_suffixes is not None else load_model_suffixes()
    assets = [n for n in entry_names if n.startswith("assets/")]

    model_dirs = {n.rsplit("/", 1)[0] for n in assets if n.lower().endswith(suffixes)}
    out: list[Candidate] = []
    for name in assets:
        lower = name.lower()
        if lower.endswith(suffixes):
            out.append(Candidate(CandidateKind.MODEL_ASSET, name, name))
        elif lower.endswith(".bin") and name.rsplit("/", 1)[0] in model_dirs:
            out.append(Candidate(CandidateKind.MODEL_ASSET, name, name))
        elif find_urls(name):
            out.append(Candidate(CandidateKind.OTHER, name, name))
    return out


def _segments(dotted: str) -> list[str]:
    return [s for s in dotted.split(".") if s]


def measure_obfuscation(class_names: Iterable[str]) -> ObfuscationStats:
    """Ratio of shortened class file names and package directory names.

    A class file name counts as obfuscated when its final segment is at most
    two characters. A package path counts when it has three or more segments
    and every segment past the first two is at most two characters.
    """
    distinct_classes = sorted(set(class_names))
    if not distinct_classes:
        return ObfuscationStats()

    obfuscated_files = 0
    packages: set[str] = set()
    for name in distinct_classes:
        segs = _segments(name)
        if not segs:
            continue
        if len(segs[-1]) <= OBFUSCATED_SEGMENT_LEN:
            obfuscated_files += 1
        pkg = package_of(name)
        if pkg:
            packages.add(pkg)

    obfuscated_dirs = 0
    for pkg in packages:
        segs = _segments(pkg)
        if len(segs) >= 3 and all(len(s) <= OBFUSCATED_SEGMENT_LEN for s in segs[2:]):
            obfuscated_dirs += 1

    return ObfuscationStats(
        file_name_ratio=obfuscated_files / len(distinct_classes),
        dir_name_ratio=obfuscated_dirs / len(packages) if packages else 0.0,
        total_classes=len(distinct_classes),
    )


def _lowercase_keys(signatures: list[str]) -> bool:
    """Whether ``normalize_text(text) == text.lower()`` for each of these rendered, clean
    signatures: so when each is ASCII and holds only its two separator spaces, each single.
    Clean ASCII text holds no whitespace but the space, and a signature starts with ``<``
    and ends with ``>``, so it then splits into exactly the words its spaces part."""
    return (
        all(map(str.isascii, signatures))
        and sum(map(str.count, signatures, repeat(" "))) == 2 * len(signatures)
        and not any(map(str.__contains__, signatures, repeat("  ")))
    )


# What extraction keeps of the texts it counts; other kinds are clean as extracted.
_KEEP = {CandidateKind.PACKAGE: _is_clean_text, CandidateKind.HTTPS_REQUEST: _is_clean_url}


class _Tally:
    """Texts counted per kind, one ``Counter`` per kind in first-seen order, with the
    source of the group that first held each text: ``CandidateColumns`` before ordering.

    An ``extracted`` tally is fed by the extractors: it keeps a Package or URL text only
    when clean, and its API texts are rendered signatures.
    """

    def __init__(self, extracted: bool):
        self.extracted = extracted
        self.counts: dict[str, Counter] = {kind: Counter() for kind in CandidateKind.ALL}
        # Per kind, the source of each of its texts, in the Counter's order.
        self.sources: dict[str, list[str]] = {kind: [] for kind in CandidateKind.ALL}

    def add(self, kind: str, texts: Union[Iterable[str], Mapping[str, int]], source: str) -> "_Tally":
        """Count ``texts`` (or add a mapping's counts) from one group."""
        counts = self.counts.setdefault(kind, Counter())
        known = len(counts)
        counts.update(texts)
        self.sources.setdefault(kind, []).extend(repeat(source, len(counts) - known))
        return self

    def add_dex(self, symbols: DexSymbols, source: str, whitelist: Optional[Whitelist]) -> "_Tally":
        self.add(CandidateKind.PACKAGE, filter(None, map(package_of, symbols.class_names)), source)
        self.add(CandidateKind.API, _api_texts(symbols, whitelist), source)
        return self.add(CandidateKind.HTTPS_REQUEST, _urls_in(symbols.strings), source)

    def add_rows(self, candidates: Iterable[Candidate]) -> "_Tally":
        for cand in candidates:
            self.add(cand.kind, {cand.text: cand.occurrences}, cand.source)
        return self

    def columns(self, ordered: bool) -> CandidateColumns:
        """Every kind's rows, kinds in ``CandidateKind.ALL`` order and then as first met;
        within a kind, by text when ``ordered``, else in first-seen order."""
        kinds: list[str] = []
        texts: list[str] = []
        sources: list[str] = []
        occurrences: list[int] = []
        lower_rows = range(0)
        for kind, counts in self.counts.items():
            block, block_sources = list(counts), self.sources[kind]
            keep = _KEEP.get(kind) if self.extracted else None
            if keep is not None:
                kept = list(map(keep, block))
                block, block_sources = list(compress(block, kept)), list(compress(block_sources, kept))
            if ordered:
                first_source = dict(zip(block, block_sources))
                block.sort()
                block_sources = list(map(first_source.__getitem__, block))
            if kind == CandidateKind.API and self.extracted and _lowercase_keys(block):
                lower_rows = range(len(texts), len(texts) + len(block))
            kinds += repeat(kind, len(block))
            texts += block
            sources += block_sources
            occurrences += map(counts.__getitem__, block)
        return CandidateColumns(kinds, texts, sources, occurrences, lower_rows)


def merge_candidates(groups: Iterable[Iterable[Candidate]]) -> CandidateColumns:
    """Union per-entry candidate lists: sum occurrences, keep first source,
    order by kind (``CandidateKind.ALL`` order) and then by text. No input is
    mutated."""
    tally = _Tally(extracted=False)
    for group in groups:
        tally.add_rows(group)
    return tally.columns(ordered=True)


def extract_candidates(
    archive: ApkArchive,
    app_id: str,
    model_suffixes: Optional[tuple[str, ...]] = None,
    whitelist: Optional[Whitelist] = None,
) -> CandidateSet:
    """Run every extractor over one opened APK and merge the results.

    A missing .dex is a warning, not a failure: native and asset extraction
    still run. Unparseable .dex or .so entries are skipped with a warning.
    With a ``whitelist``, the methods of each class it drops are skipped
    unrendered and the set records it as its ``api_whitelist``, so that
    ``apply_whitelist`` with an equal one decides only the Package candidates.
    """
    warnings: list[str] = []
    tally = _Tally(extracted=True)
    defined_classes: list[str] = []

    dex_entries = archive.entries_of_kind(EntryKind.DEX_FILE)
    if not dex_entries:
        warnings.append("NoDexFound: archive has no classes*.dex entry")
    for entry in dex_entries:
        try:
            symbols = parse_dex(archive.read_bytes(entry))
        except Exception as exc:  # noqa: BLE001 - per-entry isolation
            warnings.append(f"{entry.name}: dex parse failed ({exc})")
            continue
        tally.add_dex(symbols, entry.name, whitelist)
        defined_classes.extend(symbols.defined_class_names)

    for entry in archive.entries_of_kind(EntryKind.NATIVE_LIB):
        try:
            urls = _native_urls(archive.read_bytes(entry), entry.name)
        except Exception as exc:  # noqa: BLE001
            warnings.append(f"{entry.name}: native scan failed ({exc})")
            continue
        tally.add(CandidateKind.HTTPS_REQUEST, urls, entry.name)

    asset_names = [e.name for e in archive.entries_of_kind(EntryKind.ASSET)]
    tally.add_rows(extract_asset_candidates(asset_names, model_suffixes))

    return CandidateSet(
        app_id=app_id,
        candidates=tally.columns(ordered=True),
        obfuscation=measure_obfuscation(defined_classes),
        warnings=warnings,
        api_whitelist=whitelist,
    )
