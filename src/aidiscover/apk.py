"""APK container reading: entry enumeration and released-APK layout classification."""

from __future__ import annotations

import re
import zipfile
import zlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Union

try:
    from lzma import LZMAError
except ImportError:  # without lzma, zipfile refuses LZMA entries with RuntimeError
    LZMAError = RuntimeError


class ApkError(Exception):
    """Base class for APK container failures."""


class NotAZip(ApkError):
    """The file does not begin with a ZIP magic number."""


class CorruptCentralDirectory(ApkError):
    """The ZIP central directory is unreadable or carries hostile entry names."""


class EntryKind(Enum):
    DEX_FILE = "DexFile"
    NATIVE_LIB = "NativeLib"
    ASSET = "Asset"
    MANIFEST = "Manifest"
    RESOURCE = "Resource"
    META_INFO = "MetaInfo"
    OTHER = "Other"


# classes.dex plus classesN.dex for N in 2..999 (multi-dex), root level only.
_DEX_NAME = re.compile(r"^classes(?:[2-9]|[1-9][0-9]{1,2})?\.dex$")

# Local file header, end-of-central-directory (empty archive), or spanned marker.
_ZIP_MAGICS = (b"PK\x03\x04", b"PK\x05\x06", b"PK\x07\x08")

# What zipfile raises on hostile headers or entry bodies: unsupported versions
# and methods, encryption flags, undecodable names, bad offsets (a negative
# seek is EINVAL) and corrupt or truncated compressed streams.
_ZIP_ERRORS = (
    zipfile.BadZipFile,
    NotImplementedError,
    RuntimeError,
    UnicodeDecodeError,
    OSError,
    EOFError,
    zlib.error,
    LZMAError,
)

# Largest entry body read_bytes inflates: a few hundred KB of deflate stream
# can inflate to gigabytes.
MAX_ENTRY_BYTES = 128 * 1024 * 1024


def classify_entry(name: str) -> EntryKind:
    """Map an archive-relative entry name onto the released-APK layout.

    Total and pure: every non-empty name gets exactly one kind.
    """
    if _DEX_NAME.match(name):
        return EntryKind.DEX_FILE
    if name.startswith("lib/") and name.endswith(".so"):
        return EntryKind.NATIVE_LIB
    if name.startswith("assets/"):
        return EntryKind.ASSET
    if name == "AndroidManifest.xml":
        return EntryKind.MANIFEST
    if name == "resources.arsc" or name.startswith("res/"):
        return EntryKind.RESOURCE
    if name.startswith("META-INF/"):
        return EntryKind.META_INFO
    return EntryKind.OTHER


@dataclass(frozen=True)
class ApkEntry:
    """One archive member: name, classified kind, and declared size."""

    name: str
    kind: EntryKind
    size_bytes: int


class ApkArchive:
    """An opened APK with entries enumerated in central-directory order.

    Entry bodies are read lazily through :meth:`read_bytes`. One archive is
    meant for one logical thread at a time; distinct archives are independent.
    """

    def __init__(self, entries: list[ApkEntry], zf: zipfile.ZipFile):
        self.entries = entries
        self._zf = zf

    def entries_of_kind(self, kind: EntryKind) -> list[ApkEntry]:
        return [e for e in self.entries if e.kind is kind]

    def read_bytes(self, entry: Union[ApkEntry, str]) -> bytes:
        """Decompress and return one entry body, at most MAX_ENTRY_BYTES long.

        Raises:
            CorruptCentralDirectory: the entry is missing, its header or
                compressed body is corrupt or unsupported, or its declared or
                inflated size exceeds MAX_ENTRY_BYTES.
        """
        name = entry.name if isinstance(entry, ApkEntry) else entry
        try:
            info = self._zf.getinfo(name)
            if info.file_size > MAX_ENTRY_BYTES:
                raise CorruptCentralDirectory(
                    f"entry {name!r} declares {info.file_size} bytes, over the {MAX_ENTRY_BYTES}-byte cap"
                )
            with self._zf.open(info) as fh:
                data = fh.read(MAX_ENTRY_BYTES + 1)
        except (KeyError, *_ZIP_ERRORS) as exc:
            raise CorruptCentralDirectory(f"cannot read entry {name!r}: {exc}") from exc
        if len(data) > MAX_ENTRY_BYTES:
            raise CorruptCentralDirectory(f"entry {name!r} inflates past the {MAX_ENTRY_BYTES}-byte cap")
        return data

    def close(self) -> None:
        self._zf.close()

    def __enter__(self) -> "ApkArchive":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __iter__(self) -> Iterator[ApkEntry]:
        return iter(self.entries)


def _check_entry_name(name: str) -> None:
    # The central directory is attacker-controlled; refuse path tricks outright.
    if not name:
        raise CorruptCentralDirectory("empty entry name")
    if "\\" in name:
        raise CorruptCentralDirectory(f"backslash in entry name: {name!r}")
    if name.startswith("/") or re.match(r"^[A-Za-z]:", name):
        raise CorruptCentralDirectory(f"absolute entry name: {name!r}")
    if "\x00" in name:
        raise CorruptCentralDirectory(f"NUL byte in entry name: {name!r}")


def open_apk(path: Union[str, Path]) -> ApkArchive:
    """Open an APK file and enumerate its entries from the central directory.

    Raises:
        NotAZip: the file lacks a ZIP magic number.
        CorruptCentralDirectory: the central directory cannot be parsed or
            contains duplicate or hostile entry names.
        OSError: the file cannot be opened (FileNotFoundError if missing).

    An APK without any .dex entry is NOT an error here; callers decide how to
    treat it.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic[:4] not in _ZIP_MAGICS:
        raise NotAZip(f"{path}: no ZIP magic")

    try:
        zf = zipfile.ZipFile(path, mode="r")
    except _ZIP_ERRORS as exc:
        raise CorruptCentralDirectory(f"{path}: {exc}") from exc

    entries: list[ApkEntry] = []
    seen: set[str] = set()
    try:
        for info in zf.infolist():
            if info.filename.endswith("/"):
                continue  # directory placeholder, no payload
            _check_entry_name(info.filename)
            if info.filename in seen:
                raise CorruptCentralDirectory(f"duplicate entry name: {info.filename!r}")
            seen.add(info.filename)
            entries.append(
                ApkEntry(
                    name=info.filename,
                    kind=classify_entry(info.filename),
                    size_bytes=info.file_size,
                )
            )
    except BaseException:
        zf.close()
        raise
    return ApkArchive(entries=entries, zf=zf)
