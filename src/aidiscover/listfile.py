"""List files with one entry per line: whitelist, keywords and model suffixes."""

from __future__ import annotations

import re
from importlib import resources
from pathlib import Path
from typing import Union

from .utf8 import NOT_UTF8, holds_surrogate

_VERSION_COMMENT = re.compile(r"^#\s*version\s*:\s*(\S+)", re.IGNORECASE)


def read_list(name: str, path: Union[str, Path, None] = None) -> str:
    """UTF-8 text of the file at ``path``, or of the packaged ``data/<name>`` without one.

    A byte that is not UTF-8 raises ValueError naming ``path:line``.
    """
    if path is None:
        return resources.files("aidiscover.data").joinpath(name).read_text("utf-8")
    text = Path(path).read_text("utf-8", errors="surrogateescape")
    for lineno, line in enumerate(text.split("\n"), start=1):
        if holds_surrogate(line):
            raise ValueError(f"{path}:{lineno}: {NOT_UTF8}")
    return text


def parse_list(text: str) -> tuple[tuple[str, ...], str]:
    """Lowercased entries in first-seen order, and the ``# version:`` header.

    '#' starts a comment; blank lines and repeats are dropped. The version is
    "0" when the file has no header.
    """
    version = "0"
    entries: list[str] = []
    for line in text.splitlines():
        header = _VERSION_COMMENT.match(line.strip())
        if header:
            version = header.group(1)
        entry = line.split("#", 1)[0].strip().lower()
        if entry:
            entries.append(entry)
    return tuple(dict.fromkeys(entries)), version
