"""List files with one entry per line: whitelist, keywords and model suffixes."""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import Union

from .utf8 import NOT_UTF8, holds_surrogate


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


def parse_list(text: str) -> tuple[str, ...]:
    """Lowercased entries in first-seen order.

    '#' starts a comment; blank lines and repeats are dropped.
    """
    entries: list[str] = []
    for line in text.splitlines():
        entry = line.split("#", 1)[0].strip().lower()
        if entry:
            entries.append(entry)
    return tuple(dict.fromkeys(entries))
