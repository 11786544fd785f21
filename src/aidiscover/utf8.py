"""The one rule for text that must round-trip through a UTF-8 file.

A str can hold a lone surrogate code point (U+D800..U+DFFF): a JSON escape
such as ``\\ud800`` decodes to one, and so does a byte that is not UTF-8,
in a POSIX file name or in a file read with ``errors="surrogateescape"``.
No UTF-8 file can hold one (RFC 3629 section 3), so a report, KB line or
summary-cache line built from such text cannot be written. Each input
boundary refuses it: backend replies, replayed log lines, label and
description rows, config and report files, and APK paths.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import contextmanager
from operator import itemgetter

_SURROGATE = re.compile("[\ud800-\udfff]")

NOT_UTF8 = "not UTF-8: a lone surrogate, escaped or from a byte UTF-8 cannot decode"


def holds_surrogate(text: str) -> bool:
    """Whether ``text`` holds a surrogate code point; ASCII text costs one scan."""
    return not text.isascii() and _SURROGATE.search(text) is not None


def decodes_to_surrogate(raw: str, data) -> bool:
    """Whether ``data``, decoded by ``json`` from ``raw``, holds a surrogate.

    Without a backslash, ``raw`` holds no ``\\u`` escape, so the surrogate
    would be in ``raw`` itself; only text with one is encoded again. The
    one-character search is a ``memchr``, several times faster than one for
    ``"\\u"``.
    """
    if "\\" in raw:
        raw = json.dumps(data, ensure_ascii=False)
    return holds_surrogate(raw)


def loads(raw: str):
    """``json.loads(raw)``; a value holding a lone surrogate raises ValueError(NOT_UTF8),
    and one nested past the interpreter's recursion limit ValueError too."""
    try:
        data = json.loads(raw)
        surrogate = decodes_to_surrogate(raw, data)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None
    if surrogate:
        raise ValueError(NOT_UTF8)
    return data


@contextmanager
def numbered_lines(fh, start: int = 1):
    """``(line number, stripped line)`` per line of the binary stream ``fh`` from
    its position, blank lines included, iterated in C. Lines end as in text
    mode (``\\n``, ``\\r\\n`` or ``\\r``), and a byte that is not UTF-8 reaches the
    caller as a lone surrogate of its own line. ``fh`` is left open."""
    text = io.TextIOWrapper(fh, "utf-8", "surrogateescape")
    try:
        yield enumerate(map(str.strip, text), start)
    finally:
        text.detach()


@contextmanager
def jsonl_lines(path):
    """``numbered_lines`` of the file at ``path``, the blank ones left out."""
    with open(path, "rb") as fh, numbered_lines(fh) as lines:
        yield filter(itemgetter(1), lines)
