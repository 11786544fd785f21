"""Append-only verdict store shared across apps and runs.

One JSONL log holds both the AI side (verdict, capability analysis, taxonomy
labels) and the non-AI side; separation is logical, keyed by verdict. Replay
is last-write-wins per key, so a revised verdict simply appends.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO, Callable, NamedTuple, Optional, Union

from .gateway import MalformedJson, summary_payload

log = logging.getLogger(__name__)

VERDICT_AI = "AI"
VERDICT_NON_AI = "NonAI"


def normalize_text(text: str) -> str:
    """Lowercase and collapse runs of whitespace; idempotent.

    ``str.split()`` splits on the same code points as the regex ``\\s+``.
    """
    return " ".join(text.lower().split())


def utc_now() -> datetime:
    return datetime.now(timezone.utc)


class KbKey(NamedTuple):
    """Candidate identity across apps: kind plus normalized text.

    A tuple, so hashing and equality on every lookup run in C.
    """

    kind: str
    normalized_text: str

    @classmethod
    def make(cls, kind: str, text: str) -> "KbKey":
        return cls(kind=kind, normalized_text=normalize_text(text))


@dataclass(frozen=True)
class KbRecord:
    """One persisted verdict with optional analysis and taxonomy labels."""

    key: KbKey
    verdict: str
    analysis: Optional[str] = None
    domain: Optional[str] = None
    task: Optional[str] = None
    model_id: str = "unknown"
    created_at: Optional[datetime] = None

    def validate(self) -> None:
        if self.verdict not in (VERDICT_AI, VERDICT_NON_AI):
            raise ValueError(f"verdict must be AI or NonAI, got {self.verdict!r}")
        if self.verdict == VERDICT_AI and not (self.analysis or "").strip():
            raise ValueError("AI records require a non-empty analysis")
        if self.verdict == VERDICT_NON_AI and (self.domain or self.task):
            raise ValueError("NonAI records must not carry domain/task labels")

    def to_line(self) -> str:
        payload = {
            "kind": self.key.kind,
            "text": self.key.normalized_text,
            "verdict": self.verdict,
            "analysis": self.analysis,
            "domain": self.domain,
            "task": self.task,
            "model_id": self.model_id,
            "created_at": (self.created_at or utc_now()).isoformat(),
        }
        return json.dumps(payload, ensure_ascii=False, sort_keys=True)

    @classmethod
    def from_line(cls, line: str) -> "KbRecord":
        payload = json.loads(line)
        for name in ("kind", "text", "verdict", "created_at"):
            if not isinstance(payload[name], str):
                raise ValueError(f"{name} must be a string")
        for name in ("analysis", "domain", "task", "model_id"):
            if not isinstance(payload.get(name), (str, type(None))):
                raise ValueError(f"{name} must be a string or null")
        record = cls(
            key=KbKey(kind=payload["kind"], normalized_text=payload["text"]),
            verdict=payload["verdict"],
            analysis=payload.get("analysis"),
            domain=payload.get("domain"),
            task=payload.get("task"),
            model_id=payload.get("model_id", "unknown"),
            created_at=datetime.fromisoformat(payload["created_at"]),
        )
        record.validate()
        return record


class JsonlLog:
    """Keyed, append-only JSONL file shared by the KB and the summary cache.

    Replay is last-write-wins per key; lines that fail to decode are skipped
    with a warning and counted, never fatal. The append handle opens on the
    first append and stays open until :meth:`close`; if the file then ends in
    a torn line, a newline is written first so the next line starts fresh.
    Each append is one ``write()`` and a ``flush()`` under a lock, so
    concurrent workers can share a single instance. On storage failure the
    entry stays visible in memory and the log flips to degraded mode rather
    than failing the caller.
    """

    def __init__(self, path: Union[str, Path, None]):
        self.path = Path(path) if path is not None else None
        self.records: dict = {}
        self.corrupt_lines = 0
        self.degraded = False
        self._lock = threading.Lock()
        self._fh: Optional[BinaryIO] = None

    def replay(self, decode: Callable[[str], tuple]) -> None:
        """Load ``(key, value) = decode(line)`` for every line; a missing file is empty."""
        if self.path is None or not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    key, value = decode(line)
                except (KeyError, TypeError, ValueError) as exc:
                    self.corrupt_lines += 1
                    log.warning("%s:%d: skipping corrupt line (%s)", self.path, lineno, exc)
                    continue
                self.records[key] = value

    def _open(self) -> BinaryIO:
        fh = open(self.path, "a+b")  # positioned at the end
        if fh.tell() > 0:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                fh.write(b"\n")  # goes out with the first line
        return fh

    def _put(self, key, value, line: str) -> None:
        with self._lock:
            self.records[key] = value
            if self.path is None:
                return
            try:
                if self._fh is None:
                    self._fh = self._open()
                self._fh.write((line + "\n").encode("utf-8"))
                self._fh.flush()
            except OSError as exc:
                self.degraded = True
                log.warning("%s: append failed, continuing in memory: %s", self.path, exc)
                self._close()

    def _close(self) -> None:
        if self._fh is not None:
            fh, self._fh = self._fh, None
            try:
                fh.close()
            except OSError:
                pass

    def close(self) -> None:
        """Close the append handle; a later append opens it again."""
        with self._lock:
            self._close()


class KnowledgeBase(JsonlLog):
    """Replayed view of the record log plus a serialized append channel."""

    def __init__(self, path: Union[str, Path, None] = None, clock: Callable[[], datetime] = utc_now):
        super().__init__(path)
        self.clock = clock

    def lookup(self, key: KbKey) -> Optional[KbRecord]:
        """Latest record for a key, or None. Never touches any backend."""
        return self.records.get(key)

    def insert(self, record: KbRecord) -> KbRecord:
        """Validate, stamp, append durably, and make visible to lookup."""
        record.validate()
        if record.created_at is None:
            record = replace(record, created_at=self.clock())
        self._put(record.key, record, record.to_line())
        return record


def _kb_entry(line: str) -> tuple[KbKey, KbRecord]:
    record = KbRecord.from_line(line)
    return record.key, record


def kb_sync(path: Union[str, Path, None], clock: Callable[[], datetime] = utc_now) -> KnowledgeBase:
    """Load a knowledge base by replaying its log; create the file lazily.

    A None path yields a purely in-memory store.
    """
    kb = KnowledgeBase(path, clock)
    kb.replay(_kb_entry)
    return kb


def _summary_entry(line: str) -> tuple[str, dict]:
    payload = json.loads(line)
    if not isinstance(payload["digest"], str):
        raise ValueError("digest must be a string")
    try:
        return payload["digest"], summary_payload(payload["value"])
    except MalformedJson as exc:
        raise ValueError(str(exc)) from exc


class SummaryCache(JsonlLog):
    """Sidecar JSONL cache for app-level summary generations, replayed on construction.

    Keyed by an input digest so a changed component set always regenerates.
    """

    def __init__(self, path: Union[str, Path, None]):
        super().__init__(path)
        self.replay(_summary_entry)

    def get(self, digest: str) -> Optional[dict]:
        return self.records.get(digest)

    def put(self, digest: str, value: dict) -> None:
        self._put(digest, value, json.dumps({"digest": digest, "value": value}, sort_keys=True))
