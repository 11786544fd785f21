"""Append-only verdict store shared across apps and runs.

One JSONL log holds both the AI side (verdict, capability analysis, taxonomy
labels) and the non-AI side; separation is logical, keyed by verdict. Replay
is last-write-wins per key, so a revised verdict simply appends. Within one
run, :class:`InputOrder` resolves each key once across apps and keeps the
writes in input order.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import logging
import os
import threading
from datetime import datetime, timezone
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, NamedTuple, Optional, Union

from .gateway import MalformedJson, summary_payload
from .utf8 import NOT_UTF8, decodes_to_surrogate, loads, numbered_lines

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
        # normalize_text, inline as this runs once per candidate; tuple.__new__ as in KbRecord.from_line.
        return _tuple_new(cls, (kind, " ".join(text.lower().split())))


# The bytes of ``json.dumps(..., ensure_ascii=False, sort_keys=True)``
# without building an encoder per line.
_encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
_raw_decode = json.JSONDecoder().raw_decode
_tuple_new = tuple.__new__
_STR_OR_NONE = frozenset({str, type(None)})


class KbRecord(NamedTuple):
    """One persisted verdict with optional analysis and taxonomy labels.

    A tuple, so a replayed KB holds one small object per line rather than an
    instance with its own ``__dict__``.
    """

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
        return _encode({
            "kind": self.key.kind,
            "text": self.key.normalized_text,
            "verdict": self.verdict,
            "analysis": self.analysis,
            "domain": self.domain,
            "task": self.task,
            "model_id": self.model_id,
            "created_at": (self.created_at or utc_now()).isoformat(),
        })

    @classmethod
    def from_line(cls, line: str, shared: Optional[dict] = None) -> "KbRecord":
        """Decode and validate one log line, stripped as replay passes it.

        Anything after the JSON value makes the line invalid, as it does for
        ``json.loads``. ``shared`` maps each closed-set value (kind, verdict,
        model, labels) to one string object, so records replayed with the same
        dict share them; text and analysis are per component and never shared.
        """
        payload, end = _raw_decode(line)
        if end != len(line):
            raise ValueError("extra data after the record")
        # Only a backslash or a non-ASCII character can make a surrogate; the
        # test is inline because it runs on every replayed line.
        if ("\\" in line or not line.isascii()) and decodes_to_surrogate(line, payload):
            raise ValueError(NOT_UTF8)
        kind, text, verdict = payload["kind"], payload["text"], payload["verdict"]
        created_at = payload["created_at"]
        analysis, domain, task = payload.get("analysis"), payload.get("domain"), payload.get("task")
        model_id = payload.get("model_id", "unknown")
        # Every field type in one test, since this runs per line; the loops only
        # name the field that fails. Then the checks of validate(), inline.
        if not (
            type(kind) is type(text) is type(verdict) is type(created_at) is str
            and _STR_OR_NONE.issuperset((type(analysis), type(domain), type(task), type(model_id)))
        ):
            for name, value in (("kind", kind), ("text", text), ("verdict", verdict), ("created_at", created_at)):
                if not isinstance(value, str):
                    raise ValueError(f"{name} must be a string")
            for name, value in (("analysis", analysis), ("domain", domain), ("task", task), ("model_id", model_id)):
                if not isinstance(value, (str, type(None))):
                    raise ValueError(f"{name} must be a string or null")
        created = datetime.fromisoformat(created_at)
        if verdict == VERDICT_AI:
            if not (analysis or "").strip():
                raise ValueError("AI records require a non-empty analysis")
        elif verdict != VERDICT_NON_AI:
            raise ValueError(f"verdict must be AI or NonAI, got {verdict!r}")
        elif domain or task:
            raise ValueError("NonAI records must not carry domain/task labels")
        share = (shared if shared is not None else {}).setdefault
        # tuple.__new__ with every field in order: the generated __new__ of
        # each NamedTuple would add a Python call per line.
        return _tuple_new(cls, (
            _tuple_new(KbKey, (share(kind, kind), text)),
            share(verdict, verdict),
            analysis,
            share(domain, domain),
            share(task, task),
            share(model_id, model_id),
            created,
        ))


class JsonlLog:
    """Keyed, append-only JSONL file shared by the KB and the summary cache.

    ``records`` maps each key to its latest entry, a tuple whose first item
    is the key. Replay is last-write-wins per key; a line that is not UTF-8
    or fails to decode is skipped with a warning and counted, never fatal. The append
    handle opens on the first append and stays open until :meth:`close`; if
    the file then ends in a torn line, a newline is written first so the next
    line starts fresh. Each append is one ``write()`` and a ``flush()`` under
    a lock, so concurrent workers can share a single instance. On storage
    failure the entry stays visible in memory and the log flips to degraded
    mode rather than failing the caller; :meth:`health` reports both.
    """

    def __init__(self, path: Union[str, Path, None]):
        self.path = Path(path) if path is not None else None
        self.records: dict = {}
        self.skipped: list[tuple[int, str]] = []  # (line number, reason) of each corrupt line
        self.degraded = False
        self._lock = threading.Lock()
        self._fh: Optional[BinaryIO] = None

    @property
    def corrupt_lines(self) -> int:
        return len(self.skipped)

    def _skip(self, lineno: int, reason: str) -> None:
        self.skipped.append((lineno, reason))
        log.warning("%s:%d: skipping corrupt line (%s)", self.path, lineno, reason)

    def replay(self, decode: Callable[[str], tuple], fh: Optional[BinaryIO] = None, lineno: int = 0) -> int:
        """Store ``entry = decode(line)`` under its key ``entry[0]``, for every
        line of the log, or of the binary ``fh`` from its position with lines
        numbered after ``lineno``; returns the last line's number. A missing
        file is empty.

        A byte that is not UTF-8 reaches ``decode`` as a lone surrogate, which
        it must refuse, so such a byte, a torn multi-byte tail included, costs
        only its own line, as does JSON nested past the recursion limit.
        """
        if fh is None:
            if self.path is None or not self.path.exists():
                return 0
            with open(self.path, "rb") as fh:
                return self.replay(decode, fh)
        with numbered_lines(fh, lineno + 1) as lines:
            for lineno, line in lines:
                if not line:
                    continue
                try:
                    entry = decode(line)
                except (KeyError, TypeError, ValueError, RecursionError) as exc:
                    self._skip(lineno, str(exc))
                    continue
                self.records[entry[0]] = entry
        return lineno

    def health(self) -> dict:
        """Lines replay skipped, and whether an append has failed since."""
        return {"corrupt_lines": self.corrupt_lines, "append_failed": self.degraded}

    def _open(self) -> BinaryIO:
        fh = open(self.path, "a+b")  # positioned at the end
        if fh.tell() > 0:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                fh.write(b"\n")  # goes out with the first line
                self._wrote(b"\n")
        return fh

    def _wrote(self, data: bytes) -> None:
        """Called under the lock with each piece appended, which ends one line."""

    def _put(self, key, value, line: str) -> None:
        with self._lock:
            self.records[key] = value
            if self.path is None:
                return
            try:
                if self._fh is None:
                    self._fh = self._open()
                data = (line + "\n").encode("utf-8")
                self._fh.write(data)
                self._fh.flush()
                self._wrote(data)
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


SNAPSHOT_FORMAT = 1
_SNAPSHOT_ROWS = 256  # rows per line of snapshot columns
_HASH_BLOCK = io.DEFAULT_BUFFER_SIZE
# Any of these from reading a snapshot means it is not used.
_SNAPSHOT_FAULTS = (OSError, ValueError, TypeError, KeyError, IndexError)
# The closed-set fields of a record, stored as indices into the snapshot's value table.
_CLOSED = itemgetter(1, 3, 4, 5)  # verdict, domain, task, model_id


class _Hashing(io.RawIOBase):
    """A binary file from its position, each byte read fed to ``sha``."""

    def __init__(self, fh: BinaryIO, sha):
        self._fh, self._sha = fh, sha

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._fh.readinto(buffer)
        self._sha.update(buffer[:n])
        return n


class KnowledgeBase(JsonlLog):
    """Replayed view of the record log plus a serialized append channel.

    :meth:`load` takes the records of the log's head from the
    ``<kb>.snapshot`` sidecar when its header's sha256 matches that head, and
    replays only the lines after it. :meth:`close` writes the snapshot again
    when it is stale and the log holds just what this handle replayed and
    appended. ``load_counts`` says which path the load took.
    """

    def __init__(self, path: Union[str, Path, None] = None, clock: Callable[[], datetime] = utc_now):
        super().__init__(path)
        self.clock = clock
        self.snapshot = Path(f"{self.path}.snapshot") if self.path is not None else None
        self.load_counts = {"snapshot_rows": 0, "tail_lines": 0, "snapshot_written": False}
        self._sha = hashlib.sha256()  # of the log bytes replayed and appended
        self._covered = 0  # their length
        self._lines = 0  # the lines they end
        self._stale = False  # close() should write the snapshot

    def load(self) -> None:
        """Replay the log, from where the snapshot ends if it matches; a missing log is empty."""
        if self.path is None or not self.path.exists():
            return
        shared: dict = {}  # one replay shares its closed-set values; see KbRecord.from_line
        with open(self.path, "rb") as fh:
            skipped: list = []
            try:
                self.records, skipped, self._lines, self._sha = self._read_snapshot(fh, shared)
            except _SNAPSHOT_FAULTS as exc:
                log.info("%s: not used, replaying the whole log (%s)", self.snapshot, exc)
                fh.seek(0)
                self._stale = True
            for lineno, reason in skipped:
                self._skip(lineno, reason)
            self.load_counts["snapshot_rows"] = len(self.records)
            start = self._lines
            with io.BufferedReader(_Hashing(fh, self._sha), _HASH_BLOCK) as tail:
                self._lines = self.replay(functools.partial(KbRecord.from_line, shared=shared), tail, start)
            self.load_counts["tail_lines"] = self._lines - start
            self._covered = fh.tell()
            if self._covered:
                fh.seek(self._covered - 1)
                if fh.read(1) != b"\n":  # a torn last line: no snapshot until an append ends it
                    self._lines -= 1
                    self._stale = False

    def _read_snapshot(self, fh: BinaryIO, shared: dict) -> tuple:
        """Records, skipped lines, line count and running sha256 of the log head
        the snapshot covers, read up to its end from ``fh``; raises one of
        ``_SNAPSHOT_FAULTS`` if the snapshot is missing, malformed or not of this log."""
        with open(self.snapshot, encoding="utf-8") as snap:
            header = loads(snap.readline())
            if header["format"] != SNAPSHOT_FORMAT:
                raise ValueError(f"unknown snapshot format {header['format']!r}")
            covers, lines, rows, values = header["covers"], header["lines"], header["rows"], header["values"]
            skipped = [tuple(entry) for entry in header["skipped"]]
            if not (
                type(covers) is type(lines) is type(rows) is int
                and set(map(type, values)) <= _STR_OR_NONE
                and all(len(e) == 2 and type(e[0]) is int and type(e[1]) is str for e in skipped)
            ):
                raise ValueError("malformed snapshot header")
            sha, left = hashlib.sha256(), covers
            while left > 0:
                block = fh.read(min(left, _HASH_BLOCK))
                if not block:
                    raise ValueError("the log is shorter than the snapshot covers")
                sha.update(block)
                left -= len(block)
            if sha.hexdigest() != header["sha256"]:
                raise ValueError("the log's head is not the one the snapshot covers")
            value = [shared.setdefault(v, v) for v in values].__getitem__
            records: dict = {}
            for line in snap:
                kinds, texts, verdicts, analyses, domains, tasks, models, created = columns = loads(line)
                if not (
                    set(map(type, columns)) == {list}
                    and len(set(map(len, columns))) == 1
                    and set(map(type, texts)) <= {str}
                    and set(map(type, analyses)) <= _STR_OR_NONE
                    and min(chain(kinds, verdicts, domains, tasks, models), default=0) >= 0
                ):
                    raise ValueError("malformed snapshot columns")
                keys = list(map(_tuple_new, repeat(KbKey), zip(map(value, kinds), texts)))
                records.update(zip(keys, map(_tuple_new, repeat(KbRecord), zip(
                    keys, map(value, verdicts), analyses, map(value, domains), map(value, tasks),
                    map(value, models), map(datetime.fromisoformat, created),
                ))))
            if len(records) != rows:
                raise ValueError("the snapshot's rows are not the count its header gives")
        return records, skipped, lines, sha

    def _wrote(self, data: bytes) -> None:
        self._sha.update(data)
        self._covered += len(data)
        self._lines += 1
        self._stale = True

    def close(self) -> None:
        """Close the append handle, and write the snapshot if it is stale and the
        log holds only the bytes this handle replayed and appended; a failed
        write costs a warning. A later append opens the handle again."""
        with self._lock:
            self._close()
            if not (self._stale and self._covered) or self.degraded:
                return
            # The log holds every record; the snapshot only speeds up loading.
            try:
                if os.path.getsize(self.path) == self._covered:
                    self._write_snapshot()
                    self._stale = False
                    self.load_counts["snapshot_written"] = True
            except (OSError, ValueError, TypeError) as exc:
                log.warning("%s: not written: %s", self.snapshot, exc)

    def _write_snapshot(self) -> None:
        """Write the snapshot of every record to a temporary file, then move it into place.

        Rows go out a column piece at a time, with no list of every record:
        a list that large would be a fresh mapping on top of the run's peak."""
        records = self.records.values()
        kinds = map(itemgetter(0), map(itemgetter(0), records))
        index = {v: i for i, v in enumerate(dict.fromkeys(chain(kinds, chain.from_iterable(map(_CLOSED, records)))))}
        at, rows = index.__getitem__, iter(records)
        tmp = Path(f"{self.snapshot}.{os.getpid()}.tmp")
        try:
            with open(tmp, "x", encoding="utf-8") as out:
                out.write(_encode({
                    "format": SNAPSHOT_FORMAT,
                    "covers": self._covered,
                    "lines": self._lines,
                    "sha256": self._sha.hexdigest(),
                    "rows": len(records),
                    "values": list(index),
                    "skipped": self.skipped,
                }) + "\n")
                while piece := list(islice(rows, _SNAPSHOT_ROWS)):
                    # A column at a time: zip(*piece) would hold one tracked iterator per row.
                    keys, verdicts, analyses, domains, tasks, models, created = (
                        list(map(itemgetter(k), piece)) for k in range(7)
                    )
                    out.write(_encode([
                        list(map(at, map(itemgetter(0), keys))), list(map(itemgetter(1), keys)), list(map(at, verdicts)),
                        analyses, list(map(at, domains)), list(map(at, tasks)), list(map(at, models)),
                        list(map(datetime.isoformat, created)),
                    ]) + "\n")
            os.replace(tmp, self.snapshot)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def lookup(self, key: KbKey) -> Optional[KbRecord]:
        """Latest record for a key, or None. Never touches any backend."""
        return self.records.get(key)

    def insert(self, record: KbRecord) -> KbRecord:
        """Validate, stamp, append durably, and make visible to lookup."""
        record.validate()
        if record.created_at is None:
            record = record._replace(created_at=self.clock())
        self._put(record.key, record, record.to_line())
        return record


def kb_sync(path: Union[str, Path, None], clock: Callable[[], datetime] = utc_now) -> KnowledgeBase:
    """Load a knowledge base from its log and snapshot; create the file lazily.

    A None path yields a purely in-memory store.
    """
    kb = KnowledgeBase(path, clock)
    kb.load()
    return kb


def _summary_entry(line: str) -> tuple[str, dict]:
    payload = loads(line)
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
        entry = self.records.get(digest)
        return entry[1] if entry is not None else None

    def put(self, digest: str, value: dict) -> None:
        line = json.dumps({"digest": digest, "value": value}, sort_keys=True)
        self._put(digest, (digest, value), line)


class InputOrder:
    """Single flight for KB keys across the apps of one run, in input order.

    Apps are ranked by input position, and each acts through its
    :class:`AppTurn`. Right after its KB lookup an app takes its claim turn,
    once every earlier app has taken or skipped its own. Its writes (KB lines
    and summary-cache line) run in input order too, but no app waits for
    that: they run on its own thread once every earlier app's have, or else
    on the thread that runs the last of those. An app waits for a key only
    on the earlier app that claimed it, so no app waits on a later one, and
    an app that claims no key never waits at all.
    """

    def __init__(self, apps: int):
        self._cond = threading.Condition()
        self._claimed = [False] * apps
        self._claimed_upto = 0  # every app below this rank has taken its claim turn
        self._holders: dict[KbKey, AppTurn] = {}  # latest claimant not yet committed
        self._writes: dict[int, tuple[AppTurn, Callable[[], None]]] = {}  # handed over, not yet run
        self._committed_upto = 0  # every app below this rank has committed
        self._writing = False  # a thread is running handed-over writes

    def app(self, rank: int) -> "AppTurn":
        return AppTurn(self, rank)

    def _pass_claim(self, rank: int) -> None:
        # Under self._cond.
        self._claimed[rank] = True
        while self._claimed_upto < len(self._claimed) and self._claimed[self._claimed_upto]:
            self._claimed_upto += 1
        self._cond.notify_all()

    def _hand_over(self, turn: "AppTurn", write: Callable[[], None]) -> None:
        """Queue ``turn``'s writes, then run every queued write whose turn has
        come, unless another thread is already doing so. A write that raises
        is kept as its app's ``write_error``; the later writes still run."""
        with self._cond:
            self._writes[turn.rank] = (turn, write)
            if self._writing:
                return
            self._writing = True
        while True:
            with self._cond:
                ready = self._writes.pop(self._committed_upto, None)
                if ready is None:
                    self._writing = False
                    return
            owner, owner_write = ready
            try:
                owner_write()
            except Exception as exc:  # noqa: BLE001 - may be another app's; its caller reports it
                log.error("writes of app %d failed: %s", owner.rank, exc)
                owner.write_error = exc
            with self._cond:
                for key in owner._keys:
                    if self._holders.get(key) is owner:
                        del self._holders[key]
                owner._keys = []  # the caller may keep the turn for the whole run
                self._committed_upto += 1
                self._cond.notify_all()


class AppTurn:
    """One app's place in an :class:`InputOrder`.

    :meth:`claim` makes the app the latest claimant of each key it will write
    and names, per key, the earlier app that still holds it; the claimant
    calls :meth:`wait_committed` on each of those, after which the KB holds
    what they wrote; :meth:`commit` hands over the app's writes. :meth:`finish`
    takes whichever of the claim turn and the commit the app has not taken,
    with no keys and nothing to write, so every exit path of the app must
    reach it; it is idempotent. ``from_earlier_app`` counts the verdicts this
    app took from an earlier app's commit, and ``write_error`` is what its
    writes raised, once they have run.
    """

    def __init__(self, order: InputOrder, rank: int):
        self._order = order
        self.rank = rank
        self.from_earlier_app = 0
        self.write_error: Optional[Exception] = None
        self._keys: list[KbKey] = []
        self._claimed = False
        self._handed_over = False

    @staticmethod
    def alone() -> "AppTurn":
        """The turn of an app that runs by itself: no claim or commit waits."""
        return InputOrder(1).app(0)

    def claim(self, keys: Iterable[KbKey]) -> dict[KbKey, "AppTurn"]:
        """Take the claim turn for ``keys``; no keys passes it without waiting."""
        order, keys = self._order, list(keys)
        with order._cond:
            if keys:
                order._cond.wait_for(lambda: order._claimed_upto >= self.rank)
            earlier = {}
            for key in keys:
                holder = order._holders.get(key)
                if holder is not None:
                    earlier[key] = holder
                order._holders[key] = self
            self._keys = keys
            self._claimed = True
            order._pass_claim(self.rank)
        return earlier

    def wait_committed(self) -> None:
        """Block until this app's writes have run; apps commit in input order."""
        order = self._order
        with order._cond:
            order._cond.wait_for(lambda: order._committed_upto > self.rank)

    def commit(self, write: Callable[[], None]) -> None:
        """Run ``write`` after every earlier app's writes, on this thread or
        on another app's; this returns without waiting for that."""
        if not self._handed_over:
            self._handed_over = True
            self._order._hand_over(self, write)

    def finish(self) -> None:
        """Whatever turn the app has not taken, take with no keys and nothing to write."""
        if not self._claimed:
            self.claim(())
        self.commit(lambda: None)
