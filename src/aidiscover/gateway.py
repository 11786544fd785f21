"""Uniform access to a completion backend.

Handles prompt rendering with few-shot examples, fixed-size batching,
structured-output parsing with index alignment, context budgeting, and the
retry ladder: whole-request resends, then singleton fallback, then per-item
failure. Every backend request runs on one pool of worker threads owned by
the gateway, whose size bounds the requests in flight; queued requests are
served earliest app first. Per-task request counters are kept for cache and
ordering tests.
"""

from __future__ import annotations

import bisect
import copy
import heapq
import itertools
import json
import logging
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence, TypeVar

from .utf8 import loads

log = logging.getLogger(__name__)

T = TypeVar("T")


class GatewayError(Exception):
    """Base class for gateway failures."""


class MalformedJson(GatewayError):
    """The backend response could not be parsed into the expected schema."""


class MisalignedOutput(GatewayError):
    """Result count or index set does not match the request items."""


class RateLimited(GatewayError):
    """The backend asked us to slow down."""


class ContextOverflow(GatewayError):
    """Rendered prompt would not fit the context window."""


class BackendUnavailable(GatewayError):
    """The backend cannot be reached or keeps failing."""


class TaskId:
    ANALYZE = "Analyze"
    DETECT = "Detect"
    SUMMARIZE = "Summarize"
    CLASSIFY_TAXONOMY = "ClassifyTaxonomy"
    DESCRIPTION_SCREEN = "DescriptionScreen"

    ARRAY_TASKS = (ANALYZE, DETECT, CLASSIFY_TAXONOMY, DESCRIPTION_SCREEN)


@dataclass(frozen=True)
class SamplingConfig:
    """Backend sampling knobs; defaults favor consistency over creativity."""

    temperature: float = 0.2
    top_p: float = 0.95
    max_context_tokens: int = 4096

    def __post_init__(self):
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature out of range: {self.temperature}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p out of range: {self.top_p}")
        if self.max_context_tokens < 1:
            raise ValueError(f"max_context_tokens must be positive: {self.max_context_tokens}")


@dataclass(frozen=True)
class PromptTemplate:
    """Instruction plus in-context examples for one task."""

    task_id: str
    instruction: str
    few_shot: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.task_id in TaskId.ARRAY_TASKS and len(self.few_shot) < 1:
            raise ValueError(f"{self.task_id} template requires at least one example")


@dataclass
class ItemResult:
    """The parsed payload for the item at this result's position, or None and a per-item failure."""

    payload: Optional[dict]
    error: Optional[str] = None


@dataclass(frozen=True)
class RenderedRequest:
    """What a backend actually sees."""

    task_id: str
    items: tuple[str, ...]
    prompt: str
    sampling: SamplingConfig


class Backend(Protocol):
    """Completion provider; returns raw response text for one request."""

    model_id: str

    def complete(self, request: RenderedRequest) -> str: ...


def chunk(items: Sequence[T], batch_size: int) -> list[list[T]]:
    """Split into order-preserving batches; all full except possibly the last."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive: {batch_size}")
    return [list(items[i : i + batch_size]) for i in range(0, len(items), batch_size)]


_SCHEMA_DIRECTIVES = {
    TaskId.ANALYZE: (
        "Reply with a JSON array only, one object per item, shaped "
        '[{"index": <0-based item number>, "analysis": "<functional description>"}].'
    ),
    TaskId.DETECT: (
        "Reply with a JSON array only, one object per item, shaped "
        '[{"index": <0-based item number>, "is_ai": <true|false>, "rationale": "<why>"}].'
    ),
    TaskId.CLASSIFY_TAXONOMY: (
        "Reply with a JSON array only, one object per item, shaped "
        '[{"index": <0-based item number>, "domain": "<AI domain>", "task": "<AI task>"}].'
    ),
    TaskId.DESCRIPTION_SCREEN: (
        "Reply with a JSON array only, one object per item, shaped "
        '[{"index": <0-based item number>, "likely_ai": <true|false>}].'
    ),
    TaskId.SUMMARIZE: (
        "Reply with a single JSON object only, shaped "
        '{"summary": "<short report>", "capabilities": ["<capability>", ...]}.'
    ),
}

# The response shares the context window with the prompt, so reserve output
# room per item on top of the prompt estimate. Rough is fine; this only has
# to trip the batch splitter reliably.
_CHARS_PER_TOKEN = 4
_OUTPUT_TOKENS_PER_ITEM = 128
_CONTEXT_SAFETY = 0.8

_RATE_LIMIT_RETRIES = 5  # resends of a request the backend refused as rate limited


def estimate_tokens(prompt: str, items: Sequence[str]) -> int:
    prompt_tokens = len(prompt) // _CHARS_PER_TOKEN
    echo_tokens = sum(len(i) for i in items) // _CHARS_PER_TOKEN
    return prompt_tokens + echo_tokens + _OUTPUT_TOKENS_PER_ITEM * len(items)


def render_prompt(template: PromptTemplate, items: Sequence[str], sampling: SamplingConfig) -> str:
    """Compose instruction, examples, numbered items, and the schema directive.

    Raises:
        ContextOverflow: the estimate exceeds the context budget; the caller
            must split the batch.
    """
    lines = [template.instruction.rstrip()]
    if template.few_shot:
        lines.append("")
        lines.append("Examples:")
        for example_in, example_out in template.few_shot:
            lines.append(f"Input: {example_in}")
            lines.append(f"Output: {example_out}")
    lines.append("")
    lines.append("Items:")
    for number, item in enumerate(items, start=1):
        lines.append(f"{number}. {item}")
    lines.append("")
    lines.append(_SCHEMA_DIRECTIVES[template.task_id])
    prompt = "\n".join(lines)

    budget = int(sampling.max_context_tokens * _CONTEXT_SAFETY)
    estimate = estimate_tokens(prompt, items)
    if estimate > budget:
        raise ContextOverflow(f"estimated {estimate} tokens over budget {budget}")
    return prompt


def _extract_json(raw: str, opener: str, closer: str):
    try:
        try:
            return loads(raw)
        except json.JSONDecodeError:
            start = raw.find(opener)
            end = raw.rfind(closer)
            if start < 0 or end <= start:
                raise MalformedJson(f"no JSON {opener}...{closer} in response")
            return loads(raw[start : end + 1])
    except ValueError as exc:  # not JSON, or a lone surrogate
        raise MalformedJson(f"unparseable response: {exc}") from exc


_REQUIRED_FIELDS = {
    TaskId.ANALYZE: (("analysis", str),),
    TaskId.DETECT: (("is_ai", bool), ("rationale", str)),
    TaskId.CLASSIFY_TAXONOMY: (("domain", str), ("task", str)),
    TaskId.DESCRIPTION_SCREEN: (("likely_ai", bool),),
}


def parse_aligned(task_id: str, raw: str, item_count: int) -> list[dict]:
    """Parse an array-task response and check index alignment.

    Returns payloads ordered by item index 0..N-1.

    Raises:
        MalformedJson: not JSON, or an element violates the task schema.
        MisalignedOutput: element count or index set is wrong.
    """
    data = _extract_json(raw, "[", "]")
    if not isinstance(data, list):
        raise MalformedJson("expected a JSON array")
    if len(data) != item_count:
        raise MisalignedOutput(f"got {len(data)} results for {item_count} items")
    by_index: dict[int, dict] = {}
    for element in data:
        if not isinstance(element, dict) or not isinstance(element.get("index"), int):
            raise MalformedJson(f"element without integer index: {element!r}")
        by_index[element["index"]] = element
    if set(by_index) != set(range(item_count)):
        raise MisalignedOutput(f"index set {sorted(by_index)} != 0..{item_count - 1}")
    for element in by_index.values():
        for name, typ in _REQUIRED_FIELDS[task_id]:
            value = element.get(name)
            # bool is an int subtype; keep the check strict both ways.
            if not isinstance(value, typ) or (typ is not bool and isinstance(value, bool)):
                raise MalformedJson(f"field {name!r} missing or mistyped in {element!r}")
        if task_id == TaskId.ANALYZE and not element["analysis"].strip():
            raise MalformedJson(f"blank analysis in {element!r}")
    return [by_index[i] for i in range(item_count)]


def summary_payload(data) -> dict:
    """``{"summary": str, "capabilities": [str]}`` from a decoded object, or MalformedJson."""
    if not isinstance(data, dict) or not isinstance(data.get("summary"), str):
        raise MalformedJson("summary response must be an object with a 'summary' string")
    capabilities = data.get("capabilities", [])
    if not isinstance(capabilities, list) or not all(isinstance(c, str) for c in capabilities):
        raise MalformedJson("'capabilities' must be a list of strings")
    return {"summary": data["summary"], "capabilities": capabilities}


def parse_summary(raw: str) -> dict:
    """Parse the single-object summary response."""
    return summary_payload(_extract_json(raw, "{", "}"))


class LlmGateway:
    """Batching, retrying front door to one completion backend.

    Every backend request runs on one pool of ``max_in_flight`` worker
    threads, shared by every thread that uses the gateway, so the pool size
    is the bound on requests in flight. ``run_items`` puts each batch on the
    pool with its whole retry ladder, so a call's batches overlap; a
    ``run_summary`` request and its resends take one worker. Nothing that
    runs on the pool submits to it. The per-task counters are safe to read
    from tests after a run.

    Queued requests wait on a heap ordered by app rank, then submission
    order: a worker that comes free takes the earliest app's oldest
    request, so the app the others wait on in input order is served first.
    :meth:`for_app` gives one app its rank; a gateway that was not made by it
    has rank 0.
    """

    def __init__(
        self,
        backend: Backend,
        templates: dict[str, PromptTemplate],
        sampling: Optional[SamplingConfig] = None,
        retry_budget: int = 2,
        max_in_flight: int = 4,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        if retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {retry_budget}")
        self.backend = backend
        self.model_id = backend.model_id
        self.templates = templates
        self.sampling = sampling or SamplingConfig()
        self.retry_budget = retry_budget
        self.sleeper = sleeper
        self.call_counts: Counter[str] = Counter()
        self._counter_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(max_in_flight, thread_name_prefix="aidiscover-gateway")
        self._queue: list[tuple] = []  # heap of (rank, seq, fn, args, gather, index)
        self._queue_lock = threading.Lock()
        self._seq = itertools.count()
        self._rank = 0

    def for_app(self, rank: int) -> "LlmGateway":
        """This gateway for the app at input position ``rank``: the same pool,
        queue and counters, with that app's requests queued at its rank."""
        view = copy.copy(self)
        view._rank = rank
        return view

    def _run_all(self, fn: Callable[..., T], arg_lists: list[tuple]) -> list[T]:
        """``fn(*args)`` for every ``args`` on the pool, queued at this
        gateway's rank: the results in order, or the failure of the earliest
        call that raised."""
        gather = _Gather(len(arg_lists))
        with self._queue_lock:
            for index, args in enumerate(arg_lists):
                heapq.heappush(self._queue, (self._rank, next(self._seq), fn, args, gather, index))
        for _ in arg_lists:
            self._pool.submit(self._run_next)
        return gather.wait()

    def _run_next(self) -> None:
        # One token per queued call, so the heap is never empty here.
        with self._queue_lock:
            _, _, fn, args, gather, index = heapq.heappop(self._queue)
        result = error = None
        if not gather.failed:  # else another job of the same call raised: skip this one
            try:
                result = fn(*args)
            except BaseException as exc:  # noqa: BLE001 - raised again by gather.wait
                error = exc
        gather.put(index, result, error)

    @property
    def call_count(self) -> int:
        with self._counter_lock:
            return sum(self.call_counts.values())

    def _complete(self, task_id: str, items: tuple[str, ...], prompt: str) -> str:
        request = RenderedRequest(task_id=task_id, items=items, prompt=prompt, sampling=self.sampling)
        for attempt in range(_RATE_LIMIT_RETRIES + 1):
            with self._counter_lock:
                self.call_counts[task_id] += 1
            try:
                return self.backend.complete(request)
            except RateLimited:
                if attempt == _RATE_LIMIT_RETRIES:
                    raise BackendUnavailable("rate limited past retry budget")
                delay = 2.0**attempt  # 1 s, doubling at each resend
                log.info("rate limited; backing off %.0fs", delay)
                self.sleeper(delay)
        raise BackendUnavailable("unreachable")  # pragma: no cover

    def _resend(self, task_id: str, items: tuple[str, ...], prompt: str, parse: Callable[[str], T]) -> T:
        """Send one prompt until ``parse`` accepts the response, at most
        ``retry_budget`` extra times; raises the last parse failure."""
        failure: Optional[GatewayError] = None
        for _ in range(self.retry_budget + 1):
            raw = self._complete(task_id, items, prompt)
            try:
                return parse(raw)
            except (MalformedJson, MisalignedOutput) as exc:
                failure = exc
                log.warning("%s request of %d items failed (%s); retrying", task_id, len(items), exc)
        raise failure  # type: ignore[misc]

    def run_batch(self, template: PromptTemplate, items: tuple[str, ...]) -> list[ItemResult]:
        """One aligned result per item, in item order.

        Parse or alignment failures retry the whole batch, then fall back to
        singleton batches; only an item that still fails alone is failed, via
        ItemResult.error. Context overflow splits the batch automatically;
        a single item that alone overflows is failed.
        """
        try:
            prompt = render_prompt(template, items, self.sampling)
        except ContextOverflow as exc:
            if len(items) == 1:
                log.warning("item does not fit context alone: %s", exc)
                return [ItemResult(None, error=f"ContextOverflow: {exc}")]
            mid = (len(items) + 1) // 2
            halves = (items[:mid], items[mid:])
            return [r for half in halves for r in self.run_batch(template, half)]

        task_id = template.task_id
        try:
            payloads = self._resend(
                task_id, items, prompt, lambda raw: parse_aligned(task_id, raw, len(items))
            )
            return [ItemResult(payload) for payload in payloads]
        except (MalformedJson, MisalignedOutput) as failure:
            if len(items) == 1:
                return [ItemResult(None, error=f"{type(failure).__name__}: {failure}")]
            log.warning("falling back to singleton batches after: %s", failure)
        return [r for item in items for r in self.run_batch(template, (item,))]

    def run_items(self, task_id: str, items: Sequence[str], batch_size: int = 3) -> list[ItemResult]:
        """Chunk items and run every batch; results keep global input order.

        Batches run on the gateway's pool, each with its whole retry ladder
        on the worker that sent it. Once a batch raises, the pool starts no
        further batch of this call, and the failure of the earliest batch in
        input order is raised.
        """
        template = self.templates[task_id]
        batches = [(template, tuple(b)) for b in chunk(items, batch_size)]
        return [r for batch in self._run_all(self.run_batch, batches) for r in batch]

    def summary_fit(self, items: Sequence[str]) -> int:
        """Length of the longest prefix of ``items`` whose Summarize prompt fits.

        ``render_prompt`` is the only test. The whole list is tried first, so
        a summary that fits costs one render; otherwise the prefix length is
        binary-searched. That finds the same cut as dropping items from the
        end one at a time, because the token estimate grows strictly with
        every added item (a prompt line plus reserved output tokens).
        """
        template = self.templates[TaskId.SUMMARIZE]

        def overflows(n: int) -> bool:
            try:
                render_prompt(template, items[:n], self.sampling)
            except ContextOverflow:
                return True
            return False

        if not items or not overflows(len(items)):
            return len(items)
        # Index i of range(1, n) is length i + 1, so the first that overflows
        # is found at the longest length that fits.
        return bisect.bisect_left(range(1, len(items)), True, key=overflows)

    def run_summary(self, items: Sequence[str]) -> dict:
        """One Summarize request over pre-assembled component lines.

        Raises ContextOverflow instead of splitting: the caller ranks the
        lines and sends the prefix that ``summary_fit`` accepts.
        """
        items = tuple(items)
        prompt = render_prompt(self.templates[TaskId.SUMMARIZE], items, self.sampling)
        [summary] = self._run_all(self._resend, [(TaskId.SUMMARIZE, items, prompt, parse_summary)])
        return summary


class _Gather:
    """The results of one call's pool jobs, by index; :meth:`wait` returns
    them once every job has put its own. ``failed`` is set once a job has
    raised, and the dispatcher then skips the call's jobs still queued."""

    def __init__(self, jobs: int):
        self.results: list = [None] * jobs
        self.errors: list[Optional[BaseException]] = [None] * jobs
        self._left = jobs
        self.failed = False
        self._lock = threading.Lock()
        self._done = threading.Event()
        if not jobs:
            self._done.set()

    def put(self, index: int, result, error: Optional[BaseException]) -> None:
        self.results[index], self.errors[index] = result, error
        if error is not None:
            self.failed = True
        with self._lock:
            self._left -= 1
            if self._left:
                return
        self._done.set()

    def wait(self) -> list:
        """The results in job order, or the error of the first job that raised."""
        self._done.wait()
        for error in self.errors:
            if error is not None:
                raise error
        return self.results

