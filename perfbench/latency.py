"""The benchmark's backend: the offline mock behind a seeded latency model.

Each request sleeps ``(BASE_S + PER_ITEM_S * items) * factor`` before the mock
answers. ``factor`` is drawn from a Pareto distribution (shape ``TAIL_SHAPE``,
scaled to a mean of 1, capped at ``TAIL_CAP``) by hashing the seed with the
prompt, so the same request always costs the same and a retry costs what the
first attempt did. The first attempt of a seeded share (``MISALIGN_SHARE``)
of array-task prompts gets a response with its last row dropped; the gateway
then retries the same prompt, which always succeeds.

The backend sees only requests, so it also counts, from outside the gateway,
what the gateway did: calls and tokens per task, time spent answering,
retries (the same prompt again on the thread that was just sent a bad
response), singleton fallbacks (a one-item request for an item of a batch
that failed on that thread), and duplicate items (an item sent again for the
same task outside those two cases).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import Counter

from aidiscover.backends import MockBackend
from aidiscover.gateway import TaskId

BASE_S = 0.001
PER_ITEM_S = 0.0002
TAIL_SHAPE = 2.5
TAIL_CAP = 10.0
MISALIGN_SHARE = 0.02
CHARS_PER_TOKEN = 4  # the gateway's own estimator


def _unit(seed: int, salt: str, text: str) -> float:
    digest = hashlib.blake2b(f"{seed}:{salt}:{text}".encode(), digest_size=8).digest()
    return (int.from_bytes(digest, "big") + 0.5) / 2.0**64


def tail_factor(u: float) -> float:
    """Pareto quantile at ``u`` with mean 1, capped at TAIL_CAP."""
    scale = (TAIL_SHAPE - 1) / TAIL_SHAPE
    return min(scale * (1.0 - u) ** (-1.0 / TAIL_SHAPE), TAIL_CAP)


class LatencyBackend:
    """Thread-safe counting wrapper around :class:`MockBackend`."""

    model_id = MockBackend.model_id

    def __init__(self, seed: int, sleep=time.sleep):
        self.seed = seed
        self.sleep = sleep
        self.inner = MockBackend()
        self.calls: Counter[str] = Counter()
        self.tokens = 0
        self.busy_s = 0.0
        self.retries = 0
        self.singleton_fallbacks = 0
        self.dup_items = 0
        self.array_calls = 0
        # Hashes, not texts, so the backend's bookkeeping adds little to the
        # peak memory of the process it shares with the program.
        self._answered: set[int] = set()  # (task, item)
        self._seen_prompts: set[int] = set()
        self._seen_items: set[int] = set()  # (task, item), outside retries and fallbacks
        self._bad_prompt: dict[int, int] = {}  # thread -> prompt just answered badly
        self._failed_items: set[tuple[int, int]] = set()  # (thread, (task, item))
        self._lock = threading.Lock()

    def delay_s(self, prompt: str, items: int) -> float:
        return (BASE_S + PER_ITEM_S * items) * tail_factor(_unit(self.seed, "delay", prompt))

    def complete(self, request) -> str:
        start = time.perf_counter()
        task, prompt, items = request.task_id, request.prompt, request.items
        thread = threading.get_ident()
        array_task = task in TaskId.ARRAY_TASKS
        with self._lock:
            self.calls[task] += 1
            self.tokens += len(prompt) // CHARS_PER_TOKEN
            prompt_key = hash(prompt)
            first_attempt = prompt_key not in self._seen_prompts
            self._seen_prompts.add(prompt_key)
            misalign = (
                array_task
                and first_attempt
                and _unit(self.seed, "misalign", prompt) < MISALIGN_SHARE
            )
            if array_task:
                self.array_calls += 1
                keys = [hash((task, item)) for item in items]
                if self._bad_prompt.get(thread) == prompt_key:
                    self.retries += 1
                    self._failed_items.difference_update((thread, key) for key in keys)
                elif len(keys) == 1 and (thread, keys[0]) in self._failed_items:
                    self.singleton_fallbacks += 1
                else:
                    self.dup_items += sum(1 for key in keys if key in self._seen_items)
                    self._seen_items.update(keys)
                if misalign:
                    self._bad_prompt[thread] = prompt_key
                    if len(keys) > 1:
                        self._failed_items.update((thread, key) for key in keys)
                else:
                    self._bad_prompt.pop(thread, None)
                    self._answered.update(keys)
        self.sleep(self.delay_s(prompt, len(items)))
        raw = self.inner.complete(request)
        if misalign:
            raw = json.dumps(json.loads(raw)[:-1])
        end = time.perf_counter()
        with self._lock:
            self.busy_s += end - start
        return raw

    def counters(self) -> dict:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "tokens": self.tokens,
                "busy_s": self.busy_s,
                "retries": self.retries,
                "singleton_fallbacks": self.singleton_fallbacks,
                "dup_items": self.dup_items,
                "useful_items": len(self._answered),
                "array_calls": self.array_calls,
            }
