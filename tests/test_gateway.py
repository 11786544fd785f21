import json
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from aidiscover import gateway as gateway_module
from aidiscover.backends import MockBackend
from aidiscover.gateway import (
    BackendUnavailable,
    ContextOverflow,
    MalformedJson,
    MisalignedOutput,
    PromptTemplate,
    RateLimited,
    SamplingConfig,
    TaskId,
    chunk,
    parse_aligned,
    parse_summary,
    render_prompt,
)
from aidiscover.prompts import load_templates

from conftest import make_gateway
from helpers import DroppingBackend, FailingCall, ScriptedBackend, marked_items, mock_rows, result_rows


class TestChunk:
    @pytest.mark.parametrize(
        "n,size,expected",
        [(7, 3, [3, 3, 1]), (0, 3, []), (3, 3, [3]), (1, 1, [1]), (6, 2, [2, 2, 2])],
    )
    def test_sizes(self, n, size, expected):
        batches = chunk(list(range(n)), size)
        assert [len(b) for b in batches] == expected

    @given(st.lists(st.integers(), max_size=50), st.integers(min_value=1, max_value=7))
    def test_properties(self, items, size):
        batches = chunk(items, size)
        assert [x for b in batches for x in b] == items
        assert len(batches) == math.ceil(len(items) / size)
        assert all(len(b) == size for b in batches[:-1])

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            chunk([1], 0)


class TestConfigValidation:
    def test_sampling_defaults(self):
        cfg = SamplingConfig()
        assert (cfg.temperature, cfg.top_p, cfg.max_context_tokens) == (0.2, 0.95, 4096)

    @pytest.mark.parametrize(
        "kwargs", [{"temperature": -0.1}, {"temperature": 2.5}, {"top_p": 0.0}, {"top_p": 1.2}]
    )
    def test_sampling_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SamplingConfig(**kwargs)

    def test_template_requires_examples(self):
        with pytest.raises(ValueError):
            PromptTemplate(task_id=TaskId.DETECT, instruction="decide", few_shot=())

    @pytest.mark.parametrize(
        "kwargs", [{"max_in_flight": 0}, {"max_in_flight": -1}, {"retry_budget": -1}]
    )
    def test_gateway_rejects(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            make_gateway(**kwargs)


class TestRenderPrompt:
    def test_contains_items_and_schema(self):
        template = load_templates()[TaskId.DETECT]
        prompt = render_prompt(template, ("com.google.mlkit.vision.objects",), SamplingConfig())
        assert "com.google.mlkit.vision.objects" in prompt
        assert "1. com.google.mlkit.vision.objects" in prompt
        assert "JSON array" in prompt and "is_ai" in prompt

    def test_enumerates_all_items(self):
        template = load_templates()[TaskId.DETECT]
        prompt = render_prompt(template, ("first", "second", "third"), SamplingConfig())
        for line in ("1. first", "2. second", "3. third"):
            assert line in prompt

    def test_pathological_item_overflows(self):
        template = load_templates()[TaskId.DETECT]
        with pytest.raises(ContextOverflow):
            render_prompt(template, ("x" * 10_000,), SamplingConfig())

    def test_few_shot_examples_present(self):
        template = load_templates()[TaskId.ANALYZE]
        prompt = render_prompt(template, ("item",), SamplingConfig())
        assert prompt.count("Input:") == 5
        assert prompt.count("Output:") == 5


class TestSummaryFit:
    @given(
        st.lists(st.integers(min_value=0, max_value=3000), max_size=40),
        st.integers(min_value=64, max_value=20_000),
    )
    def test_matches_brute_force_scan(self, lengths, max_context_tokens):
        items = [f"com.pkg{i} :: " + "x" * n for i, n in enumerate(lengths)]
        sampling = SamplingConfig(max_context_tokens=max_context_tokens)
        gateway = make_gateway(sampling=sampling)
        template = gateway.templates[TaskId.SUMMARIZE]

        def fits(n):
            try:
                render_prompt(template, items[:n], sampling)
            except ContextOverflow:
                return False
            return True

        fitting = [n for n in range(1, len(items) + 1) if fits(n)]
        # the fitting prefix lengths are exactly 1..k, so a search is sound
        assert fitting == list(range(1, len(fitting) + 1))
        with mock.patch.object(gateway_module, "render_prompt", wraps=render_prompt) as spy:
            assert gateway.summary_fit(items) == len(fitting)
        if len(fitting) < len(items):  # an overflow is searched, never from the empty prefix
            rendered = [len(call.args[1]) for call in spy.call_args_list]
            assert 0 not in rendered
            assert len(rendered) <= math.ceil(math.log2(len(items))) + 1


class TestParseAligned:
    def test_out_of_order_indexes_are_realigned(self):
        raw = json.dumps(
            [
                {"index": 2, "is_ai": False, "rationale": "c"},
                {"index": 0, "is_ai": True, "rationale": "a"},
                {"index": 1, "is_ai": False, "rationale": "b"},
            ]
        )
        rows = parse_aligned(TaskId.DETECT, raw, 3)
        assert [r["rationale"] for r in rows] == ["a", "b", "c"]

    def test_fenced_json_is_extracted(self):
        raw = "```json\n[{\"index\": 0, \"analysis\": \"text\"}]\n```"
        rows = parse_aligned(TaskId.ANALYZE, raw, 1)
        assert rows[0]["analysis"] == "text"

    def test_prose_is_malformed(self):
        with pytest.raises(MalformedJson):
            parse_aligned(TaskId.DETECT, "I think item one is AI.", 1)

    def test_wrong_count_is_misaligned(self):
        raw = json.dumps([{"index": 0, "is_ai": True, "rationale": "a"}])
        with pytest.raises(MisalignedOutput):
            parse_aligned(TaskId.DETECT, raw, 2)

    def test_duplicate_indexes_are_misaligned(self):
        raw = json.dumps(
            [
                {"index": 0, "is_ai": True, "rationale": "a"},
                {"index": 0, "is_ai": False, "rationale": "b"},
            ]
        )
        with pytest.raises(MisalignedOutput):
            parse_aligned(TaskId.DETECT, raw, 2)

    def test_mistyped_field_is_malformed(self):
        raw = json.dumps([{"index": 0, "is_ai": "yes", "rationale": "a"}])
        with pytest.raises(MalformedJson):
            parse_aligned(TaskId.DETECT, raw, 1)

    @pytest.mark.parametrize(
        "raw",
        [
            '[{"index": 0, "analysis": "object \\ud800 detection"}]',
            '[{"index": 0, "analysis": "object \\uDC80"}]',
            '[{"index": 0, "analysis": "a pair split \\ude00\\ud83d"}]',
            '[{"index": 0, "analysis": "raw \udfff in the text"}]',  # the code point, not an escape
            '[{"index": 0, "analysis": "a key", "\\ud800": 1}]',
            'Sure: [{"index": 0, "analysis": "in prose \\ud800"}] done',
        ],
    )
    def test_a_lone_surrogate_is_malformed(self, raw):
        with pytest.raises(MalformedJson, match="surrogate"):
            parse_aligned(TaskId.ANALYZE, raw, 1)

    @pytest.mark.parametrize(
        "raw",
        [
            '[{"index": 0, "analysis": "a pair \\ud83d\\ude00 is one code point"}]',
            '[{"index": 0, "analysis": "an escaped backslash \\\\ud800 is text"}]',
            '[{"index": 0, "analysis": "caf\u00e9 \U0001f600"}]',
        ],
    )
    def test_text_that_utf8_can_encode_is_kept(self, raw):
        [row] = parse_aligned(TaskId.ANALYZE, raw, 1)
        row["analysis"].encode("utf-8")

    def test_a_lone_surrogate_in_a_summary_is_malformed(self):
        with pytest.raises(MalformedJson, match="surrogate"):
            parse_summary('{"summary": "s", "capabilities": ["\\udbff"]}')

    @pytest.mark.parametrize("analysis", ["", "   ", "\t\n"])
    def test_a_blank_analysis_is_malformed(self, analysis):
        raw = json.dumps([{"index": 0, "analysis": analysis}])
        with pytest.raises(MalformedJson, match="blank analysis"):
            parse_aligned(TaskId.ANALYZE, raw, 1)


class TestRunBatch:
    def test_mock_three_items_aligned(self):
        gateway = make_gateway()
        items = ["com.google.mlkit.vision", "java.util.List", "org.tensorflow.lite"]
        results = gateway.run_items(TaskId.DETECT, items)
        assert result_rows(results) == mock_rows(TaskId.DETECT, items)
        assert [r.payload["is_ai"] for r in results] == [True, False, True]
        assert gateway.call_count == 1

    def test_misalignment_triggers_singleton_fallback(self):
        gateway = make_gateway(DroppingBackend())
        items = ["a.mlkit.x", "b.plain.y", "c.speech.z"]
        results = gateway.run_items(TaskId.DETECT, items)
        assert result_rows(results) == mock_rows(TaskId.DETECT, items)
        assert [r.payload["is_ai"] for r in results] == [True, False, True]
        # 1 initial + 2 whole-batch retries + 3 singletons
        assert gateway.call_count == 6

    def test_persistent_prose_fails_item_after_retries(self):
        gateway = make_gateway(ScriptedBackend(["no json here"] * 3))
        results = gateway.run_items(TaskId.DETECT, ["solo.item"], batch_size=1)
        assert results[0].payload is None
        assert "MalformedJson" in results[0].error
        assert gateway.call_count == 3

    def test_a_lone_surrogate_reply_is_resent_then_failed(self):
        bad = '[{"index": 0, "is_ai": true, "rationale": "\\ud800"}]'
        gateway = make_gateway(ScriptedBackend([bad] * 3))
        [result] = gateway.run_items(TaskId.DETECT, ["solo.item"], batch_size=1)
        assert result.payload is None
        assert "MalformedJson" in result.error and "surrogate" in result.error
        assert gateway.call_count == 3

    def test_a_reply_nested_past_the_recursion_limit_is_resent(self):
        nested = "[" * 100_000 + "]" * 100_000
        good = json.dumps([{"index": 0, "is_ai": True, "rationale": "r"}])
        gateway = make_gateway(ScriptedBackend([nested, good]))
        [result] = gateway.run_items(TaskId.DETECT, ["solo.item"], batch_size=1)
        assert result.payload["is_ai"] is True
        assert gateway.call_count == 2

    def test_a_blank_analysis_is_resent_then_falls_back_to_singletons(self):
        blank = json.dumps([{"index": 0, "analysis": "ok"}, {"index": 1, "analysis": " "}])
        singles = [json.dumps([{"index": 0, "analysis": text}]) for text in ("first", "second")]
        gateway = make_gateway(ScriptedBackend([blank] * 3 + singles))
        results = gateway.run_items(TaskId.ANALYZE, ["a", "b"], batch_size=2)
        assert [r.payload["analysis"] for r in results] == ["first", "second"]
        assert gateway.call_count == 5

    def test_rate_limit_backoff_then_success(self):
        raw = json.dumps([{"index": 0, "is_ai": False, "rationale": "r"}])
        backend = ScriptedBackend([RateLimited("slow down"), RateLimited("again"), raw])
        delays = []
        gateway = make_gateway(backend, sleeper=delays.append)
        results = gateway.run_items(TaskId.DETECT, ["x"], batch_size=1)
        assert results[0].payload["is_ai"] is False
        assert delays == [1.0, 2.0]

    def test_rate_limit_exhaustion(self):
        backend = ScriptedBackend([RateLimited("x")] * 10)
        gateway = make_gateway(backend)
        with pytest.raises(BackendUnavailable):
            gateway.run_items(TaskId.DETECT, ["x"], batch_size=1)

    def test_backend_unavailable_propagates(self):
        gateway = make_gateway(ScriptedBackend([BackendUnavailable("down")]))
        with pytest.raises(BackendUnavailable):
            gateway.run_items(TaskId.DETECT, ["x"], batch_size=1)

    def test_oversized_batch_splits_automatically(self):
        gateway = make_gateway()
        big_a = "mlkit." + "a" * 4000
        big_b = "plain." + "b" * 4000
        template = load_templates()[TaskId.DETECT]
        results = gateway.run_batch(template, (big_a, big_b))
        assert result_rows(results) == mock_rows(TaskId.DETECT, (big_a, big_b))
        assert results[0].payload["is_ai"] is True
        assert results[1].payload["is_ai"] is False
        assert gateway.call_count == 2

    def test_single_item_too_big_fails_that_item(self):
        gateway = make_gateway()
        results = gateway.run_items(TaskId.DETECT, ["y" * 50_000], batch_size=1)
        assert results[0].payload is None
        assert "ContextOverflow" in results[0].error
        assert gateway.call_count == 0

    @given(st.integers(min_value=0, max_value=17))
    def test_alignment_property(self, n):
        gateway = make_gateway()
        items = marked_items(n)
        results = gateway.run_items(TaskId.ANALYZE, items)
        assert result_rows(results) == mock_rows(TaskId.ANALYZE, items)
        assert gateway.call_count == math.ceil(n / 3)


class TestCounters:
    def test_per_task_counters(self):
        gateway = make_gateway()
        gateway.run_items(TaskId.ANALYZE, ["a", "b", "c", "d"])
        gateway.run_items(TaskId.DETECT, ["a"])
        assert gateway.call_counts[TaskId.ANALYZE] == 2
        assert gateway.call_counts[TaskId.DETECT] == 1
        assert gateway.call_count == 3


class TestMockDeterminism:
    def test_same_inputs_same_payloads(self):
        backend = MockBackend()
        for task in (TaskId.ANALYZE, TaskId.DETECT, TaskId.CLASSIFY_TAXONOMY):
            g1 = make_gateway(MockBackend())
            g2 = make_gateway(MockBackend())
            items = ["com.google.mlkit.vision", "com.acme.util", "nlp.WordPieceModelPB"]
            r1 = g1.run_items(task, items)
            r2 = g2.run_items(task, items)
            assert [r.payload for r in r1] == [r.payload for r in r2]

    def test_summary_single_object(self):
        gateway = make_gateway()
        payload = gateway.run_summary(
            ["com.google.mlkit.vision :: object detection", "nlp.Tokenizer :: tokenization"]
        )
        assert "object detection and tracking" in payload["capabilities"]
        assert "text tokenization" in payload["capabilities"]
        assert payload["summary"]


class TestInFlightLimit:
    def test_max_in_flight_bounds_concurrency(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        class CountingBackend:
            model_id = "counting"

            def __init__(self):
                self.inner = MockBackend()
                self.active = 0
                self.peak = 0
                self.lock = threading.Lock()
                self.entered = threading.Event()

            def complete(self, request):
                with self.lock:
                    self.active += 1
                    self.peak = max(self.peak, self.active)
                self.entered.wait(0.05)  # hold the slot long enough to overlap
                try:
                    return self.inner.complete(request)
                finally:
                    with self.lock:
                        self.active -= 1

        backend = CountingBackend()
        gateway = make_gateway(backend, max_in_flight=2)
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [
                pool.submit(gateway.run_items, TaskId.DETECT, [f"com.t{i}"], 1) for i in range(6)
            ]
            results = [f.result() for f in futures]
        assert backend.peak <= 2
        assert all(r[0].payload is not None for r in results)


class PoolRecordingBackend:
    """Mock answers after 10 ms; records the peak number of requests in
    flight and the names of the threads that sent them."""

    model_id = "pool-recording"

    def __init__(self):
        self.inner = MockBackend()
        self.active = 0
        self.peak = 0
        self.thread_names = set()
        self.lock = threading.Lock()

    def complete(self, request):
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
            self.thread_names.add(threading.current_thread().name)
        try:
            time.sleep(0.01)
            return self.inner.complete(request)
        finally:
            with self.lock:
                self.active -= 1


def run_mixed_calls(gateway, calls: int) -> None:
    """``calls`` calls from 3 threads, alternating a three-batch run_items
    with a run_summary."""

    def call(i):
        if i % 2:
            assert gateway.run_summary([f"com.mix{i}.vision :: object detection"])["summary"]
        else:
            items = marked_items(9, prefix=f"com.mix{i}.k")
            assert result_rows(gateway.run_items(TaskId.DETECT, items)) == mock_rows(TaskId.DETECT, items)

    with ThreadPoolExecutor(max_workers=3) as callers:
        list(callers.map(call, range(calls)))


class TestOnePool:
    def test_every_request_is_sent_from_the_gateway_pool(self):
        backend = PoolRecordingBackend()
        run_mixed_calls(make_gateway(backend, max_in_flight=4), 24)
        assert len(backend.thread_names) <= 4

    def test_summaries_and_batches_share_the_in_flight_bound(self):
        backend = PoolRecordingBackend()
        run_mixed_calls(make_gateway(backend, max_in_flight=2), 24)
        assert backend.peak == 2


class TestConcurrentDispatch:
    def test_twelve_batches_fill_four_slots_and_keep_order(self):
        class ShrinkingDelay:
            """Batch b (items com.item<3b>..) sleeps (12 - b) * 20 ms: later batches finish first."""

            model_id = "shrinking"

            def __init__(self):
                self.inner = MockBackend()
                self.active = 0
                self.peak = 0
                self.finished = []
                self.lock = threading.Lock()
                self.start = threading.Barrier(4, timeout=5)

            def complete(self, request):
                batch = int(request.items[0].removeprefix("com.item").partition(".")[0]) // 3
                with self.lock:
                    self.active += 1
                    self.peak = max(self.peak, self.active)
                if batch < 4:
                    self.start.wait()  # the first four are in flight together
                time.sleep((12 - batch) * 0.02)
                with self.lock:
                    self.active -= 1
                    self.finished.append(batch)
                return self.inner.complete(request)

        backend = ShrinkingDelay()
        items = marked_items(36)
        results = make_gateway(backend, max_in_flight=4).run_items(TaskId.ANALYZE, items)
        expected = make_gateway(max_in_flight=1).run_items(TaskId.ANALYZE, items)
        assert backend.peak == 4
        assert backend.finished != sorted(backend.finished)
        assert result_rows(results) == mock_rows(TaskId.ANALYZE, items)
        assert [r.payload for r in results] == [r.payload for r in expected]

    def test_singleton_fallbacks_stay_on_the_sending_thread(self):
        class ThreadRecordingDropper(DroppingBackend):
            def __init__(self):
                super().__init__()
                self.sent = []  # (items, thread ident)

            def complete(self, request):
                self.sent.append((request.items, threading.get_ident()))
                time.sleep(0.002)
                return super().complete(request)

        backend = ThreadRecordingDropper()
        items = marked_items(36, prefix="com.k")
        gateway = make_gateway(backend, max_in_flight=4)
        results = gateway.run_items(TaskId.DETECT, items)
        assert result_rows(results) == mock_rows(TaskId.DETECT, items)
        batch_thread = {}
        for sent_items, thread in backend.sent:
            if len(sent_items) > 1:
                assert batch_thread.setdefault(sent_items, thread) == thread
        assert len(batch_thread) == 12
        assert len(set(batch_thread.values())) > 1
        for sent_items, thread in backend.sent:
            if len(sent_items) == 1:
                [home] = [b for b in batch_thread if sent_items[0] in b]
                assert thread == batch_thread[home]
        # per batch: 1 + 2 whole-batch retries + 3 singletons
        assert gateway.call_count == 12 * 6

    def test_no_batch_starts_after_a_failure(self):
        backend = FailingCall(fail_at=2)
        gateway = make_gateway(backend, max_in_flight=4)
        with pytest.raises(BackendUnavailable):
            gateway.run_items(TaskId.DETECT, [f"com.x{i}" for i in range(36)])
        # the failed call plus at most the other max_in_flight - 1 in flight
        assert 2 <= backend.calls <= 2 + 3

    def test_earliest_failure_in_batch_order_is_raised(self):
        class TwoFailures:
            model_id = "two-failures"

            def __init__(self):
                self.first_started = threading.Event()
                self.second_raised = threading.Event()

            def complete(self, request):
                if request.items == ("b1",):
                    self.first_started.set()
                    self.second_raised.wait(5)
                    raise BackendUnavailable("b1")
                if request.items == ("b2",):
                    self.first_started.wait(5)
                    self.second_raised.set()
                    raise BackendUnavailable("b2")
                return MockBackend().complete(request)

        gateway = make_gateway(TwoFailures(), max_in_flight=4)
        with pytest.raises(BackendUnavailable, match="b1"):
            gateway.run_items(TaskId.DETECT, ["b0", "b1", "b2", "b3"], batch_size=1)

    def test_counters_hold_under_fast_thread_switching(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            gateway = make_gateway(max_in_flight=8)
            items = marked_items(60, prefix="com.stress.k")
            with ThreadPoolExecutor(max_workers=3) as apps:
                runs = [apps.submit(gateway.run_items, TaskId.DETECT, items) for _ in range(3)]
                results = [run.result(timeout=60) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert all(result_rows(result) == mock_rows(TaskId.DETECT, items) for result in results)
        assert gateway.call_count == gateway.call_counts[TaskId.DETECT] == 3 * 20


class TestEarliestAppFirst:
    def test_queued_requests_run_by_app_rank_then_submission_order(self):
        class HeldBackend:
            """Holds the request for ``hold`` until released; records the others' order."""

            model_id = "held"

            def __init__(self):
                self.inner = MockBackend()
                self.holding = threading.Event()
                self.release = threading.Event()
                self.order = []

            def complete(self, request):
                if request.items == ("hold",):
                    self.holding.set()
                    self.release.wait(5)
                else:
                    self.order.append(request.items[0])
                return self.inner.complete(request)

        backend = HeldBackend()
        gateway = make_gateway(backend, max_in_flight=1)

        def queued(count: int) -> None:
            deadline = time.monotonic() + 5
            while len(gateway._queue) < count:
                assert time.monotonic() < deadline, "requests were not queued"
                time.sleep(0.001)

        with ThreadPoolExecutor(max_workers=4) as callers:
            held = callers.submit(gateway.for_app(0).run_items, TaskId.DETECT, ["hold"], 1)
            assert backend.holding.wait(5)
            late = callers.submit(gateway.for_app(7).run_items, TaskId.DETECT, ["late0", "late1"], 1)
            queued(2)
            summary = callers.submit(gateway.for_app(7).run_summary, ["late2 :: speech recognition"])
            queued(3)
            early = callers.submit(gateway.for_app(2).run_items, TaskId.DETECT, ["early0", "early1"], 1)
            queued(5)
            backend.release.set()
            for future in (held, late, summary, early):
                future.result(timeout=5)
        assert backend.order == ["early0", "early1", "late0", "late1", "late2 :: speech recognition"]
        assert gateway.call_counts == {TaskId.DETECT: 5, TaskId.SUMMARIZE: 1}
