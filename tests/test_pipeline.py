import inspect
import json

import pytest
from hypothesis import given, strategies as st

from aidiscover.backends import MockBackend
from aidiscover.candidates import Candidate, CandidateKind, CandidateSet
from aidiscover.curation import curate
from aidiscover.gateway import BackendUnavailable, TaskId
from aidiscover.kb import VERDICT_AI, VERDICT_NON_AI, KbKey, KbRecord, KnowledgeBase, kb_sync
from aidiscover.pipeline import (
    FAILURE_RATIONALE,
    PROVENANCE_FRESH,
    PROVENANCE_KB,
    ComponentVerdict,
    PipelineConfig,
    PipelineOrder,
    PipelineResult,
    is_ai_app,
    run_pipeline,
    write_back,
)

from aidiscover.prompts import load_templates
from aidiscover.report import analyze_app
from aidiscover.taxonomy import classify_components
from aidiscover.whitelist import load_whitelist

from conftest import make_gateway
from helpers import FailingCall, ScriptedBackend

ATD = PipelineOrder.ANALYSIS_THEN_DETECTION
DTA = PipelineOrder.DETECTION_THEN_ANALYSIS


def cand(text, kind=CandidateKind.PACKAGE):
    return Candidate(kind, text, "classes.dex")


def cand_set(texts, kind=CandidateKind.PACKAGE):
    return CandidateSet(app_id="t", candidates=[cand(t, kind) for t in texts])


def verdict_of(text, gateway, kind=CandidateKind.PACKAGE):
    """Analysis-then-detection verdict for one candidate, through the batch path."""
    return run_pipeline(cand_set([text], kind), PipelineConfig(), KnowledgeBase(), gateway).verdicts[0]


class TestSingleComponentOps:
    def test_analyze_mlkit(self, mock_gateway):
        out = verdict_of("com.google.mlkit.vision.objects", mock_gateway).analysis
        assert out == "Google's ML Kit API for object detection and tracking in images and videos"

    def test_analyze_wordpiece(self, mock_gateway):
        out = verdict_of("nlp.WordPieceModelPB", mock_gateway).analysis
        assert (
            out
            == "A library for tokenizing text using the WordPiece algorithm, implemented in Protocol Buffers format"
        )

    def test_analyze_non_ai_canned(self, mock_gateway):
        out = verdict_of("com.foo.analytics.logger", mock_gateway).analysis
        assert out == "General-purpose utility component for application infrastructure"

    def test_detect_with_analysis(self, mock_gateway):
        verdict = verdict_of("com.google.mlkit.vision.objects", mock_gateway)
        assert verdict.is_ai is True and verdict.rationale

    def test_detect_plain_java(self, mock_gateway):
        verdict = verdict_of("java.util.concurrent.Locks", mock_gateway)
        assert verdict.is_ai is False and verdict.rationale

    def test_detect_openai_endpoint(self, mock_gateway):
        verdict = verdict_of("https://api.openai.com/v1/", mock_gateway, CandidateKind.HTTPS_REQUEST)
        assert verdict.is_ai is True


class TestRunPipeline:
    def test_completeness_and_order(self, mock_gateway):
        texts = ["com.a.one", "com.google.mlkit.vision", "com.b.two", "org.tensorflow.lite"]
        result = run_pipeline(cand_set(texts), PipelineConfig(), KnowledgeBase(), mock_gateway)
        assert [v.candidate.text for v in result.verdicts] == texts
        assert [v.is_ai for v in result.verdicts] == [False, True, False, True]
        assert not result.degraded

    def test_kb_hit_short_circuits(self, mock_gateway):
        kb = KnowledgeBase()
        kb.insert(
            KbRecord(
                key=KbKey.make(CandidateKind.PACKAGE, "com.known.ai.thing"),
                verdict=VERDICT_AI,
                analysis="cached analysis",
                model_id="mock",
            )
        )
        texts = ["com.known.ai.thing", "com.fresh.component"]
        result = run_pipeline(cand_set(texts), PipelineConfig(), kb, mock_gateway)
        assert result.verdicts[0].provenance == PROVENANCE_KB
        assert result.verdicts[0].is_ai is True
        assert result.verdicts[0].analysis == "cached analysis"
        assert result.verdicts[1].provenance == PROVENANCE_FRESH
        # exactly one detect batch for the single fresh candidate
        assert mock_gateway.call_counts[TaskId.DETECT] == 1

    def test_second_run_issues_zero_calls(self, mock_gateway):
        kb = KnowledgeBase()
        texts = ["com.google.mlkit.vision", "com.plain.util", "com.acme.speech"]
        first = run_pipeline(cand_set(texts), PipelineConfig(), kb, mock_gateway)
        write_back(first, kb, mock_gateway.model_id)
        calls_after_first = mock_gateway.call_count
        second = run_pipeline(cand_set(texts), PipelineConfig(), kb, mock_gateway)
        assert mock_gateway.call_count == calls_after_first
        assert [v.is_ai for v in first.verdicts] == [v.is_ai for v in second.verdicts]
        assert all(v.provenance == PROVENANCE_KB for v in second.verdicts)

    def test_write_back_immediately_retrievable(self, mock_gateway):
        kb = KnowledgeBase()
        texts = ["com.google.mlkit.vision", "com.plain.util"]
        result = run_pipeline(cand_set(texts), PipelineConfig(), kb, mock_gateway)
        assert kb.records == {}  # run_pipeline itself writes nothing
        write_back(result, kb, mock_gateway.model_id)
        for verdict in result.verdicts:
            record = kb.lookup(verdict.kb_key())
            assert record is not None
            assert (record.verdict == VERDICT_AI) == verdict.is_ai

    def test_atd_analysis_present_for_every_fresh_verdict(self, mock_gateway):
        texts = ["com.google.mlkit.vision", "com.plain.util", "org.other.thing"]
        cfg = PipelineConfig(order=ATD)
        result = run_pipeline(cand_set(texts), cfg, KnowledgeBase(), mock_gateway)
        assert all(v.analysis for v in result.verdicts)

    def test_dta_analyzes_only_positives(self, mock_gateway):
        texts = ["com.google.mlkit.vision", "com.plain.util", "org.other.thing"]
        cfg = PipelineConfig(order=DTA)
        result = run_pipeline(cand_set(texts), cfg, KnowledgeBase(), mock_gateway)
        for verdict in result.verdicts:
            if verdict.is_ai:
                assert verdict.analysis
            else:
                assert verdict.analysis is None

    def test_orders_agree_under_mock(self, mock_gateway):
        texts = [
            "com.google.mlkit.vision",
            "com.plain.util",
            "assets/detect.tflite",
            "org.other.thing",
            "https://api.openai.com/v1/",
        ]
        result_atd = run_pipeline(cand_set(texts), PipelineConfig(order=ATD), KnowledgeBase(), make_gateway())
        result_dta = run_pipeline(cand_set(texts), PipelineConfig(order=DTA), KnowledgeBase(), make_gateway())
        assert [v.is_ai for v in result_atd.verdicts] == [v.is_ai for v in result_dta.verdicts]

    def test_call_count_ordering(self):
        # 2 AI + 4 non-AI candidates, batch size 3
        texts = [
            "com.google.mlkit.vision",
            "com.acme.speech",
            "com.util.one",
            "com.util.two",
            "com.util.three",
            "com.util.four",
        ]
        g_atd = make_gateway()
        run_pipeline(cand_set(texts), PipelineConfig(order=ATD), KnowledgeBase(), g_atd)
        g_dta = make_gateway()
        run_pipeline(cand_set(texts), PipelineConfig(order=DTA), KnowledgeBase(), g_dta)
        # AtD: 2 analyze + 2 detect batches; DtA: 2 detect + 1 analyze batch
        assert g_atd.call_count == 4
        assert g_dta.call_count == 3
        assert g_dta.call_count < g_atd.call_count

    def test_item_failure_defaults_to_non_ai(self):
        # backend emits prose for every request: whole-batch retries and the
        # singleton fallback all fail, so each item fails conservatively
        backend = ScriptedBackend(["not json"] * 50)
        gateway = make_gateway(backend)
        kb = KnowledgeBase()
        result = run_pipeline(
            cand_set(["com.google.mlkit.vision"]), PipelineConfig(order=DTA), kb, gateway
        )
        verdict = result.verdicts[0]
        assert verdict.is_ai is False
        assert verdict.rationale == FAILURE_RATIONALE
        # transient failures are not cached
        write_back(result, kb, gateway.model_id)
        assert kb.lookup(verdict.kb_key()) is None

    def test_backend_outage_returns_partial_flagged(self, mock_gateway):
        kb = KnowledgeBase()
        kb.insert(
            KbRecord(
                key=KbKey.make(CandidateKind.PACKAGE, "com.cached.ai"),
                verdict=VERDICT_AI,
                analysis="cached",
                model_id="mock",
            )
        )
        dead_gateway = make_gateway(ScriptedBackend([BackendUnavailable("down")] * 5))
        result = run_pipeline(
            cand_set(["com.cached.ai", "com.fresh.thing"]), PipelineConfig(), kb, dead_gateway
        )
        assert result.degraded is True
        assert result.verdicts[0].is_ai is True  # KB hit survives the outage
        assert result.verdicts[1].is_ai is False
        assert result.verdicts[1].rationale == FAILURE_RATIONALE
        write_back(result, kb, dead_gateway.model_id)
        assert kb.lookup(result.verdicts[1].kb_key()) is None

    def test_backend_failure_mid_dispatch_degrades(self):
        kb = KnowledgeBase()
        cached = KbRecord(
            key=KbKey.make(CandidateKind.PACKAGE, "com.cached.ai"),
            verdict=VERDICT_AI,
            analysis="cached",
            model_id="mock",
        )
        kb.insert(cached)
        backend = FailingCall(fail_at=3)
        gateway = make_gateway(backend, max_in_flight=4)
        texts = ["com.cached.ai"] + [f"com.fresh.k{i}" for i in range(30)]
        result = run_pipeline(cand_set(texts), PipelineConfig(), kb, gateway)
        assert result.degraded is True
        assert backend.calls <= 3 + 3  # no batch starts once the failure is seen
        hit = result.verdicts[0]
        assert (hit.is_ai, hit.analysis, hit.provenance) == (True, "cached", PROVENANCE_KB)
        assert all(v.rationale == FAILURE_RATIONALE for v in result.verdicts[1:])


class FailingTask(MockBackend):
    """Mock answers, except that one task gets ``failure``: raw text, or an exception raised."""

    def __init__(self, task_id, failure):
        self.task_id = task_id
        self.failure = failure

    def complete(self, request):
        if request.task_id != self.task_id:
            return super().complete(request)
        if isinstance(self.failure, Exception):
            raise self.failure
        return self.failure


def ai_labels(report):
    return {(v["domain"], v["task"]) for v in report["verdicts"] if v["is_ai"]}


class TestWriteBack:
    def test_kb_hit_rewritten_only_when_labels_filled_in(self, tmp_path, mock_gateway):
        path = tmp_path / "kb.jsonl"
        kb = kb_sync(path)
        for text, domain, task in [
            ("com.google.mlkit.vision", None, None),
            ("com.acme.speech", "AudioSpeechProcessing", "Speech Recognition"),
        ]:
            key = KbKey.make(CandidateKind.PACKAGE, text)
            kb.insert(KbRecord(key=key, verdict=VERDICT_AI, analysis="a", domain=domain, task=task))
        texts = ["com.google.mlkit.vision", "com.acme.speech", "com.plain.util"]
        result = run_pipeline(cand_set(texts), PipelineConfig(), kb, mock_gateway)
        classify_components([v for v in result.verdicts if v.is_ai], mock_gateway)
        write_back(result, kb, mock_gateway.model_id)
        kb.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        # one new line for the filled-in KB hit, one for the fresh verdict
        assert [(r["text"], r["domain"], r["task"]) for r in lines[2:]] == [
            ("com.google.mlkit.vision", "ComputerVision", "Object Detection"),
            ("com.plain.util", None, None),
        ]

    def test_real_others_unclassified_answer_is_stored(self):
        raw = json.dumps([{"index": 0, "domain": "Others", "task": "Unclassified"}])
        verdict = ComponentVerdict(candidate=cand("com.x.y"), is_ai=True, analysis="a", rationale="r")
        classify_components([verdict], make_gateway(ScriptedBackend([raw])))
        kb = KnowledgeBase()
        write_back(PipelineResult([verdict]), kb, "scripted")
        record = kb.lookup(verdict.kb_key())
        assert (record.domain, record.task) == ("Others", "Unclassified")

    @pytest.mark.parametrize("failure", ["garbage", BackendUnavailable("down")], ids=["item", "gateway"])
    def test_failed_labeling_is_asked_again_next_run(self, fixture_corpus, failure):
        apks, _, _ = fixture_corpus
        kb, whitelist = KnowledgeBase(), load_whitelist()
        broken = make_gateway(FailingTask(TaskId.CLASSIFY_TAXONOMY, failure))
        first = analyze_app(apks[0], PipelineConfig(), kb, broken, whitelist)
        assert ai_labels(first) == {("Others", "Unclassified")}

        second = analyze_app(apks[0], PipelineConfig(), kb, make_gateway(), whitelist)
        assert ai_labels(second) == {("ComputerVision", "Object Detection")}

    def test_degraded_run_writes_no_ai_record(self, fixture_corpus):
        apks, _, _ = fixture_corpus
        kb = KnowledgeBase()
        gateway = make_gateway(FailingTask(TaskId.ANALYZE, BackendUnavailable("down")))
        report = analyze_app(apks[0], PipelineConfig(order=DTA), kb, gateway, load_whitelist())
        assert report["degraded"] is True
        assert ai_labels(report)  # detection found AI components before the outage
        assert kb.records == {}


class TestIsAiApp:
    def test_empty(self):
        assert is_ai_app([]) is False

    def test_one_positive_among_many(self):
        verdicts = [
            ComponentVerdict(candidate=cand(f"com.x{i}"), is_ai=False) for i in range(49)
        ]
        verdicts.append(
            ComponentVerdict(candidate=cand("com.ai"), is_ai=True, analysis="yes")
        )
        assert is_ai_app(verdicts) is True

    def test_model_suffix_judged_non_ai_excludes_app(self, mock_gateway):
        # the only indicator is a bare ".model" asset; the mock judges it
        # non-AI, so the app does not count as an AI app
        cs = cand_set(["assets/pose.model"], kind=CandidateKind.MODEL_ASSET)
        result = run_pipeline(cs, PipelineConfig(), KnowledgeBase(), mock_gateway)
        assert [v.is_ai for v in result.verdicts] == [False]
        assert is_ai_app(result.verdicts) is False


_marker_tokens = st.sampled_from(
    ["com.google.mlkit", "org.tensorflow", "com.acme.speech", "ar.nlp.token"]
)
_plain_tokens = st.sampled_from(
    ["com.pool.alpha", "com.pool.beta", "net.util.gamma", "io.data.delta"]
)


@given(st.lists(st.one_of(_marker_tokens, _plain_tokens), min_size=1, max_size=12, unique=True))
def test_orders_agree_and_dta_never_costs_more(texts):
    cs = cand_set(list(texts))
    g_atd = make_gateway()
    r_atd = run_pipeline(cs, PipelineConfig(order=ATD), KnowledgeBase(), g_atd)
    g_dta = make_gateway()
    r_dta = run_pipeline(cs, PipelineConfig(order=DTA), KnowledgeBase(), g_dta)
    assert [v.is_ai for v in r_atd.verdicts] == [v.is_ai for v in r_dta.verdicts]
    assert g_dta.call_count <= g_atd.call_count
    non_ai = sum(1 for v in r_atd.verdicts if not v.is_ai)
    if non_ai >= 3:
        assert g_dta.call_count < g_atd.call_count


@pytest.mark.parametrize(
    "function, parameter",
    [
        (load_templates, "few_shot_k"),
        (load_templates, "audience"),
        (classify_components, "batch_size"),
        (curate, "batch_size"),
    ],
)
def test_library_defaults_are_the_pipeline_config_defaults(function, parameter):
    default = inspect.signature(function).parameters[parameter].default
    assert default == getattr(PipelineConfig(), parameter)
