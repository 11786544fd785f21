import json
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import aidiscover.gateway
import aidiscover.taxonomy
from aidiscover.backends import MockBackend
from aidiscover.candidates import Candidate, CandidateKind
from aidiscover.gateway import BackendUnavailable, ContextOverflow, GatewayError, SamplingConfig
from aidiscover.kb import VERDICT_AI, KbKey, KnowledgeBase
from aidiscover.pipeline import ComponentVerdict, PipelineResult, write_back
from aidiscover.taxonomy import (
    NO_AI_SUMMARY,
    SUMMARY_UNAVAILABLE,
    AppAggregate,
    DomainLabel,
    EmptyLabels,
    AiServiceReport,
    UNCLASSIFIED,
    TaxonomyLabel,
    aggregate_stats,
    classify_app,
    classify_components,
    label_of,
    normalize_task,
    parse_domain,
    summarize_app,
)

from conftest import make_gateway
from helpers import ScriptedBackend

CV = DomainLabel.COMPUTER_VISION
DA = DomainLabel.DATA_ANALYSIS
NLP = DomainLabel.NATURAL_LANGUAGE_PROCESSING
ASP = DomainLabel.AUDIO_SPEECH_PROCESSING
AR = DomainLabel.AUGMENTED_REALITY
OTHERS = DomainLabel.OTHERS


def ai_verdict(text, kind=CandidateKind.PACKAGE, analysis="does things", occurrences=1):
    return ComponentVerdict(
        candidate=Candidate(kind, text, "classes.dex", occurrences),
        is_ai=True,
        analysis=analysis,
        rationale="r",
    )


class TestParseDomain:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Computer Vision", CV),
            ("computervision", CV),
            ("CV", CV),
            ("Data Analysis", DA),
            ("Natural Language Processing", NLP),
            ("Audio and Speech Processing", ASP),
            ("AugmentedReality", AR),
            ("Others", OTHERS),
            ("Quantum Sorcery", OTHERS),
            ("", OTHERS),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_domain(text) is expected

    def test_normalize_task(self):
        assert normalize_task("  object   detection ") == "Object Detection"
        assert normalize_task("") == "Unclassified"

    def test_label_of_normalizes_both_parts_or_falls_back(self):
        assert label_of("computer vision", " object   detection") == TaxonomyLabel(CV, "Object Detection")
        assert label_of("cv", "Object Detection") == label_of("ComputerVision", "object detection")
        for domain, task in ((None, "Object Detection"), ("cv", ""), (None, None)):
            assert label_of(domain, task) is UNCLASSIFIED


LABEL_PARTS = st.sampled_from([None, "", "cv", "Computer Vision", "nlp", "Alchemy", " object  detection", "OCR"])


class DownBackend:
    model_id = "down"

    def complete(self, request):
        raise BackendUnavailable("down")


class TestClassifyComponent:
    def test_mlkit_object_detection(self, mock_gateway):
        [label] = classify_components(
            [
                ai_verdict(
                    "com.google.mlkit.vision.objects",
                    analysis="Google's ML Kit API for object detection and tracking in images and videos",
                )
            ],
            mock_gateway,
        )
        assert label == TaxonomyLabel(CV, "Object Detection")

    def test_tensor_component_is_data_processing(self, mock_gateway):
        [label] = classify_components(
            [ai_verdict("org.tensorflow.lite.TensorBuffer", analysis="tensor operations")],
            mock_gateway,
        )
        assert label == TaxonomyLabel(DA, "Data Processing")

    def test_wordpiece_is_nlp_tokenization(self, mock_gateway):
        [label] = classify_components(
            [ai_verdict("nlp.WordPieceModelPB", analysis="WordPiece tokenizer")], mock_gateway
        )
        assert label.domain is NLP
        assert "Tokenization" in label.task

    def test_unknown_domain_string_maps_to_others(self):
        raw = json.dumps([{"index": 0, "domain": "Alchemy", "task": "gold making"}])
        gateway = make_gateway(ScriptedBackend([raw]))
        [label] = classify_components([ai_verdict("com.x.y")], gateway)
        assert label == TaxonomyLabel(OTHERS, "Gold Making")

    def test_gateway_failure_yields_unclassified(self):
        gateway = make_gateway(ScriptedBackend(["garbage"] * 10))
        verdict = ai_verdict("com.x.y")
        [label] = classify_components([verdict], gateway)
        assert label == TaxonomyLabel(OTHERS, "Unclassified")
        # the fallback is not set on the verdict, so write_back cannot store it
        assert verdict.domain is None and verdict.task is None

    def test_labels_cached_into_kb(self, mock_gateway):
        kb = KnowledgeBase()
        verdict = ai_verdict("com.google.mlkit.vision.objects", analysis="object detection kit")
        classify_components([verdict], mock_gateway)
        write_back(PipelineResult([verdict]), kb, mock_gateway.model_id)
        record = kb.lookup(KbKey.make(CandidateKind.PACKAGE, "com.google.mlkit.vision.objects"))
        assert record is not None
        assert record.verdict == VERDICT_AI
        assert record.domain == CV.value
        assert record.task == "Object Detection"

    def test_prelabeled_verdicts_skip_backend(self, mock_gateway):
        verdict = ai_verdict("com.any.thing")
        verdict.domain = "ComputerVision"
        verdict.task = "Face Recognition"
        labels = classify_components([verdict], mock_gateway)
        assert labels == [TaxonomyLabel(CV, "Face Recognition")]
        assert mock_gateway.call_count == 0

    def test_prelabeled_verdict_gets_its_labels_normalized(self, mock_gateway):
        verdict = ai_verdict("com.any.thing")
        verdict.domain, verdict.task = "computer vision", "face  recognition"
        assert classify_components([verdict], mock_gateway) == [TaxonomyLabel(CV, "Face Recognition")]
        assert (verdict.domain, verdict.task) == ("ComputerVision", "Face Recognition")

    def test_reply_missing_a_part_leaves_the_verdict_unlabeled(self):
        raw = json.dumps([{"index": 0, "domain": "", "task": "gold making"}])
        verdict = ai_verdict("com.x.y")
        [label] = classify_components([verdict], make_gateway(ScriptedBackend([raw])))
        assert label is UNCLASSIFIED
        assert verdict.domain is None and verdict.task is None


    @given(st.lists(st.tuples(LABEL_PARTS, LABEL_PARTS), max_size=30))
    def test_labels_equal_the_per_verdict_rule(self, pairs):
        verdicts = [ai_verdict(f"com.x{i}") for i in range(len(pairs))]
        for verdict, (domain, task) in zip(verdicts, pairs):
            verdict.domain, verdict.task = domain, task
        # The backend is down, so unlabeled verdicts keep the pair they had.
        labels = classify_components(verdicts, make_gateway(DownBackend()))
        assert labels == [label_of(domain, task) for domain, task in pairs]

    def test_parse_domain_runs_once_per_distinct_pair(self, mock_gateway, monkeypatch):
        calls = Counter()
        parse = aidiscover.taxonomy.parse_domain
        monkeypatch.setattr(aidiscover.taxonomy, "parse_domain", lambda text: calls.update([text]) or parse(text))
        pairs = [("cv", "ocr"), ("nlp", "tokenization"), ("cv", "face recognition")] * 4
        verdicts = [ai_verdict(f"com.x{i}") for i in range(len(pairs))]
        for verdict, (domain, task) in zip(verdicts, pairs):
            verdict.domain, verdict.task = domain, task
        classify_components(verdicts, mock_gateway)
        assert calls == Counter({"cv": 2, "nlp": 1})
        assert mock_gateway.call_count == 0


class TestClassifyApp:
    def test_strict_mode(self):
        assert classify_app([TaxonomyLabel(CV, "A"), TaxonomyLabel(CV, "A"), TaxonomyLabel(DA, "B")]).domain is CV

    def test_precedence_tie_break(self):
        assert classify_app([TaxonomyLabel(CV, "A"), TaxonomyLabel(DA, "B")]).domain is CV
        assert classify_app([TaxonomyLabel(AR, "A"), TaxonomyLabel(DA, "B")]).domain is DA

    def test_task_mode_within_winner(self):
        labels = [TaxonomyLabel(DA, "Data Processing")] * 3 + [TaxonomyLabel(DA, "Forecasting")]
        assert classify_app(labels) == TaxonomyLabel(DA, "Data Processing")

    def test_empty_raises(self):
        with pytest.raises(EmptyLabels):
            classify_app([])

    @given(
        st.lists(
            st.builds(
                TaxonomyLabel,
                st.sampled_from([CV, DA, NLP, ASP, AR, OTHERS]),
                st.sampled_from(["Alpha", "Beta", "Gamma"]),
            ),
            min_size=1,
            max_size=20,
        ),
        st.randoms(),
    )
    def test_permutation_invariant(self, labels, rng):
        baseline = classify_app(labels)
        shuffled = list(labels)
        rng.shuffle(shuffled)
        assert classify_app(shuffled) == baseline

    @given(
        st.lists(
            st.builds(
                TaxonomyLabel,
                st.sampled_from([CV, DA, NLP]),
                st.sampled_from(["Alpha", "Beta"]),
            ),
            min_size=1,
            max_size=10,
        ),
        st.integers(min_value=2, max_value=5),
    )
    def test_scaling_invariant(self, labels, factor):
        assert classify_app(labels * factor) == classify_app(labels)


class TestSummarizeApp:
    def test_empty_verdicts(self, mock_gateway):
        report = summarize_app("app", [], mock_gateway)
        assert report.summary == NO_AI_SUMMARY
        assert report.capabilities == []
        assert report.kind_counts == {}
        assert mock_gateway.call_count == 0

    def test_two_packages_summary_contains_both_phrases(self, mock_gateway):
        verdicts = [
            ai_verdict("com.google.mlkit.vision.objects", analysis="object detection kit"),
            ai_verdict("nlp.WordPieceModelPB", analysis="wordpiece tokenizer"),
        ]
        report = summarize_app("app", verdicts, mock_gateway)
        assert "object detection and tracking" in report.capabilities
        assert "text tokenization" in report.capabilities
        assert "object detection and tracking" in report.summary
        assert "text tokenization" in report.summary

    def test_api_subsumed_by_parent_package(self):
        backend = ScriptedBackend([json.dumps({"summary": "s", "capabilities": []})])
        gateway = make_gateway(backend)
        verdicts = [ai_verdict("com.google.mlkit.vision.objects")] + [
            ai_verdict(
                f"<com.google.mlkit.vision.objects.Detector: void m{i}()>",
                kind=CandidateKind.API,
            )
            for i in range(40)
        ]
        report = summarize_app("app", verdicts, gateway)
        items = backend.requests[0].items
        assert len(items) == 1
        assert items[0].startswith("com.google.mlkit.vision.objects")
        # every AI verdict still counts, prompt omission notwithstanding
        assert sum(report.kind_counts.values()) == 41
        assert report.kind_counts == {CandidateKind.PACKAGE: 1, CandidateKind.API: 40}

    def test_api_under_a_longer_sibling_package_is_kept(self):
        backend = ScriptedBackend([json.dumps({"summary": "s", "capabilities": []})])
        verdicts = [
            ai_verdict("com.a"),
            ai_verdict("<com.ab.C: void m()>", kind=CandidateKind.API),
            ai_verdict("<com.a.C: void m()>", kind=CandidateKind.API),
        ]
        summarize_app("app", verdicts, make_gateway(backend))
        texts = sorted(item.split(" :: ")[0] for item in backend.requests[0].items)
        assert texts == ["<com.ab.C: void m()>", "com.a"]

    def test_api_without_ai_parent_is_kept(self):
        backend = ScriptedBackend([json.dumps({"summary": "s", "capabilities": []})])
        gateway = make_gateway(backend)
        verdicts = [
            ai_verdict("com.other.pkg"),
            ai_verdict("<com.lonely.ml.Engine: void infer()>", kind=CandidateKind.API),
        ]
        summarize_app("app", verdicts, gateway)
        assert len(backend.requests[0].items) == 2

    def test_truncation_drops_lowest_occurrence_first(self):
        backend = ScriptedBackend(
            [json.dumps({"summary": "s", "capabilities": ["kept"]})]
        )
        gateway = make_gateway(backend)
        verdicts = [
            ai_verdict("com.big.one", analysis="x" * 3000, occurrences=5),
            ai_verdict("com.big.two", analysis="y" * 3000, occurrences=3),
            ai_verdict("com.big.three", analysis="z" * 3000, occurrences=1),
        ]
        report = summarize_app("app", verdicts, gateway)
        assert report.summary == "s"
        items = backend.requests[0].items
        assert any(item.startswith("com.big.one") for item in items)
        assert not any(item.startswith("com.big.three") for item in items)

    def test_backend_failure_degrades(self):
        gateway = make_gateway(ScriptedBackend(["nonsense"] * 10))
        verdicts = [ai_verdict("com.google.mlkit.vision", analysis="vision kit")]
        report = summarize_app("app", verdicts, gateway)
        assert report.summary == SUMMARY_UNAVAILABLE
        assert report.capabilities == ["vision kit"]
        assert report.degraded is True


def reference_component_line(verdict):
    analysis = verdict.analysis or ""
    return f"{verdict.candidate.text} :: {analysis}" if analysis else verdict.candidate.text


def reference_subsumed_by_package(verdict, ai_packages):
    """Reference rule: is the API's package an AI package or inside one, by prefix scan?"""
    if verdict.candidate.kind != CandidateKind.API:
        return False
    match = re.match(r"^<([^:>]+):", verdict.candidate.text)
    pkg = match.group(1).strip().rpartition(".")[0] if match else ""
    return bool(pkg) and any(pkg == p or pkg.startswith(p + ".") for p in ai_packages)


def reference_summarize_app(app_id, ai_verdicts, gateway):
    """summarize_app as a pop-one loop: after each ContextOverflow, drop the
    lowest-ranked component and render the whole prompt again. Quadratic, but
    plainly right; summarize_app must send the same requests and return the
    same report."""
    kind_counts = dict(Counter(v.candidate.kind for v in ai_verdicts))
    if not ai_verdicts:
        return AiServiceReport(app_id=app_id, summary=NO_AI_SUMMARY, kind_counts=kind_counts)
    ai_packages = {
        v.candidate.text for v in ai_verdicts if v.candidate.kind == CandidateKind.PACKAGE
    }
    included = [v for v in ai_verdicts if not reference_subsumed_by_package(v, ai_packages)]
    included.sort(
        key=lambda v: (
            -v.candidate.occurrences,
            CandidateKind.sort_key(v.candidate.kind),
            v.candidate.text,
        )
    )
    while included:
        try:
            payload = gateway.run_summary([reference_component_line(v) for v in included])
        except ContextOverflow:
            included.pop()
            continue
        except GatewayError:
            return AiServiceReport(
                app_id=app_id,
                summary=SUMMARY_UNAVAILABLE,
                capabilities=[v.analysis for v in included if v.analysis],
                kind_counts=kind_counts,
                degraded=True,
            )
        return AiServiceReport(
            app_id=app_id,
            summary=payload["summary"],
            capabilities=list(payload["capabilities"]),
            kind_counts=kind_counts,
        )
    return AiServiceReport(
        app_id=app_id,
        summary=SUMMARY_UNAVAILABLE,
        capabilities=[v.analysis for v in ai_verdicts if v.analysis],
        kind_counts=kind_counts,
        degraded=True,
    )


class RecordingBackend:
    """Mock answers, or malformed JSON every time; records each request."""

    model_id = "recording"

    def __init__(self, malformed):
        self.inner = MockBackend()
        self.malformed = malformed
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return "no json here" if self.malformed else self.inner.complete(request)


# "com.ml" is often an AI package, so APIs under it are often subsumed;
# "com.mlkit" starts with it but is not inside it.
_PACKAGES = ("com.ml", "com.ml.vision", "com.mlkit", "org.speech", "net.util")
_verdicts = st.lists(
    st.builds(
        lambda api, pkg, name, occurrences, char, size: ai_verdict(
            f"<{pkg}.{name}: void run()>" if api else pkg,
            kind=CandidateKind.API if api else CandidateKind.PACKAGE,
            analysis=char * size,
            occurrences=occurrences,
        ),
        st.booleans(),
        st.sampled_from(_PACKAGES),
        st.sampled_from(("Detector", "Tokenizer", "Engine")),
        st.integers(min_value=1, max_value=5),
        st.sampled_from("xyz"),
        st.integers(min_value=0, max_value=3000),
    ),
    max_size=40,
)


class TestSummaryTruncation:
    @settings(max_examples=200, deadline=None)
    @given(
        _verdicts,
        st.one_of(
            st.integers(min_value=64, max_value=8192),
            st.integers(min_value=64, max_value=200_000),
        ),
        st.booleans(),
    )
    def test_matches_pop_one_reference(self, verdicts, max_context_tokens, malformed):
        sampling = SamplingConfig(max_context_tokens=max_context_tokens)
        sent = []
        reports = []
        for summarize in (summarize_app, reference_summarize_app):
            backend = RecordingBackend(malformed)
            report = summarize("app", verdicts, make_gateway(backend, sampling=sampling))
            sent.append([(r.items, r.prompt) for r in backend.requests])
            reports.append(
                (report.summary, report.capabilities, report.kind_counts, report.degraded)
            )
        assert sent[0] == sent[1]
        assert reports[0] == reports[1]

    def test_renders_logarithmically_many_prompts(self, monkeypatch):
        renders = []
        render = aidiscover.gateway.render_prompt

        def spy(*args, **kwargs):
            renders.append(1)
            return render(*args, **kwargs)

        monkeypatch.setattr(aidiscover.gateway, "render_prompt", spy)
        verdicts = [ai_verdict(f"com.vendor{i:04d}.ml") for i in range(2000)]
        report = summarize_app("app", verdicts, make_gateway())
        assert not report.degraded
        assert len(renders) <= math.ceil(math.log2(2000)) + 2


class TestAggregateStats:
    def test_single_app_even_split(self):
        labels = [TaxonomyLabel(CV, "A")] * 2 + [TaxonomyLabel(DA, "B")] * 2
        stats = aggregate_stats([AppAggregate(app_id="a", labels=labels)])
        assert stats.component_domain_dist == {CV: 0.5, DA: 0.5}

    def test_app_domain_counts(self):
        apps = [
            AppAggregate(app_id="a", app_label=TaxonomyLabel(DA, "X")),
            AppAggregate(app_id="b", app_label=TaxonomyLabel(DA, "Y")),
            AppAggregate(app_id="c", app_label=TaxonomyLabel(CV, "Z")),
        ]
        stats = aggregate_stats(apps)
        assert stats.app_domain_counts == {DA: 2, CV: 1}

    def test_kind_totals_grouping(self):
        apps = [
            AppAggregate(
                app_id="a",
                kind_counts={
                    CandidateKind.PACKAGE: 3,
                    CandidateKind.API: 7,
                    CandidateKind.MODEL_ASSET: 2,
                },
            ),
            AppAggregate(
                app_id="b",
                kind_counts={CandidateKind.HTTPS_REQUEST: 1, CandidateKind.OTHER: 1},
            ),
        ]
        stats = aggregate_stats(apps)
        assert stats.kind_totals == {
            "package_api": 10,
            "model": 2,
            "http_request": 1,
            "others": 1,
            "total": 14,
        }

    def test_distributions_sum_to_one(self):
        labels = [
            TaxonomyLabel(CV, "A"),
            TaxonomyLabel(CV, "B"),
            TaxonomyLabel(DA, "C"),
            TaxonomyLabel(NLP, "D"),
            TaxonomyLabel(NLP, "D"),
        ]
        stats = aggregate_stats([AppAggregate(app_id="a", labels=labels)])
        assert sum(stats.component_domain_dist.values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(stats.component_task_dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_corpus(self):
        stats = aggregate_stats([])
        assert stats.component_domain_dist == {}
        assert stats.kind_totals["total"] == 0
