import pytest
from hypothesis import given, strategies as st

from aidiscover.curation import (
    AppDescription,
    KeywordList,
    curate,
    keyword_screen,
    load_descriptions,
    load_keywords,
)
from aidiscover.gateway import BackendUnavailable

from conftest import make_gateway
from helpers import ScriptedBackend

WISE_DESCRIPTION = (
    "Wise Chat GPT Pro is the first app to utilize ChatGPT 3.5 Turbo to provide "
    "instant and intelligent responses. With Wise Chat GPT Pro, our AI chatbot "
    "powered by ChatGPT 3.5 Turbo technology answers any question."
)


def desc(text, package="com.example.app"):
    return AppDescription(package_name=package, text=text)


class TestKeywordScreen:
    def test_whole_word_ai_matches(self):
        assert keyword_screen(desc("our AI chatbot powered by ChatGPT"), KeywordList(("ai",)))

    def test_embedded_letters_do_not_match(self):
        assert not keyword_screen(desc("visit Bangkok and Shanghai"), KeywordList(("ai",)))

    def test_empty_description(self):
        assert not keyword_screen(desc(""), KeywordList(("ai",)))

    def test_phrase_match(self):
        kw = KeywordList(("deep learning",))
        assert keyword_screen(desc("Powered by Deep Learning models."), kw)
        assert not keyword_screen(desc("deep in the woods, learning nothing"), kw)

    def test_case_insensitive_and_pure(self):
        kw = KeywordList(("facial recognition",))
        d = desc("FACIAL RECOGNITION unlock")
        assert keyword_screen(d, kw) and keyword_screen(d, kw)

    def test_punctuation_is_a_boundary(self):
        assert keyword_screen(desc("What is AI? Find out!"), KeywordList(("ai",)))

    def test_empty_keyword_list_matches_nothing(self):
        assert not keyword_screen(desc("all about AI"), KeywordList(()))


class TestSemanticScreen:
    """The semantic stage alone: every description below passes the keyword stage."""

    AI = KeywordList(("ai",))

    def test_wise_chatbot_passes(self, mock_gateway):
        wise = desc(WISE_DESCRIPTION)
        assert curate([wise], self.AI, mock_gateway).selected == [wise]

    def test_company_name_only_fails(self, mock_gateway):
        d = desc("Brought to you by AI Holdings LLC, the classic card game you love.")
        result = curate([d], self.AI, mock_gateway)
        assert result.stage1_passed == 1
        assert result.selected == []

    def test_empty_text_fails(self, mock_gateway):
        assert curate([desc("")], self.AI, mock_gateway).selected == []
        assert mock_gateway.call_count == 0

    def test_backend_failure_excludes(self):
        gateway = make_gateway(ScriptedBackend([BackendUnavailable("down")] * 3))
        result = curate([desc(WISE_DESCRIPTION)], self.AI, gateway)
        assert result.stage1_passed == 1
        assert result.selected == []


class TestCurate:
    def planted(self):
        ai = [
            desc(WISE_DESCRIPTION, "com.wise.chat"),
            desc("Scan receipts with machine learning text recognition.", "com.scan.app"),
            desc("An AI chatbot for language practice.", "com.tutor.app"),
        ]
        non_ai = [
            desc("Plan your visit to Bangkok and Shanghai.", "com.travel.app"),
            desc("A simple notebook for shopping lists.", "com.notes.app"),
            # passes stage 1 on the bare word, fails the semantic stage
            desc("Brought to you by AI Holdings LLC, a classic card game.", "com.cards.app"),
            desc("Track your daily hydration goals.", "com.water.app"),
        ]
        return ai, non_ai

    def test_mixed_fixture_keeps_only_planted_ai(self, mock_gateway):
        ai, non_ai = self.planted()
        ordered = [non_ai[0], ai[0], non_ai[1], ai[1], non_ai[2], ai[2], non_ai[3]]
        result = curate(ordered, load_keywords(), mock_gateway)
        assert [d.package_name for d in result.selected] == [
            "com.wise.chat",
            "com.scan.app",
            "com.tutor.app",
        ]
        assert result.stage1_passed == 4  # three AI apps + the AI-Holdings decoy
        assert result.stage2_passed == 3

    def test_empty_keyword_list_blocks_all(self, mock_gateway):
        ai, _ = self.planted()
        result = curate(ai, KeywordList(()), mock_gateway)
        assert result.selected == []
        assert result.stage1_passed == 0
        assert any("empty keyword list" in w for w in result.warnings)
        assert mock_gateway.call_count == 0

    def test_semantic_stage_can_reject_half(self, mock_gateway):
        passing = [desc(WISE_DESCRIPTION, f"com.pass{i}") for i in range(2)]
        rejected = [
            desc(f"Game number {i} made by AI Holdings LLC.", f"com.fail{i}") for i in range(2)
        ]
        result = curate(passing + rejected, KeywordList(("ai",)), mock_gateway)
        assert result.stage1_passed == 4
        assert result.stage2_passed == 2
        assert {d.package_name for d in result.selected} == {"com.pass0", "com.pass1"}

    def test_backend_outage_excludes_all_with_warning(self):
        ai, _ = self.planted()
        gateway = make_gateway(ScriptedBackend([BackendUnavailable("down")] * 10))
        result = curate(ai, KeywordList(("ai", "machine learning")), gateway)
        assert result.selected == []
        assert result.warnings

    @given(st.data())
    def test_monotone_subsets(self, data):
        phrases = ["ai", "machine learning"]
        chunks = data.draw(
            st.lists(
                st.sampled_from(
                    [
                        "an AI chatbot for everyone",
                        "machine learning powered scanner",
                        "a plain note taking app",
                        "travel to Shanghai in style",
                        "brought to you by AI Holdings LLC",
                    ]
                ),
                max_size=8,
            )
        )
        descs = [desc(text, f"com.app{i}") for i, text in enumerate(chunks)]
        gateway = make_gateway()
        result = curate(descs, KeywordList(tuple(phrases)), gateway)
        survivors1 = [d for d in descs if keyword_screen(d, KeywordList(tuple(phrases)))]
        assert set(d.package_name for d in result.selected) <= {
            d.package_name for d in survivors1
        }
        assert len(survivors1) == result.stage1_passed
        # order preservation
        positions = [descs.index(d) for d in result.selected]
        assert positions == sorted(positions)


def test_load_descriptions_roundtrip(tmp_path):
    path = tmp_path / "descs.jsonl"
    path.write_text(
        '{"package_name": "com.a", "text": "hello", "release_date": "2023-04-01"}\n'
        '{"package_name": "com.b", "text": ""}\n'
        "not json at all\n"
        "[1]\n"
        '{"package_name": "com.c", "text": 5}\n'
        '{"package_name": 7, "text": "hello"}\n'
        '{"package_name": "com.d", "text": "hello", "release_date": 20230401}\n',
        encoding="utf-8",
    )
    descs = load_descriptions(path)
    assert [d.package_name for d in descs] == ["com.a", "com.b"]
    assert descs[0].release_date.isoformat() == "2023-04-01"
    assert descs[1].release_date is None


def test_load_descriptions_skips_a_row_holding_a_lone_surrogate(tmp_path, caplog):
    path = tmp_path / "descs.jsonl"
    path.write_text(
        '{"package_name": "com.a", "text": "an AI camera"}\n'
        '{"package_name": "com.b", "text": "an AI \\ud800 camera"}\n'
        '{"package_name": "com.c\\udfff", "text": "hello"}\n'
        '{"package_name": "com.d", "text": "a pair \\ud83d\\ude00 is fine"}\n',
        encoding="utf-8",
    )
    descs = load_descriptions(path)
    assert [d.package_name for d in descs] == ["com.a", "com.d"]
    assert descs[1].text == "a pair \U0001f600 is fine"
    assert [r.message.count("surrogate") for r in caplog.records] == [1, 1]


def test_load_descriptions_skips_a_row_that_is_not_utf8(tmp_path):
    path = tmp_path / "descs.jsonl"
    path.write_bytes(
        '{"package_name": "com.a", "text": "caf\u00e9"}\n'.encode("latin-1")
        + '{"package_name": "com.b", "text": "caf\u00e9"}\n'.encode("utf-8")
    )
    [desc] = load_descriptions(path)
    assert (desc.package_name, desc.text) == ("com.b", "caf\u00e9")


def test_load_default_keywords():
    kw = load_keywords()
    assert "ai" in kw.terms
    assert "deep learning" in kw.terms
    assert "text classification" in kw.terms
    assert "facial recognition" in kw.terms
