import json
import tempfile

from hypothesis import given, strategies as st

from aidiscover.report import read_report, render_json, write_report


def reference_render(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)


# Strings full of what the renderer must not mistake for structure: quotes,
# backslashes, braces, control characters, non-BMP text, and the row boundary
# itself as literal text.
_text = st.one_of(
    st.text(
        alphabet=st.one_of(
            st.sampled_from(['"', "\\", "{", "}", "[", "]", ",", ":", " ", "\n", "\t", "\x00", "\x1f", "\x7f"]),
            st.sampled_from([" ", "é", "\U0001f600", "\U00010000"]),
            st.characters(),
        ),
        max_size=12,
    ),
    st.just('"},\n      {"'),
)
_optional_text = st.none() | _text
_row = st.fixed_dictionaries(
    {
        "kind": _text,
        "text": _text,
        "occurrences": st.integers(min_value=0),
        "source": _text,
        "is_ai": st.booleans(),
        "analysis": _optional_text,
        "rationale": _optional_text,
        "provenance": _text,
        "domain": _optional_text,
        "task": _optional_text,
    }
)
_reports = st.fixed_dictionaries(
    {
        "schema_version": st.integers(),
        "app_id": st.sampled_from(["app", "com.example.app"]),
        "is_ai_app": st.booleans(),
        "verdicts": st.lists(_row, max_size=4),
        "summary": _text,
        "capabilities": st.lists(_text, max_size=3),
        "kind_counts": st.dictionaries(_text, st.integers(0, 99), max_size=3),
        "app_label": st.none() | st.fixed_dictionaries({"domain": _text, "task": _text}),
        "obfuscation": st.fixed_dictionaries(
            {
                "file_name_ratio": st.floats(0, 1),
                "dir_name_ratio": st.floats(0, 1),
                "total_classes": st.integers(0, 10**6),
            }
        ),
        "warnings": st.lists(_text, max_size=3),
        "degraded": st.booleans(),
        "generated_at": _text,
    }
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=20,
)


@given(_reports)
def test_render_json_equals_indented_json_dumps_on_reports(report):
    assert render_json(report) == reference_render(report)


@given(_json_values)
def test_render_json_equals_indented_json_dumps_on_any_json_value(value):
    assert render_json(value) == reference_render(value)


@given(_reports)
def test_written_report_is_the_reference_bytes_and_reads_back(report):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_report(report, tmp)
        assert path.read_bytes() == (reference_render(report) + "\n").encode("utf-8")
        assert read_report(path) == report
