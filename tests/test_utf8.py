import json

import pytest
from hypothesis import given, strategies as st

from aidiscover import utf8
from aidiscover.utf8 import NOT_UTF8, jsonl_lines, loads

# st.text() draws no surrogate code point, so these values hold none.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12,
)
# Exactly one lone surrogate per string, so no two can pair up once escaped.
_SURROGATE_TEXT = st.builds(
    lambda head, point, tail: head + chr(point) + tail,
    st.text(max_size=4),
    st.integers(0xD800, 0xDFFF),
    st.text(max_size=4),
)
# A JSON value with a surrogate string somewhere in it, as a value or a key.
_HOLDS_SURROGATE = st.recursive(
    _SURROGATE_TEXT | st.builds(lambda key, value: {key: value}, _SURROGATE_TEXT, _JSON),
    lambda inner: st.builds(
        lambda before, held, after: [*before, held, *after],
        st.lists(_JSON, max_size=2), inner, st.lists(_JSON, max_size=2),
    ) | st.builds(
        lambda others, key, held: {**others, key: held},
        st.dictionaries(st.text(), _JSON, max_size=2), st.text(), inner,
    ),
    max_leaves=6,
)


@given(_JSON, st.booleans(), st.sampled_from([None, 2]))
def test_loads_equals_json_loads_on_a_value_without_a_surrogate(value, ensure_ascii, indent):
    raw = json.dumps(value, ensure_ascii=ensure_ascii, indent=indent)
    assert loads(raw) == json.loads(raw)


@given(_HOLDS_SURROGATE, st.booleans())
def test_loads_refuses_a_value_holding_a_lone_surrogate_raw_or_escaped(value, ensure_ascii):
    raw = json.dumps(value, ensure_ascii=ensure_ascii)
    assert utf8.holds_surrogate(raw) != ensure_ascii  # the surrogate is raw, or escaped
    with pytest.raises(ValueError, match=NOT_UTF8) as refused:
        loads(raw)
    assert not isinstance(refused.value, json.JSONDecodeError)


@pytest.mark.parametrize("opener, closer", [("[", "]"), ('{"k\\n": ', "}")])
def test_loads_refuses_json_nested_past_the_recursion_limit(opener, closer):
    with pytest.raises(ValueError, match="recursion"):
        loads(opener * 100_000 + "1" + closer * 100_000)


_LINE = st.binary(max_size=12) | st.sampled_from(
    [b"", b" ", b"\t \r", b' {"a": 1}\t', b"caf\xe9", b"\xe2\x82", b"\xe2\x80\x83x"]
)


@given(st.lists(_LINE, max_size=12))
def test_jsonl_lines_numbers_the_non_blank_lines_as_a_naive_enumerate(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "jsonl_lines.jsonl"
    path.write_bytes(b"\n".join(lines))
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        expected = [(n, line.strip()) for n, line in enumerate(fh, start=1) if line.strip()]
    with jsonl_lines(path) as numbered:
        assert list(numbered) == expected


def test_jsonl_lines_closes_its_file_when_the_caller_raises_mid_file(tmp_path, monkeypatch):
    handles = []

    def recording_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(utf8, "open", recording_open, raising=False)
    path = tmp_path / "log.jsonl"
    path.write_text("1\n\n2\n3\n", encoding="utf-8")
    seen = []
    with pytest.raises(RuntimeError, match="stop"):
        with jsonl_lines(path) as numbered:
            for lineno, line in numbered:
                seen.append((lineno, line))
                if line == "2":
                    assert not handles[0].closed
                    raise RuntimeError("stop")
    assert seen == [(1, "1"), (3, "2")]
    assert handles[0].closed
