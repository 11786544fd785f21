import functools
import struct
import sys

import pytest
from hypothesis import given, strategies as st

from aidiscover.apk import open_apk
from aidiscover.candidates import ApiSignature, CandidateKind, extract_candidates
from aidiscover.dex import (
    BadDexMagic,
    DexError,
    DexSymbols,
    TruncatedDex,
    descriptor_to_source,
    parse_dex,
)

from conftest import OPENAI_BASE_URL, golden_dex1
import helpers
from helpers import DexBuilder


@pytest.mark.parametrize(
    "descriptor,source",
    [
        ("V", "void"),
        ("I", "int"),
        ("[I", "int[]"),
        ("[[J", "long[][]"),
        ("Ljava/lang/String;", "java.lang.String"),
        ("[Lcom/x/Y;", "com.x.Y[]"),
    ],
)
def test_descriptor_to_source(descriptor, source):
    assert descriptor_to_source(descriptor) == source


def test_a_deep_array_descriptor_renders_every_dimension():
    depth = 3_000_000
    assert descriptor_to_source("[" * depth + "Lcom/x/Y;") == "com.x.Y" + "[]" * depth


def test_parse_golden_dex_tables():
    symbols = parse_dex(golden_dex1())
    assert OPENAI_BASE_URL in symbols.strings
    assert set(symbols.class_names) == {
        "com.example.Foo",
        "d.f.e.x.b",
        "java.lang.Object",
        "com.google.firebase.ml.vision.objects.FirebaseVisionObjectDetector",
    }
    assert set(symbols.defined_class_names) == {"com.example.Foo", "d.f.e.x.b"}
    rendered = {ApiSignature.render(m) for m in symbols.methods}
    assert rendered == {
        "<com.example.Foo: void bar()>",
        "<d.f.e.x.b: void <init>(int)>",
    }


def test_method_with_parameters_renders_in_order():
    dex = (
        DexBuilder()
        .add_class("com.a.B", [("java.lang.String", "join", ["int", "java.lang.String", "byte[]"])])
        .build()
    )
    symbols = parse_dex(dex)
    rendered = {ApiSignature.render(m) for m in symbols.methods}
    assert rendered == {"<com.a.B: java.lang.String join(int,java.lang.String,byte[])>"}


def test_method_columns_read_alike_on_a_big_endian_host(monkeypatch):
    # Enough classes and names that some indexes need both bytes of their word.
    builder = DexBuilder()
    for i in range(300):
        builder.add_class(f"com.a.C{i}", [("int", f"m{i}", ["long"])])
    dex = builder.build()
    native = list(parse_dex(dex).methods)
    monkeypatch.setattr(sys, "byteorder", "big")
    assert list(parse_dex(dex).methods) == native
    assert sorted(native) == sorted((f"com.a.C{i}", "int", f"m{i}", ["long"]) for i in range(300))


def test_bad_magic():
    with pytest.raises(BadDexMagic):
        parse_dex(b"ZIPPY not dex at all" + b"\x00" * 200)


def test_truncated_file_size_mismatch():
    dex = golden_dex1()
    with pytest.raises(TruncatedDex):
        parse_dex(dex[:-8])


def test_table_offset_out_of_bounds():
    blob = bytearray(golden_dex1())
    # point string_ids_off past the end of the file
    struct.pack_into("<I", blob, 0x3C, len(blob) + 1000)
    with pytest.raises(TruncatedDex):
        parse_dex(bytes(blob))


def test_string_offset_out_of_bounds():
    blob = bytearray(golden_dex1())
    string_ids_off = struct.unpack_from("<I", blob, 0x3C)[0]
    struct.pack_into("<I", blob, string_ids_off, len(blob) + 5)
    with pytest.raises(TruncatedDex):
        parse_dex(bytes(blob))


def test_multidex_shared_reference():
    # the same class defined in one dex and referenced from another parses
    # to the same source name in both
    a = DexBuilder().add_class("com.shared.Thing", [("void", "go", [])]).build()
    b = DexBuilder().add_referenced_class("com.shared.Thing").build()
    assert "com.shared.Thing" in parse_dex(a).defined_class_names
    symbols_b = parse_dex(b)
    assert "com.shared.Thing" in symbols_b.class_names
    assert "com.shared.Thing" not in symbols_b.defined_class_names


# Size and offset words of the string, type, proto, field, method and class tables.
_TABLE_HEADER_FIELDS = list(range(0x38, 0x68, 4))


@given(
    st.dictionaries(
        st.sampled_from(_TABLE_HEADER_FIELDS),
        st.one_of(st.integers(0, 0x400), st.integers(0, 2**32 - 1)),
        max_size=4,
    ),
    st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)), max_size=8),
)
def test_mutated_dex_raises_only_dex_errors(fields, flips):
    blob = bytearray(golden_dex1())
    for off, value in fields.items():
        struct.pack_into("<I", blob, off, value)
    for pos, mask in flips:
        blob[pos % len(blob)] ^= mask
    try:
        symbols = parse_dex(bytes(blob))
    except DexError:
        return
    assert isinstance(symbols, DexSymbols)


def _deep_array_dex(depth: int, methods: int) -> bytes:
    builder = DexBuilder()
    builder.add_class("com.acme.Deep", [("void", f"take{i}", ["int" + "[]" * depth]) for i in range(methods)])
    return builder.build()


@pytest.mark.parametrize("depth", [255, 256])
def test_a_type_may_have_at_most_255_array_dimensions(depth):
    blob = _deep_array_dex(depth, 1)
    if depth > 255:
        with pytest.raises(DexError, match="more than 255 array dimensions"):
            parse_dex(blob)
        return
    (method,) = parse_dex(blob).methods
    assert ApiSignature.render(method) == f"<com.acme.Deep: void take0(int{'[]' * depth})>"


def test_a_dex_of_deep_array_parameters_is_skipped_before_any_text_is_built(tmp_path, monkeypatch):
    # The builder's descriptor of a 20,000-deep array is quadratic to make; make each one once.
    monkeypatch.setattr(helpers, "type_descriptor", functools.lru_cache(maxsize=None)(helpers.type_descriptor))
    # 2,000 methods, each taking one 20,000-deep int array: 47 KB of DEX that would
    # otherwise render 80 MB of API text.
    blob = _deep_array_dex(20_000, 2_000)
    assert len(blob) < 64 * 1024
    with open_apk(helpers.build_apk(tmp_path / "deep.apk", [("classes.dex", blob)])) as archive:
        cand_set = extract_candidates(archive, "deep")
    (warning,) = cand_set.warnings
    assert warning.startswith("classes.dex: dex parse failed (type_id ") and warning.endswith(
        " has more than 255 array dimensions)"
    )
    assert not [c for c in cand_set.candidates if c.kind == CandidateKind.API]
