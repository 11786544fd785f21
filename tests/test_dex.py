import struct
import sys

import pytest
from hypothesis import given, strategies as st

from aidiscover.candidates import ApiSignature
from aidiscover.dex import (
    BadDexMagic,
    DexError,
    DexSymbols,
    TruncatedDex,
    descriptor_to_source,
    parse_dex,
)

from conftest import OPENAI_BASE_URL, golden_dex1
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
