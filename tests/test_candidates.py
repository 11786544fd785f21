import copy
import dataclasses
import json
import re
import shutil
import struct
import subprocess
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from aidiscover import candidates
from aidiscover.apk import open_apk
from aidiscover.candidates import (
    _counted,
    _is_clean_signature,
    _is_clean_text,
    _is_clean_url,
    _urls_in,
    ApiSignature,
    Candidate,
    CandidateKind,
    candidates_from_symbols,
    dotted_prefixes,
    extract_asset_candidates,
    extract_candidates,
    extract_native_candidates,
    find_urls,
    measure_obfuscation,
    merge_candidates,
    package_of,
)
from aidiscover.dex import MethodRef, TruncatedDex, parse_dex
from aidiscover.kb import VERDICT_NON_AI, KbKey, KbRecord, KnowledgeBase
from aidiscover.pipeline import PipelineConfig, run_pipeline
from aidiscover.native import BadElfMagic, ElfScan, scan_elf_strings
from aidiscover.whitelist import Whitelist, apply_whitelist, parse_whitelist

from conftest import MUTATIONS, OPENAI_BASE_URL, OPENAI_CHAT_URL, golden_dex1, golden_elf, make_gateway, mutate
from helpers import DexBuilder, _mutf8, _uleb128, build_apk, build_elf32_msb, build_elf64


def by_kind(cands, kind):
    return [c for c in cands if c.kind == kind]


def test_extract_dex_candidates_golden():
    cands = candidates_from_symbols(parse_dex(golden_dex1()), "classes.dex")
    packages = {c.text: c.occurrences for c in by_kind(cands, CandidateKind.PACKAGE)}
    assert packages == {
        "com.example": 1,
        "d.f.e.x": 1,
        "java.lang": 1,
        "com.google.firebase.ml.vision.objects": 1,
    }
    apis = {c.text for c in by_kind(cands, CandidateKind.API)}
    assert apis == {
        "<com.example.Foo: void bar()>",
        "<d.f.e.x.b: void <init>(int)>",
    }
    urls = {c.text for c in by_kind(cands, CandidateKind.HTTPS_REQUEST)}
    assert urls == {OPENAI_BASE_URL}


def test_default_package_class_yields_no_package_candidate():
    dex = DexBuilder().add_class("Standalone", [("void", "main", [])]).build()
    cands = candidates_from_symbols(parse_dex(dex), "classes.dex")
    assert {c.text for c in by_kind(cands, CandidateKind.PACKAGE)} == {"java.lang"}


def _strings_scan_urls(blob: bytes) -> set[str]:
    # independent oracle: a naive strings(1)-style pass over the raw bytes
    found = set()
    for run in re.findall(rb"[\x20-\x7e]{8,}", blob):
        found.update(find_urls(run.decode("ascii")))
    return found


def test_extract_native_candidates_golden():
    blob = golden_elf()
    cands = extract_native_candidates(blob, source="lib/arm64-v8a/libinfer.so")
    assert [c.text for c in cands] == [OPENAI_CHAT_URL]
    assert _strings_scan_urls(blob) == {c.text for c in cands}


def test_native_counts_duplicate_urls():
    url = b"https://api.openai.com/v1/embeddings"
    blob = build_elf64(b"\x00".join([url, b"filler-filler", url]))
    cands = extract_native_candidates(blob)
    assert len(cands) == 1
    assert cands[0].occurrences == 2


def test_native_no_urls():
    blob = build_elf64(b"plain strings only, nothing resembling an endpoint")
    assert extract_native_candidates(blob) == []


def test_native_rejects_non_elf():
    with pytest.raises(BadElfMagic):
        extract_native_candidates(b"MZ it is not an elf " * 4)


def test_native_big_endian_32bit():
    blob = build_elf32_msb(b"pad\x00https://api.openai.com/v1/\x00pad")
    cands = extract_native_candidates(blob)
    assert [c.text for c in cands] == ["https://api.openai.com/v1/"]


def test_native_corrupt_section_skipped():
    blob = bytearray(build_elf64(b"\x00https://a.example.com/path\x00"))
    # e_shoff -> garbage makes the section table unusable; whole-file scan
    # fallback still finds the URL
    blob[0x28:0x30] = (len(blob) * 3).to_bytes(8, "little")
    cands = extract_native_candidates(bytes(blob))
    assert [c.text for c in cands] == ["https://a.example.com/path"]


@given(MUTATIONS)
def test_mutated_elf_scans_without_escaping(mutation):
    # Past the magic, a corrupt ELF degrades to warnings, never an exception.
    blob = mutate(golden_elf(), mutation)
    try:
        scan = scan_elf_strings(blob)
    except BadElfMagic:
        assert blob[:4] != b"\x7fELF"
        return
    assert isinstance(scan, ElfScan)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C toolchain")
def test_native_extraction_from_real_toolchain_object(tmp_path):
    source = tmp_path / "ref.c"
    source.write_text(
        'const char *endpoint = "https://api.openai.com/v1/chat/completions";\n'
        'const char *other = "https://cdn.example.com/static/bundle.js";\n'
    )
    out = tmp_path / "libref.so"
    subprocess.run(
        ["cc", "-shared", "-fPIC", "-o", str(out), str(source)],
        check=True,
        capture_output=True,
    )
    blob = out.read_bytes()
    got = {c.text for c in extract_native_candidates(blob)}
    assert {OPENAI_CHAT_URL, "https://cdn.example.com/static/bundle.js"} <= got
    assert got == _strings_scan_urls(blob)


def test_asset_candidates():
    names = [
        "assets/detect.tflite",
        "assets/pose.caffemodel",
        "assets/readme.txt",
        "assets/models/graph.param",
        "assets/models/weights.bin",  # counted: sibling .param
        "assets/sounds/ding.bin",  # not counted: no model sibling
        "res/raw/other.tflite",  # not under assets/
    ]
    cands = extract_asset_candidates(names)
    assert [c.text for c in cands] == [
        "assets/detect.tflite",
        "assets/pose.caffemodel",
        "assets/models/graph.param",
        "assets/models/weights.bin",
    ]
    assert all(c.kind == CandidateKind.MODEL_ASSET for c in cands)


def test_asset_candidates_custom_suffixes():
    cands = extract_asset_candidates(["assets/a.tflite", "assets/b.custom"], (".custom",))
    assert [c.text for c in cands] == ["assets/b.custom"]


class TestObfuscation:
    def test_fully_shortened_name_scores_one(self):
        stats = measure_obfuscation(["d.f.e.x.b"])
        assert stats.file_name_ratio == 1.0
        assert stats.dir_name_ratio == 1.0
        assert stats.total_classes == 1

    def test_descriptive_name(self):
        stats = measure_obfuscation(["com.example.MainActivity"])
        assert stats.file_name_ratio == 0.0
        assert stats.dir_name_ratio == 0.0

    def test_half_obfuscated(self):
        stats = measure_obfuscation(["a.b.C", "com.example.Foo"])
        assert stats.file_name_ratio == 0.5

    def test_empty(self):
        stats = measure_obfuscation([])
        assert stats.file_name_ratio == 0.0
        assert stats.dir_name_ratio == 0.0
        assert stats.total_classes == 0

    def test_duplicates_counted_once(self):
        stats = measure_obfuscation(["a.b.c.X", "a.b.c.X", "a.b.c.X"])
        assert stats.total_classes == 1

    def test_crafted_tree_hand_counts(self):
        classes = [
            "com.example.app.MainActivity",  # clean file, clean dir
            "com.example.app.Helper",  # clean file, same dir
            "com.example.a.b.c.Zz",  # obfuscated file, obfuscated dir
            "org.acme.x.y.Widget",  # clean file, obfuscated dir
            "net.thing.LongName",  # clean file, 2-segment dir
            "q.w.e",  # obfuscated file, obfuscated dir
        ]
        stats = measure_obfuscation(classes)
        # files: Zz (2 chars) and e -> 2 of 6
        assert stats.file_name_ratio == pytest.approx(2 / 6)
        # dirs: com.example.app | com.example.a.b.c | org.acme.x.y | net.thing | q.w
        # obfuscated: com.example.a.b.c, org.acme.x.y -> 2 of 5
        assert stats.dir_name_ratio == pytest.approx(2 / 5)
        assert stats.total_classes == 6


GOLDEN_EXPECTED = [
    ("Package", "com.example", 2),
    ("Package", "com.example.app", 1),
    ("Package", "com.google.firebase.ml.vision.objects", 1),
    ("Package", "d.f.e.x", 1),
    ("Package", "java.lang", 3),
    ("Api", "<com.example.Foo: void bar()>", 1),
    ("Api", "<com.example.app.MainActivity: boolean isReady()>", 1),
    ("Api", "<com.example.app.MainActivity: java.lang.String name()>", 1),
    ("Api", "<d.f.e.x.b: void <init>(int)>", 1),
    ("HttpsRequest", OPENAI_BASE_URL, 1),
    ("HttpsRequest", OPENAI_CHAT_URL, 1),
    ("ModelAsset", "assets/detect.tflite", 1),
    ("ModelAsset", "assets/pose.caffemodel", 1),
]


def serialize(cand_set) -> bytes:
    rows = [
        {"kind": c.kind, "text": c.text, "source": c.source, "occurrences": c.occurrences}
        for c in cand_set.candidates
    ]
    doc = {
        "app_id": cand_set.app_id,
        "candidates": rows,
        "obfuscation": [
            cand_set.obfuscation.file_name_ratio,
            cand_set.obfuscation.dir_name_ratio,
            cand_set.obfuscation.total_classes,
        ],
    }
    return json.dumps(doc, sort_keys=True).encode()


def test_extract_candidates_golden_enumeration(golden_apk):
    with open_apk(golden_apk) as archive:
        cand_set = extract_candidates(archive, "golden")
    assert [(c.kind, c.text, c.occurrences) for c in cand_set.candidates] == GOLDEN_EXPECTED
    assert cand_set.warnings == []
    # defined classes: Foo, b, MainActivity
    assert cand_set.obfuscation.total_classes == 3
    assert cand_set.obfuscation.file_name_ratio == pytest.approx(1 / 3)
    assert cand_set.obfuscation.dir_name_ratio == pytest.approx(1 / 3)
    # first-seen source wins for merged candidates
    merged = {c.text: c.source for c in cand_set.candidates}
    assert merged["com.example"] == "classes.dex"
    assert merged[OPENAI_CHAT_URL] == "lib/arm64-v8a/libinfer.so"


def test_merge_candidates_sums_keeps_first_source_and_orders():
    P, A, H, M = (CandidateKind.PACKAGE, CandidateKind.API,
                  CandidateKind.HTTPS_REQUEST, CandidateKind.MODEL_ASSET)
    groups = [
        [Candidate(A, "<b.C: void m()>", "classes.dex", 2), Candidate(P, "com.z", "classes.dex")],
        [
            Candidate(H, "https://x.example/", "lib/x86/libx.so"),
            Candidate(P, "com.z", "classes2.dex", 3),
            Candidate(P, "com.a", "classes2.dex"),
            Candidate(A, "<a.C: void m()>", "classes2.dex"),
        ],
        [Candidate(M, "assets/m.tflite", "assets/m.tflite"), Candidate(A, "<b.C: void m()>", "x", 5)],
    ]
    before = copy.deepcopy(groups)
    merged = merge_candidates(groups)
    assert [(c.kind, c.text, c.source, c.occurrences) for c in merged] == [
        (P, "com.a", "classes2.dex", 1),
        (P, "com.z", "classes.dex", 4),
        (A, "<a.C: void m()>", "classes2.dex", 1),
        (A, "<b.C: void m()>", "classes.dex", 7),
        (H, "https://x.example/", "lib/x86/libx.so", 1),
        (M, "assets/m.tflite", "assets/m.tflite", 1),
    ]
    assert groups == before


def test_extract_candidates_deterministic(golden_apk):
    with open_apk(golden_apk) as a1:
        first = serialize(extract_candidates(a1, "golden"))
    with open_apk(golden_apk) as a2:
        second = serialize(extract_candidates(a2, "golden"))
    assert first == second


def test_extract_candidates_no_dex_warning(tmp_path):
    from helpers import build_apk

    apk = build_apk(tmp_path / "resonly.apk", [("res/values.xml", b"<x/>"), ("resources.arsc", b"\x02")])
    with open_apk(apk) as archive:
        cand_set = extract_candidates(archive, "resonly")
    assert cand_set.candidates == []
    assert any("NoDexFound" in w for w in cand_set.warnings)


def test_candidate_texts_are_clean(golden_apk):
    with open_apk(golden_apk) as archive:
        cand_set = extract_candidates(archive, "golden")
    from urllib.parse import urlsplit

    seen = set()
    for cand in cand_set.candidates:
        assert cand.text == cand.text.strip() and cand.text
        assert not any(ord(ch) < 0x20 or ord(ch) == 0x7F for ch in cand.text)
        assert (cand.kind, cand.text) not in seen
        seen.add((cand.kind, cand.text))
        if cand.kind == CandidateKind.HTTPS_REQUEST:
            parts = urlsplit(cand.text)
            assert parts.scheme in ("http", "https") and parts.netloc


def test_find_urls_boundaries():
    assert find_urls("error at https://api.openai.com/v1/ please retry") == [
        "https://api.openai.com/v1/"
    ]
    assert find_urls("no scheme here example.com/path") == []
    assert find_urls('quoted "http://h.example.org:8080/a/b" tail') == [
        "http://h.example.org:8080/a/b"
    ]


# Texts built from the pieces of a URL, so many hold "://" and some a match.
_URLISH = st.lists(st.sampled_from(["h", "t", "p", "s", ":", "/", ".", "http", "://", "a", "1"]), max_size=24)


@given(st.lists(_URLISH.map("".join), max_size=6))
@example(["https://a.b/", "http:/a.b", "x http://1.a/p ://h"])
def test_url_scan_skips_only_texts_that_cannot_match(texts):
    assert list(_urls_in(texts)) == [url for text in texts for url in find_urls(text)]


def test_corrupt_dex_entry_is_isolated(tmp_path):
    from helpers import build_apk

    apk = build_apk(
        tmp_path / "broken.apk",
        [
            ("classes.dex", b"dex\n035\x00 garbage that is not a real table layout"),
            ("assets/detect.tflite", b"TFL3"),
        ],
    )
    with open_apk(apk) as archive:
        cand_set = extract_candidates(archive, "broken")
    # the bad dex only warns; asset extraction still contributes
    assert [c.text for c in cand_set.candidates] == ["assets/detect.tflite"]
    assert any("classes.dex" in w for w in cand_set.warnings)


def test_non_model_asset_with_embedded_url_becomes_other():
    cands = extract_asset_candidates(
        ["assets/cache/https://cdn.example.com/pack.zip", "assets/plain.txt"]
    )
    assert [(c.kind, c.text) for c in cands] == [
        (CandidateKind.OTHER, "assets/cache/https://cdn.example.com/pack.zip")
    ]


# Names built from what a signature or a cleanliness check could trip on:
# ":", "<", ">", whitespace, control characters, dots and so empty segments,
# and "\x85" and "\u2028", which the clean check accepts but str.isprintable() rejects.
# What a KB key's lowercase shortcut could trip on: a final sigma, "İ", whose
# lowercase is longer, the ideographic space, which is whitespace beyond ASCII,
# and two adjacent spaces.
_hostile = st.lists(
    st.sampled_from([*":<>. \t\n\x00\x1f\x7f\x85\xa0\u2028aB", "Σ", "İ", "\u3000", "  "]), max_size=6
).map("".join)


@given(_hostile, _hostile, _hostile, st.lists(_hostile, max_size=2))
def test_signature_clean_check_equals_the_text_rule(cls, ret, name, params):
    text = ApiSignature.render(MethodRef(cls, ret, name, params))
    assert bool(_is_clean_signature(text)) == _is_clean_text(text)


@given(st.text(st.characters(exclude_categories=("Cs",)) | st.sampled_from(["\x00", "\x1f", "\x7f", "\x85", "\u2028"])))
@example("a\x85")
@example("\u2028")
@example("é\x1f")
def test_signature_clean_check_equals_its_regex(text):
    assert _is_clean_signature(text) is (re.fullmatch(r"[^\x00-\x1f\x7f]*", text) is not None)


def _reference_extraction(dexes):
    """Candidates of DEX entries by the reference rules: every text checked by
    ``_is_clean_text`` (URLs by ``_is_clean_url``), and every merged candidate a copy."""
    merged = {kind: {} for kind in CandidateKind.ALL}
    for source, data in dexes:
        symbols = parse_dex(data)
        for kind, texts, keep in (
            (CandidateKind.PACKAGE, filter(None, map(package_of, symbols.class_names)), _is_clean_text),
            (CandidateKind.API, map(ApiSignature.render, symbols.methods), _is_clean_text),
            (CandidateKind.HTTPS_REQUEST, _urls_in(symbols.strings), _is_clean_url),
        ):
            for text, count in Counter(texts).items():
                if keep(text):
                    first_source, prior = merged[kind].get(text, (source, 0))
                    merged[kind][text] = (first_source, prior + count)
    return [(kind, text, *merged[kind][text]) for kind in merged for text in sorted(merged[kind])]


@given(st.data())
def test_two_dex_extraction_equals_the_reference_on_hostile_names(data):
    names = data.draw(st.lists(_hostile, min_size=1, max_size=4, unique=True))
    dexes = []
    for source in ("classes.dex", "classes2.dex"):  # drawn from one pool, so texts overlap
        builder = DexBuilder()
        for cls in data.draw(st.lists(st.sampled_from(names), max_size=3, unique=True)):
            methods = st.tuples(st.sampled_from(names), st.sampled_from(names), st.just(()))
            builder.add_class(cls, data.draw(st.lists(methods, max_size=3)))
        for name in data.draw(st.lists(st.sampled_from(names), max_size=2)):
            builder.add_string(f"https://a{name}.example/p")
        dexes.append((source, builder.build()))
    with tempfile.TemporaryDirectory() as tmp:
        with open_apk(build_apk(Path(tmp) / "two.apk", dexes)) as archive:
            cand_set = extract_candidates(archive, "two", model_suffixes=(".tflite",))
    assert [(c.kind, c.text, c.source, c.occurrences) for c in cand_set.candidates] == (
        _reference_extraction(dexes)
    )


# Class names the signature head, the whitelist's case folding and its segment
# matching could each decide apart: ":", "<", ">", whitespace, control
# characters, mixed case, text beyond ASCII (the Kelvin sign lowercases to
# "k") and dots, so empty segments. Letters and dots come up most often, so
# most signatures are clean.
_class_names = st.text(st.sampled_from([*"aaBBkk.....:<> ", "\t", "\x00", "\xa0", "É", "é", "\u212a"]), max_size=8)


@given(st.data())
def test_whitelist_before_rendering_equals_the_whitelist_after(data):
    names = data.draw(st.lists(_class_names.filter(bool), min_size=1, max_size=5, unique=True))
    # Whitelist a prefix of about two in three names, each cut from the name or
    # from the class its signatures name, so that one whitelist both drops and
    # keeps classes, and near misses come up.
    seen = (ApiSignature.class_name_of("<" + n + ":") for n in names)
    prefixes = {
        data.draw(st.sampled_from(dotted_prefixes(name.lower()) + dotted_prefixes((parsed or name).lower())))
        for name, parsed in zip(names, seen)
        if data.draw(st.sampled_from([True, True, False]))
    }
    wl = Whitelist(prefixes=frozenset(prefixes - {""}) or frozenset({"a"}))
    dexes = []
    for source in ("classes.dex", "classes2.dex"):  # drawn from one pool, so classes repeat
        builder = DexBuilder()
        for cls in data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True)):
            methods = st.tuples(st.sampled_from(["void", *names]), st.sampled_from(["run", *names]), st.just(()))
            builder.add_class(cls, data.draw(st.lists(methods, min_size=1, max_size=3)))
        dexes.append((source, builder.build()))
    with tempfile.TemporaryDirectory() as tmp:
        with open_apk(build_apk(Path(tmp) / "two.apk", dexes)) as archive:
            skipped = extract_candidates(archive, "two", None, wl)
            rendered = extract_candidates(archive, "two")
    filtered = apply_whitelist(rendered, wl)
    assert apply_whitelist(skipped, wl) == filtered
    # The skip drops exactly the API signatures the whitelist would: no more, and no fewer.
    apis = [c for c in skipped.candidates if c.kind == CandidateKind.API]
    assert apis == [c for c in filtered.candidates if c.kind == CandidateKind.API]


@given(st.data())
def test_the_second_pass_over_an_extracted_set_equals_the_full_pass(data):
    names = data.draw(st.lists(_hostile.filter(bool), min_size=1, max_size=5, unique=True))
    dexes = []
    for source in ("classes.dex", "classes2.dex"):  # drawn from one pool, so classes repeat
        builder = DexBuilder()
        for cls in data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True)):
            methods = st.tuples(st.sampled_from(["void", *names]), st.sampled_from(["go", *names]),
                                st.lists(st.sampled_from(["int", *names]), max_size=2))
            builder.add_class(cls, data.draw(st.lists(methods, max_size=3)))
        for name in data.draw(st.lists(st.sampled_from(names), max_size=2)):
            builder.add_string(f"https://a{name}.example/p")
        dexes.append((source, builder.build()))
    # Prefixes cut from about half of the names, which are also the packages' names.
    prefixes = {data.draw(st.sampled_from(dotted_prefixes(n.lower()))) for n in names if data.draw(st.booleans())}
    wl = Whitelist(prefixes=frozenset(prefixes - {""}) or frozenset({"a"}))
    with tempfile.TemporaryDirectory() as tmp:
        with open_apk(build_apk(Path(tmp) / "two.apk", dexes)) as archive:
            extracted = extract_candidates(archive, "two", None, wl)
    assert extracted.api_whitelist is wl
    cleared = dataclasses.replace(extracted, api_whitelist=None)
    second = data.draw(st.sampled_from([wl, Whitelist(prefixes=wl.prefixes)]))  # the same or an equal one
    assert apply_whitelist(extracted, second) == apply_whitelist(cleared, second)


def test_no_method_of_a_whitelisted_class_is_rendered(tmp_path, monkeypatch):
    api_texts = candidates._api_texts
    seen = []

    def spy(symbols, whitelist):
        for text in api_texts(symbols, whitelist):
            seen.append(ApiSignature.class_name_of(text))
            yield text

    monkeypatch.setattr(candidates, "_api_texts", spy)
    dex = DexBuilder()
    for cls in ("java.util.Lister", "JAVA.Upper", "javax.crypto.Cipher", "com.acme.Thing"):
        dex.add_class(cls, [("void", "go", []), ("int", "size", [])])
    with open_apk(build_apk(tmp_path / "spy.apk", [("classes.dex", dex.build())])) as archive:
        cand_set = extract_candidates(archive, "spy", None, parse_whitelist("java.\n"))
    assert sorted(seen) == ["com.acme.Thing"] * 2 + ["javax.crypto.Cipher"] * 2
    assert [c.text for c in cand_set.candidates if c.kind == CandidateKind.API] == [
        "<com.acme.Thing: int size()>",
        "<com.acme.Thing: void go()>",
        "<javax.crypto.Cipher: int size()>",
        "<javax.crypto.Cipher: void go()>",
    ]


def raw_dex(strings, types, protos, methods) -> bytes:
    """A DEX image whose id tables hold exactly the given rows, written with no index checked:
    ``types`` are string indexes, ``protos`` (return type index, parameter type indexes) and
    ``methods`` (class type index, proto index, name string index)."""
    tables = [(0x38, "<I", len(strings)), (0x40, "<I", len(types)), (0x48, "<III", len(protos)), (0x58, "<HHI", len(methods))]
    offsets, end = [], 0x70
    for _, fmt, count in tables:
        offsets.append(end)
        end += struct.calcsize(fmt) * count
    blob = bytearray(end)
    list_offs = []
    for _, params in protos:
        blob += bytes(-len(blob) % 4)
        list_offs.append(len(blob) if params else 0)
        if params:
            blob += struct.pack(f"<I{len(params)}H", len(params), *params)
    string_offs = []
    for text in strings:
        string_offs.append(len(blob))
        blob += _uleb128(len(text)) + _mutf8(text) + b"\x00"
    blob[:8] = b"dex\n035\x00"
    struct.pack_into("<III", blob, 0x20, len(blob), 0x70, 0x12345678)
    rows = [
        [(off,) for off in string_offs],
        [(idx,) for idx in types],
        [(0, ret, off) for (ret, _), off in zip(protos, list_offs)],
        methods,
    ]
    for (header_off, fmt, count), table_off, table_rows in zip(tables, offsets, rows):
        struct.pack_into("<II", blob, header_off, count, table_off)
        for i, row in enumerate(table_rows):
            struct.pack_into(fmt, blob, table_off + struct.calcsize(fmt) * i, *row)
    return bytes(blob)


def _reference_candidates(symbols, source, wl):
    """``candidates_from_symbols`` by the old rules: every method rendered, then dropped
    per text when a segment-wise prefix scan finds its class in ``wl``."""

    def dropped(text):
        cls = ApiSignature.class_name_of(text)
        return cls is not None and any(cls.lower() == p or cls.lower().startswith(p + ".") for p in wl.prefixes)

    apis = map(ApiSignature.render, symbols.methods)
    if wl is not None:
        apis = [text for text in apis if not dropped(text)]
    return (
        _counted(CandidateKind.PACKAGE, filter(None, map(package_of, symbols.class_names)), source, _is_clean_text)
        + _counted(CandidateKind.API, apis, source, _is_clean_signature)
        + _counted(CandidateKind.HTTPS_REQUEST, _urls_in(symbols.strings), source, _is_clean_url)
    )


def _some_whitelist(data, symbols):
    """None, or a whitelist of prefixes cut from about half of the classes the methods name."""
    if data.draw(st.booleans()):
        return None
    names = {ApiSignature.class_name_of(ApiSignature.render(m)) or m.class_name for m in symbols.methods}
    prefixes = {data.draw(st.sampled_from(dotted_prefixes(n.lower()))) for n in sorted(names) if data.draw(st.booleans())}
    return Whitelist(prefixes=frozenset(prefixes - {""}) or frozenset({"a"}))


# Descriptors, names and strings with control characters, dots and slashes,
# so that "La/b;" and "La.b;" both come up and render alike.
_raw_texts = st.one_of(
    st.sampled_from(["La/b;", "La.b;", "La/b/C;", "[La.b;", "I", "V", "[[J", "La/\x01;", "Ljava/lang/X;", "run"]),
    st.text(st.sampled_from([*"aB./;L[:<> ", "\x00", "\t", "\x1f", "\x7f", "\x85", "é", "\u2028"]), max_size=6),
)


@given(st.data())
def test_candidates_from_raw_id_tables_equal_the_rendered_reference(data):
    strings = data.draw(st.lists(_raw_texts, min_size=1, max_size=8))
    string_idx = st.integers(0, len(strings) - 1)
    types = data.draw(st.lists(string_idx, min_size=1, max_size=6))
    type_idx = st.integers(0, len(types) - 1)
    protos = data.draw(st.lists(st.tuples(type_idx, st.lists(type_idx, max_size=3)), min_size=1, max_size=4))
    # Rows repeat, and now and then an index runs one or more past its table.
    in_range = st.tuples(type_idx, st.integers(0, len(protos) - 1), string_idx)
    stray = st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF), st.integers(0, 2**32 - 1))
    rows = data.draw(st.lists(st.sampled_from(data.draw(st.lists(in_range, min_size=1, max_size=4))), max_size=12))
    if data.draw(st.integers(0, 9)) == 0:
        rows.insert(data.draw(st.integers(0, len(rows))), data.draw(stray))
    blob = raw_dex(strings, types, protos, rows)
    bounds = (len(types), len(protos), len(strings))
    bad = next((i for i, row in enumerate(rows) if any(x >= b for x, b in zip(row, bounds))), None)
    if bad is not None:
        with pytest.raises(TruncatedDex, match=f"^method_id {bad} index out of range$"):
            parse_dex(blob)
        return
    symbols = parse_dex(blob)
    wl = _some_whitelist(data, symbols)
    assert candidates_from_symbols(symbols, "classes.dex", wl) == _reference_candidates(symbols, "classes.dex", wl)


@given(st.data())
def test_candidates_from_built_dex_equal_the_rendered_reference(data):
    names = data.draw(st.lists(_hostile.filter(bool), min_size=1, max_size=4, unique=True))
    builder = DexBuilder()
    for cls in data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)):
        methods = st.tuples(st.sampled_from(["void", "int[]", *names]), st.sampled_from(["go", *names]),
                            st.lists(st.sampled_from(["long", *names]), max_size=2))
        # sampled from a short list, so a class declares the same method twice now and then
        builder.add_class(cls, data.draw(st.lists(st.sampled_from(data.draw(st.lists(methods, min_size=1, max_size=3))),
                                                  max_size=4)))
    symbols = parse_dex(builder.build())
    wl = _some_whitelist(data, symbols)
    assert candidates_from_symbols(symbols, "classes.dex", wl) == _reference_candidates(symbols, "classes.dex", wl)


def _merged_reference(groups):
    """Per-entry reference candidates merged by the reference rules: occurrences
    summed, the first source kept, rows by kind and then by text."""
    merged = {kind: {} for kind in CandidateKind.ALL}
    for group in groups:
        for cand in group:
            first_source, prior = merged[cand.kind].get(cand.text, (cand.source, 0))
            merged[cand.kind][cand.text] = (first_source, prior + cand.occurrences)
    return [Candidate(kind, text, *merged[kind][text]) for kind in merged for text in sorted(merged[kind])]


@given(st.data())
def test_two_dex_columns_equal_the_rendered_reference_and_look_up_made_keys(data):
    names = data.draw(st.lists(_hostile.filter(bool), min_size=1, max_size=4, unique=True))
    dexes = []
    for source in ("classes.dex", "classes2.dex"):  # drawn from one pool, so texts overlap
        builder = DexBuilder()
        for cls in data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)):
            methods = st.tuples(st.sampled_from(["void", "int[]", *names]), st.sampled_from(["go", "Run", *names]),
                                st.lists(st.sampled_from(["long", *names]), max_size=2))
            builder.add_class(cls, data.draw(st.lists(methods, max_size=3)))
        for name in data.draw(st.lists(st.sampled_from(names), max_size=2)):
            builder.add_string(f"https://a{name}.example/p")
        dexes.append((source, builder.build()))
    symbols = [parse_dex(blob) for _, blob in dexes]
    wl = _some_whitelist(data, symbols[0])
    with tempfile.TemporaryDirectory() as tmp:
        with open_apk(build_apk(Path(tmp) / "two.apk", dexes)) as archive:
            extracted = extract_candidates(archive, "two", (".tflite",), wl)
    assert extracted.candidates == _merged_reference(
        _reference_candidates(entry, source, wl) for entry, (source, _) in zip(symbols, dexes)
    )
    # Every key the pipeline looks up is KbKey.make's, here and after a second whitelist
    # pass that drops rows around the API ones.
    second = _some_whitelist(data, symbols[1]) or Whitelist(prefixes=frozenset({"a"}))
    for cand_set in (extracted, apply_whitelist(extracted, second)):
        looked_up = []
        kb = KnowledgeBase()
        kb.lookup = lambda key: looked_up.append(key) or KbRecord(key, VERDICT_NON_AI)
        run_pipeline(cand_set, PipelineConfig(), kb, make_gateway())
        assert looked_up == [KbKey.make(c.kind, c.text) for c in cand_set.candidates]
        assert {type(key) for key in looked_up} <= {KbKey}
