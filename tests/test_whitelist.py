import re

import pytest
from hypothesis import given, strategies as st

from aidiscover.apk import open_apk
from aidiscover.candidates import (
    ApiSignature,
    Candidate,
    CandidateKind,
    CandidateSet,
    dotted_prefixes,
    extract_candidates,
)
from aidiscover.whitelist import (
    EmptyWhitelist,
    Whitelist,
    apply_whitelist,
    load_whitelist,
    parse_whitelist,
)

from helpers import DexBuilder, build_apk


def make_set(cands):
    return CandidateSet(app_id="t", candidates=list(cands))


def test_load_whitelist(tmp_path):
    path = tmp_path / "wl.txt"
    path.write_text("java.\nandroid.\n# note\n")
    wl = load_whitelist(path)
    assert wl.prefixes == frozenset({"java", "android"})


def test_load_whitelist_dedup(tmp_path):
    path = tmp_path / "wl.txt"
    path.write_text("java.\njava.\nJAVA.\n")
    assert load_whitelist(path).prefixes == frozenset({"java"})


def test_load_whitelist_empty(tmp_path):
    path = tmp_path / "wl.txt"
    path.write_text("# only a comment\n\n")
    with pytest.raises(EmptyWhitelist):
        load_whitelist(path)


def test_a_byte_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "wl.txt"
    path.write_bytes(b"java.\ncaf\xe9.\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: not UTF-8"):
        load_whitelist(path)


def test_load_default_whitelist():
    wl = load_whitelist()
    assert wl.matches("java.lang")
    assert wl.matches("androidx.core.view")
    assert not wl.matches("com.google.mlkit")


def test_prefix_matching_is_segment_aware():
    wl = parse_whitelist("java.\n")
    assert wl.matches("java.lang.String")
    assert wl.matches("java")
    assert not wl.matches("javax.crypto")
    assert not wl.matches("javafx.scene")


def _drop(candidate, matches):
    """Reference rule: each candidate decided by itself, API ones by the class
    name parsed from their whole text."""
    if candidate.kind == CandidateKind.PACKAGE:
        return matches(candidate.text)
    if candidate.kind == CandidateKind.API:
        class_name = ApiSignature.class_name_of(candidate.text)
        return class_name is not None and matches(class_name)
    return False


def reference_matches(wl, dotted):
    """Reference rule: try every prefix in turn."""
    lowered = dotted.lower()
    return any(lowered == p or lowered.startswith(p + ".") for p in wl.prefixes)


# Short names over a tiny alphabet, so empty segments, leading and trailing
# dots, upper case and prefixes cut off a dot all come up often.
_names = st.text(alphabet="aAbB.", max_size=10)


@given(_names, st.lists(_names.map(str.lower), max_size=4), st.integers(0, 10))
def test_matches_agrees_with_prefix_scan(name, prefixes, cut):
    wl = Whitelist(prefixes=frozenset(prefixes + [name.lower()[:cut]]))
    assert wl.matches(name) == reference_matches(wl, name)
    assert wl.matches_package(name) == reference_matches(wl, name)
    # Asked again, now from the remembered package decisions, it answers as every cut of the name does.
    assert wl.matches(name) == (not wl.prefixes.isdisjoint(dotted_prefixes(name.lower())))


@pytest.mark.parametrize("prefixes", [{"a.a.a"}, {"b", "a.b"}, {"a." * 9 + "b"}, {"a.a.A.a"}])
def test_a_name_of_many_segments_decides_as_dotted_prefixes_does(prefixes):
    # 100k segments: every cut of the name held at once would take about 10 GB.
    segments = ["a"] * 100_000
    for name in (".".join(segments), ".".join(segments[:10] + ["b"] + segments), "A." * 99_999 + "B"):
        wl = Whitelist(prefixes=frozenset(prefixes))
        expected = reference_matches(wl, name)
        # dotted_prefixes of a short head of the name agrees wherever it decides alone.
        assert expected == (not wl.prefixes.isdisjoint(dotted_prefixes(name.lower()[:1000])[:-1]))
        assert wl.matches(name) == expected
        assert wl.matches_package(name) == expected
        assert wl.drops_api_head("<" + name) == expected
        assert all(len(key) <= 20 for key in wl._packages)


def test_equal_whitelists_stay_equal_and_hash_alike_after_use():
    used, fresh = parse_whitelist("java.\nandroid.\n"), parse_whitelist("android.\njava.\n")
    assert used.matches("java.lang.String") and not used.matches_package("com.acme")
    assert used._packages and not fresh._packages
    assert used == fresh and hash(used) == hash(fresh)
    assert {used: 1}[fresh] == 1
    assert repr(used) == repr(Whitelist(prefixes=used.prefixes))


def test_apply_whitelist_after_extraction_decides_no_new_package(tmp_path):
    dex = DexBuilder()
    for cls in ("java.util.List", "com.acme.vision.Thing", "com.acme.Other", "Standalone", "android.app.Activity"):
        dex.add_class(cls, [("void", "go", ["java.lang.String[]"]), ("int", "size", [])])
    dex.add_referenced_class("org.json.JSONObject")
    # The longest prefix outruns every package here, so each is remembered whole.
    wl = parse_whitelist("java.\nandroid.\norg.jetbrains.annotations.\n")
    with open_apk(build_apk(tmp_path / "one.apk", [("classes.dex", dex.build())])) as archive:
        extracted = extract_candidates(archive, "one", None, wl)
    decided = dict(wl._packages)
    assert set(decided) == {"java.util", "java.lang", "com.acme.vision", "com.acme", "android.app", "org.json"}
    kept = apply_whitelist(extracted, wl)
    assert wl._packages == decided
    assert {c.text for c in kept.candidates if c.kind == CandidateKind.PACKAGE} == {
        "com.acme", "com.acme.vision", "org.json"
    }


def test_apply_whitelist_with_another_whitelist_decides_every_api_candidate(tmp_path, monkeypatch):
    dex = DexBuilder()
    for cls in ("java.util.List", "com.acme.Thing", "org.json.JSONObject"):
        dex.add_class(cls, [("void", "go", [])])
    with open_apk(build_apk(tmp_path / "one.apk", [("classes.dex", dex.build())])) as archive:
        extracted = extract_candidates(archive, "one", None, parse_whitelist("java.\n"))
    decided = []
    drops_api_head = Whitelist.drops_api_head
    monkeypatch.setattr(Whitelist, "drops_api_head", lambda wl, head: decided.append(head) or drops_api_head(wl, head))
    same = apply_whitelist(extracted, parse_whitelist("java.\n"))  # equal, so extraction's decisions stand
    assert decided == []
    other = apply_whitelist(extracted, parse_whitelist("com.acme.\n"))
    assert sorted(decided) == ["<com.acme.Thing", "<org.json.JSONObject"]
    assert [c.text for c in same.candidates if c.kind == CandidateKind.API] == [
        "<com.acme.Thing: void go()>", "<org.json.JSONObject: void go()>"
    ]
    assert [c.text for c in other.candidates if c.kind == CandidateKind.API] == ["<org.json.JSONObject: void go()>"]
    assert {c.text for c in other.candidates if c.kind == CandidateKind.PACKAGE} == {"java.util", "java.lang", "org.json"}


def test_apply_whitelist_drops_and_keeps():
    wl = parse_whitelist("java.\nandroid.\n")
    cands = make_set(
        [
            Candidate(CandidateKind.PACKAGE, "java.lang", "classes.dex"),
            Candidate(CandidateKind.PACKAGE, "com.google.mlkit.vision.objects", "classes.dex"),
            Candidate(CandidateKind.API, "<java.util.List: int size()>", "classes.dex"),
            Candidate(CandidateKind.API, "<com.acme.Thing: void go()>", "classes.dex"),
            Candidate(CandidateKind.HTTPS_REQUEST, "https://api.openai.com/v1/", "classes.dex"),
            Candidate(CandidateKind.MODEL_ASSET, "assets/android.model", "assets/android.model"),
        ]
    )
    out = apply_whitelist(cands, wl)
    assert [(c.kind, c.text) for c in out.candidates] == [
        (CandidateKind.PACKAGE, "com.google.mlkit.vision.objects"),
        (CandidateKind.API, "<com.acme.Thing: void go()>"),
        (CandidateKind.HTTPS_REQUEST, "https://api.openai.com/v1/"),
        (CandidateKind.MODEL_ASSET, "assets/android.model"),
    ]


def test_empty_whitelist_is_identity():
    cands = make_set(
        [
            Candidate(CandidateKind.PACKAGE, "java.lang", "d"),
            Candidate(CandidateKind.API, "<java.util.List: int size()>", "d"),
        ]
    )
    out = apply_whitelist(cands, Whitelist.empty())
    assert [c.text for c in out.candidates] == [c.text for c in cands.candidates]


_token = st.sampled_from(["java", "javax", "android", "com", "acme", "ml", "vision", "net", "x", "io"])
_dotted = st.lists(_token, min_size=1, max_size=4).map(".".join)


def _candidate(kind: str, base: str, occurrences: int) -> Candidate:
    if kind == CandidateKind.PACKAGE:
        text = base
    elif kind == CandidateKind.API:
        text = f"<{base}.Cls: void m()>"
    elif kind == CandidateKind.HTTPS_REQUEST:
        text = f"https://{base.replace('.', '-')}.example.com/"
    elif kind == CandidateKind.MODEL_ASSET:
        text = f"assets/{base.replace('.', '_')}.tflite"
    else:
        text = base
    return Candidate(kind, text, "src", occurrences)


_candidates = st.lists(
    st.builds(
        _candidate,
        st.sampled_from(CandidateKind.ALL),
        _dotted,
        st.integers(min_value=1, max_value=9),
    ),
    max_size=25,
)
_whitelists = st.sets(_dotted, min_size=1, max_size=5).map(
    lambda prefixes: Whitelist(prefixes=frozenset(prefixes))
)


@given(_candidates, _whitelists)
def test_apply_whitelist_idempotent_and_monotone(cands, wl):
    original = make_set(cands)
    once = apply_whitelist(original, wl)
    twice = apply_whitelist(once, wl)
    assert [(c.kind, c.text, c.occurrences) for c in once.candidates] == [
        (c.kind, c.text, c.occurrences) for c in twice.candidates
    ]
    # survivors are a subsequence of the input with occurrences untouched
    kept = [(c.kind, c.text, c.occurrences) for c in once.candidates]
    pool = [(c.kind, c.text, c.occurrences) for c in original.candidates]
    it = iter(pool)
    assert all(any(item == p for p in it) for item in kept)
    # exempt kinds never dropped
    for kind in (CandidateKind.HTTPS_REQUEST, CandidateKind.MODEL_ASSET):
        assert len([c for c in once.candidates if c.kind == kind]) == len(
            [c for c in original.candidates if c.kind == kind]
        )


# API candidates of a few classes with several methods each, in mixed case,
# plus signatures that name no class.
_api_candidates = st.builds(
    lambda cls, method: Candidate(CandidateKind.API, f"<{cls}: void {method}()>", "src"),
    st.one_of(_dotted, _dotted.map(str.upper)),
    st.sampled_from(["a", "b", "c"]),
) | st.sampled_from(["<: void a()>", "java.lang.Foo", "<java>"]).map(
    lambda text: Candidate(CandidateKind.API, text, "src")
)


@given(st.lists(_api_candidates, max_size=25), _candidates, _whitelists)
def test_apply_whitelist_equals_the_per_candidate_filter(apis, others, wl):
    cands = apis + others
    out = apply_whitelist(make_set(cands), wl)
    assert out.candidates == [c for c in cands if not _drop(c, wl.matches)]


# Names built from what a signature parser could mistake for structure:
# ":", "<", ">", whitespace, control characters, dots and so empty segments.
_hostile = st.text(alphabet=":<>. \t\n\x00\x1f\x7f\xa0aB", max_size=8)


def _signature(cls, ret, name):
    return f"<{cls}: {ret} {name}()>"


_hostile_apis = st.one_of(
    st.builds(_signature, _hostile, _hostile, _hostile),
    _hostile.map("<".__add__),  # a bracketed text, with or without a ":"
    _hostile,
).map(lambda text: Candidate(CandidateKind.API, text, "src"))


@given(st.lists(_hostile_apis, max_size=20), st.lists(_hostile, max_size=4), st.data())
def test_per_class_decision_equals_the_per_candidate_rule_on_hostile_names(apis, extra, data):
    # Whitelist some prefixes of the class names the texts, or their part
    # before a ":", parse to, so that matches are common, also for a text
    # without a ":"; dropped and kept texts then share classes.
    heads = [c.text.partition(":")[0] + ":" for c in apis]
    names = [n for n in map(ApiSignature.class_name_of, heads) if n] + extra
    prefixes = {p.lower() for n in names for p in dotted_prefixes(n) if data.draw(st.booleans())}
    wl = Whitelist(prefixes=frozenset(prefixes - {""}) or frozenset({"a"}))
    packages = [Candidate(CandidateKind.PACKAGE, n, "src") for n in extra]
    cands = apis + packages + apis  # every class seen again after its first decision
    out = apply_whitelist(make_set(cands), wl)
    assert out.candidates == [c for c in cands if not _drop(c, wl.matches)]
