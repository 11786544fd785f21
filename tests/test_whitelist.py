import pytest
from hypothesis import given, strategies as st

from aidiscover.candidates import Candidate, CandidateKind, CandidateSet
from aidiscover.whitelist import (
    EmptyWhitelist,
    Whitelist,
    _drop,
    apply_whitelist,
    load_whitelist,
    parse_whitelist,
)


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


def test_load_default_whitelist():
    wl = load_whitelist()
    assert wl.matches("java.lang")
    assert wl.matches("androidx.core.view")
    assert not wl.matches("com.google.mlkit")
    assert wl.version == "1"


def test_version_comment(tmp_path):
    path = tmp_path / "wl.txt"
    path.write_text("# version: 7\njava.\n")
    assert load_whitelist(path).version == "7"


def test_prefix_matching_is_segment_aware():
    wl = parse_whitelist("java.\n")
    assert wl.matches("java.lang.String")
    assert wl.matches("java")
    assert not wl.matches("javax.crypto")
    assert not wl.matches("javafx.scene")


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
