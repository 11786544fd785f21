"""Shared fixtures: gateway factory, golden APK, and the labeled mini-corpus."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

from aidiscover.backends import MockBackend
from aidiscover.gateway import LlmGateway
from aidiscover.prompts import load_templates

from helpers import DexBuilder, build_apk, build_elf64

# A deeper search for boundary regressions that a default run draws only now
# and then: python -m pytest tests/test_report.py --hypothesis-profile=deep
settings.register_profile("deep", max_examples=1000, deadline=None)

OPENAI_BASE_URL = "https://api.openai.com/v1/"
OPENAI_CHAT_URL = "https://api.openai.com/v1/chat/completions"


def make_gateway(backend=None, **kwargs) -> LlmGateway:
    kwargs.setdefault("sleeper", lambda _: None)
    return LlmGateway(backend or MockBackend(), load_templates(), **kwargs)


# (word overwrites, byte flips) for mutate(): each word is (position, width,
# value) with width 2 or 4; each flip is (position, XOR mask).
MUTATIONS = st.tuples(
    st.lists(
        st.tuples(
            st.integers(min_value=0),
            st.sampled_from((2, 4)),
            st.one_of(st.integers(0, 0xFF), st.integers(0, 2**32 - 1)),
        ),
        max_size=4,
    ),
    st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)), max_size=8),
)


def mutate(blob: bytes, mutation) -> bytes:
    """Apply one MUTATIONS draw: overwrite little-endian u16/u32 words, then
    flip bytes. Positions wrap around the blob's length."""
    words, flips = mutation
    out = bytearray(blob)
    for pos, width, value in words:
        pos %= len(out) - width + 1
        out[pos : pos + width] = (value % (1 << 8 * width)).to_bytes(width, "little")
    for pos, mask in flips:
        out[pos % len(out)] ^= mask
    return bytes(out)


@pytest.fixture
def mock_gateway() -> LlmGateway:
    return make_gateway()


def golden_dex1() -> bytes:
    return (
        DexBuilder()
        .add_class("com.example.Foo", [("void", "bar", [])])
        .add_class("d.f.e.x.b", [("void", "<init>", ["int"])])
        .add_referenced_class("com.google.firebase.ml.vision.objects.FirebaseVisionObjectDetector")
        .add_string(OPENAI_BASE_URL)
        .build()
    )


def golden_dex2() -> bytes:
    return (
        DexBuilder()
        .add_class(
            "com.example.app.MainActivity",
            [("boolean", "isReady", []), ("java.lang.String", "name", [])],
        )
        .add_referenced_class("com.example.Foo")
        .build()
    )


def golden_elf() -> bytes:
    rodata = b"\x00".join(
        [
            b"padding before the interesting part",
            OPENAI_CHAT_URL.encode("ascii"),
            b"another printable filler string",
        ]
    )
    return build_elf64(rodata)


def build_golden_apk(path: Path) -> Path:
    return build_apk(
        path,
        [
            ("AndroidManifest.xml", b"\x03\x00\x08\x00binary-xml"),
            ("classes.dex", golden_dex1()),
            ("classes2.dex", golden_dex2()),
            ("assets/detect.tflite", b"TFL3" + b"\x00" * 32),
            ("assets/pose.caffemodel", b"caffe-weights" + b"\x01" * 16),
            ("assets/readme.txt", b"not a model"),
            ("lib/arm64-v8a/libinfer.so", golden_elf()),
            ("res/layout/main.xml", b"\x03\x00layout"),
            ("resources.arsc", b"\x02\x00\x0c\x00arsc"),
            ("META-INF/MANIFEST.MF", b"Manifest-Version: 1.0\n"),
            ("META-INF/CERT.RSA", b"\x30\x82fake-signature"),
        ],
    )


@pytest.fixture
def golden_apk(tmp_path) -> Path:
    return build_golden_apk(tmp_path / "golden.apk")


# ---------------------------------------------------------------------------
# Labeled mini-corpus: ten apps with planted AI / non-AI components.


def _utility_dex(package: str, class_name: str, method: str = "run") -> bytes:
    return DexBuilder().add_class(f"{package}.{class_name}", [("void", method, [])]).build()


def make_fixture_corpus(root: Path):
    """Build ten APKs plus hand-written component and app truth labels.

    Returns (apk_paths, component_truth, app_truth) where the truth lists are
    JSONL-ready dicts.
    """
    root.mkdir(parents=True, exist_ok=True)
    apk_paths: list[Path] = []
    component_truth: list[dict] = []
    app_truth: list[dict] = []

    def app(index: int, entries: list[tuple[str, bytes]], components: list[tuple[str, str, str]], is_ai: bool):
        app_id = f"app_{index:02d}"
        apk_paths.append(build_apk(root / f"{app_id}.apk", entries))
        app_truth.append({"app_id": app_id, "label": "AI" if is_ai else "NonAI"})
        for kind, text, label in components:
            component_truth.append({"kind": kind, "text": text, "label": label})

    dex0 = (
        DexBuilder()
        .add_class("com.google.mlkit.vision.objects.ObjectDetector", [("void", "detect", [])])
        .add_class("com.app00.main.Main", [("void", "run", [])])
        .build()
    )
    app(
        0,
        [("classes.dex", dex0)],
        [
            ("Package", "com.google.mlkit.vision.objects", "AI"),
            ("Package", "com.app00.main", "NonAI"),
            ("Api", "<com.google.mlkit.vision.objects.ObjectDetector: void detect()>", "AI"),
            ("Api", "<com.app00.main.Main: void run()>", "NonAI"),
        ],
        True,
    )

    app(
        1,
        [
            ("classes.dex", _utility_dex("com.app01.ui", "Home", "show")),
            ("assets/detect.tflite", b"TFL3model"),
        ],
        [
            ("Package", "com.app01.ui", "NonAI"),
            ("Api", "<com.app01.ui.Home: void show()>", "NonAI"),
            ("ModelAsset", "assets/detect.tflite", "AI"),
        ],
        True,
    )

    app(
        2,
        [
            ("classes.dex", _utility_dex("com.app02.sync", "Worker")),
            ("lib/arm64-v8a/libinfer.so", build_elf64(b"x\x00" + OPENAI_CHAT_URL.encode() + b"\x00y")),
        ],
        [
            ("Package", "com.app02.sync", "NonAI"),
            ("Api", "<com.app02.sync.Worker: void run()>", "NonAI"),
            ("HttpsRequest", OPENAI_CHAT_URL, "AI"),
        ],
        True,
    )

    dex3 = (
        DexBuilder()
        .add_class("com.app03.chat.Client", [("void", "send", [])])
        .add_string(OPENAI_BASE_URL)
        .build()
    )
    app(
        3,
        [("classes.dex", dex3)],
        [
            ("Package", "com.app03.chat", "NonAI"),
            ("Api", "<com.app03.chat.Client: void send()>", "NonAI"),
            ("HttpsRequest", OPENAI_BASE_URL, "AI"),
        ],
        True,
    )

    app(
        4,
        [("classes.dex", _utility_dex("org.tensorflow.lite", "Interpreter"))],
        [
            ("Package", "org.tensorflow.lite", "AI"),
            ("Api", "<org.tensorflow.lite.Interpreter: void run()>", "AI"),
        ],
        True,
    )

    app(
        5,
        [("classes.dex", _utility_dex("com.acme.speech", "Recognizer", "listen"))],
        [
            ("Package", "com.acme.speech", "AI"),
            ("Api", "<com.acme.speech.Recognizer: void listen()>", "AI"),
        ],
        True,
    )

    app(
        6,
        [("classes.dex", _utility_dex("com.app06.notes", "Editor", "save"))],
        [
            ("Package", "com.app06.notes", "NonAI"),
            ("Api", "<com.app06.notes.Editor: void save()>", "NonAI"),
        ],
        False,
    )

    app(
        7,
        [
            ("classes.dex", _utility_dex("com.acme.network", "HttpStack", "send")),
            (
                "lib/armeabi-v7a/libcdn.so",
                build_elf64(b"\x00https://cdn.example.com/assets/bundle\x00"),
            ),
        ],
        [
            ("Package", "com.acme.network", "NonAI"),
            ("Api", "<com.acme.network.HttpStack: void send()>", "NonAI"),
            ("HttpsRequest", "https://cdn.example.com/assets/bundle", "NonAI"),
        ],
        False,
    )

    app(
        8,
        [
            ("classes.dex", _utility_dex("com.app08.game", "Engine", "tick")),
            ("assets/readme.txt", b"instructions only"),
        ],
        [
            ("Package", "com.app08.game", "NonAI"),
            ("Api", "<com.app08.game.Engine: void tick()>", "NonAI"),
        ],
        False,
    )

    app(
        9,
        [("classes.dex", _utility_dex("com.app09.weather", "Widget", "refresh"))],
        [
            ("Package", "com.app09.weather", "NonAI"),
            ("Api", "<com.app09.weather.Widget: void refresh()>", "NonAI"),
        ],
        False,
    )

    return apk_paths, component_truth, app_truth


def write_jsonl(path: Path, records: list[dict]) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    return path


@pytest.fixture
def fixture_corpus(tmp_path):
    return make_fixture_corpus(tmp_path / "corpus")
