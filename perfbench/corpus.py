"""Seeded synthetic APK corpora with planted truth.

Every APK is assembled with the byte-level builders in ``tests/helpers.py``
(``DexBuilder``, ``build_elf64``, ``build_apk``), so the program under test
parses the same kind of input its own tests use. The generator also records,
per app, which component texts are AI and which domain the offline mock
backend must give them: a component is AI exactly when one identifier segment
of its text carries one of the mock's marker tokens, and every other name is
drawn from syllables that are checked to carry none.

The shape of a corpus (app count, which app uses which SDK, class and method
counts) is fixed by its profile; the seed picks every name. The work per app
therefore does not move between seeds, while the identities the KB and the
backend see, and with them the latency draws, are new for every seed.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from helpers import DexBuilder, build_apk, build_elf64  # noqa: E402

PACKAGE = "Package"
API = "Api"
URL = "HttpsRequest"
MODEL = "ModelAsset"

# Marker token -> domain the mock backend assigns to a text carrying it
# (aidiscover.backends.MARKERS). ``tflite`` assets are analysed as
# "TensorFlow Lite", which the classifier maps to the same domain.
MARKER_DOMAINS = {
    "mlkit": "Computer Vision",
    "openai": "Natural Language Processing",
    "tensorflow": "Data Analysis",
    "vision": "Computer Vision",
    "ocr": "Computer Vision",
    "nlp": "Natural Language Processing",
    "speech": "Audio and Speech Processing",
    "arcore": "Augmented Reality",
    "onnx": "Data Analysis",
    "tflite": "Data Analysis",
    "caffemodel": "Computer Vision",
}
CODE_TOKENS = ("mlkit", "tensorflow", "vision", "ocr", "nlp", "speech", "arcore", "onnx")
ENDPOINT_TOKENS = ("openai", "vision", "speech", "nlp", "ocr")
MODEL_SUFFIXES = {".tflite": "tflite", ".caffemodel": "caffemodel"}

_SYLLABLES = (
    "ka", "lo", "mi", "ne", "ru", "ta", "po", "si", "de", "fa", "gu", "ben",
    "tor", "lin", "mar", "zel", "qua", "rix", "dov", "pem", "sol", "vek", "bra", "hum",
)
_CLASS_SUFFIXES = ("Helper", "Manager", "Client", "Session", "Wrapper", "Bridge", "Runner")
_SIGNATURES = (
    ("void", ()),
    ("int", ("int",)),
    ("boolean", ("java.lang.String",)),
    ("java.lang.String", ("long", "int")),
    ("byte[]", ("byte[]",)),
)
_PLATFORM_PACKAGES = (
    "android.app", "android.os", "android.view", "android.widget", "android.content",
    "androidx.core.app", "androidx.lifecycle", "androidx.recyclerview.widget",
    "java.util", "java.io", "java.net", "java.util.concurrent",
    "kotlin.collections", "kotlin.jvm.internal", "kotlinx.coroutines",
)
_PLATFORM_METHODS = ("get", "set", "put", "onCreate", "onStart", "close", "apply", "invoke", "run", "remove")
_FILLER_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789 _-.,=+%()[]"


@dataclass(frozen=True)
class Profile:
    """The fixed shape of a corpus; the seed only fills in identities."""

    apps: int
    sdks: int  # size of the shared SDK pool, most popular first
    sdk_packages: int
    sdk_classes: int  # per SDK package
    sdk_methods: int  # per SDK class
    app_classes: tuple[int, ...]  # app-specific class counts, dealt out to apps
    app_methods: int
    obfuscated_classes: int
    platform_classes: int
    platform_methods: int
    urls: int  # non-AI endpoint strings in the dex, per app
    ai_urls: int  # AI endpoint strings in the dex, per app
    wrapper_classes: int  # app-side classes named after an AI SDK, per app
    wrapper_methods: int
    so_bytes: int  # approximate size of each app's native library
    model_every: int  # every n-th app bundles a model asset (0: none)


ORDINARY = Profile(
    apps=40, sdks=24, sdk_packages=3, sdk_classes=8, sdk_methods=10,
    app_classes=(36, 52, 68, 84, 100), app_methods=8, obfuscated_classes=12,
    platform_classes=150, platform_methods=10, urls=6, ai_urls=1,
    wrapper_classes=1, wrapper_methods=3, so_bytes=192 * 1024, model_every=3,
)
AI_HEAVY = Profile(
    apps=6, sdks=8, sdk_packages=2, sdk_classes=3, sdk_methods=3,
    app_classes=(20, 30), app_methods=3, obfuscated_classes=8,
    platform_classes=30, platform_methods=4, urls=4, ai_urls=200,
    wrapper_classes=180, wrapper_methods=5, so_bytes=64 * 1024, model_every=1,
)
TINY = Profile(
    apps=3, sdks=4, sdk_packages=1, sdk_classes=2, sdk_methods=2,
    app_classes=(3, 5), app_methods=2, obfuscated_classes=2,
    platform_classes=3, platform_methods=2, urls=2, ai_urls=1,
    wrapper_classes=1, wrapper_methods=2, so_bytes=2 * 1024, model_every=2,
)


@dataclass
class App:
    """One generated APK: its entries and its planted AI components."""

    app_id: str
    entries: list[tuple[str, bytes]]
    truth: dict[str, str]  # "<kind>::<text>" -> domain, AI components only


def truth_key(kind: str, text: str) -> str:
    return f"{kind}::{text}"


def render_api(class_name: str, ret: str, method: str, params: tuple[str, ...]) -> str:
    return f"<{class_name}: {ret} {method}({','.join(params)})>"


class _Names:
    """Fresh marker-free identifiers, unique within one corpus."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def word(self, parts: int = 3) -> str:
        while True:
            text = "".join(self.rng.choice(_SYLLABLES) for _ in range(parts))
            if any(t in text for t in MARKER_DOMAINS):
                continue
            if text not in self.used:
                self.used.add(text)
                return text
            parts += 1  # the short names are running out

    def capitalized(self) -> str:
        return self.word().capitalize()


def _zipf_usage(profile: Profile) -> list[int]:
    """How many apps use the SDK of each popularity rank."""
    return [
        max(1, round(profile.apps * min(1.0, 0.9 / (rank + 1) ** 0.8)))
        for rank in range(profile.sdks)
    ]


def _add_methods(dex: DexBuilder, class_name: str, count: int, method_names) -> list[str]:
    methods = []
    rendered = []
    for i in range(count):
        ret, params = _SIGNATURES[i % len(_SIGNATURES)]
        name = method_names[i]
        methods.append((ret, name, params))
        rendered.append(render_api(class_name, ret, name, params))
    dex.add_class(class_name, methods)
    return rendered


def _method_names(count: int) -> list[str]:
    return [f"{_SYLLABLES[i % len(_SYLLABLES)]}{i}" for i in range(count)]


def _build_sdk(rank: int, names: _Names, profile: Profile) -> tuple[str | None, list[str]]:
    """One shared SDK: its marker token (every third SDK is an AI SDK) and classes."""
    token = CODE_TOKENS[(rank // 3) % len(CODE_TOKENS)] if rank % 3 == 1 else None
    vendor = names.word(2)
    product = token or names.word(2)
    classes = []
    for _ in range(profile.sdk_packages):
        package = f"com.{vendor}.{product}.{names.word(2)}"
        classes.extend(f"{package}.{names.capitalized()}" for _ in range(profile.sdk_classes))
    return token, classes


def _native_library(rng: random.Random, urls: list[str], size: int) -> bytes:
    """An ELF whose .rodata holds ``urls`` and then printable runs between binary bytes."""
    filler = "".join(rng.choice(_FILLER_CHARS) for _ in range(4096)).encode("ascii")
    body = bytearray()
    for url in urls:
        body += url.encode("ascii") + b"\x00"
    offset = 0
    while len(body) < size:
        run = rng.randrange(8, 96)
        body += filler[offset : offset + run] + b"\x00" + rng.randbytes(rng.randrange(1, 8)) + b"\x00"
        offset = (offset + run) % (len(filler) - 96)
    return build_elf64(bytes(body))


def iter_apps(seed: int, profile: Profile):
    """Yield the corpus of ``profile`` for ``seed``, one App at a time."""
    rng = random.Random(seed)
    names = _Names(rng)

    sdks = [_build_sdk(rank, names, profile) for rank in range(profile.sdks)]
    users: list[set[int]] = [set() for _ in range(profile.apps)]
    for rank, count in enumerate(_zipf_usage(profile)):
        for k in range(count):
            users[(rank * 7 + k * profile.apps // count) % profile.apps].add(rank)
    sizes = [profile.app_classes[i * 3 % len(profile.app_classes)] for i in range(profile.apps)]
    platform_pool = [
        f"{package}.{names.capitalized()}" for package in _PLATFORM_PACKAGES for _ in range(12)
    ]
    sdk_methods = _method_names(profile.sdk_methods)
    app_methods = _method_names(max(profile.app_methods, profile.wrapper_methods))

    for index in range(profile.apps):
        app_word = names.word(2)
        app_id = f"app{index:03d}_{app_word}"
        truth: dict[str, str] = {}
        main = DexBuilder()
        libs = DexBuilder()

        for rank in sorted(users[index]):
            token, classes = sdks[rank]
            for class_name in classes:
                rendered = _add_methods(libs, class_name, profile.sdk_methods, sdk_methods)
                if token:
                    package = class_name.rsplit(".", 1)[0]
                    truth[truth_key(PACKAGE, package)] = MARKER_DOMAINS[token]
                    for text in rendered:
                        truth[truth_key(API, text)] = MARKER_DOMAINS[token]

        for class_name in rng.sample(platform_pool, min(profile.platform_classes, len(platform_pool))):
            main.add_class(
                class_name,
                [(ret, m, params) for (ret, params), m in zip(_SIGNATURES * 2, _PLATFORM_METHODS[: profile.platform_methods])],
            )

        features = [f"com.{app_word}.{names.word(2)}" for _ in range(4)]
        for c in range(sizes[index]):
            class_name = f"{features[c % len(features)]}.{names.capitalized()}"
            _add_methods(main, class_name, profile.app_methods, app_methods)
        for c in range(profile.obfuscated_classes):
            a, b = rng.choice("abcdefgh"), rng.choice("ijklmnop")
            _add_methods(main, f"{a}.{b}.{names.word(1)}", 2, ["a", "b"])

        for w in range(profile.wrapper_classes):
            token = CODE_TOKENS[(index + w) % len(CODE_TOKENS)]
            class_name = (
                f"{features[w % len(features)]}.{names.capitalized()}"
                f"{token.capitalize()}{_CLASS_SUFFIXES[w % len(_CLASS_SUFFIXES)]}"
            )
            for text in _add_methods(main, class_name, profile.wrapper_methods, app_methods):
                truth[truth_key(API, text)] = MARKER_DOMAINS[token]

        dex_urls = [f"https://api.{names.word(2)}.com/v{u % 3 + 1}/{names.word()}" for u in range(profile.urls)]
        for u in range(profile.ai_urls):
            token = ENDPOINT_TOKENS[(index + u) % len(ENDPOINT_TOKENS)]
            host = "api.openai.com" if token == "openai" else f"{token}.{names.word(2)}.com"
            url = f"https://{host}/v1/{names.word()}"
            dex_urls.append(url)
            truth[truth_key(URL, url)] = MARKER_DOMAINS[token]
        for url in dex_urls:
            main.add_string(url)

        token = ENDPOINT_TOKENS[index % len(ENDPOINT_TOKENS)]
        so_urls = [f"https://cdn.{names.word(2)}.net/{names.word()}", f"https://{token}.{names.word(2)}.io/v2/run"]
        truth[truth_key(URL, so_urls[1])] = MARKER_DOMAINS[token]

        entries = [
            ("AndroidManifest.xml", b"\x03\x00\x08\x00" + app_id.encode("ascii")),
            ("classes.dex", main.build()),
            ("classes2.dex", libs.build()),
            (f"lib/arm64-v8a/lib{app_word}.so", _native_library(rng, so_urls, profile.so_bytes)),
            (f"assets/config/{names.word()}.json", b"{}"),
            ("resources.arsc", b"\x02\x00\x0c\x00arsc"),
            ("META-INF/MANIFEST.MF", b"Manifest-Version: 1.0\n"),
        ]
        if profile.model_every and index % profile.model_every == 0:
            suffix = (".tflite", ".caffemodel")[(index // profile.model_every) % 2]
            name = f"assets/models/{names.word()}{suffix}"
            entries.append((name, b"model" + rng.randbytes(64)))
            truth[truth_key(MODEL, name)] = MARKER_DOMAINS[MODEL_SUFFIXES[suffix]]
        yield App(app_id=app_id, entries=entries, truth=truth)


def write_corpus(seed: int, profile: Profile, out_dir: Path) -> tuple[list[Path], dict[str, dict[str, str]]]:
    """Write every APK of the corpus; return the paths and the truth per app id."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths, truth = [], {}
    for app in iter_apps(seed, profile):
        paths.append(build_apk(out_dir / f"{app.app_id}.apk", app.entries))
        truth[app.app_id] = app.truth
    return paths, truth


def corpus_digest(seed: int, profile: Profile) -> str:
    """SHA-256 over every entry name, entry body and truth row of a corpus."""
    h = hashlib.sha256()
    for app in iter_apps(seed, profile):
        h.update(app.app_id.encode())
        for name, body in app.entries:
            h.update(name.encode() + b"\x00" + hashlib.sha256(body).digest())
        for key in sorted(app.truth):
            h.update(f"{key}={app.truth[key]}\n".encode())
    return h.hexdigest()
