import zipfile

import pytest
from hypothesis import given

import aidiscover.apk
from aidiscover.apk import (
    ApkError,
    CorruptCentralDirectory,
    EntryKind,
    NotAZip,
    classify_entry,
    open_apk,
)

from conftest import MUTATIONS, golden_dex1, golden_elf, mutate
from helpers import build_apk


@pytest.mark.parametrize(
    "name,kind",
    [
        ("classes.dex", EntryKind.DEX_FILE),
        ("classes2.dex", EntryKind.DEX_FILE),
        ("classes3.dex", EntryKind.DEX_FILE),
        ("classes10.dex", EntryKind.DEX_FILE),
        ("classes999.dex", EntryKind.DEX_FILE),
        ("classes1.dex", EntryKind.OTHER),
        ("classes1000.dex", EntryKind.OTHER),
        ("sub/classes.dex", EntryKind.OTHER),
        ("lib/arm64-v8a/libfoo.so", EntryKind.NATIVE_LIB),
        ("lib/x86/sub/libbar.so", EntryKind.NATIVE_LIB),
        ("lib/arm64-v8a/readme.txt", EntryKind.OTHER),
        ("assets/model.tflite", EntryKind.ASSET),
        ("assets/deep/nested/vocab.txt", EntryKind.ASSET),
        ("AndroidManifest.xml", EntryKind.MANIFEST),
        ("res/layout/main.xml", EntryKind.RESOURCE),
        ("resources.arsc", EntryKind.RESOURCE),
        ("META-INF/CERT.RSA", EntryKind.META_INFO),
        ("kotlin/kotlin.kotlin_builtins", EntryKind.OTHER),
    ],
)
def test_classify_entry(name, kind):
    assert classify_entry(name) is kind
    # pure: a second call answers the same
    assert classify_entry(name) is kind


def test_open_apk_counts_dex(golden_apk):
    with open_apk(golden_apk) as archive:
        assert len(archive.entries_of_kind(EntryKind.DEX_FILE)) == 2
        natives = archive.entries_of_kind(EntryKind.NATIVE_LIB)
        assert [e.name for e in natives] == ["lib/arm64-v8a/libinfer.so"]


def test_open_apk_preserves_central_directory_order(tmp_path):
    names = ["zzz.bin", "AndroidManifest.xml", "classes.dex", "assets/a.txt"]
    apk = build_apk(tmp_path / "ordered.apk", [(n, b"x" * 4) for n in names])
    with open_apk(apk) as archive:
        assert [e.name for e in archive.entries] == names


def test_round_trip_sizes(golden_apk):
    with open_apk(golden_apk) as archive:
        for entry in archive:
            assert len(archive.read_bytes(entry)) == entry.size_bytes


def test_not_a_zip(tmp_path):
    bogus = tmp_path / "plain.txt"
    bogus.write_text("just words, no archive")
    with pytest.raises(NotAZip):
        open_apk(bogus)


def test_corrupt_central_directory(tmp_path):
    apk = build_apk(tmp_path / "ok.apk", [("classes.dex", b"abc")])
    data = bytearray(apk.read_bytes())
    # smash the end-of-central-directory record
    eocd = data.rfind(b"PK\x05\x06")
    data[eocd + 2 : eocd + 4] = b"\xff\xff"
    broken = tmp_path / "broken.apk"
    broken.write_bytes(bytes(data))
    with pytest.raises(CorruptCentralDirectory):
        open_apk(broken)


def test_duplicate_entry_names_rejected(tmp_path):
    path = tmp_path / "dupe.apk"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("classes.dex", b"one")
        zf.writestr("classes.dex", b"two")
    with pytest.raises(CorruptCentralDirectory):
        open_apk(path)


def test_backslash_entry_name_rejected(tmp_path):
    path = tmp_path / "slash.apk"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr(zipfile.ZipInfo("evil\\path.txt"), b"x")
    with pytest.raises(CorruptCentralDirectory):
        open_apk(path)


def test_refused_entry_name_closes_the_zip(tmp_path, monkeypatch):
    path = tmp_path / "slash.apk"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr(zipfile.ZipInfo("evil\\path.txt"), b"x")
    opened = []

    class SpyZipFile(zipfile.ZipFile):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    # apk.zipfile is the shared zipfile module, so the APK is written first.
    monkeypatch.setattr(aidiscover.apk.zipfile, "ZipFile", SpyZipFile)
    with pytest.raises(CorruptCentralDirectory):
        open_apk(path)
    assert len(opened) == 1
    assert opened[0].fp is None


def test_absolute_entry_name_rejected(tmp_path):
    path = tmp_path / "abs.apk"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr(zipfile.ZipInfo("/etc/passwd"), b"x")
    with pytest.raises(CorruptCentralDirectory):
        open_apk(path)


def test_no_dex_is_not_an_error(tmp_path):
    apk = build_apk(tmp_path / "nodex.apk", [("res/values.xml", b"<x/>")])
    with open_apk(apk) as archive:
        assert len(archive.entries_of_kind(EntryKind.DEX_FILE)) == 0


def test_missing_apk_is_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        open_apk(tmp_path / "absent.apk")


@pytest.fixture(scope="module")
def fuzz_apk(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    base = build_apk(
        root / "base.apk",
        [
            ("classes.dex", golden_dex1()),
            ("lib/arm64-v8a/libinfer.so", golden_elf()),
            ("assets/empty.tflite", b""),
        ],
    )
    return base.read_bytes(), root / "mutant.apk"


@given(MUTATIONS)
def test_mutated_apk_raises_only_apk_errors(fuzz_apk, mutation):
    base, path = fuzz_apk
    path.write_bytes(mutate(base, mutation))
    try:
        archive = open_apk(path)
    except ApkError:
        return
    with archive:
        for entry in archive:
            try:
                archive.read_bytes(entry)
            except ApkError:
                pass


@pytest.mark.parametrize("method", [12, 14, 99])  # bzip2, LZMA, unknown
def test_corrupt_or_unknown_compression_method(tmp_path, method):
    path = tmp_path / "method.apk"
    # LZMA properties whose dictionary byte the decoder rejects
    payload = b"\x09\x04\x05\x00\xff\x00\x00\x01\x00" + b"garbage" * 8
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("classes.dex", payload)
    data = bytearray(path.read_bytes())
    data[8:10] = method.to_bytes(2, "little")  # local header
    central = data.find(b"PK\x01\x02")
    data[central + 10 : central + 12] = method.to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with open_apk(path) as archive, pytest.raises(CorruptCentralDirectory):
        archive.read_bytes("classes.dex")


@pytest.mark.parametrize("declared", ["honest", "understated"])
def test_deflate_bomb_is_refused_at_the_cap(tmp_path, monkeypatch, declared):
    cap = 1 << 20
    monkeypatch.setattr(aidiscover.apk, "MAX_ENTRY_BYTES", cap)
    path = build_apk(tmp_path / "bomb.apk", [("classes.dex", bytes(16 * cap)), ("classes2.dex", b"dex\n")])
    assert path.stat().st_size < 64 * 1024
    if declared == "understated":  # the central directory claims exactly the cap
        data = bytearray(path.read_bytes())
        central = data.find(b"PK\x01\x02")
        data[central + 24 : central + 28] = cap.to_bytes(4, "little")
        path.write_bytes(bytes(data))
    with open_apk(path) as archive:
        with pytest.raises(CorruptCentralDirectory):
            archive.read_bytes("classes.dex")
        assert archive.read_bytes("classes2.dex") == b"dex\n"
