"""Fixture builders: minimal DEX, ELF, and APK images assembled byte by byte.

These writers are independent of the package's parsers; they compose the
binary layouts directly from the published format tables so parser tests
check a genuinely separate construction path.
"""

from __future__ import annotations

import hashlib
import struct
import zipfile
import zlib
from pathlib import Path

# ---------------------------------------------------------------------------
# DEX writer

_PRIMITIVE_DESCRIPTORS = {
    "void": "V",
    "boolean": "Z",
    "byte": "B",
    "short": "S",
    "char": "C",
    "int": "I",
    "long": "J",
    "float": "F",
    "double": "D",
}

NO_INDEX = 0xFFFFFFFF
ACC_PUBLIC = 0x0001

MAP_HEADER = 0x0000
MAP_STRING_ID = 0x0001
MAP_TYPE_ID = 0x0002
MAP_PROTO_ID = 0x0003
MAP_METHOD_ID = 0x0005
MAP_CLASS_DEF = 0x0006
MAP_MAP_LIST = 0x1000
MAP_TYPE_LIST = 0x1001
MAP_STRING_DATA = 0x2002


def type_descriptor(source_name: str) -> str:
    """Source-form type name to descriptor: com.a.B -> Lcom/a/B;, int[] -> [I."""
    dims = 0
    while source_name.endswith("[]"):
        dims += 1
        source_name = source_name[:-2]
    if source_name in _PRIMITIVE_DESCRIPTORS:
        base = _PRIMITIVE_DESCRIPTORS[source_name]
    else:
        base = "L" + source_name.replace(".", "/") + ";"
    return "[" * dims + base


def shorty_char(source_name: str) -> str:
    if source_name.endswith("[]"):
        return "L"
    return _PRIMITIVE_DESCRIPTORS.get(source_name, "L")


def _uleb128(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _mutf8(text: str) -> bytes:
    encoded = bytearray()
    for ch in text:
        if ch == "\x00":
            encoded += b"\xc0\x80"
        else:
            encoded += ch.encode("utf-8")
    return bytes(encoded)


class DexBuilder:
    """Assemble a structurally valid classesN.dex from symbol declarations."""

    def __init__(self):
        # class source name -> list of (return type, method name, [param types])
        self.classes: dict[str, list[tuple[str, str, list[str]]]] = {}
        self.referenced_classes: list[str] = []
        self.extra_strings: list[str] = []

    def add_class(self, name: str, methods=()) -> "DexBuilder":
        self.classes.setdefault(name, [])
        for ret, meth, params in methods:
            self.classes[name].append((ret, meth, list(params)))
        return self

    def add_referenced_class(self, name: str) -> "DexBuilder":
        self.referenced_classes.append(name)
        return self

    def add_string(self, text: str) -> "DexBuilder":
        self.extra_strings.append(text)
        return self

    def build(self) -> bytes:
        object_class = "java.lang.Object"

        descriptors: set[str] = {type_descriptor(object_class)}
        for name in list(self.classes) + self.referenced_classes:
            descriptors.add(type_descriptor(name))
        method_rows: list[tuple[str, str, str, tuple[str, ...]]] = []
        for cls, methods in self.classes.items():
            for ret, meth, params in methods:
                descriptors.add(type_descriptor(ret))
                for p in params:
                    descriptors.add(type_descriptor(p))
                method_rows.append((cls, ret, meth, tuple(params)))

        protos: set[tuple[str, tuple[str, ...]]] = {(r, p) for _, r, _, p in method_rows}

        strings: set[str] = set(descriptors) | set(self.extra_strings)
        for _, _, meth, _ in method_rows:
            strings.add(meth)
        shorties: dict[tuple[str, tuple[str, ...]], str] = {}
        for ret, params in protos:
            shorty = shorty_char(ret) + "".join(shorty_char(p) for p in params)
            shorties[(ret, params)] = shorty
            strings.add(shorty)

        string_pool = sorted(strings)
        string_idx = {s: i for i, s in enumerate(string_pool)}
        type_pool = sorted(descriptors, key=lambda d: string_idx[d])
        type_idx = {d: i for i, d in enumerate(type_pool)}
        proto_pool = sorted(
            protos, key=lambda rp: (type_idx[type_descriptor(rp[0])],
                                    tuple(type_idx[type_descriptor(p)] for p in rp[1]))
        )
        proto_idx = {rp: i for i, rp in enumerate(proto_pool)}
        method_pool = sorted(
            method_rows,
            key=lambda row: (
                type_idx[type_descriptor(row[0])],
                string_idx[row[2]],
                proto_idx[(row[1], row[3])],
            ),
        )
        class_pool = sorted(self.classes, key=lambda c: type_idx[type_descriptor(c)])

        n_str, n_typ, n_pro = len(string_pool), len(type_pool), len(proto_pool)
        n_met, n_cls = len(method_pool), len(class_pool)

        off_string_ids = 0x70
        off_type_ids = off_string_ids + 4 * n_str
        off_proto_ids = off_type_ids + 4 * n_typ
        off_method_ids = off_proto_ids + 12 * n_pro
        off_class_defs = off_method_ids + 8 * n_met
        data_off = off_class_defs + 0x20 * n_cls

        # Data section: type_lists (4-aligned), then string data, then map.
        data = bytearray()

        def here() -> int:
            return data_off + len(data)

        type_list_offs: dict[tuple[str, ...], int] = {}
        for ret, params in proto_pool:
            if params and params not in type_list_offs:
                while here() % 4:
                    data.append(0)
                type_list_offs[params] = here()
                data += struct.pack("<I", len(params))
                for p in params:
                    data += struct.pack("<H", type_idx[type_descriptor(p)])

        string_data_offs: list[int] = []
        for s in string_pool:
            string_data_offs.append(here())
            data += _uleb128(len(s)) + _mutf8(s) + b"\x00"

        while here() % 4:
            data.append(0)
        map_off = here()
        map_entries = [
            (MAP_HEADER, 1, 0),
            (MAP_STRING_ID, n_str, off_string_ids),
            (MAP_TYPE_ID, n_typ, off_type_ids),
        ]
        if n_pro:
            map_entries.append((MAP_PROTO_ID, n_pro, off_proto_ids))
        if n_met:
            map_entries.append((MAP_METHOD_ID, n_met, off_method_ids))
        if n_cls:
            map_entries.append((MAP_CLASS_DEF, n_cls, off_class_defs))
        if type_list_offs:
            map_entries.append(
                (MAP_TYPE_LIST, len(type_list_offs), min(type_list_offs.values()))
            )
        map_entries.append((MAP_STRING_DATA, n_str, string_data_offs[0] if string_data_offs else map_off))
        map_entries.append((MAP_MAP_LIST, 1, map_off))
        map_entries.sort(key=lambda e: e[2])
        data += struct.pack("<I", len(map_entries))
        for item_type, size, offset in map_entries:
            data += struct.pack("<HHII", item_type, 0, size, offset)

        file_size = data_off + len(data)
        blob = bytearray(file_size)
        blob[data_off:] = data

        for i, off in enumerate(string_data_offs):
            struct.pack_into("<I", blob, off_string_ids + 4 * i, off)
        for i, desc in enumerate(type_pool):
            struct.pack_into("<I", blob, off_type_ids + 4 * i, string_idx[desc])
        for i, (ret, params) in enumerate(proto_pool):
            struct.pack_into(
                "<III",
                blob,
                off_proto_ids + 12 * i,
                string_idx[shorties[(ret, params)]],
                type_idx[type_descriptor(ret)],
                type_list_offs.get(params, 0),
            )
        for i, (cls, ret, meth, params) in enumerate(method_pool):
            struct.pack_into(
                "<HHI",
                blob,
                off_method_ids + 8 * i,
                type_idx[type_descriptor(cls)],
                proto_idx[(ret, params)],
                string_idx[meth],
            )
        for i, cls in enumerate(class_pool):
            struct.pack_into(
                "<IIIIIIII",
                blob,
                off_class_defs + 0x20 * i,
                type_idx[type_descriptor(cls)],
                ACC_PUBLIC,
                type_idx[type_descriptor("java.lang.Object")],
                0,
                NO_INDEX,
                0,
                0,
                0,
            )

        blob[0:8] = b"dex\n035\x00"
        struct.pack_into("<I", blob, 0x20, file_size)
        struct.pack_into("<I", blob, 0x24, 0x70)  # header_size
        struct.pack_into("<I", blob, 0x28, 0x12345678)  # endian_tag
        struct.pack_into("<II", blob, 0x2C, 0, 0)  # link
        struct.pack_into("<I", blob, 0x34, map_off)
        struct.pack_into("<II", blob, 0x38, n_str, off_string_ids if n_str else 0)
        struct.pack_into("<II", blob, 0x40, n_typ, off_type_ids if n_typ else 0)
        struct.pack_into("<II", blob, 0x48, n_pro, off_proto_ids if n_pro else 0)
        struct.pack_into("<II", blob, 0x50, 0, 0)  # field_ids
        struct.pack_into("<II", blob, 0x58, n_met, off_method_ids if n_met else 0)
        struct.pack_into("<II", blob, 0x60, n_cls, off_class_defs if n_cls else 0)
        struct.pack_into("<II", blob, 0x68, len(data), data_off)

        struct.pack_into("<20s", blob, 0x0C, hashlib.sha1(blob[0x20:]).digest())
        struct.pack_into("<I", blob, 0x08, zlib.adler32(bytes(blob[0x0C:])) & 0xFFFFFFFF)
        return bytes(blob)


# ---------------------------------------------------------------------------
# ELF writers

SHT_NULL = 0
SHT_PROGBITS = 1
SHT_STRTAB = 3


def build_elf64(rodata: bytes, extra_sections: list[tuple[str, int, bytes]] = ()) -> bytes:
    """Little-endian ELF64 shared object with a .rodata payload.

    extra_sections: (name, sh_type, payload) appended after .rodata.
    """
    sections = [(".rodata", SHT_PROGBITS, rodata)] + list(extra_sections)

    shstrtab = bytearray(b"\x00")
    name_offs = []
    for name, _, _ in sections:
        name_offs.append(len(shstrtab))
        shstrtab += name.encode("ascii") + b"\x00"
    shstr_name_off = len(shstrtab)
    shstrtab += b".shstrtab\x00"

    ehsize = 0x40
    payloads = bytearray()
    offsets = []
    for _, _, payload in sections:
        offsets.append(ehsize + len(payloads))
        payloads += payload
    shstr_off = ehsize + len(payloads)
    payloads += shstrtab
    shoff = ehsize + len(payloads)

    n_sections = len(sections) + 2  # + NULL + .shstrtab
    blob = bytearray()
    blob += b"\x7fELF\x02\x01\x01\x00" + b"\x00" * 8
    blob += struct.pack("<HHIQQQIHHHHHH",
                        3, 0xB7, 1,  # ET_DYN, aarch64, version
                        0, 0, shoff,
                        0, ehsize, 0, 0,
                        0x40, n_sections, n_sections - 1)
    assert len(blob) == ehsize
    blob += payloads

    def shdr(name_off, sh_type, offset, size):
        return struct.pack("<IIQQQQIIQQ", name_off, sh_type, 0, 0, offset, size, 0, 0, 1, 0)

    blob += shdr(0, SHT_NULL, 0, 0)
    for (name, sh_type, payload), name_off, offset in zip(sections, name_offs, offsets):
        blob += shdr(name_off, sh_type, offset, len(payload))
    blob += shdr(shstr_name_off, SHT_STRTAB, shstr_off, len(shstrtab))
    return bytes(blob)


def build_elf32_msb(rodata: bytes) -> bytes:
    """Big-endian ELF32 object with one .rodata section."""
    shstrtab = b"\x00.rodata\x00.shstrtab\x00"
    ehsize = 0x34
    rodata_off = ehsize
    shstr_off = rodata_off + len(rodata)
    shoff = shstr_off + len(shstrtab)

    blob = bytearray()
    blob += b"\x7fELF\x01\x02\x01\x00" + b"\x00" * 8
    blob += struct.pack(">HHIIIIIHHHHHH",
                        3, 0x14, 1,  # ET_DYN, ppc, version
                        0, 0, shoff,
                        0, ehsize, 0, 0,
                        0x28, 3, 2)
    assert len(blob) == ehsize
    blob += rodata + shstrtab

    def shdr(name_off, sh_type, offset, size):
        return struct.pack(">IIIIIIIIII", name_off, sh_type, 0, 0, offset, size, 0, 0, 1, 0)

    blob += shdr(0, SHT_NULL, 0, 0)
    blob += shdr(1, SHT_PROGBITS, rodata_off, len(rodata))
    blob += shdr(9, SHT_STRTAB, shstr_off, len(shstrtab))
    return bytes(blob)


# ---------------------------------------------------------------------------
# APK writer

FIXED_ZIP_DATE = (1980, 1, 1, 0, 0, 0)


def build_apk(path: Path, entries: list[tuple[str, bytes]]) -> Path:
    """Write a ZIP/APK with the given entries in order, fixed timestamps."""
    path = Path(path)
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        for name, payload in entries:
            info = zipfile.ZipInfo(name, date_time=FIXED_ZIP_DATE)
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, payload)
    return path


# ---------------------------------------------------------------------------
# Test backends

import json as _json
import threading as _threading
import time as _time

from aidiscover.backends import MARKERS, MockBackend
from aidiscover.gateway import BackendUnavailable, RenderedRequest, SamplingConfig, TaskId

_ITEM_TOKENS = [m.token for m in MARKERS] + ["plain"]


def marked_items(n: int, prefix: str = "com.item") -> list[str]:
    """``n`` distinct item names cycling through the mock's markers and one
    plain name, so the mock answers neighbouring items differently."""
    return [f"{prefix}{i}.{_ITEM_TOKENS[i % len(_ITEM_TOKENS)]}" for i in range(n)]


def _without_index(row: dict) -> dict:
    return {name: value for name, value in row.items() if name != "index"}


def mock_rows(task_id: str, items) -> list[dict]:
    """The mock's row for each item, without its ``index``: what the result
    at that item's position must hold, whatever the batching."""
    request = RenderedRequest(task_id, tuple(items), "", SamplingConfig())
    return [_without_index(row) for row in _json.loads(MockBackend().complete(request))]


def result_rows(results) -> list[dict]:
    """Each result's payload without its batch-local ``index``."""
    return [_without_index(r.payload) for r in results]


class ScriptedBackend:
    """Replays canned raw responses (or raises planted exceptions) in order."""

    model_id = "scripted"

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        if not self.responses:
            raise AssertionError("scripted backend ran out of responses")
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class DroppingBackend:
    """Well-behaved mock that drops the last row of multi-item batches.

    Exercises the misalignment -> singleton fallback path: singletons pass
    through untouched.
    """

    model_id = "dropper"

    def __init__(self):
        self.inner = MockBackend()

    def complete(self, request):
        raw = self.inner.complete(request)
        if request.task_id != TaskId.SUMMARIZE and len(request.items) > 1:
            rows = _json.loads(raw)
            return _json.dumps(rows[:-1])
        return raw


class FailingCall:
    """Mock answers, except that call number ``fail_at`` raises BackendUnavailable.

    Counts calls. The first call is held until the failure has been raised,
    so a gateway that noticed failures only in batch order would have sent
    every queued batch by then; every other call takes 20 ms, so a worker
    busy when the failure is raised is still in that call when it is seen.
    With ``hold_first`` false the first call takes 20 ms too, for a failure
    that can only come after it returned.
    """

    model_id = "failing-call"

    def __init__(self, fail_at: int, hold_first: bool = True):
        self.inner = MockBackend()
        self.fail_at = fail_at
        self.hold_first = hold_first
        self.calls = 0
        self._lock = _threading.Lock()
        self._failed = _threading.Event()

    def complete(self, request):
        with self._lock:
            self.calls += 1
            number = self.calls
        if number == self.fail_at:
            self._failed.set()
            raise BackendUnavailable(f"call {number} failed")
        if number == 1 and self.hold_first:
            self._failed.wait(5)
        else:
            _time.sleep(0.02)
        return self.inner.complete(request)
