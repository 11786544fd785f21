"""DEX id-table parser: strings, types, prototypes, methods, defined classes.

Reads the fixed-layout header and five id tables directly; no code bodies
are touched. Enough to recover every class, package, and method signature an
app defines or references, plus the raw string pool.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from typing import Iterator


class DexError(Exception):
    """Base class for DEX parse failures."""


class BadDexMagic(DexError):
    """Input does not start with a DEX magic number."""


class TruncatedDex(DexError):
    """A declared size or table offset points outside the file."""


_DEX_MAGIC = re.compile(rb"^dex\n\d{3}\x00")

HEADER_SIZE = 0x70

# Header field offsets (all little-endian u32 unless noted).
_OFF_FILE_SIZE = 0x20
_OFF_ENDIAN_TAG = 0x28
_OFF_STRING_IDS = 0x38  # size, then offset
_OFF_TYPE_IDS = 0x40
_OFF_PROTO_IDS = 0x48
_OFF_METHOD_IDS = 0x58
_OFF_CLASS_DEFS = 0x60

ENDIAN_CONSTANT = 0x12345678

_PRIMITIVES = {
    "V": "void",
    "Z": "boolean",
    "B": "byte",
    "S": "short",
    "C": "char",
    "I": "int",
    "J": "long",
    "F": "float",
    "D": "double",
}


@dataclass
class MethodRef:
    """One method_ids row rendered into source-form pieces."""

    class_name: str
    return_type: str
    name: str
    param_types: list[str]


@dataclass
class DexSymbols:
    """Everything the id tables say about one .dex file."""

    strings: list[str]
    class_names: list[str] = field(default_factory=list)  # defined + referenced, source form
    defined_class_names: list[str] = field(default_factory=list)
    methods: list[MethodRef] = field(default_factory=list)


def descriptor_to_source(desc: str) -> str:
    """Render a type descriptor in Java source form.

    "Lcom/foo/Bar;" -> "com.foo.Bar", "[I" -> "int[]", "V" -> "void".
    Unknown shapes are returned unchanged.
    """
    dims = 0
    while desc.startswith("["):
        dims += 1
        desc = desc[1:]
    if desc in _PRIMITIVES:
        base = _PRIMITIVES[desc]
    elif desc.startswith("L") and desc.endswith(";"):
        base = desc[1:-1].replace("/", ".")
    else:
        base = desc
    return base + "[]" * dims


def class_descriptor_to_name(desc: str) -> str | None:
    """Source-form class name for a (possibly array-wrapped) class descriptor."""
    desc = desc.lstrip("[")
    if desc.startswith("L") and desc.endswith(";"):
        return desc[1:-1].replace("/", ".")
    return None


def _u32(data: bytes, off: int) -> int:
    return struct.unpack_from("<I", data, off)[0]


def _uleb128(data: bytes, off: int) -> tuple[int, int]:
    result = 0
    shift = 0
    pos = off
    while True:
        if pos >= len(data):
            raise TruncatedDex(f"uleb128 runs off end at {off:#x}")
        byte = data[pos]
        result |= (byte & 0x7F) << shift
        pos += 1
        if byte < 0x80:
            return result, pos - off
        shift += 7
        if shift > 35:
            raise TruncatedDex(f"uleb128 too long at {off:#x}")


def _decode_mutf8(raw: bytes) -> str:
    # MUTF-8 encodes NUL as C0 80; otherwise close enough to UTF-8 for symbols.
    return raw.replace(b"\xc0\x80", b"\x00").decode("utf-8", errors="replace")


def _table(data: bytes, header_off: int, row_fmt: str, what: str) -> Iterator[tuple]:
    """Rows of the id table whose (size, offset) pair sits at ``header_off``.

    The whole table is bounds-checked before any row is returned.
    """
    size, off = struct.unpack_from("<II", data, header_off)
    if size == 0:
        return iter(())
    end = off + size * struct.calcsize(row_fmt)
    if off < HEADER_SIZE or end > len(data):
        raise TruncatedDex(f"{what} table [{off:#x}, {end:#x}) out of bounds")
    return struct.iter_unpack(row_fmt, memoryview(data)[off:end])


def parse_dex(data: bytes) -> DexSymbols:
    """Parse the id tables of one .dex file.

    Raises:
        BadDexMagic: no DEX magic.
        TruncatedDex: declared file size does not match, or a table offset or
            string offset points outside the file.
    """
    if not _DEX_MAGIC.match(data):
        raise BadDexMagic("missing DEX magic")
    if len(data) < HEADER_SIZE:
        raise TruncatedDex(f"file shorter than header: {len(data)} bytes")
    file_size = _u32(data, _OFF_FILE_SIZE)
    if file_size != len(data):
        raise TruncatedDex(f"declared file size {file_size} != actual {len(data)}")
    if _u32(data, _OFF_ENDIAN_TAG) != ENDIAN_CONSTANT:
        raise TruncatedDex("big-endian or garbled endian tag not supported")

    # Check every table's bounds before reading any row, so a table that runs
    # off the file is reported ahead of a bad row in an earlier table.
    string_ids = _table(data, _OFF_STRING_IDS, "<I", "string_ids")
    type_ids = _table(data, _OFF_TYPE_IDS, "<I", "type_ids")
    # (shorty_idx, return_type_idx, parameters_off)
    proto_ids = _table(data, _OFF_PROTO_IDS, "<III", "proto_ids")
    # (class_idx u16, proto_idx u16, name_idx u32)
    method_ids = _table(data, _OFF_METHOD_IDS, "<HHI", "method_ids")
    # only class_idx (u32 at row start) matters for defined classes
    class_defs = _table(data, _OFF_CLASS_DEFS, "<I28x", "class_defs")

    # string_ids: u32 offsets to string_data_item (uleb128 utf16 length + MUTF-8 + NUL)
    strings: list[str] = []
    for (str_off,) in string_ids:
        if str_off >= len(data):
            raise TruncatedDex(f"string_data offset {str_off:#x} out of bounds")
        _, lead = _uleb128(data, str_off)
        start = str_off + lead
        end = data.find(b"\x00", start)
        if end < 0:
            raise TruncatedDex(f"unterminated string data at {str_off:#x}")
        strings.append(_decode_mutf8(data[start:end]))

    # type_ids: u32 indexes into the string pool (descriptors)
    descriptors: list[str] = []
    for i, (str_idx,) in enumerate(type_ids):
        if str_idx >= len(strings):
            raise TruncatedDex(f"type_id {i} string index {str_idx} out of range")
        descriptors.append(strings[str_idx])

    # Each type in source form once, indexed by every method and proto row.
    sources = [descriptor_to_source(d) for d in descriptors]
    class_names = [class_descriptor_to_name(d) for d in descriptors]

    protos: list[tuple[str, list[str]]] = []
    for i, (_, return_type_idx, parameters_off) in enumerate(proto_ids):
        if return_type_idx >= len(descriptors):
            raise TruncatedDex(f"proto {i} return type index out of range")
        params: list[str] = []
        if parameters_off:
            if parameters_off + 4 > len(data):
                raise TruncatedDex(f"proto {i} type_list offset out of bounds")
            count = _u32(data, parameters_off)
            if parameters_off + 4 + count * 2 > len(data):
                raise TruncatedDex(f"proto {i} type_list runs off end")
            type_idxs = struct.unpack_from(f"<{count}H", data, parameters_off + 4)
            for j, type_idx in enumerate(type_idxs):
                if type_idx >= len(descriptors):
                    raise TruncatedDex(f"proto {i} param {j} type index out of range")
                params.append(sources[type_idx])
        protos.append((sources[return_type_idx], params))

    methods: list[MethodRef] = []
    for i, (class_idx, proto_idx, name_idx) in enumerate(method_ids):
        if class_idx >= len(descriptors) or proto_idx >= len(protos) or name_idx >= len(strings):
            raise TruncatedDex(f"method_id {i} index out of range")
        ret, params = protos[proto_idx]
        methods.append(
            MethodRef(
                class_name=sources[class_idx],
                return_type=ret,
                name=strings[name_idx],
                param_types=params,
            )
        )

    defined: list[str] = []
    for i, (class_idx,) in enumerate(class_defs):
        if class_idx >= len(descriptors):
            raise TruncatedDex(f"class_def {i} type index out of range")
        name = class_names[class_idx]
        if name:
            defined.append(name)

    return DexSymbols(
        strings=strings,
        class_names=[n for n in class_names if n],
        defined_class_names=defined,
        methods=methods,
    )
