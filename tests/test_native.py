"""The ELF string scan keeps exactly the printable runs that hold "://"."""

import re
import struct

import pytest
from hypothesis import example, given, strategies as st

from aidiscover.native import MIN_RUN_LENGTH, scan_elf_strings

from helpers import SHT_PROGBITS, build_elf32_msb, build_elf64

SHT_NOTE = 7

_PRINTABLE_RUN = re.compile(rb"[\x20-\x7e]{%d,}" % MIN_RUN_LENGTH)


def reference_runs(blob: bytes) -> list[str]:
    """Every printable run of at least MIN_RUN_LENGTH bytes, decoded, kept when it holds "://"."""
    return [m.group(0).decode("ascii") for m in _PRINTABLE_RUN.finditer(blob) if b"://" in m.group(0)]


# URL parts, printable filler, and each kind of byte that ends a run: NUL, the
# last control byte, DEL and bytes above ASCII.
_blobs = st.lists(
    st.one_of(
        st.sampled_from([b"://", b"http", b"https", b"\x00", b"\x1f", b"\x7f", b"\x80", b"\xff"]),
        st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=10).map(str.encode),
    ),
    max_size=40,
).map(b"".join)


@given(_blobs.filter(bool), _blobs)  # an empty .rodata and .data would take the fallback
@example(b"://abcdefgh", b"")  # a hit at the very start of a section
@example(b"\x00abcdefgh://", b"")  # ... and at its very end
@example(b"x\x00a://b\x00y", b"")  # a run shorter than MIN_RUN_LENGTH
@example(b"\x00http://a https://b ftp://c\x00", b"http://x://y")  # several hits in one run
@example(b"abcd://", b"efgh")  # a run cut by the section boundary
def test_section_runs_equal_the_filtered_regex_scan(rodata, data):
    scan = scan_elf_strings(build_elf64(rodata, [(".data", SHT_PROGBITS, data)]))
    assert scan.runs == reference_runs(rodata) + reference_runs(data)
    assert scan.warnings == []
    # The big-endian ELF32 section table leads to the same data.
    assert scan_elf_strings(build_elf32_msb(rodata)) == scan_elf_strings(build_elf64(rodata))


# Per builder: byte order, and the e_shoff format and offset, and where the e_shentsize/e_shnum pair sits.
_HEADERS = {"elf64": (build_elf64, "<", "Q", 0x28, 0x3A), "elf32_msb": (build_elf32_msb, ">", "I", 0x20, 0x2E)}


@pytest.mark.parametrize("extra", [8, 24, 200])
@pytest.mark.parametrize("layout", _HEADERS)
def test_section_headers_are_read_at_the_e_shentsize_stride(layout, extra):
    build, end, shoff_format, shoff_at, shentsize_at = _HEADERS[layout]
    rodata = b"\x00https://a.example.com/model\x00"
    blob = bytearray(build(rodata))
    shoff = struct.unpack_from(end + shoff_format, blob, shoff_at)[0]
    shentsize, shnum = struct.unpack_from(end + "HH", blob, shentsize_at)
    # Each header is followed by bytes that read as garbage at any other stride.
    headers = [blob[shoff + i * shentsize : shoff + (i + 1) * shentsize] for i in range(shnum)]
    blob[shoff:] = b"".join(header + b"\xff" * extra for header in headers)
    struct.pack_into(end + "H", blob, shentsize_at, shentsize + extra)
    scan = scan_elf_strings(bytes(blob))
    assert scan.runs == ["https://a.example.com/model"]
    assert scan.warnings == []


@given(_blobs)
@example(b"\x00https://a.example.com/path\x00")
def test_whole_file_fallback_equals_the_filtered_regex_scan(payload):
    blob = bytearray(build_elf64(payload))
    blob[0x28:0x30] = (len(blob) * 3).to_bytes(8, "little")  # e_shoff out of bounds
    scan = scan_elf_strings(bytes(blob))
    assert scan.runs == reference_runs(bytes(blob))
    assert scan.warnings[0].startswith("section table unusable")


@given(_blobs)
def test_no_data_section_falls_back_to_the_whole_file(payload):
    blob = build_elf64(b"", [(".note", SHT_NOTE, payload)])
    scan = scan_elf_strings(blob)
    assert scan.runs == reference_runs(blob)
    assert scan.warnings == ["no usable data sections; falling back to whole-file scan"]


def test_each_run_is_kept_once_whatever_its_hits():
    rodata = b"\x00".join([b"a://b", b"http://a.example/ https://b.example/", b"no scheme here at all"])
    assert scan_elf_strings(build_elf64(rodata)).runs == ["http://a.example/ https://b.example/"]
