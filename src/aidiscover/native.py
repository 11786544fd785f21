"""ELF shared-object scanning for embedded endpoint URLs.

Walks the section header table (32/64-bit, either endianness) and harvests
the printable byte runs that hold ``://`` from data-carrying sections. Corrupt
section headers are skipped, not fatal; an ELF without a usable section table
degrades to a whole-file scan so stripped or packed libraries still yield URLs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

ELF_MAGIC = b"\x7fELF"

SHT_PROGBITS = 1

# 8 bytes is the shortest run that can still hold a URL prefix.
MIN_RUN_LENGTH = 8

# A mask byte is 0 where a printable run ends: at any byte outside 0x20-0x7e.
_RUN_MASK = bytes(0x20 <= b <= 0x7E for b in range(256))


class BadElfMagic(Exception):
    """Input does not start with the ELF magic number."""


@dataclass
class ElfScan:
    """Printable runs holding ``://`` in one shared object, maximal and MIN_RUN_LENGTH or longer."""

    runs: list[str]
    warnings: list[str] = field(default_factory=list)


# Per ELF class: the e_shoff format and offset, the offset of the
# e_shentsize/e_shnum pair, the smallest plausible e_shentsize, and a section
# header as (sh_type @ 4, sh_offset, sh_size) past sh_flags and sh_addr.
_LAYOUTS = {1: ("I", 0x20, 0x2E, 40, "4xI8xII"), 2: ("Q", 0x28, 0x3A, 64, "4xI16xQQ")}


def _section_table(data: bytes) -> list[tuple[int, int, int]]:
    """Return (sh_type, sh_offset, sh_size) per section, or raise ValueError."""
    ei_class = data[4]  # 1 = 32-bit, 2 = 64-bit
    ei_data = data[5]  # 1 = LSB, 2 = MSB
    if ei_class not in (1, 2) or ei_data not in (1, 2):
        raise ValueError(f"unsupported ELF ident class={ei_class} data={ei_data}")
    end = "<" if ei_data == 1 else ">"
    shoff_format, shoff_at, shentsize_at, min_shentsize, row_format = _LAYOUTS[ei_class]
    e_shoff = struct.unpack_from(end + shoff_format, data, shoff_at)[0]
    e_shentsize, e_shnum = struct.unpack_from(end + "HH", data, shentsize_at)
    if e_shoff == 0 or e_shnum == 0:
        raise ValueError("no section header table")
    if e_shentsize < min_shentsize:
        raise ValueError(f"implausible e_shentsize {e_shentsize}")
    table_end = e_shoff + e_shnum * e_shentsize
    if table_end > len(data):
        raise ValueError("section header table out of bounds")
    row = struct.Struct(end + row_format).unpack_from
    return [row(data, base) for base in range(e_shoff, table_end, e_shentsize)]


def _url_runs(blob: bytes) -> list[str]:
    # A run is bounded on a mask built only once a hit is found, and decoded only if kept.
    runs: list[str] = []
    hit = blob.find(b"://")
    mask = blob.translate(_RUN_MASK) + b"\0" if hit >= 0 else b""  # the 0 ends the last run
    while hit >= 0:
        start = mask.rfind(0, 0, hit) + 1
        end = mask.find(0, hit)
        if end - start >= MIN_RUN_LENGTH:
            runs.append(blob[start:end].decode("ascii"))
        hit = blob.find(b"://", end)
    return runs


def scan_elf_strings(data: bytes) -> ElfScan:
    """Collect the printable runs that hold ``://`` from an ELF image's data sections.

    Raises:
        BadElfMagic: input is not ELF at all.
    """
    if data[:4] != ELF_MAGIC:
        raise BadElfMagic("missing ELF magic")
    if len(data) < 0x40:
        return ElfScan(runs=[], warnings=["header shorter than minimum, scanned nothing"])

    warnings: list[str] = []
    try:
        sections = _section_table(data)
    except (ValueError, struct.error) as exc:
        warnings.append(f"section table unusable ({exc}); falling back to whole-file scan")
        return ElfScan(runs=_url_runs(data), warnings=warnings)

    runs: list[str] = []
    usable = 0
    for index, (sh_type, sh_offset, sh_size) in enumerate(sections):
        if sh_type != SHT_PROGBITS or sh_size == 0:
            continue
        if sh_offset + sh_size > len(data):
            warnings.append(f"section {index} data out of bounds, skipped")
            continue
        usable += 1
        runs.extend(_url_runs(data[sh_offset : sh_offset + sh_size]))

    if usable == 0:
        warnings.append("no usable data sections; falling back to whole-file scan")
        runs = _url_runs(data)
    return ElfScan(runs=runs, warnings=warnings)
