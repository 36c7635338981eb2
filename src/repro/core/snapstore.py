"""REPRO-SNAP v1: the columnar, memory-mapped snapshot & timeline store.

JSON snapshots re-hydrate every :class:`~repro.dns.name.DomainName` and
frozenset before the first query can run; at bench scale that parse
dominates a delta re-survey by an order of magnitude, and a longitudinal
run pays it per epoch.  This module is the binary codec that removes the
ceiling: snapshots ride the integer-interned core
(:mod:`repro.core.graphcore`) directly, so opening one is O(1) — a header
read plus an ``mmap`` — and every column is a typed array addressed
zero-copy through :class:`memoryview` casts.

On-disk layout (all integers little-endian)::

    magic "RSNP1\\r\\n\\x00"                       8 bytes
    header  <HBBIQII                               version, file kind,
                                                   flags, payload crc32,
                                                   TOC offset, TOC length,
                                                   header crc32
    sections ...                                   raw bytes, 8-aligned
    TOC     json {"sections": {name: [off, len]}}

Two of the file kinds sharing the container hold survey results:

* **results** (:func:`save_results_snapshot` / :func:`open_results`) — a
  full :class:`~repro.core.survey.SurveyResults`: one string pool, a
  content-addressed *set store* (CSR offsets + members; equal server sets
  are stored once and shared), per-record typed columns (ints as ``q``,
  floats as ``d``, flags as ``B``, strings/sets as pool/store ids), typed
  pass-``extras`` columns with presence bytes, and the aggregate maps;
* **delta** (:class:`EpochStore`) — only the rows whose records changed
  since the previous epoch (keyed off the delta engine's dirty set), plus
  aggregate-map patches, with a file-local pool/set-store.

:func:`open_results` returns a :class:`LazySurveyResults` — a drop-in
:class:`~repro.core.survey.SurveyResults` whose record list materialises
:class:`~repro.core.survey.NameRecord` objects on demand (and counts how
many it did, so tests can assert laziness).  Frozensets are
content-addressed exactly as in the closure index: one set id materialises
one shared frozenset, at the API boundary only.

Byte-identity contract: ``results_to_dict(open_results(save(results)))``
equals ``results_to_dict(results)`` — the binary round trip is
indistinguishable from the JSON one (floats are stored at the same 3-dp
rounding the JSON codec applies), across all four execution backends.
"""

from __future__ import annotations

import dataclasses
import io
import json
import mmap
import os
import pathlib
import re
import struct
import sys
import weakref
import zlib
from array import array
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.dns.name import DomainName, NameLike
from repro.core.atomic import AtomicFile, fsync_directory, temp_debris
from repro.core.survey import ABSENT, NameRecord, SurveyResults
from repro.vulns.bindversion import BindVersion, FingerprintResult

PathLike = Union[str, pathlib.Path]

#: File magic: sniffable, never valid JSON or a zlib stream header.
MAGIC = b"RSNP1\r\n\x00"

#: Container format version.
SNAPSTORE_VERSION = 1

#: File kinds sharing the container.
KIND_RESULTS = 1
KIND_DELTA = 2
KIND_SHARD = 4     # 3 was a retired universe archive; never reuse it
KIND_ORDER = 5

_KIND_NAMES = {KIND_RESULTS: "results snapshot", KIND_DELTA: "epoch delta",
               KIND_SHARD: "shard results", KIND_ORDER: "shard work order"}

#: Header struct after the magic: version, kind, flags, payload crc32,
#: TOC offset, TOC length, header crc32.
_HEADER = struct.Struct("<HBBIQII")
_HEADER_SIZE = len(MAGIC) + _HEADER.size

_FLAG_LITTLE_ENDIAN = 1

#: Built-in integer record columns, in write order.
_INT_COLUMNS = ("tcb_size", "in_bailiwick", "vulnerable_in_tcb",
                "compromisable_in_tcb", "mincut_size", "mincut_safe",
                "mincut_vulnerable")

_FLAG_POPULAR = 1
_FLAG_RESOLVED = 2
_FLAG_BITS = {"is_popular": _FLAG_POPULAR, "resolved": _FLAG_RESOLVED}

#: The host-set aggregate maps and their section name stems.
_AGGREGATE_SETS = {"vulnerable": "vuln", "compromisable": "comp",
                   "popular": "pop"}

#: Extras column kinds and the bytes per row of their value columns (the
#: ``json`` fallback preserves anything a JSON snapshot could carry, mixed
#: numeric types included; ``str`` and ``json`` cells hold pool ids).
_EXTRA_WIDTHS = {"bool": 1, "int": 8, "float": 8, "str": 8, "json": 8}


class SnapshotFormatError(ValueError):
    """A snapshot file is not what it claims to be (bad magic, truncated,
    checksum mismatch, unsupported version, wrong kind)."""


# -- low-level container ----------------------------------------------------------------


class _SectionWriter:
    """Streams named byte sections into the REPRO-SNAP container.

    ``path=None`` targets an in-memory buffer instead of a file — the wire
    protocol frames shard payloads with exactly this container, so workers
    and the coordinator reuse the column codec byte-for-byte without
    touching disk (:meth:`close_to_bytes`).

    File targets commit through :class:`repro.core.atomic.AtomicFile`:
    the container streams into a same-directory temp file and only an
    fsynced ``os.replace`` publishes it, so no reader (or crash) can ever
    observe a half-written snapshot under the final name.
    """

    def __init__(self, path: Optional[PathLike], kind: int):
        if path is None:
            self.path: Optional[pathlib.Path] = None
            self._atomic: Optional[AtomicFile] = None
            self._handle = io.BytesIO()
        else:
            self.path = pathlib.Path(path)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._atomic = AtomicFile(self.path)
            self._handle = self._atomic.handle
        self._kind = kind
        self._handle.write(b"\x00" * _HEADER_SIZE)
        self._sections: Dict[str, Tuple[int, int]] = {}
        self._offset = _HEADER_SIZE
        self._crc = 0

    def add(self, name: str, data) -> None:
        """Append one section (bytes, bytearray, array, or memoryview)."""
        if name in self._sections:
            raise ValueError(f"duplicate section {name!r}")
        payload = bytes(data) if not isinstance(data, (bytes, bytearray)) \
            else data
        # 8-align every section so memoryview casts to q/d never fault.
        padding = (-self._offset) % 8
        if padding:
            pad = b"\x00" * padding
            self._handle.write(pad)
            self._crc = zlib.crc32(pad, self._crc)
            self._offset += padding
        self._sections[name] = (self._offset, len(payload))
        self._handle.write(payload)
        self._crc = zlib.crc32(payload, self._crc)
        self._offset += len(payload)

    def add_json(self, name: str, payload) -> None:
        """Append a JSON section (sorted keys, compact)."""
        self.add(name, json.dumps(payload, sort_keys=True,
                                  separators=(",", ":")).encode("utf-8"))

    def _finalise(self) -> None:
        """Write the TOC and patch the header in place."""
        toc = json.dumps(
            {"sections": {name: list(span)
                          for name, span in sorted(self._sections.items())}},
            sort_keys=True, separators=(",", ":")).encode("utf-8")
        toc_offset = self._offset
        self._handle.write(toc)
        self._crc = zlib.crc32(toc, self._crc)
        flags = _FLAG_LITTLE_ENDIAN if sys.byteorder == "little" else 0
        header = _HEADER.pack(SNAPSTORE_VERSION, self._kind, flags,
                              self._crc, toc_offset, len(toc), 0)
        header_crc = zlib.crc32(MAGIC + header[:-4])
        header = _HEADER.pack(SNAPSTORE_VERSION, self._kind, flags,
                              self._crc, toc_offset, len(toc), header_crc)
        self._handle.seek(0)
        self._handle.write(MAGIC + header)

    def close(self) -> pathlib.Path:
        """Finalise and atomically commit the container; returns the path."""
        if self.path is None:
            raise ValueError("in-memory container: use close_to_bytes()")
        self._finalise()
        self._atomic.commit()
        return self.path

    def abort(self) -> None:
        """Discard an unfinished container (the destination is untouched)."""
        if self._atomic is not None:
            self._atomic.abort()
        else:
            self._handle.close()

    def close_to_bytes(self) -> bytes:
        """Finalise an in-memory container and return its bytes."""
        self._finalise()
        data = self._handle.getvalue()
        self._handle.close()
        return data


class _SectionReader:
    """Memory-maps a REPRO-SNAP container and hands out section views.

    Opening validates the magic, version, endianness, and the header
    checksum (which covers the TOC location), and bounds-checks every
    section extent against the file size — so truncation fails loudly at
    open — but does *not* stream the payload: open cost is independent of
    snapshot size.  :meth:`verify` walks the payload crc32 on demand.

    ``source`` may also be ``bytes``/``bytearray``/``memoryview`` — an
    in-memory container such as a wire-frame payload — in which case
    ``label`` names it in error messages in place of a path.
    """

    def __init__(self, source: Union[PathLike, bytes, bytearray, memoryview],
                 expected_kind: Optional[int] = None,
                 label: Optional[str] = None):
        if isinstance(source, (bytes, bytearray, memoryview)):
            self.path = label or "<wire payload>"
            self._handle = None
            self._mmap = None
            data = bytes(source)
            size = len(data)
            self._view = memoryview(data)
            head = data[:_HEADER_SIZE]
        else:
            self.path = pathlib.Path(source)
            try:
                self._handle = self.path.open("rb")
            except OSError as error:
                raise SnapshotFormatError(
                    f"cannot open snapshot {self.path}: {error}") from error
            head = self._handle.read(_HEADER_SIZE)
        if len(head) < _HEADER_SIZE or not head.startswith(MAGIC):
            self._fail(f"not a REPRO-SNAP snapshot (expected magic "
                       f"{MAGIC!r}, got {bytes(head[:len(MAGIC)])!r})")
        (version, kind, flags, payload_crc, toc_offset, toc_length,
         header_crc) = _HEADER.unpack(head[len(MAGIC):])
        if zlib.crc32(head[:-4]) != header_crc:
            self._fail("header checksum mismatch (corrupt or truncated "
                       "header)")
        if version != SNAPSTORE_VERSION:
            self._fail(f"unsupported REPRO-SNAP version {version} "
                       f"(this build reads version {SNAPSTORE_VERSION})")
        little = bool(flags & _FLAG_LITTLE_ENDIAN)
        if little != (sys.byteorder == "little"):
            self._fail(f"snapshot byte order does not match this machine "
                       f"({sys.byteorder}-endian)")
        if expected_kind is not None and kind != expected_kind:
            self._fail(f"expected a {_KIND_NAMES[expected_kind]} file, "
                       f"got a {_KIND_NAMES.get(kind, f'kind-{kind}')} file")
        self.kind = kind
        self._payload_crc = payload_crc
        if self._handle is not None:
            size = self.path.stat().st_size
            if toc_offset + toc_length > size:
                self._fail(f"truncated snapshot (TOC at "
                           f"{toc_offset}+{toc_length} exceeds file size "
                           f"{size})")
            self._mmap = mmap.mmap(self._handle.fileno(), 0,
                                   access=mmap.ACCESS_READ)
            self._view = memoryview(self._mmap)
        elif toc_offset + toc_length > size:
            self._fail(f"truncated snapshot (TOC at "
                       f"{toc_offset}+{toc_length} exceeds payload size "
                       f"{size})")
        self._toc_end = toc_offset + toc_length
        try:
            toc = json.loads(
                bytes(self._view[toc_offset:self._toc_end]).decode("utf-8"))
            self._sections = {name: (int(span[0]), int(span[1]))
                              for name, span in toc["sections"].items()}
        except (ValueError, KeyError, TypeError) as error:
            raise SnapshotFormatError(
                f"{self.path}: corrupt section table: {error}") from error
        for name, (offset, length) in self._sections.items():
            if offset + length > size:
                raise SnapshotFormatError(
                    f"{self.path}: truncated snapshot (section {name!r} at "
                    f"{offset}+{length} exceeds file size {size})")

    def _fail(self, message: str) -> None:
        if self._handle is not None:
            self._handle.close()
        raise SnapshotFormatError(f"{self.path}: {message}")

    def has(self, name: str) -> bool:
        return name in self._sections

    def length(self, name: str) -> Optional[int]:
        """The section's byte length, or ``None`` when it is absent."""
        span = self._sections.get(name)
        return None if span is None else span[1]

    def raw(self, name: str) -> memoryview:
        """The section's bytes as a zero-copy memoryview."""
        offset, length = self._sections[name]
        return self._view[offset:offset + length]

    def q(self, name: str) -> memoryview:
        """The section as a typed int64 view."""
        return self.raw(name).cast("q")

    def d(self, name: str) -> memoryview:
        """The section as a typed float64 view."""
        return self.raw(name).cast("d")

    def bytes_view(self, name: str) -> memoryview:
        return self.raw(name).cast("B")

    def json(self, name: str, what: str = "section"):
        """The section decoded as UTF-8 JSON.

        Bytes that do not decode raise :class:`SnapshotFormatError`
        naming the file and the section (``what`` says what it holds).
        """
        try:
            return json.loads(bytes(self.raw(name)).decode("utf-8"))
        except ValueError as error:  # UnicodeDecodeError, JSONDecodeError
            raise SnapshotFormatError(
                f"{self.path}: corrupt {what} {name!r}: {error}") from None

    def verify(self) -> None:
        """Re-walk the payload crc32; raises on checksum mismatch."""
        crc = zlib.crc32(self._view[_HEADER_SIZE:self._toc_end])
        if crc != self._payload_crc:
            raise SnapshotFormatError(
                f"{self.path}: payload checksum mismatch (expected "
                f"{self._payload_crc:#010x}, got {crc:#010x})")


def verify_snapshot_file(path: PathLike) -> int:
    """Fully verify one REPRO-SNAP container; returns its kind.

    Opens the file (magic, version, header checksum, TOC bounds) and
    re-walks the payload crc32 — O(file size), the fsck path rather than
    the open path.  Raises :class:`SnapshotFormatError` with a precise
    message on any corruption.
    """
    reader = _SectionReader(pathlib.Path(path))
    reader.verify()
    return reader.kind


def sniff_kind(path: PathLike) -> Optional[int]:
    """The REPRO-SNAP file kind at ``path``, or ``None`` if not REPRO-SNAP."""
    path = pathlib.Path(path)
    with path.open("rb") as handle:
        head = handle.read(_HEADER_SIZE)
    if len(head) < _HEADER_SIZE or not head.startswith(MAGIC):
        return None
    return _HEADER.unpack(head[len(MAGIC):])[1]


# -- pools and set stores ---------------------------------------------------------------


class _PoolWriter:
    """Interns strings into a blob + offsets pool (dense first-seen ids).

    With ``base_index`` (text -> id in a base file's pool), strings the
    base already stores intern to *negative* ids — ``-(base_id + 1)`` —
    instead of re-entering the local blob.  Delta files use this to share
    the epoch-0 pool: churned records mostly re-mention names and hosts
    the base interned long ago.
    """

    def __init__(self, base_index: Optional[Dict[str, int]] = None) -> None:
        self._ids: Dict[str, int] = {}
        self._base = base_index or {}
        self._blob = bytearray()
        self._offsets = array("q", [0])
        self._local = 0

    def intern(self, text: str) -> int:
        found = self._ids.get(text)
        if found is None:
            base_id = self._base.get(text)
            if base_id is not None:
                found = -base_id - 1
            else:
                found = self._local
                self._local += 1
                self._blob.extend(text.encode("utf-8"))
                self._offsets.append(len(self._blob))
            self._ids[text] = found
        return found

    def intern_name(self, name: DomainName) -> int:
        return self.intern(str(name))

    def write(self, writer: _SectionWriter, prefix: str) -> None:
        writer.add(prefix + ".off", self._offsets)
        writer.add(prefix + ".blob", bytes(self._blob))


class _SetWriter:
    """Content-addresses sets of pool ids into a CSR (offsets + members).

    ``base_index`` maps membership keys (*this* pool's sorted ids, packed
    as ``array("q", ...).tobytes()``) to set ids in a base file's set
    store; matching sets encode as negative references the same way the
    pool does.  A churned record's TCB usually keeps its membership
    (verdicts change, topology doesn't), so delta files shed their
    heaviest section almost entirely.
    """

    def __init__(self, pool: _PoolWriter,
                 base_index: Optional[Dict[bytes, int]] = None
                 ) -> None:
        self._pool = pool
        self._ids: Dict[FrozenSet[DomainName], int] = {}
        self._base = base_index or {}
        self._offsets = array("q", [0])
        self._members = array("q")
        self._local = 0

    def intern(self, hosts: AbstractSet[DomainName]) -> int:
        # Records share their server frozensets, so a repeated set is
        # one dict probe (``frozenset`` of a frozenset is the same
        # object).  Only a set's first sight interns its hosts — in
        # canonical (string-sorted) order: iterating the set directly
        # would assign first-seen pool ids in hash order, making the
        # file's bytes vary with PYTHONHASHSEED across processes.
        hosts = frozenset(hosts)
        found = self._ids.get(hosts)
        if found is None:
            key = sorted(self._pool.intern(text)
                         for text in sorted(map(str, hosts)))
            base_id = self._base.get(array("q", key).tobytes()) \
                if self._base else None
            if base_id is not None:
                found = -base_id - 1
            else:
                found = self._local
                self._local += 1
                self._members.extend(key)
                self._offsets.append(len(self._members))
            self._ids[hosts] = found
        return found

    def write(self, writer: _SectionWriter, prefix: str) -> None:
        writer.add(prefix + ".off", self._offsets)
        writer.add(prefix + ".mem", self._members)


class _Pool:
    """Lazy reader-side string pool: decode + DomainName caches per id.

    Both caches are lists indexed by pool id.  Negative ids are
    references into ``base`` (the epoch-0 pool a delta file was written
    against) and delegate there — landing in the base's caches, which
    every overlay of the same store shares.  An id past the pool's end,
    a negative id in a file with no base, and pool bytes that are not
    UTF-8 raise :class:`SnapshotFormatError` naming the section; a
    cache hit pays for no range or UTF-8 check.
    """

    __slots__ = ("_offsets", "_blob", "_texts", "_names", "_base", "_where")

    def __init__(self, reader: _SectionReader, prefix: str,
                 base: Optional["_Pool"] = None):
        self._offsets = reader.q(prefix + ".off")
        self._blob = reader.raw(prefix + ".blob")
        self._texts: List[Optional[str]] = [None] * len(self)
        self._names: List[Optional[DomainName]] = [None] * len(self)
        self._base = base
        self._where = f"{reader.path}: string pool {prefix!r}"

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def text(self, index: int) -> str:
        if index < 0:
            return _based(self, index).text(-index - 1)
        try:
            found = self._texts[index]
        except IndexError:
            raise _no_id(self, index) from None
        if found is None:
            start, end = self._offsets[index], self._offsets[index + 1]
            try:
                found = bytes(self._blob[start:end]).decode("utf-8")
            except UnicodeDecodeError as error:
                raise SnapshotFormatError(
                    f"{self._where}: entry {index} is not UTF-8 "
                    f"({error})") from None
            self._texts[index] = found
        return found

    def name(self, index: int) -> DomainName:
        if index < 0:
            return _based(self, index).name(-index - 1)
        try:
            found = self._names[index]
        except IndexError:
            raise _no_id(self, index) from None
        if found is None:
            found = self._names[index] = DomainName._from_text(
                self.text(index))
        return found


class _SetStore:
    """Lazy reader-side set store: one shared frozenset per set id.

    The cache is a list indexed by set id.  Negative ids delegate to
    ``base`` exactly as :class:`_Pool` does, so an overlaid record whose
    TCB membership never changed hands back the very frozenset the base
    row would; bad ids raise as the pool's do.
    """

    __slots__ = ("_offsets", "_members", "_pool", "_frozen", "_base",
                 "_where")

    def __init__(self, reader: _SectionReader, prefix: str, pool: _Pool,
                 base: Optional["_SetStore"] = None):
        self._offsets = reader.q(prefix + ".off")
        self._members = reader.q(prefix + ".mem")
        self._pool = pool
        self._frozen: List[Optional[frozenset]] = [None] * len(self)
        self._base = base
        self._where = f"{reader.path}: set store {prefix!r}"

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def frozen(self, set_id: int) -> frozenset:
        if set_id < 0:
            return _based(self, set_id).frozen(-set_id - 1)
        try:
            found = self._frozen[set_id]
        except IndexError:
            raise _no_id(self, set_id) from None
        if found is None:
            name = self._pool.name
            found = self._frozen[set_id] = frozenset([
                name(member) for member in
                self._members[self._offsets[set_id]:
                              self._offsets[set_id + 1]]])
        return found


def _based(store: Union[_Pool, _SetStore], index: int):
    """The base a negative ``index`` refers into; raises without one."""
    if store._base is None:
        raise SnapshotFormatError(
            f"{store._where}: id {index} refers to a base file, but this "
            f"file has none")
    return store._base


def _no_id(store: Union[_Pool, _SetStore], index: int
           ) -> SnapshotFormatError:
    return SnapshotFormatError(
        f"{store._where}: id {index} out of range (holds {len(store)})")


# -- record column writing --------------------------------------------------------------


def _extra_kind(values: List[object]) -> str:
    """The narrowest typed column that stores ``values`` exactly."""
    if all(isinstance(value, bool) for value in values):
        return "bool"
    if all(isinstance(value, int) and not isinstance(value, bool)
           and -(2 ** 63) <= value < 2 ** 63 for value in values):
        return "int"
    if all(isinstance(value, float) for value in values):
        return "float"
    if all(isinstance(value, str) for value in values):
        return "str"
    return "json"


def _write_record_sections(writer: _SectionWriter,
                           records: Sequence[NameRecord],
                           pool: _PoolWriter, sets: _SetWriter) -> None:
    """Write the per-record typed columns (including extras columns)."""
    count = len(records)
    names = array("q", bytes(8 * count))
    tlds = array("q", bytes(8 * count))
    categories = array("q", bytes(8 * count))
    classifications = array("q", bytes(8 * count))
    flags = bytearray(count)
    ints = {column: array("q", bytes(8 * count)) for column in _INT_COLUMNS}
    safety = array("d", bytes(8 * count))
    tcb_sets = array("q", bytes(8 * count))
    cut_sets = array("q", bytes(8 * count))
    extras_values: Dict[str, Dict[int, object]] = {}

    for row, record in enumerate(records):
        names[row] = pool.intern_name(record.name)
        tlds[row] = pool.intern(record.tld)
        categories[row] = pool.intern(record.category)
        classifications[row] = pool.intern(record.classification)
        flags[row] = ((_FLAG_POPULAR if record.is_popular else 0) |
                      (_FLAG_RESOLVED if record.resolved else 0))
        for column in _INT_COLUMNS:
            ints[column][row] = getattr(record, column)
        # The JSON codec rounds to 3 dp on write; store the same value so
        # both round trips hydrate identical records.
        safety[row] = round(record.safety_percentage, 3)
        tcb_sets[row] = sets.intern(record.tcb_servers)
        cut_sets[row] = sets.intern(record.mincut_servers)
        for column, value in record.extras.items():
            extras_values.setdefault(column, {})[row] = value

    writer.add("rec.name", names)
    writer.add("rec.tld", tlds)
    writer.add("rec.category", categories)
    writer.add("rec.classification", classifications)
    writer.add("rec.flags", bytes(flags))
    for column in _INT_COLUMNS:
        writer.add(f"rec.{column}", ints[column])
    writer.add("rec.safety", safety)
    writer.add("rec.tcbset", tcb_sets)
    writer.add("rec.cutset", cut_sets)

    directory = []
    for position, column in enumerate(sorted(extras_values)):
        present = extras_values[column]
        kind = _extra_kind(list(present.values()))
        directory.append({"column": column, "kind": kind})
        presence = bytearray(count)
        for row in present:
            presence[row] = 1
        writer.add(f"ex.{position}.pres", bytes(presence))
        if kind == "bool":
            cells = bytearray(count)
            for row, value in present.items():
                cells[row] = 1 if value else 0
            writer.add(f"ex.{position}.val", bytes(cells))
        elif kind == "int":
            cells = array("q", bytes(8 * count))
            for row, value in present.items():
                cells[row] = value
            writer.add(f"ex.{position}.val", cells)
        elif kind == "float":
            cells = array("d", bytes(8 * count))
            for row, value in present.items():
                cells[row] = value
            writer.add(f"ex.{position}.val", cells)
        else:  # str / json ride the string pool
            cells = array("q", bytes(8 * count))
            for row, value in present.items():
                text = value if kind == "str" else \
                    json.dumps(value, sort_keys=True)
                cells[row] = pool.intern(text)
            writer.add(f"ex.{position}.val", cells)
    writer.add_json("ex.dir", directory)


def _intern_sorted(pool: _PoolWriter, hosts) -> List[int]:
    """Intern ``hosts`` in canonical (string-sorted) order; sorted ids.

    Interning while iterating a set would assign first-seen pool ids in
    hash order, so two processes with different PYTHONHASHSEEDs would
    write byte-different files for identical results — breaking the
    byte-identity contract resume and the crash-matrix tests rely on.
    """
    return sorted(pool.intern(text) for text in sorted(map(str, hosts)))


def _write_aggregate_sections(writer: _SectionWriter, results: SurveyResults,
                              pool: _PoolWriter) -> None:
    """Write the aggregate maps (counts, vuln/comp sets, fingerprints)."""
    counts = sorted(results.server_names_controlled.items(),
                    key=lambda item: str(item[0]))
    writer.add("agg.counts.host",
               array("q", [pool.intern_name(host) for host, _ in counts]))
    writer.add("agg.counts.n", array("q", [count for _, count in counts]))
    for section, hosts in (("agg.vuln", results.vulnerable_servers),
                           ("agg.comp", results.compromisable_servers),
                           ("agg.pop", results.popular_names)):
        writer.add(section, array("q", _intern_sorted(pool, hosts)))
    _write_fingerprint_sections(writer, "fp", results.fingerprints, pool)
    writer.add("meta", json.dumps(results.metadata,
                                  sort_keys=True).encode("utf-8"))


#: Banner column sentinel for "no banner" — far outside both the local
#: (non-negative) and base-reference (small negative) pool id ranges.
_NO_BANNER = -(2 ** 62)


def _write_fingerprint_sections(writer: _SectionWriter, prefix: str,
                                fingerprints: Dict[DomainName,
                                                   FingerprintResult],
                                pool: _PoolWriter) -> None:
    ordered = sorted(fingerprints.items(), key=lambda item: str(item[0]))
    hosts = array("q", [pool.intern_name(host) for host, _ in ordered])
    banners = array("q", [_NO_BANNER if result.banner is None
                          else pool.intern(result.banner)
                          for _, result in ordered])
    reachable = bytes(1 if result.reachable else 0 for _, result in ordered)
    vuln_offsets = array("q", [0])
    vuln_members = array("q")
    for _, result in ordered:
        vuln_members.extend(pool.intern(item)
                            for item in result.vulnerabilities)
        vuln_offsets.append(len(vuln_members))
    writer.add(prefix + ".host", hosts)
    writer.add(prefix + ".banner", banners)
    writer.add(prefix + ".reach", reachable)
    writer.add(prefix + ".vuln.off", vuln_offsets)
    writer.add(prefix + ".vuln.mem", vuln_members)


def _read_fingerprints(reader: _SectionReader, prefix: str, pool: _Pool
                       ) -> Dict[DomainName, FingerprintResult]:
    hosts = reader.q(prefix + ".host")
    banners = reader.q(prefix + ".banner")
    reachable = reader.bytes_view(prefix + ".reach")
    offsets = reader.q(prefix + ".vuln.off")
    members = reader.q(prefix + ".vuln.mem")
    out: Dict[DomainName, FingerprintResult] = {}
    for position in range(len(hosts)):
        hostname = pool.name(hosts[position])
        banner = None if banners[position] == _NO_BANNER else pool.text(
            banners[position])
        out[hostname] = FingerprintResult(
            hostname=hostname, banner=banner,
            version=BindVersion.parse(banner),
            reachable=bool(reachable[position]),
            vulnerabilities=[pool.text(member) for member in
                             members[offsets[position]:
                                     offsets[position + 1]]])
    return out


# -- results snapshot write path --------------------------------------------------------


def save_results_snapshot(results: SurveyResults,
                          path: PathLike) -> pathlib.Path:
    """Write ``results`` as a REPRO-SNAP v1 binary snapshot."""
    writer = _SectionWriter(path, KIND_RESULTS)
    try:
        pool = _PoolWriter()
        sets = _SetWriter(pool)
        _write_record_sections(writer, results.records, pool, sets)
        _write_aggregate_sections(writer, results, pool)
        # The pool and set store go last: record/aggregate writing is what
        # populates them.
        sets.write(writer, "sets")
        pool.write(writer, "strs")
    except BaseException:
        writer.abort()
        raise
    return writer.close()


# -- reader-side record access ----------------------------------------------------------


#: Per-row record columns and their bytes per row.
_ROW_SECTIONS = (("rec.name", 8), ("rec.tld", 8), ("rec.category", 8),
                 ("rec.classification", 8), ("rec.flags", 1),
                 *((f"rec.{column}", 8) for column in _INT_COLUMNS),
                 ("rec.safety", 8), ("rec.tcbset", 8), ("rec.cutset", 8))

#: Sections each record-bearing file kind is read through besides the
#: record columns and pools: ``8`` = an int64 array, ``0`` = raw bytes,
#: ``None`` = one int64 per record row.
_FINGERPRINT_SECTIONS = (("host", 8), ("banner", 8), ("reach", 0),
                         ("vuln.off", 8), ("vuln.mem", 8))
_KIND_SECTIONS = {
    KIND_RESULTS: (("agg.counts.host", 8), ("agg.counts.n", 8),
                   ("agg.vuln", 8), ("agg.comp", 8), ("agg.pop", 8),
                   *((f"fp.{name}", width)
                     for name, width in _FINGERPRINT_SECTIONS),
                   ("meta", 0)),
    KIND_DELTA: (("rows", None), ("aggd.counts.set.host", 8),
                 ("aggd.counts.set.n", 8), ("aggd.counts.del", 8),
                 *((f"aggd.{section}.{op}", 8)
                   for section in ("vuln", "comp", "pop")
                   for op in ("add", "del")),
                 *((f"fpd.{name}", width)
                   for name, width in _FINGERPRINT_SECTIONS),
                 ("fpd.del", 8), ("meta", 0)),
    KIND_SHARD: (("rows", None),
                 *((f"fp.{name}", width)
                   for name, width in _FINGERPRINT_SECTIONS),
                 ("vm.host", 8), ("vm.flag", 0), ("cm.host", 8),
                 ("cm.flag", 0), ("pop", 8), ("meta", 0)),
}


def _check_record_sections(reader: _SectionReader) -> List[Dict[str, str]]:
    """The extras directory of a record-bearing container, once checked.

    Checks in O(columns) that every section a reader of this kind touches
    exists with a length that fits the row count, and that the extras
    directory names only known kinds — so a malformed container fails at
    open with :class:`SnapshotFormatError`, not with a ``KeyError`` or
    ``IndexError`` on the first record it hydrates.
    """
    def fail(message: str) -> None:
        raise SnapshotFormatError(f"{reader.path}: {message}")

    def length(name: str) -> int:
        found = reader.length(name)
        if found is None:
            fail(f"missing section {name!r}")
        return found

    def per_row(name: str, width: int) -> None:
        if length(name) != rows * width:
            fail(f"section {name!r} holds {length(name)} bytes, expected "
                 f"{rows * width} for {rows} rows")

    def expect(name: str, width: Optional[int]) -> None:
        found = length(name)
        if width is None:
            per_row(name, 8)
        elif width == 8 and found % 8:
            fail(f"section {name!r} holds {found} bytes, not whole int64 "
                 f"values")

    rows = length("rec.name") // 8
    for name, width in _ROW_SECTIONS:
        per_row(name, width)
    for name in ("strs.off", "sets.off"):
        if length(name) < 8 or length(name) % 8:
            fail(f"section {name!r} holds {length(name)} bytes, not an "
                 f"offsets column (one or more whole int64 values)")
    expect("strs.blob", 0)
    expect("sets.mem", 8)
    for name, width in _KIND_SECTIONS.get(reader.kind, ()):
        expect(name, width)
    length("ex.dir")
    directory = reader.json("ex.dir", "extras directory")
    if not isinstance(directory, list):
        fail("corrupt extras directory: not a list")
    for position, entry in enumerate(directory):
        if not isinstance(entry, dict) or \
                not isinstance(entry.get("column"), str):
            fail(f"corrupt extras directory entry {position}: {entry!r}")
        kind = entry.get("kind")
        if kind not in _EXTRA_WIDTHS:
            fail(f"extras column {entry['column']!r} has unknown kind "
                 f"{kind!r} (expected one of {tuple(_EXTRA_WIDTHS)})")
        per_row(f"ex.{position}.pres", 1)
        per_row(f"ex.{position}.val", _EXTRA_WIDTHS[kind])
    return directory


class _RecordReader:
    """Column access + on-demand record hydration for one container.

    Opening checks the container's sections (:func:`_check_record_sections`)
    and casts every column view once, so a cell read is an index, not a
    slice and cast.  A keyframe's reader is shared by every view an
    :class:`EpochStore` opens over it: its pool and set-store caches and
    its name indexes (:meth:`row_index`, :meth:`name_rows`) are built once
    and serve them all.
    """

    def __init__(self, reader: _SectionReader,
                 base: Optional["_RecordReader"] = None):
        self.reader = reader
        self.extras_dir = _check_record_sections(reader)
        self.pool = _Pool(reader, "strs",
                          base.pool if base is not None else None)
        self.sets = _SetStore(reader, "sets", self.pool,
                              base.sets if base is not None else None)
        self._names = reader.q("rec.name")
        self._tlds = reader.q("rec.tld")
        self._categories = reader.q("rec.category")
        self._classifications = reader.q("rec.classification")
        self._flags = reader.bytes_view("rec.flags")
        self._ints = {column: reader.q(f"rec.{column}")
                      for column in _INT_COLUMNS}
        self._int_columns = tuple(self._ints[column]
                                  for column in _INT_COLUMNS)
        self._safety = reader.d("rec.safety")
        self._tcb_sets = reader.q("rec.tcbset")
        self._cut_sets = reader.q("rec.cutset")
        #: Pool- and set-id columns and how one id decodes.
        self._id_columns = {
            "name": (self._names, self.pool.name),
            "tld": (self._tlds, self.pool.text),
            "category": (self._categories, self.pool.text),
            "classification": (self._classifications, self.pool.text),
            "tcb_servers": (self._tcb_sets, self.sets.frozen),
            "mincut_servers": (self._cut_sets, self.sets.frozen)}
        self._extras_index = {entry["column"]: position for position, entry
                              in enumerate(self.extras_dir)}
        self._extra_kinds = [entry["kind"] for entry in self.extras_dir]
        self._extra_presence = [
            reader.bytes_view(f"ex.{position}.pres")
            for position in range(len(self.extras_dir))]
        self._extra_values = [
            reader.bytes_view(f"ex.{position}.val") if kind == "bool" else
            reader.d(f"ex.{position}.val") if kind == "float" else
            reader.q(f"ex.{position}.val")
            for position, kind in enumerate(self._extra_kinds)]
        self._present_counts: Dict[int, int] = {}
        self._row_index: Optional[Dict[str, int]] = None
        self._name_rows: Optional[Dict[DomainName, int]] = None

    def __len__(self) -> int:
        return len(self._names)

    def name(self, row: int) -> DomainName:
        return self.pool.name(self._names[row])

    def row_index(self) -> Dict[str, int]:
        """Record name text → row, built once (shared; do not mutate)."""
        if self._row_index is None:
            text, names = self.pool.text, self._names
            self._row_index = {text(names[row]): row
                               for row in range(len(names))}
        return self._row_index

    def name_rows(self) -> Dict[DomainName, int]:
        """Record name → row, built once (shared; do not mutate)."""
        if self._name_rows is None:
            name = self.pool.name
            self._name_rows = {name(name_id): row
                               for row, name_id in enumerate(self._names)}
        return self._name_rows

    def resolved(self, row: int) -> bool:
        return bool(self._flags[row] & _FLAG_RESOLVED)

    def tcb_frozen(self, row: int) -> frozenset:
        return self.sets.frozen(self._tcb_sets[row])

    def extra_kind(self, column: str) -> Optional[str]:
        """The stored kind of an extras column (``None`` when absent)."""
        position = self._extras_index.get(column)
        return None if position is None else self._extra_kinds[position]

    def present_count(self, column: str) -> int:
        """How many rows carry the extras column (one ``bytes.count``)."""
        position = self._extras_index.get(column)
        if position is None:
            return 0
        found = self._present_counts.get(position)
        if found is None:
            found = self._extra_presence[position].tobytes().count(1)
            self._present_counts[position] = found
        return found

    def extra_present(self, column: str, row: int) -> bool:
        """Whether the record at ``row`` carries the extras column."""
        position = self._extras_index.get(column)
        return position is not None and \
            bool(self._extra_presence[position][row])

    def extra_column(self, column: str,
                     rows: Optional[Sequence[int]] = None) -> List[object]:
        """One extras column for every row (or just ``rows``), with
        :data:`ABSENT` where a record lacks it."""
        if rows is None:
            rows = range(len(self))
        position = self._extras_index.get(column)
        if position is None:
            return [ABSENT] * len(rows)
        presence, cell = self._extra_presence[position], self._extra_cell
        return [cell(position, row) if presence[row] else ABSENT
                for row in rows]

    def _extra_cell(self, position: int, row: int):
        if not self._extra_presence[position][row]:
            return None
        kind = self._extra_kinds[position]
        value = self._extra_values[position][row]
        if kind == "bool":
            return bool(value)
        if kind == "int" or kind == "float":
            return value
        text = self.pool.text(value)
        return text if kind == "str" else json.loads(text)

    def field_value(self, field: str, row: int):
        """One built-in-or-extras field value (diff fast path cell access).

        Extras win over the built-in attribute of the same name, matching
        the hydrated path's ``record.extras``-first lookup.
        """
        position = self._extras_index.get(field)
        if position is not None and self._extra_presence[position][row]:
            return self._extra_cell(position, row)
        ints = self._ints.get(field)
        if ints is not None:
            return ints[row]
        if field == "classification":
            return self.pool.text(self._classifications[row])
        if field == "safety_percentage":
            return self._safety[row]
        return None

    def column(self, field: str,
               rows: Optional[Sequence[int]] = None) -> List[object]:
        """One built-in record field for every row (or just ``rows``).

        Read off the column views cast at open: the int and safety
        columns in one ``tolist``, the flags bit by bit, pool and set ids
        through the shared caches.  Values equal the hydrated record's
        (server sets come back as the shared frozensets).
        """
        numbers = self._ints.get(field)
        if numbers is None and field == "safety_percentage":
            numbers = self._safety
        if numbers is not None:
            return numbers.tolist() if rows is None else \
                [numbers[row] for row in rows]
        if rows is None:
            rows = range(len(self))
        bit = _FLAG_BITS.get(field)
        if bit is not None:
            flags = self._flags
            return [bool(flags[row] & bit) for row in rows]
        if field == "extras":
            return [self.extras_for(row) for row in rows]
        ids = self._id_columns.get(field)
        if ids is None:
            raise ValueError(f"not a NameRecord field: {field!r}")
        ids, decode = ids
        return [decode(ids[row]) for row in rows]

    def extras_for(self, row: int) -> Dict[str, object]:
        return {entry["column"]: self._extra_cell(position, row)
                for position, entry in enumerate(self.extras_dir)
                if self._extra_presence[position][row]}

    def hydrate(self, row: int) -> NameRecord:
        """Materialise one :class:`NameRecord` from the columns.

        Every cell is read off a column view bound at open.  The server
        sets are the set store's cached frozensets themselves, shared by
        every row (and every view over this keyframe) naming the same
        set id — immutable, so no record copies them.
        """
        flags = self._flags[row]
        text, frozen = self.pool.text, self.sets.frozen
        (tcb_size, in_bailiwick, vulnerable_in_tcb, compromisable_in_tcb,
         mincut_size, mincut_safe, mincut_vulnerable) = self._int_columns
        return NameRecord(
            name=self.pool.name(self._names[row]),
            tld=text(self._tlds[row]),
            category=text(self._categories[row]),
            is_popular=bool(flags & _FLAG_POPULAR),
            resolved=bool(flags & _FLAG_RESOLVED),
            tcb_size=tcb_size[row],
            in_bailiwick=in_bailiwick[row],
            vulnerable_in_tcb=vulnerable_in_tcb[row],
            compromisable_in_tcb=compromisable_in_tcb[row],
            safety_percentage=self._safety[row],
            mincut_size=mincut_size[row],
            mincut_safe=mincut_safe[row],
            mincut_vulnerable=mincut_vulnerable[row],
            classification=text(self._classifications[row]),
            tcb_servers=frozen(self._tcb_sets[row]),
            mincut_servers=frozen(self._cut_sets[row]),
            extras=self.extras_for(row))

    def aggregate(self, key: str):
        """Materialise one aggregate map (a fresh object on every call)."""
        reader, pool = self.reader, self.pool
        if key == "counts":
            hosts = reader.q("agg.counts.host")
            counts = reader.q("agg.counts.n")
            return {pool.name(hosts[i]): counts[i]
                    for i in range(len(hosts))}
        if key == "fingerprints":
            return _read_fingerprints(reader, "fp", pool)
        return {pool.name(i) for i in reader.q("agg." + _AGGREGATE_SETS[key])}

    def metadata(self) -> Dict[str, object]:
        return self.reader.json("meta")


# -- the lazy SurveyResults view --------------------------------------------------------


class _RowSource:
    """Row addressing for a lazy view: base columns plus epoch overlays.

    Every row resolves to ``(record_reader, local_row)`` — the base file
    for rows untouched since epoch 0, the newest delta file containing the
    row otherwise.
    """

    def __init__(self, base: _RecordReader,
                 overlays: Optional[Dict[int, Tuple[_RecordReader,
                                                    int]]] = None,
                 aggregate: Optional[Callable[[str], object]] = None,
                 metadata: Optional[Callable[[], Dict[str, object]]] = None):
        self.base = base
        self.overlays = overlays or {}
        self.aggregate = aggregate or base.aggregate
        #: True while every aggregate is the base file's own.
        self._unpatched = aggregate is None
        self._metadata = metadata or base.metadata

    def __len__(self) -> int:
        return len(self.base)

    def locate(self, row: int) -> Tuple[_RecordReader, int]:
        return self.overlays.get(row, (self.base, row))

    def server_tally(self) -> Optional[Tuple[int, int]]:
        """(hosts counted, of which vulnerable) off the pool ids of an
        unpatched file, building no name; None when patches apply."""
        if not self._unpatched:
            return None
        reader = self.base.reader
        hosts = reader.q("agg.counts.host")
        vulnerable = set(reader.q("agg." + _AGGREGATE_SETS["vulnerable"]))
        return len(hosts), len(vulnerable.intersection(hosts))

    def hydrate(self, row: int) -> NameRecord:
        reader, local = self.locate(row)
        return reader.hydrate(local)

    def name(self, row: int) -> DomainName:
        # Record names never change across epochs; read from the base so
        # the name cache stays shared.
        return self.base.name(row)

    def field_value(self, field: str, row: int):
        reader, local = self.locate(row)
        return reader.field_value(field, local)

    def column(self, field: str) -> List[object]:
        """One built-in field for every row: base column, overlays patched."""
        return self._patched(_RecordReader.column, field)

    def extra_column(self, column: str) -> List[object]:
        """One extras column for every row (:data:`ABSENT` where missing)."""
        return self._patched(_RecordReader.extra_column, column)

    def _patched(self, read: Callable, key: str) -> List[object]:
        values = read(self.base, key)
        for row, (reader, local) in self.overlays.items():
            values[row] = read(reader, key, (local,))[0]
        return values

    def resolved(self, row: int) -> bool:
        reader, local = self.locate(row)
        return reader.resolved(local)

    def tcb_frozen(self, row: int) -> frozenset:
        reader, local = self.locate(row)
        return reader.tcb_frozen(local)

    def extras_columns(self) -> List[str]:
        columns: Set[str] = {entry["column"]
                             for entry in self.base.extras_dir}
        for reader, _ in self.overlays.values():
            columns.update(entry["column"] for entry in reader.extras_dir)
        return sorted(columns)

    def extra_profile(self, column: str) -> Tuple[Set[str], int]:
        """(stored kinds, rows carrying the column) over this view.

        Read from column metadata: the base's presence count, corrected
        row by row over the overlays, and the kind of each file that
        still contributes a value — no cell is decoded.
        """
        base = self.base
        from_base = base.present_count(column)
        overlaid = 0
        kinds: Set[str] = set()
        for row, (reader, local) in self.overlays.items():
            from_base -= base.extra_present(column, row)
            if reader.extra_present(column, local):
                overlaid += 1
                kinds.add(reader.extra_kind(column))
        if from_base:
            kinds.add(base.extra_kind(column))
        return kinds, from_base + overlaid

    def metadata(self) -> Dict[str, object]:
        return self._metadata()


class _LazyRecords:
    """A ``records`` sequence hydrating one :class:`NameRecord` per access.

    Hydrated records are cached (one object per row, shared with
    ``record_for``) and counted — :attr:`hydrated` is what the laziness
    tests assert on.
    """

    __slots__ = ("_source", "_cache", "hydrated")

    def __init__(self, source: _RowSource):
        self._source = source
        self._cache: Dict[int, NameRecord] = {}
        self.hydrated = 0

    def __len__(self) -> int:
        return len(self._source)

    def _get(self, row: int) -> NameRecord:
        found = self._cache.get(row)
        if found is None:
            found = self._source.hydrate(row)
            self._cache[row] = found
            self.hydrated += 1
        return found

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._get(row)
                    for row in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("record index out of range")
        return self._get(index)

    def __iter__(self) -> Iterator[NameRecord]:
        for row in range(len(self)):
            yield self._get(row)

    def __bool__(self) -> bool:
        return len(self) > 0


class _ColumnDiffView:
    """The columnar diff protocol over one lazy snapshot.

    :func:`repro.core.snapshot.diff_results` drives this instead of the
    record index when both sides are lazy: ``names`` maps every surveyed
    name to its row handle (the base reader's shared index, read-only,
    built on first access), and :meth:`value` answers per-field cell
    reads straight from the columns — no :class:`NameRecord` is ever
    built.
    """

    def __init__(self, source: _RowSource):
        self._source = source

    @property
    def names(self) -> Dict[DomainName, int]:
        return self._source.base.name_rows()

    def value(self, row: int, field: str):
        return self._source.field_value(field, row)

    def overlay_bound(self, other) -> Optional[Dict[DomainName, int]]:
        """The rows that can differ from ``other``, by name, or ``None``.

        Two views over one keyframe reader hold the same rows and read
        the same cell for every row neither overlays, so only the union
        of their overlay rows can differ; a row is its own handle on both
        sides.  Views over different keyframes (or stores) are unbounded.
        """
        if not isinstance(other, _ColumnDiffView) or \
                other._source.base is not self._source.base:
            return None
        name = self._source.name
        return {name(row): row for row in
                self._source.overlays.keys() | other._source.overlays.keys()}


class LazySurveyResults(SurveyResults):
    """A column-backed :class:`SurveyResults` over an open snapshot.

    Construction is O(1): no record, aggregate map, or frozenset exists
    until something asks for it.  ``records`` hydrates row by row (cached);
    each aggregate map materialises on its own first touch, so reading
    ``server_names_controlled`` decodes no fingerprint; ``record_for``
    goes through a name→row index built from the string pool without
    hydrating any record.  :meth:`column` answers straight off the
    column views, so ``headline`` and the figure reducers — inherited,
    and written once over :meth:`SurveyResults.column` — hydrate
    nothing; ``extras_summary`` reads the extras columns the same way.
    """

    def __init__(self, source: _RowSource):
        # Deliberately no dataclass __init__: every parent field is served
        # by a property below, off the columns.
        self._source = source
        self._lazy_records = _LazyRecords(source)
        self._aggregates: Dict[str, object] = {}
        self._metadata: Optional[Dict[str, object]] = None

    # -- lazy field surface ---------------------------------------------------------

    @property
    def records(self) -> _LazyRecords:  # type: ignore[override]
        return self._lazy_records

    def _aggregate(self, key: str):
        found = self._aggregates.get(key)
        if found is None:
            found = self._aggregates[key] = self._source.aggregate(key)
        return found

    @property
    def server_names_controlled(self):  # type: ignore[override]
        return self._aggregate("counts")

    @property
    def vulnerable_servers(self):  # type: ignore[override]
        return self._aggregate("vulnerable")

    @property
    def compromisable_servers(self):  # type: ignore[override]
        return self._aggregate("compromisable")

    @property
    def popular_names(self):  # type: ignore[override]
        return self._aggregate("popular")

    @property
    def fingerprints(self):  # type: ignore[override]
        return self._aggregate("fingerprints")

    @property
    def metadata(self):  # type: ignore[override]
        if self._metadata is None:
            self._metadata = self._source.metadata()
        return self._metadata

    # -- laziness probes ------------------------------------------------------------

    @property
    def hydrated_record_count(self) -> int:
        """How many records have been materialised so far (test probe)."""
        return self._lazy_records.hydrated

    # -- overridden accessors (hydration-free) ---------------------------------------

    def total_servers_discovered(self) -> int:
        tally = self._source.server_tally()
        if tally is None:
            return super().total_servers_discovered()
        return tally[0]

    def vulnerable_server_fraction(self) -> float:
        tally = self._source.server_tally()
        if tally is None:
            return super().vulnerable_server_fraction()
        total, vulnerable = tally
        return vulnerable / total if total else 0.0

    def record_for(self, name: NameLike) -> Optional[NameRecord]:
        """One record by name, hydrating only that row.

        Probes the base reader's shared text index with ``name`` as given
        first; only a miss parses it, so canonical text never builds a
        :class:`DomainName` and anything else behaves exactly as parsed.
        """
        index = self._source.base.row_index()
        row = index.get(name) if isinstance(name, str) else None
        if row is None:
            if not isinstance(name, DomainName):
                name = DomainName(name)
            row = index.get(str(name))
        return None if row is None else self._lazy_records[row]

    def column(self, field: str) -> List[object]:
        """One built-in field for every row, read off the columns."""
        return self._source.column(field)

    def tcb_index_rows(self):
        """(name, resolved, tcb_servers) rows without record hydration.

        The :class:`~repro.core.delta.DirtyIndex` feed: the inverted
        host→names index needs exactly these three columns, and the
        frozensets come shared from the content-addressed set store.
        """
        source = self._source
        for row in range(len(source)):
            yield (source.name(row), source.resolved(row),
                   source.tcb_frozen(row))

    def _listed_extras_columns(self) -> List[str]:
        return self._source.extras_columns()

    def extra_column(self, column: str) -> List[object]:
        """One pass column for every row, read off the extras columns."""
        return self._source.extra_column(column)

    def numeric_extra_count(self, column: str) -> Optional[int]:
        """From column kinds and presence counts; values only for json."""
        kinds, count = self._source.extra_profile(column)
        if "json" in kinds:
            return super().numeric_extra_count(column)
        return count if count and kinds <= {"int", "float"} else None

    def column_diff_view(self) -> _ColumnDiffView:
        """The diff protocol object ``diff_results`` fast-paths through."""
        return _ColumnDiffView(self._source)

    def verify(self) -> None:
        """Checksum the backing file(s) payload (O(size), explicit)."""
        self._source.base.reader.verify()
        for patch in {reader for reader, _ in
                      self._source.overlays.values()}:
            patch.reader.verify()


def open_results(path: PathLike) -> LazySurveyResults:
    """Open a binary results snapshot as a lazy view; O(1) in snapshot size."""
    return LazySurveyResults(_RowSource(_RecordReader(
        _SectionReader(path, KIND_RESULTS))))


# -- shard payloads ----------------------------------------------------------------------


def _write_flag_map(writer: _SectionWriter, prefix: str,
                    mapping: Dict[DomainName, bool],
                    pool: _PoolWriter) -> None:
    ordered = sorted(mapping.items(), key=lambda item: str(item[0]))
    writer.add(prefix + ".host",
               array("q", [pool.intern_name(host) for host, _ in ordered]))
    writer.add(prefix + ".flag",
               bytes(1 if value else 0 for _, value in ordered))


def _read_flag_map(reader: _SectionReader, prefix: str,
                   pool: _Pool) -> Dict[DomainName, bool]:
    hosts = reader.q(prefix + ".host")
    flags = reader.bytes_view(prefix + ".flag")
    return {pool.name(hosts[position]): bool(flags[position])
            for position in range(len(hosts))}


class ShardPayload(NamedTuple):
    """One shard's survey output, as surveyed or decoded (the fold input).

    The fields follow :func:`pack_shard_result`'s parameters, so
    ``pack_shard_result(*payload)`` encodes one.
    """

    rows: List[int]
    records: List[NameRecord]
    fingerprints: Dict[DomainName, FingerprintResult]
    vulnerability_map: Dict[DomainName, bool]
    compromisable_map: Dict[DomainName, bool]
    popular: Set[DomainName]
    meta: Dict[str, object]


def pack_shard_result(rows: Sequence[int], records: Sequence[NameRecord],
                      fingerprints: Dict[DomainName, FingerprintResult],
                      vulnerability_map: Dict[DomainName, bool],
                      compromisable_map: Dict[DomainName, bool],
                      popular: Iterable[DomainName] = (),
                      meta: Optional[Dict[str, object]] = None,
                      path: Optional[PathLike] = None):
    """Encode one shard's survey output as a REPRO-SNAP shard container.

    ``rows`` holds the *global* directory index of each record, exactly as
    epoch deltas do, so a fold places every record at its directory
    index.  With ``path=None`` the container is returned as bytes (the
    worker's wire payload); with a path it lands on disk (the
    ``repro-dns survey --shard i/n`` output that ``repro-dns merge``
    folds).
    """
    if len(rows) != len(records):
        raise ValueError(f"{len(rows)} rows for {len(records)} records")
    writer = _SectionWriter(path, KIND_SHARD)
    try:
        return _stream_shard_result(writer, rows, records, fingerprints,
                                    vulnerability_map, compromisable_map,
                                    popular, meta, path)
    except BaseException:
        writer.abort()
        raise


def _stream_shard_result(writer, rows, records, fingerprints,
                         vulnerability_map, compromisable_map, popular,
                         meta, path):
    pool = _PoolWriter()
    sets = _SetWriter(pool)
    _write_record_sections(writer, list(records), pool, sets)
    writer.add("rows", array("q", rows))
    _write_fingerprint_sections(writer, "fp", fingerprints, pool)
    _write_flag_map(writer, "vm", vulnerability_map, pool)
    _write_flag_map(writer, "cm", compromisable_map, pool)
    # The full popular set (not just this shard's slice): a shard file
    # must let `repro-dns merge` reconstruct popular_names exactly even
    # when a truncated survey leaves popular names unsurveyed.
    writer.add("pop", array("q", _intern_sorted(pool, popular)))
    writer.add("meta", json.dumps(meta or {},
                                  sort_keys=True).encode("utf-8"))
    sets.write(writer, "sets")
    pool.write(writer, "strs")
    return writer.close() if path is not None else writer.close_to_bytes()


def unpack_shard_result(source: Union[PathLike, bytes, bytearray, memoryview],
                        label: Optional[str] = None) -> ShardPayload:
    """Decode a shard container (bytes or file) into hydrated parts."""
    reader = _SectionReader(source, KIND_SHARD, label=label)
    rec = _RecordReader(reader)
    return ShardPayload(
        rows=list(reader.q("rows")),
        records=[rec.hydrate(row) for row in range(len(rec))],
        fingerprints=_read_fingerprints(reader, "fp", rec.pool),
        vulnerability_map=_read_flag_map(reader, "vm", rec.pool),
        compromisable_map=_read_flag_map(reader, "cm", rec.pool),
        popular={rec.pool.name(name_id) for name_id in reader.q("pop")},
        meta=reader.json("meta"))


# -- the delta-sharing timeline store ----------------------------------------------------


#: The reference indexes a delta writer shares a base file's pool and
#: set store through: text -> base pool id, packed membership -> set id.
_RefIndexes = Tuple[Dict[str, int], Dict[bytes, int]]


def _base_ref_indexes(base: _RecordReader) -> _RefIndexes:
    """Reference indexes a delta writer needs to share a base file's pool.

    The set index is keyed in *delta* id space: a base set's members are
    base pool ids, and a host already pooled by the base interns into a
    delta as ``-(base_id + 1)`` — so re-keying the base memberships the
    same way makes unchanged sets hit the index exactly.  Keys are packed
    int64 bytes (:class:`_SetWriter` probes the same packing): a tuple of
    ints per set costs several times the memory.
    """
    pool = base.pool
    text_index = {pool.text(index): index for index in range(len(pool))}
    offsets, members = base.sets._offsets, base.sets._members
    set_index = {
        array("q", sorted(-member - 1
                          for member in members[offsets[set_id]:
                                                offsets[set_id + 1]])
              ).tobytes(): set_id
        for set_id in range(len(offsets) - 1)}
    return text_index, set_index


def _write_delta_snapshot(path: PathLike, results: SurveyResults,
                          previous: SurveyResults,
                          changed_rows: List[int],
                          references: _RefIndexes,
                          moved: Optional[AbstractSet[DomainName]] = None
                          ) -> pathlib.Path:
    """Write one epoch as a column delta against ``previous``.

    The file carries the changed rows' full record columns, the base-row
    index mapping, and aggregate-map patches (set/delete entries) —
    everything :meth:`EpochStore.load_epoch` needs to overlay it on the
    base epoch.  Strings and sets the base file (the keyframe) already
    stores — found through its ``references`` indexes — are written as
    negative references into its pool instead of being duplicated; only
    genuinely new material enters the local pool.  ``moved``, when given,
    holds every host whose server entries can differ between the two
    (see :meth:`~repro.core.delta.DirtyIndex.moved_since`), and bounds
    the aggregate comparison to them.
    """
    writer = _SectionWriter(path, KIND_DELTA)
    try:
        return _stream_delta_snapshot(writer, results, previous,
                                      changed_rows, references, moved)
    except BaseException:
        writer.abort()
        raise


def _stream_delta_snapshot(writer: _SectionWriter, results: SurveyResults,
                           previous: SurveyResults,
                           changed_rows: List[int],
                           references: _RefIndexes,
                           moved: Optional[AbstractSet[DomainName]]
                           ) -> pathlib.Path:
    text_index, set_index = references
    pool = _PoolWriter(text_index)
    sets = _SetWriter(pool, set_index)
    records = results.records
    _write_record_sections(writer, [records[row] for row in changed_rows],
                           pool, sets)
    writer.add("rows", array("q", changed_rows))

    def patch(now: Dict, before: Dict) -> Tuple[Dict, List[DomainName]]:
        """(entries of ``now`` that ``before`` lacks or differs on, keys
        of ``before`` that ``now`` lacks), over the moved hosts only when
        they are known."""
        if moved is None:
            hosts: Iterable[DomainName] = now.keys() | before.keys()
        else:
            hosts = moved
        upserts, deleted = {}, []
        for host in hosts:
            value = now.get(host)
            if value is None:
                if host in before:
                    deleted.append(host)
            elif before.get(host) != value:
                upserts[host] = value
        return upserts, deleted

    counts, deleted = patch(results.server_names_controlled,
                            previous.server_names_controlled)
    upserts = sorted(counts.items(), key=lambda item: str(item[0]))
    writer.add("aggd.counts.set.host",
               array("q", [pool.intern_name(host) for host, _ in upserts]))
    writer.add("aggd.counts.set.n",
               array("q", [count for _, count in upserts]))
    writer.add("aggd.counts.del", array("q", _intern_sorted(pool, deleted)))

    for section, now, before in (
            ("vuln", results.vulnerable_servers,
             previous.vulnerable_servers),
            ("comp", results.compromisable_servers,
             previous.compromisable_servers),
            ("pop", results.popular_names, previous.popular_names)):
        if moved is not None and section != "pop":
            now, before = now & moved, before & moved
        writer.add(f"aggd.{section}.add",
                   array("q", _intern_sorted(pool, now - before)))
        writer.add(f"aggd.{section}.del",
                   array("q", _intern_sorted(pool, before - now)))

    changed_fp, deleted = patch(results.fingerprints, previous.fingerprints)
    _write_fingerprint_sections(writer, "fpd", changed_fp, pool)
    writer.add("fpd.del", array("q", _intern_sorted(pool, deleted)))

    writer.add("meta", json.dumps(results.metadata,
                                  sort_keys=True).encode("utf-8"))
    sets.write(writer, "sets")
    pool.write(writer, "strs")
    return writer.close()


def _apply_aggregate_patch(key: str, value, patch: _RecordReader) -> None:
    """Fold one delta file's patch of aggregate ``key`` into ``value``."""
    reader, pool = patch.reader, patch.pool
    if key == "counts":
        hosts = reader.q("aggd.counts.set.host")
        counts = reader.q("aggd.counts.set.n")
        for position in range(len(hosts)):
            value[pool.name(hosts[position])] = counts[position]
        for host_id in reader.q("aggd.counts.del"):
            value.pop(pool.name(host_id), None)
    elif key == "fingerprints":
        value.update(_read_fingerprints(reader, "fpd", pool))
        for host_id in reader.q("fpd.del"):
            value.pop(pool.name(host_id), None)
    else:
        section = _AGGREGATE_SETS[key]
        for host_id in reader.q(f"aggd.{section}.add"):
            value.add(pool.name(host_id))
        for host_id in reader.q(f"aggd.{section}.del"):
            value.discard(pool.name(host_id))


#: An epoch file name (temp debris is dot-prefixed and never matches).
_EPOCH_FILE = re.compile(r"^epoch_(\d{4,})\.rsnap$")

#: What tells a file apart from its replacement: device, inode, size and
#: modification time.
_FileIdentity = Tuple[int, int, int, int]


def _file_identity(path: pathlib.Path) -> _FileIdentity:
    stat = path.stat()
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


@dataclasses.dataclass(frozen=True)
class StoreProblem:
    """One integrity failure fsck found: where, and precisely what."""

    path: pathlib.Path
    epoch: Optional[int]
    error: str

    def __str__(self) -> str:
        where = self.path.name if self.epoch is None \
            else f"epoch {self.epoch} ({self.path.name})"
        return f"{where}: {self.error}"


@dataclasses.dataclass(frozen=True)
class StoreIntegrityReport:
    """What :meth:`EpochStore.verify` found.

    ``valid_epochs`` is the length of the longest loadable prefix —
    contiguous from epoch 0, every file's header, TOC, and payload CRC
    intact, epoch 0 a full results snapshot.  Everything past it is in
    ``problems``; uncommitted temp files are in ``debris``.
    """

    root: pathlib.Path
    valid_epochs: int
    present: Tuple[int, ...]
    problems: Tuple[StoreProblem, ...]
    debris: Tuple[pathlib.Path, ...]

    @property
    def classification(self) -> str:
        """``clean`` / ``salvageable`` / ``corrupt-base``."""
        if self.problems:
            return "salvageable" if self.valid_epochs else "corrupt-base"
        return "salvageable" if self.debris else "clean"

    @property
    def ok(self) -> bool:
        return self.classification == "clean"


class EpochStore:
    """A directory of epochs: keyframe snapshots plus column deltas.

    Epoch 0 is a complete REPRO-SNAP results file; every later epoch
    stores only the rows whose records actually changed (callers pass the
    delta engine's dirty set to bound the comparison) plus aggregate-map
    patches — so a longitudinal run's storage scales with churn, not with
    ``epochs × universe``.  :meth:`load_epoch` opens any epoch as a
    :class:`LazySurveyResults` whose row source overlays the deltas on the
    nearest keyframe's columns; unchanged rows keep reading from that
    keyframe's mmap.

    ``keyframe_every=K`` writes a *full* snapshot every K epochs instead
    of a delta, so a 1000-epoch store never builds overlay chains longer
    than K.  Readers never need the writer's cadence: which epochs are
    keyframes is sniffed from the file kinds, so any mixing of cadences
    across appends reads correctly.

    Each keyframe is opened once per store: every view over it shares one
    :class:`_RecordReader` (its caches and name indexes), found by path
    and file identity, so a keyframe replaced on disk is reopened.  The
    store holds that reader only by weak reference — the views keep it
    alive, and it dies with the last of them.  The reference indexes
    deltas are written against are cached under the same identity.
    """

    def __init__(self, root: PathLike,
                 keyframe_every: Optional[int] = None):
        self.root = pathlib.Path(root)
        if keyframe_every is not None and keyframe_every < 1:
            raise ValueError(
                f"keyframe_every must be >= 1, got {keyframe_every}")
        self.keyframe_every = keyframe_every
        self._keyframes: Dict[pathlib.Path,
                              Tuple[_FileIdentity, weakref.ref]] = {}
        self._references: Optional[Tuple[pathlib.Path, _FileIdentity,
                                         _RefIndexes]] = None

    def _keyframe_for(self, epoch: int) -> int:
        """The newest keyframe epoch at or below ``epoch`` (sniffed)."""
        for step in range(epoch, -1, -1):
            if sniff_kind(self.epoch_path(step)) == KIND_RESULTS:
                return step
        raise SnapshotFormatError(
            f"{self.root}: no keyframe at or below epoch {epoch}")

    def epoch_path(self, epoch: int) -> pathlib.Path:
        return self.root / f"epoch_{epoch:04d}.rsnap"

    def _keyframe_reader(self, path: pathlib.Path) -> _RecordReader:
        """The shared reader of the keyframe at ``path`` (see class doc)."""
        identity = _file_identity(path)
        cached = self._keyframes.get(path)
        reader = cached[1]() if cached is not None \
            and cached[0] == identity else None
        if reader is None:
            reader = _RecordReader(_SectionReader(path, KIND_RESULTS))
            self._keyframes[path] = (identity, weakref.ref(reader))
        return reader

    def _reference_indexes(self, path: pathlib.Path) -> _RefIndexes:
        """The keyframe at ``path``'s delta reference indexes, cached."""
        identity = _file_identity(path)
        cached = self._references
        if cached is None or cached[:2] != (path, identity):
            cached = self._references = (
                path, identity,
                _base_ref_indexes(self._keyframe_reader(path)))
        return cached[2]

    def epoch_numbers(self) -> List[int]:
        """The epoch numbers present on disk, sorted (gaps and all)."""
        if not self.root.is_dir():
            return []
        return sorted(int(match.group(1)) for match in
                      (_EPOCH_FILE.match(path.name)
                       for path in self.root.iterdir())
                      if match is not None)

    @property
    def epochs(self) -> int:
        """How many epochs the store holds (0 when empty).

        A *gap* — ``epoch_0007.rsnap`` present while ``epoch_0006.rsnap``
        is not — raises naming the missing epoch rather than silently
        reporting a shorter store: deltas past the gap would overlay onto
        the wrong predecessor state.
        """
        numbers = self.epoch_numbers()
        for position, number in enumerate(numbers):
            if number != position:
                raise SnapshotFormatError(
                    f"{self.root}: epoch store has a gap: "
                    f"{self.epoch_path(position).name} is missing but "
                    f"{self.epoch_path(number).name} exists "
                    f"(run `repro-dns fsck` to inspect or salvage)")
        return len(numbers)

    def total_bytes(self) -> int:
        """Bytes on disk across every epoch file."""
        return sum(self.epoch_path(epoch).stat().st_size
                   for epoch in range(self.epochs))

    # -- integrity: fsck / salvage -------------------------------------------------------

    def _check_epoch_file(self, epoch: int) -> Optional[str]:
        """Why the epoch file is invalid, or None if it checks out fully.

        Walks everything open() skips for O(1) cost: the payload crc32
        and the kind discipline (epoch 0 must be a full results snapshot;
        later epochs a delta or a keyframe).
        """
        try:
            reader = _SectionReader(self.epoch_path(epoch))
            if epoch == 0 and reader.kind != KIND_RESULTS:
                return (f"epoch 0 must be a full results snapshot, found "
                        f"a {_KIND_NAMES.get(reader.kind, 'unknown')} file")
            if epoch > 0 and reader.kind not in (KIND_RESULTS, KIND_DELTA):
                return (f"expected a keyframe or epoch delta, found a "
                        f"{_KIND_NAMES.get(reader.kind, 'unknown')} file")
            reader.verify()
        except SnapshotFormatError as error:
            # Strip the path prefix _SectionReader bakes in; the report
            # names the file itself.
            message = str(error)
            prefix = f"{self.epoch_path(epoch)}: "
            return message[len(prefix):] if message.startswith(prefix) \
                else message
        return None

    def verify(self) -> StoreIntegrityReport:
        """Full integrity walk: CRCs, kinds, contiguity, temp debris.

        O(store size) by design — this is fsck, not open.  Never raises
        on a corrupt store; the report carries the findings.
        """
        present = self.epoch_numbers()
        problems: List[StoreProblem] = []
        valid = 0
        prefix_intact = True
        top = present[-1] + 1 if present else 0
        for epoch in range(top):
            path = self.epoch_path(epoch)
            if not path.exists():
                problems.append(StoreProblem(
                    path, epoch, "missing (gap in the epoch sequence)"))
                prefix_intact = False
                continue
            error = self._check_epoch_file(epoch)
            if error is not None:
                problems.append(StoreProblem(path, epoch, error))
                prefix_intact = False
            elif prefix_intact:
                valid = epoch + 1
        return StoreIntegrityReport(
            root=self.root, valid_epochs=valid, present=tuple(present),
            problems=tuple(problems),
            debris=tuple(temp_debris(self.root)))

    def salvage(self) -> Tuple[StoreIntegrityReport, List[pathlib.Path]]:
        """Truncate to the longest valid prefix; quarantine the bad tail.

        Invalid or past-the-prefix epoch files move (never delete — they
        are evidence) into ``<root>/quarantine/``; uncommitted temp
        debris is removed.  Refuses a corrupt base: with no valid epoch 0
        there is no prefix to keep, and emptying the store is a decision
        for a human, not fsck.  Returns the pre-salvage report and the
        paths acted on.
        """
        report = self.verify()
        if report.classification == "corrupt-base":
            raise SnapshotFormatError(
                f"{self.root}: epoch 0 is missing or corrupt — no valid "
                f"prefix to salvage (remove the store manually to start "
                f"over)")
        moved: List[pathlib.Path] = []
        quarantine = self.root / "quarantine"
        for epoch in report.present:
            if epoch < report.valid_epochs:
                continue
            path = self.epoch_path(epoch)
            quarantine.mkdir(parents=True, exist_ok=True)
            target = quarantine / path.name
            os.replace(path, target)
            moved.append(target)
        for debris in report.debris:
            debris.unlink()
            moved.append(debris)
        if moved:
            fsync_directory(self.root)
        return report, moved

    def append(self, results: SurveyResults,
               previous: Optional[SurveyResults] = None,
               dirty: Optional[Iterable[DomainName]] = None) -> pathlib.Path:
        """Persist the next epoch; full for epoch 0, a delta afterwards.

        ``previous`` must be the results the store's latest epoch holds
        (the timeline loop always has them in hand).  ``dirty``, when
        given, bounds the changed-row scan to the names the delta engine
        re-surveyed — every other record is unchanged by the delta
        contract, so it is never compared (or hydrated, for lazy views).
        """
        epoch = self.epochs
        if epoch == 0 or (self.keyframe_every is not None
                          and epoch % self.keyframe_every == 0):
            self.root.mkdir(parents=True, exist_ok=True)
            return save_results_snapshot(results, self.epoch_path(epoch))
        if previous is None:
            previous = self.load_epoch(epoch - 1)
        records = results.records
        if len(records) != len(previous.records):
            raise ValueError(
                f"epoch {epoch} surveys {len(records)} names, the store "
                f"holds {len(previous.records)} — every epoch must survey "
                f"the same directory")
        # A delta's carried index knows its rows, and which hosts' server
        # entries can differ from the previous epoch's: the scans below
        # then cost the dirty rows and those hosts, not the world.
        index = getattr(results, "_dirty_index", None)
        moved = None if index is None else \
            index.moved_since(getattr(previous, "_dirty_index", None))
        if dirty is None:
            rows: Iterable[int] = range(len(records))
        else:
            dirty_set = {DomainName(name) for name in dirty}
            rows = index.rows_of(dirty_set) if index is not None else \
                [row for row in range(len(records))
                 if records[row].name in dirty_set]
        changed_rows = [row for row in rows if records[row] !=
                        previous.record_for(records[row].name)]
        references = self._reference_indexes(
            self.epoch_path(self._keyframe_for(epoch - 1)))
        return _write_delta_snapshot(self.epoch_path(epoch), results,
                                     previous, changed_rows, references,
                                     moved)

    def load_epoch(self, epoch: int) -> LazySurveyResults:
        """Open epoch ``epoch`` as a lazy view (deltas overlaid on base)."""
        if not 0 <= epoch < self.epochs:
            raise SnapshotFormatError(
                f"{self.root}: epoch {epoch} not in store "
                f"(holds {self.epochs})")
        keyframe = self._keyframe_for(epoch)
        base = self._keyframe_reader(self.epoch_path(keyframe))
        overlays: Dict[int, Tuple[_RecordReader, int]] = {}
        patches: List[_RecordReader] = []
        for step in range(keyframe + 1, epoch + 1):
            patch = _RecordReader(_SectionReader(self.epoch_path(step),
                                                 KIND_DELTA), base=base)
            patches.append(patch)
            rows = patch.reader.q("rows")
            for local in range(len(rows)):
                overlays[rows[local]] = (patch, local)

        def aggregate(key: str):
            folded = base.aggregate(key)
            for patch in patches:
                _apply_aggregate_patch(key, folded, patch)
            return folded

        metadata = patches[-1].metadata if patches else base.metadata
        return LazySurveyResults(_RowSource(base, overlays,
                                            aggregate, metadata))
