"""``repro-dns merge``: union shard snapshot files off the binary columns.

Each input is a ``KIND_SHARD`` REPRO-SNAP container (written by
``repro-dns survey --shard i/n``) whose ``rows`` section holds the
*global* directory index of every record.  The merge is purely textual:
record columns are copied cell-by-cell into one global column set,
strings re-intern by text, TCB/mincut sets re-intern by member texts,
and the aggregate maps are recomputed from the columns — counts by
walking resolved rows' TCB memberships (exactly what
``SurveyAggregator.add_record`` counts), verdict sets by unioning the
shard flag maps, fingerprints by text-level union.  No
:class:`~repro.core.survey.NameRecord`, ``DomainName``, or frozenset is
ever hydrated, so merging scales with the bytes, not the object graph.

The output is a ``KIND_RESULTS`` file whose records and aggregates are
byte-identical to a serial survey of the same world (the guarantee CI
asserts with ``repro-dns diff``); its *metadata* records merge
provenance (``backend: "merged"``, the input shard count) rather than
impersonating the serial engine's run parameters.

Shard coverage is validated before anything is written: the row indices
of all inputs must partition ``0..total-1`` exactly, and any gap,
overlap, or out-of-range index names the offending files and row.
"""

from __future__ import annotations

import json
import pathlib
from array import array
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.core.snapstore import (_FLAG_RESOLVED, _NO_BANNER, _INT_COLUMNS,
                                  KIND_RESULTS, KIND_SHARD, _PoolWriter,
                                  _RecordReader, _SectionReader,
                                  _SectionWriter, _SetWriter,
                                  _write_extras_sections)
from repro.distrib.wire import DistribError

PathLike = object


class MergeReport(NamedTuple):
    """What a merge did (the CLI's reporting surface)."""

    output: pathlib.Path
    names: int
    shards: int
    bytes_written: int


class _ShardFile:
    """One opened shard input: column reader + its global row indices."""

    def __init__(self, path):
        self.path = pathlib.Path(path)
        self.reader = _SectionReader(path, KIND_SHARD)
        # Checks every section, the row index's length included.
        self.records = _RecordReader(self.reader)
        self.rows = list(self.reader.q("rows"))

    def set_member_texts(self, set_id: int) -> List[str]:
        store, text = self.records.sets, self.records.pool.text
        return [text(member) for member in
                store._members[store._offsets[set_id]:
                               store._offsets[set_id + 1]]]


def merge_shard_snapshots(paths, output) -> MergeReport:
    """Union shard files into one results snapshot (see module docstring)."""
    if not paths:
        raise DistribError("merge needs at least one shard file")
    shards = [_ShardFile(path) for path in paths]
    total = sum(len(shard.rows) for shard in shards)
    owner: List[Optional[_ShardFile]] = [None] * total
    for shard in shards:
        for row in shard.rows:
            if not 0 <= row < total:
                raise DistribError(
                    f"{shard.path}: row index {row} outside the merged "
                    f"range 0..{total - 1} — shard inputs do not form a "
                    f"complete partition")
            if owner[row] is not None:
                raise DistribError(
                    f"row {row} covered by both {owner[row].path} and "
                    f"{shard.path} — overlapping shard inputs")
            owner[row] = shard
    # sum(len)==total and no overlap => no gaps; owner[] is fully set.

    writer = _SectionWriter(output, KIND_RESULTS)
    pool = _PoolWriter()
    sets = _SetWriter(pool)

    names = array("q", bytes(8 * total))
    tlds = array("q", bytes(8 * total))
    categories = array("q", bytes(8 * total))
    classifications = array("q", bytes(8 * total))
    flags = bytearray(total)
    ints = {column: array("q", bytes(8 * total)) for column in _INT_COLUMNS}
    safety = array("d", bytes(8 * total))
    tcb_sets = array("q", bytes(8 * total))
    cut_sets = array("q", bytes(8 * total))
    extras_values: Dict[str, Dict[int, object]] = {}

    counts: Dict[str, int] = {}
    vulnerable: Set[str] = set()
    compromisable: Set[str] = set()
    popular: Set[str] = set()
    fingerprints: Dict[str, Tuple[Optional[str], bool, List[str]]] = {}

    for shard in shards:
        rec = shard.records
        rec_pool = rec.pool
        for local, row in enumerate(shard.rows):
            names[row] = pool.intern(rec_pool.text(rec._names[local]))
            tlds[row] = pool.intern(rec_pool.text(rec._tlds[local]))
            categories[row] = pool.intern(
                rec_pool.text(rec._categories[local]))
            classifications[row] = pool.intern(
                rec_pool.text(rec._classifications[local]))
            flag = rec._flags[local]
            flags[row] = flag
            for column in _INT_COLUMNS:
                ints[column][row] = rec._ints[column][local]
            safety[row] = rec._safety[local]
            tcb_members = shard.set_member_texts(rec._tcb_sets[local])
            tcb_sets[row] = sets.intern(tcb_members)
            cut_sets[row] = sets.intern(
                shard.set_member_texts(rec._cut_sets[local]))
            if flag & _FLAG_RESOLVED:
                for member in tcb_members:
                    counts[member] = counts.get(member, 0) + 1
            for column, value in rec.extras_for(local).items():
                extras_values.setdefault(column, {})[row] = value

        for prefix, target in (("vm", vulnerable), ("cm", compromisable)):
            host_ids = shard.reader.q(f"{prefix}.host")
            host_flags = shard.reader.bytes_view(f"{prefix}.flag")
            target.update(rec_pool.text(host_ids[position])
                          for position in range(len(host_ids))
                          if host_flags[position])
        popular.update(rec_pool.text(name_id)
                       for name_id in shard.reader.q("pop"))

        fp_hosts = shard.reader.q("fp.host")
        fp_banners = shard.reader.q("fp.banner")
        fp_reach = shard.reader.bytes_view("fp.reach")
        fp_offsets = shard.reader.q("fp.vuln.off")
        fp_members = shard.reader.q("fp.vuln.mem")
        for position in range(len(fp_hosts)):
            banner_id = fp_banners[position]
            fingerprints[rec_pool.text(fp_hosts[position])] = (
                None if banner_id == _NO_BANNER
                else rec_pool.text(banner_id),
                bool(fp_reach[position]),
                [rec_pool.text(member) for member in
                 fp_members[fp_offsets[position]:fp_offsets[position + 1]]])

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
    _write_extras_sections(writer, total, extras_values, pool)

    ordered_counts = sorted(counts.items())
    writer.add("agg.counts.host",
               array("q", [pool.intern(host) for host, _ in ordered_counts]))
    writer.add("agg.counts.n",
               array("q", [count for _, count in ordered_counts]))
    for section, members in (("agg.vuln", vulnerable),
                             ("agg.comp", compromisable),
                             ("agg.pop", popular)):
        writer.add(section, array("q", sorted(
            pool.intern(member) for member in members)))

    ordered_fp = sorted(fingerprints.items())
    writer.add("fp.host",
               array("q", [pool.intern(host) for host, _ in ordered_fp]))
    writer.add("fp.banner", array("q", [
        _NO_BANNER if banner is None else pool.intern(banner)
        for _, (banner, _reach, _vulns) in ordered_fp]))
    writer.add("fp.reach", bytes(1 if reach else 0
                                 for _, (_banner, reach, _vulns)
                                 in ordered_fp))
    vuln_offsets = array("q", [0])
    vuln_members = array("q")
    for _, (_banner, _reach, vulns) in ordered_fp:
        vuln_members.extend(pool.intern(item) for item in vulns)
        vuln_offsets.append(len(vuln_members))
    writer.add("fp.vuln.off", vuln_offsets)
    writer.add("fp.vuln.mem", vuln_members)

    metadata = dict(shards[0].records.metadata())
    metadata.update({
        "backend": "merged",
        "workers": len(shards),
        "shards": len(shards),
        "names_requested": total,
        "merged_from": [str(shard.path.name) for shard in shards],
    })
    writer.add("meta", json.dumps(metadata, sort_keys=True).encode("utf-8"))
    sets.write(writer, "sets")
    pool.write(writer, "strs")
    written = writer.close()
    return MergeReport(output=written, names=total, shards=len(shards),
                       bytes_written=written.stat().st_size)
