"""``repro-dns merge``: fold shard snapshot files into one results snapshot.

Each input is a ``KIND_SHARD`` REPRO-SNAP container (written by
``repro-dns survey --shard i/n``) whose ``rows`` section holds the
*global* directory index of every record.  The merge decodes each input
with :func:`~repro.core.snapstore.unpack_shard_result` and folds it
through :meth:`~repro.core.engine.SurveyAggregator.fold_shard` in input
order — the fold the process and socket backends run — then writes the
result with :func:`~repro.core.snapstore.save_results_snapshot`.  So the
snapshot writer is the only code that knows the results format, and the
output's records and aggregates are byte-identical to a serial survey of
the same world (the guarantee CI asserts with ``repro-dns diff``); its
*metadata* records merge provenance (``backend: "merged"``, the input
shard count) rather than impersonating the serial engine's run
parameters.

Shard coverage is validated before anything is written: the row indices
of all inputs must partition ``0..total-1`` exactly, and any gap,
overlap, or out-of-range index names the offending files and row.
"""

from __future__ import annotations

import pathlib
from typing import List, NamedTuple, Optional

from repro.core.engine import SurveyAggregator
from repro.core.snapstore import save_results_snapshot, unpack_shard_result
from repro.distrib.wire import DistribError


class MergeReport(NamedTuple):
    """What a merge did (the CLI's reporting surface)."""

    output: pathlib.Path
    names: int
    shards: int
    bytes_written: int


def merge_shard_snapshots(paths, output) -> MergeReport:
    """Fold shard files into one results snapshot (see module docstring)."""
    if not paths:
        raise DistribError("merge needs at least one shard file")
    paths = [pathlib.Path(path) for path in paths]
    shards = [unpack_shard_result(path) for path in paths]
    total = sum(len(shard.rows) for shard in shards)
    owner: List[Optional[pathlib.Path]] = [None] * total
    for path, shard in zip(paths, shards):
        for row in shard.rows:
            if not 0 <= row < total:
                raise DistribError(
                    f"{path}: row index {row} outside the merged "
                    f"range 0..{total - 1} — shard inputs do not form a "
                    f"complete partition")
            if owner[row] is not None:
                raise DistribError(
                    f"row {row} covered by both {owner[row]} and "
                    f"{path} — overlapping shard inputs")
            owner[row] = path
    # sum(len)==total and no overlap => no gaps; every row is owned.

    aggregator = SurveyAggregator(total)
    popular = set()
    for shard in shards:
        aggregator.fold_shard(shard)
        popular.update(shard.popular)
    metadata = dict(shards[0].meta)
    metadata.update({
        "backend": "merged",
        "workers": len(shards),
        "shards": len(shards),
        "names_requested": total,
        "merged_from": [path.name for path in paths],
    })
    written = save_results_snapshot(aggregator.results(popular, metadata),
                                    output)
    return MergeReport(output=written, names=total, shards=len(shards),
                       bytes_written=written.stat().st_size)
