"""One churn read pass over an epoch store.

    python3 perfbench/readpass.py STORE PLAN

``PLAN`` is a JSON file: for each epoch, the names to look up.  A pass
opens every epoch with :meth:`EpochStore.load_epoch`, looks each name up
with ``record_for`` and diffs the first epoch against the last through
the lazy views.  Run as a script, it does one pass in a process of its
own, and the last line of standard output is one JSON object: the pass's
CPU and wall-clock seconds, a digest of each record looked up (in plan
order) and the diff's changed count.  Only the pass is timed: not the
interpreter start, the imports or the digests.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pathlib
import sys
import time
from typing import List, Sequence, Tuple

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def record_digest(record) -> str:
    """A short digest of a record's snapshot form; "none" for no record."""
    if record is None:
        return "none"
    text = json.dumps(record.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.blake2b(text, digest_size=8).hexdigest()


def read_pass(store, plan: Sequence[Sequence[str]]) -> Tuple[list, int]:
    """(records or raised errors in plan order, first-to-last changed)."""
    from repro.core.snapshot import diff_results
    found = []
    views = []
    for epoch, names in enumerate(plan):
        view = store.load_epoch(epoch)
        views.append(view)
        for name in names:
            try:
                found.append(view.record_for(name))
            except Exception as error:  # a raised lookup is a failed op
                found.append(error)
    return found, diff_results(views[0], views[-1]).changed


def digests(found: list) -> List[str]:
    return [f"raised {type(record).__name__}: {record}"
            if isinstance(record, Exception) else record_digest(record)
            for record in found]


def main(argv: Sequence[str]) -> int:
    store_root, plan_path = argv
    sys.path.insert(0, str(SRC))
    from repro.core.snapstore import EpochStore
    plan = json.loads(pathlib.Path(plan_path).read_text())
    store = EpochStore(store_root)
    gc.collect()
    cpu, wall = time.process_time(), time.perf_counter()
    found, changed = read_pass(store, plan)
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    print(json.dumps({"cpu_s": cpu, "wall_s": wall,
                      "records": digests(found), "changed": changed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
