"""Distributed survey: socket coordinator, workers, and shard merging.

The subsystem that lets several processes (or hosts — the protocol only
sees sockets) survey one directory:

* :mod:`repro.distrib.wire` — length-prefixed frames whose bulk payloads
  are REPRO-SNAP column containers.
* :mod:`repro.distrib.worker` — ``repro-dns worker --listen``: a warm
  serial engine behind a socket.
* :mod:`repro.distrib.coordinator` — shard striping, work-order
  shipping, and the byte-identical shard-order fold; plus
  :class:`LocalWorkerFleet` for CI-friendly local multi-host simulation.
* :mod:`repro.distrib.merge` — ``repro-dns merge``: fold shard snapshot
  files through the backends' aggregator fold into one results snapshot.
* :mod:`repro.distrib.faults` — deterministic fault injection
  (:class:`FaultPlan`) for chaos-testing the recovery machinery.

Fault tolerance lives in the coordinator: :class:`RetryPolicy` governs
reconnect-and-rebuild retries with deterministic backoff,
:class:`FaultReport` tallies what recovery did, and
:class:`WorkerLostError` marks a worker that exhausted its budget (its
shard is reassigned to a survivor, preserving byte-identical folds).
"""

from repro._lazy import lazy_exports

__all__ = ["DistribError", "WireError", "FaultReport", "RetryPolicy",
           "WorkerLostError", "FaultPlan"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.distrib.wire": ("DistribError", "WireError"),
    "repro.distrib.coordinator": (
        "FaultReport", "RetryPolicy", "WorkerLostError",
    ),
    "repro.distrib.faults": ("FaultPlan",),
})
