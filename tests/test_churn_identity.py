"""Fixed figures of one tiny serial churn run.

A churn epoch may get cheaper, but it must not get different: the seeded
model must draw the same events, every epoch must reduce to the same
timeline row, and the epoch store must hold the same bytes.  A change to
how the model picks candidates, how the delta engine carries state from
epoch to epoch, or how the epoch diff is bounded breaks these figures.
"""

import hashlib
import json

from repro.core.snapstore import EpochStore
from repro.core.timeline import run_churn_timeline, timeline_fingerprint
from repro.topology.churn import ChurnModel, ChurnRates
from repro.topology.generator import GeneratorConfig, InternetGenerator

TINY = GeneratorConfig(seed=42, sld_count=60, directory_name_count=90,
                       university_count=12)
#: Deaths and transfers every epoch: the served-zones bookkeeping and the
#: re-delegation footprints are what the figures guard.
RATES = ChurnRates(transfer=1.0, death=1.0, upgrade=1.0, downgrade=0.5,
                   region=1.0)
PASSES = ("availability", "value")
EPOCHS = 4

FINGERPRINT = \
    "1268f364e047ceaa3ef6a0cc95be3411aca41c908fbf8333f3997bf280e4190d"
EVENT_DIGESTS = [
    "fe49d7f44cb6bc06669a960c0307db4a9c2a323a22045d154fac1f98a6199f98",
    "4bb0ad26e885eae7cc1063b72ecde1d277170e708a599213fbc287d555f6cb20",
    "54e071e3e4103d14d2c3b569b9fa8d1a94c1a61932bdb2fdcd22e3e9a24c3ffe",
    "c11d90e0212c616f8063f5f2e39cfafd7fcaddd73ccbde24d9e1ccb5b18e5acc",
]
STORE_SHA256 = {
    "epoch_0000.rsnap":
        "444fdbcdc160abfdaa73c4aa33ad2c4c8b55a331cc0a1d69d807fdf929fd03a9",
    "epoch_0001.rsnap":
        "6fd689abecad8a4e636c88c361becc928e461335ddaf8c2a28d7121169d2962e",
    "epoch_0002.rsnap":
        "da6ef2baee3d0d1770f05b44b4025b54d8ae7ac96236afe6b942fe18c7140b8f",
    "epoch_0003.rsnap":
        "eeb8e4219bc9c38790122e55fa46ec25270c4d3f8fd5bfc17bc81f9e59cf26de",
    "epoch_0004.rsnap":
        "0a2664f9b6240dc75ad23176c6497d9b3162f8c12e3188cf6a9986e93a19a0df",
}


def _event_digest(events) -> str:
    """sha256 of one epoch's events, in order, with every recorded field."""
    rows = [{"kind": event.kind,
             "zone": None if event.zone is None else str(event.zone),
             "hosts_before": [str(host) for host in event.hosts_before],
             "hosts_after": [str(host) for host in event.hosts_after],
             "touched_hosts": sorted(str(host)
                                     for host in event.touched_hosts),
             "details": {key: value for key, value in event.details.items()
                         if key != "deployment"}}
            for event in events]
    text = json.dumps(rows, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_tiny_serial_churn_keeps_its_events_timeline_and_store(tmp_path):
    world = InternetGenerator(TINY).generate()
    model = ChurnModel(world, RATES, seed=5)
    epochs = []
    advance = model.advance

    def recording_advance(journal):
        events = advance(journal)
        epochs.append(events)
        return events

    model.advance = recording_advance
    store = EpochStore(tmp_path / "store")
    timeline = run_churn_timeline(world, model, epochs=EPOCHS,
                                  passes=PASSES, popular_count=20,
                                  store=store)

    kinds = {event.kind for events in epochs for event in events}
    assert {"zone-ns", "server-remove"} <= kinds
    assert timeline_fingerprint(timeline) == FINGERPRINT
    assert [_event_digest(events) for events in epochs] == EVENT_DIGESTS
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(store.root.iterdir())} == STORE_SHA256
