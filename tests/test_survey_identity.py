"""Fixed figures of one tiny serial survey.

Discovery may get cheaper, but it must not get different: every simulated
query is still sent through the network and answered by a server, and the
survey's results stay byte-identical.  A change that drops, adds or
re-routes a query, or moves a single result byte, breaks these figures.
"""

import hashlib

from repro.core.engine import EngineConfig, SurveyEngine
from repro.core.snapshot import save_results
from repro.topology.generator import GeneratorConfig, InternetGenerator

TINY = GeneratorConfig(seed=42, sld_count=60, directory_name_count=90,
                       university_count=12)
#: The dnssec pass is in so the chain validator's queries are counted too.
PASSES = ("availability", "dnssec", "value")
SNAPSHOT_SHA256 = \
    "7523519190be8e7879257ab25a4fbe27dc2d54fb1a44065ee16763f3963eee9a"
QUERIES = 4046


def test_tiny_serial_survey_keeps_its_snapshot_and_query_counts(tmp_path):
    world = InternetGenerator(TINY).generate()
    config = EngineConfig(popular_count=20, passes=PASSES)
    with SurveyEngine(world, config=config) as engine:
        results = engine.run()
    path = save_results(results, tmp_path / "tiny.rsnap", format="binary")

    assert hashlib.sha256(path.read_bytes()).hexdigest() == SNAPSHOT_SHA256
    stats = world.network.stats
    assert stats.queries_delivered == QUERIES
    assert stats.queries_failed == 0
    assert sum(server.stats.queries
               for server in world.network.iter_servers()) == QUERIES
