"""Synthetic Internet topology: the substitute for the paper's 2004 crawl.

The paper surveyed the live DNS of July 2004.  That snapshot cannot be
re-collected, so this subpackage generates a synthetic Internet with the same
*structural* properties the paper's analysis depends on:

* a delegation hierarchy rooted at 13 root servers, with gTLD and ccTLD
  registries, second-level domains, and deeper zones;
* hosting providers, ISPs, universities, enterprises, governments and small
  organisations operating nameservers, with universities forming
  mutual-secondary webs that create long transitive dependency chains;
* ccTLD registries (especially the ones the paper singles out: ua, by, sm,
  mt, my, pl, it, ...) that delegate to far-flung off-site servers;
* a BIND-version assignment per operator class calibrated so that roughly
  17 % of servers carry a well-known vulnerability, skewed towards
  educational and small-registry operators;
* a simulated web-directory crawl (Yahoo!/DMOZ stand-in) that yields the list
  of externally-visible web-server names the survey resolves, plus an
  "Alexa top-500" cohort biased towards large multi-provider enterprises.

Everything is driven by a single seeded RNG so that surveys are reproducible.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ZipfSampler",
    "bounded_pareto",
    "weighted_choice",
    "GTLD_PROFILES",
    "CCTLD_PROFILES",
    "TLDProfile",
    "gtld_labels",
    "cctld_labels",
    "Organization",
    "OperatorKind",
    "BindVersionPolicy",
    "VERSION_POOLS",
    "GeneratorConfig",
    "InternetGenerator",
    "SyntheticInternet",
    "WebDirectory",
    "DirectoryEntry",
    "AnecdotePlanter",
    "ChangeEvent",
    "ChangeJournal",
    "ChangeSet",
    "apply_mutation_spec",
    "zone_nameserver_union",
    "ChurnModel",
    "ChurnRates",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.topology.distributions": (
        "ZipfSampler", "bounded_pareto", "weighted_choice",
    ),
    "repro.topology.tlds": (
        "GTLD_PROFILES", "CCTLD_PROFILES", "TLDProfile", "gtld_labels",
        "cctld_labels",
    ),
    "repro.topology.operators": ("Organization", "OperatorKind"),
    "repro.topology.bindpolicy": ("BindVersionPolicy", "VERSION_POOLS"),
    "repro.topology.generator": (
        "GeneratorConfig", "InternetGenerator", "SyntheticInternet",
    ),
    "repro.topology.webdirectory": ("WebDirectory", "DirectoryEntry"),
    "repro.topology.anecdotes": ("AnecdotePlanter",),
    "repro.topology.changes": (
        "ChangeEvent", "ChangeJournal", "ChangeSet", "apply_mutation_spec",
        "zone_nameserver_union",
    ),
    "repro.topology.churn": ("ChurnModel", "ChurnRates"),
})
