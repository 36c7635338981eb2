"""repro: a reproduction of "Perils of Transitive Trust in the Domain Name
System" (Ramasubramanian & Sirer, IMC 2005).

The package provides, from the bottom up:

* :mod:`repro.dns` -- an RFC 1034/1035-faithful in-process DNS substrate
  (names, records, zones, authoritative servers, iterative resolution);
* :mod:`repro.netsim` -- the simulated network that carries queries, with
  latency and failure injection;
* :mod:`repro.topology` -- a synthetic Internet generator standing in for the
  paper's July 2004 crawl, plus the simulated Yahoo!/DMOZ web directory;
* :mod:`repro.vulns` -- the BIND vulnerability catalogue and ``version.bind``
  fingerprinting;
* :mod:`repro.core` -- the paper's contribution: delegation graphs, trusted
  computing bases, bottleneck (min-cut) analysis, hijack assessment and
  simulation, nameserver value ranking, and the survey orchestrator.

Quick start::

    from repro import GeneratorConfig, InternetGenerator, Survey

    internet = InternetGenerator(GeneratorConfig(sld_count=400)).generate()
    results = Survey(internet).run()
    print(results.headline())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "GeneratorConfig",
    "InternetGenerator",
    "SyntheticInternet",
    "Survey",
    "SurveyResults",
    "NameRecord",
    "DelegationGraph",
    "DelegationGraphBuilder",
    "AnalysisPass",
    "AvailabilityPass",
    "DNSSECImpactPass",
    "build_passes",
    "TCBReport",
    "compute_tcb_report",
    "BottleneckAnalyzer",
    "BottleneckResult",
    "HijackAnalyzer",
    "HijackSimulator",
    "NameserverValueAnalyzer",
    "VulnerabilityDatabase",
    "default_database",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.topology.generator": (
        "GeneratorConfig", "InternetGenerator", "SyntheticInternet",
    ),
    "repro.core.survey": ("Survey", "SurveyResults", "NameRecord"),
    "repro.core.delegation": ("DelegationGraph", "DelegationGraphBuilder"),
    "repro.core.passes": (
        "AnalysisPass", "AvailabilityPass", "DNSSECImpactPass",
        "build_passes",
    ),
    "repro.core.tcb": ("TCBReport", "compute_tcb_report"),
    "repro.core.mincut": ("BottleneckAnalyzer", "BottleneckResult"),
    "repro.core.hijack": ("HijackAnalyzer", "HijackSimulator"),
    "repro.core.value": ("NameserverValueAnalyzer",),
    "repro.vulns.database": ("VulnerabilityDatabase", "default_database"),
})
