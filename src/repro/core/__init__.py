"""Core contribution: delegation graphs, TCBs, bottlenecks, hijacks, value.

This subpackage implements the analyses that constitute the paper's
contribution, on top of the DNS / network / topology substrates:

* :mod:`repro.core.delegation` -- building the delegation graph (the
  transitive closure of nameserver dependencies) of a domain name.
* :mod:`repro.core.tcb` -- the trusted computing base of a name and its
  vulnerability profile (Figures 2-6).
* :mod:`repro.core.mincut` -- bottleneck (min-cut) analysis determining the
  minimum set of servers whose compromise completely hijacks a name
  (Figure 7).
* :mod:`repro.core.hijack` -- hijack feasibility classification, attack-path
  extraction, and an end-to-end hijack simulator.
* :mod:`repro.core.value` -- nameserver value ranking: how many names each
  server controls (Figures 8-9).
* :mod:`repro.core.survey` -- the survey facade tying it all together.
* :mod:`repro.core.engine` -- the staged survey engine (discovery, closure,
  fingerprinting, analysis) with serial and socket backends.
* :mod:`repro.core.report` -- CDFs, summary statistics, and per-figure data
  series.
* :mod:`repro.core.snapshot` -- JSON persistence of survey results.
* :mod:`repro.core.delta` -- dirty-set computation for incremental
  re-surveys over a journalled world change.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ClosureIndex",
    "DelegationGraph",
    "DelegationGraphBuilder",
    "TCBView",
    "EngineConfig",
    "SurveyAggregator",
    "SurveyEngine",
    "WorkerContext",
    "TCBReport",
    "compute_tcb_report",
    "BottleneckAnalyzer",
    "BottleneckResult",
    "HijackAnalyzer",
    "HijackAssessment",
    "HijackSimulator",
    "HijackOutcome",
    "AttackStep",
    "NameserverValueAnalyzer",
    "ServerValue",
    "Survey",
    "SurveyResults",
    "NameRecord",
    "CDFSeries",
    "summary_stats",
    "average_by_group",
    "rank_series",
    "DeltaOutcome",
    "DeltaStats",
    "DirtyIndex",
    "save_results",
    "load_results",
    "Timeline",
    "TimelineSnapshot",
    "load_timeline",
    "run_churn_timeline",
    "save_timeline",
    "AvailabilityAnalyzer",
    "AvailabilityReport",
    "availability_security_tradeoff",
    "DNSSECDeployment",
    "DNSSECImpactAnalyzer",
    "DNSSECImpactReport",
    "deploy_dnssec",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.delegation": (
        "ClosureIndex", "DelegationGraph", "DelegationGraphBuilder",
        "TCBView",
    ),
    "repro.core.tcb": ("TCBReport", "compute_tcb_report"),
    "repro.core.mincut": ("BottleneckAnalyzer", "BottleneckResult"),
    "repro.core.hijack": (
        "HijackAnalyzer", "HijackAssessment", "HijackSimulator",
        "HijackOutcome", "AttackStep",
    ),
    "repro.core.value": ("NameserverValueAnalyzer", "ServerValue"),
    "repro.core.survey": ("Survey", "SurveyResults", "NameRecord"),
    "repro.core.engine": (
        "EngineConfig", "SurveyAggregator", "SurveyEngine", "WorkerContext",
    ),
    "repro.core.report": (
        "CDFSeries", "summary_stats", "average_by_group", "rank_series",
    ),
    "repro.core.delta": ("DeltaOutcome", "DeltaStats", "DirtyIndex"),
    "repro.core.snapshot": ("save_results", "load_results"),
    "repro.core.timeline": (
        "Timeline", "TimelineSnapshot", "load_timeline", "run_churn_timeline",
        "save_timeline",
    ),
    "repro.core.availability": (
        "AvailabilityAnalyzer", "AvailabilityReport",
        "availability_security_tradeoff",
    ),
    "repro.core.dnssec_impact": (
        "DNSSECDeployment", "DNSSECImpactAnalyzer", "DNSSECImpactReport",
        "deploy_dnssec",
    ),
})
