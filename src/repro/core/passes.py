"""Pluggable per-name analysis passes for the survey engine.

PR 1 turned the survey into a staged engine whose stage 4 (analysis) was a
fixed trio: TCB report, bottleneck min-cut, hijack classification.  This
module opens that stage up: an :class:`AnalysisPass` plugs into the engine,
receives the same shared state the built-in analyses enjoy — the zero-copy
:class:`~repro.core.delegation.TCBView`, the name's chain key, the live
vulnerability maps, and the built-in analysis columns — and contributes
extra columns to every :class:`~repro.core.survey.NameRecord` (and therefore
to snapshots, reports, and diffs).

Lifecycle
---------

1. **prepare(internet)** — once per engine, before its worker context, so
   world mutations such as a DNSSEC deployment are visible to every backend
   identically (a socket worker's engine prepares its own copy of the
   world).
2. **make_state(worker)** — once per worker context (every engine has
   one, so a socket survey has one per worker).  This is where per-worker
   mutable state lives: validators wired to the worker's resolver,
   analyzers whose cross-name caches key on the builder's closure-index
   version so universe growth retires them.
3. **analyze(ctx, state)** — per name.  A pass with ``chain_cacheable=True``
   (the default) promises its output is a pure function of the name's
   direct-zone chain given a fixed universe; the engine then runs it once
   per distinct chain and replays the columns for every name sharing that
   chain — the same memoization the built-in analyses get.  Randomised
   passes must derive their seed from :func:`chain_seed`, never from the
   name, or shard-local caches would break cross-backend byte-identity.

Two built-in passes reproduce Section 5 of the paper at engine scale:
:class:`AvailabilityPass` (the availability half of the security/availability
trade-off) and :class:`DNSSECImpactPass` (does DNSSEC make a hijack
detectable?).  :func:`build_passes` resolves CLI-style spec strings such as
``"availability:up=0.95;samples=100,dnssec:fraction=0.5"``.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, Iterable, Mapping, Tuple, Union

from repro.core.availability import AvailabilityAnalyzer
from repro.core.delegation import NodeKey, TCBView
from repro.core.hijack import HIJACKABLE_CLASSIFICATIONS
from repro.dns.dnssec import ChainValidator


def chain_seed(chain_key: Tuple[NodeKey, ...]) -> str:
    """A deterministic RNG seed derived from a name's direct-zone chain.

    Chain-cacheable passes that draw random numbers must seed from the
    chain, not the name: shards cache per chain independently, so a
    name-derived seed would make the cached value depend on which name a
    shard happened to analyse first.
    """
    return "|".join(str(zone) for _kind, zone in chain_key)


@dataclasses.dataclass
class PassContext:
    """Everything a pass may read while analysing one name.

    ``builtin`` holds the built-in stage-4 columns (``classification``,
    ``tcb_size``, ``mincut_size``, ...) — passes run after them.  ``worker``
    is the engine's :class:`~repro.core.engine.WorkerContext`
    (resolver, builder, vulnerability maps, ``internet``).
    """

    view: TCBView
    chain_key: Tuple[NodeKey, ...]
    builtin: Mapping[str, object]
    worker: object


class AnalysisPass:
    """Base class for engine analysis passes.

    Subclasses set :attr:`name` (unique per engine), implement
    :attr:`columns` and :meth:`analyze`, and may override :meth:`prepare`
    and :meth:`make_state`.  Pass instances themselves must stay immutable
    during a survey — all mutable state belongs in the object returned by
    :meth:`make_state`, which the engine keys per worker context.
    """

    #: Unique pass name (also the CLI spec name).
    name: str = "abstract"
    #: Whether output is a pure function of the chain key (see module doc).
    chain_cacheable: bool = True

    @property
    def columns(self) -> Tuple[str, ...]:
        """The record columns this pass contributes."""
        raise NotImplementedError

    def prepare(self, internet) -> None:
        """One-time world setup, before worker contexts exist."""

    def metadata(self) -> Dict[str, object]:
        """Keys this pass contributes to the survey metadata."""
        return {}

    def spec(self) -> str:
        """This pass as a CLI spec string rebuilding an equal instance.

        The distributed coordinator configures remote workers by shipping
        spec strings through :func:`build_passes`; a pass without a
        faithful spec encoding cannot ride the socket backend.
        """
        raise NotImplementedError(
            f"pass {self.name!r} does not define a spec() encoding")

    def make_state(self, worker) -> object:
        """Create this pass's per-worker mutable state."""
        return None

    def analyze(self, ctx: PassContext, state: object) -> Dict[str, object]:
        """Compute this pass's columns for one name."""
        raise NotImplementedError

    def finalize(self, aggregator) -> Dict[str, object]:
        """Cross-record reduce, run once after every record is aggregated.

        Receives the engine's :class:`~repro.core.engine.SurveyAggregator`
        (per-server TCB membership counts, vulnerability maps, resolved
        totals — all backend-independent after the deterministic shard
        merge) and returns keys folded into the survey metadata.  This is
        the hook for analyses that are reductions over the whole survey
        rather than per-name columns — e.g. the nameserver value ranking,
        which used to re-walk materialised graphs post-hoc.
        """
        return {}

    @classmethod
    def from_options(cls, options: Dict[str, str]) -> "AnalysisPass":
        """Build an instance from CLI spec options (``key=value`` strings)."""
        if options:
            raise ValueError(f"pass {cls.name!r} takes no options, "
                             f"got {sorted(options)}")
        return cls()


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


class AvailabilityPass(AnalysisPass):
    """Analytic availability, SPOF count, and optional Monte-Carlo estimate.

    Runs :class:`~repro.core.availability.AvailabilityAnalyzer` directly on
    the engine's :class:`~repro.core.delegation.TCBView` — no graph copies.
    One analyzer per worker carries its state across names, keyed on the
    closure-index version: the analytic recursion's prefix snapshots, so
    the TLD subtree each chain starts with is walked once per version, and
    the single-point-of-failure fixpoint's per-node memo, so each node is
    evaluated once per version.

    Columns: ``availability`` (analytic probability), ``availability_spof``
    (number of single points of failure), and ``availability_mc`` when
    ``samples`` > 0.
    """

    name = "availability"

    def __init__(self, up: float = 0.99, samples: int = 0,
                 spof: bool = True):
        if not 0.0 <= up <= 1.0:
            raise ValueError("up must be within [0, 1]")
        if samples < 0:
            raise ValueError("samples must be >= 0")
        self.up = up
        self.samples = samples
        self.spof = spof

    @property
    def columns(self) -> Tuple[str, ...]:
        columns = ["availability"]
        if self.spof:
            columns.append("availability_spof")
        if self.samples:
            columns.append("availability_mc")
        return tuple(columns)

    def make_state(self, worker) -> AvailabilityAnalyzer:
        return AvailabilityAnalyzer(self.up)

    def analyze(self, ctx: PassContext, state: AvailabilityAnalyzer
                ) -> Dict[str, object]:
        view = ctx.view
        values: Dict[str, object] = {
            "availability": state.resolution_probability(view)}
        if self.spof:
            values["availability_spof"] = \
                len(state.single_points_of_failure(view))
        if self.samples:
            rng = random.Random(f"availability-mc|{chain_seed(ctx.chain_key)}")
            values["availability_mc"] = state.monte_carlo(
                view, samples=self.samples, rng=rng)
        return values

    def spec(self) -> str:
        return (f"availability:up={self.up!r};samples={self.samples}"
                f";spof={'true' if self.spof else 'false'}")

    @classmethod
    def from_options(cls, options: Dict[str, str]) -> "AvailabilityPass":
        known = {"up": float, "samples": int, "spof": _parse_bool}
        kwargs = {}
        for key, text in options.items():
            if key not in known:
                raise ValueError(f"unknown availability option {key!r} "
                                 f"(expected one of {sorted(known)})")
            kwargs[key] = known[key](text)
        return cls(**kwargs)


class DNSSECImpactPass(AnalysisPass):
    """Chain-of-trust validation folded into every survey record.

    :meth:`prepare` signs the configured fraction of the world's zones (via
    :func:`repro.core.dnssec_impact.deploy_dnssec` — idempotent, so several
    engines sharing one internet agree); :meth:`analyze` validates each
    name's chain and reports whether a hijack of it would be *detectable*.

    Columns: ``dnssec_status`` (``secure`` / ``insecure`` / ``bogus``) and
    ``dnssec_detected`` (the survey classified the name as hijackable *and*
    its chain of trust validates, so a forged answer cannot pass unnoticed).
    """

    name = "dnssec"

    def __init__(self, fraction: float = 1.0, sign_tlds: bool = True,
                 seed: str = "repro-dnssec"):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        self.fraction = fraction
        self.sign_tlds = sign_tlds
        self.seed = seed
        self.deployment = None

    @property
    def columns(self) -> Tuple[str, ...]:
        return ("dnssec_status", "dnssec_detected")

    def prepare(self, internet) -> None:
        # Imported here: dnssec_impact aggregates over survey results, and
        # the survey facade reaches back into the engine package.
        from repro.core.dnssec_impact import deploy_dnssec
        # Unconditional: deployment is idempotent on one internet (signing
        # re-checks existing records), and a pass instance reused with a
        # *different* internet must sign that world too.
        self.deployment = deploy_dnssec(
            internet, fraction=self.fraction,
            always_sign_tlds=self.sign_tlds, seed=self.seed)

    def metadata(self) -> Dict[str, object]:
        return {"dnssec_fraction": self.fraction}

    def adopt_deployment(self, deployment) -> None:
        """Track a deployment applied through a change journal.

        Deployment is additive world state, not pass configuration: when a
        journal extends it between surveys (see
        :meth:`repro.topology.changes.ChangeJournal.deploy_dnssec`), the
        pass adopts the extended deployment so its metadata — and therefore
        a delta run's snapshot — matches a cold engine configured with the
        extended fraction from the start.
        """
        self.deployment = deployment
        self.fraction = deployment.fraction_requested

    def make_state(self, worker) -> ChainValidator:
        # Zone verdicts are per-worker memoized: the world is signed once in
        # prepare() and never mutated during the survey, so names sharing a
        # TLD/SLD revalidate only their leaf answer.  The validator rides
        # the worker's own resolver: every name it validates was just
        # discovered through it, so the zone-cut walk is a pure cache hit.
        return ChainValidator(worker.resolver, seed=self.seed,
                              cache_zones=True)

    def analyze(self, ctx: PassContext, state: ChainValidator
                ) -> Dict[str, object]:
        validation = state.validate(ctx.view.target)
        hijackable = ctx.builtin.get("classification") in \
            HIJACKABLE_CLASSIFICATIONS
        return {
            "dnssec_status": validation.status,
            "dnssec_detected": bool(hijackable and validation.is_secure),
        }

    def spec(self) -> str:
        if ";" in self.seed or self.seed != self.seed.strip():
            raise ValueError(
                f"dnssec seed {self.seed!r} cannot be spec-encoded")
        return (f"dnssec:fraction={self.fraction!r}"
                f";sign_tlds={'true' if self.sign_tlds else 'false'}"
                f";seed={self.seed}")

    @classmethod
    def from_options(cls, options: Dict[str, str]) -> "DNSSECImpactPass":
        known = {"fraction": float, "sign_tlds": _parse_bool, "seed": str}
        kwargs = {}
        for key, text in options.items():
            if key not in known:
                raise ValueError(f"unknown dnssec option {key!r} "
                                 f"(expected one of {sorted(known)})")
            kwargs[key] = known[key](text)
        return cls(**kwargs)


class ValueRankingPass(AnalysisPass):
    """Nameserver value ranking (Figures 8-9) as an engine-scale reduce.

    The post-hoc path (:meth:`repro.core.survey.SurveyResults.value_analyzer`)
    re-walks every record's TCB after the survey.  As a pass, the per-server
    counts already accumulated by the :class:`~repro.core.engine.SurveyAggregator`
    during streaming aggregation are reduced once in :meth:`finalize` — no
    second walk, no per-name work (``analyze`` contributes no columns), and
    the result is identical on every backend because the aggregator's state
    is merged deterministically.

    Metadata keys: ``value_summary`` (the headline Figure 8/9 statistics)
    and ``value_top_servers`` (the ``top`` highest-leverage servers with
    their name counts and vulnerability flags).
    """

    name = "value"
    columns: Tuple[str, ...] = ()

    def __init__(self, top: int = 10,
                 high_leverage_fraction: float = 0.10):
        if top < 0:
            raise ValueError("top must be >= 0")
        if not 0.0 <= high_leverage_fraction <= 1.0:
            raise ValueError("high_leverage_fraction must be within [0, 1]")
        self.top = top
        self.high_leverage_fraction = high_leverage_fraction

    def analyze(self, ctx: PassContext, state: object) -> Dict[str, object]:
        return {}

    def finalize(self, aggregator) -> Dict[str, object]:
        from repro.core.value import NameserverValueAnalyzer
        analyzer = NameserverValueAnalyzer.over_counts(
            aggregator.server_counts(), aggregator.resolved_count,
            aggregator.vulnerability_flags())
        summary = {key: round(value, 6) for key, value in
                   analyzer.summary(self.high_leverage_fraction).items()}
        top_servers = [value.to_dict()
                       for value in analyzer.top_servers(self.top)]
        return {"value_summary": summary, "value_top_servers": top_servers}

    def spec(self) -> str:
        return (f"value:top={self.top}"
                f";high_leverage_fraction={self.high_leverage_fraction!r}")

    @classmethod
    def from_options(cls, options: Dict[str, str]) -> "ValueRankingPass":
        known = {"top": int, "high_leverage_fraction": float}
        kwargs = {}
        for key, text in options.items():
            if key not in known:
                raise ValueError(f"unknown value option {key!r} "
                                 f"(expected one of {sorted(known)})")
            kwargs[key] = known[key](text)
        return cls(**kwargs)


#: Registry of spec-name -> pass class used by :func:`build_passes`.
PASS_REGISTRY: Dict[str, type] = {
    AvailabilityPass.name: AvailabilityPass,
    DNSSECImpactPass.name: DNSSECImpactPass,
    ValueRankingPass.name: ValueRankingPass,
}

PassSpec = Union[str, AnalysisPass]


def build_pass(spec: PassSpec) -> AnalysisPass:
    """Resolve one pass spec: an instance, or ``name[:key=val[;key=val]]``."""
    if isinstance(spec, AnalysisPass):
        return spec
    text = spec.strip()
    name, _, option_text = text.partition(":")
    name = name.strip()
    cls = PASS_REGISTRY.get(name)
    if cls is None:
        raise ValueError(f"unknown analysis pass: {name!r} "
                         f"(expected one of {sorted(PASS_REGISTRY)})")
    options: Dict[str, str] = {}
    if option_text:
        for item in option_text.split(";"):
            item = item.strip()
            if not item:
                continue
            key, separator, value = item.partition("=")
            if not separator:
                raise ValueError(f"malformed option {item!r} in pass spec "
                                 f"{text!r} (expected key=value)")
            options[key.strip()] = value.strip()
    return cls.from_options(options)


def build_passes(specs: Union[str, Iterable[PassSpec], None]
                 ) -> Tuple[AnalysisPass, ...]:
    """Resolve a pass configuration into validated pass instances.

    Accepts ``None`` (no passes), a comma-separated spec string (the CLI
    form), or an iterable of spec strings / instances.  Checks name and
    column uniqueness across the resolved passes.
    """
    if specs is None:
        return ()
    if isinstance(specs, str):
        specs = [item for item in specs.split(",") if item.strip()]
    passes = tuple(build_pass(spec) for spec in specs)
    seen_names = set()
    seen_columns: Dict[str, str] = {}
    for pass_ in passes:
        if pass_.name in seen_names:
            raise ValueError(f"duplicate analysis pass: {pass_.name!r}")
        seen_names.add(pass_.name)
        for column in pass_.columns:
            owner = seen_columns.get(column)
            if owner is not None:
                raise ValueError(f"column {column!r} contributed by both "
                                 f"{owner!r} and {pass_.name!r}")
            seen_columns[column] = pass_.name
    return passes
