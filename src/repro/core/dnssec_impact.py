"""DNSSEC deployment experiments (the paper's Section 5 discussion).

The paper's closing argument: DNSSEC "can help, but continues to rely on the
same physical delegation chains as DNS during lookups.  While DNSSEC enables
detection of integrity violations, malicious agents could still easily
disrupt name service."  This module turns that qualitative statement into an
experiment:

1. :class:`DNSSECDeployment` signs a configurable fraction of the synthetic
   Internet's zones (TLD registries first, then leaf zones) and publishes DS
   records wherever the parent is also signed — modelling partial,
   island-ridden deployment.
2. :class:`DNSSECImpactAnalyzer` combines chain validation with the hijack
   classification of each surveyed name and reports, per deployment level,
   how many hijackable names become *detectable* (the attacker can no longer
   forge data unnoticed) versus how many remain silently hijackable — and
   notes that even detectable names remain subject to denial of service
   because the delegation chain itself is unchanged.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, Iterable, List, Optional

from repro.dns.dnssec import ChainValidator, ZoneSigner
from repro.dns.name import DomainName, NameLike, ROOT_NAME
from repro.dns.rdtypes import RRType
from repro.core.hijack import HIJACKABLE_CLASSIFICATIONS
from repro.core.survey import SurveyResults


@dataclasses.dataclass
class DNSSECDeployment:
    """Record of which zones were signed in one deployment experiment."""

    signer: ZoneSigner
    signed_zones: List[DomainName]
    ds_published: int
    fraction_requested: float
    sign_tlds: bool = True

    @property
    def signed_count(self) -> int:
        """Number of zones signed."""
        return len(self.signed_zones)


def _deployment_score(seed: str, apex: DomainName) -> float:
    """A stable per-zone adoption score in [0, 1).

    A zone is signed by a ``fraction=f`` deployment iff its score is below
    ``f``.  Scoring each zone independently (instead of shuffling the zone
    list and taking a prefix) makes deployments *monotone under namespace
    growth*: raising the fraction with the same seed always signs a
    superset, even if zones were created or re-delegated in between — the
    property the incremental re-survey's journalled deployment progress
    relies on.
    """
    return random.Random(f"{seed}|deploy|{apex}").random()


def _signs(apex: DomainName, fraction: float, always_sign_tlds: bool,
           seed: str) -> bool:
    """Whether a deployment with these settings signs the zone at ``apex``."""
    return (always_sign_tlds and apex.depth <= 1) or \
        _deployment_score(seed, apex) < fraction


def _publish_ds(zones, signer: ZoneSigner, apex: DomainName) -> bool:
    """Publish ``apex``'s DS in its nearest signed ancestor, if it has one."""
    if apex.is_root:
        return False
    parent_apex = _enclosing_signed_parent(apex, signer)
    parent_zone = None if parent_apex is None else zones.get(parent_apex)
    return parent_zone is not None and \
        signer.publish_ds(parent_zone, apex) is not None


def deploy_dnssec(internet, fraction: float = 1.0,
                  always_sign_tlds: bool = True,
                  rng: Optional[random.Random] = None,
                  seed: str = "repro-dnssec") -> DNSSECDeployment:
    """Sign ``fraction`` of the Internet's zones and publish DS records.

    TLD zones (and the root) are signed first when ``always_sign_tlds`` is
    true, mirroring how real deployment proceeded top-down; each lower zone
    adopts iff its stable per-zone score (seeded by ``seed`` and the apex)
    falls below ``fraction``, so roughly that share of zones signs and a
    larger fraction always signs a superset.  DS records are only
    published where the parent zone is itself signed, so partial deployment
    naturally produces "islands of security".  ``rng`` is accepted for
    backwards compatibility and ignored — sampling is a pure function of
    ``seed`` and the zone apexes.

    Signing is additive and cannot be undone, so deploying is only allowed
    when every zone an *earlier* deployment signed is signed by this one
    too (re-deploying the same fraction/seed is idempotent, and extending
    the fraction models deployment progress); a smaller or
    differently-seeded deployment over an already-signed Internet would
    validate against the old, larger deployment while reporting the new
    fraction, and is rejected instead.

    The deployment is recorded as ``internet.dnssec_deployment``, so zones
    cut later sign by it (see :func:`sign_cut_zone`).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    signer = ZoneSigner(seed=seed)

    zones = dict(internet.zones)
    if always_sign_tlds:
        order = sorted(apex for apex in zones if apex.depth <= 1) + \
            sorted(apex for apex in zones if apex.depth > 1)
    else:
        order = sorted(zones)
    to_sign = [apex for apex in order
               if _signs(apex, fraction, always_sign_tlds, seed)]

    planned = set(to_sign)
    stale = [apex for apex, zone in zones.items()
             if apex not in planned and
             zone.get_rrset(apex, RRType.DNSKEY) is not None]
    if stale:
        raise ValueError(
            f"{len(stale)} zone(s) (e.g. {sorted(stale)[0]}) already carry "
            f"DNSKEYs from a larger or different deployment; signing is "
            f"additive, so this fraction={fraction} deployment would "
            f"misreport the world it validates — use a fresh Internet")

    for apex in to_sign:
        signer.sign_zone(zones[apex])

    ds_published = sum(_publish_ds(zones, signer, apex) for apex in to_sign)
    deployment = DNSSECDeployment(signer=signer, signed_zones=sorted(to_sign),
                                  ds_published=ds_published,
                                  fraction_requested=fraction,
                                  sign_tlds=always_sign_tlds)
    internet.dnssec_deployment = deployment
    return deployment


def sign_cut_zone(internet, apex: DomainName) -> bool:
    """Sign a zone cut after deployment as the deployment would have.

    A deployment decides each zone on its own (see
    :func:`_deployment_score`), so a zone cut after it signs, and gets its
    DS published, exactly when signing the mutated world afresh would
    sign it.  Returns whether the zone was signed; without a deployment
    on ``internet`` nothing is.
    """
    deployment = getattr(internet, "dnssec_deployment", None)
    if deployment is None or not _signs(
            apex, deployment.fraction_requested, deployment.sign_tlds,
            deployment.signer.seed):
        return False
    deployment.signer.sign_zone(internet.zones[apex])
    deployment.signed_zones = sorted({*deployment.signed_zones, apex})
    deployment.ds_published += _publish_ds(internet.zones,
                                           deployment.signer, apex)
    return True


def _enclosing_signed_parent(apex: DomainName,
                             signer: ZoneSigner) -> Optional[DomainName]:
    """The nearest signed ancestor zone that could hold the DS record."""
    for ancestor in apex.ancestors(include_root=True):
        if ancestor == apex:
            continue
        if signer.is_signed(ancestor) or ancestor == ROOT_NAME:
            return ancestor if signer.is_signed(ancestor) else None
    return None


@dataclasses.dataclass
class DNSSECImpactReport:
    """Aggregate outcome of a deployment experiment over surveyed names."""

    deployment_fraction: float
    names_checked: int
    secure: int
    insecure: int
    hijackable: int
    hijackable_detected: int
    hijackable_undetected: int

    @property
    def fraction_secure(self) -> float:
        """Fraction of checked names with a full chain of trust."""
        return self.secure / self.names_checked if self.names_checked else 0.0

    @property
    def fraction_hijackable_undetected(self) -> float:
        """Fraction of checked names still silently hijackable."""
        if not self.names_checked:
            return 0.0
        return self.hijackable_undetected / self.names_checked

    def to_dict(self) -> Dict[str, float]:
        """Flat representation for reports and benches."""
        return {
            "deployment_fraction": self.deployment_fraction,
            "names_checked": float(self.names_checked),
            "fraction_secure": self.fraction_secure,
            "hijackable": float(self.hijackable),
            "hijackable_detected": float(self.hijackable_detected),
            "hijackable_undetected": float(self.hijackable_undetected),
        }


def impact_report_from_results(results: SurveyResults,
                               deployment_fraction: Optional[float] = None
                               ) -> DNSSECImpactReport:
    """Aggregate a :class:`DNSSECImpactReport` from engine-pass columns.

    When the survey ran with the ``dnssec`` analysis pass, every record
    already carries ``dnssec_status`` / ``dnssec_detected`` extras; this
    folds them into the same report :class:`DNSSECImpactAnalyzer` produces,
    without re-validating a single chain.  ``deployment_fraction`` defaults
    to the fraction recorded in the survey metadata (if any).
    """
    if deployment_fraction is None:
        deployment_fraction = float(
            results.metadata.get("dnssec_fraction", 1.0))
    records = [record for record in results.resolved_records()
               if "dnssec_status" in record.extras]
    secure = insecure = 0
    hijackable = detected = undetected = 0
    for record in records:
        is_secure = record.extras["dnssec_status"] == "secure"
        if is_secure:
            secure += 1
        else:
            insecure += 1
        if record.classification in HIJACKABLE_CLASSIFICATIONS:
            hijackable += 1
            if is_secure:
                detected += 1
            else:
                undetected += 1
    return DNSSECImpactReport(
        deployment_fraction=deployment_fraction,
        names_checked=len(records), secure=secure, insecure=insecure,
        hijackable=hijackable, hijackable_detected=detected,
        hijackable_undetected=undetected)


class DNSSECImpactAnalyzer:
    """Measures what a DNSSEC deployment buys against the survey's findings."""

    def __init__(self, internet, deployment: DNSSECDeployment):
        self.internet = internet
        self.deployment = deployment
        self._validator = ChainValidator(internet.make_resolver(),
                                         seed=deployment.signer.seed)

    def validate_name(self, name: NameLike):
        """Chain-of-trust validation for a single name."""
        return self._validator.validate(name)

    def analyze(self, results: SurveyResults,
                names: Optional[Iterable[NameLike]] = None,
                max_names: Optional[int] = None) -> DNSSECImpactReport:
        """Combine chain validation with the survey's hijack classification.

        A name counts as *hijackable* if the survey classified it as
        completely hijackable or DoS-assisted; it counts as *detected* if
        its chain of trust is secure (a forged answer would fail
        validation), and *undetected* otherwise.
        """
        records = results.resolved_records()
        if names is not None:
            wanted = {DomainName(name) for name in names}
            records = [record for record in records if record.name in wanted]
        if max_names is not None:
            records = records[:max_names]

        secure = insecure = 0
        hijackable = detected = undetected = 0
        for record in records:
            validation = self.validate_name(record.name)
            if validation.is_secure:
                secure += 1
            else:
                insecure += 1
            is_hijackable = record.classification in \
                HIJACKABLE_CLASSIFICATIONS
            if is_hijackable:
                hijackable += 1
                if validation.is_secure:
                    detected += 1
                else:
                    undetected += 1
        return DNSSECImpactReport(
            deployment_fraction=self.deployment.fraction_requested,
            names_checked=len(records), secure=secure, insecure=insecure,
            hijackable=hijackable, hijackable_detected=detected,
            hijackable_undetected=undetected)
