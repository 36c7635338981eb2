"""A simplified DNSSEC model (Section 5 of the paper).

The paper's discussion section argues that deploying DNSSEC helps — it lets
resolvers *detect* forged data — but does not remove the risks of transitive
trust, because lookups still follow the same physical delegation chains: a
compromised or unavailable dependency can still deny service, and any
unsigned link breaks the chain of trust for everything below it.

This module implements enough of DNSSEC to study that claim quantitatively
on the substrate:

* :class:`ZoneSigner` signs a zone: it installs a ``DNSKEY`` at the apex and
  an ``RRSIG`` next to every RRSet, and publishes a ``DS`` record in the
  parent zone when the parent is also signed.  Signatures are modelled as a
  keyed digest over the RRSet contents — enough to detect any record an
  attacker forges without the zone key, which is the property the analysis
  needs (real RSA/ECDSA maths would add nothing to the graph-level study).
* :class:`ChainValidator` plays the role of a validating resolver: it walks
  a name's delegation chain, checks that every zone on it is signed and has
  a matching ``DS`` in its parent, and verifies the answer's ``RRSIG``.
  The outcome mirrors RFC 4033 terminology: ``secure``, ``insecure``
  (an unsigned link — the island problem), or ``bogus`` (signature check
  failed, e.g. a hijacked answer).
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Iterable, List, Optional, Set

from repro.dns.errors import ServerFailureError
from repro.dns.message import make_query
from repro.dns.name import DomainName, NameLike, ROOT_NAME
from repro.dns.rdtypes import RRType
from repro.dns.records import ResourceRecord, RRSet
from repro.dns.zone import Zone


def _digest(*parts: str) -> str:
    """Short stable digest used for simulated keys, signatures, and DS."""
    joined = "|".join(parts)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:24]


def zone_key(apex: NameLike, seed: str = "repro-dnssec") -> str:
    """Deterministic per-zone key identifier (the simulated private key)."""
    return _digest("key", str(DomainName(apex)), seed)


def rrset_signature(zone_apex: NameLike, rrset: RRSet, key: str) -> str:
    """The simulated RRSIG value covering an RRSet."""
    rdata_parts = sorted(str(record.rdata) for record in rrset)
    return _digest("sig", str(DomainName(zone_apex)), str(rrset.name),
                   rrset.rtype.name, *rdata_parts, key)


#: Sentinel distinguishing "zone never checked" from a cached None verdict.
_UNCHECKED = object()


@dataclasses.dataclass
class ValidationResult:
    """Outcome of validating one name."""

    name: DomainName
    status: str                      # "secure", "insecure", or "bogus"
    broken_zone: Optional[DomainName] = None
    detail: str = ""

    @property
    def is_secure(self) -> bool:
        """True if the full chain of trust validated."""
        return self.status == "secure"

    @property
    def forgery_detected(self) -> bool:
        """True if validation failed because data did not verify (bogus)."""
        return self.status == "bogus"


class ZoneSigner:
    """Signs zones and publishes DS records in their parents."""

    def __init__(self, seed: str = "repro-dnssec"):
        self.seed = seed
        self._signed: Set[DomainName] = set()

    @property
    def signed_zones(self) -> Set[DomainName]:
        """Apexes of every zone signed by this signer."""
        return set(self._signed)

    def is_signed(self, apex: NameLike) -> bool:
        """True if the zone rooted at ``apex`` has been signed."""
        return DomainName(apex) in self._signed

    def sign_zone(self, zone: Zone) -> str:
        """Sign every RRSet in ``zone``; returns the zone's key identifier.

        Signing is idempotent: re-signing a zone refreshes signatures for
        any RRSets added since the previous pass.
        """
        key = zone_key(zone.apex, self.seed)
        if zone.get_rrset(zone.apex, RRType.DNSKEY) is None:
            zone.add(zone.apex, RRType.DNSKEY, key)
        for rrset in list(zone.iter_rrsets()):
            if rrset.rtype in (RRType.RRSIG, RRType.DNSKEY):
                continue
            signature = rrset_signature(zone.apex, rrset, key)
            existing = zone.get_rrset(rrset.name, RRType.RRSIG)
            already = existing is not None and any(
                str(record.rdata) == f"{rrset.rtype.name} {signature}"
                for record in existing)
            if not already:
                zone.add(rrset.name, RRType.RRSIG,
                         f"{rrset.rtype.name} {signature}")
        self._signed.add(zone.apex)
        return key

    def publish_ds(self, parent_zone: Zone, child_apex: NameLike) -> Optional[str]:
        """Publish the child's DS record in the (signed) parent zone.

        Returns the DS value, or ``None`` if the parent has not been signed
        (an unsigned parent cannot anchor a secure delegation).
        """
        child_apex = DomainName(child_apex)
        if parent_zone.apex not in self._signed:
            return None
        ds_value = _digest("ds", str(child_apex),
                           zone_key(child_apex, self.seed))
        existing = parent_zone.get_rrset(child_apex, RRType.DS)
        if existing is None or all(str(r.rdata) != ds_value for r in existing):
            parent_zone.add(child_apex, RRType.DS, ds_value)
            # The new DS (and any other parent data) needs a fresh signature.
            self.sign_zone(parent_zone)
        return ds_value


class ChainValidator:
    """A validating stub resolver for the simulated DNS.

    Parameters
    ----------
    resolver:
        An :class:`~repro.dns.resolver.IterativeResolver`; used to enumerate
        the delegation chain and to fetch DNSKEY/DS/RRSIG/answer RRSets.
    trust_anchor:
        The apex the validator trusts a priori (the root by default).
    cache_zones:
        Memoize the per-zone half of validation (DNSKEY + DS checks).  A
        zone's verdict depends only on the zone and its fixed ancestry, so
        names sharing a TLD or SLD revalidate nothing above their leaf —
        the survey engine's DNSSEC pass enables this.  Only valid while the
        world's signatures are unchanged; leave off for worlds mutated
        between validations.
    """

    def __init__(self, resolver, trust_anchor: NameLike = ROOT_NAME,
                 seed: str = "repro-dnssec", cache_zones: bool = False):
        self.resolver = resolver
        self.trust_anchor = DomainName(trust_anchor)
        self.seed = seed
        self._zone_cache: Optional[Dict[DomainName, Optional[tuple]]] = \
            {} if cache_zones else None

    # -- record fetching helpers --------------------------------------------------------

    def _query_zone(self, zone: DomainName, nameservers: List[DomainName],
                    qname: NameLike, rtype: RRType) -> List[str]:
        """Ask the zone's servers for a record set; returns rdata strings."""
        for nameserver in nameservers:
            try:
                response = self.resolver.network.send_query(
                    nameserver, make_query(qname, rtype))
            except ServerFailureError:
                continue
            values = [str(record.rdata) for record in response.answers
                      if record.rtype is rtype]
            if values:
                return values
        return []

    # -- validation ------------------------------------------------------------------------

    def _check_zone(self, cut, cuts) -> Optional[tuple]:
        """Validate one delegation link: the zone's DNSKEY and parent DS.

        Returns ``None`` when the link is sound, else a ``(status,
        broken_zone, detail)`` triple.  The verdict depends only on the zone
        and its (fixed) ancestry, never on which surveyed name led here —
        which is what makes the ``cache_zones`` memo sound.
        """
        keys = self._query_zone(cut.zone, cut.nameservers, cut.zone,
                                RRType.DNSKEY)
        if not keys:
            return ("insecure", cut.zone, f"zone {cut.zone} is not signed")
        expected_key = zone_key(cut.zone, self.seed)
        if expected_key not in keys:
            return ("bogus", cut.zone,
                    f"zone {cut.zone} serves an unexpected key")
        parent = cut.zone.parent()
        if parent != self.trust_anchor or not parent.is_root:
            parent_cut = next((c for c in cuts if c.zone == parent), None)
            if parent_cut is not None:
                ds_values = self._query_zone(parent, parent_cut.nameservers,
                                             cut.zone, RRType.DS)
                expected_ds = _digest("ds", str(cut.zone), expected_key)
                if not ds_values:
                    return ("insecure", cut.zone,
                            f"no DS for {cut.zone} in {parent}")
                if expected_ds not in ds_values:
                    return ("bogus", cut.zone,
                            f"DS mismatch for {cut.zone}")
        return None

    def validate(self, name: NameLike,
                 expected_addresses: Optional[Iterable[str]] = None
                 ) -> ValidationResult:
        """Validate the chain of trust for ``name`` and its A records.

        ``expected_addresses`` may carry the addresses returned by an
        (unvalidated) resolution; when provided, they are checked against
        the signed data so a hijacked answer shows up as ``bogus`` even if
        the authoritative zone itself still holds the correct records.
        """
        name = DomainName(name)
        cuts = self.resolver.zone_cut_chain(name)
        if not cuts:
            return ValidationResult(name=name, status="insecure",
                                    detail="no delegation chain found")

        cache = self._zone_cache
        for cut in cuts:
            if cache is not None:
                verdict = cache.get(cut.zone, _UNCHECKED)
                if verdict is _UNCHECKED:
                    verdict = self._check_zone(cut, cuts)
                    cache[cut.zone] = verdict
            else:
                verdict = self._check_zone(cut, cuts)
            if verdict is not None:
                status, broken_zone, detail = verdict
                return ValidationResult(name=name, status=status,
                                        broken_zone=broken_zone,
                                        detail=detail)

        # Verify the answer itself against the deepest zone's signature.
        leaf = cuts[-1]
        key = zone_key(leaf.zone, self.seed)
        answers = self._query_zone(leaf.zone, leaf.nameservers, name, RRType.A)
        signatures = self._query_zone(leaf.zone, leaf.nameservers, name,
                                      RRType.RRSIG)
        if answers:
            rrset = RRSet(name, RRType.A, records=[
                ResourceRecord.create(name, RRType.A, value)
                for value in answers])
            expected_signature = f"A {rrset_signature(leaf.zone, rrset, key)}"
            if expected_signature not in signatures:
                return ValidationResult(
                    name=name, status="bogus", broken_zone=leaf.zone,
                    detail="answer RRSIG missing or invalid")
            if expected_addresses is not None and \
                    set(expected_addresses) - set(answers):
                return ValidationResult(
                    name=name, status="bogus", broken_zone=leaf.zone,
                    detail="resolved addresses differ from signed data")
        return ValidationResult(name=name, status="secure")
