"""DNS substrate: names, records, zones, authoritative servers, and resolvers.

This subpackage implements an in-process model of the Domain Name System that
is faithful to the delegation-based architecture described in RFC 1034/1035
and in Section 2 of the paper.  It provides:

* :class:`~repro.dns.name.DomainName` -- immutable, canonicalised domain names
  with the hierarchy operations (parent, ancestors, subdomain-of) used
  throughout the analysis.
* :class:`~repro.dns.records.ResourceRecord` and
  :class:`~repro.dns.records.RRSet` -- typed resource records.
* :class:`~repro.dns.zone.Zone` -- an authoritative zone holding records and
  child delegations (with optional glue).
* :class:`~repro.dns.server.AuthoritativeServer` -- a nameserver instance that
  serves one or more zones, advertises a BIND version banner, and can be
  failed or compromised for what-if analysis.
* :class:`~repro.dns.resolver.IterativeResolver` -- a resolver that walks
  delegation chains from the root exactly the way a real iterative resolver
  does, recording every server contacted, plus a *dependency walk* mode that
  enumerates the full transitive closure of servers that *could* be contacted
  (the paper's delegation graph).
"""

from repro._lazy import lazy_exports

__all__ = [
    "DNSError",
    "NameError_",
    "NoSuchDomainError",
    "ResolutionError",
    "ServerFailureError",
    "ZoneError",
    "DomainName",
    "ROOT_NAME",
    "RRType",
    "RRClass",
    "RCode",
    "OpCode",
    "ResourceRecord",
    "RRSet",
    "Question",
    "Message",
    "make_query",
    "make_response",
    "Zone",
    "Delegation",
    "AuthoritativeServer",
    "ServerStatus",
    "ResolverCache",
    "CacheEntry",
    "IterativeResolver",
    "ResolutionTrace",
    "ResolutionStep",
    "ChainValidator",
    "ValidationResult",
    "ZoneSigner",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.dns.errors": (
        "DNSError", "NameError_", "NoSuchDomainError", "ResolutionError",
        "ServerFailureError", "ZoneError",
    ),
    "repro.dns.name": ("DomainName", "ROOT_NAME"),
    "repro.dns.rdtypes": ("RRType", "RRClass", "RCode", "OpCode"),
    "repro.dns.records": ("ResourceRecord", "RRSet"),
    "repro.dns.message": (
        "Question", "Message", "make_query", "make_response",
    ),
    "repro.dns.zone": ("Zone", "Delegation"),
    "repro.dns.server": ("AuthoritativeServer", "ServerStatus"),
    "repro.dns.cache": ("ResolverCache", "CacheEntry"),
    "repro.dns.resolver": (
        "IterativeResolver", "ResolutionTrace", "ResolutionStep",
    ),
    "repro.dns.dnssec": ("ChainValidator", "ValidationResult", "ZoneSigner"),
})
