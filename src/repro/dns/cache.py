"""TTL-driven resolver cache.

The cache is a positive/negative cache keyed by (name, type, class).  It is
used by :class:`~repro.dns.resolver.IterativeResolver` to avoid re-walking
delegation chains, mirroring the behaviour studied by Jung et al. that the
paper cites.  Time does not advance by itself: the cache is driven by an
explicit clock value supplied by the caller (the simulated network's clock),
which keeps experiments deterministic.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dns.name import DomainName, NameLike, SubtreeIndex
from repro.dns.rdtypes import RCode, RRClass, RRType
from repro.dns.records import ResourceRecord


@dataclasses.dataclass
class CacheEntry:
    """A cached answer (possibly negative) with its expiry time."""

    records: List[ResourceRecord]
    rcode: RCode
    inserted_at: float
    expires_at: float

    @property
    def is_negative(self) -> bool:
        """True for cached NXDOMAIN / NODATA results."""
        return self.rcode is not RCode.NOERROR or not self.records

    def is_expired(self, now: float) -> bool:
        """True if the entry should no longer be used at time ``now``."""
        return now >= self.expires_at


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters for the cache."""

    hits: int = 0
    misses: int = 0
    expirations: int = 0
    insertions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResolverCache:
    """A (name, type, class) keyed cache with TTL expiry.

    Parameters
    ----------
    max_entries:
        Soft bound on cache size.  When exceeded, expired entries are purged;
        if still over the bound, the oldest entries are evicted.
    negative_ttl:
        TTL applied to cached negative answers (RFC 2308 style).
    """

    def __init__(self, max_entries: int = 100000, negative_ttl: int = 3600):
        self.max_entries = max_entries
        self.negative_ttl = negative_ttl
        self.stats = CacheStats()
        self._entries: Dict[Tuple[DomainName, RRType, RRClass], CacheEntry] = {}
        #: Every key filed under its owner's label suffixes, for
        #: :meth:`purge`.  Built by the first purge and kept current from
        #: then on, so a cache that is never purged pays nothing for it.
        self._owners: Optional[SubtreeIndex] = None

    def __len__(self) -> int:
        return len(self._entries)

    def _key(self, name: NameLike, rtype: RRType,
             rclass: RRClass) -> Tuple[DomainName, RRType, RRClass]:
        return (DomainName(name), rtype, rclass)

    def get(self, name: NameLike, rtype: RRType = RRType.A,
            rclass: RRClass = RRClass.IN,
            now: float = 0.0) -> Optional[CacheEntry]:
        """Return a live cache entry, or ``None`` on a miss."""
        key = self._key(name, rtype, rclass)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.is_expired(now):
            self._drop(key)
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry

    def put(self, name: NameLike, rtype: RRType, records: List[ResourceRecord],
            rcode: RCode = RCode.NOERROR, rclass: RRClass = RRClass.IN,
            now: float = 0.0) -> CacheEntry:
        """Insert an answer into the cache and return the new entry."""
        if records:
            ttl = min(record.ttl for record in records)
        else:
            ttl = self.negative_ttl
        entry = CacheEntry(records=list(records), rcode=rcode,
                           inserted_at=now, expires_at=now + ttl)
        key = self._key(name, rtype, rclass)
        self._entries[key] = entry
        if self._owners is not None:
            self._owners.add(key[0].labels, key)
        self.stats.insertions += 1
        if len(self._entries) > self.max_entries:
            self._evict(now)
        return entry

    def _evict(self, now: float) -> None:
        """Purge expired entries; if still over budget, drop the oldest."""
        expired = [key for key, entry in self._entries.items()
                   if entry.is_expired(now)]
        for key in expired:
            self._drop(key)
            self.stats.expirations += 1
        while len(self._entries) > self.max_entries:
            oldest = min(self._entries, key=lambda k: self._entries[k].inserted_at)
            self._drop(oldest)

    def _drop(self, key: Tuple[DomainName, RRType, RRClass]) -> None:
        del self._entries[key]
        if self._owners is not None:
            self._owners.discard(key[0].labels, key)

    def flush(self) -> None:
        """Drop every entry (stats are preserved)."""
        self._entries.clear()
        self._owners = None

    def purge(self, names: Iterable[NameLike] = (),
              subtrees: Iterable[NameLike] = ()) -> int:
        """Remove entries for the given names / namespace subtrees.

        ``names`` drops exact owner names; ``subtrees`` drops every entry
        whose owner lies at or below one of the given apexes (the shape a
        zone mutation or a newly cut delegation can stale — including
        negative answers for names that now exist).  Returns the number of
        entries removed.
        """
        exact = {DomainName(name) for name in names}
        apexes = [DomainName(apex) for apex in subtrees]
        if not exact and not apexes:
            return 0
        owners = self._owners
        if owners is None:
            owners = self._owners = SubtreeIndex()
            for key in self._entries:
                owners.add(key[0].labels, key)
        stale = set()
        for name in exact:
            stale.update(key for key in owners.at_or_below(name.labels)
                         if key[0] == name)
        for apex in apexes:
            stale.update(owners.at_or_below(apex.labels))
        for key in stale:
            self._drop(key)
        return len(stale)

    def purge_expired(self, now: float) -> int:
        """Remove expired entries; return how many were removed."""
        expired = [key for key, entry in self._entries.items()
                   if entry.is_expired(now)]
        for key in expired:
            self._drop(key)
        self.stats.expirations += len(expired)
        return len(expired)
