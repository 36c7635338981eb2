"""Resource records and RRSets.

A :class:`ResourceRecord` is the atom of DNS data: owner name, type, class,
TTL, and rdata.  An :class:`RRSet` groups all records sharing the same owner
name, type, and class — the unit in which DNS answers are returned and
cached.

Rdata is stored in a light-weight normalised form:

* ``A`` / ``AAAA`` records store the address as a string.
* ``NS``, ``CNAME``, ``PTR``, ``MX`` targets are stored as
  :class:`~repro.dns.name.DomainName` so that delegation chasing never has to
  re-parse names.
* ``TXT`` records store the text verbatim (used for ``version.bind``).
* ``SOA`` records store a :class:`SOAData` tuple.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.dns.errors import ZoneError
from repro.dns.name import DomainName, NameLike
from repro.dns.rdtypes import DEFAULT_TTL, RRClass, RRType


@dataclasses.dataclass(frozen=True)
class SOAData:
    """Start-of-authority rdata."""

    mname: DomainName
    rname: DomainName
    serial: int = 1
    refresh: int = 7200
    retry: int = 3600
    expire: int = 1209600
    minimum: int = 3600

    def __str__(self) -> str:
        return (f"{self.mname} {self.rname} {self.serial} {self.refresh} "
                f"{self.retry} {self.expire} {self.minimum}")


@dataclasses.dataclass(frozen=True)
class MXData:
    """Mail-exchanger rdata."""

    preference: int
    exchange: DomainName

    def __str__(self) -> str:
        return f"{self.preference} {self.exchange}"


RData = Union[str, DomainName, SOAData, MXData]

#: Types whose rdata is a domain name.
_NAME_RDATA_TYPES = frozenset({RRType.NS, RRType.CNAME, RRType.PTR})


def normalize_rdata(rtype: RRType, rdata: object) -> RData:
    """Coerce ``rdata`` into the canonical representation for ``rtype``."""
    if rtype in _NAME_RDATA_TYPES:
        if isinstance(rdata, DomainName):
            return rdata
        return DomainName(rdata)  # type: ignore[arg-type]
    if rtype is RRType.MX:
        if isinstance(rdata, MXData):
            return rdata
        if isinstance(rdata, tuple) and len(rdata) == 2:
            return MXData(int(rdata[0]), DomainName(rdata[1]))
        raise ZoneError(f"MX rdata must be MXData or (pref, name): {rdata!r}")
    if rtype is RRType.SOA:
        if isinstance(rdata, SOAData):
            return rdata
        raise ZoneError(f"SOA rdata must be SOAData: {rdata!r}")
    if rtype in (RRType.A, RRType.AAAA, RRType.TXT):
        return str(rdata)
    return str(rdata)


@dataclasses.dataclass(frozen=True)
class ResourceRecord:
    """A single DNS resource record.

    Instances are immutable and hashable so they can be stored in sets, which
    is how :class:`RRSet` deduplicates records.
    """

    name: DomainName
    rtype: RRType
    rdata: RData
    ttl: int = DEFAULT_TTL
    rclass: RRClass = RRClass.IN

    @classmethod
    def create(cls, name: NameLike, rtype: Union[RRType, str], rdata: object,
               ttl: int = DEFAULT_TTL,
               rclass: Union[RRClass, str] = RRClass.IN) -> "ResourceRecord":
        """Build a record from loosely-typed arguments.

        This is the constructor used by the topology generator and by tests;
        it accepts strings for every field and normalises them.
        """
        if isinstance(rtype, str):
            rtype = RRType.from_text(rtype)
        if isinstance(rclass, str):
            rclass = RRClass.from_text(rclass)
        if ttl < 0:
            raise ZoneError(f"negative TTL: {ttl}")
        if not isinstance(name, DomainName):
            name = DomainName(name)
        return cls(name=name, rtype=rtype,
                   rdata=normalize_rdata(rtype, rdata), ttl=ttl, rclass=rclass)

    @property
    def target(self) -> Optional[DomainName]:
        """The domain name the rdata points at, if any.

        For NS/CNAME/PTR records this is the rdata itself; for MX it is the
        exchange host.  Address and text records return ``None``.
        """
        if isinstance(self.rdata, DomainName):
            return self.rdata
        if isinstance(self.rdata, MXData):
            return self.rdata.exchange
        return None

    def key(self) -> Tuple[DomainName, RRType, RRClass]:
        """The (owner, type, class) triple identifying this record's RRSet."""
        return (self.name, self.rtype, self.rclass)

    def to_text(self) -> str:
        """Zone-file style presentation (``name ttl class type rdata``)."""
        return f"{self.name} {self.ttl} {self.rclass} {self.rtype} {self.rdata}"

    def __str__(self) -> str:
        return self.to_text()


class RRSet:
    """All resource records sharing an owner name, type, and class.

    The set preserves insertion order (which models the preferential order of
    delegations mentioned in the paper) while rejecting exact duplicates.
    """

    __slots__ = ("name", "rtype", "rclass", "_records")

    def __init__(self, name: NameLike, rtype: Union[RRType, str],
                 rclass: Union[RRClass, str] = RRClass.IN,
                 records: Optional[Iterable[ResourceRecord]] = None):
        self.name = name if isinstance(name, DomainName) else DomainName(name)
        self.rtype = RRType.from_text(rtype) if isinstance(rtype, str) else rtype
        self.rclass = (RRClass.from_text(rclass)
                       if isinstance(rclass, str) else rclass)
        self._records: List[ResourceRecord] = []
        for record in records or ():
            self.add(record)

    def add(self, record: ResourceRecord) -> None:
        """Add a record, enforcing that it belongs to this RRSet."""
        if record.key() != (self.name, self.rtype, self.rclass):
            raise ZoneError(
                f"record {record} does not belong to RRSet "
                f"({self.name}, {self.rtype}, {self.rclass})")
        if record not in self._records:
            self._records.append(record)

    def __iter__(self) -> Iterator[ResourceRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)

    def __contains__(self, record: ResourceRecord) -> bool:
        return record in self._records

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RRSet):
            return NotImplemented
        return (self.name, self.rtype, self.rclass) == \
            (other.name, other.rtype, other.rclass) and \
            set(self._records) == set(other._records)

    @property
    def records(self) -> Tuple[ResourceRecord, ...]:
        """The records in insertion order."""
        return tuple(self._records)

    @property
    def ttl(self) -> int:
        """The minimum TTL across records (the cacheable lifetime)."""
        return min((r.ttl for r in self._records), default=DEFAULT_TTL)

    def targets(self) -> List[DomainName]:
        """Domain-name targets of every record that has one (NS, CNAME, MX)."""
        return [r.target for r in self._records if r.target is not None]

    def addresses(self) -> List[str]:
        """Address strings of every A/AAAA record in the set."""
        return [str(r.rdata) for r in self._records
                if r.rtype in (RRType.A, RRType.AAAA)]

    def __repr__(self) -> str:
        return (f"RRSet({self.name!s}, {self.rtype!s}, "
                f"{len(self._records)} records)")
