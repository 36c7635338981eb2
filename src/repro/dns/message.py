"""DNS query and response messages.

The substrate passes :class:`Message` objects between the resolver and
authoritative servers instead of wire-format packets; the message structure
(question / answer / authority / additional sections, header flags, response
codes) follows RFC 1035 so that resolution logic reads like a description of
the real protocol.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import List, Optional, Union

from repro.dns.name import DomainName, NameLike
from repro.dns.rdtypes import OpCode, RCode, RRClass, RRType
from repro.dns.records import ResourceRecord

_query_ids = itertools.count(1)


@dataclasses.dataclass(frozen=True, slots=True)
class Question:
    """The question section of a DNS message (single-question form)."""

    name: DomainName
    rtype: RRType = RRType.A
    rclass: RRClass = RRClass.IN

    @classmethod
    def create(cls, name: NameLike, rtype: Union[RRType, str] = RRType.A,
               rclass: Union[RRClass, str] = RRClass.IN) -> "Question":
        if isinstance(rtype, str):
            rtype = RRType.from_text(rtype)
        if isinstance(rclass, str):
            rclass = RRClass.from_text(rclass)
        if not isinstance(name, DomainName):
            name = DomainName(name)
        return cls(name, rtype, rclass)

    def __str__(self) -> str:
        return f"{self.name} {self.rclass} {self.rtype}"


@dataclasses.dataclass(slots=True)
class Message:
    """A DNS message: header fields plus the four record sections."""

    qid: int
    question: Question
    opcode: OpCode = OpCode.QUERY
    rcode: RCode = RCode.NOERROR
    is_response: bool = False
    authoritative: bool = False
    recursion_desired: bool = False
    recursion_available: bool = False
    truncated: bool = False
    answers: List[ResourceRecord] = dataclasses.field(default_factory=list)
    authority: List[ResourceRecord] = dataclasses.field(default_factory=list)
    additional: List[ResourceRecord] = dataclasses.field(default_factory=list)

    # -- convenience accessors -------------------------------------------------

    @property
    def is_referral(self) -> bool:
        """True if this response delegates to another set of nameservers.

        A referral has no answers but carries NS records in the authority
        section — this is the step that creates the transitive dependencies
        the paper analyses.
        """
        return (self.is_response and not self.answers
                and any(r.rtype is RRType.NS for r in self.authority)
                and self.rcode is RCode.NOERROR)

    @property
    def is_nxdomain(self) -> bool:
        """True if the response indicates the name does not exist."""
        return self.is_response and self.rcode is RCode.NXDOMAIN

    def answer_rrset(self, rtype: Optional[RRType] = None) -> List[ResourceRecord]:
        """Answer records, optionally filtered by type."""
        if rtype is None:
            return list(self.answers)
        return [r for r in self.answers if r.rtype is rtype]

    def referral_nameservers(self) -> List[DomainName]:
        """Nameserver names carried by a referral's authority section."""
        return [r.rdata for r in self.authority
                if r.rtype is RRType.NS and isinstance(r.rdata, DomainName)]

    def glue_addresses(self, nameserver: NameLike) -> List[str]:
        """Glue A/AAAA addresses for ``nameserver`` in the additional section."""
        if not isinstance(nameserver, DomainName):
            nameserver = DomainName(nameserver)
        return [str(r.rdata) for r in self.additional
                if r.name == nameserver and r.rtype in (RRType.A, RRType.AAAA)]

    def __str__(self) -> str:
        kind = "response" if self.is_response else "query"
        return (f"<{kind} id={self.qid} {self.question} rcode={self.rcode.name} "
                f"ans={len(self.answers)} auth={len(self.authority)} "
                f"add={len(self.additional)}>")


def make_query(name: NameLike, rtype: Union[RRType, str] = RRType.A,
               rclass: Union[RRClass, str] = RRClass.IN,
               recursion_desired: bool = False) -> Message:
    """Construct a query message with a fresh query id."""
    if type(name) is DomainName and type(rtype) is RRType and \
            type(rclass) is RRClass:
        question = Question(name, rtype, rclass)
    else:
        question = Question.create(name, rtype, rclass)
    return Message(next(_query_ids), question,
                   recursion_desired=recursion_desired)


def make_response(query: Message, rcode: RCode = RCode.NOERROR,
                  authoritative: bool = False) -> Message:
    """Construct an (initially empty) response to ``query``."""
    return Message(qid=query.qid, question=query.question, rcode=rcode,
                   is_response=True, authoritative=authoritative,
                   recursion_desired=query.recursion_desired)
