"""Parsing and ordering of BIND version banners.

The survey fingerprints servers via ``version.bind`` and needs to decide, for
a banner such as ``"BIND 8.2.4-REL"`` or ``"9.2.1"``, which known
vulnerabilities apply.  Affected ranges in the catalogue are expressed over
(major, minor, patch) tuples, so this module provides a small, forgiving
parser plus total ordering within a major release line.

:class:`FingerprintResult`, what probing one server's banner yielded,
lives here beside the parser rather than with the
:class:`~repro.vulns.fingerprint.Fingerprinter` that probes: snapshot
readers rebuild results without importing the DNS stack a probe needs.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.dns.name import DomainName

_VERSION_RE = re.compile(
    r"(?:bind[\s_-]*)?v?(\d+)\.(\d+)(?:\.(\d+))?(?:[.\-]?(p\d+|rel|rc\d+|beta\d*|b\d+))?",
    re.IGNORECASE)


@functools.total_ordering
@dataclasses.dataclass(frozen=True)
class BindVersion:
    """A parsed BIND version number.

    The optional ``suffix`` (``p1``, ``REL``, ``rc2`` ...) is kept for
    display but ignored by the ordering, matching how ISC's advisory matrix
    groups releases.
    """

    major: int
    minor: int
    patch: int = 0
    suffix: str = ""

    @classmethod
    def parse(cls, banner: Optional[str]) -> Optional["BindVersion"]:
        """Parse a version banner; return ``None`` if nothing parseable.

        Real-world banners include strings like ``"BIND 8.2.4-REL"``,
        ``"9.2.3"``, ``"named 8.3.1"``, or deliberately obfuscated answers
        such as ``"SECRET"`` / ``"go away"`` which yield ``None``.
        """
        if not banner:
            return None
        match = _VERSION_RE.search(banner)
        if not match:
            return None
        major, minor, patch, suffix = match.groups()
        return cls(major=int(major), minor=int(minor),
                   patch=int(patch) if patch else 0,
                   suffix=(suffix or "").lower())

    @property
    def key(self) -> Tuple[int, int, int]:
        """The (major, minor, patch) tuple used for range comparisons."""
        return (self.major, self.minor, self.patch)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BindVersion):
            return NotImplemented
        return self.key == other.key

    def __lt__(self, other: "BindVersion") -> bool:
        if not isinstance(other, BindVersion):
            return NotImplemented
        return self.key < other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def in_range(self, low: "BindVersion", high: "BindVersion") -> bool:
        """True if this version lies in the inclusive range [low, high]."""
        return low.key <= self.key <= high.key

    def same_branch(self, other: "BindVersion") -> bool:
        """True if both versions belong to the same major release line."""
        return self.major == other.major

    def __str__(self) -> str:
        text = f"{self.major}.{self.minor}.{self.patch}"
        if self.suffix:
            text += f"-{self.suffix.upper()}"
        return text


def version_range(low: str, high: str) -> Tuple[BindVersion, BindVersion]:
    """Parse an inclusive version range from two banner strings."""
    low_version = BindVersion.parse(low)
    high_version = BindVersion.parse(high)
    if low_version is None or high_version is None:
        raise ValueError(f"unparseable version range: {low!r}..{high!r}")
    if high_version < low_version:
        raise ValueError(f"inverted version range: {low!r}..{high!r}")
    return low_version, high_version


@dataclasses.dataclass
class FingerprintResult:
    """Outcome of fingerprinting one nameserver."""

    hostname: DomainName
    banner: Optional[str]
    version: Optional[BindVersion]
    reachable: bool
    vulnerabilities: List[str] = dataclasses.field(default_factory=list)

    @property
    def is_vulnerable(self) -> bool:
        """True if any known vulnerability was matched."""
        return bool(self.vulnerabilities)

    @property
    def disclosed(self) -> bool:
        """True if the server answered with a parseable version banner."""
        return self.version is not None
