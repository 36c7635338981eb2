"""Simulated web-directory crawl (Yahoo!/DMOZ stand-in) and Alexa cohort.

The paper's name list came from crawling the Yahoo! and DMOZ.org web
directories (593,160 unique web-server names across 196 TLDs) and its
"popular names" cohort from the Alexa top-500.  The directory here plays the
same role for the synthetic Internet: it is the list of externally-visible
web-server names the survey resolves, each annotated with the TLD, the
operator category of its owner, and a popularity score used to pick the
"top-500" cohort.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.dns.name import DomainName, NameLike


@dataclasses.dataclass
class DirectoryEntry:
    """One web-server name as it would appear in a directory crawl."""

    name: DomainName
    tld: str
    category: str
    popularity: float
    source: str = "dmoz"

    def __post_init__(self):
        self.name = DomainName(self.name)


class WebDirectory:
    """The crawled list of web-server names, with sampling helpers."""

    def __init__(self, entries: Optional[Iterable[DirectoryEntry]] = None):
        self._entries: List[DirectoryEntry] = []
        self._by_name: Dict[DomainName, DirectoryEntry] = {}
        #: Entries by falling popularity, ranked on first use (add() resets).
        self._ranked: Optional[List[DirectoryEntry]] = None
        for entry in entries or ():
            self.add(entry)

    # -- construction ------------------------------------------------------------

    def add(self, entry: DirectoryEntry) -> bool:
        """Add an entry; duplicates (by name) are ignored.

        Returns True if the entry was new.
        """
        if entry.name in self._by_name:
            return False
        self._entries.append(entry)
        self._by_name[entry.name] = entry
        self._ranked = None
        return True

    def add_name(self, name: NameLike, tld: Optional[str] = None,
                 category: str = "unknown", popularity: float = 1.0,
                 source: str = "dmoz") -> bool:
        """Convenience wrapper building the entry from loose arguments."""
        name = DomainName(name)
        return self.add(DirectoryEntry(name=name, tld=tld or (name.tld or ""),
                                       category=category,
                                       popularity=popularity, source=source))

    # -- access ---------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DirectoryEntry]:
        return iter(self._entries)

    def __contains__(self, name: NameLike) -> bool:
        return DomainName(name) in self._by_name

    def entry(self, name: NameLike) -> Optional[DirectoryEntry]:
        """The entry for ``name``, if present."""
        return self._by_name.get(DomainName(name))

    def names(self) -> List[DomainName]:
        """All names in insertion order."""
        return [entry.name for entry in self._entries]

    def entries(self) -> List[DirectoryEntry]:
        """All entries in insertion order."""
        return list(self._entries)

    # -- views used by the survey ------------------------------------------------------

    def tlds(self) -> List[str]:
        """Distinct TLDs represented, sorted by name count (descending)."""
        counts = self.tld_counts()
        return sorted(counts, key=lambda tld: (-counts[tld], tld))

    def tld_counts(self) -> Dict[str, int]:
        """Number of names per TLD."""
        counts: Dict[str, int] = {}
        for entry in self._entries:
            counts[entry.tld] = counts.get(entry.tld, 0) + 1
        return counts

    def by_tld(self, tld: str) -> List[DirectoryEntry]:
        """All entries under ``tld``."""
        return [entry for entry in self._entries if entry.tld == tld]

    def by_category(self, category: str) -> List[DirectoryEntry]:
        """All entries whose owner falls in ``category``."""
        return [entry for entry in self._entries if entry.category == category]

    def alexa_top(self, count: int = 500) -> List[DirectoryEntry]:
        """The ``count`` most popular entries (the Alexa-top-500 stand-in)."""
        if self._ranked is None:
            self._ranked = sorted(self._entries, key=lambda e: -e.popularity)
        return self._ranked[:count]

    def sample(self, count: int, rng: Optional[random.Random] = None
               ) -> List[DirectoryEntry]:
        """A uniform random sample of entries (without replacement)."""
        rng = rng or random.Random(0)
        if count >= len(self._entries):
            return list(self._entries)
        return rng.sample(self._entries, count)

    def weighted_sample(self, count: int,
                        rng: Optional[random.Random] = None
                        ) -> List[DirectoryEntry]:
        """A popularity-weighted sample (models crawl bias toward busy sites)."""
        rng = rng or random.Random(0)
        if count >= len(self._entries):
            return list(self._entries)
        weights = [entry.popularity for entry in self._entries]
        chosen: List[DirectoryEntry] = []
        seen: set = set()
        # Rejection-style draw: keep drawing until we have ``count`` distinct
        # entries; bounded to avoid pathological loops on tiny directories.
        attempts = 0
        while len(chosen) < count and attempts < 50 * count:
            attempts += 1
            entry = rng.choices(self._entries, weights=weights, k=1)[0]
            if entry.name not in seen:
                seen.add(entry.name)
                chosen.append(entry)
        return chosen

    def summary(self) -> Dict[str, float]:
        """Headline statistics about the directory itself."""
        return {
            "names": float(len(self._entries)),
            "tlds": float(len(self.tld_counts())),
            "gtld_names": float(sum(1 for e in self._entries
                                    if len(e.tld) > 2)),
            "cctld_names": float(sum(1 for e in self._entries
                                     if len(e.tld) == 2)),
        }
