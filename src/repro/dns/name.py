"""Domain names and hierarchy operations.

The analyses in the paper constantly reason about the namespace hierarchy:
which zone a name belongs to, whether a nameserver is *in bailiwick* (inside
the administrative domain of the name it serves), which top-level domain a
name falls under, and so on.  :class:`DomainName` provides an immutable,
canonicalised representation with those operations.

Names are stored as a tuple of labels ordered from the most specific label to
the root, e.g. ``www.cs.cornell.edu`` is ``("www", "cs", "cornell", "edu")``.
The root name is the empty tuple and prints as ``"."``.
"""

from __future__ import annotations

import functools
import re
from typing import (Dict, Hashable, Iterable, Iterator, List, Optional, Set,
                    Tuple, Union)

from repro.dns.errors import NameError_

#: Maximum length of a single label, per RFC 1035.
MAX_LABEL_LENGTH = 63

#: Maximum length of a full name (presentation form without trailing dot).
MAX_NAME_LENGTH = 253

_LABEL_RE = re.compile(r"^[a-z0-9_]([a-z0-9_-]*[a-z0-9_])?$")

NameLike = Union[str, "DomainName", Iterable[str]]


@functools.total_ordering
class DomainName:
    """An immutable, canonicalised (lower-cased) DNS domain name.

    Instances behave as value objects: they hash and compare by their label
    sequence, so they can be used freely as dictionary keys and graph nodes.

    Parameters
    ----------
    name:
        Either a presentation-form string (``"www.example.com"``, with or
        without a trailing dot), another :class:`DomainName` (copied), or an
        iterable of labels ordered most-specific first.
    """

    __slots__ = ("_labels", "_hash", "_text")

    def __init__(self, name: NameLike = ""):
        if isinstance(name, DomainName):
            # Copy-construction reuses the source's cached hash and text —
            # tuples do not cache their hash, so rehashing here would cost
            # a label walk on every NameLike normalisation.
            object.__setattr__(self, "_labels", name._labels)
            object.__setattr__(self, "_hash", name._hash)
            object.__setattr__(self, "_text", name._text)
            return
        if isinstance(name, str):
            labels = self._parse(name)
        else:
            labels = tuple(self._validate_label(label) for label in name)
            if len(str(".".join(labels))) > MAX_NAME_LENGTH:
                raise NameError_(f"name too long: {'.'.join(labels)!r}")
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_text", None)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _validate_label(label: str) -> str:
        label = label.lower()
        if not label:
            raise NameError_("empty label")
        if len(label) > MAX_LABEL_LENGTH:
            raise NameError_(f"label too long: {label!r}")
        if not _LABEL_RE.match(label):
            raise NameError_(f"invalid label: {label!r}")
        return label

    @classmethod
    def _parse(cls, text: str) -> Tuple[str, ...]:
        text = text.strip().lower()
        if text in ("", "."):
            return ()
        if text.endswith("."):
            text = text[:-1]
        if len(text) > MAX_NAME_LENGTH:
            raise NameError_(f"name too long: {text!r}")
        return tuple(cls._validate_label(label) for label in text.split("."))

    @classmethod
    def root(cls) -> "DomainName":
        """Return the DNS root name (``"."``)."""
        return cls(())

    @classmethod
    def _from_labels(cls, labels: Tuple[str, ...]) -> "DomainName":
        """Construct from already-canonical labels, skipping validation.

        Internal fast path for hierarchy operations (``parent``,
        ``ancestors``, suffix walks): any slice of a valid name's label
        tuple is itself valid, so re-running the per-label regex would be
        pure overhead in the resolver's hot loops.
        """
        name = object.__new__(cls)
        object.__setattr__(name, "_labels", labels)
        object.__setattr__(name, "_hash", None)
        object.__setattr__(name, "_text", None)
        return name

    @classmethod
    def _from_text(cls, text: str) -> "DomainName":
        """Construct from already-canonical presentation text, trusted.

        The text was produced by our own ``__str__``, so labels are split
        without re-running the per-label validation regex, and the cached
        presentation string is seeded directly.  The binary snapshot
        store's string pool (``repro.core.snapstore._Pool``) builds every
        name it reads through here, and so does unpickling (see
        :meth:`__reduce__`).
        """
        name = object.__new__(cls)
        labels = () if text == "." else tuple(text.split("."))
        object.__setattr__(name, "_labels", labels)
        object.__setattr__(name, "_hash", None)
        object.__setattr__(name, "_text", text)
        return name

    # -- value-object protocol ----------------------------------------------

    def __setattr__(self, key, value):  # pragma: no cover - defensive
        raise AttributeError("DomainName is immutable")

    def __hash__(self) -> int:
        # Hash off the cached presentation string, computed on first probe
        # and memoized: construction never walks the label tuple just to
        # hash it, copy-construction and unpickling inherit both caches,
        # and a name that is never used as a key pays nothing.
        digest = self._hash
        if digest is None:
            digest = hash(self.__str__())
            object.__setattr__(self, "_hash", digest)
        return digest

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DomainName):
            return self._labels == other._labels
        if isinstance(other, str):
            # Textual comparison instead of the old "construct a DomainName
            # and compare labels" fallback, which allocated (and regex-
            # validated) a throwaway instance on every miss in hot loops.
            # Our own labels are canonical, so string equality against the
            # normalised text is exact: any string that the validating
            # constructor would map to our labels normalises to our
            # presentation form, and invalid strings can never match it.
            text = other.strip().lower()
            if text in ("", "."):
                return not self._labels
            if text.endswith("."):
                text = text[:-1]
                if not text or text.endswith("."):
                    # "..", "a.." etc. would raise in the constructor
                    # (empty label); they must not collapse to a valid name.
                    return False
            return text == str(self)
        return NotImplemented

    def __lt__(self, other: "DomainName") -> bool:
        if isinstance(other, str):
            other = DomainName(other)
        if not isinstance(other, DomainName):
            return NotImplemented
        # Canonical DNS ordering sorts by reversed label sequence so that
        # names group by their parent domains.  Hot sorts pass
        # ``key=name_key`` instead: one key per name, not two per compare.
        return self._labels[::-1] < other._labels[::-1]

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = ".".join(self._labels) if self._labels else "."
            object.__setattr__(self, "_text", text)
        return text

    def __repr__(self) -> str:
        return f"DomainName({str(self)!r})"

    def __reduce__(self):
        # The immutability guard (__setattr__ raises) breaks pickle's default
        # slot-state protocol, so reconstruct through the trusted
        # presentation-text fast path that snapstore's _Pool reads names
        # with.
        return (DomainName._from_text, (str(self),))

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    # -- accessors ------------------------------------------------------------

    @property
    def labels(self) -> Tuple[str, ...]:
        """Labels ordered most-specific first (``www``, ``cs``, ...)."""
        return self._labels

    @property
    def is_root(self) -> bool:
        """True if this is the root name ``"."``."""
        return not self._labels

    @property
    def depth(self) -> int:
        """Number of labels (the root has depth 0, ``com`` has depth 1)."""
        return len(self._labels)

    @property
    def tld(self) -> Optional[str]:
        """The top-level domain label, or ``None`` for the root."""
        return self._labels[-1] if self._labels else None

    @property
    def sld(self) -> Optional["DomainName"]:
        """The second-level domain (e.g. ``cornell.edu``), or ``None``."""
        if len(self._labels) < 2:
            return None
        return DomainName._from_labels(self._labels[-2:])

    # -- hierarchy operations --------------------------------------------------

    def parent(self) -> "DomainName":
        """Return the immediate parent domain.

        The parent of the root is the root itself, mirroring the convention
        used when walking delegation chains upward.
        """
        if not self._labels:
            return self
        return DomainName._from_labels(self._labels[1:])

    def ancestors(self, include_self: bool = False,
                  include_root: bool = True) -> Iterator["DomainName"]:
        """Yield ancestor domains from the closest parent up to the root.

        Parameters
        ----------
        include_self:
            If true, the name itself is yielded first.
        include_root:
            If false, the root name is omitted.
        """
        current = self if include_self else self.parent()
        previous = None
        while previous != current:
            if current.is_root and not include_root:
                return
            yield current
            previous = current
            current = current.parent()

    def is_subdomain_of(self, other: NameLike, proper: bool = False) -> bool:
        """Return True if this name lies under ``other`` in the hierarchy.

        ``proper=True`` excludes the case where the two names are equal.
        Every name is a subdomain of the root.
        """
        if not isinstance(other, DomainName):
            other = DomainName(other)
        if len(other._labels) > len(self._labels):
            return False
        if proper and len(other._labels) == len(self._labels):
            return False
        if not other._labels:
            return True
        return self._labels[-len(other._labels):] == other._labels

    def is_ancestor_of(self, other: NameLike, proper: bool = False) -> bool:
        """Return True if ``other`` lies under this name."""
        return DomainName(other).is_subdomain_of(self, proper=proper)

    def common_ancestor(self, other: NameLike) -> "DomainName":
        """Return the deepest domain that is an ancestor of both names."""
        other = DomainName(other)
        common = []
        for a, b in zip(reversed(self._labels), reversed(other._labels)):
            if a != b:
                break
            common.append(a)
        return DomainName._from_labels(tuple(reversed(common)))

    def relativize(self, origin: NameLike) -> Tuple[str, ...]:
        """Return the labels of this name relative to ``origin``.

        Raises :class:`NameError_` if the name is not under ``origin``.
        """
        origin = DomainName(origin)
        if not self.is_subdomain_of(origin):
            raise NameError_(f"{self} is not a subdomain of {origin}")
        if not origin._labels:
            return self._labels
        return self._labels[: len(self._labels) - len(origin._labels)]

    def child(self, label: str) -> "DomainName":
        """Return the name formed by prepending ``label`` to this name."""
        return DomainName((self._validate_label(label),) + self._labels)

    def concatenate(self, suffix: NameLike) -> "DomainName":
        """Return this (relative) name appended to ``suffix``."""
        suffix = DomainName(suffix)
        return DomainName(self._labels + suffix._labels)

    def in_bailiwick_of(self, domain: NameLike) -> bool:
        """True if this name is inside the administrative domain ``domain``.

        A nameserver is *in bailiwick* for a domain when its own name lies
        under that domain; the paper's "servers administered by the
        nameowner" metric counts in-bailiwick servers.
        """
        return self.is_subdomain_of(domain)


#: The DNS root name, shared for convenience.
ROOT_NAME = DomainName.root()


def name_key(name: NameLike) -> Tuple[str, ...]:
    """Return a canonical sort key (reversed labels) for a name.

    Sorting by this key groups names by parent domain, which is the order the
    survey reports use when listing names per TLD, and is exactly the
    ``<`` order of :class:`DomainName` — so ``sorted(names, key=name_key)``
    equals ``sorted(names)`` at one key per name instead of two reversed
    label tuples per comparison.
    """
    if not isinstance(name, DomainName):
        name = DomainName(name)
    return name._labels[::-1]


class SubtreeIndex:
    """Keys filed under every label suffix of their owner name.

    :meth:`at_or_below` answers "which keys are owned at or below this
    name?" with one lookup, where a scan would test every key with
    :meth:`DomainName.is_subdomain_of`.  Owners are label tuples; a key is
    filed under each suffix of its owner's labels, the root's ``()``
    included.
    """

    __slots__ = ("_under",)

    def __init__(self) -> None:
        self._under: Dict[Tuple[str, ...], Set[Hashable]] = {}

    def add(self, labels: Tuple[str, ...], key: Hashable) -> None:
        """File ``key`` under its owner ``labels``."""
        under = self._under
        for start in range(len(labels) + 1):
            bucket = under.get(labels[start:])
            if bucket is None:
                under[labels[start:]] = {key}
            else:
                bucket.add(key)

    def discard(self, labels: Tuple[str, ...], key: Hashable) -> None:
        """Unfile ``key`` (owned at ``labels``), if it was filed."""
        under = self._under
        for start in range(len(labels) + 1):
            suffix = labels[start:]
            bucket = under.get(suffix)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del under[suffix]

    def at_or_below(self, labels: Tuple[str, ...]) -> List[Hashable]:
        """The keys whose owner is ``labels`` or lies below it."""
        return list(self._under.get(labels, ()))
