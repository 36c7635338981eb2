"""Tests for :mod:`repro.dns.name`."""

import functools

import pytest
from hypothesis import given, strategies as st

from repro.dns.errors import NameError_
from repro.dns.name import DomainName, ROOT_NAME, name_key


# -- construction and canonicalisation ---------------------------------------------

def test_parse_simple_name():
    name = DomainName("www.example.com")
    assert name.labels == ("www", "example", "com")
    assert str(name) == "www.example.com"


def test_parse_is_case_insensitive():
    assert DomainName("WWW.Example.COM") == DomainName("www.example.com")


def test_trailing_dot_is_stripped():
    assert DomainName("example.com.") == DomainName("example.com")


def test_root_representations():
    assert DomainName("") == ROOT_NAME
    assert DomainName(".") == ROOT_NAME
    assert str(ROOT_NAME) == "."
    assert ROOT_NAME.is_root
    assert ROOT_NAME.depth == 0


def test_construct_from_labels():
    name = DomainName(("www", "example", "com"))
    assert str(name) == "www.example.com"


def test_construct_from_domain_name_copies():
    original = DomainName("example.com")
    assert DomainName(original) == original


def test_whitespace_is_stripped():
    assert DomainName("  example.com  ") == DomainName("example.com")


@pytest.mark.parametrize("bad", [
    "exa mple.com", "-bad.com", "bad-.com", "ex..com", "ex!.com",
    "a" * 64 + ".com", ".leading.dot.com."[:1] + "..x",
])
def test_invalid_names_rejected(bad):
    with pytest.raises(NameError_):
        DomainName(bad)


def test_name_too_long_rejected():
    label = "a" * 60
    too_long = ".".join([label] * 5)
    with pytest.raises(NameError_):
        DomainName(too_long)


def test_underscore_labels_allowed():
    # version.bind style and SRV-style names use underscores in practice.
    assert DomainName("_sip._tcp.example.com").depth == 4


# -- value-object behaviour -----------------------------------------------------------

def test_equality_with_string():
    assert DomainName("example.com") == "Example.Com"
    assert DomainName("example.com") != "other.com"
    assert DomainName("example.com") != "not a valid ! name"


def test_hashable_and_usable_as_dict_key():
    mapping = {DomainName("a.com"): 1}
    assert mapping[DomainName("A.COM")] == 1


def test_hash_derives_from_cached_presentation_text():
    name = DomainName("www.cs.cornell.edu")
    assert hash(name) == hash(str(name))
    # Hash/str caches survive copy-construction and hierarchy fast paths.
    assert hash(DomainName(name)) == hash(name)
    assert hash(name.parent()) == hash("cs.cornell.edu")
    assert hash(DomainName.root()) == hash(".")
    # A name equal to a string now hashes like it, so mixed-key dict
    # probes behave consistently.
    mapping = {DomainName("a.com"): 1}
    assert mapping["a.com"] == 1


def test_pickle_roundtrip_preserves_identity_semantics():
    import pickle
    for text in ("www.example.com", "a.root-servers.net", "."):
        name = DomainName(text)
        clone = pickle.loads(pickle.dumps(name))
        assert clone == name
        assert hash(clone) == hash(name)
        assert str(clone) == str(name)
        assert clone.labels == name.labels


def test_immutable():
    name = DomainName("example.com")
    with pytest.raises(AttributeError):
        name.labels = ("x",)


def test_ordering_groups_by_parent_domain():
    names = [DomainName("b.example.com"), DomainName("a.other.com"),
             DomainName("a.example.com")]
    ordered = sorted(names)
    assert ordered[0] == DomainName("a.example.com")
    assert ordered[1] == DomainName("b.example.com")
    assert ordered[2] == DomainName("a.other.com")


def _old_less_than(a, b):
    """The ordering ``DomainName.__lt__`` had before it compared slices."""
    return tuple(reversed(a.labels)) < tuple(reversed(b.labels))


def test_keyed_sort_and_slice_compare_keep_the_old_order():
    """Root, mixed depths, shared suffixes and label-prefix siblings."""
    labels = ["a", "b", "ab", "b-1", "ns1", "www", "mail", "x9"]
    names = [ROOT_NAME]
    for tld in ("com", "org", "co"):
        names.append(DomainName(tld))
        for second in labels:
            sld = DomainName(f"{second}.{tld}")
            names.append(sld)
            for third in labels[::3]:
                names.append(sld.child(third))
                names.append(sld.child(third).child("a"))
    names.reverse()
    old_order = sorted(names, key=functools.cmp_to_key(
        lambda a, b: -1 if _old_less_than(a, b)
        else (1 if _old_less_than(b, a) else 0)))
    assert sorted(names) == old_order
    assert sorted(names, key=name_key) == old_order
    assert old_order[0] == ROOT_NAME
    assert [a < b for a, b in zip(names, names[1:])] == \
        [_old_less_than(a, b) for a, b in zip(names, names[1:])]


def test_iteration_and_len():
    name = DomainName("www.example.com")
    assert list(name) == ["www", "example", "com"]
    assert len(name) == 3


# -- hierarchy operations -------------------------------------------------------------

def test_parent_chain():
    name = DomainName("www.cs.cornell.edu")
    assert name.parent() == DomainName("cs.cornell.edu")
    assert name.parent().parent() == DomainName("cornell.edu")
    assert ROOT_NAME.parent() == ROOT_NAME


def test_ancestors_excluding_self():
    name = DomainName("www.cs.cornell.edu")
    ancestors = list(name.ancestors())
    assert ancestors == [DomainName("cs.cornell.edu"),
                         DomainName("cornell.edu"),
                         DomainName("edu"), ROOT_NAME]


def test_ancestors_including_self_excluding_root():
    name = DomainName("a.b.c")
    ancestors = list(name.ancestors(include_self=True, include_root=False))
    assert ancestors == [DomainName("a.b.c"), DomainName("b.c"),
                         DomainName("c")]


def test_is_subdomain_of():
    name = DomainName("www.cs.cornell.edu")
    assert name.is_subdomain_of("cornell.edu")
    assert name.is_subdomain_of("edu")
    assert name.is_subdomain_of(ROOT_NAME)
    assert name.is_subdomain_of(name)
    assert not name.is_subdomain_of(name, proper=True)
    assert not name.is_subdomain_of("rochester.edu")
    assert not DomainName("cornell.edu").is_subdomain_of(name)


def test_is_ancestor_of():
    assert DomainName("edu").is_ancestor_of("cornell.edu", proper=True)
    assert not DomainName("edu").is_ancestor_of("example.com")


def test_suffix_match_requires_label_boundary():
    # "ample.com" is not an ancestor of "example.com".
    assert not DomainName("example.com").is_subdomain_of("ample.com")


def test_common_ancestor():
    a = DomainName("www.cs.cornell.edu")
    b = DomainName("mail.cornell.edu")
    assert a.common_ancestor(b) == DomainName("cornell.edu")
    assert a.common_ancestor("example.com") == ROOT_NAME


def test_relativize():
    name = DomainName("www.cs.cornell.edu")
    assert name.relativize("cornell.edu") == ("www", "cs")
    assert name.relativize(ROOT_NAME) == ("www", "cs", "cornell", "edu")
    with pytest.raises(NameError_):
        name.relativize("example.com")


def test_child_and_concatenate():
    base = DomainName("cornell.edu")
    assert base.child("www") == DomainName("www.cornell.edu")
    assert DomainName("www").concatenate(base) == DomainName("www.cornell.edu")
    with pytest.raises(NameError_):
        base.child("bad label")


def test_tld_and_sld():
    name = DomainName("www.cs.cornell.edu")
    assert name.tld == "edu"
    assert name.sld == DomainName("cornell.edu")
    assert ROOT_NAME.tld is None
    assert DomainName("com").sld is None


def test_in_bailiwick_of():
    assert DomainName("dns1.cornell.edu").in_bailiwick_of("cornell.edu")
    assert not DomainName("dns1.rochester.edu").in_bailiwick_of("cornell.edu")


def test_name_key_sorts_by_reversed_labels():
    assert name_key("www.example.com") == ("com", "example", "www")


# -- property-based tests ----------------------------------------------------------------

_label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1,
                 max_size=8)
_names = st.lists(_label, min_size=1, max_size=5).map(
    lambda labels: DomainName(labels))


@given(_names)
def test_roundtrip_through_string(name):
    assert DomainName(str(name)) == name


@given(_names)
def test_every_name_is_subdomain_of_all_ancestors(name):
    for ancestor in name.ancestors(include_self=True):
        assert name.is_subdomain_of(ancestor)


@given(_names)
def test_parent_reduces_depth_by_one(name):
    assert name.parent().depth == name.depth - 1


@given(_names, _label)
def test_child_inverts_parent(name, label):
    child = name.child(label)
    assert child.parent() == name
    assert child.is_subdomain_of(name, proper=True)


@given(_names, _names)
def test_common_ancestor_is_symmetric_and_ancestral(a, b):
    common = a.common_ancestor(b)
    assert common == b.common_ancestor(a)
    assert a.is_subdomain_of(common)
    assert b.is_subdomain_of(common)


@given(_names, _names)
def test_subdomain_relation_antisymmetry(a, b):
    if a.is_subdomain_of(b) and b.is_subdomain_of(a):
        assert a == b


def test_string_equality_rejects_malformed_strings():
    """The textual __eq__ fast path must match the old coercion semantics:
    strings the constructor rejects never compare equal."""
    root = DomainName(".")
    assert root == "."
    assert root == ""
    assert root != ".."
    assert root != " .. "
    name = DomainName("www.example.com")
    assert name == "WWW.Example.Com."
    assert name == "  www.example.com  "
    assert name != "www.example.com.."
    assert name != "www..example.com"
    assert name == "www.example.com. "  # whitespace strips before the dot
