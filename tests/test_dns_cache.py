"""Tests for :mod:`repro.dns.cache`."""

from hypothesis import given, settings, strategies as st

from repro.dns.cache import CacheEntry, ResolverCache
from repro.dns.name import DomainName
from repro.dns.rdtypes import RCode, RRType
from repro.dns.records import ResourceRecord


def _a_record(name="www.example.com", address="10.0.0.1", ttl=300):
    return ResourceRecord.create(name, RRType.A, address, ttl=ttl)


def test_miss_then_hit():
    cache = ResolverCache()
    assert cache.get("www.example.com", now=0.0) is None
    cache.put("www.example.com", RRType.A, [_a_record()], now=0.0)
    entry = cache.get("www.example.com", now=1.0)
    assert entry is not None
    assert not entry.is_negative
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_entry_expires_after_ttl():
    cache = ResolverCache()
    cache.put("www.example.com", RRType.A, [_a_record(ttl=60)], now=0.0)
    assert cache.get("www.example.com", now=59.0) is not None
    assert cache.get("www.example.com", now=60.0) is None
    assert cache.stats.expirations == 1


def test_ttl_uses_minimum_of_records():
    cache = ResolverCache()
    records = [_a_record(address="10.0.0.1", ttl=300),
               _a_record(address="10.0.0.2", ttl=30)]
    entry = cache.put("www.example.com", RRType.A, records, now=0.0)
    assert entry.expires_at == 30.0


def test_negative_cache_uses_negative_ttl():
    cache = ResolverCache(negative_ttl=120)
    entry = cache.put("missing.example.com", RRType.A, [],
                      rcode=RCode.NXDOMAIN, now=0.0)
    assert entry.is_negative
    assert entry.expires_at == 120.0
    cached = cache.get("missing.example.com", now=10.0)
    assert cached is not None
    assert cached.rcode is RCode.NXDOMAIN


def test_keys_distinguish_types():
    cache = ResolverCache()
    cache.put("example.com", RRType.A, [_a_record("example.com")], now=0.0)
    assert cache.get("example.com", RRType.NS, now=0.0) is None
    assert cache.get("example.com", RRType.A, now=0.0) is not None


def test_keys_are_case_insensitive():
    cache = ResolverCache()
    cache.put("Example.COM", RRType.A, [_a_record("example.com")], now=0.0)
    assert cache.get("example.com", now=0.0) is not None


def test_flush_clears_entries_but_not_stats():
    cache = ResolverCache()
    cache.put("example.com", RRType.A, [_a_record("example.com")], now=0.0)
    cache.get("example.com", now=0.0)
    cache.flush()
    assert len(cache) == 0
    assert cache.stats.hits == 1


def test_purge_expired_returns_count():
    cache = ResolverCache()
    cache.put("a.com", RRType.A, [_a_record("a.com", ttl=10)], now=0.0)
    cache.put("b.com", RRType.A, [_a_record("b.com", ttl=1000)], now=0.0)
    assert cache.purge_expired(now=100.0) == 1
    assert len(cache) == 1


def test_eviction_keeps_cache_bounded():
    cache = ResolverCache(max_entries=10)
    for index in range(25):
        cache.put(f"site{index}.com", RRType.A,
                  [_a_record(f"site{index}.com", ttl=1000)], now=float(index))
    assert len(cache) <= 10
    # The most recently inserted entry survives eviction.
    assert cache.get("site24.com", now=25.0) is not None


def test_hit_rate():
    cache = ResolverCache()
    cache.put("example.com", RRType.A, [_a_record("example.com")], now=0.0)
    cache.get("example.com", now=0.0)
    cache.get("missing.com", now=0.0)
    assert cache.stats.hit_rate == 0.5


def test_cache_entry_expiry_predicate():
    entry = CacheEntry(records=[], rcode=RCode.NOERROR, inserted_at=0.0,
                       expires_at=10.0)
    assert not entry.is_expired(9.9)
    assert entry.is_expired(10.0)


@given(st.integers(min_value=1, max_value=10000),
       st.floats(min_value=0, max_value=20000))
def test_entry_never_served_after_expiry(ttl, query_time):
    cache = ResolverCache()
    cache.put("example.com", RRType.A, [_a_record(ttl=ttl)], now=0.0)
    entry = cache.get("example.com", now=query_time)
    if query_time >= ttl:
        assert entry is None
    else:
        assert entry is not None


# -- purge by index against a scan of every entry ---------------------------------------

OWNERS = st.sampled_from(["example.com", "www.example.com", "a.b.example.com",
                          "b.example.com", "example.org", "ns1.example.org",
                          "com", "org"])
OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("put"), OWNERS, st.sampled_from([RRType.A, RRType.NS]),
              st.integers(1, 50), st.integers(0, 100)),
    st.tuples(st.just("get"), OWNERS, st.integers(0, 150)),
    st.tuples(st.just("purge"), st.lists(OWNERS, max_size=2),
              st.lists(OWNERS, max_size=2)),
    st.tuples(st.just("expire"), st.integers(0, 150)),
    st.tuples(st.just("flush"))), max_size=30)


@settings(max_examples=400)
@given(operations=OPERATIONS)
def test_purge_drops_what_a_scan_of_every_entry_drops(operations):
    """The owner index behind purge() stays current through inserts,
    expiry, eviction, purges and flushes."""
    cache = ResolverCache(max_entries=6)
    for operation in operations:
        kind = operation[0]
        if kind == "put":
            _, owner, rtype, ttl, now = operation
            cache.put(owner, rtype, [_a_record(owner, ttl=ttl)]
                      if rtype is RRType.A else [], now=float(now))
        elif kind == "get":
            cache.get(operation[1], now=float(operation[2]))
        elif kind == "expire":
            cache.purge_expired(float(operation[1]))
        elif kind == "flush":
            cache.flush()
        else:
            names = [DomainName(name) for name in operation[1]]
            apexes = [DomainName(apex) for apex in operation[2]]
            expected = {key for key in cache._entries
                        if key[0] in names or
                        any(key[0].is_subdomain_of(apex) for apex in apexes)}
            before = set(cache._entries)
            assert cache.purge(names=names, subtrees=apexes) == len(expected)
            assert before - set(cache._entries) == expected
