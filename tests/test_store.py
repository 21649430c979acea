import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from consistency_lab.sim import NodeId
from consistency_lab.store import (
    AFTER,
    BEFORE,
    CONCURRENT,
    EQUAL,
    ConfigError,
    LamportClock,
    Topology,
    key_in_partition,
    partition_for_key,
    primary_node,
    vc_bump,
    vc_compare,
    vc_merge,
)


def test_single_partition_always_zero():
    for key in (0, 1, 2**40, 2**64 - 1):
        assert partition_for_key(key, 1) == 0


def test_partition_identical_across_datacenters():
    topo = Topology(num_datacenters=3, partitions_per_dc=4, n=3, r=2, w=2)
    key = key_in_partition(2, 4, 17)
    nodes = [primary_node(key, topo, d) for d in range(3)]
    assert [n.partition for n in nodes] == [2, 2, 2]
    assert [n.dc for n in nodes] == [0, 1, 2]


def test_partition_distribution_uniform():
    rng = random.Random(1234)
    counts = [0] * 8
    for _ in range(100_000):
        counts[partition_for_key(rng.getrandbits(64), 8)] += 1
    for c in counts:
        assert abs(c - 12_500) <= 12_500 * 0.05


def test_key_in_partition_round_trip():
    for parts in (1, 3, 8, 32):
        for p in range(parts):
            for j in (0, 5, 999):
                assert partition_for_key(key_in_partition(p, parts, j), parts) == p


def test_lamport_first_event_is_one():
    lc = LamportClock(0)
    assert lc.issue() == (1, 0)


def test_lamport_merge_max_plus_one():
    lc = LamportClock(2)
    for _ in range(10):
        lc.issue()
    lc.merge((41, 5))
    assert lc.issue() == (42, 2)


def test_lamport_tie_break_by_node():
    a = LamportClock(0).issue()
    b = LamportClock(1).issue()
    assert a[0] == b[0] and a < b


def test_vc_equal():
    assert vc_compare({0: 1, 1: 2}, {0: 1, 1: 2}) == EQUAL
    assert vc_compare({}, {}) == EQUAL


def test_vc_after_before():
    a, b = {0: 2, 1: 1}, {0: 1, 1: 1}
    assert vc_compare(a, b) == AFTER
    assert vc_compare(b, a) == BEFORE


def test_vc_concurrent_symmetric():
    a, b = {0: 2, 1: 0}, {0: 1, 1: 3}
    assert vc_compare(a, b) == CONCURRENT
    assert vc_compare(b, a) == CONCURRENT


def test_vc_absent_entries_read_zero():
    assert vc_compare({0: 1}, {0: 1, 1: 0}) == EQUAL
    assert vc_compare({0: 1}, {1: 1}) == CONCURRENT


def _vc_compare_reference(a, b):
    """The plain definition: every entry of either clock, absent ones 0."""
    less = greater = False
    for k in set(a) | set(b):
        av, bv = a.get(k, 0), b.get(k, 0)
        if av < bv:
            less = True
        elif av > bv:
            greater = True
    if less and greater:
        return CONCURRENT
    if less:
        return BEFORE
    if greater:
        return AFTER
    return EQUAL


# few entries and small counters, so shared, missing and zero entries and
# equal counters are all common
_CLOCKS = st.dictionaries(st.integers(0, 5), st.integers(0, 3), max_size=6)


@given(_CLOCKS, _CLOCKS)
def test_vc_compare_matches_the_plain_definition(a, b):
    assert vc_compare(a, b) == _vc_compare_reference(a, b)
    assert vc_compare(b, a) == _vc_compare_reference(b, a)


def test_vc_merge_and_bump():
    m = vc_merge({0: 2, 1: 1}, {1: 3, 2: 1})
    assert m == {0: 2, 1: 3, 2: 1}
    assert vc_bump(m, 0) == {0: 3, 1: 3, 2: 1}


def test_topology_validation():
    with pytest.raises(ConfigError):
        Topology(n=3, r=4, w=2).validate()
    with pytest.raises(ConfigError):
        Topology(n=3, r=2, w=0).validate()
    with pytest.raises(ConfigError):
        Topology(num_datacenters=1, partitions_per_dc=1, n=3).validate()
    Topology(num_datacenters=3, partitions_per_dc=2, n=3, r=2, w=2).validate()


def test_topology_nodes_enumeration():
    topo = Topology(num_datacenters=2, partitions_per_dc=3, n=2, r=1, w=1)
    assert len(list(topo.nodes())) == 6
    assert NodeId(1, 2) in set(topo.nodes())
