"""Shared storage substrate: topology, key partitioning, Lamport stamps and
vector clocks.

Keys are 64-bit integers partitioned into static contiguous ranges; the same
partition owns the same range in every datacenter, so the primary storage
node of a key in datacenter d is NodeId(d, partition_for_key(key, P)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .sim import NodeId

KEY_SPACE = 1 << 64


class ConfigError(Exception):
    pass


@dataclass
class Topology:
    num_datacenters: int = 3
    partitions_per_dc: int = 1
    # Dynamo quorum parameters
    n: int = 3
    r: int = 2
    w: int = 2
    spares: int = 1  # preference-list entries beyond the top N
    # GentleRain timing knobs (virtual microseconds)
    gst_interval: int = 10_000
    heartbeat_interval: int = 5_000
    # per-node message processing capacity, messages per simulated second
    capacity: int = 50_000
    context_compaction: bool = True
    clock_mode: str = "physical"  # or "hlc"

    def validate(self):
        if self.num_datacenters < 1 or self.partitions_per_dc < 1:
            raise ConfigError("num_datacenters and partitions_per_dc must be >= 1")
        if not (1 <= self.r <= self.n):
            raise ConfigError(f"r must satisfy 1 <= r <= n (r={self.r}, n={self.n})")
        if not (1 <= self.w <= self.n):
            raise ConfigError(f"w must satisfy 1 <= w <= n (w={self.w}, n={self.n})")
        if self.n > self.num_datacenters * self.partitions_per_dc:
            raise ConfigError("n exceeds the number of nodes")
        if self.spares < 0:
            raise ConfigError("spares must be >= 0")
        if self.capacity < 0:
            raise ConfigError("capacity must be >= 0 (0: no capacity gate)")
        if self.clock_mode not in ("physical", "hlc"):
            raise ConfigError(f"unknown clock_mode {self.clock_mode!r}")
        if self.gst_interval <= 0 or self.heartbeat_interval <= 0:
            raise ConfigError("gst_interval and heartbeat_interval must be positive")

    def nodes(self):
        for d in range(self.num_datacenters):
            for p in range(self.partitions_per_dc):
                yield NodeId(d, p)


def partition_for_key(key: int, partitions: int) -> int:
    """Static contiguous range partitioning of the 64-bit key space."""
    return (int(key) * partitions) >> 64


def primary_node(key: int, topo: Topology, dc: int) -> NodeId:
    return NodeId(dc, partition_for_key(key, topo.partitions_per_dc))


def key_in_partition(partition: int, partitions: int, index: int = 0) -> int:
    """The index-th key of a partition's range (for workload generation)."""
    start = (partition * KEY_SPACE) // partitions
    key = start + 1 + index
    assert partition_for_key(key, partitions) == partition
    return key


# ---------------------------------------------------------------------------
# Lamport stamps: (counter, node index), totally ordered lexicographically.


class LamportClock:
    __slots__ = ("counter", "node_index")

    def __init__(self, node_index: int):
        self.counter = 0
        self.node_index = node_index

    def issue(self) -> tuple:
        self.counter += 1
        return (self.counter, self.node_index)

    def merge(self, stamp: tuple):
        if stamp[0] > self.counter:
            self.counter = stamp[0]


def node_index(node: NodeId, partitions_per_dc: int) -> int:
    return node.dc * partitions_per_dc + node.partition


# ---------------------------------------------------------------------------
# Vector clocks: mappings from node index to counter; absent entries read 0.

BEFORE, AFTER, EQUAL, CONCURRENT = "before", "after", "equal", "concurrent"


def vc_compare(a: dict, b: dict) -> str:
    less = greater = False
    for k, av in a.items():
        bv = b.get(k, 0)
        if av < bv:
            less = True
        elif av > bv:
            greater = True
    for k, bv in b.items():
        # an entry only b has reads 0 in a; counters are never negative
        if bv and k not in a:
            less = True
    if less and greater:
        return CONCURRENT
    if less:
        return BEFORE
    if greater:
        return AFTER
    return EQUAL


def vc_merge(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        if v > out.get(k, 0):
            out[k] = v
    return out


def vc_bump(vc: dict, entry) -> dict:
    out = dict(vc)
    out[entry] = out.get(entry, 0) + 1
    return out


def vc_key(vc: dict) -> tuple:
    """Deterministic total order on vector clocks, for tie-breaking only."""
    return tuple(sorted(vc.items()))
