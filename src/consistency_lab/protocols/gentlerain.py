"""Timestamp-based causal replication with a global stable time cutoff.

Versions carry (physical-clock, sub-tick) timestamps.  Writes block until the
coordinator's clock exceeds the highest timestamp the client has seen, so a
single scalar per version suffices to encode causality.  Remote versions
become readable only once the Global Stable Time (GST) passes their
timestamp: each node tracks, per peer datacenter, the newest replicated
timestamp it has received (heartbeats fill idle gaps) and takes the minimum
as its Local Stable Time (LST).  Nodes periodically report their LST to the
datacenter's first partition, which derives the GST as the minimum of all
LSTs and fans the new value out to every partition.  The fan-out is modeled
as a fixed-latency control broadcast adopted by all partitions at the same
instant, so a datacenter's partitions never disagree about which stable
cutoff came first.  A GET returns the newest version that was either created
locally or is no newer than the GST.

Replication and heartbeats use the reliable FIFO channels: the stable-time
invariant ("everything at or below my per-peer watermark has arrived")
requires gap-free in-order delivery per peer.

In "hlc" clock mode the write path stamps versions with a hybrid
logical/physical clock instead of waiting out clock skew: the logical
component absorbs a last-seen timestamp that is ahead of the local clock.
"""

from __future__ import annotations

import heapq

from ..sim import Message, NodeId
from .base import BaseClient, GetReply, PutReply, ServerNode, replica_nodes

ZERO = (0, 0)


class GReplicate(Message):
    __slots__ = ("key", "value", "t", "origin", "vid")
    tname = "replicate"

    def __init__(self, key, value, t, origin, vid):
        self.key, self.value, self.t = key, value, t
        self.origin, self.vid = origin, vid


class GHeartbeat(Message):
    # control (uncharged) but still queued in arrival order at a busy node:
    # a heartbeat must never advance vv past a replicate waiting behind it
    __slots__ = ("t",)
    control = True
    tname = "heartbeat"

    def __init__(self, t):
        self.t = t


class GLst(Message):
    __slots__ = ("partition", "lst")
    control = True
    tname = "lst"

    def __init__(self, partition, lst):
        self.partition, self.lst = partition, lst


class _PutRetry(Message):
    # a stalled Put, re-armed with the time of its first receipt
    __slots__ = ("msg", "arrival")
    control = True
    tname = "put_retry"

    def __init__(self, msg, arrival):
        self.msg, self.arrival = msg, arrival


class _GstAdopt(Message):
    __slots__ = ("gst",)
    control = True
    tname = "gst_adopt"

    def __init__(self, gst):
        self.gst = gst


class _HbTick(Message):
    control = True
    tname = "hb_tick"


class _GstTick(Message):
    control = True
    tname = "gst_tick"


class GentleRainServer(ServerNode):
    def __init__(self, node, topo, trace):
        super().__init__(node, topo, trace)
        self.visible_head = {}  # key -> (t, origin_dc, value, vid)
        self.peers = [d for d in range(topo.num_datacenters) if d != node.dc]
        self.vv = {d: ZERO for d in self.peers}  # newest stamp seen per peer
        self.lst_table = {}  # aggregator only: partition -> reported LST
        self.gst = ZERO
        self.broadcast_gst = ZERO  # aggregator only: last value fanned out
        self.pending = []  # heap of remote versions above the GST
        self.hlc_last = ZERO

    def start(self, sim, offset=0):
        sim.schedule_timer(self.node, _HbTick(), offset % self.topo.heartbeat_interval)
        sim.schedule_timer(self.node, _GstTick(), offset % self.topo.gst_interval)

    # -- timestamps --------------------------------------------------------

    def next_stamp(self, sim, observed=ZERO):
        if self.topo.clock_mode == "physical":
            return sim.clock_stamp(self.node)
        pc = sim.physical_clock(self.node)
        l = max(pc, self.hlc_last[0], observed[0])
        if l == self.hlc_last[0] and l == observed[0]:
            c = max(self.hlc_last[1], observed[1]) + 1
        elif l == self.hlc_last[0]:
            c = self.hlc_last[1] + 1
        elif l == observed[0]:
            c = observed[1] + 1
        else:
            c = 0
        self.hlc_last = (l, c)
        return self.hlc_last

    def _lst(self, sim):
        if not self.peers:
            return self.next_stamp(sim)
        return min(self.vv[d] for d in self.peers)

    def _aggregate_gst(self, sim):
        """Aggregator (partition 0) only: recompute the GST and fan it out to
        every partition with a fixed-latency synchronized broadcast."""
        if len(self.lst_table) < self.topo.partitions_per_dc:
            return
        g = min(self.lst_table.values())
        if g > self.broadcast_gst:
            self.broadcast_gst = g
            delay = max(1, sim.network.intra_dc_latency)
            for p in range(self.topo.partitions_per_dc):
                sim.schedule_timer(NodeId(self.node.dc, p), _GstAdopt(g), delay)

    def _adopt_gst(self, sim, g):
        if g > self.gst:
            self.gst = g
            while self.pending and (self.pending[0][0], self.pending[0][1]) <= g:
                t_us, sub, origin, key, value, vid = heapq.heappop(self.pending)
                self._make_readable(sim, key, (t_us, sub), origin, value, vid)

    def _make_readable(self, sim, key, t, origin, value, vid):
        head = self.visible_head.get(key)
        if head is None or (t, origin) > (head[0], head[1]):
            self.visible_head[key] = (t, origin, value, vid)
        self.trace.record_visible(vid, self.node, sim.now)

    # -- writes ------------------------------------------------------------

    def _put(self, sim, msg, arrival):
        last_seen = msg.context  # the client's newest seen timestamp
        if self.topo.clock_mode == "physical":
            pc = sim.physical_clock(self.node)
            if pc <= last_seen[0]:
                # clock-skew stall: wait until our clock passes the newest
                # timestamp this client has observed
                sim.schedule_timer(
                    self.node, _PutRetry(msg, arrival), last_seen[0] - pc + 1
                )
                return
        self.put_wait_total += sim.now - arrival
        t = self.next_stamp(sim, observed=last_seen)
        vid = self.trace.new_version(
            msg.key, msg.value, self.node, sim.now, msg.dep_vids, stamp=t
        )
        self._make_readable(sim, msg.key, t, self.node.dc, msg.value, vid)
        sim.send(self.node, msg.client, PutReply(msg.op_id, msg.key, t, vid))
        for dc in self.peers:
            sim.send_reliable(
                self.node,
                NodeId(dc, self.node.partition),
                GReplicate(msg.key, msg.value, t, self.node.dc, vid),
            )

    # -- message handling --------------------------------------------------

    def on_get(self, sim, src, msg):
        head = self.visible_head.get(msg.key)
        if head is None:
            reply = GetReply(msg.op_id, msg.key, None, ZERO, None)
        else:
            reply = GetReply(msg.op_id, msg.key, head[2], head[0], head[3])
        sim.send(self.node, msg.client, reply)

    def on_put(self, sim, src, msg):
        self._put(sim, msg, sim.now)

    def on_put_retry(self, sim, src, msg):
        if not sim.is_crashed(self.node):  # else it dies with the node
            self._put(sim, msg.msg, msg.arrival)

    def on_replicate(self, sim, src, msg):
        if msg.t > self.vv[msg.origin]:
            self.vv[msg.origin] = msg.t
        if msg.t <= self.gst:
            self._make_readable(sim, msg.key, msg.t, msg.origin, msg.value, msg.vid)
        else:
            heapq.heappush(
                self.pending,
                (msg.t[0], msg.t[1], msg.origin, msg.key, msg.value, msg.vid),
            )

    def on_heartbeat(self, sim, src, msg):
        origin = src.dc
        if origin in self.vv and msg.t > self.vv[origin]:
            self.vv[origin] = msg.t

    def on_lst(self, sim, src, msg):
        old = self.lst_table.get(msg.partition)
        if old is None or msg.lst > old:
            self.lst_table[msg.partition] = msg.lst
        self._aggregate_gst(sim)

    def on_gst_adopt(self, sim, src, msg):
        # adopted even while crashed: the cutoff is a datacenter-wide
        # fact, and a recovering node re-derives it before serving reads
        self._adopt_gst(sim, msg.gst)

    def on_hb_tick(self, sim, src, msg):
        if not sim.is_crashed(self.node):
            t = self.next_stamp(sim)
            for dc in self.peers:
                sim.send_reliable(
                    self.node, NodeId(dc, self.node.partition), GHeartbeat(t)
                )
        sim.schedule_timer(self.node, _HbTick(), self.topo.heartbeat_interval)

    def on_gst_tick(self, sim, src, msg):
        if not sim.is_crashed(self.node):
            lst = self._lst(sim)
            if self.node.partition == 0:
                old = self.lst_table.get(0)
                if old is None or lst > old:
                    self.lst_table[0] = lst
                self._aggregate_gst(sim)
            else:
                sim.send(
                    self.node,
                    NodeId(self.node.dc, 0),
                    GLst(self.node.partition, lst),
                )
        sim.schedule_timer(self.node, _GstTick(), self.topo.gst_interval)

    def final_heads(self):
        return {key: (h[3],) for key, h in self.visible_head.items()}


class GentleRainClient(BaseClient):
    last_seen = ZERO  # newest version timestamp this client has seen

    def put_context(self):
        return self.last_seen

    def get_answered(self, sim, src, msg):
        self.last_seen = max(self.last_seen, msg.stamp)
        super().get_answered(sim, src, msg)

    def put_answered(self, sim, src, msg):
        self.last_seen = max(self.last_seen, msg.stamp)
        super().put_answered(sim, src, msg)


CLIENT = GentleRainClient
SERVER = GentleRainServer
TRACE_MODE = "node"
