"""Last-writer-wins eventual replication: the weakest baseline.

A PUT is stamped with a Lamport version, installed and acknowledged
immediately, and pushed fire-and-forget to the sibling partition in every
other datacenter, where it becomes visible on arrival if its stamp is newer
than the current head.  No dependency metadata is carried or checked.
"""

from __future__ import annotations

from ..sim import Message, NodeId
from ..store import LamportClock, node_index
from .base import BaseClient, GetReply, PutReply, ServerNode, replica_nodes


class EReplicate(Message):
    __slots__ = ("key", "value", "ver", "vid")
    tname = "replicate"

    def __init__(self, key, value, ver, vid):
        self.key, self.value, self.ver, self.vid = key, value, ver, vid


class EventualServer(ServerNode):
    def __init__(self, node, topo, trace):
        super().__init__(node, topo, trace)
        self.lamport = LamportClock(node_index(node, topo.partitions_per_dc))
        self.head = {}  # key -> (ver, value, vid)

    def _install(self, sim, key, ver, value, vid):
        cur = self.head.get(key)
        if cur is None or ver > cur[0]:
            self.head[key] = (ver, value, vid)
        self.trace.record_visible(vid, self.node, sim.now)

    def on_get(self, sim, src, msg):
        cur = self.head.get(msg.key)
        if cur is None:
            reply = GetReply(msg.op_id, msg.key, None, None, None)
        else:
            reply = GetReply(msg.op_id, msg.key, cur[1], cur[0], cur[2])
        sim.send(self.node, msg.client, reply)

    def on_put(self, sim, src, msg):
        ver = self.lamport.issue()
        vid = self.trace.new_version(
            msg.key, msg.value, self.node, sim.now, msg.dep_vids, stamp=ver
        )
        self._install(sim, msg.key, ver, msg.value, vid)
        sim.send(self.node, msg.client, PutReply(msg.op_id, msg.key, ver, vid))
        for dc in range(self.topo.num_datacenters):
            if dc != self.node.dc:
                sim.send(
                    self.node,
                    NodeId(dc, self.node.partition),
                    EReplicate(msg.key, msg.value, ver, vid),
                )

    def on_replicate(self, sim, src, msg):
        self.lamport.merge(msg.ver)
        self._install(sim, msg.key, msg.ver, msg.value, msg.vid)

    def final_heads(self):
        return {key: (vid,) for key, (_, _, vid) in self.head.items()}


class EventualClient(BaseClient):
    """The shared driver unchanged: an eventual PUT carries no context.  A
    class of its own, so that every protocol's CLIENT is a distinct class."""


CLIENT = EventualClient
SERVER = EventualServer
TRACE_MODE = "node"
