"""Causal replication with client contexts and dependency checks.

Each client carries a context of ⟨key, version⟩ pairs it has observed.  A PUT
is stamped with a Lamport version, installed locally, acknowledged, and then
pushed to the sibling partition in every other datacenter together with the
client's context.  A remote replica makes the version visible only after every
context entry is visible in its own datacenter, verified by blocking
dependency checks against the local partitions that own those keys.
Replication traffic is fire-and-forget: a lost push simply leaves the remote
datacenter on the older version (and may park dependent versions forever).
"""

from __future__ import annotations

from ..history import PUT
from ..sim import Message, NodeId
from ..store import LamportClock, node_index, partition_for_key
from .base import BaseClient, GetReply, PutReply, ServerNode, replica_nodes

# version stamp of the initial (never written) value; always visible
INITIAL_VER = (0, -1)


class PutAfter(Message):
    __slots__ = ("key", "value", "ver", "context", "vid")
    tname = "put_after"

    def __init__(self, key, value, ver, context, vid):
        self.key, self.value, self.ver = key, value, ver
        self.context, self.vid = context, vid


class DepCheck(Message):
    __slots__ = ("key", "ver", "token")
    tname = "dep_check"

    def __init__(self, key, ver, token):
        self.key, self.ver, self.token = key, ver, token


class DepCheckReply(Message):
    __slots__ = ("token",)
    tname = "dep_check_reply"

    def __init__(self, token):
        self.token = token


class CopsServer(ServerNode):
    def __init__(self, node, topo, trace):
        super().__init__(node, topo, trace)
        self.lamport = LamportClock(node_index(node, topo.partitions_per_dc))
        self.visible = {}  # key -> set of visible version stamps
        self.head = {}  # key -> (ver, value, vid), newest visible version
        self.parked = {}  # (key, ver) -> list of waiters blocked on visibility
        self.pending = {}  # dep-check token -> pending-install record
        self._token = 0

    # -- visibility --------------------------------------------------------

    def _is_visible(self, key, ver) -> bool:
        return ver == INITIAL_VER or ver in self.visible.get(key, ())

    def _install(self, sim, key, ver, value, vid):
        self.visible.setdefault(key, set()).add(ver)
        head = self.head.get(key)
        if head is None or ver > head[0]:
            self.head[key] = (ver, value, vid)
        self.trace.record_visible(vid, self.node, sim.now)
        for waiter in self.parked.pop((key, ver), ()):
            if waiter[0] == "check":
                _, src, token = waiter
                sim.send(self.node, src, DepCheckReply(token))
            else:  # a local pending install was waiting on this version
                self._release(sim, waiter[1])

    def _release(self, sim, rec):
        """One dependency of a pending install is met; install at the last."""
        rec[0] -= 1
        if rec[0] == 0:
            m = rec[1]
            self._install(sim, m.key, m.ver, m.value, m.vid)

    # -- message handling --------------------------------------------------

    def on_get(self, sim, src, msg):
        head = self.head.get(msg.key)
        if head is None:
            reply = GetReply(msg.op_id, msg.key, None, INITIAL_VER, None)
        else:
            reply = GetReply(msg.op_id, msg.key, head[1], head[0], head[2])
        sim.send(self.node, msg.client, reply)

    def on_put(self, sim, src, msg):
        for ver in msg.context.values():
            self.lamport.merge(ver)
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
                    PutAfter(msg.key, msg.value, ver, msg.context, vid),
                )

    def on_put_after(self, sim, src, msg):
        self.lamport.merge(msg.ver)
        rec = [0, msg]
        for k2, ver2 in sorted(msg.context.items()):
            if ver2 == INITIAL_VER:
                continue
            p2 = partition_for_key(k2, self.topo.partitions_per_dc)
            if p2 == self.node.partition:
                if not self._is_visible(k2, ver2):
                    rec[0] += 1
                    self.parked.setdefault((k2, ver2), []).append(("local", rec))
            else:
                rec[0] += 1
                self._token += 1
                self.pending[self._token] = rec
                sim.send(
                    self.node,
                    NodeId(self.node.dc, p2),
                    DepCheck(k2, ver2, self._token),
                )
        if rec[0] == 0:
            self._install(sim, msg.key, msg.ver, msg.value, msg.vid)

    def on_dep_check(self, sim, src, msg):
        if self._is_visible(msg.key, msg.ver):
            sim.send(self.node, src, DepCheckReply(msg.token))
        else:
            self.parked.setdefault((msg.key, msg.ver), []).append(
                ("check", src, msg.token)
            )

    def on_dep_check_reply(self, sim, src, msg):
        rec = self.pending.pop(msg.token, None)
        if rec is not None:
            self._release(sim, rec)

    def final_heads(self):
        return {key: (vid,) for key, (_, _, vid) in self.head.items()}


class CopsClient(BaseClient):
    def __init__(self, cid, ops, harness):
        super().__init__(cid, ops, harness)
        self.context = {}  # key -> newest version stamp observed or written

    def put_context(self):
        return dict(self.context)

    def get_answered(self, sim, src, msg):
        if msg.stamp > self.context.get(msg.key, INITIAL_VER):
            self.context[msg.key] = msg.stamp
        super().get_answered(sim, src, msg)

    def put_answered(self, sim, src, msg):
        compaction = self.harness.topo.context_compaction
        if compaction:
            self.context = {msg.key: msg.stamp}
        else:
            self.context[msg.key] = msg.stamp
        self.wrote(msg.vid, compaction)
        self.complete_op(sim, PUT, msg.key)


CLIENT = CopsClient
SERVER = CopsServer
TRACE_MODE = "node"
