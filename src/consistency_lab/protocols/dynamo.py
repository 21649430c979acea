"""Leaderless quorum replication with vector clocks and hinted handoff.

Every key has a preference list of nodes spread round-robin across
datacenters.  The client sends each operation to the first healthy node on
the list, which coordinates a sloppy quorum: a PUT is stamped with a bumped
vector clock, stored locally, pushed to N-1 further nodes, and acknowledged
to the client once W-1 remote acks arrive; a GET collects R replica responses
(the coordinator's own store counts as one) and returns the maximal (by
vector clock) set of versions.  When a replica is suspected down the
coordinator skips to a spare and attaches a hint naming the intended owner;
the spare probes the owner periodically and forwards the version once it
answers.  Store requests that go unacknowledged are re-issued to the next
spare the same way, so a write settles on reachable nodes even before the
failure detector has caught up.
"""

from __future__ import annotations

import functools

from ..history import GET, PUT
from ..sim import Message, NodeId
from ..store import (
    AFTER,
    BEFORE,
    EQUAL,
    node_index,
    partition_for_key,
    vc_compare,
    vc_key,
    vc_merge,
)
from .base import BaseClient, OpTimeout, ServerNode


def _mix(key: int) -> int:
    """64-bit integer hash (splittable-mix finalizer)."""
    x = key & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 33)) * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 33)) * 0xC4CEB9FE1A85EC53) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 33)


def preference_list(key, topo):
    """Ranked replica candidates for a key: datacenters rotate fastest so the
    top N straddles datacenters, partitions advance once per full rotation.
    The tuple holds n + spares distinct nodes; the first n are the owners."""
    return _preference_list(
        key, topo.num_datacenters, topo.partitions_per_dc, topo.n + topo.spares
    )


@functools.lru_cache(maxsize=1 << 16)
def _preference_list(key, d_count, p_count, length):
    first_dc = _mix(key) % d_count
    base_part = partition_for_key(key, p_count)
    return tuple(
        NodeId((first_dc + r) % d_count, (base_part + r // d_count) % p_count)
        for r in range(min(d_count * p_count, length))
    )


class DPut(Message):
    __slots__ = ("client", "op_id", "key", "value", "context_vc", "dep_vids")
    tname = "put"

    def __init__(self, client, op_id, key, value, context_vc, dep_vids):
        self.client, self.op_id, self.key = client, op_id, key
        self.value, self.context_vc, self.dep_vids = value, context_vc, dep_vids


class DGet(Message):
    __slots__ = ("client", "op_id", "key")
    tname = "get"

    def __init__(self, client, op_id, key):
        self.client, self.op_id, self.key = client, op_id, key


class DPutReply(Message):
    __slots__ = ("op_id", "ok", "vc", "vid")
    tname = "put_reply"

    def __init__(self, op_id, ok, vc=None, vid=None):
        self.op_id, self.ok, self.vc, self.vid = op_id, ok, vc, vid


class DGetReply(Message):
    __slots__ = ("op_id", "ok", "versions")
    tname = "get_reply"

    def __init__(self, op_id, ok, versions=()):
        self.op_id, self.ok, self.versions = op_id, ok, versions


class DStore(Message):
    __slots__ = ("key", "version", "hint_for", "token")
    tname = "store"

    def __init__(self, key, version, hint_for=None, token=None):
        self.key, self.version = key, version
        self.hint_for, self.token = hint_for, token


class DStoreAck(Message):
    __slots__ = ("token",)
    tname = "store_ack"

    def __init__(self, token):
        self.token = token


class DRead(Message):
    __slots__ = ("key", "token")
    tname = "read"

    def __init__(self, key, token):
        self.key, self.token = key, token


class DReadReply(Message):
    __slots__ = ("token", "versions")
    tname = "read_reply"

    def __init__(self, token, versions):
        self.token, self.versions = token, versions


class DPing(Message):
    control = True
    tname = "ping"


class DPong(Message):
    control = True
    tname = "pong"


class _QTimer(Message):
    __slots__ = ("token",)
    control = True
    tname = "quorum_timer"

    def __init__(self, token):
        self.token = token


class _TTimer(Message):
    __slots__ = ("token", "target")
    control = True
    tname = "target_timer"

    def __init__(self, token, target):
        self.token, self.target = token, target


class _ProbeTick(Message):
    control = True
    tname = "probe_tick"


def install(store, key, version):
    """Add a version to a key's sibling set, pruning dominated versions.
    Returns the updated maximal set."""
    vid, _value, vc = version
    cur = store.get(key, [])
    for old in cur:
        if old[0] == vid:
            return cur  # duplicate delivery
    keep = []
    add = True
    for old in cur:
        rel = vc_compare(old[2], vc)
        if rel == BEFORE:
            continue  # old version superseded by the new one
        keep.append(old)
        if rel in (AFTER, EQUAL):
            add = False  # new version already subsumed
    if add:
        keep.append(version)
    store[key] = keep
    return keep


class DynamoServer(ServerNode):
    def __init__(self, node, topo, trace, quorum_timeout=10_000, suspicion=50_000):
        super().__init__(node, topo, trace)
        self.quorum_timeout = quorum_timeout
        self.suspicion = suspicion
        self.store = {}  # key -> list of maximal (vid, value, vc) versions
        self.counters = {}  # key -> our own highest issued vc entry
        self.hints = []  # (intended NodeId, key, version)
        self.detector = {}  # peer -> [last_ok, last_fail]
        self.pending_put = {}
        self.pending_get = {}
        self._token = 0
        self._probe_scheduled = False

    def start(self, sim, offset=0):
        pass

    # -- failure detection -------------------------------------------------

    def _mark_ok(self, sim, peer):
        self.detector.setdefault(peer, [-1, -1])[0] = sim.now

    def _mark_fail(self, sim, peer):
        self.detector.setdefault(peer, [-1, -1])[1] = sim.now

    def _healthy(self, sim, peer) -> bool:
        st = self.detector.get(peer)
        if st and st[1] > st[0] and sim.now - st[1] < self.suspicion:
            return False
        return True

    # -- replica-set choice ------------------------------------------------

    def _choose(self, sim, pref):
        """Pick n-1 store/read targets (besides us), substituting spares for
        suspected owners; returns (targets, hint_map target->intended owner)."""
        n = self.topo.n
        targets = []
        for node in pref:
            if node == self.node:
                continue
            if len(targets) == n - 1:
                break
            if self._healthy(sim, node):
                targets.append(node)
        owners = pref[: n]
        skipped = [o for o in owners if o != self.node and o not in targets]
        substitutes = [t for t in targets if t not in owners]
        hint_map = dict(zip(substitutes, skipped))
        return targets, hint_map

    def _schedule_probe(self, sim):
        if not self._probe_scheduled:
            self._probe_scheduled = True
            sim.schedule_timer(self.node, _ProbeTick(), self.suspicion)

    # -- message handling --------------------------------------------------

    def handle(self, sim, src, msg):
        if isinstance(msg, DPut):
            self._coordinate_put(sim, msg)
        elif isinstance(msg, DGet):
            self._coordinate_get(sim, msg)
        elif isinstance(msg, DStore):
            install(self.store, msg.key, msg.version)
            self.trace.record_visible(msg.version[0], self.node, sim.now)
            if msg.hint_for is not None and msg.hint_for != self.node:
                self.hints.append((msg.hint_for, msg.key, msg.version))
                self._schedule_probe(sim)
            if msg.token is not None:
                sim.send(self.node, src, DStoreAck(msg.token))
        elif isinstance(msg, DStoreAck):
            self._on_store_ack(sim, src, msg)
        elif isinstance(msg, DRead):
            versions = tuple(self.store.get(msg.key, ()))
            sim.send(self.node, src, DReadReply(msg.token, versions))
        elif isinstance(msg, DReadReply):
            self._on_read_reply(sim, src, msg)
        elif isinstance(msg, DPing):
            sim.send(self.node, src, DPong())
        elif isinstance(msg, DPong):
            self._mark_ok(sim, src)
            self._handoff(sim, src)
        elif isinstance(msg, _ProbeTick):
            self._probe_scheduled = False
            if self.hints and not sim.is_crashed(self.node):
                for intended in sorted({h[0] for h in self.hints}):
                    sim.send(self.node, intended, DPing())
                self._schedule_probe(sim)
        elif isinstance(msg, _QTimer):
            if msg.token in self.pending_put:
                self._on_quorum_timeout(sim, msg.token)
            else:
                self._on_quorum_timeout_get(sim, msg.token)
        elif isinstance(msg, _TTimer):
            self._on_target_timeout(sim, msg.token, msg.target)

    # -- writes ------------------------------------------------------------

    def _coordinate_put(self, sim, msg):
        # our vc entry must stay monotone per key across client sessions, or
        # two empty-context writes through us would collide on the same clock
        idx = node_index(self.node, self.topo.partitions_per_dc)
        c = max(self.counters.get(msg.key, 0), msg.context_vc.get(idx, 0)) + 1
        self.counters[msg.key] = c
        vc = dict(msg.context_vc)
        vc[idx] = c
        vid = self.trace.new_version(
            msg.key, msg.value, self.node, sim.now, msg.dep_vids, stamp=dict(vc)
        )
        version = (vid, msg.value, vc)
        install(self.store, msg.key, version)
        self.trace.record_visible(vid, self.node, sim.now)

        pref = preference_list(msg.key, self.topo)
        targets, hint_map = self._choose(sim, pref)
        rec = {
            "client": msg.client,
            "op_id": msg.op_id,
            "key": msg.key,
            "vid": vid,
            "vc": vc,
            "version": version,
            "pref": pref,
            "acks": set(),
            "needed": self.topo.w - 1,
            "used": set(targets) | {self.node},
            "hint_map": hint_map,
            "replied": False,
            "completed": False,
        }
        self._token += 1
        token = self._token
        self.pending_put[token] = rec
        for t in targets:
            sim.send(
                self.node,
                t,
                DStore(msg.key, version, hint_map.get(t), token),
            )
            sim.schedule_timer(self.node, _TTimer(token, t), self.quorum_timeout)
        if rec["needed"] <= 0:
            self._finish_put(sim, token, rec)
        else:
            sim.schedule_timer(self.node, _QTimer(token), self.quorum_timeout)

    def _finish_put(self, sim, token, rec):
        if not rec["completed"]:
            rec["completed"] = True
            self.trace.record_completion(rec["vid"], sim.now)
        if not rec["replied"]:
            rec["replied"] = True
            sim.send(
                self.node,
                rec["client"],
                DPutReply(rec["op_id"], True, dict(rec["vc"]), rec["vid"]),
            )

    def _on_store_ack(self, sim, src, msg):
        self._mark_ok(sim, src)
        rec = self.pending_put.get(msg.token)
        if rec is None:
            return
        rec["acks"].add(src)
        if len(rec["acks"]) >= rec["needed"]:
            self._finish_put(sim, msg.token, rec)

    def _on_target_timeout(self, sim, token, target):
        rec = self.pending_put.get(token)
        if rec is None or target in rec["acks"]:
            return
        self._mark_fail(sim, target)
        owner = rec["hint_map"].get(target, target)
        for cand in rec["pref"]:
            if cand in rec["used"] or not self._healthy(sim, cand):
                continue
            rec["used"].add(cand)
            rec["hint_map"][cand] = owner
            sim.send(
                self.node,
                cand,
                DStore(rec["key"], rec["version"], owner, token),
            )
            sim.schedule_timer(self.node, _TTimer(token, cand), self.quorum_timeout)
            return

    def _on_quorum_timeout(self, sim, token):
        rec = self.pending_put.get(token)
        if rec is None or rec["replied"]:
            return
        rec["replied"] = True
        sim.send(self.node, rec["client"], DPutReply(rec["op_id"], False))

    # -- reads -------------------------------------------------------------

    def _coordinate_get(self, sim, msg):
        pref = preference_list(msg.key, self.topo)
        targets, _ = self._choose(sim, pref)
        rec = {
            "client": msg.client,
            "op_id": msg.op_id,
            "key": msg.key,
            "versions": list(self.store.get(msg.key, ())),
            "count": 1,  # our own store is the first response
            "needed": self.topo.r,
            "replied": False,
        }
        self._token += 1
        token = self._token
        self.pending_get[token] = rec
        if rec["count"] >= rec["needed"]:
            self._finish_get(sim, rec)
            return
        for t in targets:
            sim.send(self.node, t, DRead(msg.key, token))
        sim.schedule_timer(self.node, _QTimer(token), self.quorum_timeout)

    def _finish_get(self, sim, rec):
        if rec["replied"]:
            return
        rec["replied"] = True
        merged = {}
        for v in rec["versions"]:
            install(merged, rec["key"], v)
        result = tuple(
            sorted(merged.get(rec["key"], ()), key=lambda v: (vc_key(v[2]), v[0]))
        )
        sim.send(self.node, rec["client"], DGetReply(rec["op_id"], True, result))

    def _on_read_reply(self, sim, src, msg):
        self._mark_ok(sim, src)
        rec = self.pending_get.get(msg.token)
        if rec is None or rec["replied"]:
            return
        rec["versions"].extend(msg.versions)
        rec["count"] += 1
        if rec["count"] >= rec["needed"]:
            self._finish_get(sim, rec)

    # quorum timeout for reads reuses _QTimer; distinguish by table lookup
    def _on_quorum_timeout_get(self, sim, token):
        rec = self.pending_get.get(token)
        if rec is None or rec["replied"]:
            return
        rec["replied"] = True
        sim.send(self.node, rec["client"], DGetReply(rec["op_id"], False))

    # -- hinted handoff ----------------------------------------------------

    def _handoff(self, sim, recovered):
        remaining = []
        for intended, key, version in self.hints:
            if intended == recovered:
                sim.send_reliable(self.node, intended, DStore(key, version))
                pref = preference_list(key, self.topo)
                if self.node not in pref[: self.topo.n]:
                    # we were only a stand-in: drop our copy
                    cur = self.store.get(key, [])
                    self.store[key] = [v for v in cur if v[0] != version[0]]
            else:
                remaining.append((intended, key, version))
        self.hints = remaining

    def final_heads(self):
        return {
            key: tuple(sorted(v[0] for v in versions))
            for key, versions in self.store.items()
            if versions
        }


class DynamoClient(BaseClient):
    def __init__(self, cid, ops, harness):
        super().__init__(cid, ops, harness)
        self.detector = {}
        self.attempted = set()

    def _healthy(self, sim, node) -> bool:
        st = self.detector.get(node)
        if st and st[1] > st[0] and sim.now - st[1] < self.harness.suspicion_window:
            return False
        return True

    def _pick_coordinator(self, sim, key):
        pref = preference_list(key, self.harness.topo)
        for node in pref:
            if node in self.attempted:
                continue
            if self._healthy(sim, node):
                return node
        for node in pref:  # all suspected: try them anyway, in order
            if node not in self.attempted:
                return node
        return None

    def send_request(self, sim, kind, key, value):
        self.attempted = set()
        self._issue_attempt(sim, kind, key, value)

    def _issue_attempt(self, sim, kind, key, value):
        coord = self._pick_coordinator(sim, key)
        if coord is None:
            return  # nobody left to try; the op timeout will fail the op
        self.attempted.add(coord)
        self.coord = coord
        if kind == PUT:
            msg = DPut(
                self.cid,
                self.cur_op_id,
                key,
                value,
                dict(self.session.context_vc),
                self.current_deps(),
            )
        else:
            msg = DGet(self.cid, self.cur_op_id, key)
        sim.send(self.cid, coord, msg)

    def on_timeout(self, sim) -> bool:
        self.detector.setdefault(self.coord, [-1, -1])[1] = sim.now
        kind, key, value = self.ops[self.idx]
        pref = preference_list(key, self.harness.topo)
        if self.attempted >= set(pref):
            return False  # exhausted the preference list: fail the op
        self._issue_attempt(sim, kind, key, value)
        sim.schedule_timer(self.cid, OpTimeout(self.token), self.harness.op_timeout)
        return True

    def on_reply(self, sim, src, msg):
        if msg.op_id != self.cur_op_id:
            return
        self.detector.setdefault(src, [-1, -1])[0] = sim.now
        if isinstance(msg, DPutReply):
            if not msg.ok:
                self.fail_op(sim)
                return
            self.session.context_vc = msg.vc
            self.wrote(msg.vid)
            kind, key, _ = self.ops[self.idx]
            self.complete_op(sim, PUT, key)
        elif isinstance(msg, DGetReply):
            if not msg.ok:
                self.fail_op(sim)
                return
            kind, key, _ = self.ops[self.idx]
            if msg.versions:
                for vid, _v, vc in msg.versions:
                    self.observe(vid)
                    self.session.context_vc = vc_merge(self.session.context_vc, vc)
                # deterministic representative of the sibling set
                value = msg.versions[-1][1]
            else:
                value = None
            self.complete_op(sim, GET, key, value)


def make_server(node, topo, trace, quorum_timeout, suspicion):
    return DynamoServer(node, topo, trace, quorum_timeout, suspicion)


CLIENT = DynamoClient
SERVER = DynamoServer
TRACE_MODE = "quorum"
