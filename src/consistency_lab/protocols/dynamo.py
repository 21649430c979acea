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


def replica_nodes(key, topo):
    """The key's owners: the top N of its preference list."""
    return preference_list(key, topo)[: topo.n]


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


class _Detector(dict):
    """Failure detector: peer -> [last_ok, last_fail].  A peer is suspected
    for `window` us after a failure newer than its last success."""

    def __init__(self, window):
        self.window = window

    def ok(self, peer, now):
        self.setdefault(peer, [-1, -1])[0] = now

    def fail(self, peer, now):
        self.setdefault(peer, [-1, -1])[1] = now

    def healthy(self, peer, now) -> bool:
        st = self.get(peer)
        return not (st and st[1] > st[0] and now - st[1] < self.window)


class _PutRec:
    """A coordinated PUT: its request, the version it made, and the store
    targets tried so far."""

    __slots__ = ("msg", "version", "pref", "acks", "used", "hint_map", "replied", "completed")

    def __init__(self, msg, version, pref, used, hint_map):
        self.msg, self.version, self.pref = msg, version, pref
        self.acks = set()
        self.used, self.hint_map = used, hint_map
        self.replied = self.completed = False


class _GetRec:
    """A coordinated GET: its request and the versions collected so far from
    `count` responses."""

    __slots__ = ("msg", "versions", "count")

    def __init__(self, msg, versions):
        self.msg, self.versions = msg, versions
        self.count = 1  # our own store is the first response


class DynamoServer(ServerNode):
    def __init__(self, node, topo, trace, quorum_timeout=10_000, suspicion=50_000):
        super().__init__(node, topo, trace)
        self.quorum_timeout = quorum_timeout
        self.store = {}  # key -> list of maximal (vid, value, vc) versions
        self.counters = {}  # key -> our own highest issued vc entry
        self.hints = []  # (intended NodeId, key, version)
        self.detector = _Detector(suspicion)
        self.pending_put = {}  # token -> _PutRec, until answered and fully acked
        self.pending_get = {}  # token -> _GetRec, until answered or timed out
        self._token = 0
        self._probe_scheduled = False

    @classmethod
    def from_config(cls, node, trace, cfg):
        return cls(node, cfg.topology, trace, cfg.quorum_timeout(), cfg.run.suspicion_window)

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
            if self.detector.healthy(node, sim.now):
                targets.append(node)
        owners = pref[: n]
        skipped = [o for o in owners if o != self.node and o not in targets]
        substitutes = [t for t in targets if t not in owners]
        hint_map = dict(zip(substitutes, skipped))
        return targets, hint_map

    def _schedule_probe(self, sim):
        if not self._probe_scheduled:
            self._probe_scheduled = True
            sim.schedule_timer(self.node, _ProbeTick(), self.detector.window)

    # -- replicas ----------------------------------------------------------

    def on_store(self, sim, src, msg):
        install(self.store, msg.key, msg.version)
        self.trace.record_visible(msg.version[0], self.node, sim.now)
        if msg.hint_for is not None and msg.hint_for != self.node:
            self.hints.append((msg.hint_for, msg.key, msg.version))
            self._schedule_probe(sim)
        if msg.token is not None:
            sim.send(self.node, src, DStoreAck(msg.token))

    def on_read(self, sim, src, msg):
        versions = tuple(self.store.get(msg.key, ()))
        sim.send(self.node, src, DReadReply(msg.token, versions))

    def on_ping(self, sim, src, msg):
        sim.send(self.node, src, DPong())

    # -- writes ------------------------------------------------------------

    def on_put(self, sim, src, msg):
        # our vc entry must stay monotone per key across client sessions, or
        # two empty-context writes through us would collide on the same clock
        idx = node_index(self.node, self.topo.partitions_per_dc)
        c = max(self.counters.get(msg.key, 0), msg.context.get(idx, 0)) + 1
        self.counters[msg.key] = c
        vc = dict(msg.context)
        vc[idx] = c
        vid = self.trace.new_version(
            msg.key, msg.value, self.node, sim.now, msg.dep_vids, stamp=dict(vc)
        )
        version = (vid, msg.value, vc)
        install(self.store, msg.key, version)
        self.trace.record_visible(vid, self.node, sim.now)

        pref = preference_list(msg.key, self.topo)
        targets, hint_map = self._choose(sim, pref)
        rec = _PutRec(msg, version, pref, set(targets) | {self.node}, hint_map)
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
        if self.topo.w <= 1:
            self._finish_put(sim, rec)
            self._settle(token, rec)
        else:
            sim.schedule_timer(self.node, _QTimer(token), self.quorum_timeout)

    def _finish_put(self, sim, rec):
        vid, _, vc = rec.version
        if not rec.completed:
            rec.completed = True
            self.trace.record_completion(vid, sim.now)
        if not rec.replied:
            rec.replied = True
            sim.send(self.node, rec.msg.client, DPutReply(rec.msg.op_id, True, dict(vc), vid))

    def on_store_ack(self, sim, src, msg):
        self.detector.ok(src, sim.now)
        rec = self.pending_put.get(msg.token)
        if rec is None:
            return
        rec.acks.add(src)
        if len(rec.acks) >= self.topo.w - 1:
            self._finish_put(sim, rec)
        self._settle(msg.token, rec)

    def _settle(self, token, rec):
        """Forget a put once it is answered and every store target it was
        sent to has acked: only stale timers can name its token after that."""
        if rec.replied and len(rec.acks) == len(rec.used) - 1:
            del self.pending_put[token]

    def on_target_timer(self, sim, src, msg):
        rec = self.pending_put.get(msg.token)
        if rec is None or msg.target in rec.acks:
            return
        self.detector.fail(msg.target, sim.now)
        owner = rec.hint_map.get(msg.target, msg.target)
        for cand in rec.pref:
            if cand in rec.used or not self.detector.healthy(cand, sim.now):
                continue
            rec.used.add(cand)
            rec.hint_map[cand] = owner
            sim.send(
                self.node,
                cand,
                DStore(rec.msg.key, rec.version, owner, msg.token),
            )
            sim.schedule_timer(self.node, _TTimer(msg.token, cand), self.quorum_timeout)
            return

    def on_quorum_timer(self, sim, src, msg):
        """No quorum in time: refuse the op, unless it was answered."""
        rec = self.pending_get.pop(msg.token, None)
        if rec is not None:
            sim.send(self.node, rec.msg.client, DGetReply(rec.msg.op_id, False))
            return
        rec = self.pending_put.get(msg.token)
        if rec is not None and not rec.replied:
            rec.replied = True
            sim.send(self.node, rec.msg.client, DPutReply(rec.msg.op_id, False))
            self._settle(msg.token, rec)

    # -- reads -------------------------------------------------------------

    def on_get(self, sim, src, msg):
        pref = preference_list(msg.key, self.topo)
        targets, _ = self._choose(sim, pref)
        rec = _GetRec(msg, list(self.store.get(msg.key, ())))
        self._token += 1
        token = self._token
        if rec.count >= self.topo.r:
            self._finish_get(sim, rec)
            return
        self.pending_get[token] = rec
        for t in targets:
            sim.send(self.node, t, DRead(msg.key, token))
        sim.schedule_timer(self.node, _QTimer(token), self.quorum_timeout)

    def _finish_get(self, sim, rec):
        key = rec.msg.key
        merged = {}
        for v in rec.versions:
            install(merged, key, v)
        result = tuple(sorted(merged.get(key, ()), key=lambda v: (vc_key(v[2]), v[0])))
        sim.send(self.node, rec.msg.client, DGetReply(rec.msg.op_id, True, result))

    def on_read_reply(self, sim, src, msg):
        self.detector.ok(src, sim.now)
        rec = self.pending_get.get(msg.token)
        if rec is None:
            return
        rec.versions.extend(msg.versions)
        rec.count += 1
        if rec.count >= self.topo.r:
            del self.pending_get[msg.token]
            self._finish_get(sim, rec)

    # -- hinted handoff ----------------------------------------------------

    def on_probe_tick(self, sim, src, msg):
        self._probe_scheduled = False
        if self.hints and not sim.is_crashed(self.node):
            for intended in sorted({h[0] for h in self.hints}):
                sim.send(self.node, intended, DPing())
            self._schedule_probe(sim)

    def on_pong(self, sim, src, msg):
        """`src` answers again: hand it the versions we hold for it."""
        self.detector.ok(src, sim.now)
        remaining = []
        for intended, key, version in self.hints:
            if intended == src:
                sim.send_reliable(self.node, intended, DStore(key, version))
                if self.node not in replica_nodes(key, self.topo):
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
    """Sends each op to the first healthy node of the key's preference list,
    and retries on the next one when the op times out."""

    def __init__(self, cid, ops, harness):
        super().__init__(cid, ops, harness)
        cfg = harness.cfg
        # the client must outwait the coordinator's quorum timeout
        self.op_timeout = max(self.op_timeout, 2 * cfg.quorum_timeout())
        self.context_vc = {}  # merged vector clock of every version seen
        self.detector = _Detector(cfg.run.suspicion_window)
        self.attempted = set()

    def _pick_coordinator(self, sim, key):
        pref = preference_list(key, self.harness.topo)
        for node in pref:
            if node in self.attempted:
                continue
            if self.detector.healthy(node, sim.now):
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
        self.send_to(sim, coord, kind, key, value)

    def put_context(self):
        return dict(self.context_vc)

    def retry(self, sim) -> bool:
        self.detector.fail(self.coord, sim.now)
        kind, key, value = self.ops[self.idx]
        pref = preference_list(key, self.harness.topo)
        if self.attempted >= set(pref):
            return False  # exhausted the preference list: fail the op
        self._issue_attempt(sim, kind, key, value)
        sim.schedule_timer(self.cid, OpTimeout(self.cur_op_id), self.op_timeout)
        return True

    def _answered(self, sim, src, msg) -> bool:
        """Note the coordinator alive; fail the op if it refused."""
        self.detector.ok(src, sim.now)
        if not msg.ok:
            self.finish_op(sim, ok=False)
        return msg.ok

    def put_answered(self, sim, src, msg):
        if self._answered(sim, src, msg):
            self.context_vc = msg.vc
            self.wrote(msg.vid)
            self.complete_op(sim, PUT, self.ops[self.idx][1])

    def get_answered(self, sim, src, msg):
        if self._answered(sim, src, msg):
            for vid, _v, vc in msg.versions:
                self.observe(vid)
                self.context_vc = vc_merge(self.context_vc, vc)
            # deterministic representative of the sibling set
            value = msg.versions[-1][1] if msg.versions else None
            self.complete_op(sim, GET, self.ops[self.idx][1], value)


CLIENT = DynamoClient
SERVER = DynamoServer
TRACE_MODE = "quorum"
