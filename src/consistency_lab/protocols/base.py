"""The protocol interface: shared client messages, client driver and server
plumbing.

A protocol is one module that exports:

- ``SERVER``, a ServerNode subclass; the harness builds one per storage node
  with ``SERVER.from_config(node, trace, cfg)``;
- ``CLIENT``, a BaseClient subclass; its ``put_context()`` supplies the
  protocol context a PUT carries, and it handles the replies;
- ``TRACE_MODE``: ``"node"`` when every datacenter holds a replica of every
  key, ``"quorum"`` when only a key's replica set does;
- ``replica_nodes(key, topo)``, the nodes expected to hold a key's versions.

Servers and clients are Actors: ``handle`` runs the ``on_<msg.tname>`` method
of the actor's class, and a message with no route raises KeyError.

Clients send the shared Get and Put requests; the replies are GetReply and
PutReply unless the protocol needs its own.  Clients are closed-loop: each
issues one operation, waits for the reply (or an operation timeout), records
the call/response events into the shared history, and moves on.  Protocols
adapt the driver through hooks outside the ``on_`` namespace: put_context(),
get_answered(), put_answered() and retry().  Client-side dependency tracking
feeds the omniscient trace: the dependencies of a new version are the
versions the client observed since its previous PUT, plus that previous PUT
itself.
"""

from __future__ import annotations

from ..history import GET, PUT
from ..sim import Message
from ..store import primary_node


class Get(Message):
    __slots__ = ("client", "op_id", "key")
    tname = "get"

    def __init__(self, client, op_id, key):
        self.client, self.op_id, self.key = client, op_id, key


class Put(Message):
    __slots__ = ("client", "op_id", "key", "value", "context", "dep_vids")
    tname = "put"

    def __init__(self, client, op_id, key, value, context, dep_vids):
        self.client, self.op_id, self.key = client, op_id, key
        self.value, self.context, self.dep_vids = value, context, dep_vids


class GetReply(Message):
    __slots__ = ("op_id", "key", "value", "stamp", "vid")
    tname = "get_reply"

    def __init__(self, op_id, key, value, stamp, vid):
        self.op_id, self.key, self.value = op_id, key, value
        self.stamp, self.vid = stamp, vid


class PutReply(Message):
    __slots__ = ("op_id", "key", "stamp", "vid")
    tname = "put_reply"

    def __init__(self, op_id, key, stamp, vid):
        self.op_id, self.key, self.stamp, self.vid = op_id, key, stamp, vid


class OpTimeout(Message):
    __slots__ = ("op_id",)
    control = True
    tname = "op_timeout"

    def __init__(self, op_id):
        self.op_id = op_id


class StartClient(Message):
    control = True
    tname = "start"


def replica_nodes(key, topo):
    """The key's primary in every datacenter."""
    return tuple(primary_node(key, topo, d) for d in range(topo.num_datacenters))


class Actor:
    """Routes each message to the ``on_<tname>`` method of its class.  The
    table is built when the class is defined, so a handler patched onto a
    built class is not routed: replace a handler by subclassing."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._routes = {name[3:]: getattr(cls, name) for name in dir(cls) if name.startswith("on_")}

    def handle(self, sim, src, msg):
        self._routes[msg.tname](self, sim, src, msg)


class BaseClient(Actor):
    """Closed-loop workload driver.  A request goes to the key's primary in
    the client's datacenter."""

    def __init__(self, cid, ops, harness):
        self.cid = cid
        self.ops = ops  # list of (kind, key, value)
        self.harness = harness
        self.op_timeout = harness.cfg.run.op_timeout
        self.idx = 0
        self.done = len(ops) == 0
        self.cur_op_id = None  # None between ops: every reply or timeout is stale
        self.issue_time = 0
        self.dep_vids = set()

    # -- wiring -----------------------------------------------------------

    def start(self, sim, offset=0):
        sim.schedule_timer(self.cid, StartClient(), offset)

    def on_start(self, sim, src, msg):
        self.issue_next(sim)

    def on_op_timeout(self, sim, src, msg):
        if msg.op_id == self.cur_op_id and not self.retry(sim):
            self.finish_op(sim, ok=False)

    def on_get_reply(self, sim, src, msg):
        if msg.op_id == self.cur_op_id:  # else a stale reply to a finished op
            self.get_answered(sim, src, msg)

    def on_put_reply(self, sim, src, msg):
        if msg.op_id == self.cur_op_id:
            self.put_answered(sim, src, msg)

    # -- op lifecycle -----------------------------------------------------

    def issue_next(self, sim):
        if self.idx >= len(self.ops):
            self.done = True
            self.harness.client_done(sim, self)
            return
        kind, key, value = self.ops[self.idx]
        self.cur_op_id = self.harness.next_op_id()
        self.issue_time = sim.now
        if kind == PUT:
            self.harness.history.record_call(str(self.cid), PUT, key, value, self.cur_op_id)
        else:
            self.harness.history.record_call(str(self.cid), GET, key, None, self.cur_op_id)
        self.send_request(sim, kind, key, value)
        sim.schedule_timer(self.cid, OpTimeout(self.cur_op_id), self.op_timeout)

    def complete_op(self, sim, kind, key, value=None):
        """Record a successful response and advance."""
        self.harness.history.record_resp(
            str(self.cid), kind, key, value if kind == GET else None, self.cur_op_id
        )
        self.finish_op(sim, ok=True)

    def finish_op(self, sim, ok):
        """Count the current op and issue the next.  A failed (unanswered or
        refused) op records no response event."""
        self.harness.op_finished(sim, self, ok)
        self.cur_op_id = None
        self.idx += 1
        self.issue_next(sim)

    # -- dependency tracking ----------------------------------------------

    def observe(self, vid):
        if vid is not None:
            self.dep_vids.add(vid)

    def current_deps(self):
        return tuple(sorted(self.dep_vids))

    def wrote(self, vid, compaction=True):
        if compaction:
            self.dep_vids = {vid}
        else:
            self.dep_vids.add(vid)

    # -- requests and replies ---------------------------------------------

    def send_request(self, sim, kind, key, value):
        self.send_to(sim, primary_node(key, self.harness.topo, self.cid.dc), kind, key, value)

    def send_to(self, sim, dst, kind, key, value):
        if kind == PUT:
            msg = Put(self.cid, self.cur_op_id, key, value, self.put_context(),
                      self.current_deps())
        else:
            msg = Get(self.cid, self.cur_op_id, key)
        sim.send(self.cid, dst, msg)

    def put_context(self):
        """The protocol context a PUT carries to its coordinator."""
        return None

    def get_answered(self, sim, src, msg):
        """A GetReply to the current op."""
        self.observe(msg.vid)
        self.complete_op(sim, GET, msg.key, msg.value)

    def put_answered(self, sim, src, msg):
        """A PutReply to the current op."""
        self.wrote(msg.vid)
        self.complete_op(sim, PUT, msg.key)

    def retry(self, sim) -> bool:
        """The current op timed out: return True if it was re-issued, False
        to fail it."""
        return False


class ServerNode(Actor):
    put_wait_total = 0  # accumulated clock-skew write stalls, us

    def __init__(self, node, topo, trace):
        self.node = node
        self.topo = topo
        self.trace = trace

    @classmethod
    def from_config(cls, node, trace, cfg):
        """The server of `node` in an experiment run with `cfg`."""
        return cls(node, cfg.topology, trace)

    def start(self, sim, offset=0):
        """Hook for protocols with periodic background work."""

    def final_heads(self):
        """key -> tuple of head vids at end of run (protocol-visible)."""
        raise NotImplementedError
