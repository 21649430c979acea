"""Deterministic discrete-event kernel.

Virtual time is an integer count of microseconds.  The kernel owns the event
queue, per-node skewed physical clocks, the network model (latency, jitter,
loss, partitions, crashes), and the per-node message-processing capacity gate.

Two delivery disciplines are offered:

* ``send`` -- fire-and-forget: the message may be lost (loss-rate draw) or
  dropped at its would-be delivery time if the endpoints are separated by an
  active partition or the target is crashed.
* ``send_reliable`` -- a FIFO retransmitting channel (TCP-like): messages are
  delayed, never lost, and delivered in send order once the link is up.

Capacity gate: a node with capacity C serves one message per slot of
``1e6 / C`` us.  A message arriving while the node is busy waits, in arrival
order, until the node is free; control messages wait their turn too but take
no slot, and a crash delays waiting messages by ``retransmit_interval``
instead of dropping them.  Semantically each waiting message is re-pushed to
the node's next free time, taking a new event id, once per slot it waits.

Runs: pre-checked deliveries (waiting messages and reliable-channel
releases) are queued as runs.  A run is a block of deliveries to one
target that share one time and hold consecutive event ids;
no other event can sort between them, so one queue entry, keyed by the
first id, stands for the block.  Re-pushing a run of k messages takes the
next k ids, as k single re-pushes would, and a re-push that continues the
newest queued run (same time, same node, no event id taken since) extends
it.  Serving the head puts the rest back at the next id.  So a backlog of k
messages costs O(k) queue operations instead of O(k^2), while event ids,
handler order and the event digest are those of the one-by-one re-pushes.

Endpoints: each actor id is resolved once, on first use, into an endpoint
record holding what the per-event path reads: the id and its ``str``, its
datacenter's latency row, its service slot and busy-until time, its crash
windows, and a bitmask of the partition groups its fate follows (a client's
is its datacenter's node 0).  Queue entries, runs and channels carry
endpoints, so a delivery is checked and gated with attribute reads and
integer comparisons, without hashing or building an id.  Handlers still
receive actor ids and are looked up in ``actors`` at dispatch.

Digest: every handled event adds the line ``time:eid:type:target:src`` to a
SHA-256 of the whole run.  Lines are buffered and hashed in batches, which
gives the same bytes as hashing each line; reading ``digest`` flushes the
buffer.

Determinism: all randomness flows through seeded ``random.Random`` streams
and ties in the event queue are broken by event id, so identical seeds yield
identical traces.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import NamedTuple


class NodeId(NamedTuple):
    dc: int
    partition: int

    def __str__(self):
        return f"{self.dc}.{self.partition}"


class ClientId(NamedTuple):
    dc: int
    index: int
    # a constant third field keeps ClientId(d, i) != NodeId(d, i)
    tag: str = "c"

    def __str__(self):
        return f"c{self.dc}.{self.index}"


class Message:
    """Base class for protocol payloads.  control=True exempts a message from
    the per-node capacity gate (tiny periodic bookkeeping traffic)."""

    __slots__ = ()
    control = False
    tname = "msg"


@dataclass
class NetworkModel:
    ntt: list  # base one-way inter-datacenter latency matrix, microseconds
    intra_dc_latency: int = 100
    jitter: float = 0.0  # fraction; latency is scaled by 1 +/- U(0, jitter)
    loss_rate: float = 0.0

    def validate(self):
        d = len(self.ntt)
        for i in range(d):
            if len(self.ntt[i]) != d:
                raise ValueError("ntt matrix must be square")
            if self.ntt[i][i] != 0:
                raise ValueError("ntt diagonal must be zero")
            for j in range(d):
                if self.ntt[i][j] != self.ntt[j][i]:
                    raise ValueError("ntt matrix must be symmetric")
                if i != j and self.ntt[i][j] <= 0:
                    raise ValueError("inter-datacenter latency must be positive")
        if not (0 <= self.jitter < float("inf")) or not (0 <= self.loss_rate < 1):
            raise ValueError("need a finite jitter >= 0 and 0 <= loss_rate < 1")


@dataclass
class ClockModel:
    max_skew: int = 0  # microseconds
    drift_ppm: float = 0.0
    offsets: dict = None  # optional explicit NodeId -> offset override


@dataclass
class PartitionInterval:
    group: frozenset  # one side of the bipartition (NodeIds); rest is the other
    start: int
    end: int


@dataclass
class CrashInterval:
    node: object  # NodeId
    start: int
    end: int


@dataclass
class FaultSchedule:
    partitions: list = field(default_factory=list)
    crashes: list = field(default_factory=list)

    def validate(self):
        for p in self.partitions + self.crashes:
            if p.start >= p.end:
                raise ValueError("fault interval must have start < end")


# event kinds
_DELIVER = 0  # network message, partition/crash checked at delivery
_DIRECT = 1  # a _Run of pre-checked deliveries; crashes and capacity still apply
_TIMER = 2  # self-scheduled event, no network semantics
_CHAN = 3  # reliable-channel poll

_DIGEST_BATCH = 4096  # digest lines hashed per sha256 update


class _Endpoint:
    """An actor id resolved for the per-event path.  `cost` is the node's
    service slot (0 for clients and without a capacity), `crashes` its
    (start, end) windows (none for clients), and bit i of `side` is set when
    its partition fate is inside the group of partition interval i."""

    __slots__ = ("id", "name", "dc", "row", "cost", "busy", "crashes", "side")

    def __init__(self, actor_id, row, cost, crashes, side):
        self.id = actor_id
        self.name = str(actor_id)
        self.dc = actor_id.dc
        self.row = row  # base latency from this endpoint's dc to each dc
        self.cost = cost
        self.busy = 0  # the node serves its next message no earlier than this
        self.crashes = crashes
        self.side = side


class _Endpoints(dict):
    """actor id -> _Endpoint, each id resolved on its first lookup."""

    __slots__ = ("base", "partitions", "crashes", "cost")

    def __init__(self, base, faults, cost):
        super().__init__()
        self.base = base
        self.partitions = [(1 << i, p.group) for i, p in enumerate(faults.partitions)]
        self.crashes = faults.crashes
        self.cost = cost or 0

    def __missing__(self, actor_id):
        is_node = isinstance(actor_id, NodeId)
        # clients share partition fate with their home datacenter's node 0
        fate = NodeId(actor_id.dc, 0) if isinstance(actor_id, ClientId) else actor_id
        side = 0
        for bit, group in self.partitions:
            if fate in group:
                side |= bit
        crashes = ()
        if is_node:
            crashes = tuple((c.start, c.end) for c in self.crashes if c.node == actor_id)
        cost = self.cost if is_node else 0
        ep = self[actor_id] = _Endpoint(
            actor_id, self.base[actor_id.dc], cost, crashes, side
        )
        return ep


def _within(windows, t) -> bool:
    for start, end in windows:
        if start <= t < end:
            return True
    return False


class _Run:
    """Pre-checked deliveries to one target that share one time and hold the
    consecutive event ids first..last, first being the id of the queue entry.
    No other event can sort between them, so the entry stands for the whole
    block and its messages are served in id order."""

    __slots__ = ("target", "time", "last", "items")

    def __init__(self, target, items):
        self.target = target
        self.items = items  # deque of (src, msg), endpoints


class _Channel:
    __slots__ = ("src", "dst", "queue", "poll_scheduled")

    def __init__(self, src, dst):
        self.src = src
        self.dst = dst
        self.queue = deque()  # (ready_time, msg)
        self.poll_scheduled = False


class Exhausted(Exception):
    """step() found no event to handle: the queue is empty, or its earliest
    event is later than `until`."""


class Simulation:
    def __init__(
        self,
        network: NetworkModel,
        clock_model: ClockModel = None,
        faults: FaultSchedule = None,
        capacity: int = None,
        net_seed: int = 1,
        clock_seed: int = 2,
        retransmit_interval: int = 2000,
    ):
        network.validate()
        self.network = network
        self.clock_model = clock_model or ClockModel()
        self.faults = faults or FaultSchedule()
        self.faults.validate()
        self.capacity_cost = None if not capacity else max(1, round(1_000_000 / capacity))
        self.retransmit_interval = retransmit_interval

        self.now = 0
        self._queue = []
        self._eid = 0
        self.rng = random.Random(net_seed)
        self._clock_rng = random.Random(clock_seed)
        self.actors = {}

        # the network model, read per message
        d = len(network.ntt)
        base = [
            [network.intra_dc_latency if i == j else network.ntt[i][j] for j in range(d)]
            for i in range(d)
        ]
        self._jitter = network.jitter
        self._jitter_lo = -network.jitter  # random.uniform(lo, -lo), inlined
        self._jitter_span = network.jitter - self._jitter_lo
        self._loss_rate = network.loss_rate
        # (bit, start, end) per partition interval, matched against side masks
        self._partitions = tuple(
            (1 << i, p.start, p.end) for i, p in enumerate(self.faults.partitions)
        )
        self._eps = _Endpoints(base, self.faults, self.capacity_cost)

        self._tail = None  # the newest _Run still queued; pushes may extend it
        self._channels = {}
        self._clock_state = {}  # node -> [offset, drift, last_pc, last_stamp_us, seq]

        self.msg_counts = Counter()
        self.on_drop = None
        self._digest = hashlib.sha256()
        self._digest_lines = []
        self.processed = 0
        self.stopped = False  # set by a handler: run() returns after its event

    # -- actors -----------------------------------------------------------

    def add_actor(self, actor_id, handler):
        self.actors[actor_id] = handler

    def is_crashed(self, node) -> bool:
        return _within(self._eps[node].crashes, self.now)

    # -- clocks -----------------------------------------------------------

    def _clock(self, node):
        st = self._clock_state.get(node)
        if st is None:
            cm = self.clock_model
            if cm.offsets is not None and node in cm.offsets:
                offset = cm.offsets[node]
            else:
                offset = (
                    self._clock_rng.randint(-cm.max_skew, cm.max_skew)
                    if cm.max_skew
                    else 0
                )
            drift = (
                self._clock_rng.uniform(-cm.drift_ppm, cm.drift_ppm)
                if cm.drift_ppm
                else 0.0
            )
            st = [offset, drift, 0, -1, 0]
            self._clock_state[node] = st
        return st

    def physical_clock(self, node) -> int:
        """The node's skewed physical clock, non-decreasing and within
        max_skew of virtual time."""
        st = self._clock(node)
        skew = st[0] + st[1] * self.now * 1e-6
        ms = self.clock_model.max_skew
        skew = max(-ms, min(ms, skew))
        pc = max(self.now + int(skew), st[2])
        pc = min(pc, self.now + ms)
        st[2] = pc
        return pc

    def clock_stamp(self, node) -> tuple:
        """A strictly increasing (clock, sub-tick) stamp for this node."""
        st = self._clock(node)
        pc = self.physical_clock(node)
        if pc == st[3]:
            st[4] += 1
        else:
            st[3] = pc
            st[4] = 0
        return (pc, st[4])

    # -- scheduling -------------------------------------------------------

    def _latency(self, src, dst) -> int:
        if src is dst:
            return 0
        base = src.row[dst.dc]
        if self._jitter:
            base = base * (1.0 + (self._jitter_lo + self._jitter_span * self.rng.random()))
        return max(1, round(base))

    def _separated(self, a, b, t) -> bool:
        diff = a.side ^ b.side
        for bit, start, end in self._partitions:
            if start <= t < end and diff & bit:
                return True
        return False

    def _push(self, time, kind, target, src, msg):
        self._eid += 1
        heapq.heappush(self._queue, (time, self._eid, kind, target, src, msg))
        return self._eid

    def _push_direct(self, time, target, items, run=None):
        """Queue pre-checked deliveries `items` ((src, msg) pairs, in order)
        for `target`.  They take the next len(items) event ids, exactly as
        that many back-to-back pushes would; when those ids continue the
        newest run at the same time and target, the run absorbs them."""
        first = self._eid + 1
        self._eid += len(items)
        tail = self._tail
        if (
            tail is not None
            and tail.last == first - 1
            and tail.time == time
            and tail.target is target
        ):
            tail.items.extend(items)
            tail.last = self._eid
            return
        if run is None:
            run = _Run(target, deque(items))
        run.time = time
        run.last = self._eid
        heapq.heappush(self._queue, (time, first, _DIRECT, target, None, run))
        self._tail = run

    def send(self, src, dst, msg: Message, extra_delay: int = 0):
        """Fire-and-forget send.  Returns the event id, or None if the message
        was lost to the loss-rate draw (partition drops happen at delivery)."""
        assert extra_delay >= 0
        eps = self._eps
        s, d = eps[src], eps[dst]
        t = self.now + self._latency(s, d) + extra_delay
        if self._loss_rate and self.rng.random() < self._loss_rate:
            self._drop(t, s, d, msg)
            return None
        return self._push(t, _DELIVER, d, s, msg)

    def send_reliable(self, src, dst, msg: Message):
        """FIFO retransmitting channel: delayed by loss/partitions/crashes,
        never dropped, delivered in send order."""
        eps = self._eps
        s, d = eps[src], eps[dst]
        ready = self.now + self._latency(s, d)
        if self._loss_rate:
            while self.rng.random() < self._loss_rate:
                ready += self.retransmit_interval
        ch = self._channels.get((s, d))
        if ch is None:
            ch = self._channels[(s, d)] = _Channel(s, d)
        ch.queue.append((ready, msg))
        if not ch.poll_scheduled:
            ch.poll_scheduled = True
            self._push(ready, _CHAN, d, s, ch)

    def schedule_timer(self, actor_id, msg: Message, delay: int):
        assert delay >= 0
        ep = self._eps[actor_id]
        return self._push(self.now + delay, _TIMER, ep, ep, msg)

    # -- dispatch ---------------------------------------------------------

    def _drop(self, t, src, dst, msg):
        if self.on_drop:
            self.on_drop(t, src.id, dst.id, msg.tname)

    def step(self, until: int = None):
        """Process the earliest event, skipping dropped and requeued
        deliveries.  Raises Exhausted when no event at or before `until` (if
        given) is queued."""
        queue = self._queue
        while True:
            if not queue or (until is not None and queue[0][0] > until):
                raise Exhausted()
            time, eid, kind, target, src, msg = heapq.heappop(queue)
            assert time >= self.now
            self.now = time

            if kind == _DELIVER:
                if (target.side != src.side and self._separated(src, target, time)) or (
                    target.crashes and _within(target.crashes, time)
                ):
                    self._drop(time, src, target, msg)
                    continue
                cost = target.cost
                if cost:
                    if target.busy > time:
                        # node saturated: requeue preserving arrival order.
                        # Control messages also wait their turn (so they never
                        # overtake payload traffic on the same link, which
                        # would break FIFO channel ordering) but cost nothing.
                        self._push_direct(target.busy, target, ((src, msg),))
                        continue
                    if not msg.control:
                        target.busy = time + cost

            elif kind == _DIRECT:
                run = msg
                if run is self._tail:
                    self._tail = None
                if target.crashes and _within(target.crashes, time):
                    # already past the delivery checks (sitting in the node's
                    # input buffer); a crash delays processing, not receipt
                    self._push_direct(
                        time + self.retransmit_interval, target, run.items, run
                    )
                    continue
                cost = target.cost
                if cost and target.busy > time:
                    # node saturated: the whole run waits, in order
                    self._push_direct(target.busy, target, run.items, run)
                    continue
                src, msg = run.items.popleft()
                if run.items:
                    heapq.heappush(queue, (time, eid + 1, _DIRECT, target, None, run))
                if cost and not msg.control:
                    target.busy = time + cost

            elif kind == _CHAN:
                self._poll_channel(msg)
                return eid

            handler = self.actors.get(target.id)
            if handler is None:
                continue
            tname = msg.tname
            self.msg_counts[tname] += 1
            self.processed += 1
            lines = self._digest_lines
            lines.append(f"{time}:{eid}:{tname}:{target.name}:{src.name}")
            if len(lines) >= _DIGEST_BATCH:
                self._flush_digest()
            handler.handle(self, src.id, msg)
            return eid

    def _poll_channel(self, ch: _Channel):
        ch.poll_scheduled = False
        src, dst = ch.src, ch.dst
        while ch.queue:
            ready, msg = ch.queue[0]
            now = self.now
            if ready > now:
                ch.poll_scheduled = True
                self._push(ready, _CHAN, dst, src, ch)
                return
            if (dst.side != src.side and self._separated(src, dst, now)) or (
                dst.crashes and _within(dst.crashes, now)
            ):
                # link down: retransmit later, keep FIFO order
                ch.poll_scheduled = True
                self._push(now + self.retransmit_interval, _CHAN, dst, src, ch)
                return
            ch.queue.popleft()
            self._push_direct(now, dst, ((src, msg),))

    def run(self, until: int = None, max_events: int = None):
        """Process events until the queue empties, the next event is past
        `until`, `max_events` have been handled, or a handler sets `stopped`
        (run returns after that event and clears the flag)."""
        n = 0
        step = self.step
        while True:
            try:
                step(until)
            except Exhausted:
                break
            n += 1
            if self.stopped or (max_events is not None and n >= max_events):
                self.stopped = False
                return n  # stopped early: virtual time must not jump ahead
        if until is not None and self.now < until:
            self.now = until
        return n

    def _flush_digest(self):
        lines = self._digest_lines
        if lines:
            self._digest.update("".join(lines).encode())
            lines.clear()

    @property
    def digest(self) -> str:
        self._flush_digest()
        return self._digest.hexdigest()
