import copy
import hashlib
import pickle

import pytest

from consistency_lab.config import ExperimentConfig, emit_config, parse_config
from consistency_lab.sim import (
    ClientId,
    ClockModel,
    CrashInterval,
    Exhausted,
    FaultSchedule,
    Message,
    NetworkModel,
    NodeId,
    PartitionInterval,
    Simulation,
)


class Ping(Message):
    tname = "ping"


class Tick(Message):
    control = True
    tname = "tick"


class Recorder:
    def __init__(self):
        self.seen = []

    def handle(self, sim, src, msg):
        self.seen.append((sim.now, src, msg.tname))


def two_dc_net(ntt=2500, intra=100, **kw):
    return NetworkModel(ntt=[[0, ntt], [ntt, 0]], intra_dc_latency=intra, **kw)


def make_sim(**kw):
    net = kw.pop("network", two_dc_net())
    return Simulation(net, **kw)


def record_drops(sim):
    drops = []
    sim.on_drop = lambda t, src, dst, tname: drops.append((t, src, dst, tname))
    return drops


def test_zero_delay_intra_dc_delivery():
    sim = make_sim()
    a, b = NodeId(0, 0), NodeId(0, 1)
    rec = Recorder()
    sim.add_actor(b, rec)
    sim.add_actor(a, Recorder())
    sim.send(a, b, Ping())
    sim.step()
    assert rec.seen == [(100, a, "ping")]


def test_partition_drops_message():
    faults = FaultSchedule(
        partitions=[PartitionInterval(frozenset([NodeId(0, 0)]), 0, 10_000)]
    )
    sim = make_sim(faults=faults)
    a, b = NodeId(0, 0), NodeId(1, 0)
    rec = Recorder()
    sim.add_actor(b, rec)
    drops = record_drops(sim)
    sim.send(a, b, Ping())
    with pytest.raises(Exhausted):
        sim.step()
    assert rec.seen == []
    assert len(drops) == 1


def test_partition_checked_at_delivery_time():
    # partition starts after send but covers the delivery instant
    faults = FaultSchedule(
        partitions=[PartitionInterval(frozenset([NodeId(0, 0)]), 1000, 10_000)]
    )
    sim = make_sim(faults=faults)
    a, b = NodeId(0, 0), NodeId(1, 0)
    rec = Recorder()
    sim.add_actor(b, rec)
    sim.send(a, b, Ping())  # delivery at 2500, inside the window
    with pytest.raises(Exhausted):
        sim.step()
    assert rec.seen == []


def test_is_crashed_follows_each_window():
    node = NodeId(0, 1)
    faults = FaultSchedule(
        crashes=[CrashInterval(node, 100, 200), CrashInterval(node, 500, 700)]
    )
    sim = Simulation(NetworkModel(ntt=[[0]]), faults=faults)
    for t, down in ((99, False), (100, True), (199, True), (200, False),
                    (499, False), (500, True), (700, False)):
        sim.now = t
        assert sim.is_crashed(node) is down, t
        assert not sim.is_crashed(NodeId(0, 0))
        assert not sim.is_crashed(ClientId(0, 1))  # a client is never crashed


def test_crashed_target_drops():
    faults = FaultSchedule(crashes=[CrashInterval(NodeId(1, 0), 0, 10_000)])
    sim = make_sim(faults=faults)
    rec = Recorder()
    sim.add_actor(NodeId(1, 0), rec)
    drops = record_drops(sim)
    sim.send(NodeId(0, 0), NodeId(1, 0), Ping())
    with pytest.raises(Exhausted):
        sim.step()
    assert rec.seen == [] and drops


def test_tie_break_by_event_id():
    sim = make_sim()
    a, b = NodeId(0, 0), NodeId(0, 1)
    rec_a, rec_b = Recorder(), Recorder()
    sim.add_actor(a, rec_a)
    sim.add_actor(b, rec_b)
    first = Ping()
    second = Ping()
    sim.send(b, a, first)
    sim.send(a, b, second)  # same delivery time, higher event id
    sim.run()
    assert rec_a.seen[0][0] == rec_b.seen[0][0] == 100
    assert sim.processed == 2


def test_step_exhausted():
    sim = make_sim()
    with pytest.raises(Exhausted):
        sim.step()


def test_determinism_replay():
    def run():
        net = two_dc_net(jitter=0.1, loss_rate=0.05)
        sim = Simulation(net, net_seed=42)
        nodes = [NodeId(d, p) for d in range(2) for p in range(2)]
        recs = {n: Recorder() for n in nodes}
        for n, r in recs.items():
            sim.add_actor(n, r)

        class Echo:
            def __init__(self, me):
                self.me = me

            def handle(self, sim, src, msg):
                if sim.now < 200_000:
                    sim.send(self.me, src, Ping())

        for n in nodes:
            sim.actors[n] = Echo(n)
        rng_targets = [(nodes[i % 4], nodes[(i + 1) % 4]) for i in range(10_000)]
        for s, d in rng_targets:
            sim.send(s, d, Ping())
        sim.run(until=500_000)
        return sim.digest, sim.processed

    d1, n1 = run()
    d2, n2 = run()
    assert d1 == d2 and n1 == n2 and n1 > 0


def test_physical_clock_zero_skew_equals_now():
    sim = make_sim()
    sim.now = 12345
    assert sim.physical_clock(NodeId(0, 0)) == 12345


def test_physical_clock_bounded_and_monotone():
    sim = make_sim(clock_model=ClockModel(max_skew=500, drift_ppm=50), clock_seed=7)
    n = NodeId(0, 0)
    last = -1
    for t in range(0, 1_000_000, 997):
        sim.now = t
        pc = sim.physical_clock(n)
        assert abs(pc - t) <= 500
        assert pc >= last
        last = pc


def test_clock_stamp_strictly_increasing():
    sim = make_sim(clock_model=ClockModel(max_skew=300), clock_seed=3)
    n = NodeId(0, 0)
    stamps = [sim.clock_stamp(n) for _ in range(10)]
    sim.now = 50
    stamps += [sim.clock_stamp(n) for _ in range(10)]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == len(stamps)


def test_capacity_gate_serializes_processing():
    # 1000 msg/s -> 1000 us per message; 5 simultaneous arrivals finish 4 ms apart
    sim = make_sim(capacity=1000)
    a, b = NodeId(0, 0), NodeId(0, 1)
    rec = Recorder()
    sim.add_actor(b, rec)
    for _ in range(5):
        sim.send(a, b, Ping())
    sim.run()
    times = [t for t, _, _ in rec.seen]
    assert times == [100, 1100, 2100, 3100, 4100]


def test_control_messages_bypass_capacity():
    sim = make_sim(capacity=1000)
    a, b = NodeId(0, 0), NodeId(0, 1)
    rec = Recorder()
    sim.add_actor(b, rec)
    for _ in range(3):
        sim.send(a, b, Tick())
    sim.run()
    assert [t for t, _, _ in rec.seen] == [100, 100, 100]


def test_reliable_channel_survives_partition():
    faults = FaultSchedule(
        partitions=[PartitionInterval(frozenset([NodeId(0, 0)]), 0, 50_000)]
    )
    sim = make_sim(faults=faults)
    a, b = NodeId(0, 0), NodeId(1, 0)
    rec = Recorder()
    sim.add_actor(b, rec)
    sim.send_reliable(a, b, Ping())
    sim.run(until=100_000)
    assert len(rec.seen) == 1
    assert rec.seen[0][0] >= 50_000  # delivered after the partition heals


def test_reliable_channel_fifo_under_loss():
    net = two_dc_net(jitter=0.3, loss_rate=0.3)
    sim = Simulation(net, net_seed=9)
    a, b = NodeId(0, 0), NodeId(1, 0)

    class Collect:
        def __init__(self):
            self.vals = []

        def handle(self, sim, src, msg):
            self.vals.append(msg.payload)

    class Num(Message):
        __slots__ = ("payload",)
        tname = "num"

        def __init__(self, v):
            self.payload = v

    col = Collect()
    sim.add_actor(b, col)
    for i in range(200):
        sim.send_reliable(a, b, Num(i))
    sim.run(until=10_000_000)
    assert col.vals == list(range(200))


def test_timer_delivery():
    sim = make_sim()
    rec = Recorder()
    sim.add_actor(NodeId(0, 0), rec)
    sim.schedule_timer(NodeId(0, 0), Tick(), 5000)
    sim.run()
    assert rec.seen == [(5000, NodeId(0, 0), "tick")]


def test_run_until_skips_a_drop_but_handles_nothing_later():
    node = NodeId(0, 1)
    sim = make_sim(
        network=two_dc_net(intra=10),
        faults=FaultSchedule(crashes=[CrashInterval(node, 0, 12)]),
    )
    rec = Recorder()
    sim.add_actor(node, rec)
    drops = record_drops(sim)
    sim.send(NodeId(0, 0), node, Ping())  # delivered, and dropped, at t = 10
    sim.schedule_timer(node, Tick(), 20)
    assert sim.run(until=15) == 0
    assert (sim.now, rec.seen, len(drops)) == (15, [], 1)
    assert sim.run() == 1
    assert rec.seen == [(20, node, "tick")]


def test_run_returns_after_the_event_that_sets_stopped():
    sim = make_sim()
    node = NodeId(0, 0)
    seen = []

    class Stopper:
        def handle(self, sim, src, msg):
            seen.append(sim.now)
            if sim.now == 200:
                sim.stopped = True

    sim.add_actor(node, Stopper())
    for t in (100, 200, 300):
        sim.schedule_timer(node, Tick(), t)
    # neither max_events nor `until` stops it, and time does not jump ahead
    assert sim.run(until=10_000, max_events=50) == 2
    assert (sim.now, seen, sim.stopped) == (200, [100, 200], False)
    assert sim.run(until=10_000) == 1
    assert (sim.now, seen) == (10_000, [100, 200, 300])


# -- the capacity gate under backlogs ----------------------------------------
# Times, orders and event ids below are those of the kernel that re-pushed
# every waiting message once per service slot; the run-based gate must
# reproduce them exactly.


class Num(Message):
    __slots__ = ("n",)
    tname = "num"

    def __init__(self, n):
        self.n = n


class CtlNum(Num):
    __slots__ = ()
    control = True
    tname = "ctl"


class Log:
    def __init__(self):
        self.seen = []

    def handle(self, sim, src, msg):
        self.seen.append((sim.now, msg.n))


def test_burst_released_at_partition_heal_is_served_one_slot_apart():
    # the link is down until 50 ms; the channel retries every 2 ms from
    # 2.5 ms, so the whole backlog is released at 50.5 ms
    faults = FaultSchedule(
        partitions=[PartitionInterval(frozenset([NodeId(0, 0)]), 0, 50_000)]
    )
    sim = make_sim(faults=faults, capacity=1000)
    a, b = NodeId(0, 0), NodeId(1, 0)
    log = Log()
    sim.add_actor(b, log)
    for i in range(6):
        sim.send_reliable(a, b, Num(i))
    sim.run()
    assert log.seen == [(50_500 + 1000 * i, i) for i in range(6)]
    # 25 channel polls, 6 releases, and one id for each slot a message
    # waited: the waiting messages' re-pushes still take event ids
    assert sim._eid == 25 + 6 + (5 + 4 + 3 + 2 + 1)


def test_control_messages_in_a_backlog_cost_nothing():
    sim = make_sim(capacity=1000)
    a, b = NodeId(0, 0), NodeId(0, 1)
    log = Log()
    sim.add_actor(b, log)
    for i in range(7):
        sim.send(a, b, (CtlNum if i % 2 else Num)(i))
    sim.run()
    # controls wait their turn in the queue but take no service slot
    assert log.seen == [
        (100, 0), (1100, 1), (1100, 2), (2100, 3), (2100, 4), (3100, 5), (3100, 6)
    ]


def test_crash_while_backlog_waits_delays_it_in_order():
    faults = FaultSchedule(crashes=[CrashInterval(NodeId(0, 1), 1500, 3000)])
    sim = make_sim(faults=faults, capacity=1000, retransmit_interval=400)
    a, b = NodeId(0, 0), NodeId(0, 1)
    log = Log()
    sim.add_actor(b, log)
    for i in range(5):
        sim.send(a, b, Num(i))
    sim.run()
    # the backlog due at 2.1 ms waits out the crash in 0.4 ms steps
    assert log.seen == [(100, 0), (1100, 1), (3300, 2), (4300, 3), (5300, 4)]


def test_equal_time_arrival_with_lower_id_is_served_before_waiting_run():
    sim = make_sim(capacity=1000)
    a, b = NodeId(0, 0), NodeId(0, 1)
    log = Log()
    sim.add_actor(b, log)

    class Kicker:
        def handle(self, sim, src, msg):
            sim.send(a, b, Num(20), extra_delay=500)  # arrives at 2.1 ms

    sim.add_actor(a, Kicker())
    for i in range(3):
        sim.send(a, b, Num(i))  # arrive at 100 us; two then wait for 1.1 ms
    sim.send(a, b, Num(10), extra_delay=1000)  # arrives at 1.1 ms
    sim.schedule_timer(a, Num(99), 1500)
    sim.run()
    # 10 was sent before the waiting messages took their ids at 100 us, so
    # it goes first at 1.1 ms and pushes them to 2.1 ms; 20 was sent after
    # they took new ids for 2.1 ms, so it waits behind them
    assert log.seen == [(100, 0), (1100, 10), (2100, 1), (3100, 2), (4100, 20)]


# -- actor ids and the digest -------------------------------------------------


def test_node_and_client_ids_contract():
    n, c = NodeId(1, 2), ClientId(1, 2)
    assert n != c and len({n: "node", c: "client"}) == 2
    assert (str(n), str(c)) == ("1.2", "c1.2")
    assert (n.dc, n.partition, c.dc, c.index) == (1, 2, 1, 2)
    assert hash(n) == hash((1, 2))
    nodes = [NodeId(1, 0), NodeId(0, 3), NodeId(1, 1), NodeId(0, 0)]
    assert sorted(nodes) == [NodeId(0, 0), NodeId(0, 3), NodeId(1, 0), NodeId(1, 1)]
    clients = [ClientId(2, 0), ClientId(0, 5), ClientId(0, 1)]
    assert sorted(clients) == [ClientId(0, 1), ClientId(0, 5), ClientId(2, 0)]
    for x in (n, c):
        for y in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and type(y) is type(x) and str(y) == str(x)


def test_node_ids_survive_the_config_text_form():
    cfg = ExperimentConfig(
        partitions=[
            PartitionInterval(frozenset([NodeId(0, 0), NodeId(1, 0)]), 100, 900),
            PartitionInterval(frozenset([NodeId(2, 0)]), 50, 60),
        ],
        crashes=[CrashInterval(NodeId(1, 0), 10, 20)],
        clock_offsets={NodeId(2, 0): 7},
    )
    again = parse_config(emit_config(cfg))
    assert again.partitions == cfg.partitions and again.crashes == cfg.crashes
    assert again.clock_offsets == cfg.clock_offsets
    for iv in again.partitions:
        assert all(type(n) is NodeId for n in iv.group)
    assert type(again.crashes[0].node) is NodeId


def test_digest_read_between_slices_matches_one_read_at_the_end():
    def make():
        sim = Simulation(two_dc_net(jitter=0.2, loss_rate=0.1), net_seed=3)
        nodes = [NodeId(d, p) for d in range(2) for p in range(2)]

        class Echo:
            def __init__(self, me):
                self.me = me

            def handle(self, sim, src, msg):
                handled.append((sim.now, msg.tname, self.me, src))
                if sim.now < 300_000:
                    sim.send(self.me, src, Ping())

        for n in nodes:
            sim.add_actor(n, Echo(n))
        for i in range(3_000):
            sim.send(nodes[i % 4], nodes[(i + 1) % 4], Ping())
        return sim

    handled = []
    sim = make()
    reads = []
    while sim.run(until=400_000, max_events=1_500):
        reads.append((sim.processed, sim.digest))
    once = make()
    once.run(until=400_000)
    assert (sim.digest, sim.processed) == (once.digest, once.processed)
    assert len(reads) > 5
    # the digest hashes one line per handled event, in order
    handled.clear()
    stepped, eids = make(), []
    while stepped._queue and stepped._queue[0][0] <= 400_000:
        eids.append(stepped.step())
    lines = "".join(
        f"{t}:{eid}:{tname}:{me}:{src}" for eid, (t, tname, me, src) in zip(eids, handled)
    )
    assert len(eids) == len(handled) == once.processed
    assert hashlib.sha256(lines.encode()).hexdigest() == once.digest
    # each read in between saw every event handled so far
    for processed, digest in reads[::3]:
        fresh = make()
        fresh.run(until=400_000, max_events=processed)
        assert fresh.digest == digest
