"""Pinned event digests for runs that exercise the kernel's slow paths.

The capacity-backlog values were recorded from the kernel that re-pushed
every waiting message once per service slot; the Dynamo run and the lossy
channel scenario were recorded from the kernel that resolved actor ids on
every event; the skewed GentleRain and the eventual runs were recorded from
the protocols that each defined their own client messages and driver.  The
two GentleRain runs and the saturated COPS run were re-recorded when a run
began to end at its last client's final event plus exactly `drain` us.  A
faster kernel or a refactored protocol must reproduce them exactly: the event
digest, the number of handled events and the final event id (which counts
every virtual re-push of a waiting message)."""

import pytest

import consistency_lab.bench as bench
from consistency_lab.sim import (
    ClientId,
    CrashInterval,
    FaultSchedule,
    Message,
    NetworkModel,
    NodeId,
    PartitionInterval,
    Simulation,
)
from consistency_lab.workload import WorkloadSpec
from test_acceptance import _faulted_cfg, _saturated_cfg


def _skewed_gentlerain_cfg():
    cfg = _faulted_cfg("gentlerain", 1)
    cfg.max_skew = 3000  # thousands of clock-skew write stalls and retries
    return cfg


GOLDEN = {
    # one partition per DC: the partition heal releases long backlogs
    "faulted-gentlerain-0": (
        lambda: _faulted_cfg("gentlerain", 0),
        "2cf3036f3b5dde0cbccb04f1da0b673546b42a2ea8736119da8602f36f6adf5d",
        36_194,
        1_169_628,
    ),
    "faulted-cops-1": (
        lambda: _faulted_cfg("cops", 1),
        "214b437c78dc4cda23da3f9ccc43011fcae8545e48be30214ebe76ce77b72667",
        58_618,
        90_364,
    ),
    # 8 partitions per DC: the slowest faulted units, quorum traffic
    "faulted-dynamo-2": (
        lambda: _faulted_cfg("dynamo", 2),
        "a6d0e5663865df26c661781a38b2231e233457da227ce69c911bf3e18c3d6b4f",
        85_107,
        85_903,
    ),
    # the GentleRain write-stall path: a stalled PUT re-armed until the
    # coordinator's clock passes the client's last-seen timestamp
    "gentlerain-skew-1": (
        _skewed_gentlerain_cfg,
        "7854a8f5a7c1ee91cccb07c814b9ca0fc6f68b98f9a37375bd55e54a0f04fba1",
        47_705,
        80_800,
    ),
    # the last-writer-wins baseline
    "eventual-1": (
        lambda: _faulted_cfg("eventual", 1),
        "3020bf70d1859ea09decc8aa4bb53d291a4135a26d91a364bd0b5a8087e866c0",
        34_852,
        36_561,
    ),
    # 16 partitions per DC at 500 msg/s per node, 1:1 reads to writes
    "saturated-cops-16": (
        lambda: _saturated_cfg("cops", 31, 16, WorkloadSpec(
            clients_per_dc=8, ops_per_client=120, pattern="ratio", reads=1,
            writes=1, keys_per_partition=2, seed=31)),
        "abd161728acab903825db12ef93263a2e26b90801bdfa5fdc46ff976bd6172e1",
        19_036,
        79_960,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name, monkeypatch):
    make_cfg, digest, processed, last_eid = GOLDEN[name]
    sims = []

    class Recording(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr(bench, "Simulation", Recording)
    res = bench.run_experiment(make_cfg())
    (sim,) = sims
    assert (res.digest, sim.processed, sim._eid) == (digest, processed, last_eid)


class _Hop(Message):
    __slots__ = ("n",)
    tname = "hop"

    def __init__(self, n):
        self.n = n


class _Beat(_Hop):
    __slots__ = ()
    control = True
    tname = "beat"


def _lossy_channel_run():
    """Jitter, loss, a partition that cuts off a datacenter's client gateway
    and a crash, with fire-and-forget and retransmitting sends, timers, the
    capacity gate and clients: every arithmetic and fault path of delivery."""
    net = NetworkModel(
        ntt=[[0, 2500, 4000], [2500, 0, 3000], [4000, 3000, 0]],
        intra_dc_latency=100,
        jitter=0.2,
        loss_rate=0.1,
    )
    faults = FaultSchedule(
        partitions=[PartitionInterval(frozenset([NodeId(0, 0)]), 20_000, 60_000)],
        crashes=[CrashInterval(NodeId(2, 1), 30_000, 45_000)],
    )
    sim = Simulation(net, faults=faults, capacity=2000, net_seed=5,
                     retransmit_interval=1500)
    nodes = [NodeId(d, p) for d in range(3) for p in range(2)]
    clients = [ClientId(d, 0) for d in range(3)]
    actors = nodes + clients
    drops = []
    sim.on_drop = lambda t, src, dst, tname: drops.append((t, src, dst, tname))

    class Relay:
        def __init__(self, k):
            self.k = k

        def handle(self, sim, src, msg):
            if sim.now >= 120_000:
                return
            nxt = actors[(self.k + msg.n + 1) % len(actors)]
            me = actors[self.k]
            if msg.n % 3 == 0:
                sim.send_reliable(me, nxt, _Hop(msg.n + 1))
            elif msg.n % 3 == 1:
                sim.send(me, nxt, _Hop(msg.n + 1), extra_delay=msg.n % 7)
            else:
                sim.send(me, nxt, _Beat(msg.n + 1))
                sim.schedule_timer(me, _Hop(msg.n + 2), 700)

    for k, a in enumerate(actors):
        sim.add_actor(a, Relay(k))
    for k, a in enumerate(actors):
        for j in range(4):
            sim.send_reliable(a, actors[(k + j + 1) % len(actors)], _Hop(j))
            sim.send(a, actors[(k + 2 * j + 1) % len(actors)], _Hop(3 * j + 1))
    sim.run(until=200_000)
    return sim, drops


def test_golden_lossy_channel_scenario():
    sim, drops = _lossy_channel_run()
    assert (sim.digest, sim.processed, sim._eid, len(drops)) == (
        "3cccad93a56ea175ae4e3d52d06937658abbd7a9590a098fcfc73fceaddfd87d",
        5_421,
        112_302,
        582,
    )
