"""Experiment harness: wires a protocol, workload and fault schedule into the
simulation kernel, runs to completion, and reports metrics, the operation
history, and the visibility trace."""

from __future__ import annotations

import copy
import csv
import io
from dataclasses import dataclass, field

from .config import ExperimentConfig
from .history import History
from .protocols import get_protocol
from .sim import Simulation
from .trace import VisibilityTrace
from .workload import generate_workload

CSV_COLUMNS = [
    "protocol",
    "throughput",
    "uvl_mean",
    "uvl_p99",
    "availability",
    "msgs_put_after",
    "msgs_dep_check",
    "msgs_quorum",
]


@dataclass
class MetricsReport:
    protocol: str
    throughput: float = 0.0  # successful ops per simulated second
    uvl_mean: float = 0.0  # update visibility latency, us
    uvl_p99: float = 0.0
    availability: float = 0.0  # successful fraction of issued ops
    msgs_put_after: int = 0
    msgs_dep_check: int = 0
    msgs_quorum: int = 0
    ops_ok: int = 0
    ops_failed: int = 0
    duration: int = 0  # us until the last client finished
    unreplicated: int = 0  # (version, datacenter) pairs never visible
    put_wait_total: int = 0  # clock-skew write stalls, us
    latency_sum: int = 0  # summed successful-op latencies, us

    def row(self):
        return [
            self.protocol,
            f"{self.throughput:.3f}",
            f"{self.uvl_mean:.1f}",
            f"{self.uvl_p99:.1f}",
            f"{self.availability:.4f}",
            str(self.msgs_put_after),
            str(self.msgs_dep_check),
            str(self.msgs_quorum),
        ]


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    metrics: MetricsReport
    history: History
    trace: VisibilityTrace
    digest: str
    servers: dict = field(default_factory=dict)


class _Harness:
    """Shared state the clients report into."""

    def __init__(self, cfg, history, clients):
        self.cfg = cfg
        self.topo = cfg.topology
        self.history = history
        self.clients = clients
        self._op_seq = 0
        self.ops_ok = 0
        self.ops_failed = 0
        self.latency_sum = 0
        self.done_clients = 0
        self.finish_time = 0

    def next_op_id(self):
        self._op_seq += 1
        return self._op_seq

    def op_finished(self, sim, client, ok):
        if ok:
            self.ops_ok += 1
            self.latency_sum += sim.now - client.issue_time
        else:
            self.ops_failed += 1

    def client_done(self, sim, client):
        self.done_clients += 1
        self.finish_time = max(self.finish_time, sim.now)
        if self.done_clients == self.clients:
            sim.stopped = True  # the client phase ends with this event


def run_experiment(cfg: ExperimentConfig, seed: int = None, streams: dict = None) -> ExperimentResult:
    """Run one experiment.  `streams` (ClientId -> op list) overrides the
    generated workload, for hand-crafted scenarios."""
    cfg = copy.deepcopy(cfg)
    if seed is not None:
        cfg.seed = seed
        cfg.workload.seed = seed
    cfg.validate()
    mod = get_protocol(cfg.protocol)
    topo = cfg.topology

    sim = Simulation(
        cfg.network(),
        clock_model=cfg.clock_model(),
        faults=cfg.faults(),
        capacity=topo.capacity,
        net_seed=cfg.seed * 7 + 1,
        clock_seed=cfg.seed * 13 + 2,
    )
    history = History()
    trace = VisibilityTrace(mode=mod.TRACE_MODE)
    sim.on_drop = trace.record_drop
    if streams is None:
        streams = generate_workload(cfg.workload, topo)
    harness = _Harness(cfg, history, len(streams))

    servers = {}
    for i, node in enumerate(topo.nodes()):
        server = mod.SERVER.from_config(node, trace, cfg)
        servers[node] = server
        sim.add_actor(node, server)
        server.start(sim, offset=(i * 97) % 1000 + 1)

    for j, (cid, ops) in enumerate(sorted(streams.items())):
        client = mod.CLIENT(cid, ops, harness)
        sim.add_actor(cid, client)
        client.start(sim, offset=(j * 131) % 2000)

    # run until the event that finishes the last client (each op is bounded
    # by its timeout, so this terminates), then let replication settle for
    # exactly `drain` us
    horizon = cfg.run.horizon
    while harness.done_clients < harness.clients and sim.now < horizon:
        if sim.run(until=horizon, max_events=50_000) == 0:
            break
    sim.run(until=min(horizon, sim.now + cfg.run.drain))

    _finalize_trace(trace, sim, cfg, mod, servers)
    metrics = _compute_metrics(cfg, sim, harness, trace, servers)
    return ExperimentResult(cfg, metrics, history, trace, sim.digest, servers)


def _finalize_trace(trace, sim, cfg, mod, servers):
    topo = cfg.topology
    trace.end_time = sim.now
    trace.crashed = {n for n in topo.nodes() if sim.is_crashed(n)}
    for node, server in servers.items():
        for key, heads in server.final_heads().items():
            trace.final_heads[(node, str(key))] = tuple(heads)
    keys = {v.key for v in trace.versions.values()}
    for key in keys:
        trace.replica_nodes[key] = mod.replica_nodes(int(key), topo)


def measure_uvl(trace: VisibilityTrace, topo):
    """Per (version, remote datacenter) visibility lags in microseconds,
    plus the count of pairs that never became visible."""
    lags, unreplicated = [], 0
    for vid in sorted(trace.versions):
        v = trace.versions[vid]
        if trace.mode == "quorum":
            dcs = {n.dc for n in trace.replica_nodes.get(v.key, ())}
        else:
            dcs = set(range(topo.num_datacenters))
        dcs.discard(v.creator.dc)
        for dc in sorted(dcs):
            times = [t for node, t in v.visibility.items() if node.dc == dc]
            if times:
                lags.append(min(times) - v.created)
            else:
                unreplicated += 1
    return lags, unreplicated


def _compute_metrics(cfg, sim, harness, trace, servers):
    m = MetricsReport(cfg.protocol)
    m.ops_ok = harness.ops_ok
    m.ops_failed = harness.ops_failed
    m.latency_sum = harness.latency_sum
    m.duration = harness.finish_time or sim.now
    issued = m.ops_ok + m.ops_failed
    m.availability = m.ops_ok / issued if issued else 0.0
    m.throughput = m.ops_ok / (m.duration / 1e6) if m.duration else 0.0
    lags, m.unreplicated = measure_uvl(trace, cfg.topology)
    if lags:
        lags.sort()
        m.uvl_mean = sum(lags) / len(lags)
        m.uvl_p99 = float(lags[min(len(lags) - 1, int(0.99 * (len(lags) - 1)))])
    m.msgs_put_after = sim.msg_counts.get("put_after", 0)
    m.msgs_dep_check = sim.msg_counts.get("dep_check", 0)
    m.msgs_quorum = sum(
        sim.msg_counts.get(t, 0) for t in ("store", "store_ack", "read", "read_reply")
    )
    m.put_wait_total = sum(s.put_wait_total for s in servers.values())
    return m


# ---------------------------------------------------------------------------
# sweeps

SWEEP_AXES = ("partitions", "ratio", "rw_quorum")


def apply_axis(cfg: ExperimentConfig, axis: str, value: str) -> ExperimentConfig:
    cfg = copy.deepcopy(cfg)
    if axis == "partitions":
        cfg.topology.partitions_per_dc = int(value)
    elif axis == "ratio":
        reads, writes = value.split(":")
        cfg.workload.pattern = "ratio"
        cfg.workload.reads = int(reads)
        cfg.workload.writes = int(writes)
    elif axis == "rw_quorum":
        n, r, w = value.replace(",", ":").split(":")
        cfg.topology.n, cfg.topology.r, cfg.topology.w = int(n), int(r), int(w)
    else:
        raise ValueError(f"unknown sweep axis {axis!r}")
    return cfg


def sweep(base_cfg: ExperimentConfig, axis: str, values, protocols=None):
    """Run the cross product of protocols x axis values; same seed (and hence
    identical workload and fault draws) at every point."""
    protocols = protocols or [base_cfg.protocol]
    rows = []
    for value in values:
        for proto in protocols:
            cfg = apply_axis(base_cfg, axis, str(value))
            cfg.protocol = proto
            res = run_experiment(cfg)
            rows.append((proto, str(value), res))
    return rows


def metrics_csv(rows, axis: str = None) -> str:
    """rows: either MetricsReport or (protocol, value, ExperimentResult)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if axis is None:
        w.writerow(CSV_COLUMNS)
        for m in rows:
            w.writerow(m.row())
    else:
        w.writerow([CSV_COLUMNS[0], axis] + CSV_COLUMNS[1:])
        for proto, value, res in rows:
            r = res.metrics.row()
            w.writerow([r[0], value] + r[1:])
    return buf.getvalue()
