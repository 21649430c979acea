import dataclasses

import pytest

import consistency_lab.bench as bench
from consistency_lab.bench import (
    apply_axis,
    measure_uvl,
    metrics_csv,
    run_experiment,
    sweep,
)
from consistency_lab.config import (
    _SECTIONS,
    ExperimentConfig,
    RunParams,
    emit_config,
    parse_config,
)
from consistency_lab.protocols import PROTOCOLS
from consistency_lab.sim import CrashInterval, NodeId, PartitionInterval, Simulation
from consistency_lab.store import ConfigError, Topology
from consistency_lab.trace import VisibilityTrace
from consistency_lab.workload import WorkloadSpec
from test_acceptance import _faulted_cfg
from test_golden import _skewed_gentlerain_cfg


def small_cfg(proto="cops", **kw):
    return ExperimentConfig(
        protocol=proto,
        seed=4,
        topology=kw.pop("topology", Topology(num_datacenters=3, partitions_per_dc=1)),
        ntt=2500,
        workload=WorkloadSpec(clients_per_dc=1, ops_per_client=20,
                              pattern="ratio", reads=3, writes=1,
                              keys_per_partition=5),
        **kw,
    )


def test_unknown_protocol_rejected():
    with pytest.raises(ConfigError, match="unknown protocol 'paxos'"):
        run_experiment(small_cfg("paxos"))


def test_invalid_quorum_rejected():
    cfg = small_cfg("dynamo")
    cfg.topology.r = 5
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_measure_uvl_simple_subtraction():
    trace = VisibilityTrace()
    vid = trace.new_version(1, 9, NodeId(0, 0), 100, ())
    trace.record_visible(vid, NodeId(0, 0), 100)
    trace.record_visible(vid, NodeId(1, 0), 2600)
    topo = Topology(num_datacenters=2, partitions_per_dc=1, n=2, r=1, w=1, spares=0)
    lags, unrep = measure_uvl(trace, topo)
    assert lags == [2500] and unrep == 0


def test_measure_uvl_unreplicated_reported_separately():
    trace = VisibilityTrace()
    vid = trace.new_version(1, 9, NodeId(0, 0), 100, ())
    trace.record_visible(vid, NodeId(0, 0), 100)
    topo = Topology(num_datacenters=3, partitions_per_dc=1)
    lags, unrep = measure_uvl(trace, topo)
    assert lags == [] and unrep == 2


def test_single_datacenter_uvl_empty():
    topo = Topology(num_datacenters=1, partitions_per_dc=2, n=1, r=1, w=1, spares=0)
    res = run_experiment(small_cfg(topology=topo))
    assert res.metrics.uvl_mean == 0.0


def test_throughput_bounded_by_capacity():
    res = run_experiment(small_cfg())
    topo = res.config.topology
    cap = topo.capacity * topo.num_datacenters * topo.partitions_per_dc
    assert 0 < res.metrics.throughput <= cap


def test_sweep_shares_seeds_and_shapes():
    rows = sweep(small_cfg(), "partitions", [1, 2], ["cops", "eventual"])
    assert len(rows) == 4
    protos = [p for p, _, _ in rows]
    assert protos == ["cops", "eventual", "cops", "eventual"]
    # identical seed at every point
    assert len({r.config.seed for _, _, r in rows}) == 1
    csv_text = metrics_csv(rows, axis="partitions")
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("protocol,partitions,throughput")
    assert len(lines) == 5


def test_apply_axis_variants():
    cfg = small_cfg()
    assert apply_axis(cfg, "partitions", "8").topology.partitions_per_dc == 8
    c2 = apply_axis(cfg, "ratio", "3:2")
    assert (c2.workload.reads, c2.workload.writes) == (3, 2)
    c3 = apply_axis(cfg, "rw_quorum", "3:1:3")
    assert (c3.topology.n, c3.topology.r, c3.topology.w) == (3, 1, 3)
    with pytest.raises(ValueError):
        apply_axis(cfg, "nodes", "2")


def test_metrics_csv_deterministic():
    a = metrics_csv([run_experiment(small_cfg()).metrics])
    b = metrics_csv([run_experiment(small_cfg()).metrics])
    assert a == b
    assert a.splitlines()[0] == (
        "protocol,throughput,uvl_mean,uvl_p99,availability,"
        "msgs_put_after,msgs_dep_check,msgs_quorum"
    )


# -- run lifecycle -----------------------------------------------------------


@pytest.mark.parametrize("make_cfg", [
    lambda: _faulted_cfg("gentlerain", 0),
    _skewed_gentlerain_cfg,
], ids=["faulted-gentlerain-0", "gentlerain-skew-1"])
def test_outputs_do_not_depend_on_the_client_phase_batch(make_cfg, monkeypatch):
    def outputs(res):
        return res.history.to_text(), res.trace.to_text(), res.digest

    default = outputs(run_experiment(make_cfg()))

    class Batched(Simulation):
        def run(self, until=None, max_events=None):
            return super().run(until, max_events and 997)

    monkeypatch.setattr(bench, "Simulation", Batched)
    assert outputs(run_experiment(make_cfg())) == default


@pytest.mark.parametrize("proto", sorted(PROTOCOLS))
def test_run_ends_exactly_drain_after_the_last_client(proto):
    for i in range(3):
        cfg = _faulted_cfg(proto, i)
        res = run_experiment(cfg)
        assert res.trace.end_time == res.metrics.duration + cfg.run.drain, i


def test_end_of_run_crash_set_is_taken_at_the_end_of_the_drain():
    res = run_experiment(_faulted_cfg("cops", 3))
    assert (res.metrics.duration, res.trace.end_time) == (170_596, 370_596)
    # node 2.0 is down over 324,666-448,375 us
    assert res.trace.crashed == {NodeId(2, 0)}


# -- config text form --------------------------------------------------------

SAMPLE = """
[experiment]
protocol = gentlerain
seed = 12

[topology]
num_datacenters = 3
partitions_per_dc = 2
clock_mode = hlc

[network]
ntt_row_0 = 0,2500,40000
ntt_row_1 = 2500,0,40000
ntt_row_2 = 40000,40000,0
jitter = 0.1

[clocks]
max_skew = 500
offset_0.0 = 300

[workload]
clients_per_dc = 2
ops_per_client = 50
pattern = read_all_write_one

[faults]
partitions = 0.0+0.1@1000:5000; 1.0@2000:3000
crashes = 2.1@100:900

[run]
drain = 150000
"""


def test_config_round_trip_identity():
    cfg = parse_config(SAMPLE)
    again = parse_config(emit_config(cfg))
    assert cfg == again


def test_config_fields_parsed():
    cfg = parse_config(SAMPLE)
    assert cfg.protocol == "gentlerain" and cfg.seed == 12
    assert cfg.topology.clock_mode == "hlc"
    assert cfg.ntt_matrix[0][2] == 40_000
    assert cfg.clock_offsets == {NodeId(0, 0): 300}
    assert len(cfg.partitions) == 2 and len(cfg.crashes) == 1
    assert cfg.partitions[0].group == frozenset({NodeId(0, 0), NodeId(0, 1)})
    assert cfg.run.drain == 150_000
    assert cfg.workload.seed == 12


def test_config_error_names_field():
    bad = SAMPLE.replace("partitions_per_dc = 2", "partitions_per_dc = 2\nr = 9")
    with pytest.raises(ConfigError, match="r"):
        parse_config(bad)


def test_config_bad_fault_interval():
    bad = SAMPLE.replace("2.1@100:900", "2.1@900:100")
    with pytest.raises(ConfigError):
        parse_config(bad)


# emit_config(parse_config(SAMPLE)), recorded before the text form was driven
# from the config dataclasses
SAMPLE_EMITTED = """\
[experiment]
protocol = gentlerain
seed = 12

[topology]
num_datacenters = 3
partitions_per_dc = 2
n = 3
r = 2
w = 2
spares = 1
gst_interval = 10000
heartbeat_interval = 5000
capacity = 50000
context_compaction = true
clock_mode = hlc

[network]
intra_dc_latency = 100
jitter = 0.1
loss_rate = 0.0
ntt_row_0 = 0,2500,40000
ntt_row_1 = 2500,0,40000
ntt_row_2 = 40000,40000,0

[clocks]
max_skew = 500
drift_ppm = 0.0
offset_0.0 = 300

[workload]
clients_per_dc = 2
ops_per_client = 50
pattern = read_all_write_one
reads = 9
writes = 1
key_dist = uniform
zipf_theta = 0.99
keys_per_partition = 100

[faults]
partitions = 0.0+0.1@1000:5000; 1.0@2000:3000
crashes = 2.1@100:900

[run]
op_timeout = 200000
quorum_timeout = 0
suspicion_window = 50000
drain = 150000
horizon = 300000000

"""


def test_config_emitted_text_pinned():
    assert emit_config(parse_config(SAMPLE)) == SAMPLE_EMITTED


def _every_option_set():
    ntt = [[0 if i == j else 1000 * (i + j + 1) for j in range(4)] for i in range(4)]
    return ExperimentConfig(
        protocol="dynamo",
        seed=7,
        topology=Topology(num_datacenters=4, partitions_per_dc=2, n=4, r=3, w=3, spares=2,
                          gst_interval=20_000, heartbeat_interval=7_000, capacity=40_000,
                          context_compaction=False, clock_mode="hlc"),
        ntt_matrix=ntt,
        intra_dc_latency=150,
        jitter=0.25,
        loss_rate=0.01,
        max_skew=700,
        drift_ppm=12.5,
        clock_offsets={NodeId(1, 1): -200, NodeId(3, 0): 40},
        workload=WorkloadSpec(clients_per_dc=3, ops_per_client=40, pattern="read_all_write_one",
                              reads=4, writes=2, key_dist="zipf", zipf_theta=0.8,
                              keys_per_partition=12, seed=7),
        partitions=[PartitionInterval(frozenset({NodeId(0, 0), NodeId(2, 1)}), 1000, 5000),
                    PartitionInterval(frozenset({NodeId(3, 1)}), 6000, 9000)],
        crashes=[CrashInterval(NodeId(3, 1), 200, 900), CrashInterval(NodeId(0, 1), 50, 60)],
        run=RunParams(op_timeout=150_000, quorum_timeout=9_000, suspicion_window=60_000,
                      drain=100_000, horizon=200_000_000),
    )


def test_config_round_trip_every_option():
    cfg = _every_option_set()
    default = ExperimentConfig()
    for section, (attr, names) in _SECTIONS.items():
        for name in names:
            ours = getattr(getattr(cfg, attr) if attr else cfg, name)
            theirs = getattr(getattr(default, attr) if attr else default, name)
            assert ours != theirs, f"{section}.{name} is at its default"
    assert parse_config(emit_config(cfg)) == cfg
    uniform = dataclasses.replace(cfg, ntt_matrix=None, ntt=1234)
    assert parse_config(emit_config(uniform)) == uniform


def test_config_round_trip_eleven_datacenters():
    # ntt_row_10 must stay the eleventh row, not sort between rows 1 and 2
    ntt = [[0 if i == j else 100 * (i + j) + 50 for j in range(11)] for i in range(11)]
    cfg = ExperimentConfig(topology=Topology(num_datacenters=11), ntt_matrix=ntt)
    assert parse_config(emit_config(cfg)) == cfg


def test_config_option_types_come_from_defaults():
    for cls in (Topology, RunParams, WorkloadSpec):
        for f in dataclasses.fields(cls):
            if f.name != "seed":
                assert type(f.default) in (int, float, bool, str), f"{cls.__name__}.{f.name}"


@pytest.mark.parametrize("edit, names", [
    pytest.param(("partitions_per_dc = 2", "partitons_per_dc = 2"), "topology.partitons_per_dc",
                 id="misspelled-option"),
    pytest.param(("[run]", "[run]\nhorizn = 5"), "run.horizn", id="unknown-option"),
    pytest.param(("[run]", "[runs]"), r"\[runs\]", id="unknown-section"),
    pytest.param(("clock_mode = hlc", "clock_mode = hlc\ncontext_compaction = maybe"),
                 "topology.context_compaction: cannot parse", id="bad-bool"),
    pytest.param(("ntt_row_2", "ntt_row_3"), "ntt_row", id="row-gap"),
    pytest.param(("ntt_row_0", "ntt = 5000\nntt_row_0"), "not both", id="ntt-and-rows"),
    pytest.param(("2.1@100:900", "2.1@100:9x0"), "faults.crashes: cannot parse",
                 id="bad-interval"),
    pytest.param(("protocol = gentlerain", "protocol = gentle%rain"), "unknown protocol",
                 id="percent-sign"),
    pytest.param(("offset_0.0", "offset_5.0"), "clocks.offset: node 5.0 outside",
                 id="offset-outside-topology"),
])
def test_config_rejects_unknown_or_unreadable_options(edit, names):
    with pytest.raises(ConfigError, match=names):
        parse_config(SAMPLE.replace(*edit))
