import dataclasses

import pytest

from consistency_lab.bench import run_experiment
from consistency_lab.checkers import check_dependency_visibility, check_eventual
from consistency_lab.config import ExperimentConfig, RunParams
from consistency_lab.history import GET, PUT
from consistency_lab.protocols.dynamo import preference_list
from consistency_lab.sim import ClientId, CrashInterval, NodeId, PartitionInterval
from consistency_lab.store import Topology, key_in_partition
from consistency_lab.workload import WorkloadSpec
from test_acceptance import _faulted_cfg


def base_cfg(**kw):
    topo = kw.pop("topology", Topology(num_datacenters=3, partitions_per_dc=2,
                                       n=3, r=2, w=2, spares=1))
    wl = kw.pop(
        "workload",
        WorkloadSpec(clients_per_dc=2, ops_per_client=30, pattern="ratio",
                     reads=3, writes=1, keys_per_partition=10),
    )
    run = kw.pop("run", RunParams(op_timeout=30_000))
    return ExperimentConfig(protocol="dynamo", seed=21, topology=topo, ntt=2500,
                            workload=wl, run=run, **kw)


# -- preference lists --------------------------------------------------------


def test_preference_list_distinct_and_sized():
    topo = Topology(num_datacenters=3, partitions_per_dc=4, n=3, r=2, w=2, spares=2)
    for key in (key_in_partition(p, 4, j) for p in range(4) for j in (0, 7)):
        pref = preference_list(key, topo)
        assert len(pref) == topo.n + topo.spares
        assert len(set(pref)) == len(pref)


def test_preference_list_top_n_straddles_datacenters():
    topo = Topology(num_datacenters=3, partitions_per_dc=4, n=3, r=2, w=2, spares=2)
    for j in range(20):
        key = key_in_partition(j % 4, 4, j)
        dcs = {n.dc for n in preference_list(key, topo)[:3]}
        assert dcs == {0, 1, 2}


def test_preference_list_deterministic():
    topo = Topology(num_datacenters=3, partitions_per_dc=2, n=3, r=2, w=2, spares=1)
    k = key_in_partition(1, 2, 3)
    assert preference_list(k, topo) == preference_list(k, topo)


# -- quorum behavior ---------------------------------------------------------


def test_clean_run_completes_and_completion_recorded():
    res = run_experiment(base_cfg())
    assert res.metrics.ops_failed == 0
    assert res.metrics.availability == 1.0
    # every write reached its quorum
    assert set(res.trace.completion) == set(res.trace.versions)
    assert check_dependency_visibility(res.trace).satisfied
    assert res.metrics.msgs_quorum > 0


def test_sibling_divergence_and_reconciliation():
    # two writes to one key through different coordinators (forced by a
    # partition) become vector-clock siblings; a later write with the merged
    # context subsumes both
    topo = Topology(num_datacenters=3, partitions_per_dc=1, n=3, r=3, w=1, spares=0)
    key = key_in_partition(0, 1, 4)
    pref = preference_list(key, topo)
    d0, d1 = pref[0].dc, pref[1].dc
    cfg = base_cfg(
        topology=topo,
        partitions=[PartitionInterval(frozenset([pref[0]]), 0, 100_000)],
    )
    streams = {
        ClientId(d0, 0): [(PUT, key, 1001)],
        ClientId(d1, 0): [(PUT, key, 1002)]
        + [(GET, key, None)] * 10
        + [(PUT, key, 1003)],
    }
    res = run_experiment(cfg, streams=streams)
    vids = {v.value: v.vid for v in res.trace.versions.values()}
    assert set(vids) == {1001, 1002, 1003}
    v3 = next(v for v in res.trace.versions.values() if v.value == 1003)
    # the reconciling write observed both siblings
    assert set(v3.deps) == {vids[1001], vids[1002]}
    assert check_eventual(res.trace, res.trace.end_time).satisfied
    for node in pref:
        assert res.trace.final_heads[(node, str(key))] == (v3.vid,)


def test_top_n_only_minority_partition_is_unavailable():
    # strict <3,3,3> quorums with no spares: isolating one owner makes both
    # reads and writes on that key fail
    topo = Topology(num_datacenters=3, partitions_per_dc=1, n=3, r=3, w=3, spares=0)
    key = key_in_partition(0, 1, 4)
    pref = preference_list(key, topo)
    cfg = base_cfg(
        topology=topo,
        partitions=[PartitionInterval(frozenset([pref[0]]), 0, 10_000_000)],
    )
    streams = {
        ClientId(pref[1].dc, 0): [(PUT, key, 1001), (GET, key, None)],
    }
    res = run_experiment(cfg, streams=streams)
    assert res.metrics.availability < 1.0


def test_sloppy_quorum_stays_available_with_spares():
    topo = Topology(num_datacenters=3, partitions_per_dc=2, n=3, r=2, w=2, spares=2)
    key = key_in_partition(0, 2, 4)
    pref = preference_list(key, topo)
    cfg = base_cfg(
        topology=topo,
        crashes=[CrashInterval(pref[0], 0, 10_000_000)],
    )
    streams = {
        ClientId(pref[1].dc, 0): [(PUT, key, 1001), (GET, key, None)],
    }
    res = run_experiment(cfg, streams=streams)
    assert res.metrics.availability == 1.0
    got = [e for e in res.history.operations() if e.op == GET]
    assert got[0].value == 1001


def test_hinted_handoff_restores_crashed_owner():
    topo = Topology(num_datacenters=3, partitions_per_dc=2, n=3, r=2, w=2, spares=2)
    key = key_in_partition(0, 2, 4)
    pref = preference_list(key, topo)
    crashed_owner = pref[1]
    cfg = base_cfg(
        topology=topo,
        crashes=[CrashInterval(crashed_owner, 0, 150_000)],
        run=RunParams(op_timeout=30_000, drain=400_000),
    )
    streams = {ClientId(pref[0].dc, 0): [(PUT, key, 1001)]}
    res = run_experiment(cfg, streams=streams)
    assert res.metrics.availability == 1.0
    (v,) = res.trace.versions.values()
    # after recovery and handoff, the intended owner holds the version
    assert res.trace.final_heads.get((crashed_owner, str(key))) == (v.vid,)
    # stand-ins outside the owner set gave their copy up
    for node in pref[topo.n:]:
        assert res.trace.final_heads.get((node, str(key))) is None
    assert check_eventual(res.trace, res.trace.end_time).satisfied


def test_deterministic_replay():
    cfg = base_cfg(jitter=0.1)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.digest == b.digest
    assert a.metrics == b.metrics


# -- op accounting and coordinator state -------------------------------------


def _late_reply_cfg(capacity):
    # overloaded coordinators answer after the client has already retried the
    # op elsewhere; op_timeout 1000 is raised to the 20 ms Dynamo floor
    return ExperimentConfig(
        protocol="dynamo",
        topology=Topology(num_datacenters=3, partitions_per_dc=2, capacity=capacity),
        ntt=2500,
        jitter=0.1,
        workload=WorkloadSpec(clients_per_dc=6, ops_per_client=6, pattern="ratio",
                              reads=1, writes=1, keys_per_partition=2),
        run=RunParams(op_timeout=1000),
    )


@pytest.mark.parametrize("capacity, seed", [(600, 4), (300, 0)])
def test_late_reply_to_last_op_is_stale(capacity, seed):
    # a reply from the first coordinator of a client's retried last op must
    # not finish the op a second time
    res = run_experiment(_late_reply_cfg(capacity), seed=seed)
    assert res.metrics.ops_ok + res.metrics.ops_failed == 3 * 6 * 6


@pytest.mark.parametrize("i", [0, 2])
def test_read_records_end_with_their_reads(i):
    res = run_experiment(_faulted_cfg("dynamo", i))
    assert all(not server.pending_get for server in res.servers.values())


@pytest.mark.parametrize("n", [3, 1])
@pytest.mark.parametrize("ops", [100, 1000])
def test_put_records_settle_without_faults(n, ops):
    # a put record leaves once it is answered and every store target acked,
    # so coordinator state does not grow with the op count
    topo = Topology(num_datacenters=3, partitions_per_dc=2, n=n, r=1, w=1 if n == 1 else 2,
                    spares=1)
    wl = WorkloadSpec(clients_per_dc=1, ops_per_client=ops, pattern="ratio",
                      reads=3, writes=1, keys_per_partition=10)
    res = run_experiment(base_cfg(topology=topo, workload=wl))
    assert res.metrics.ops_failed == 0
    assert all(not server.pending_put for server in res.servers.values())


def test_put_records_settle_under_faults():
    # only writes with a store target that never acked stay behind
    res = run_experiment(_faulted_cfg("dynamo", 0))
    assert sum(len(server.pending_put) for server in res.servers.values()) < 100
