"""Pinned event digests for runs whose kernels saw long capacity backlogs.

Each value was recorded from the kernel that re-pushed every waiting message
once per service slot.  A faster kernel must reproduce them exactly: the
event digest, the number of handled events and the final event id (which
counts every virtual re-push of a waiting message)."""

import pytest

import consistency_lab.bench as bench
from consistency_lab.sim import Simulation
from consistency_lab.workload import WorkloadSpec
from test_acceptance import _faulted_cfg, _saturated_cfg

GOLDEN = {
    # one partition per DC: the partition heal releases long backlogs
    "faulted-gentlerain-0": (
        lambda: _faulted_cfg("gentlerain", 0),
        "d35b55e912ae680860aebab313d34a964038e260f56514c9c43331c51ac75038",
        43_791,
        1_181_023,
    ),
    "faulted-cops-1": (
        lambda: _faulted_cfg("cops", 1),
        "214b437c78dc4cda23da3f9ccc43011fcae8545e48be30214ebe76ce77b72667",
        58_618,
        90_364,
    ),
    # 16 partitions per DC at 500 msg/s per node, 1:1 reads to writes
    "saturated-cops-16": (
        lambda: _saturated_cfg("cops", 31, 16, WorkloadSpec(
            clients_per_dc=8, ops_per_client=120, pattern="ratio", reads=1,
            writes=1, keys_per_partition=2, seed=31)),
        "ff7cdca65d2b93f82404964772d55e7fb0b8ae6b6fe4f941ba6e47f976849672",
        21_916,
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
