"""The protocol interface: every module in PROTOCOLS exports a server, a
client, a trace mode and its replica sets the same way, and its actors
dispatch through the one routing table in base.py."""

import random

import pytest

from consistency_lab.config import ExperimentConfig
from consistency_lab.protocols import PROTOCOLS, base
from consistency_lab.protocols.base import Actor, BaseClient, Get, ServerNode, StartClient
from consistency_lab.protocols.dynamo import preference_list
from consistency_lab.sim import ClientId, Message, NodeId, Simulation
from consistency_lab.store import Topology, partition_for_key
from consistency_lab.trace import VisibilityTrace

TOPOLOGIES = [
    Topology(num_datacenters=3, partitions_per_dc=1),
    Topology(num_datacenters=1, partitions_per_dc=4),
    Topology(num_datacenters=2, partitions_per_dc=4, n=2, r=1, w=1, spares=2),
    Topology(num_datacenters=5, partitions_per_dc=8, n=4, r=2, w=3),
]


def _keys(topo):
    rng = random.Random(topo.num_datacenters * 100 + topo.partitions_per_dc)
    return [rng.getrandbits(64) for _ in range(50)] + [0, (1 << 64) - 1]


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_module_exports_the_interface(name):
    mod = PROTOCOLS[name]
    assert issubclass(mod.SERVER, ServerNode)
    assert issubclass(mod.CLIENT, BaseClient)
    assert mod.TRACE_MODE in ("node", "quorum")


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_replica_nodes(name):
    mod = PROTOCOLS[name]
    for topo in TOPOLOGIES:
        for key in _keys(topo):
            if name == "dynamo":
                expected = preference_list(key, topo)[: topo.n]
            else:
                p = partition_for_key(key, topo.partitions_per_dc)
                expected = tuple(NodeId(d, p) for d in range(topo.num_datacenters))
            assert mod.replica_nodes(key, topo) == expected


def _message_types(mod):
    """The Message subclasses defined in `mod` and in base.py."""
    return [
        obj
        for m in (mod, base)
        for obj in vars(m).values()
        if isinstance(obj, type) and issubclass(obj, Message) and obj.__module__ == m.__name__
    ]


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_every_message_type_is_routed(name):
    mod = PROTOCOLS[name]
    routes = mod.SERVER._routes.keys() | mod.CLIENT._routes.keys()
    types = _message_types(mod)
    assert len(types) > 6
    for cls in types:
        assert cls.tname in routes, cls.__name__


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_one_handle(name):
    mod = PROTOCOLS[name]
    assert mod.SERVER.handle is Actor.handle
    assert mod.CLIENT.handle is Actor.handle
    for obj in vars(mod).values():
        if isinstance(obj, type) and issubclass(obj, Actor) and obj is not Actor:
            assert "handle" not in vars(obj), obj.__name__


class _Unrouted(Message):
    tname = "no_such_type"


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_unrouted_message_raises(name):
    cfg = ExperimentConfig(protocol=name, topology=Topology(num_datacenters=1))
    node = NodeId(0, 0)
    sim = Simulation(cfg.network())
    sim.add_actor(node, PROTOCOLS[name].SERVER.from_config(node, VisibilityTrace(), cfg))
    sim.send(ClientId(0, 0), node, _Unrouted())
    with pytest.raises(KeyError):
        sim.run()


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_override_in_subclass_is_routed(name):
    mod = PROTOCOLS[name]
    for cls, msg in ((mod.SERVER, Get(ClientId(0, 0), 1, 5)), (mod.CLIENT, StartClient())):
        seen = []
        attr = "on_" + msg.tname
        sub = type("Sub", (cls,), {attr: lambda self, sim, src, m: seen.append(m)})
        assert sub._routes[msg.tname] is vars(sub)[attr]
        assert cls._routes[msg.tname] is getattr(cls, attr)
        others = {t: f for t, f in sub._routes.items() if t != msg.tname}
        assert others == {t: f for t, f in cls._routes.items() if t != msg.tname}
        object.__new__(sub).handle(None, ClientId(0, 0), msg)
        assert seen == [msg]
