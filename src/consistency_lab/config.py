"""Experiment configuration: a dataclass bundle with an INI text form.

One table, `_SECTIONS`, drives both directions of the text form.  It maps
each INI section to the `ExperimentConfig` attribute that holds its fields
(or the config itself) and its scalar options in emit order: `[topology]`
and `[run]` take every field of `Topology` and `RunParams`, `[workload]`
every field of `WorkloadSpec` but `seed`.  An option's type is the type of
its default.  Only `ntt`/`ntt_row_<i>`, `offset_<node>`, `partitions` and
`crashes` have their own syntax.  An unknown section or option is a
`ConfigError` that names it.  parse(emit(parse(text))) == parse(text).
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, fields, replace

from .protocols import PROTOCOLS
from .sim import (
    ClockModel,
    CrashInterval,
    FaultSchedule,
    NetworkModel,
    NodeId,
    PartitionInterval,
)
from .store import ConfigError, Topology
from .workload import WorkloadSpec


@dataclass
class RunParams:
    op_timeout: int = 200_000  # client-side per-operation timeout, us
    quorum_timeout: int = 0  # 0 = derive as 4 x max inter-DC latency
    suspicion_window: int = 50_000
    drain: int = 200_000  # extra time after the last client finishes
    horizon: int = 300_000_000  # hard stop for the whole run


@dataclass
class ExperimentConfig:
    protocol: str = "cops"
    seed: int = 0
    topology: Topology = field(default_factory=Topology)
    ntt: int = 40_000  # uniform one-way inter-DC latency (us) ...
    ntt_matrix: list = None  # ... unless an explicit matrix is given
    intra_dc_latency: int = 100
    jitter: float = 0.0
    loss_rate: float = 0.0
    max_skew: int = 0
    drift_ppm: float = 0.0
    clock_offsets: dict = None  # NodeId -> fixed offset override
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    partitions: list = field(default_factory=list)  # PartitionInterval
    crashes: list = field(default_factory=list)  # CrashInterval
    run: RunParams = field(default_factory=RunParams)

    # -- derived models ----------------------------------------------------

    def network(self) -> NetworkModel:
        d = self.topology.num_datacenters
        if self.ntt_matrix is not None:
            m = [list(row) for row in self.ntt_matrix]
        else:
            m = [[0 if i == j else self.ntt for j in range(d)] for i in range(d)]
        return NetworkModel(m, self.intra_dc_latency, self.jitter, self.loss_rate)

    def clock_model(self) -> ClockModel:
        return ClockModel(self.max_skew, self.drift_ppm, self.clock_offsets)

    def faults(self) -> FaultSchedule:
        return FaultSchedule(list(self.partitions), list(self.crashes))

    def quorum_timeout(self) -> int:
        if self.run.quorum_timeout:
            return self.run.quorum_timeout
        d = self.topology.num_datacenters
        net = self.network()
        worst = max(
            (net.ntt[i][j] for i in range(d) for j in range(d)),
            default=net.intra_dc_latency,
        )
        return 4 * max(worst, net.intra_dc_latency)

    def validate(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol: unknown protocol {self.protocol!r}")
        self.topology.validate()
        net = self.network()
        if len(net.ntt) != self.topology.num_datacenters:
            raise ConfigError("network: ntt matrix size must equal the number of datacenters")
        try:
            net.validate()
        except ValueError as e:
            raise ConfigError(f"network: {e}") from None
        if self.max_skew < 0:
            raise ConfigError("clocks: max_skew must be >= 0")
        try:
            self.workload.validate()
        except ValueError as e:
            raise ConfigError(f"workload: {e}") from None
        try:
            self.faults().validate()
        except ValueError as e:
            raise ConfigError(f"faults: {e}") from None
        for iv in self.partitions:
            for n in iv.group:
                self._check_node(n, "faults.partitions")
        for iv in self.crashes:
            self._check_node(iv.node, "faults.crashes")
        for n in self.clock_offsets or ():
            self._check_node(n, "clocks.offset")
        r = self.run
        if r.op_timeout <= 0 or r.quorum_timeout < 0 or r.drain < 0 or r.horizon <= 0:
            raise ConfigError("run: op_timeout/quorum_timeout/drain/horizon out of range")

    def _check_node(self, n, where):
        t = self.topology
        if not (0 <= n.dc < t.num_datacenters and 0 <= n.partition < t.partitions_per_dc):
            raise ConfigError(f"{where}: node {n} outside the topology")


# ---------------------------------------------------------------------------
# text form


def _names(cls, skip=()):
    return tuple(f.name for f in fields(cls) if f.name not in skip)


# section -> (the ExperimentConfig attribute that holds its fields, or None
# for the config itself; its scalar options in emit order)
_SECTIONS = {
    "experiment": (None, ("protocol", "seed")),
    "topology": ("topology", _names(Topology)),
    "network": (None, ("intra_dc_latency", "jitter", "loss_rate")),
    "clocks": (None, ("max_skew", "drift_ppm")),
    "workload": ("workload", _names(WorkloadSpec, skip=("seed",))),
    "faults": (None, ()),
    "run": ("run", _names(RunParams)),
}


def _scalar(raw: str, current):
    """`raw` read as the type of `current`, the option's default."""
    if isinstance(current, bool):
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    return type(current)(raw)


def _text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def _node(tok: str) -> NodeId:
    try:
        d, p = tok.split(".")
        return NodeId(int(d), int(p))
    except ValueError:
        raise ConfigError(f"bad node id {tok!r} (want dc.partition)") from None


def _intervals(raw: str):
    """The `nodes@start:end` items of a `;`-separated list, as (nodes, start, end)."""
    for tok in filter(None, (s.strip() for s in raw.split(";"))):
        span = tok.rsplit("@", 1)
        if len(span) != 2 or ":" not in span[1]:
            raise ConfigError(f"bad fault interval {tok!r} (want nodes@start:end)")
        start, end = span[1].split(":")
        yield span[0], int(start), int(end)


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(str(e)) from None
    cfg = ExperimentConfig()
    rows, offsets = {}, {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        attr, names = _SECTIONS[section]
        obj = getattr(cfg, attr) if attr else cfg
        for name, raw in cp.items(section):
            try:
                if name in names:
                    setattr(obj, name, _scalar(raw, getattr(obj, name)))
                elif (section, name) == ("network", "ntt"):
                    cfg.ntt = int(raw)
                elif section == "network" and name.startswith("ntt_row_"):
                    rows[int(name[len("ntt_row_"):])] = [int(x) for x in raw.split(",")]
                elif section == "clocks" and name.startswith("offset_"):
                    offsets[_node(name[len("offset_"):])] = int(raw)
                elif (section, name) == ("faults", "partitions"):
                    cfg.partitions = [PartitionInterval(frozenset(map(_node, g.split("+"))), s, e)
                                      for g, s, e in _intervals(raw)]
                elif (section, name) == ("faults", "crashes"):
                    cfg.crashes = [CrashInterval(_node(n), s, e) for n, s, e in _intervals(raw)]
                else:
                    raise ConfigError(f"{section}.{name}: unknown option")
            except (KeyError, ValueError):
                raise ConfigError(f"{section}.{name}: cannot parse {raw!r}") from None
    if rows:
        if cp.has_option("network", "ntt"):
            raise ConfigError("network: give ntt or ntt_row_<i>, not both")
        if sorted(rows) != list(range(len(rows))):
            raise ConfigError("network: ntt_row_<i> must be numbered 0, 1, ... without gaps")
        cfg.ntt_matrix = [rows[i] for i in range(len(rows))]
    cfg.clock_offsets = offsets or None
    cfg.validate()
    # the workload carries its own derived seed so generation is reproducible
    cfg.workload = replace(cfg.workload, seed=cfg.seed)
    return cfg


def emit_config(cfg: ExperimentConfig) -> str:
    cp = configparser.ConfigParser(interpolation=None)
    for section, (attr, names) in _SECTIONS.items():
        obj = getattr(cfg, attr) if attr else cfg
        cp[section] = {name: _text(getattr(obj, name)) for name in names}
    if cfg.ntt_matrix is not None:
        for i, row in enumerate(cfg.ntt_matrix):
            cp["network"][f"ntt_row_{i}"] = ",".join(str(x) for x in row)
    else:
        cp["network"]["ntt"] = str(cfg.ntt)
    for node in sorted(cfg.clock_offsets or ()):
        cp["clocks"][f"offset_{node}"] = str(cfg.clock_offsets[node])
    if cfg.partitions:
        cp["faults"]["partitions"] = "; ".join(
            "+".join(str(n) for n in sorted(iv.group)) + f"@{iv.start}:{iv.end}"
            for iv in cfg.partitions
        )
    if cfg.crashes:
        cp["faults"]["crashes"] = "; ".join(
            f"{iv.node}@{iv.start}:{iv.end}" for iv in cfg.crashes
        )
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def load_config(path: str) -> ExperimentConfig:
    with open(path) as f:
        return parse_config(f.read())
