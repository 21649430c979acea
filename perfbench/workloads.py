"""The benchmark's three workloads: inputs from a seed, one unit of work, and
the check that decides whether a unit failed.

Seed 0 reproduces the configurations of the acceptance tests
(`tests/test_acceptance.py`): `_faulted_cfg(proto, i)` for i = 0..23, the
throughput sweeps at workload seeds 11 and 31, and the exhaustive corpus
sampled from its first history.  Seed n shifts the run and workload seeds
(and the corpus sample) by n; the faulted fault schedules stay those of
i = 0..23.  The program receives only the generated configurations, op
streams and histories.
"""

from __future__ import annotations

import itertools
import random

from consistency_lab.bench import metrics_csv
from consistency_lab.config import ExperimentConfig, RunParams, emit_config, parse_config
from consistency_lab.history import GET, INITIAL, PUT, History
from consistency_lab.sim import CrashInterval, NodeId, PartitionInterval
from consistency_lab.store import Topology
from consistency_lab.workload import WorkloadSpec, generate_workload

CAUSAL_PROTOCOLS = ("cops", "gentlerain")


class UnitFailed(Exception):
    """A unit broke a property its protocol or model promises."""


def _round_trip(cfg):
    """What `consistency-lab run` reads: the config's text form, parsed."""
    parsed = parse_config(emit_config(cfg))
    if parsed != cfg:
        raise UnitFailed(f"config did not survive its text form: seed {cfg.seed}")
    return parsed


# ---------------------------------------------------------------------------
# faulted: COPS, GentleRain and Dynamo under one partition and one crash


def faulted_cfg(proto, i):
    """`_faulted_cfg` of the acceptance tests."""
    parts = (1, 4, 8)[i % 3]
    rng = random.Random(9000 + i)
    nodes = [NodeId(d, p) for d in range(3) for p in range(parts)]
    pnode, cnode = rng.choice(nodes), rng.choice(nodes)
    ps = rng.randrange(50_000, 200_000)
    pl = rng.randrange(100_000, 400_000)
    cs = rng.randrange(50_000, 400_000)
    cl = rng.randrange(50_000, 200_000)
    return ExperimentConfig(
        protocol=proto,
        seed=9000 + i,
        topology=Topology(num_datacenters=3, partitions_per_dc=parts),
        ntt=2500,
        jitter=0.1,
        partitions=[PartitionInterval(frozenset([pnode]), ps, ps + pl)],
        crashes=[CrashInterval(cnode, cs, cs + cl)],
        workload=WorkloadSpec(clients_per_dc=4, ops_per_client=834, pattern="ratio",
                              reads=3, writes=1, keys_per_partition=8, seed=9000 + i),
        run=RunParams(op_timeout=100_000),
    )


def sampled_subhistories(history, rng, samples=50, window=5):
    """`_sampled_subhistories` of the acceptance tests: windows of consecutive
    completed operations of one client, closed under the PUTs they read."""
    by_proc, writers = {}, {}
    for o in history.operations():
        if o.complete:
            by_proc.setdefault(o.process, []).append(o)
        if o.op == PUT:
            writers[(o.key, o.value)] = o
    procs = sorted(p for p in by_proc if by_proc[p])
    out = []
    for _ in range(samples):
        p = rng.choice(procs)
        ops = by_proc[p]
        start = rng.randrange(len(ops))
        win = ops[start : start + window]
        seen = {o.op_id for o in win}
        extra = []
        for o in win:
            if o.op == GET and o.value is not INITIAL:
                w = writers.get((o.key, o.value))
                if w is not None and w.op_id not in seen:
                    seen.add(w.op_id)
                    extra.append(w)
        h = History()
        for w in sorted(extra, key=lambda o: o.op_id):
            h.record_call("w%d" % w.op_id, PUT, w.key, w.value, w.op_id)
            if w.complete:
                h.record_resp("w%d" % w.op_id, PUT, w.key, None, w.op_id)
        for o in win:
            h.record_call(p, o.op, o.key, o.value if o.op == PUT else None, o.op_id)
            h.record_resp(p, o.op, o.key, o.value if o.op == GET else None, o.op_id)
        out.append(h)
    return out


class UnitOut:
    """One unit's outcome: its client operations, a record for the report,
    and what its fingerprint hashes (or the result to take it from)."""

    __slots__ = ("ops", "info", "texts", "result")

    def __init__(self, ops, info, texts=None, result=None):
        self.ops = ops
        self.info = info
        self.texts = texts
        self.result = result


def _check_counts(res, issued):
    m = res.metrics
    if m.ops_ok + m.ops_failed != issued:
        raise UnitFailed(f"{m.ops_ok} ok + {m.ops_failed} failed != {issued} issued")


def _sim_info(cfg, res):
    m = res.metrics
    return {
        "protocol": cfg.protocol,
        "seed": cfg.seed,
        "partitions": cfg.topology.partitions_per_dc,
        "ops_ok": m.ops_ok,
        "ops_failed": m.ops_failed,
        "versions": len(res.trace.versions),
        "drops": len(res.trace.drops),
        "post_finish_sim_us": res.trace.end_time - m.duration,
    }


class Faulted:
    name = "faulted"
    protocols = ("cops", "gentlerain", "dynamo")
    per_protocol = 24  # eight of each partition count 1, 4, 8

    def setup(self, seed, timer):
        # The fault schedule alone sets a run's cost: one GentleRain run with
        # a single partition per DC takes 0.24 to 1.1 s depending on it, and
        # seed-chosen schedules made a pass's time spread 6.5% between seeds
        # (2-CPU x86-64 VM, Python 3.11).  So the seed moves the run and
        # workload seeds, and the schedules stay.
        units = []
        for i in range(self.per_protocol):
            run_seed = 9000 + i + 1000 * seed
            for proto in self.protocols:
                cfg = faulted_cfg(proto, i)
                cfg.seed = cfg.workload.seed = run_seed
                with timer("config.roundtrip_s"):
                    cfg = _round_trip(cfg)
                with timer("workload.generate_s"):
                    streams = generate_workload(cfg.workload, cfg.topology)
                units.append((cfg, streams, i))
        return units

    def unit(self, L, item):
        """Run, export and read back as `consistency-lab run` and `check` do,
        then check what the protocol promises."""
        cfg, streams, i = item
        res = L.run_experiment(cfg, streams=streams)
        issued = sum(len(ops) for ops in streams.values())
        _check_counts(res, issued)
        csv = L.metrics_csv([res.metrics])
        htext = L.history_to_text(res.history)
        ttext = L.trace_to_text(res.trace)
        parsed = L.history_from_text(htext)
        if parsed.events != res.history.events:
            raise UnitFailed("history did not survive its text form")
        info = _sim_info(cfg, res)
        info["i"] = i
        info["history_bytes"] = len(htext)
        info["trace_bytes"] = len(ttext)
        dv = L.check_dependency_visibility(res.trace)
        info["dep_visibility"] = dv.satisfied
        if cfg.protocol in CAUSAL_PROTOCOLS:
            if not dv.satisfied:
                raise UnitFailed(f"dependency visibility violated: {dv.violation[:3]}")
            rng = random.Random(31_337 + cfg.seed - 9000)
            for h in sampled_subhistories(parsed, rng):
                if not L.check_causal(h).satisfied:
                    raise UnitFailed(f"causal window violated:\n{h.to_text()}")
        texts = (htext, ttext, csv, res.digest)
        return UnitOut(issued, info, texts=texts)

    def fingerprint(self, out):
        return out.texts


# ---------------------------------------------------------------------------
# saturated: the capacity-gated throughput experiments


def saturated_cfg(proto, seed, parts, workload):
    """`_saturated_cfg` of the acceptance tests."""
    return ExperimentConfig(
        protocol=proto,
        seed=seed,
        topology=Topology(num_datacenters=3, partitions_per_dc=parts, capacity=500),
        ntt=2500,
        workload=workload,
        run=RunParams(op_timeout=5_000_000, horizon=2_000_000_000),
    )


class Saturated:
    name = "saturated"
    protocols = ("cops", "gentlerain", "eventual")

    def setup(self, seed, timer):
        specs = []
        for parts in (1, 2, 4, 8, 16, 32):
            s = 11 + seed
            wl = WorkloadSpec(clients_per_dc=8, ops_per_client=8 * (parts + 1),
                              pattern="read_all_write_one", keys_per_partition=8, seed=s)
            specs.append((s, parts, wl))
        for reads, writes in ((9, 1), (1, 1), (1, 9)):
            s = 31 + seed
            wl = WorkloadSpec(clients_per_dc=8, ops_per_client=120, pattern="ratio",
                              reads=reads, writes=writes, keys_per_partition=2, seed=s)
            specs.append((s, 16, wl))
        units = []
        for s, parts, wl in specs:
            for proto in self.protocols:
                with timer("config.roundtrip_s"):
                    cfg = _round_trip(saturated_cfg(proto, s, parts, wl))
                with timer("workload.generate_s"):
                    streams = generate_workload(cfg.workload, cfg.topology)
                units.append((cfg, streams, s))
        return units

    def unit(self, L, item):
        """A throughput point: no operation may fail."""
        cfg, streams, _ = item
        res = L.run_experiment(cfg, streams=streams)
        issued = sum(len(ops) for ops in streams.values())
        _check_counts(res, issued)
        if res.metrics.ops_failed:
            raise UnitFailed(f"{res.metrics.ops_failed} operations failed")
        return UnitOut(issued, _sim_info(cfg, res), result=res)

    def fingerprint(self, out):
        # export is not part of a throughput point: it runs outside the
        # timed unit, untraced, only to make the fingerprint
        res = out.result
        out.result = None
        return (res.history.to_text(), res.trace.to_text(), metrics_csv([res.metrics]),
                res.digest)


# ---------------------------------------------------------------------------
# corpus: every two-process history of at most six operations

CORPUS_SIZE = 539_153
CORPUS_STRIDE = 54
KINDS = ((GET, "x"), (GET, "y"), (PUT, "x"), (PUT, "y"))


def corpus(max_ops=6):
    """`_corpus` of the acceptance tests: (ops1, ops2), per-process lists of
    (kind, key, value, pending) tuples."""
    for n1 in range(max_ops + 1):
        for n2 in range(min(n1, max_ops - n1) + 1):
            for kinds in itertools.product(range(4), repeat=n1 + n2):
                # canonical PUT values: k-th PUT to a key writes k
                nx = ny = 0
                put_vals = {}
                ok = True
                for pos, k in enumerate(kinds):
                    if k == 2:
                        if nx == 3:
                            ok = False
                            break
                        put_vals[pos] = nx
                        nx += 1
                    elif k == 3:
                        if ny == 3:
                            ok = False
                            break
                        put_vals[pos] = ny
                        ny += 1
                if not ok:
                    continue
                xvals = [INITIAL] + list(range(nx))
                yvals = [INITIAL] + list(range(ny))
                last = n1 + n2 - 1
                for f1 in range(2 if n1 else 1):
                    for f2 in range(2 if n2 else 1):
                        def pend(pos):
                            return (f1 and pos == n1 - 1) or (f2 and pos == last)

                        slots = [
                            (xvals if k == 0 else yvals)
                            for pos, k in enumerate(kinds)
                            if k <= 1 and not pend(pos)
                        ]
                        for combo in itertools.product(*slots):
                            it = iter(combo)

                            def mk(seg, base):
                                out = []
                                for j, k in enumerate(seg):
                                    pos = base + j
                                    kind, key = KINDS[k]
                                    if kind == PUT:
                                        v = put_vals[pos]
                                    elif pend(pos):
                                        v = None
                                    else:
                                        v = next(it)
                                    out.append((kind, key, v, pend(pos)))
                                return out

                            yield mk(kinds[:n1], 0), mk(kinds[n1:], n1)


def build_history(ops1, ops2):
    """The acceptance tests' serial history: p1 runs fully before p2."""
    h = History()
    for p, base, ops in (("p1", 0, ops1), ("p2", 100, ops2)):
        for i, (kind, key, value, pending) in enumerate(ops):
            h.record_call(p, kind, key, value if kind == PUT else None, base + i)
            if not pending:
                h.record_resp(p, kind, key, value if kind == GET else None, base + i)
    return h


MODELS = ("lin", "seq", "causal", "pram")


class Corpus:
    name = "corpus"
    protocols = ()

    def setup(self, seed, timer):
        offset = seed % CORPUS_STRIDE
        sample, n = [], 0
        with timer("corpus.enumerate_s"):
            for k, pair in enumerate(corpus()):
                if k % CORPUS_STRIDE == offset:
                    sample.append(pair)
                n = k + 1
        if n != CORPUS_SIZE:
            raise UnitFailed(f"corpus has {n} histories, expected {CORPUS_SIZE}")
        return sample

    def unit(self, L, item):
        """All four models, deciding and minimising as `consistency-lab check`
        does; the verdicts must respect lin => seq => causal => PRAM."""
        ops1, ops2 = item
        with L.span("history.build"):
            h = build_history(ops1, ops2)
        bits = (
            L.check_linearizable(h).satisfied,
            L.check_sequential(h).satisfied,
            L.check_causal(h).satisfied,
            L.check_pram(h).satisfied,
        )
        for stronger, weaker in zip(bits, bits[1:]):
            if stronger and not weaker:
                raise UnitFailed(f"hierarchy violated {bits}: {h.to_text()}")
        return UnitOut(len(ops1) + len(ops2), {"bits": bits}, texts=(bytes(bits),))

    def fingerprint(self, out):
        return out.texts


WORKLOADS = {w.name: w for w in (Faulted(), Saturated(), Corpus())}
