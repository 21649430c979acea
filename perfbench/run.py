"""consistency-lab benchmark: one workload per invocation, host time only.

    python3 perfbench/run.py --workload faulted|saturated|corpus \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  Set-up (import, configs and their text round trip, op streams, the
corpus enumeration) is timed several times and reported as `setup_s`.  Then
the workload's fixed pass of units (a simulation run, or a corpus history)
repeats while another pass still fits in `--seconds` (at least once).  Every pass checks every unit and
hashes its outputs; the passes' fingerprints must be equal.  End-to-end
figures take each unit's median over the passes.

With `--trace 1` one more pass runs with spans recorded around every layer
(see tracer.py), and the per-layer metrics replace the end-to-end ones.

The last line of standard output is the result object; the line before it
is a report of the machine and the run.  Spans and per-unit counters go to
`.perfbench-out/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
# set-up repeats at least 3 times, and up to 20 times until it has taken 1 s
SETUP_REPS = (3, 20)
SETUP_MIN_S = 1.0


def _import_program():
    """Import the program from this checkout's `src/`, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "consistency_lab")):
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, SRC)
    import consistency_lab

    if not os.path.abspath(consistency_lab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported {consistency_lab.__file__}, not {SRC}")
    import tracer
    import workloads

    return tracer, workloads


class SetupTimer:
    """Sums host time per set-up layer across one set-up."""

    def __init__(self):
        self.seconds = defaultdict(float)

    @contextmanager
    def __call__(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0


class Pass:
    """Outcome of one pass over a workload's units."""

    def __init__(self):
        self.failed = 0
        self.errors = []
        self.fingerprint = None
        self.infos = []


def run_pass(wl, L, units, times, tracer=None, keep_infos=True):
    p = Pass()
    sha = hashlib.sha256()
    for k, item in enumerate(units):
        if tracer is not None:
            tracer.unit = k
            tracer.sims.clear()
            tracer.last_done_processed = 0
            rec = tracer.open("unit")
        t0 = time.perf_counter()
        try:
            out = wl.unit(L, item)
        except Exception as e:  # a unit that raises is a failed unit
            out, err = None, f"unit {k}: {e!r}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(rec)
        times[k].append(t1 - t0)
        if out is None:
            p.failed += 1
            if len(p.errors) < 5:
                p.errors.append(err)
            sha.update(b"failed\0")
            p.infos.append(None)
            continue
        for chunk in wl.fingerprint(out):
            sha.update(chunk if isinstance(chunk, bytes) else chunk.encode())
            sha.update(b"\0")
        if not keep_infos:
            continue
        info = dict(out.info)
        info["ops"] = out.ops
        if tracer is not None and tracer.sims:
            sim = tracer.sims[-1]
            info["events"] = sim.processed
            info["heap_pushes"] = sim._eid
            info["events_after_finish"] = sim.processed - tracer.last_done_processed
            info["msg_counts"] = dict(sorted(sim.msg_counts.items()))
        p.infos.append(info)
    p.fingerprint = sha.hexdigest()
    return p


def _div(a, b):
    return a / b if b else 0.0


def _p99(values):
    return statistics.quantiles(values, n=100)[98] if len(values) > 1 else values[0]


def end_to_end(setup_s, unit_medians, ops, rss_mb):
    wall = sum(unit_medians)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (ops / wall, "1/s"),
        "units_per_s": (len(unit_medians) / wall, "1/s"),
        "unit_ms_p50": (statistics.median(unit_medians) * 1e3, "ms"),
        "unit_ms_p99": (_p99(unit_medians) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(wl_name, tracer, infos, untraced_wall, setup_layers):
    """Per-layer metrics from the traced pass's spans and counters."""
    from tracer import END, NAME, PARENT, START, TAG, UNIT, LAYERS

    spans = tracer.spans

    def dur(s):
        return (s[END] - s[START]) / 1e9

    by_name = defaultdict(float)
    for s in spans:
        by_name[s[NAME]] += dur(s)
    sims = [i for i in infos if i and "events" in i]
    events = sum(i["events"] for i in sims)
    pushes = sum(i["heap_pushes"] for i in sims)
    run_s = by_name["Simulation.run"]
    sim_self_s = tracer.self_ns["sim"] / 1e9

    m = {
        "sim.events": (events, "count"),
        "sim.heap_pushes": (pushes, "count"),
        "sim.drops": (sum(i["drops"] for i in sims), "count"),
        "sim.useful_ratio": (_div(events, pushes), "ratio"),
        "sim.events_after_finish": (sum(i["events_after_finish"] for i in sims), "count"),
        "sim.self_us_per_event": (_div(sim_self_s * 1e6, events), "us"),
        "sim.events_per_s": (_div(events, run_s), "1/s"),
    }

    run_s_by_unit = defaultdict(float)
    for s in spans:
        if s[NAME] == "Simulation.run":
            run_s_by_unit[s[UNIT]] += dur(s)
    for proto in ("cops", "gentlerain", "dynamo", "eventual"):
        calls, ns = tracer.handlers.get(proto, (0, 0))
        units = [k for k, i in enumerate(infos) if i and i.get("protocol") == proto]
        ops = sum(infos[k]["ops"] for k in units)
        proto_run_s = sum(run_s_by_unit[k] for k in units)
        m[f"protocols.{proto}.msgs_per_op"] = (_div(calls, ops), "msg/op")
        m[f"protocols.{proto}.handle_us_per_msg"] = (_div(ns / 1e3, calls), "us")
        m[f"protocols.{proto}.handler_share"] = (_div(ns / 1e9, proto_run_s), "ratio")

    phases = defaultdict(float)
    runs_of = defaultdict(list)
    for idx, s in enumerate(spans):
        if s[NAME] == "Simulation.run":
            runs_of[s[PARENT]].append(s)
    for idx, s in enumerate(spans):
        if s[NAME] != "run_experiment" or not runs_of[idx]:
            continue
        runs = runs_of[idx]
        phases["setup"] += (runs[0][START] - s[START]) / 1e9
        phases["finalize"] += (s[END] - runs[-1][END]) / 1e9
        for r in runs:
            phases["client_phase" if r[TAG] == "client" else "drain"] += dur(r)
    for phase in ("setup", "client_phase", "drain", "finalize"):
        m[f"bench.{phase}_s"] = (phases[phase], "s")
    m["bench.post_finish_sim_us"] = (sum(i["post_finish_sim_us"] for i in sims), "us")

    m["workload.generate_s"] = (setup_layers.get("workload.generate_s", 0.0), "s")
    m["config.roundtrip_s"] = (setup_layers.get("config.roundtrip_s", 0.0), "s")
    m["perfbench.enumerate_s"] = (setup_layers.get("corpus.enumerate_s", 0.0), "s")

    m["history.to_text_s"] = (by_name["History.to_text"], "s")
    m["history.from_text_s"] = (by_name["History.from_text"], "s")
    m["trace.to_text_s"] = (by_name["VisibilityTrace.to_text"], "s")
    m["history.bytes"] = (sum(i.get("history_bytes", 0) for i in sims), "bytes")
    m["trace.bytes"] = (sum(i.get("trace_bytes", 0) for i in sims), "bytes")
    builds = [dur(s) for s in spans if s[NAME] == "history.build"]
    m["history.build_us"] = (_div(sum(builds) * 1e6, len(builds)), "us")

    depvis_s = by_name["check_dependency_visibility"]
    checked_versions = sum(i["versions"] for i in sims if "dep_visibility" in i)
    m["checkers.dep_visibility_s"] = (depvis_s, "s")
    m["checkers.versions_per_s"] = (_div(checked_versions, depvis_s), "1/s")
    m["checkers.causal_windows_s"] = (by_name["check_causal"] if sims else 0.0, "s")
    for model in ("linearizable", "sequential", "causal", "pram"):
        short = {"linearizable": "lin", "sequential": "seq"}.get(model, model)
        verdicts = defaultdict(list)
        if wl_name == "corpus":
            for s in spans:
                if s[NAME] == f"check_{model}":
                    verdicts[s[TAG]].append(dur(s))
        m[f"checkers.{short}.sat_us"] = (_div(sum(verdicts[True]) * 1e6, len(verdicts[True])), "us")
        m[f"checkers.{short}.viol_us"] = (_div(sum(verdicts[False]) * 1e6, len(verdicts[False])), "us")
        m[f"checkers.{short}.satisfied"] = (len(verdicts[True]), "count")
    m["checkers.dynamo_depvis_violations"] = (
        sum(1 for i in sims if i["protocol"] == "dynamo" and not i["dep_visibility"]),
        "count",
    )

    traced_wall = sum(dur(s) for s in spans if s[NAME] == "unit")
    for layer in LAYERS:
        m[f"layers.{layer}.self_s"] = (tracer.self_ns[layer] / 1e9, "s")
    m["tracing.wall_s"] = (traced_wall, "s")
    m["tracing.untraced_wall_s"] = (untraced_wall, "s")
    m["tracing.overhead_ratio"] = (_div(traced_wall, untraced_wall), "ratio")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("faulted", "saturated", "corpus"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    t0 = time.perf_counter()
    tracer_mod, workloads = _import_program()
    import_s = time.perf_counter() - t0
    wl = workloads.WORKLOADS[args.workload]

    setup_times, setup_layers = [], defaultdict(list)
    while len(setup_times) < SETUP_REPS[0] or (
        sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_REPS[1]
    ):
        units = None  # let the previous set-up's inputs go first
        timer = SetupTimer()
        t0 = time.perf_counter()
        units = wl.setup(args.seed, timer)
        setup_times.append(time.perf_counter() - t0)
        for name, s in timer.seconds.items():
            setup_layers[name].append(s)
    setup_s = import_s + statistics.median(setup_times)

    L = tracer_mod.Layers()
    times = [[] for _ in units]
    passes = []
    started = time.perf_counter()
    elapsed = pass_s = 0.0
    while not passes or elapsed + pass_s <= args.seconds:
        passes.append(run_pass(wl, L, units, times, keep_infos=not passes))
        pass_s = time.perf_counter() - started - elapsed
        elapsed += pass_s
    unit_medians = [statistics.median(t) for t in times]

    traced = tr = None
    if args.trace:
        tr = tracer_mod.Tracer()
        with tr.installed(wl.protocols):
            traced = run_pass(wl, tr.layers(), units, [[] for _ in units], tr)
        tr.close_handlers()
        passes.append(traced)

    fingerprints = sorted({p.fingerprint for p in passes})
    attempted = len(units) * len(passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and len(fingerprints) == 1
    ops = sum(i["ops"] for i in passes[0].infos if i)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if traced is None:
        metrics = end_to_end(setup_s, unit_medians, ops, rss_mb)
    else:
        metrics = per_layer(
            wl.name, tr, traced.infos, sum(unit_medians),
            {k: statistics.median(v) for k, v in setup_layers.items()},
        )

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "units": len(units),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "fingerprint": fingerprints[0] if len(fingerprints) == 1 else fingerprints,
        "errors": [e for p in passes for e in p.errors][:5],
        "setup_runs_s": setup_times,
        "import_s": import_s,
    }
    if wl.name == "corpus":
        bits = [i["bits"] for i in passes[0].infos if i]
        report["satisfied"] = {
            model: sum(b[j] for b in bits) for j, model in enumerate(workloads.MODELS)
        }
    if wl.name == "faulted":
        sims = [i for i in passes[0].infos if i]
        report["dynamo_depvis_violations"] = sorted(
            i["i"] for i in sims
            if i["protocol"] == "dynamo" and not i["dep_visibility"]
        )
        report["post_finish_sim_us"] = {
            f"{i['protocol']}:{i['seed']}": i["post_finish_sim_us"] for i in sims[:3]
        }
    _write_out(args, report, traced, tr)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def _write_out(args, report, traced, tr):
    os.makedirs(OUT_DIR, exist_ok=True)
    doc = {"report": report}
    if traced is not None:
        doc["units"] = traced.infos
        doc["handlers_by_type"] = [
            {"protocol": p, "role": r, "tname": t, "calls": c, "ns": ns}
            for (p, r, t), (c, ns) in sorted(tr.by_type.items())
        ]
        doc["span_fields"] = ["name", "start_ns", "end_ns", "parent", "unit", "child_ns", "tag"]
        doc["spans"] = tr.spans
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(doc, f)


if __name__ == "__main__":
    sys.exit(main())
