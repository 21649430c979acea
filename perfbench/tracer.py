"""Spans and counters for the traced pass of the benchmark.

The benchmark calls every layer through a `Layers` namespace.  For the timed
passes the namespace holds the program's own functions; for the traced pass
it holds wrappers that record a span around each call.  Calls that happen
inside the program (the kernel's `Simulation.__init__` and `Simulation.run`,
and every protocol's `SERVER.handle` and `CLIENT.handle`) are wrapped by
patching those classes for the duration of the traced pass only.

A span is (name, start, end, parent, unit id, tag).  Spans stay in memory and
are written out when the benchmark ends.  Handler calls are the one
exception: a faulted pass makes about two million of them, so each is folded
into a per-(protocol, message type) count and total as it ends, and its time
is still charged to the enclosing `Simulation.run` span as child time.  A
span's self time is its duration minus the time its children cover, so the
self times of all spans under the unit spans add up to the traced wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

_clock = time.perf_counter_ns

# span record fields
NAME, START, END, PARENT, UNIT, CHILD, TAG = range(7)

LAYER_OF = {
    "unit": "perfbench",
    "run_experiment": "bench",
    "metrics_csv": "bench",
    "Simulation.__init__": "sim",
    "Simulation.run": "sim",
    "History.to_text": "history",
    "History.from_text": "history",
    "history.build": "history",
    "VisibilityTrace.to_text": "trace",
    "check_linearizable": "checkers",
    "check_sequential": "checkers",
    "check_causal": "checkers",
    "check_pram": "checkers",
    "check_dependency_visibility": "checkers",
}

# the layers whose self times add up to a pass's wall time
LAYERS = ("perfbench", "bench", "sim", "protocols", "history", "trace", "checkers")


class Layers:
    """The layer entry points the benchmark calls, untraced."""

    def __init__(self):
        from consistency_lab import bench, checkers
        from consistency_lab.history import History
        from consistency_lab.trace import VisibilityTrace

        self.run_experiment = bench.run_experiment
        self.metrics_csv = bench.metrics_csv
        self.history_to_text = History.to_text
        self.history_from_text = History.from_text
        self.trace_to_text = VisibilityTrace.to_text
        self.check_linearizable = checkers.check_linearizable
        self.check_sequential = checkers.check_sequential
        self.check_causal = checkers.check_causal
        self.check_pram = checkers.check_pram
        self.check_dependency_visibility = checkers.check_dependency_visibility
        self.span = _no_span


@contextmanager
def _no_span(name, tag=None):
    yield


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.unit = None
        self.self_ns = {layer: 0 for layer in LAYERS}
        # protocol -> [handler calls, handler ns]; (protocol, role, tname) -> same
        self.handlers = {}
        self.by_type = {}
        self.sims = []  # Simulation instances built in the current unit
        self.last_done_processed = 0  # sim.processed when the last client finished

    # -- spans ------------------------------------------------------------

    def open(self, name, tag=None):
        rec = [name, _clock(), 0, self.stack[-1] if self.stack else -1, self.unit, 0, tag]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        return rec

    def close(self, rec):
        rec[END] = _clock()
        self.stack.pop()
        dur = rec[END] - rec[START]
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += dur
        self.self_ns[LAYER_OF[rec[NAME]]] += dur - rec[CHILD]

    @contextmanager
    def span(self, name, tag=None):
        rec = self.open(name, tag)
        try:
            yield rec
        finally:
            self.close(rec)

    def wrap(self, name, fn, tag_result=None):
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if tag_result is not None:
                    rec[TAG] = tag_result(result)
                return result
            finally:
                self.close(rec)

        return traced

    def layers(self):
        """A `Layers` namespace whose entry points record spans."""
        L = Layers()
        for attr, name in (
            ("run_experiment", "run_experiment"),
            ("metrics_csv", "metrics_csv"),
            ("history_to_text", "History.to_text"),
            ("history_from_text", "History.from_text"),
            ("trace_to_text", "VisibilityTrace.to_text"),
        ):
            setattr(L, attr, self.wrap(name, getattr(L, attr)))
        for name in (
            "check_linearizable",
            "check_sequential",
            "check_causal",
            "check_pram",
            "check_dependency_visibility",
        ):
            setattr(L, name, self.wrap(name, getattr(L, name), _satisfied))
        L.span = self.span
        return L

    # -- patches inside the program ----------------------------------------

    @contextmanager
    def installed(self, protocol_names):
        """Patch the kernel and the named protocols' handlers; undo on exit."""
        from consistency_lab.protocols import get_protocol
        from consistency_lab.sim import Simulation

        saved = []

        def patch(cls, attr, new):
            saved.append((cls, attr, cls.__dict__.get(attr)))
            setattr(cls, attr, new)

        init, run = Simulation.__init__, Simulation.run
        tracer = self

        def traced_init(sim, *args, **kwargs):
            with tracer.span("Simulation.__init__"):
                init(sim, *args, **kwargs)
            tracer.sims.append(sim)

        def traced_run(sim, until=None, max_events=None):
            phase = "drain" if max_events is None else "client"
            with tracer.span("Simulation.run", phase):
                return run(sim, until=until, max_events=max_events)

        patch(Simulation, "__init__", traced_init)
        patch(Simulation, "run", traced_run)
        for name in protocol_names:
            mod = get_protocol(name)
            patch(mod.SERVER, "handle", self._handler(name, "server", mod.SERVER.handle))
            patch(mod.CLIENT, "handle", self._handler(name, "client", mod.CLIENT.handle))
        try:
            yield
        finally:
            for cls, attr, old in reversed(saved):
                if old is None:
                    delattr(cls, attr)
                else:
                    setattr(cls, attr, old)

    def _handler(self, proto, role, fn):
        totals = self.handlers.setdefault(proto, [0, 0])
        by_type = self.by_type
        spans, stack = self.spans, self.stack
        tracer = self

        def handle(actor, sim, src, msg):
            was_done = role == "client" and actor.done
            t0 = _clock()
            fn(actor, sim, src, msg)
            dt = _clock() - t0
            totals[0] += 1
            totals[1] += dt
            key = (proto, role, msg.tname)
            agg = by_type.get(key)
            if agg is None:
                agg = by_type[key] = [0, 0]
            agg[0] += 1
            agg[1] += dt
            if stack:
                spans[stack[-1]][CHILD] += dt
            if role == "client" and not was_done and actor.done:
                tracer.last_done_processed = sim.processed

        return handle

    def close_handlers(self):
        """Charge the folded handler time to the protocols layer."""
        self.self_ns["protocols"] = sum(ns for _, ns in self.handlers.values())


def _satisfied(verdict):
    return verdict.satisfied
