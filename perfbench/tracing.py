"""Span tracing installed from the benchmark's side of the API.

The traced run wraps the public entry point of every layer an attack
passes through (``Machine.run``, the CBP lookup and training calls, the
replay engine, the primitives, Pathfinder, the AES and JPEG attacks, the
batch engine, the trial harness and the service store).  The wrappers
live here, so no line of ``src/repro`` changes, and the untraced run
installs none of them.

A span is ``(id, name, start, end, parent, op, thread)``; spans are kept
in memory and written out as JSON lines when the run ends.  A span's
self time is its duration minus the time its child spans cover.  The
per-branch predictor calls (``HOT`` names) run millions of times, so
they are not kept one by one: each is folded into a ``(name, parent,
op)`` row carrying the call count and total time, which keeps both the
per-layer sums and the parent's self time exact.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Leaf spans aggregated per parent instead of recorded one by one.
HOT = frozenset({"cpu.cbp.predict", "cpu.cbp.observe", "cpu.phr.update"})


class _ThreadState:
    """Span stack and aggregates of one thread (merged when read)."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.op: Optional[int] = None
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[tuple] = []
        self.hot: Dict[tuple, list] = {}


class Tracer:
    """Collects spans and counts from the installed wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._undo: List[Callable[[], None]] = []
        #: ``ReplayStats`` of every replay engine built while tracing.
        self.replay_stats: List[Any] = []
        #: ``(op, monotonic time)`` at each service handler start.
        self.job_starts: List[Tuple[Optional[int], float]] = []
        #: ``id(params)`` -> op index, so a service worker thread can
        #: attribute its spans to the client's op.
        self.op_of_params: Dict[int, int] = {}

    # -- per-thread state ------------------------------------------------

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def set_op(self, op: Optional[int]) -> None:
        """Attribute the calling thread's next spans to op ``op``."""
        self.state().op = op

    def count(self, name: str, amount: float = 1) -> None:
        self.state().counts[name] += amount

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span named ``name``.

        ``after(tracer, args, kwargs, result)`` runs once the span has
        closed, to record counts read off the call's result.
        """
        tracer = self
        local = self._local
        hot = name in HOT
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = tracer.state()
            stack = state.stack
            frame = [clock(), 0.0, 0 if hot else next(tracer._ids)]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                state.calls[name] += 1
                state.self_s[name] += duration - frame[1]
                parent_id = parent[2] if parent is not None else None
                if hot:
                    row = state.hot.get((name, parent_id, state.op))
                    if row is None:
                        row = state.hot[(name, parent_id, state.op)] = [0, 0.0]
                    row[0] += 1
                    row[1] += duration
                else:
                    state.spans.append((frame[2], name, frame[0], end,
                                        parent_id, state.op))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str,
              after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by its traced form (undone by ``remove``)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self.wrap(name, raw.__func__, after))
        else:
            replacement = self.wrap(name, raw, after)
        self._undo.append(lambda: setattr(owner, attr, raw))
        setattr(owner, attr, replacement)

    def patch_handlers(self, handlers: Dict[str, Callable]) -> None:
        """Wrap every service job handler in a ``service.job`` span."""
        for kind, handler in list(handlers.items()):
            handlers[kind] = _job_span(self, handler)
            self._undo.append(
                lambda k=kind, h=handler: handlers.__setitem__(k, h))

    def remove(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            self._undo.pop()()

    def reset(self) -> None:
        """Drop everything recorded so far (the set-up's spans)."""
        with self._lock:
            for state in self._states:
                for table in (state.calls, state.self_s, state.counts,
                              state.spans, state.hot):
                    table.clear()
            self.replay_stats.clear()
            self.job_starts.clear()

    # -- reading -------------------------------------------------------------

    def merged(self) -> Tuple[Dict[str, int], Dict[str, float],
                              Dict[str, float]]:
        """``(calls, self_s, counts)`` summed over threads."""
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        counts: Dict[str, float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, value in state.calls.items():
                calls[key] += value
            for key, value in state.self_s.items():
                self_s[key] += value
            for key, value in state.counts.items():
                counts[key] += value
        return calls, self_s, counts

    def write(self, path) -> int:
        """Write every span and hot row as JSON lines; return the count."""
        written = 0
        with self._lock:
            states = list(self._states)
        with open(path, "w", encoding="utf-8") as out:
            for thread, state in enumerate(states):
                for span_id, name, start, end, parent, op in state.spans:
                    out.write(json.dumps({
                        "id": span_id, "name": name, "start": start,
                        "end": end, "parent": parent, "op": op,
                        "thread": thread}) + "\n")
                    written += 1
                for (name, parent, op), (calls, total) in state.hot.items():
                    out.write(json.dumps({
                        "name": name, "parent": parent, "op": op,
                        "thread": thread, "calls": calls,
                        "total_s": total}) + "\n")
                    written += 1
        return written


# ----------------------------------------------------------------------
# the instrumented entry points
# ----------------------------------------------------------------------

def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (see the module docstring)."""
    import repro.aes.keyrecovery as keyrecovery
    import repro.harness as harness
    import repro.harness.runner as runner
    import repro.service.jobs as jobs
    from repro.aes.attack import AesSpectreAttack
    from repro.batch import BatchMachine
    from repro.channels.flush_reload import FlushReloadChannel
    from repro.cpu.cbp import ConditionalBranchPredictor
    from repro.cpu.machine import Machine, MachineSnapshot
    from repro.cpu.phr import PathHistoryRegister
    from repro.jpeg.codec import JpegCodec
    from repro.jpeg.recovery import ImageRecoveryAttack
    from repro.pathfinder.search import PathSearch
    from repro.primitives.extended_read import ExtendedPhrReader
    from repro.primitives.read_phr import PhrReader
    from repro.primitives.read_pht import PhtReader
    from repro.replay import ReplayEngine
    from repro.service.store import SnapshotStore, TraceCache

    def run_counts(t, args, kwargs, result):
        t.count("isa.run.insn", result.perf.instructions)

    def to_bytes_counts(t, args, kwargs, result):
        t.count("cpu.to_bytes.bytes", len(result))

    def engine_built(t, args, kwargs, result):
        t.replay_stats.append(args[0].stats)

    def read_phr_counts(t, args, kwargs, result):
        t.count("primitives.read_phr.doublets", len(result.doublets))
        t.count("primitives.read_phr.iterations", result.iterations)

    def extended_counts(t, args, kwargs, result):
        t.count("primitives.extended_read.doublets", len(result.doublets))
        t.count("primitives.extended_read.probes", result.probes)

    def search_counts(t, args, kwargs, result):
        t.count("pathfinder.candidates", len(result))

    def leak_counts(t, args, kwargs, result):
        t.count("aes.leaks")
        t.count("aes.leak_attempts", result.attempts)

    def batch_counts(t, args, kwargs, result):
        t.count("batch.replicas", len(result))

    def trial_counts(t, args, kwargs, result):
        t.count("harness.trials", result.count)

    tracer.patch(Machine, "run", "isa.run", run_counts)
    tracer.patch(ConditionalBranchPredictor, "predict", "cpu.cbp.predict")
    # The commit path trains through ``update`` (``observe`` is predict
    # followed by update), so ``update`` is the observe-side call count.
    tracer.patch(ConditionalBranchPredictor, "update", "cpu.cbp.observe")
    tracer.patch(PathHistoryRegister, "update", "cpu.phr.update")
    tracer.patch(Machine, "snapshot", "cpu.snapshot")
    tracer.patch(Machine, "restore", "cpu.restore")
    tracer.patch(MachineSnapshot, "to_bytes", "cpu.to_bytes", to_bytes_counts)
    tracer.patch(MachineSnapshot, "from_bytes", "cpu.from_bytes")
    for attr in ("flush", "reload_times", "hot_slots"):
        tracer.patch(FlushReloadChannel, attr, "channels.flush_reload")
    tracer.patch(ReplayEngine, "__init__", "replay.init", engine_built)
    for attr in ("checkpoint", "capture", "adopt"):
        tracer.patch(ReplayEngine, attr, "replay.checkpoint")
    tracer.patch(ReplayEngine, "evaluate", "replay.evaluate")
    tracer.patch(PhrReader, "read", "primitives.read_phr", read_phr_counts)
    tracer.patch(ExtendedPhrReader, "read", "primitives.extended_read",
                 extended_counts)
    tracer.patch(PhtReader, "read_batch", "primitives.read_pht")
    tracer.patch(PathSearch, "search", "pathfinder.search", search_counts)
    tracer.patch(AesSpectreAttack, "leak_reduced_round", "aes.leak")
    tracer.patch(AesSpectreAttack, "two_round_leak", "aes.two_round_leak",
                 leak_counts)
    for attr in ("recover_key_byte", "recover_key_from_two_round_oracle"):
        tracer.patch(keyrecovery, attr, "aes.keyrecovery")
    tracer.patch(ImageRecoveryAttack, "recover", "jpeg.recover")
    tracer.patch(JpegCodec, "encode", "jpeg.encode")
    tracer.patch(BatchMachine, "run_batch", "batch.run_batch", batch_counts)
    tracer.patch(harness, "run_trials", "harness.run_trials", trial_counts)
    tracer.patch(runner, "run_trials", "harness.run_trials", trial_counts)
    tracer.patch(SnapshotStore, "get", "service.store.get")
    tracer.patch(SnapshotStore, "put", "service.store.put")
    tracer.patch(TraceCache, "get", "service.trace_cache.get")
    # The pool looks its handler up in this table per job.
    tracer.patch_handlers(jobs.HANDLERS)


def _job_span(tracer: Tracer, handler: Callable) -> Callable:
    """A service handler that opens a ``service.job`` span for its op."""
    inner = tracer.wrap("service.job", handler)

    @functools.wraps(handler)
    def traced(ctx, params):
        op = tracer.op_of_params.get(id(params))
        tracer.set_op(op)
        with tracer._lock:
            tracer.job_starts.append((op, time.monotonic()))
        try:
            return inner(ctx, params)
        finally:
            tracer.set_op(None)

    return traced


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

#: Every per-layer metric name with its unit, in report order.
LAYER_METRICS: Dict[str, str] = {}


def _declare(unit: str, *names: str) -> None:
    for name in names:
        LAYER_METRICS[name] = unit


_SPANNED = ("isa.run", "cpu.cbp.predict", "cpu.cbp.observe",
            "cpu.phr.update", "cpu.snapshot", "cpu.restore", "cpu.to_bytes",
            "cpu.from_bytes", "channels.flush_reload", "replay.checkpoint",
            "replay.evaluate", "primitives.read_phr",
            "primitives.extended_read", "primitives.read_pht",
            "pathfinder.search", "aes.leak", "batch.run_batch",
            "service.store.get", "service.store.put",
            "service.trace_cache.get")
for _name in _SPANNED:
    _declare("count", f"{_name}.calls")
    _declare("s", f"{_name}.self_s")
_declare("s", "aes.keyrecovery.self_s", "jpeg.recover.self_s",
         "jpeg.encode.self_s", "harness.run_trials.self_s",
         "service.pool.wait_s.p50", "service.pool.wait_s.tail",
         "service.pool.run_s")
_declare("count", "isa.run.insn", "batch.run_batch.replicas",
         "replay.prefix_runs", "replay.restores",
         "harness.trials", "service.pool.failed",
         "service.store.memory_hits", "service.store.disk_hits",
         "service.store.spills", "service.trace_cache.divergences")
_declare("bytes", "cpu.to_bytes.bytes", "service.store.disk_bytes")
_declare("1/s", "isa.insn_per_s", "cpu.cbp.calls_per_s",
         "batch.replicas_per_s")
_declare("fraction", "replay.hit_rate", "service.store.hit_rate",
         "service.trace_cache.hit_rate", "service.repeat_share")
_declare("ratio", "primitives.read_phr.iterations_per_doublet",
         "primitives.extended_read.probes_per_doublet",
         "pathfinder.candidates_per_search", "aes.leak.attempts_per_leak",
         "service.pool.attempts_per_job")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, extras: Dict[str, float]
                  ) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value; layers that did not run read 0.

    ``extras`` carries the numbers only the workload can see (service
    pool waits, store and trace-cache statistics, the repeat share).
    """
    calls, self_s, counts = tracer.merged()
    values: Dict[str, float] = {name: 0.0 for name in LAYER_METRICS}
    for name in _SPANNED:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("aes.keyrecovery", "jpeg.recover", "jpeg.encode",
                 "harness.run_trials"):
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    values["isa.run.insn"] = counts.get("isa.run.insn", 0)
    values["isa.insn_per_s"] = _ratio(counts.get("isa.run.insn", 0),
                                      self_s.get("isa.run", 0.0))
    cbp_calls = calls.get("cpu.cbp.predict", 0) + calls.get(
        "cpu.cbp.observe", 0)
    values["cpu.cbp.calls_per_s"] = _ratio(
        cbp_calls, self_s.get("cpu.cbp.predict", 0.0)
        + self_s.get("cpu.cbp.observe", 0.0))
    values["cpu.to_bytes.bytes"] = counts.get("cpu.to_bytes.bytes", 0)
    lookups = hits = 0
    for stats in tracer.replay_stats:
        values["replay.prefix_runs"] += stats.prefix_runs
        values["replay.restores"] += stats.restores
        lookups += stats.checkpoint_hits + stats.checkpoint_misses
        hits += stats.checkpoint_hits + stats.store_hits
    values["replay.hit_rate"] = _ratio(hits, lookups)
    values["primitives.read_phr.iterations_per_doublet"] = _ratio(
        counts.get("primitives.read_phr.iterations", 0),
        counts.get("primitives.read_phr.doublets", 0))
    values["primitives.extended_read.probes_per_doublet"] = _ratio(
        counts.get("primitives.extended_read.probes", 0),
        counts.get("primitives.extended_read.doublets", 0))
    values["pathfinder.candidates_per_search"] = _ratio(
        counts.get("pathfinder.candidates", 0),
        calls.get("pathfinder.search", 0))
    values["aes.leak.attempts_per_leak"] = _ratio(
        counts.get("aes.leak_attempts", 0), counts.get("aes.leaks", 0))
    values["batch.run_batch.replicas"] = counts.get("batch.replicas", 0)
    values["batch.replicas_per_s"] = _ratio(
        counts.get("batch.replicas", 0), self_s.get("batch.run_batch", 0.0))
    values["harness.trials"] = counts.get("harness.trials", 0)
    values.update(extras)
    unknown = set(values) - set(LAYER_METRICS)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return values
