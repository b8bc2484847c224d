"""The four benchmark workloads, driven through the public ``repro`` API.

Each workload turns a seed into an endless, deterministic stream of op
inputs, builds its context once (``setup``), runs one op at a time
(``run_op``), and verifies each op's output afterwards (``check``),
outside the timed region.  ``sim_fields`` names the simulated outputs
that go into the run's ``sim_digest``.

Ops are grouped into *cycles* (a fixed mix of op shapes); a timed run
always ends on a cycle boundary, so every run measures the same mix.
See ``NOTES.md`` beside this file for why each workload exists.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Directory (inside the checkout) for spill files, reports and spans.
WORK_DIR = Path(__file__).resolve().parent / ".work"


@dataclass
class Record:
    """One attempted op."""

    index: int
    item: Dict[str, Any]
    output: Any
    #: Reference seconds (``refclock``) the op took.
    seconds: float
    #: Host ``(start, end)`` of the op, reference slices included.
    span: Tuple[float, float]
    error: Optional[str] = None
    ok: bool = False
    #: Host seconds the op took, reference slices inside it left out.
    host_seconds: float = 0.0


class Workload:
    """Closed loop, one client, one op in flight.

    ``drive`` runs a reference slice (``refclock``) after every op and
    reports each op, and the loop's busy time, in reference seconds.
    """

    name = ""
    #: Modules whose import time counts towards ``setup_s``.
    imports: Tuple[str, ...] = ()
    #: Ops per cycle (runs end on a cycle boundary).
    cycle = 1
    #: Ops covered by ``sim_digest``; every run completes at least these.
    digest_ops = 1
    #: Ops a timed run completes at least, when more than ``digest_ops``.
    min_ops = 0
    #: The run's ``refclock.RefClock`` (set by ``drive``); an op that
    #: lasts many seconds runs slices inside itself through it.
    ref = None

    def __init__(self, tiny: bool = False) -> None:
        """``tiny`` shrinks the workload for the self-tests."""

    def inputs(self, seed: int) -> Iterator[Dict[str, Any]]:
        raise NotImplementedError

    def setup(self) -> Any:
        raise NotImplementedError

    def teardown(self, ctx: Any) -> None:
        pass

    def run_op(self, ctx: Any, item: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def check(self, item: Dict[str, Any], output: Any) -> bool:
        raise NotImplementedError

    def sim_fields(self, output: Any) -> Any:
        return output

    def layer_extras(self, ctx: Any, records: List[Record],
                     tracer) -> Dict[str, float]:
        return {}

    def finished(self, done: int, elapsed: float, seconds: Optional[float],
                 count: Optional[int]) -> bool:
        if count is not None:
            return done >= count
        return (elapsed >= seconds
                and done >= max(self.digest_ops, self.min_ops)
                and done % self.cycle == 0)

    def drive(self, ctx: Any, items: Iterator[Dict[str, Any]], ref, *,
              seconds: Optional[float] = None, count: Optional[int] = None,
              tracer=None) -> Tuple[List[Record], float]:
        """Run ops until ``finished``; return the records and busy time.

        The busy time is the ops' summed reference seconds: the loop
        minus the reference slices run after each op.
        """
        self.ref = ref
        records: List[Record] = []
        clock = time.perf_counter
        start = clock()
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.set_op(index)
            begin = clock()
            try:
                output, error = self.run_op(ctx, item), None
            except Exception as exc:  # noqa: BLE001 -- counted as a failure
                output, error = None, f"{type(exc).__name__}: {exc}"
            end = clock()
            records.append(Record(index, item, output, 0.0, (begin, end),
                                  error))
            ref.sample()
            if self.finished(len(records), clock() - start, seconds, count):
                break
        if tracer is not None:
            tracer.set_op(None)
        for record in records:
            begin, end = record.span
            record.host_seconds = end - begin - ref.spent(begin, end)
            record.seconds = ref.rescale(begin, end)
        return records, sum(record.seconds for record in records)


def _config():
    from repro.cpu import RAPTOR_LAKE
    return RAPTOR_LAKE


# ----------------------------------------------------------------------
# read_phr
# ----------------------------------------------------------------------

class _PlantedVictim:
    """A victim whose only act is a macro-path ``Write_PHR`` of ``value``."""

    def __init__(self, macros) -> None:
        self.macros = macros
        self.value = 0

    def invoke(self, thread: int = 0) -> None:
        self.macros.apply_write(self.value, thread=thread)


@dataclass
class _ReadPhrContext:
    machine: Any
    victim: _PlantedVictim


class ReadPhr(Workload):
    """One ``PhrReader.read`` of a planted random 388-bit PHR value.

    Seven of every eight reads take the paper's 16-doublet window; the
    eighth reads all 194 doublets.
    """

    name = "read_phr"
    imports = ("repro.cpu", "repro.primitives", "repro.utils.rng")
    cycle = 8
    digest_ops = 32
    #: Twelve full reads at least, so the ten ops beyond ``op_tail_s``
    #: are always full reads and the tail is one of them.
    min_ops = 96

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        self.window = 4 if tiny else 16
        if tiny:
            self.cycle = self.digest_ops = 4
            self.min_ops = 0

    def inputs(self, seed: int) -> Iterator[Dict[str, Any]]:
        rng = random.Random(seed)
        capacity = _config().phr_capacity
        index = 0
        while True:
            full = index % self.cycle == self.cycle - 1
            yield {"value": rng.getrandbits(2 * capacity),
                   "count": capacity if full else self.window,
                   "rng": rng.getrandbits(32)}
            index += 1

    def setup(self) -> _ReadPhrContext:
        from repro.cpu import Machine
        from repro.primitives import PhrMacros
        machine = Machine(_config())
        return _ReadPhrContext(machine, _PlantedVictim(PhrMacros(machine)))

    def run_op(self, ctx: _ReadPhrContext, item: Dict[str, Any]) -> Any:
        from repro.primitives import PhrReader
        from repro.utils.rng import DeterministicRng
        ctx.victim.value = item["value"]
        reader = PhrReader(ctx.machine, ctx.victim,
                           rng=DeterministicRng(item["rng"]))
        result = reader.read(count=item["count"])
        return {"doublets": result.doublets,
                "confidence": result.confidence,
                "iterations": result.iterations}

    def check(self, item: Dict[str, Any], output: Any) -> bool:
        from repro.cpu.phr import PathHistoryRegister
        count = item["count"]
        mask = (1 << (2 * count)) - 1
        doublets = output["doublets"]
        return (len(doublets) == count
                and PathHistoryRegister.from_doublets(doublets).value
                == item["value"] & mask)


# ----------------------------------------------------------------------
# aes_key
# ----------------------------------------------------------------------

class AesKey(Workload):
    """One full AES-128 key recovery for a fresh seeded key."""

    name = "aes_key"
    imports = ("repro.aes.trials", "repro.aes.keyrecovery")
    digest_ops = 2
    #: A key takes about 11 s (2-vCPU VM, Python 3.11), so a timed run
    #: always recovers this many keys, whatever ``--seconds`` says, for a
    #: p50 and tail that rest on more than two samples.
    min_ops = 4

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        if tiny:
            self.digest_ops = self.min_ops = 1

    def inputs(self, seed: int) -> Iterator[Dict[str, Any]]:
        rng = random.Random(seed)
        while True:
            yield {"key": bytes(rng.getrandbits(8) for _ in range(16))}

    def setup(self) -> None:
        # Machine construction plus victim assembly and predecode; the
        # per-key attack (and its profiling run) is built inside the op.
        from repro.aes.trials import AesAttackSpec, build_attack
        build_attack(AesAttackSpec(key=bytes(16)))

    def run_op(self, ctx: None, item: Dict[str, Any]) -> Any:
        from repro.aes.trials import AesAttackSpec, build_attack
        attack = build_attack(AesAttackSpec(key=item["key"]))
        attempts: List[int] = []
        leak = attack.two_round_leak

        def recorded_leak(*args, **kwargs):
            result = leak(*args, **kwargs)
            attempts.append(result.attempts)
            # A key takes seconds: rescale it by slices run along the way.
            self.ref.sample_inside()
            return result

        # The oracle behind ``recover_key`` calls ``self.two_round_leak``,
        # so this instance attribute sees every leak.
        attack.two_round_leak = recorded_leak
        key = attack.recover_key(workers=1)
        return {"key": key.hex(), "leaks": len(attempts),
                "attempts": sum(attempts)}

    def check(self, item: Dict[str, Any], output: Any) -> bool:
        return output["key"] == item["key"].hex()


# ----------------------------------------------------------------------
# image_recovery
# ----------------------------------------------------------------------

@dataclass
class _ImageContext:
    machine: Any
    pristine: Any
    codec: Any
    attack: Any


def _image_trial(context, index, rng):
    """Harness trial: one Figure 7 recovery from a pristine machine."""
    del index, rng
    ctx, image = context
    ctx.machine.restore(ctx.pristine)
    recovered = ctx.attack.recover(ctx.codec.encode(image))
    return {"map": recovered.complexity_map.tolist(),
            "probes": recovered.probes,
            "branches": recovered.recovered_branches}


def _context_of(spec):
    return spec


#: The eight kinds whose 24x24 recovery is cheapest (108-128 ms on a
#: 2-vCPU VM, against 163-313 ms for the other seven).  They appear twice
#: per cycle: with each kind once, the cheap ones are 8 of 15 ops, so the
#: median op sat on the step between the two groups and ``op_p50_s``
#: jumped between about 128 and 152 ms from run to run.
CHEAP_IMAGE_KINDS = ("checkerboard", "flat", "gradient", "qr_code",
                     "qr_code_2", "stripes_h", "stripes_v", "text_banner")


class ImageRecovery(Workload):
    """One Figure 7 recovery per op, through ``run_trials(workers=1)``.

    Each cycle visits every ``evaluation_images`` kind once and each of
    ``CHEAP_IMAGE_KINDS`` once more, in a seeded order; the machine,
    victim and CFG/path-search memo are shared.
    """

    name = "image_recovery"
    imports = ("repro.cpu", "repro.jpeg", "repro.harness", "repro.pathfinder")

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        from repro.jpeg.images import evaluation_images
        self.size = 16 if tiny else 24
        images = evaluation_images(self.size)
        kinds = sorted(images)[:3] if tiny else sorted(images)
        self.images = {kind: images[kind] for kind in kinds}
        self.kinds = kinds + [kind for kind in kinds
                              if kind in CHEAP_IMAGE_KINDS]
        self.cycle = len(self.kinds)
        self.digest_ops = self.cycle if tiny else 2 * self.cycle
        # Per-kind cost differs up to 10x, so the op behind ``op_tail_s``
        # depends on the op count; six whole cycles at least keep it on
        # the same kind from run to run.
        self.min_ops = 0 if tiny else 6 * self.cycle
        self._truth: Dict[str, Any] = {}

    def inputs(self, seed: int) -> Iterator[Dict[str, Any]]:
        rng = random.Random(seed)
        kinds = list(self.kinds)
        while True:
            rng.shuffle(kinds)
            for kind in kinds:
                yield {"kind": kind}

    def setup(self) -> _ImageContext:
        from repro.cpu import Machine
        from repro.jpeg import ImageRecoveryAttack, JpegCodec
        from repro.pathfinder import cached_cfg, cached_path_search
        machine = Machine(_config())
        codec = JpegCodec(quality=75)
        attack = ImageRecoveryAttack(machine, codec)
        program = attack.victim.program
        cached_path_search(cached_cfg(program,
                                      entry=program.address_of("idct")),
                           mode="exact", max_paths=4)
        return _ImageContext(machine, machine.snapshot(), codec, attack)

    def run_op(self, ctx: _ImageContext, item: Dict[str, Any]) -> Any:
        import repro.harness as harness
        report = harness.run_trials(
            _image_trial, 1, setup=_context_of,
            spec=(ctx, self.images[item["kind"]]), workers=1,
            on_error="collect")
        if report.failures:
            raise RuntimeError(report.failures[0].error)
        return report.values[0]

    def check(self, item: Dict[str, Any], output: Any) -> bool:
        import numpy as np
        from repro.jpeg import JpegCodec
        kind = item["kind"]
        if kind not in self._truth:
            self._truth[kind] = JpegCodec(quality=75).constancy_map(
                self.images[kind])
        return np.array_equal(np.array(output["map"]), self._truth[kind])


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------

SERVICE_KINDS = ("read_phr", "read_pht", "pathfinder_trace",
                 "aes_victim_signatures")
#: Of every cycle after the first, this many jobs repeat an earlier one
#: (``NOTES.md`` says why 2 and not 4).
REPEATS_PER_CYCLE = 2
#: Jobs kept in flight by the closed-loop client.
OUTSTANDING = 2
#: Loop iterations of the ``read_phr``/``read_pht`` victims: the quick
#: and full victim weights of ``benchmarks/bench_service_load.py``, where
#: the victim prefix dominates the per-guess suffixes, as for the AES and
#: IDCT victims.
VICTIM_ITERATIONS = (2000, 4000)
#: Doublets per ``read_phr`` job (``bench_service_load.READ_COUNT``).
READ_COUNT = 2
#: Key bytes whose Section 9 queries one signature job carries: with
#: four deltas per byte, 8 plaintexts.
SIGNATURE_BYTES = 2
#: Snapshots the store keeps in memory: far below a run's working set
#: (the store's default is 64), so old repeats come from the spill
#: directory.
MEMORY_ENTRIES = 8


@dataclass
class _ServiceContext:
    service: Any
    store: Any
    trace_cache: Any
    machine: Any
    spill: Path
    #: Per-op ``JobHandle.submitted_at`` (monotonic), for pool waits.
    submitted: Dict[int, float]


class ServiceMix(Workload):
    """One job per op through ``AttackService`` with two jobs in flight.

    A cycle holds two jobs of each kind in a seeded order; after the
    first cycle, ``REPEATS_PER_CYCLE`` of its eight jobs repeat an
    earlier job's exact parameters and the rest are first-seen.  See
    ``NOTES.md`` for where each parameter comes from.
    """

    name = "service_mix"
    imports = ("repro.service", "repro.primitives", "repro.aes.victim",
               "repro.aes.keyrecovery")
    cycle = 8
    digest_ops = 256
    #: Sixty cycles at least (about 25 s on a 2-vCPU VM), for a tail
    #: percentile near p98 and enough cycles to rescale each job by.
    min_ops = 480

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        if tiny:
            self.digest_ops = 16
            self.min_ops = 0
        self._references: Dict[str, Any] = {}

    # -- inputs ------------------------------------------------------------

    def inputs(self, seed: int) -> Iterator[Dict[str, Any]]:
        rng = random.Random(seed)
        seen: Dict[str, List[Dict[str, Any]]] = {k: [] for k in SERVICE_KINDS}
        fresh = 0
        cycle = 0
        while True:
            kinds = list(SERVICE_KINDS) * 2
            rng.shuffle(kinds)
            repeats = (set(rng.sample(range(self.cycle), REPEATS_PER_CYCLE))
                       if cycle else set())
            for slot, kind in enumerate(kinds):
                if slot in repeats:
                    yield rng.choice(seen[kind])
                    continue
                item = self._fresh(kind, rng, fresh)
                fresh += 1
                seen[kind].append(item)
                yield item
            cycle += 1

    def _fresh(self, kind: str, rng: random.Random,
               unique: int) -> Dict[str, Any]:
        from repro.aes.keyrecovery import DEFAULT_DELTAS
        from repro.service import VictimProgramSpec
        base = 0x41_0000 + 0x1000 * (unique % 4096)
        if kind in ("read_phr", "read_pht"):
            victim = VictimProgramSpec(
                shape="counted_loop",
                iterations=rng.randint(*VICTIM_ITERATIONS), base=base)
        if kind == "read_phr":
            params = {"victim": victim, "count": READ_COUNT}
        elif kind == "read_pht":
            branch = victim.build().address_of("loop_branch")
            values = rng.sample(range(1, 1 << 12), 3)
            params = {"victim": victim,
                      "coordinates": [(branch, value) for value in values]}
        elif kind == "pathfinder_trace":
            victim = VictimProgramSpec(
                shape="branchy", seed=rng.getrandbits(24),
                conditional_count=24, base=base)
            params = {"victim": victim}
        else:
            # The plaintexts ``recover_key_byte`` sends the oracle for
            # ``SIGNATURE_BYTES`` adjacent key bytes: the base plaintext
            # with one byte flipped by each of the default deltas.
            plaintext = [rng.getrandbits(8) for _ in range(16)]
            first = SIGNATURE_BYTES * rng.randrange(16 // SIGNATURE_BYTES)
            plaintexts = []
            for index in range(first, first + SIGNATURE_BYTES):
                for delta in DEFAULT_DELTAS:
                    flipped = list(plaintext)
                    flipped[index] ^= delta
                    plaintexts.append(flipped)
            params = {"key": [rng.getrandbits(8) for _ in range(16)],
                      "plaintexts": plaintexts,
                      "vectorize": len(plaintexts)}
        return {"kind": kind, "params": params, "id": f"{kind}-{unique}"}

    # -- lifecycle ---------------------------------------------------------

    def setup(self) -> _ServiceContext:
        import repro.aes.keyrecovery  # noqa: F401 -- inputs() draws on it
        from repro.service import (AttackService, Job, MachineSpec,
                                   SnapshotStore, TraceCache)
        spill = WORK_DIR / f"spill-{os.getpid()}"
        shutil.rmtree(spill, ignore_errors=True)
        store = SnapshotStore(directory=spill, memory_entries=MEMORY_ENTRIES,
                              disk_budget_bytes=256 * 1024 * 1024)
        trace_cache = TraceCache()
        service = AttackService(store=store, workers_per_profile=2,
                                trace_cache=trace_cache)
        machine = MachineSpec(_config())
        # The first job on a profile starts its shard: both workers build
        # their machines and pristine snapshots.
        warm = service.submit(Job("write_pht", machine=machine, params={
            "pc": 0x40_0000, "phr_value": 1, "taken": True}))
        outcome = warm.result()
        if not outcome.ok:
            service.shutdown()
            raise RuntimeError(f"service warm-up failed: {outcome.error}")
        return _ServiceContext(service, store, trace_cache, machine, spill,
                               {})

    def teardown(self, ctx: _ServiceContext) -> None:
        ctx.service.shutdown(drain=True)
        shutil.rmtree(ctx.spill, ignore_errors=True)

    # -- the pipelined client ------------------------------------------------

    def drive(self, ctx: _ServiceContext, items: Iterator[Dict[str, Any]],
              ref, *, seconds: Optional[float] = None,
              count: Optional[int] = None,
              tracer=None) -> Tuple[List[Record], float]:
        """Keep ``OUTSTANDING`` jobs in flight; consume results in order.

        An op's latency runs from its submit to the moment the client
        holds its outcome.  At the end of every cycle the client waits
        for the cycle's last job and runs a reference slice while the
        workers are idle; the busy time is the cycles' summed reference
        seconds.
        """
        from repro.service import Job
        self.ref = ref
        records: List[Record] = []
        cycles: List[Tuple[float, float]] = []
        pending: deque = deque()
        clock = time.perf_counter
        start = cycle_start = clock()
        items = iter(items)
        submitted = 0
        while True:
            while (len(pending) < OUTSTANDING
                   and submitted < len(cycles) * self.cycle + self.cycle):
                item = next(items)
                params = dict(item["params"])
                if tracer is not None:
                    tracer.op_of_params[id(params)] = submitted
                begin = clock()
                handle = ctx.service.submit(Job(item["kind"],
                                                machine=ctx.machine,
                                                params=params))
                ctx.submitted[submitted] = handle.submitted_at
                pending.append((submitted, item, handle, begin))
                submitted += 1
            if pending:
                index, item, handle, begin = pending.popleft()
                outcome = handle.result()
                end = clock()
                records.append(Record(index, item, outcome, 0.0, (begin, end),
                                      None if outcome.ok else outcome.error))
                continue
            # A whole cycle is in and no job is in flight.
            cycles.append((cycle_start, clock()))
            ref.sample()
            if self.finished(submitted, clock() - start, seconds, count):
                break
            cycle_start = clock()
        for record in records:
            begin, end = record.span
            record.host_seconds = end - begin
            record.seconds = ref.rescale(begin, end)
        return records, sum(ref.rescale(*cycle) for cycle in cycles)

    # -- verification --------------------------------------------------------

    def sim_fields(self, output: Any) -> Any:
        # Replay and trace-cache statistics depend on which worker ran
        # first, so only the attack results enter the digest.
        value = output.value
        return {key: value[key] for key in sorted(value)
                if key not in ("replay", "trace_cache")}

    def check(self, item: Dict[str, Any], output: Any) -> bool:
        value = self.sim_fields(output)
        reference = self._references.get(item["id"])
        if reference is None:
            reference = self._references[item["id"]] = self._reference(item)
        if item["kind"] == "pathfinder_trace":
            return [flag for _, flag in value["branch_outcomes"]] == reference
        if item["kind"] == "read_phr":
            from repro.cpu.phr import PathHistoryRegister
            count = item["params"]["count"]
            return (len(value["doublets"]) == count
                    and PathHistoryRegister.from_doublets(
                        value["doublets"]).value == reference)
        return value == reference

    def _reference(self, item: Dict[str, Any]) -> Any:
        """Ground truth, or the store-less single-machine result."""
        from repro.cpu import Machine
        from repro.primitives import PhtReader, VictimHandle
        params = item["params"]
        kind = item["kind"]
        if kind == "pathfinder_trace":
            return params["victim"].expected_outcomes()
        if kind == "read_phr":
            # The victim's taken branches from the bare ISA interpreter
            # (no machine, no predictor), folded into a PHR.
            from repro.cpu.phr import replay_taken_branches
            from repro.isa.interpreter import Interpreter
            run = Interpreter(params["victim"].build()).run()
            phr = replay_taken_branches(
                _config().phr_capacity,
                [(branch.pc, branch.target) for branch in run.taken_branches])
            return phr.value & ((1 << (2 * params["count"])) - 1)
        if kind == "read_pht":
            machine = Machine(_config())
            handle = VictimHandle(machine, params["victim"].build())

            def run_victim() -> None:
                machine.clear_phr()
                handle.invoke()

            results = PhtReader(machine).read_batch(params["coordinates"],
                                                    run_victim)
            return {"mispredictions": [r.mispredictions for r in results],
                    "inferred_counters": [r.inferred_counter
                                          for r in results],
                    "probes": sum(r.probes for r in results)}
        return {"signatures": self._signatures(params)}

    @staticmethod
    def _signatures(params: Dict[str, Any]) -> List[list]:
        """Scalar-engine signatures, each ciphertext checked against AES."""
        from repro.aes.core import encrypt_block
        from repro.aes.victim import AesVictim
        from repro.cpu import Machine
        from repro.isa.memory import Memory
        victim = AesVictim(bytes(params["key"]))
        entry = victim.program.address_of("aes_encrypt")
        signatures = []
        for plaintext in params["plaintexts"]:
            memory = Memory()
            victim.provision(memory, bytes(plaintext))
            result = Machine(_config()).run(victim.program, memory=memory,
                                            entry=entry, speculate=False,
                                            trace="none")
            ciphertext = victim.read_ciphertext(memory)
            if ciphertext != encrypt_block(bytes(plaintext),
                                           victim.round_keys):
                ciphertext = b"reference run disagrees with AES"
            signatures.append([ciphertext.hex(),
                               result.perf.conditional_branches,
                               result.perf.conditional_mispredictions])
        return signatures

    # -- per-layer numbers only the client sees --------------------------------

    def layer_extras(self, ctx: _ServiceContext, records: List[Record],
                     tracer) -> Dict[str, float]:
        from statistics import median
        first_start: Dict[int, float] = {}
        for op, started in tracer.job_starts:
            if op is not None and op not in first_start:
                first_start[op] = started
        waits = sorted(first_start[op] - ctx.submitted[op]
                       for op in first_start if op in ctx.submitted)
        results = [r.output for r in records if r.output is not None]
        store = ctx.store.stats
        cache = ctx.trace_cache.stats
        return {
            "service.pool.wait_s.p50": median(waits) if waits else 0.0,
            "service.pool.wait_s.tail": tail(waits)[0] if waits else 0.0,
            "service.pool.run_s": (sum(o.seconds for o in results)
                                   / len(results)) if results else 0.0,
            "service.pool.attempts_per_job": (
                sum(o.attempts for o in results) / len(results)
                if results else 0.0),
            "service.pool.failed": sum(1 for r in records
                                       if r.error is not None),
            "service.store.memory_hits": store.memory_hits,
            "service.store.disk_hits": store.disk_hits,
            "service.store.spills": store.spills,
            "service.store.disk_bytes": ctx.store.disk_bytes(),
            "service.store.hit_rate": store.hit_rate,
            "service.trace_cache.hit_rate": cache.hit_rate,
            "service.trace_cache.divergences": cache.divergences,
            "service.repeat_share": repeat_share(records),
        }


def repeat_share(records: List[Record]) -> float:
    """Share of ops whose exact job an earlier op of the run submitted."""
    seen = set()
    repeats = 0
    for record in records:
        repeats += record.item["id"] in seen
        seen.add(record.item["id"])
    return repeats / len(records) if records else 0.0


def tail(values: List[float]) -> Tuple[float, float, int]:
    """``(value, percentile, count beyond)`` of the highest percentile
    with at least ten samples beyond it; the maximum (percentile 100,
    none beyond) when there are fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 11:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


WORKLOADS = {cls.name: cls for cls in (ReadPhr, AesKey, ImageRecovery,
                                       ServiceMix)}
