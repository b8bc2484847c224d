"""``Read_PHT`` -- Attack Primitive 3 (paper Section 4.4).

A prime+test+probe protocol over one PHT entry:

1. **prime** -- drive the entry's counter to strongly not-taken by
   executing aliasing not-taken branches at the target ``(PC, PHR)``;
2. **test** -- the caller runs the victim, whose branch updates the entry;
3. **probe** -- execute taken branches at the same coordinate, counting
   mispredictions.  A counter left at strongly-not-taken (0) mispredicts
   four times before crossing the 3-bit threshold; a counter the victim
   moved up twice mispredicts only twice; and so on.  The misprediction
   count therefore reveals how many taken updates the victim contributed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.cpu.machine import Machine
from repro.isa.identity import machine_digest, profile_digest
from repro.replay import ReplayEngine


@dataclass
class PhtProbeResult:
    """Outcome of one probe phase."""

    mispredictions: int
    probes: int

    @property
    def inferred_counter(self) -> int:
        """Estimated counter value at probe start.

        With a ``b``-bit counter primed to 0, a probe of taken branches
        mispredicts until the counter reaches the threshold ``2^(b-1)``,
        so ``mispredictions == threshold - start_value`` (clamped).
        """
        return max(0, 4 - self.mispredictions)


class PhtReader:
    """Implements ``Read_PHT(PC, PHR)``."""

    #: The prefix-replay engine class :meth:`read_batch` builds.
    _replay_engine = ReplayEngine

    def __init__(
        self,
        machine: Machine,
        thread: int = 0,
        prime_repetitions: int = 8,
        probe_repetitions: int = 4,
        pc_alias_offset: int = 0x1000_0000,
    ):
        self.machine = machine
        self.thread = thread
        self.prime_repetitions = prime_repetitions
        self.probe_repetitions = probe_repetitions
        self.pc_alias_offset = pc_alias_offset

    def _attacker_coords(self, pc: int) -> tuple:
        attacker_pc = pc + self.pc_alias_offset
        return attacker_pc, attacker_pc + 0x40

    def prime(self, pc: int, phr_value: int) -> None:
        """Drive the entry at ``(pc, phr_value)`` to strongly not-taken.

        Priming happens in two steps.  First, a few deliberately
        contrarian branches (each resolving against the current
        prediction) force the predictor to allocate down its table
        hierarchy until the *longest* table owns the coordinate -- an
        attacker does this by timing its own branch and flipping the
        outcome.  Then a burst of not-taken branches saturates that
        entry's counter to zero; because the provider is already the
        longest table, no further allocation can displace it, and the
        subsequent victim/probe phases read and write this one counter,
        giving the clean ``mispredictions == threshold - counter``
        arithmetic of Section 4.4.
        """
        machine = self.machine
        phr = machine.phr(self.thread)
        attacker_pc, attacker_target = self._attacker_coords(pc)
        table_count = len(machine.cbp.tables)
        for _ in range(table_count):
            phr.set_value(phr_value)
            prediction = machine.cbp.predict(attacker_pc, phr)
            machine.observe_conditional(attacker_pc, attacker_target,
                                        not prediction.taken,
                                        thread=self.thread)
        for _ in range(self.prime_repetitions):
            phr.set_value(phr_value)
            machine.observe_conditional(attacker_pc, attacker_target, False,
                                        thread=self.thread)

    def probe(self, pc: int, phr_value: int) -> PhtProbeResult:
        """Execute taken probes, counting mispredictions."""
        machine = self.machine
        phr = machine.phr(self.thread)
        attacker_pc, attacker_target = self._attacker_coords(pc)
        mispredictions = 0
        for _ in range(self.probe_repetitions):
            phr.set_value(phr_value)
            if machine.observe_conditional(attacker_pc, attacker_target, True,
                                           thread=self.thread):
                mispredictions += 1
        return PhtProbeResult(mispredictions=mispredictions,
                              probes=self.probe_repetitions)

    def read(self, pc: int, phr_value: int, run_victim) -> PhtProbeResult:
        """Full prime+test+probe cycle.

        ``run_victim`` is a zero-argument callable executed between the
        prime and probe phases.
        """
        self.prime(pc, phr_value)
        run_victim()
        return self.probe(pc, phr_value)

    def read_batch(
        self,
        coordinates: Sequence[Tuple[int, int]],
        run_victim,
        store=None,
        store_scope=None,
    ) -> List[PhtProbeResult]:
        """Read several ``(pc, phr_value)`` coordinates of *one* victim run.

        The shared prefix -- prime every coordinate, then invoke the
        victim once -- executes through a :class:`~repro.replay.ReplayEngine`
        checkpoint; each coordinate's probe replays as a restored suffix,
        so probing coordinate ``i`` cannot disturb coordinate ``j``'s
        entry (probes are taken branches: they *write* the counters they
        read).  The naive twin (:class:`repro.fuzz.twins.NaivePhtReader`)
        re-runs the whole prefix per coordinate; both orders of execution
        are bit-identical because the prefix is deterministic.
        Coordinates must not alias each other (distinct PHT entries), or
        the batched prime differs from per-coordinate protocols.

        With a shared snapshot store (the service's ``SnapshotStore`` or
        any object with its ``get``/``put``), the primed+victim prefix
        is published/consulted under a
        :func:`~repro.isa.identity.content_key` address, letting
        repeated batches against the same victim (other readers, other
        service workers, later runs) skip the prefix build.
        ``run_victim`` is an arbitrary callable the store cannot digest,
        so callers must pass ``store_scope`` naming the victim's
        behaviour; the reader folds in the machine profile, live machine
        state, thread, prime parameters, and coordinate list so distinct
        batch setups never collide.
        """
        coordinates = list(coordinates)
        if store is not None:
            if store_scope is None:
                raise ValueError(
                    "read_batch with a shared store needs a store_scope "
                    "identifying run_victim (callables have no content "
                    "address)")
            store_scope = (
                "read_pht",
                profile_digest(self.machine.config),
                machine_digest(self.machine),
                self.thread,
                self.prime_repetitions,
                self.pc_alias_offset,
                tuple(coordinates),
                store_scope,
            )
        engine = self._replay_engine(self.machine, store=store,
                                     store_scope=store_scope)

        def prefix() -> None:
            for pc, phr_value in coordinates:
                self.prime(pc, phr_value)
            run_victim()

        key = engine.checkpoint(("read_pht", "primed+victim"), prefix)
        return [
            engine.evaluate(key, lambda pc=pc, value=value:
                            self.probe(pc, value))
            for pc, value in coordinates
        ]
