"""``Extended_Read_PHR`` -- Attack Primitive 4 (paper Section 5, Figure 5).

``Read_PHR`` only reaches the last ``capacity`` (194) taken branches.  The
extension recovers *older* history by exploiting the PHTs: a victim branch
``b_m`` was trained using the PHR *before* it executed, and that PHR
reaches 194 branches further back than the post-victim PHR.  Reversing
the update of ``b_m`` leaves exactly one unknown doublet (the one shifted
out); brute-forcing its four values and testing for a PHT *collision*
against an aliased attacker branch reveals it.  Iterating backward, the
entire control-flow history is recovered, one doublet per taken branch.

Collision test (Figure 5): per round, the victim is re-invoked (re-training
its entry toward its actual outcome) and the attacker executes a not-taken
branch at the same low PC bits with the candidate PHR installed.  When the
candidate matches the true pre-branch PHR the two share one PHT entry that
ping-pongs, so the attacker branch mispredicts persistently; otherwise the
attacker's own longest-table entry converges and mispredictions stop.

Branch identities: reversing an update needs the ``(pc, target)`` of each
taken branch.  In the paper these come from the Pathfinder tool's CFG
matching, interleaved with the doublet recovery; this module accepts the
branch sequence as an input (either from Pathfinder or, in controlled
experiments, from ground truth) and focuses on the microarchitectural
recovery.  Runs of *unconditional* branches are handled exactly as the
paper describes: they cannot be probed (they never touch the PHTs), so the
unknown doublets accumulate until the next conditional branch, where all
``4^gap`` combinations are tested; more than ``capacity`` consecutive
unconditional taken branches make recovery impossible (the paper's stated
limitation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cpu.machine import Machine
from repro.cpu.phr import PathHistoryRegister
from repro.primitives.errors import HistoryLengthError
from repro.replay import ReplayEngine
from repro.utils.bits import mask

@dataclass(frozen=True)
class TakenBranch:
    """One taken branch of the victim's dynamic history, oldest first."""

    pc: int
    target: int
    conditional: bool


@dataclass
class ExtendedReadResult:
    """Result of an extended PHR read."""

    #: Doublets of the *unbounded* path history after the victim ran,
    #: least significant (most recent) first; length == number of taken
    #: branches.  The low ``capacity`` doublets equal the physical PHR.
    doublets: List[int]
    #: Whether every doublet beyond the physical PHR was recovered.
    complete: bool
    #: Total attacker probe branches executed.
    probes: int
    #: Largest run of consecutive unconditional branches bridged.
    max_gap: int
    #: Topmost doublets not probe-recovered but derived from the branch
    #: identities of the history's oldest (entry-anchored) branches --
    #: these precede the victim's first conditional branch, so no PHT
    #: entry reaches them; Pathfinder pins the branches themselves from
    #: the already-recovered window, which determines the doublets.
    derived_tail: int = 0


class ExtendedPhrReader:
    """Implements ``Extended_Read_PHR`` against a shared machine.

    ``reset_between_probes`` chooses how candidate probes see the
    machine.  ``False`` (the default) probes inline: state accumulates
    across probes.  ``True`` evaluates every probe from one
    :class:`~repro.replay.ReplayEngine` root taken at the first probe,
    so probes are order-independent, and each round refreshes only the
    probed PHT entry -- the amortized shortcut.  The naive twin
    (:class:`repro.fuzz.twins.NaiveExtendedPhrReader`) re-commits the
    victim's *entire* conditional history every round instead, i.e. the
    full Figure 5 victim re-invocation.
    """

    def __init__(
        self,
        machine: Machine,
        thread: int = 0,
        rounds: int = 8,
        collision_threshold: float = 0.5,
        max_gap: int = 8,
        pc_alias_offset: int = 0x1000_0000,
        victim_context=None,
        attacker_context=None,
        reset_between_probes: bool = False,
    ):
        self.machine = machine
        self.thread = thread
        self.rounds = rounds
        self.collision_threshold = collision_threshold
        self.max_gap = max_gap
        self.pc_alias_offset = pc_alias_offset
        self.probes = 0
        #: Lazily constructed at the first probe when
        #: ``reset_between_probes`` is set, so its root checkpoint
        #: captures the machine right after the victim ran (the state
        #: every candidate measurement must start from).
        self.replay: Optional[ReplayEngine] = None
        #: ``(branches, pre-branch PHR values)`` of the history
        #: :meth:`read` is recovering.
        self._history = None
        #: When True, every candidate probe restores the machine to the
        #: replay engine's root.  Long reads churn the PHTs across tens
        #: of thousands of probes; the reset pins each measurement to the
        #: identical machine state, making probes order-independent (the
        #: trial-harness determinism contract).
        self.reset_between_probes = reset_between_probes
        #: Optional zero-argument hooks invoked before victim refreshes /
        #: attacker probes -- they model the domain switch surrounding
        #: each victim invocation (used by the secure-predictor
        #: experiments, where the CBP is context-keyed).
        self.victim_context = victim_context or (lambda: None)
        self.attacker_context = attacker_context or (lambda: None)

    @property
    def capacity(self) -> int:
        """PHR capacity (doublets) of the attached machine."""
        return self.machine.config.phr_capacity

    # ------------------------------------------------------------------

    def _true_pre_phr_values(self, branches: Sequence[TakenBranch]) -> List[int]:
        """Physical PHR value before each branch, for the victim refresh.

        This models the victim re-invocation of each probe round: re-running
        the victim re-trains each branch's PHT entry at its pre-branch PHR.
        Only the probed branch's entry influences the attacker's
        measurement, so the refresh touches just that entry.
        """
        phr = PathHistoryRegister(self.capacity)
        values = []
        for branch in branches:
            values.append(phr.value)
            phr.update(branch.pc, branch.target)
        return values

    def _probe_mispredictions(self, victim_pc: int, victim_pre_phr: int,
                              candidate_phr: int) -> int:
        """Misprediction count of the aliased probe for one candidate.

        Protocol (a prime+refresh+probe variant of Figure 5):

        1. *prime* -- the attacker saturates the candidate coordinate's
           entry to strongly not-taken.  This puts every candidate in a
           known state regardless of history: victims with periodic
           control flow revisit (PC, PHR) coordinates, so leftovers from
           earlier probes (or from the victim itself) must not bias the
           measurement.
        2. *refresh+probe rounds* -- each round re-invokes the victim
           twice (re-training its branch's true entry toward taken) and
           then runs one aliased not-taken probe.  When the candidate
           matches the true pre-branch PHR, the shared counter climbs two
           steps per round against the probe's one, crosses the threshold
           and mispredicts persistently; when it does not match, the
           primed entry never sees a taken update and the probe stays
           silent.
        """
        if not self.reset_between_probes:
            return self._probe_once(victim_pc, victim_pre_phr,
                                    candidate_phr)
        if self.replay is None:
            self.replay = ReplayEngine(self.machine)
        # Every candidate measurement starts from the engine root (the
        # machine as it stood at the first probe), so probes are
        # order-independent.
        return self.replay.evaluate(
            ReplayEngine.ROOT,
            lambda: self._probe_once(victim_pc, victim_pre_phr,
                                     candidate_phr))

    def _probe_once(self, victim_pc: int, victim_pre_phr: int,
                    candidate_phr: int) -> int:
        """One prime + refresh/probe measurement on the live machine."""
        machine = self.machine
        phr = machine.phr(self.thread)
        attacker_pc = victim_pc + self.pc_alias_offset
        attacker_target = attacker_pc + 0x40
        victim_phr = PathHistoryRegister(self.capacity, victim_pre_phr)

        # Prime: force an allocation cascade to the longest table, then
        # saturate not-taken (same mechanics as Read_PHT's prime phase).
        self.attacker_context()
        for _ in range(len(machine.cbp.tables)):
            phr.set_value(candidate_phr)
            prediction = machine.cbp.predict(attacker_pc, phr)
            machine.observe_conditional(attacker_pc, attacker_target,
                                        not prediction.taken,
                                        thread=self.thread)
        for _ in range(1 << machine.config.counter_bits):
            phr.set_value(candidate_phr)
            machine.observe_conditional(attacker_pc, attacker_target, False,
                                        thread=self.thread)

        mispredictions = 0
        for _ in range(self.rounds):
            self.probes += 1
            # Two victim calls per probe: the asymmetry lets a shared
            # counter escape the primed saturation.
            self.victim_context()
            self._refresh_victim(victim_pc, victim_phr)
            self._refresh_victim(victim_pc, victim_phr)
            self.attacker_context()
            phr.set_value(candidate_phr)
            if machine.observe_conditional(attacker_pc, attacker_target,
                                           False, thread=self.thread):
                mispredictions += 1
        return mispredictions

    def _refresh_victim(self, victim_pc: int,
                        victim_phr: PathHistoryRegister) -> None:
        """One victim call's effect on the probe: re-train the probed
        branch's true PHT entry toward taken.  Only that entry feeds
        the aliased probe, so no other branch is re-committed."""
        self.machine.cbp.observe(victim_pc, victim_phr, True)

    def _probe_collision(self, victim_pc: int, victim_pre_phr: int,
                         candidate_phr: int) -> bool:
        """Absolute-threshold collision check (used by tests/diagnostics)."""
        count = self._probe_mispredictions(victim_pc, victim_pre_phr,
                                           candidate_phr)
        return count / self.rounds >= self.collision_threshold

    # ------------------------------------------------------------------

    def read(
        self,
        branches: Sequence[TakenBranch],
        observed_phr_doublets: Optional[Sequence[int]] = None,
    ) -> ExtendedReadResult:
        """Recover the full history of ``branches`` (oldest first).

        ``observed_phr_doublets`` is the output of ``Read_PHR`` after the
        victim ran; if omitted it is computed from the branch sequence
        (equivalent, since Read_PHR is exact -- its own evaluation shows a
        100% recovery rate).

        The reconstruction follows Figure 5 literally: starting from the
        observed PHR it repeatedly *reverses* the last not-yet-reversed
        taken branch's update.  Reversal exposes every doublet of the
        pre-branch PHR except the most significant one; that one is
        brute-forced via the PHT collision probe when the branch is
        conditional, or carried as a pending unknown across unconditional
        branches (which never touch the PHTs) until the next conditional
        branch resolves the whole pending group at once.
        """
        from repro.cpu.footprint import branch_footprint

        branches = list(branches)
        count = len(branches)
        capacity = self.capacity

        if observed_phr_doublets is None:
            phr = PathHistoryRegister(capacity)
            for branch in branches:
                phr.update(branch.pc, branch.target)
            observed_phr_doublets = phr.doublets()
        else:
            # Read_PHR output covers min(count, capacity) doublets; a
            # shorter observation cannot seed the reconstruction and a
            # longer one cannot have come from the physical PHR.  Raising
            # beats the old silent truncation: a clipped window walks the
            # reversal from the wrong anchor value.
            expected = min(count, capacity)
            if not expected <= len(observed_phr_doublets) <= capacity:
                raise HistoryLengthError(
                    f"observed_phr_doublets has {len(observed_phr_doublets)} "
                    f"doublets; expected between {expected} and {capacity} "
                    f"for {count} taken branches (capacity {capacity})")

        known = list(observed_phr_doublets)  # doublets of E_N, LSB first
        if count <= capacity:
            return ExtendedReadResult(doublets=known[:count], complete=True,
                                      probes=self.probes, max_gap=0)

        pre_phr_values = self._true_pre_phr_values(branches)
        self._history = (branches, pre_phr_values)
        #: Running reconstruction of the PHR *before* branch m, walking m
        #: backward; unknown top doublets are held as zero and counted in
        #: ``pending``.
        current = PathHistoryRegister.from_doublets(
            observed_phr_doublets, capacity=capacity
        ).value
        pending = 0
        largest_gap = 0
        complete = True

        # Step at (1-indexed) branch m recovers unbounded-history doublet
        # capacity + count - m; stop once index count-1 is known.
        for m in range(count, capacity, -1):
            branch = branches[m - 1]
            footprint = branch_footprint(branch.pc, branch.target)
            reversed_low = ((current ^ footprint) >> 2) & mask(2 * capacity)

            if not branch.conditional:
                pending += 1
                largest_gap = max(largest_gap, pending)
                if pending > self.max_gap:
                    complete = False
                    break
                current = reversed_low & mask(2 * (capacity - pending))
                continue

            unknown_count = pending + 1
            known_low = reversed_low & mask(2 * (capacity - unknown_count))
            recovered = self._recover_unknown_doublets(
                branch.pc,
                pre_phr_values[m - 1],
                known_low,
                unknown_count,
            )
            if recovered is None:
                complete = False
                break
            top_value = 0
            for offset, doublet in enumerate(recovered):
                top_value |= doublet << (2 * offset)
            current = known_low | (top_value << (2 * (capacity - unknown_count)))
            known.extend(recovered)
            pending = 0
            if len(known) >= count:
                break

        derived_tail = 0
        if complete and len(known) < count:
            # The remaining top doublets precede the last backward-probeable
            # conditional branch; every branch contributing to them executed
            # right after the attacker's Clear_PHR, so once Pathfinder
            # anchors the path at the victim entry their identities -- and
            # hence these doublets -- are fixed.  Derive them by replay.
            replay = PathHistoryRegister(count)
            for branch in branches:
                replay.update(branch.pc, branch.target)
            replay_doublets = replay.doublets()
            derived_tail = count - len(known)
            known.extend(replay_doublets[len(known):count])

        if len(known) < count:
            complete = False
        return ExtendedReadResult(doublets=known[:count], complete=complete,
                                  probes=self.probes, max_gap=largest_gap,
                                  derived_tail=derived_tail)

    def _recover_unknown_doublets(
        self,
        victim_pc: int,
        victim_pre_phr: int,
        known_low: int,
        unknown_count: int,
    ) -> Optional[List[int]]:
        """Brute-force the top ``unknown_count`` doublets of a pre-PHR.

        ``known_low`` holds the known low ``capacity - unknown_count``
        doublets.  Returns the recovered doublets lowest-position first,
        or None if no candidate stood out.

        The decision is *comparative*, matching the paper's protocol of
        measuring the misprediction rate for all four values and keeping
        the outlier: under heavy PHT churn (tens of thousands of probes
        in the libjpeg attack) absolute rates drift, but the colliding
        candidate remains the clear maximum.
        """
        capacity = self.capacity
        top_shift = 2 * (capacity - unknown_count)

        counts = []
        for combo in itertools.product(range(4), repeat=unknown_count):
            # combo[0] is the *lowest* unknown doublet (just above the
            # known part); combo[-1] the most significant.
            top_value = 0
            for offset, doublet in enumerate(combo):
                top_value |= doublet << (2 * offset)
            candidate = (known_low
                         | (top_value << top_shift)) & mask(2 * capacity)
            count = self._probe_mispredictions(victim_pc, victim_pre_phr,
                                               candidate)
            counts.append((count, combo))
            # The climb-out-of-prime dynamics cap the collision signature
            # at rounds - 2 mispredictions; a candidate reaching the cap
            # is the collision (early exit for the common single-doublet
            # case).
            if count >= self.rounds - 2 and unknown_count == 1:
                return list(combo)
        counts.sort(key=lambda pair: pair[0], reverse=True)
        best_count, best_combo = counts[0]
        runner_up = counts[1][0] if len(counts) > 1 else -1
        if best_count > runner_up:
            return list(best_combo)
        return None
