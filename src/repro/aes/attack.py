"""The Section 9 speculative key-extraction attack, end to end.

Pipeline (matching the paper's "(Mis)Training the Branch Predictor" /
"Recovering the Ciphertext" / "Key Extraction Algorithm" subsections):

1. **Locate the branch.**  The attacker profiles the oracle once, reads
   the PHR it leaves behind (``Read_PHR``), and feeds the value to
   Pathfinder, which returns the per-iteration PHR values at the loop's
   back-edge branch.
2. **Poison.**  ``Write_PHT`` plants a not-taken prediction at the
   ``(loop branch PC, PHR of iteration i)`` coordinate.
3. **Leak.**  The attacker flushes the ``rounds`` field (delaying branch
   resolution) and the probe array, invokes the oracle, and Flush+Reloads
   the probe.  The transient early exit ran ``aesenclast`` on the
   intermediate state and the oracle's encoding gadget touched probe slots
   indexed by the reduced-round ciphertext bytes.
4. **Extract.**  Reduced-round ciphertexts from iteration-1 exits feed the
   differential cryptanalysis in :mod:`repro.aes.keyrecovery`, recovering
   the master key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.aes.core import reduced_round_ciphertext
from repro.aes.oracle import EncryptionOracle
from repro.cpu.machine import Machine, MachineSnapshot
from repro.isa.identity import content_key, machine_digest, profile_digest
from repro.pathfinder import cached_cfg, cached_path_search
from repro.pathfinder.report import build_report
from repro.primitives import PhrReader, PhtWriter, VictimHandle
from repro.replay import ReplayEngine
from repro.utils.rng import DeterministicRng


def profile_loop_phrs(machine: Machine, result_trace, program,
                      entry: int, loop_block_start: int) -> Dict[int, int]:
    """Map loop iteration (1-based) -> PHR value at the loop back edge.

    Shared by the oracle attacks: feeds an observed run's history to
    Pathfinder and reads the per-iteration PHR values off the recovered
    path (the poisoning coordinates for ``Write_PHT``).
    """
    from repro.cpu.phr import replay_taken_branches

    taken = [(r.pc, r.target) for r in result_trace if r.taken]
    observed = replay_taken_branches(len(taken), taken).doublets()
    cfg = cached_cfg(program, entry=entry)
    paths = cached_path_search(cfg, mode="exact").search(observed)
    if not paths:
        raise RuntimeError("Pathfinder found no path for the oracle run")
    report = build_report(cfg, paths[0],
                          phr_capacity=machine.config.phr_capacity)
    iteration_phr: Dict[int, int] = {}
    iteration = 0
    for block, phr_value in report.phr_at_block:
        if block == loop_block_start:
            iteration += 1
            iteration_phr[iteration] = phr_value
    return iteration_phr


@dataclass
class LeakResult:
    """One attacked oracle invocation."""

    #: Bytes of the transient (reduced-round) ciphertext; -1 where the
    #: channel was ambiguous for that position.
    recovered: List[int]
    #: The architectural (full-round) ciphertext the oracle returned.
    ciphertext: bytes
    #: Fraction of the 16 byte positions recovered unambiguously.
    coverage: float
    #: Probe slots the Flush+Reload pass observed hot.
    hot_slots: int = 0
    #: Oracle invocations this result cost (retry loops update it; a
    #: single :meth:`AesSpectreAttack.leak_reduced_round` call is 1).
    attempts: int = 1


class AmbiguousChannelError(RuntimeError):
    """The side channel stayed ambiguous through the whole retry budget.

    Carries the accounting the bare ``RuntimeError`` used to discard:
    how many attempts ran and the last (best-effort) :class:`LeakResult`.
    """

    def __init__(self, plaintext: bytes, attempts: int,
                 last: Optional[LeakResult]):
        self.plaintext = plaintext
        self.attempts = attempts
        self.last = last
        coverage = f"{last.coverage:.0%}" if last is not None else "n/a"
        super().__init__(
            f"side channel stayed ambiguous after {attempts} attempt(s) "
            f"(last coverage {coverage})"
        )


class AesSpectreAttack:
    """Drives the attack against one oracle instance."""

    def __init__(
        self,
        machine: Machine,
        key: bytes,
        use_read_phr_primitive: bool = False,
        rng: Optional[DeterministicRng] = None,
        retry_budget: int = 8,
        use_checkpoints: bool = False,
        spec: Optional[object] = None,
        store=None,
    ):
        self.machine = machine
        self.oracle = EncryptionOracle(machine, key)
        self.rng = rng if rng is not None else DeterministicRng(0xAE5)
        #: When True, the per-iteration PHR values are obtained through the
        #: actual Read_PHR primitive (slower); when False, from a direct
        #: profiling run (equivalent -- Read_PHR's own evaluation shows
        #: 100% fidelity -- and what the high-trial benchmarks use).
        self.use_read_phr_primitive = use_read_phr_primitive
        if retry_budget < 1:
            raise ValueError(f"retry budget must be >= 1, got {retry_budget}")
        #: Oracle invocations :meth:`two_round_leak` may spend per
        #: plaintext before giving up with :class:`AmbiguousChannelError`.
        self.retry_budget = retry_budget
        #: When True, leaks restore a per-exit-iteration
        #: :class:`~repro.cpu.machine.MachineSnapshot` (poisoned +
        #: channel-flushed) instead of re-running the poison sequence --
        #: the trial-harness fast path, and what makes repeated leaks
        #: order-independent.
        self.use_checkpoints = use_checkpoints
        #: The picklable :class:`repro.aes.trials.AesAttackSpec` this
        #: attack was built from, if any (the harness trials read it).
        self.spec = spec
        #: Optional shared snapshot store (the service's ``SnapshotStore``
        #: or any object with its ``get``/``put``).  With a store
        #: attached, :meth:`leak_checkpoint` publishes the prepared leak
        #: state (plus the profiling results it embodies) under a content
        #: address, and consults it before paying for a fresh
        #: profile+poison build -- attacks against the same
        #: (profile, key, exit point) across service jobs or runs share
        #: the expensive preparation.
        self.store = store
        self._iteration_phr: Optional[Dict[int, int]] = None
        self._last_poisoned_phr: Optional[int] = None
        self._key_digest = hashlib.sha256(key).hexdigest()
        #: Lazily built prefix-replay engine holding the per-exit-point
        #: leak checkpoints (captured from the live prepared state).
        self.replay: Optional[ReplayEngine] = None

    # ------------------------------------------------------------------
    # step 1: locate the loop branch's per-iteration PHR values
    # ------------------------------------------------------------------

    def _profile_plaintext(self) -> bytes:
        return bytes(16)  # any fixed block; control flow is data-independent

    def profile(self) -> Dict[int, int]:
        """Map loop iteration (1-based) -> PHR value at the loop branch."""
        if self._iteration_phr is not None:
            return self._iteration_phr
        machine = self.machine
        oracle = self.oracle

        # Run the oracle once from a cleared PHR to train the PHTs and
        # observe its history.
        machine.clear_phr()
        ciphertext, result = oracle.run_and_read(self._profile_plaintext())
        del ciphertext
        taken = [(r.pc, r.target) for r in result.trace if r.taken]

        if self.use_read_phr_primitive:
            observed = self._read_history_via_primitive(len(taken))
            cfg = cached_cfg(oracle.program,
                             entry=oracle.program.address_of("oracle"))
            paths = cached_path_search(cfg, mode="exact").search(observed)
            if not paths:
                raise RuntimeError(
                    "Pathfinder found no path for the oracle run"
                )
            report = build_report(cfg, paths[0],
                                  phr_capacity=machine.config.phr_capacity)
            loop_block = self.oracle.victim.loop_block_start
            iteration_phr: Dict[int, int] = {}
            iteration = 0
            for block, phr_value in report.phr_at_block:
                if block == loop_block:
                    iteration += 1
                    iteration_phr[iteration] = phr_value
        else:
            iteration_phr = profile_loop_phrs(
                machine, result.trace, oracle.program,
                oracle.program.address_of("oracle"),
                self.oracle.victim.loop_block_start,
            )
        self._iteration_phr = iteration_phr
        return iteration_phr

    def _read_history_via_primitive(self, taken_count: int) -> List[int]:
        """Obtain the oracle's history through the Read_PHR primitive."""
        machine = self.machine
        handle = VictimHandle(
            machine,
            self.oracle.program,
            setup=lambda state, memory: self.oracle.victim.provision(
                memory, self._profile_plaintext()
            ),
            entry=self.oracle.program.address_of("oracle"),
        )
        reader = PhrReader(machine, handle, rng=self.rng.fork(1))
        result = reader.read(count=min(taken_count,
                                       machine.config.phr_capacity))
        return result.doublets

    # ------------------------------------------------------------------
    # steps 2+3: poison, run, leak
    # ------------------------------------------------------------------

    def _prepare_leak(self, exit_iteration: int) -> None:
        """Poison, extend the speculation window, and clear the channel."""
        machine = self.machine
        oracle = self.oracle
        iteration_phr = self.profile()
        if exit_iteration not in iteration_phr:
            raise ValueError(
                f"loop has iterations {sorted(iteration_phr)}, "
                f"not {exit_iteration}"
            )

        # (Mis)train: plant a not-taken prediction for that iteration only.
        # A previous trial's poison decays slowly (one taken retrain per
        # victim call against a saturated 3-bit counter), so the attacker
        # first heals the coordinate it poisoned last time -- standard
        # hygiene when measuring many exit points back to back.
        writer = PhtWriter(machine)
        target_phr = iteration_phr[exit_iteration]
        if (self._last_poisoned_phr is not None
                and self._last_poisoned_phr != target_phr):
            writer.write(oracle.victim.loop_branch_pc,
                         self._last_poisoned_phr, taken=True)
        writer.write(oracle.victim.loop_branch_pc, target_phr, taken=False)
        self._last_poisoned_phr = target_phr

        # Extend the speculation window and clear the channel.
        machine.cache.flush(oracle.victim.rounds_address)
        oracle.channel.flush()

        # The victim must see the same PHR trajectory as during profiling.
        machine.clear_phr()

    def _leak_key(self, exit_iteration: int):
        return ("aes", "leak", exit_iteration)

    def _leak_store_key(self, exit_iteration: int) -> Optional[str]:
        """Content address of the prepared leak state, or ``None``.

        The prepared state is a deterministic function of (a) the live
        machine state at this call -- digested in full -- and (b) the
        attack-side state the preparation consumes: the cached
        per-iteration PHR map (or, when absent, the profiling inputs
        that will produce it: the rng seed and the Read_PHR toggle) and
        the previously poisoned coordinate the heal step targets.  All
        of those are key components, so two attacks share an artifact
        exactly when a fresh build would be bit-identical.
        """
        if self.store is None:
            return None
        return content_key(
            "aes-leak",
            profile_digest(self.machine.config),
            machine_digest(self.machine),
            self._key_digest,
            exit_iteration,
            self.use_read_phr_primitive,
            self.rng.seed,
            self._iteration_phr,
            self._last_poisoned_phr,
        )

    def leak_checkpoint(self, exit_iteration: int) -> MachineSnapshot:
        """The machine checkpoint poised to leak at ``exit_iteration``.

        Built once per exit point: the poison is planted, the speculation
        window extended, and the channel flushed, then the whole machine
        state is captured into the attack's :class:`ReplayEngine`.
        :meth:`leak_reduced_round` restores it per trial in
        O(changed-state), so every trial sees the identical
        predictor/cache trajectory regardless of ordering.

        The capture is taken from the *live* prepared state (not rebuilt
        from the engine root): the heal-then-poison sequence depends on
        which coordinate the previous preparation poisoned, so the live
        state is the ground truth a fresh re-provision would reproduce.

        With a shared store attached, a previously published preparation
        for the same (profile, machine state, key, exit point, profiling
        inputs) is adopted instead of rebuilt -- the profiling oracle run
        and the poison sequence are skipped entirely.  The artifact's
        metadata carries the profiling results (`iteration_phr`, the
        last-poisoned coordinate), so retries and later exit points
        behave exactly as they would after a cold build.
        """
        if self.replay is None:
            self.replay = ReplayEngine(self.machine)
        key = self._leak_key(exit_iteration)
        if key not in self.replay:
            skey = self._leak_store_key(exit_iteration)
            entry = self.store.get(skey) if skey is not None else None
            if entry is not None:
                snapshot, meta = entry
                self._iteration_phr = {
                    int(iteration): phr_value
                    for iteration, phr_value in meta["iteration_phr"].items()
                }
                self._last_poisoned_phr = meta["last_poisoned_phr"]
                self.replay.adopt(key, snapshot)
            else:
                self._prepare_leak(exit_iteration)
                self.replay.capture(key)
                if skey is not None:
                    self.store.put(skey, self.replay.snapshot_of(key), meta={
                        "iteration_phr": {
                            str(iteration): phr_value
                            for iteration, phr_value
                            in self._iteration_phr.items()
                        },
                        "last_poisoned_phr": self._last_poisoned_phr,
                    })
        return self.replay.snapshot_of(key)

    def leak_reduced_round(self, plaintext: bytes, exit_iteration: int,
                           from_checkpoint: Optional[bool] = None,
                           ) -> LeakResult:
        """Induce an early exit at ``exit_iteration`` and leak the RRC.

        ``from_checkpoint`` (default: the attack's ``use_checkpoints``
        setting) restores the cached :meth:`leak_checkpoint` instead of
        re-running the poison sequence.
        """
        if from_checkpoint is None:
            from_checkpoint = self.use_checkpoints
        if from_checkpoint:
            self.leak_checkpoint(exit_iteration)  # ensure the capture exists
            return self.replay.evaluate(self._leak_key(exit_iteration),
                                        lambda: self._leak_once(plaintext))
        self._prepare_leak(exit_iteration)
        return self._leak_once(plaintext)

    def _leak_once(self, plaintext: bytes) -> LeakResult:
        """Run the oracle from the prepared state and decode the channel."""
        oracle = self.oracle
        ciphertext, __ = oracle.run_and_read(plaintext)

        # Flush+Reload: one hot slot per position is the architectural
        # ciphertext byte; any second hot slot is the transient leak.
        hot = set(oracle.channel.hot_slots())
        recovered: List[int] = []
        for position in range(16):
            slots = {slot - 256 * position
                     for slot in hot
                     if 256 * position <= slot < 256 * (position + 1)}
            slots.discard(ciphertext[position])
            if len(slots) == 1:
                recovered.append(slots.pop())
            elif not slots:
                # Transient byte equals the architectural byte.
                recovered.append(ciphertext[position])
            else:
                recovered.append(-1)
        coverage = sum(1 for byte in recovered if byte >= 0) / 16
        return LeakResult(recovered=recovered, ciphertext=ciphertext,
                          coverage=coverage, hot_slots=len(hot))

    # ------------------------------------------------------------------
    # evaluation helper (paper Section 9, "Evaluation")
    # ------------------------------------------------------------------

    def ground_truth_rrc(self, plaintext: bytes, exit_iteration: int) -> bytes:
        """The true reduced-round ciphertext for comparison."""
        return reduced_round_ciphertext(plaintext,
                                        self.oracle.victim.round_keys,
                                        exit_iteration)

    def success_rate(self, plaintext: bytes, exit_iteration: int) -> float:
        """Fraction of leaked bytes matching the ground truth."""
        leak = self.leak_reduced_round(plaintext, exit_iteration)
        truth = self.ground_truth_rrc(plaintext, exit_iteration)
        matches = sum(
            1 for got, want in zip(leak.recovered, truth) if got == want
        )
        return matches / 16

    # ------------------------------------------------------------------
    # step 4: key extraction
    # ------------------------------------------------------------------

    def two_round_leak(self, plaintext: bytes,
                       retry_budget: Optional[int] = None) -> LeakResult:
        """Unambiguous RRC-at-iteration-1 leak, with retry accounting.

        Retries on channel ambiguity with the same plaintext (the paper's
        evaluation repeats measurements the same way), up to
        ``retry_budget`` attempts (default: the attack's budget).  Under
        ``use_checkpoints`` a checkpoint restore is deterministic, so only
        the first attempt uses it -- retries fall back to the live poison
        sequence, whose evolved PHT/cache state is exactly what
        disambiguates the channel.  Raises :class:`AmbiguousChannelError`
        when the budget runs out.
        """
        budget = self.retry_budget if retry_budget is None else retry_budget
        if budget < 1:
            raise ValueError(f"retry budget must be >= 1, got {budget}")
        last: Optional[LeakResult] = None
        for attempt in range(1, budget + 1):
            from_checkpoint = self.use_checkpoints and attempt == 1
            leak = self.leak_reduced_round(plaintext, exit_iteration=1,
                                           from_checkpoint=from_checkpoint)
            leak.attempts = attempt
            if all(byte >= 0 for byte in leak.recovered):
                return leak
            last = leak
        raise AmbiguousChannelError(plaintext, attempts=budget, last=last)

    def two_round_oracle(self, plaintext: bytes) -> bytes:
        """RRC-at-iteration-1 oracle for the differential key recovery."""
        return bytes(self.two_round_leak(plaintext).recovered)

    def recover_key(self, workers: Optional[int] = None) -> bytes:
        """Run the full pipeline and return the recovered AES key.

        The 16 key bytes are recovered serially in this process, so
        ``workers`` is accepted as ``None`` or ``1`` only: the offline
        filter takes milliseconds per byte, less than a worker process
        would spend rebuilding and re-profiling the attack.
        """
        from repro.aes.keyrecovery import recover_key_from_two_round_oracle

        if workers not in (None, 1):
            raise ValueError(
                f"recover_key runs serially: workers must be None or 1, "
                f"got {workers!r}")
        return recover_key_from_two_round_oracle(self.two_round_oracle,
                                                 rng=self.rng.fork(2))
