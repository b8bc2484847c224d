"""``Read_PHR`` -- Attack Primitive 1 (paper Section 4.2, Figure 4).

The primitive leaks the PHR value left behind by a victim, one doublet at
a time.  For doublet ``i`` the attacker runs a loop around a *train*
branch whose direction is a fresh random bit ``k`` each iteration and a
*test* branch with the same direction:

* taken path (``k == 0``): ``Clear_PHR``; call the victim (PHR becomes
  ``P``); ``Shift_PHR[C-1-i]`` -- the PHR now holds
  ``[P_i, P_{i-1}, ..., P_0, 0, ...]`` in its top doublets;
* not-taken path: ``Write_PHR`` of ``[X, P_{i-1}, ..., P_0, 0, ...]`` with
  the already-recovered low doublets and a guess ``X`` on top.

If ``X != P_i`` the two paths give the test branch two distinct PHR
contexts, each perfectly correlated with ``k``; the CBP learns both and
the test branch stops mispredicting.  If ``X == P_i`` the contexts
collide, the predictor sees a 50/50 outcome in one context, and the test
branch mispredicts ~50% of the time.  The doublet is the guess with the
*highest* misprediction rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cpu.machine import Machine
from repro.cpu.phr import PathHistoryRegister
from repro.primitives.errors import AmbiguousDoubletError, DoubletCountError
from repro.primitives.victim import VictimHandle
from repro.replay import ReplayEngine
from repro.utils.rng import DeterministicRng

#: Accepted prefix-reuse policies for the reader.
#:
#: * ``checkpoint`` -- run ``Clear_PHR; victim()`` once, checkpoint the
#:   machine through :class:`~repro.replay.ReplayEngine`, and measure
#:   every guess as a restored suffix (the fast path, default);
#: * ``none`` -- the naive twin: re-run the prefix from scratch for
#:   every guess.  Bit-identical to ``checkpoint`` by construction
#:   (property-tested); exists so benchmarks can measure the gap;
#: * ``inline`` -- the pre-replay behaviour: no restores at all, state
#:   accumulates across guesses and the victim's post-call PHR is cached
#:   after its first in-loop invocation.
REUSE_MODES = ("checkpoint", "none", "inline")

#: Default attacker train/test branch locations.  The exact values are
#: arbitrary; they only need to stay clear of victim code and of the macro
#: regions, and to differ from each other in their low 16 bits so the two
#: branches never alias in the PHTs.
TRAIN_PC = 0x6660_0000
TRAIN_TARGET = 0x6660_0040
TEST_PC = 0x6661_0100
TEST_TARGET = 0x6661_0140

#: Extra measurement passes a doublet gets when a pass cannot single out
#: one guess (see :meth:`PhrReader.read_doublet`).
TIE_RETRIES = 4


@dataclass
class PhrReadResult:
    """Result of a full PHR read."""

    #: Recovered doublets, least significant (most recent branch) first.
    doublets: List[int]
    #: Misprediction rate observed for the winning guess of each doublet.
    confidence: List[float]
    #: Total train/test iterations spent.
    iterations: int

    @property
    def value(self) -> int:
        """The recovered PHR as a raw integer."""
        return PathHistoryRegister.from_doublets(self.doublets).value

    def as_phr(self, capacity: Optional[int] = None) -> PathHistoryRegister:
        """The recovered PHR as a register object."""
        return PathHistoryRegister.from_doublets(
            self.doublets,
            capacity=capacity if capacity is not None else len(self.doublets),
        )


class PhrReader:
    """Implements ``Read_PHR`` against a shared machine.

    ``warmup`` iterations let the CBP learn each context before ``measure``
    iterations count test-branch mispredictions.  The defaults are tuned
    for the simulator's deterministic predictor; the paper uses far more
    iterations to average out hardware noise.
    """

    def __init__(
        self,
        machine: Machine,
        victim: VictimHandle,
        thread: int = 0,
        warmup: int = 16,
        measure: int = 16,
        rng: Optional[DeterministicRng] = None,
        train_pc: int = TRAIN_PC,
        test_pc: int = TEST_PC,
        reuse: str = "checkpoint",
        store=None,
        store_scope=None,
    ):
        if reuse not in REUSE_MODES:
            raise ValueError(
                f"unknown reuse mode {reuse!r}; expected one of {REUSE_MODES}")
        self.machine = machine
        self.victim = victim
        self.thread = thread
        self.warmup = warmup
        self.measure = measure
        self.rng = rng if rng is not None else DeterministicRng(0x5EED)
        self.train_pc = train_pc
        self.train_target = train_pc + 0x40
        self.test_pc = test_pc
        self.test_target = test_pc + 0x40
        self._victim_phr_cache: Optional[int] = None
        self.iterations = 0
        self.reuse = reuse
        if store is not None and reuse == "inline":
            raise ValueError("reuse='inline' has no replay engine to "
                             "attach a snapshot store to")
        if store is not None and store_scope is None:
            store_scope = self._default_store_scope()
        #: The prefix-replay engine (None under ``reuse='inline'``).  Its
        #: root checkpoint is the machine state at reader construction.
        self.replay: Optional[ReplayEngine] = (
            None if reuse == "inline" else ReplayEngine(
                machine, reuse=reuse, store=store, store_scope=store_scope))
        self._prefix_key = None

    def _default_store_scope(self):
        """Content identity of this reader's profiled-victim prefix.

        The prefix state is a deterministic function of (machine profile,
        machine state at construction, victim program + entry + mode,
        thread), so those are exactly the scope components.  A victim
        with a ``setup`` hook has behaviour outside the program digest
        (it provisions registers/memory), so no sound default exists --
        the caller must name the victim via an explicit ``store_scope``.
        """
        if self.victim.setup is not None:
            raise ValueError(
                "cannot derive a content-address scope for a victim with "
                "a setup hook; pass an explicit store_scope identifying it")
        from repro.service.store import machine_digest, profile_digest, \
            program_digest
        return (
            "read_phr",
            profile_digest(self.machine.config),
            machine_digest(self.machine),
            program_digest(self.victim.program),
            self.victim.entry,
            self.victim.mode,
            self.thread,
        )

    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """PHR capacity of the attached machine."""
        return self.machine.config.phr_capacity

    def _call_victim_after_clear(self) -> None:
        """``Clear_PHR`` followed by a victim call.

        Because the victim is deterministic and always entered with a
        zeroed PHR here, its post-call PHR is a constant; after one real
        invocation we install the cached value directly.  The victim's PHT
        updates are irrelevant to this primitive (only the final PHR state
        feeds the test branch), so this is behaviour-preserving -- see
        ``tests/test_read_phr.py`` for the equivalence check.
        """
        phr = self.machine.phr(self.thread)
        phr.clear()
        if self._victim_phr_cache is None:
            self.victim.invoke(thread=self.thread)
            self._victim_phr_cache = phr.value
        else:
            phr.set_value(self._victim_phr_cache)

    def _not_taken_value(self, guess: int, known: List[int]) -> int:
        """The ``Write_PHR`` argument ``[X, P_{i-1}, ..., P_0, 0...]``."""
        capacity = self.capacity
        value = guess << (2 * (capacity - 1))
        for back, doublet in enumerate(reversed(known), start=2):
            value |= doublet << (2 * (capacity - back))
        return value

    def _profile_victim(self) -> None:
        """The replayed prefix: ``Clear_PHR`` + one real victim run.

        Declared as the engine's prefix builder, so under
        ``reuse='checkpoint'`` it executes exactly once, and under
        ``reuse='none'`` it re-executes (victim and all) for every
        guess -- the paper's naive per-trial protocol.
        """
        phr = self.machine.phr(self.thread)
        phr.clear()
        self.victim.invoke(thread=self.thread)
        self._victim_phr_cache = phr.value

    def _ensure_prefix(self):
        if self._prefix_key is None:
            self._prefix_key = self.replay.checkpoint(
                ("read_phr", "victim-profiled"), self._profile_victim)
        return self._prefix_key

    def _measure_guess(self, index: int, guess: int, known: List[int],
                       attempt: int = 0) -> float:
        """Misprediction rate of the test branch for one guess of P_index."""
        if self.replay is None:
            return self._measure_loop(index, guess, known, attempt)
        key = self._ensure_prefix()
        return self.replay.evaluate(
            key, lambda: self._measure_loop(index, guess, known, attempt))

    def _measure_loop(self, index: int, guess: int, known: List[int],
                      attempt: int) -> float:
        machine = self.machine
        phr = machine.phr(self.thread)
        if self.replay is not None and self._victim_phr_cache is None:
            # Prefix served from the shared store: the builder never ran
            # here, but the restored state *is* the post-victim state, so
            # the PHR constant the taken path installs is simply the
            # current register value.
            self._victim_phr_cache = phr.value
        # Every pass of a doublet draws from its own forks: pass 0 uses
        # ids ``index * 4 + guess`` and a retry's ids lie past all of them.
        rng = self.rng.fork((attempt * self.capacity + index) * 4 + guess)
        not_taken_value = self._not_taken_value(guess, known)
        shift_amount = self.capacity - 1 - index
        mispredicted = 0

        for iteration in range(self.warmup + self.measure):
            self.iterations += 1
            train_taken = rng.coin()
            phr.clear()
            machine.observe_conditional(self.train_pc, self.train_target,
                                        train_taken, thread=self.thread)
            if train_taken:
                self._call_victim_after_clear()
                phr.shift(shift_amount)
            else:
                phr.set_value(not_taken_value)
            test_missed = machine.observe_conditional(
                self.test_pc, self.test_target, train_taken,
                thread=self.thread,
            )
            if iteration >= self.warmup and test_missed:
                mispredicted += 1
        return mispredicted / self.measure

    def read_doublet(self, index: int, known: List[int]) -> tuple:
        """Recover doublet ``index`` given the already-known lower doublets.

        Returns ``(doublet, misprediction_rate)``.  A pass whose top rate
        is 0.0 (every measured train direction was *taken*, so no guess
        could collide) or is shared by two guesses says nothing about
        ``P_index``; the doublet is then measured again from fresh train
        streams, up to :data:`TIE_RETRIES` times, before
        :class:`AmbiguousDoubletError` is raised.
        """
        if len(known) != index:
            raise ValueError(
                f"need exactly the {index} lower doublets, got {len(known)}"
            )
        for attempt in range(1 + TIE_RETRIES):
            rates = [self._measure_guess(index, guess, known, attempt)
                     for guess in range(4)]
            best = max(rates)
            if best > 0.0 and rates.count(best) == 1:
                return rates.index(best), best
        raise AmbiguousDoubletError(
            f"doublet {index}: no single top guess in {1 + TIE_RETRIES} "
            f"measurement passes (last rates {rates})")

    def read(self, count: Optional[int] = None) -> PhrReadResult:
        """Recover the ``count`` (default: all) low doublets of the PHR."""
        if count is None:
            count = self.capacity
        if not 0 < count <= self.capacity:
            raise DoubletCountError(
                f"requested {count} doublets, but the primitive can deliver "
                f"between 1 and {self.capacity} (the PHR capacity)")
        known: List[int] = []
        confidence: List[float] = []
        for index in range(count):
            doublet, rate = self.read_doublet(index, known)
            known.append(doublet)
            confidence.append(rate)
        return PhrReadResult(doublets=known, confidence=confidence,
                             iterations=self.iterations)
