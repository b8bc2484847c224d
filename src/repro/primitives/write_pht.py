"""``Write_PHT`` -- Attack Primitive 2 (paper Section 4.3).

With ``Write_PHR`` able to install any PHR value, the attacker can steer a
branch execution at any ``(PC, PHR)`` coordinate, reaching an arbitrary
entry of any PHT (or the base predictor).  Executing the branch with the
chosen outcome eight times saturates the 3-bit counter, planting a strong
taken / not-taken prediction that a *victim* branch colliding on the same
coordinate will consume -- the poisoning half of the Section 9 Spectre
attack.
"""

from __future__ import annotations

from repro.cpu.machine import Machine
from repro.utils.rng import DeterministicRng


class PhtWriter:
    """Implements ``Write_PHT(PC, PHR, value)``.

    The attacker's branch lives at a different address than the victim's,
    but with identical low 16 bits -- enough to alias in every PHT (index
    uses one PC bit, tags use PC[15:0]) and in the base predictor
    (PC[12:0]).  ``pc_alias_offset`` relocates the attacker branch; the
    default adds a high bit far above the 16 tag-relevant bits.
    """

    def __init__(
        self,
        machine: Machine,
        thread: int = 0,
        repetitions: int = 8,
        pc_alias_offset: int = 0x1000_0000,
        rebias_base: bool = True,
        rng: DeterministicRng = None,  # type: ignore[assignment]
    ):
        if repetitions < 1:
            raise ValueError("need at least one training repetition")
        if pc_alias_offset & 0xFFFF:
            raise ValueError("alias offset must preserve PC[15:0]")
        self.machine = machine
        self.thread = thread
        self.repetitions = repetitions
        self.pc_alias_offset = pc_alias_offset
        self.rebias_base = rebias_base
        self.rng = rng if rng is not None else DeterministicRng(0xB1A5)
        #: Fixed re-bias PHR working set: reusing the same values across
        #: writes keeps the attacker's PHT footprint bounded (repeated
        #: attacks would otherwise slowly evict unrelated victim entries).
        width = 2 * machine.config.phr_capacity
        self._rebias_values = [self.rng.value_bits(width)
                               for _ in range(self.repetitions)]

    def write(self, pc: int, phr_value: int, taken: bool) -> None:
        """Set the PHT entry reached by ``(pc, phr_value)`` to ``taken``.

        Each repetition re-installs the PHR (a ``Write_PHR``) and commits
        one branch at the aliasing attacker address with the desired
        outcome; eight repetitions saturate the 3-bit counter.

        By default a *re-bias* pass follows: the same branch executes with
        the opposite outcome under fresh random PHR values.  The main
        writes drag the PC-indexed base predictor toward the planted
        direction, which would spill mispredictions onto every other
        dynamic instance of the victim branch (defeating the paper's
        single-instance precision); the re-bias pass restores the base
        predictor's original direction while leaving the planted tagged
        entry -- selected by the exact (PC, PHR) coordinate -- untouched.
        """
        machine = self.machine
        phr = machine.phr(self.thread)
        attacker_pc = pc + self.pc_alias_offset
        attacker_target = attacker_pc + 0x40
        # Force an allocation cascade so the *longest* table owns the
        # coordinate (otherwise, when the base predictor already agrees
        # with the planted direction, no tagged entry would be created and
        # the plant would not stick to this PHR specifically).
        for _ in range(len(machine.cbp.tables)):
            phr.set_value(phr_value)
            prediction = machine.cbp.predict(attacker_pc, phr)
            machine.observe_conditional(attacker_pc, attacker_target,
                                        not prediction.taken,
                                        thread=self.thread)
        for _ in range(self.repetitions):
            phr.set_value(phr_value)
            machine.observe_conditional(attacker_pc, attacker_target, taken,
                                        thread=self.thread)
        if self.rebias_base:
            for rebias_value in self._rebias_values:
                phr.set_value(rebias_value)
                machine.observe_conditional(attacker_pc, attacker_target,
                                            not taken, thread=self.thread)
