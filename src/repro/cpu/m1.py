"""The M1 Firestorm-style predictor family (arXiv 2502.10719).

"Reverse Engineering the Apple M1 Conditional Branch Predictor for
Out-of-Place Spectre Mistraining" (Tuby & Morrison) finds that
Firestorm's conditional branch predictor, like Intel's, keys its tables
on a PHR-style global *path* history -- but with a different per-branch
hash and a different update discipline.  This family models those
reported differences at the fidelity the rest of this reproduction
models Intel's (DESIGN.md discipline: documented layout, preserved
attack-relevant properties):

* **Footprint** -- :func:`repro.cpu.footprint.m1_branch_footprint`
  mixes 16 branch-address bits with *8* target bits (Intel mixes 6),
  under the documented M1-style layout.
* **Both directions recorded** -- every retired conditional branch
  shifts the history: taken branches fold the branch/target footprint,
  not-taken branches fold a branch-address-only footprint
  (:func:`repro.cpu.footprint.m1_fallthrough_footprint`).  An attacker
  therefore cannot hide a conditional from this family's history by
  making it fall through -- the property that makes M1-style history
  *denser* per retired branch and shifts where the paper's Shift/Write
  history-massaging macros land.
* **Unconditional taken branches** fold their footprint exactly like
  Intel's PHR (jumps and calls are path events on both).
* **Tables** -- the direction tables reuse the TAGE-style base + tagged
  structure (:class:`~repro.cpu.cbp.ConditionalBranchPredictor`); the
  tagged tables fold the M1 register's value exactly as they fold
  Intel's, through the same value-keyed fold cache.

The :data:`~repro.cpu.config.FIRESTORM_M1` preset carries this
family's geometry (86-doublet history -- shorter than Raptor Lake's
194 because the M1 history fills twice as fast, recording both
directions).
"""

from __future__ import annotations

from repro.cpu.cbp import ConditionalBranchPredictor
from repro.cpu.footprint import m1_branch_footprint, m1_fallthrough_footprint
from repro.cpu.model import PredictorModel, register_model
from repro.cpu.phr import PathHistoryRegister


class M1PathHistoryRegister(PathHistoryRegister):
    """A PHR variant with the M1-style footprint and update discipline.

    Shares the shift/inject mechanics of the base register -- only the
    footprint function and the conditional-commit rule differ,
    which is exactly the seam :class:`~repro.cpu.phr.PathHistoryRegister`
    exposes for register families.
    """

    footprint = staticmethod(m1_branch_footprint)

    def on_conditional(self, branch_address: int, target_address: int,
                       taken: bool) -> None:
        """Record the conditional regardless of direction (M1 semantics)."""
        if taken:
            self.update(branch_address, target_address)
        else:
            self.inject(m1_fallthrough_footprint(branch_address))


@register_model
class M1PhrModel(PredictorModel):
    """The M1 Firestorm-style family."""

    model_id = "m1-phr"
    display_name = "M1-style PHR (both-direction path history)"
    provenance = "arXiv 2502.10719 (Tuby & Morrison), modeled layout"

    def build_direction_predictor(self) -> ConditionalBranchPredictor:
        config = self.config
        return ConditionalBranchPredictor(
            history_lengths=config.pht_history_lengths,
            sets=config.pht_sets,
            ways=config.pht_ways,
            counter_bits=config.counter_bits,
            tag_bits=config.pht_tag_bits,
            base_index_bits=config.base_index_bits,
            pc_index_bit=config.pc_index_bit,
        )

    def build_history(self) -> M1PathHistoryRegister:
        return M1PathHistoryRegister(self.config.phr_capacity)
