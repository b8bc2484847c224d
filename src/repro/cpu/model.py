"""Pluggable predictor-family backends (ARCHITECTURE.md §13).

The paper reverse-engineers one predictor -- the Intel CBP of Figure 1:
a 194-doublet PHR feeding a base predictor plus tagged PHTs -- and the
original reproduction hard-coded that family into :class:`Machine`.
This module is the seam that turns the repro into a *branch-predictor
attack lab*: a :class:`PredictorModel` names one predictor family and
builds its two stateful halves, and :class:`~repro.cpu.machine.Machine`
is family-agnostic glue around them.

A family supplies two duck-typed components:

**The direction predictor** (``build_direction_predictor``), installed
as ``machine.cbp``.  Protocol::

    predict(pc, history) -> prediction   # prediction.taken: bool
    update(pc, history, taken, prediction=None)
    observe(pc, history, taken) -> bool  # mispredicted?
    flush()
    snapshot() -> builtins-only value; restore(snap)
    populated_entries() -> int
    structural_violations(deep=False) -> List[str]   # optional; the
        fuzz oracle calls it when present instead of its built-in
        TAGE-shaped walk

**The history register** (``build_history``, one per SMT thread),
installed as ``ThreadContext.phr``.  Protocol::

    value -> int; bits -> int; capacity -> int
    low_bits(n) -> int                   # for IBP / table index hashes
    on_conditional(pc, target, taken)    # commit of a conditional
    on_taken(pc, target)                 # commit of a taken
                                         # non-conditional branch
    clear(); set_value(v)
    snapshot() -> int; restore(snap); copy()

``value`` is the register's whole state: the predictor's stashed
lookups and the fold caches key on it.  No component keeps a
mutation count: content digests hash the snapshot (ARCHITECTURE.md §12).

The *semantics* of the two commit hooks are the family's identity: the
Intel PHR folds a footprint on taken branches only, the M1-style PHR
records every conditional outcome, the gshare/tournament GHR shifts in
direction bits and ignores unconditional branches.  The machine calls
the hooks unconditionally and never special-cases a family.

Snapshot compatibility is enforced by name: every
:class:`~repro.cpu.machine.MachineSnapshot` carries the
``predictor_model`` id it was captured under, serialized artifacts
embed it, and restoring across families raises
:class:`~repro.cpu.serialize.SnapshotFormatError` instead of silently
mis-restoring one family's tables into another's.

The three built-in families:

======================  ==============================================
``intel-cbp``           The paper's reverse-engineered Intel CBP
                        (default; bit-identical to the pre-interface
                        machine, pinned by golden hashes).
``gshare-tournament``   A gshare + local tournament baseline in the
                        style of the Assassyn-CPU pipeline design.
``m1-phr``              An M1 Firestorm-style PHR variant per the
                        reverse engineering of arXiv 2502.10719.
======================  ==============================================
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Tuple, Type

from repro.cpu.cbp import ConditionalBranchPredictor
from repro.cpu.phr import PathHistoryRegister


class UnknownPredictorModelError(ValueError):
    """``MachineConfig.predictor_model`` names no registered family."""


class PredictorModel(ABC):
    """One predictor family: metadata plus component factories.

    Instances are per-machine and hold only the config; all mutable
    state lives in the components they build, which keeps a model safe
    to rebuild from a config anywhere (worker forks, service workers,
    batch replicas).
    """

    #: Stable identity, embedded in snapshots and serialized artifacts.
    model_id: str = ""
    #: Human-readable family name for benchmark tables.
    display_name: str = ""
    #: One-line provenance of the modeled structure.
    provenance: str = ""

    def __init__(self, config):
        self.config = config

    @abstractmethod
    def build_direction_predictor(self):
        """A fresh direction predictor (the ``machine.cbp`` slot)."""

    @abstractmethod
    def build_history(self):
        """A fresh per-thread history register (the ``context.phr`` slot)."""

    def on_domain_switch(self, machine, thread, old_domain: str,
                         new_domain: str) -> None:
        """Hook fired by :meth:`Machine.set_domain` on a transition.

        The built-in families model unpartitioned hardware -- predictor
        state survives domain switches, which is the asymmetry every
        Pathfinder attack exploits -- so the default is a no-op.
        Secure-predictor wrappers (ROADMAP item 3, the arXiv 2005.08183
        isolation design) override this to flush or re-key per-domain
        state.
        """

    def describe(self) -> Dict[str, str]:
        """Row data for cross-family benchmark matrices."""
        return {
            "model": self.model_id,
            "family": self.display_name,
            "provenance": self.provenance,
        }


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Type[PredictorModel]] = {}


def register_model(cls: Type[PredictorModel]) -> Type[PredictorModel]:
    """Class decorator: make ``cls`` addressable by its ``model_id``."""
    if not cls.model_id:
        raise ValueError(f"{cls.__name__} must define a model_id")
    existing = _REGISTRY.get(cls.model_id)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"predictor model id {cls.model_id!r} is already registered "
            f"by {existing.__name__}")
    _REGISTRY[cls.model_id] = cls
    return cls


def _ensure_builtin_models() -> None:
    """Import the built-in family modules so they self-register.

    Lazy (not at module import) to keep the dependency graph acyclic:
    the family modules import predictor components freely, and nothing
    below :mod:`repro.cpu.machine` needs the registry at import time.
    """
    from repro.cpu import m1, tournament  # noqa: F401  (side effect)


def model_ids() -> Tuple[str, ...]:
    """All registered family ids, sorted; the scenario-matrix axis."""
    _ensure_builtin_models()
    return tuple(sorted(_REGISTRY))


def resolve_model(model_id: str) -> Type[PredictorModel]:
    """The registered family class for ``model_id``."""
    _ensure_builtin_models()
    try:
        return _REGISTRY[model_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownPredictorModelError(
            f"unknown predictor model {model_id!r}; registered models: "
            f"{known}") from None


def build_model(config) -> PredictorModel:
    """Instantiate the family named by ``config.predictor_model``."""
    return resolve_model(config.predictor_model)(config)


# ----------------------------------------------------------------------
# the default family: the paper's Intel CBP
# ----------------------------------------------------------------------

@register_model
class IntelCbpModel(PredictorModel):
    """The reverse-engineered Intel conditional branch predictor.

    Exactly the structure the paper establishes: a
    :class:`~repro.cpu.phr.PathHistoryRegister` of
    ``config.phr_capacity`` doublets folding the Figure 2 footprint on
    taken branches, and a :class:`~repro.cpu.cbp.ConditionalBranchPredictor`
    (base predictor + tagged PHTs, Figure 3).  This is the default
    backend and is pinned bit-identical to the pre-interface machine by
    ``tests/test_predictor_golden.py``.
    """

    model_id = "intel-cbp"
    display_name = "Intel CBP (PHR + base/tagged PHTs)"
    provenance = "Pathfinder (ASPLOS 2024), Sections 2-3"

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

    def build_history(self) -> PathHistoryRegister:
        return PathHistoryRegister(self.config.phr_capacity)


def conformance_workload() -> List[Tuple[str, int, int, bool]]:
    """The fixed branch stream the cross-model contract tests replay.

    A deterministic mix of conditional commits (both outcomes, varied
    footprint bits) and taken non-conditional branches, long enough to
    populate tagged/gshare tables and wrap short histories.  Families
    consume it through the machine commit hooks only, so one workload
    exercises every backend identically.
    """
    stream: List[Tuple[str, int, int, bool]] = []
    for step in range(160):
        pc = 0x40_0000 + 4 * (step % 37) + ((step % 5) << 8)
        target = pc + 32 + ((step % 7) << 6)
        taken = bool((step * 2654435761) & 0b100)
        stream.append(("conditional", pc, target, taken))
        if step % 6 == 0:
            jump_pc = 0x41_0000 + 16 * step
            stream.append(("taken", jump_pc, jump_pc + 0x40, True))
    return stream
