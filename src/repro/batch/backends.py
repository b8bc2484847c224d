"""Vectorized per-family predictor backends (ARCHITECTURE.md §10, §13).

:class:`~repro.batch.engine.BatchMachine` steps N replicas in lockstep,
but *what* state a replica's predictor holds -- and how a committed
branch moves it -- is a family property, exactly as it is on the scalar
side where :mod:`repro.cpu.model` builds per-family direction predictors
and history registers.  This module is the vector twin of that registry:
a :class:`BatchPredictorBackend` owns all numpy predictor + history
state for one family, and the engine owns everything family-agnostic
(deltas, pending logs, shadow components, the two-phase run_batch).

Backends mirror the scalar registry one-to-one by ``model_id``:

======================  ================================================
``intel-cbp``           :class:`IntelBatchBackend` -- the original
                        lockstep tables (stacked tagged tables, base
                        PHT, moving-origin PHR buffer, fold registers).
``m1-phr``              :class:`M1BatchBackend` -- same table geometry,
                        Firestorm footprint layout, and the
                        both-direction history shift: not-taken
                        conditionals fold a branch-address-only
                        footprint instead of leaving the history alone.
``gshare-tournament``   :class:`GshareTournamentBatchBackend` -- stacked
                        local/gshare counter planes plus a chooser,
                        arbitrating over a direction-bit GHR.
======================  ================================================

Every backend is pinned *bit-identical* to its scalar family: the
engine's ``extract(i)`` routes through :meth:`~BatchPredictorBackend.
extract_cbp`, and the parametrized equivalence suite plus the
per-family batch-twin fuzz arms compare that against a scalar replay of
the same commit stream.

Capability gating is per-backend: :meth:`BatchPredictorBackend.supports`
answers whether a :class:`~repro.cpu.config.MachineConfig`'s geometry
fits the backend's array layout, and ``repro.batch.supports_config``
composes registry lookup with that check.  Unknown families or exotic
geometries fall back to the scalar engine; they are never silently
approximated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from repro.cpu.config import MachineConfig
from repro.cpu.footprint import (
    _BRANCH_LUT,
    _M1_BRANCH_LUT,
    _M1_TARGET_LUT,
    _TARGET_LUT,
)
from repro.cpu.m1 import M1PathHistoryRegister
from repro.cpu.pht import (
    INDEX_BITS,
    base_snapshot_from_dense,
    base_snapshot_to_dense,
    table_snapshot_from_dense,
    table_snapshot_to_dense,
)
from repro.cpu.phr import PathHistoryRegister
from repro.cpu.tournament import (
    GHR_BITS,
    GSHARE_INDEX_BITS,
    TOURNAMENT_COUNTER_BITS,
    GlobalHistoryRegister,
)
from repro.utils.bits import fold_schedule


class BatchPredictorBackend:
    """Lockstep numpy predictor + history state for one family.

    The engine drives a backend through this protocol only:

    * ``observe(rows, pc, taken)`` -- predict and train one conditional
      branch on the selected replica rows, returning the per-row
      misprediction mask.  Runs *before* any history movement, like the
      scalar machine's predict-then-commit order.
    * ``commit_conditional(rows, pc, target, taken)`` /
      ``commit_taken(rows, pc, target)`` -- the family's history update
      discipline (the vector twins of the scalar register's
      ``on_conditional`` / ``on_taken`` hooks).
    * history access (``history_value`` / ``set_history_values`` /
      ``clear_history`` / ``load_history``) plus ``make_history``, which
      builds the *scalar* register object phase 1 uses to shadow IBP
      hashing.
    * snapshot plumbing: ``load_cbp`` / ``extract_cbp`` convert between
      the scalar family's sparse ``MachineSnapshot.cbp`` shape and the
      dense arrays; ``state_arrays`` / ``restore_arrays`` checkpoint the
      arrays themselves for :class:`~repro.batch.engine.BatchSnapshot`.

    All row indices address replicas; a backend never sees two commits
    for the same replica in one call, so scattered writes are safe.
    """

    #: The scalar family this backend is the vector twin of.
    model_id: str = ""

    def __init__(self, n: int, config: MachineConfig):
        self.n = n
        self.config = config
        self._all_rows = np.arange(n)

    # ----- capability -------------------------------------------------

    @classmethod
    def supports(cls, config: MachineConfig) -> bool:
        """Whether this backend can represent ``config``'s geometry."""
        raise NotImplementedError

    @classmethod
    def geometry(cls, config: MachineConfig) -> str:
        """The geometry fields :meth:`supports` checks, as one line.

        Quoted by the engine's constructor error so a rejected config
        names the offending geometry, not just the family.
        """
        raise NotImplementedError

    # ----- history ----------------------------------------------------

    def make_history(self, value: int):
        """A scalar history register of this family holding ``value``."""
        raise NotImplementedError

    def load_history(self, value: int) -> None:
        """Broadcast one history value into every replica."""
        raise NotImplementedError

    def history_value(self, i: int) -> int:
        """Replica ``i``'s history contents as an integer."""
        raise NotImplementedError

    def history_values(self) -> List[int]:
        """Every replica's history value."""
        return [self.history_value(i) for i in range(self.n)]

    def set_history_values(self, values: List[int]) -> None:
        """Force per-replica history contents (length-``n`` list)."""
        raise NotImplementedError

    def clear_history(self) -> None:
        """Zero every replica's history."""
        raise NotImplementedError

    # ----- predict / train / commit -----------------------------------

    def observe(self, rows: np.ndarray, pc: np.ndarray,
                taken: np.ndarray) -> np.ndarray:
        """Predict + train one conditional on ``rows``; mispredict mask."""
        raise NotImplementedError

    def commit_conditional(self, rows: np.ndarray, pc: np.ndarray,
                           target: np.ndarray, taken: np.ndarray) -> None:
        """Apply the family's history rule for a resolved conditional."""
        raise NotImplementedError

    def commit_taken(self, rows: np.ndarray, pc: np.ndarray,
                     target: np.ndarray) -> None:
        """Apply the family's history rule for a taken non-conditional."""
        raise NotImplementedError

    # ----- snapshot plumbing ------------------------------------------

    def load_cbp(self, cbp) -> None:
        """Broadcast a scalar ``MachineSnapshot.cbp`` into every replica."""
        raise NotImplementedError

    def extract_cbp(self, i: int):
        """Replica ``i``'s tables in the scalar ``cbp.snapshot()`` shape."""
        raise NotImplementedError

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Copies of every array this backend owns (checkpoint form)."""
        raise NotImplementedError

    def restore_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Copy a :meth:`state_arrays` checkpoint back into the arrays."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Type[BatchPredictorBackend]] = {}


def register_batch_backend(
        cls: Type[BatchPredictorBackend]) -> Type[BatchPredictorBackend]:
    """Class decorator: make ``cls`` addressable by its ``model_id``.

    Mirrors :func:`repro.cpu.model.register_model`: the id must be
    non-empty and may not conflict with a different registered class.
    """
    if not cls.model_id:
        raise ValueError(f"{cls.__name__} must define a model_id")
    existing = _REGISTRY.get(cls.model_id)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"batch backend id {cls.model_id!r} is already registered "
            f"by {existing.__name__}")
    _REGISTRY[cls.model_id] = cls
    return cls


def batch_backend_ids() -> Tuple[str, ...]:
    """All family ids with a vectorized backend, sorted."""
    return tuple(sorted(_REGISTRY))


def batch_backend_for(
        model_id: str) -> Optional[Type[BatchPredictorBackend]]:
    """The backend class for ``model_id``, or ``None`` if unregistered.

    Non-raising by design: ``supports_config`` and the trial-runner's
    vectorize gate use a missing backend as the scalar-fallback signal.
    """
    return _REGISTRY.get(model_id)


# ----------------------------------------------------------------------
# TAGE-shaped families (base + tagged tables over a doublet history)
# ----------------------------------------------------------------------


class _TableMeta:
    """Static per-table constants of the O(1) circular-fold advance."""

    __slots__ = (
        "window", "tag_bits", "tag_mask", "hi_width", "can_advance",
        "index_evict", "tag_evict", "hi_evict",
    )

    def __init__(self, history_doublets: int, tag_bits: int):
        window = 2 * history_doublets
        self.window = window
        self.tag_bits = tag_bits
        self.tag_mask = (1 << tag_bits) - 1
        self.hi_width = max(window - 3, 1)
        self.can_advance = tag_bits >= 8 and window >= 20
        self.index_evict = window % (INDEX_BITS - 1)
        self.tag_evict = window % tag_bits
        self.hi_evict = self.hi_width % tag_bits


class _TageBatchBackend(BatchPredictorBackend):
    """Shared machinery of the TAGE-shaped families.

    Both ``intel-cbp`` and ``m1-phr`` run the same table structure (base
    bimodal + tagged tables indexed/tagged by folded history) over a
    doublet-granular path history; they differ only in the footprint
    layout and the conditional-commit rule.  Subclasses pin those via
    the ``_branch_lut_src`` / ``_target_lut_src`` / ``_target_mask`` /
    ``_history_type`` class attributes and (for M1) an overridden
    :meth:`commit_conditional` -- the same seam the scalar
    :class:`~repro.cpu.phr.PathHistoryRegister` exposes.

    Array layout (moved verbatim from the original Intel-only engine):

    * base predictor: ``(N, 2^index_bits)`` counter values + populated
      mask;
    * each tagged table: ``(T, N, sets, ways)`` tags / counters / useful
      planes plus ``(T, N, sets)`` occupancy;
    * PHR: an ``(N, slack + width)`` moving-origin circular bit buffer;
    * fold registers: one stacked ``(3, T, N)`` array advanced with the
      doubled O(1) TAGE recurrence.
    """

    #: Footprint contribution LUTs and the target-address mask of the
    #: family's register (Intel Figure 2 vs the M1-style layout).
    _branch_lut_src = _BRANCH_LUT
    _target_lut_src = _TARGET_LUT
    _target_mask = 0x3F
    #: The scalar register type phase-1 shadows instantiate.
    _history_type = PathHistoryRegister

    @classmethod
    def supports(cls, config: MachineConfig) -> bool:
        """The production table geometry the vectorized arrays assume."""
        return (
            config.pht_sets == (1 << INDEX_BITS)
            and 1 <= config.counter_bits <= 7
            and 1 <= config.pht_tag_bits <= 15
            and len(config.pht_history_lengths) >= 1
            and max(config.pht_history_lengths) <= config.phr_capacity
            and config.phr_capacity >= 1
        )

    @classmethod
    def geometry(cls, config: MachineConfig) -> str:
        return (
            f"pht_sets={config.pht_sets} (supported: {1 << INDEX_BITS}), "
            f"counter_bits={config.counter_bits} (supported: 1..7), "
            f"pht_tag_bits={config.pht_tag_bits} (supported: 1..15), "
            f"pht_history_lengths={config.pht_history_lengths} "
            f"(supported: >= 1 window, all <= "
            f"phr_capacity={config.phr_capacity})"
        )

    def __init__(self, n: int, config: MachineConfig):
        super().__init__(n, config)
        counter_bits = config.counter_bits
        self._cmax = (1 << counter_bits) - 1
        self._cthr = 1 << (counter_bits - 1)
        self._cinit = self._cthr - 1
        self._base_size = 1 << config.base_index_bits
        self._base_mask = self._base_size - 1
        self._pc_index_bit = config.pc_index_bit
        self._tag_bits = config.pht_tag_bits
        self._ways = config.pht_ways
        self._sets = config.pht_sets
        self._width = 2 * config.phr_capacity
        self._fp_width = min(16, self._width)

        self._tables = [_TableMeta(length, self._tag_bits)
                        for length in config.pht_history_lengths]
        self._ntables = len(self._tables)
        self._pc_schedule = fold_schedule(16, self._tag_bits)
        self._branch_lut = np.asarray(type(self)._branch_lut_src,
                                      dtype=np.int64)
        self._target_lut = np.asarray(type(self)._target_lut_src,
                                      dtype=np.int64)
        self._way_range = np.arange(self._ways, dtype=np.int64)
        self._fp_bit_range = np.arange(self._fp_width, dtype=np.int64)
        # Stacked per-table fold constants for the batched O(1) advance
        # (only meaningful when every table can advance incrementally).
        self._all_advance = all(m.can_advance for m in self._tables)
        self._t_col = np.arange(self._ntables, dtype=np.int64)[:, None]
        self._win_m1 = np.asarray([m.window - 1 for m in self._tables],
                                  dtype=np.int64)
        self._win_m2 = self._win_m1 - 1
        self._idx_evict_col = np.asarray(
            [m.index_evict for m in self._tables], dtype=np.int64)[:, None]
        self._tag_evict_col = np.asarray(
            [m.tag_evict for m in self._tables], dtype=np.int64)[:, None]
        self._hi_evict_col = np.asarray(
            [m.hi_evict for m in self._tables], dtype=np.int64)[:, None]

        # ----- vector-owned state ------------------------------------
        tables = self._ntables
        self._base_val = np.full((n, self._base_size), self._cinit,
                                 dtype=np.int16)
        self._base_pop = np.zeros((n, self._base_size), dtype=bool)
        self._tags = np.zeros((tables, n, self._sets, self._ways),
                              dtype=np.int16)
        self._ctr = np.zeros((tables, n, self._sets, self._ways),
                             dtype=np.int16)
        self._useful = np.zeros((tables, n, self._sets, self._ways),
                                dtype=np.int16)
        self._occ = np.zeros((tables, n, self._sets), dtype=np.int16)
        # PHR bits live in a moving-origin circular buffer: replica r's
        # bit i (LSB first) is ``_phr_buf[r, _phr_org[r] + i]``.  A taken
        # branch then shifts by *decrementing the origin* and XORing the
        # 16 footprint bits -- O(footprint) instead of O(width) -- and a
        # row recopies back to the top of its slack region when its
        # origin runs out (every ``slack/2`` taken branches).
        self._phr_slack = 2 * self._width
        self._phr_buf = np.zeros((n, self._phr_slack + self._width),
                                 dtype=np.uint8)
        self._phr_org = np.full(n, self._phr_slack, dtype=np.int64)
        self._col_range = np.arange(self._width, dtype=np.int64)
        # Flat-index views and offsets: 1D ``np.take``/scatter on raveled
        # arrays beats multi-axis fancy indexing ~3x at batch sizes.
        self._buf_stride = self._phr_buf.shape[1]
        self._buf_flat = self._phr_buf.reshape(-1)
        self._t_set_off = (np.arange(self._ntables, dtype=np.int64)
                           * n * self._sets)[:, None]
        # The three fold registers (index, tag-lo, tag-hi) live stacked
        # in one (3, T, n) array so the advance recurrence and the
        # observe-time gather run as single numpy ops over all planes;
        # the named attributes are views into it.
        self._folds = np.zeros((3, tables, n), dtype=np.int64)
        self._fold_idx = self._folds[0]
        self._fold_lo = self._folds[1]
        self._fold_hi = self._folds[2]
        if self._all_advance:
            rot = self._tag_bits - 1
            tag_mask = (1 << self._tag_bits) - 1
            self._fold_rots = np.asarray(
                [7, rot, rot], dtype=np.int64)[:, None, None]
            self._fold_masks = np.asarray(
                [0xFF, tag_mask, tag_mask], dtype=np.int64)[:, None, None]
            self._fold_evicts = np.stack([
                self._idx_evict_col, self._tag_evict_col,
                self._hi_evict_col])
            self._win_off = np.concatenate(
                [self._win_m1, self._win_m2])[:, None]
        # Raveled views over the stacked arrays for flat-index gathers
        # (restore_arrays copies into the same storage, so these stay
        # valid).
        self._tags_by_set = self._tags.reshape(-1, self._ways)
        self._ctr_flat = self._ctr.reshape(-1)
        self._useful_flat = self._useful.reshape(-1)
        self._occ_flat = self._occ.reshape(-1)
        self._base_val_flat = self._base_val.reshape(-1)
        self._base_pop_flat = self._base_pop.reshape(-1)

    # ----- history ----------------------------------------------------

    def make_history(self, value: int):
        return self._history_type(self.config.phr_capacity, value)

    def _bits_of_value(self, value: int) -> np.ndarray:
        raw = (value & ((1 << self._width) - 1)).to_bytes(
            (self._width + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                             bitorder="little")
        return bits[: self._width]

    def _phr_row(self, i: int) -> np.ndarray:
        """Replica ``i``'s width-long bit view (LSB first)."""
        origin = self._phr_org[i]
        return self._phr_buf[i, origin:origin + self._width]

    @staticmethod
    def _pack_row(row: np.ndarray) -> int:
        packed = np.packbits(row, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def history_value(self, i: int) -> int:
        return self._pack_row(self._phr_row(i))

    def load_history(self, value: int) -> None:
        self._phr_buf[:] = 0
        self._phr_org[:] = self._phr_slack
        self._phr_buf[:, self._phr_slack:] = (
            self._bits_of_value(int(value))[None, :])
        self._refold(self._all_rows)

    def set_history_values(self, values: List[int]) -> None:
        self._phr_buf[:] = 0
        self._phr_org[:] = self._phr_slack
        for i, value in enumerate(values):
            self._phr_buf[i, self._phr_slack:] = (
                self._bits_of_value(int(value)))
        self._refold(self._all_rows)

    def clear_history(self) -> None:
        self._phr_buf[:] = 0
        self._phr_org[:] = self._phr_slack
        # An all-zero history folds to all-zero registers for every
        # table, so the from-scratch refold collapses to a fill --
        # clear_phr sits in primitive hot loops (one clear per path
        # visit in the read channel).
        self._folds[:] = 0

    def _fold_bits(self, rows: np.ndarray, low: int, high: int,
                   chunk: int) -> np.ndarray:
        """Chunked XOR fold of PHR bit columns ``[low, high)`` per row.

        Bit-identical to ``fold_xor(value[low:high], high-low, chunk)``:
        reshape into ``chunk``-wide groups (zero-padded at the top, like
        the fold's implicit high zeros) and XOR-reduce.
        """
        if high <= low:
            return np.zeros(rows.size, dtype=np.int64)
        origins = self._phr_org[rows]
        segment = self._phr_buf[rows[:, None],
                                origins[:, None] + self._col_range[low:high]]
        width = segment.shape[1]
        pad = (-width) % chunk
        if pad:
            segment = np.concatenate(
                [segment,
                 np.zeros((segment.shape[0], pad), dtype=segment.dtype)],
                axis=1)
        segment = segment.reshape(segment.shape[0], -1, chunk)
        folded = np.bitwise_xor.reduce(segment, axis=1).astype(np.int64)
        return folded @ (np.int64(1) << np.arange(chunk, dtype=np.int64))

    def _refold(self, rows: np.ndarray) -> None:
        """From-scratch fold recomputation for ``rows`` (all tables)."""
        for t, meta in enumerate(self._tables):
            if not meta.can_advance:
                continue
            self._fold_idx[t][rows] = self._fold_bits(
                rows, 0, meta.window, INDEX_BITS - 1)
            self._fold_lo[t][rows] = self._fold_bits(
                rows, 0, meta.window, meta.tag_bits)
            self._fold_hi[t][rows] = self._fold_bits(
                rows, 3, meta.window, meta.tag_bits)

    def _footprints(self, pc: np.ndarray, target: np.ndarray) -> np.ndarray:
        """The family's per-branch footprint, vectorized over rows."""
        return (self._branch_lut[pc & 0xFFFF]
                ^ self._target_lut[target & self._target_mask])

    def _advance_rows(self, rows: np.ndarray,
                      footprint: np.ndarray) -> None:
        """Shift ``rows`` by one doublet and fold ``footprint`` in.

        The fold recurrence is the TAGE circular-fold update: each fold
        rotates twice, absorbing the two evicted top bits at its
        outpoint, then XORs in the footprint's two-chunk fold (the
        scalar tables refold each new window from scratch instead, and
        the batch equivalence tests pin the two bit-identical).  The
        bit-array update is
        ``PHR' = ((PHR << 2) ^ footprint) & mask`` one bit-plane at a
        time.  Footprint-generic: callers pass whatever the family's
        commit rule injects (branch/target footprints, the M1
        fallthrough footprint), matching the scalar ``inject`` seam.
        """
        if rows.size == 0:
            return
        buf = self._phr_buf
        buf_flat = self._buf_flat
        origins = self._phr_org[rows]
        bit_flat = rows * self._buf_stride + origins
        if self._all_advance:
            # All planes and tables at once: one gather pulls both
            # evicted bits for every table as (2T, k), one gather pulls
            # the stacked fold registers as (3, T, k), and the doubled
            # recurrence runs with per-plane rotation/mask constants and
            # (3, T, 1) eviction columns -- then a single scatter.
            evicted = np.take(
                buf_flat, bit_flat[None, :] + self._win_off).astype(np.int64)
            tables = len(self._tables)
            evicted_first = evicted[:tables]
            evicted_second = evicted[tables:]
            injected = (footprint >> 3) ^ (
                (np.take(buf_flat, bit_flat + 2).astype(np.int64) << 1)
                | np.take(buf_flat, bit_flat + 1))

            chunk = self._tag_bits
            tag_mask = (1 << chunk) - 1
            rots = self._fold_rots
            masks = self._fold_masks
            evicts = self._fold_evicts
            folds = self._folds[:, :, rows]
            folds = ((((folds << 1) | (folds >> rots)) & masks)
                     ^ (evicted_first << evicts))
            folds = ((((folds << 1) | (folds >> rots)) & masks)
                     ^ (evicted_second << evicts))
            inject = np.stack([
                (footprint & 0xFF) ^ (footprint >> 8),
                (footprint & tag_mask) ^ (footprint >> chunk),
                (injected & tag_mask) ^ (injected >> chunk),
            ])[:, None, :]
            self._folds[:, :, rows] = folds ^ inject
        else:
            for t, meta in enumerate(self._tables):
                if not meta.can_advance:
                    continue
                window = meta.window
                evicted_first = np.take(
                    buf_flat, bit_flat + window - 1).astype(np.int64)
                evicted_second = np.take(
                    buf_flat, bit_flat + window - 2).astype(np.int64)

                folded = self._fold_idx[t][rows]
                evict = meta.index_evict
                folded = ((((folded << 1) | (folded >> 7)) & 0xFF)
                          ^ (evicted_first << evict))
                folded = ((((folded << 1) | (folded >> 7)) & 0xFF)
                          ^ (evicted_second << evict))
                self._fold_idx[t][rows] = (folded ^ (footprint & 0xFF)
                                           ^ (footprint >> 8))

                chunk = meta.tag_bits
                rot = chunk - 1
                tag_mask = meta.tag_mask
                low = self._fold_lo[t][rows]
                evict = meta.tag_evict
                low = ((((low << 1) | (low >> rot)) & tag_mask)
                       ^ (evicted_first << evict))
                low = ((((low << 1) | (low >> rot)) & tag_mask)
                       ^ (evicted_second << evict))
                low ^= (footprint & tag_mask) ^ (footprint >> chunk)
                self._fold_lo[t][rows] = low

                injected = (footprint >> 3) ^ (
                    (np.take(buf_flat, bit_flat + 2).astype(np.int64) << 1)
                    | np.take(buf_flat, bit_flat + 1))
                high = self._fold_hi[t][rows]
                evict = meta.hi_evict
                high = ((((high << 1) | (high >> rot)) & tag_mask)
                        ^ (evicted_first << evict))
                high = ((((high << 1) | (high >> rot)) & tag_mask)
                        ^ (evicted_second << evict))
                high ^= (injected & tag_mask) ^ (injected >> chunk)
                self._fold_hi[t][rows] = high

        # The shift itself: decrement each row's origin (new bits 0 and 1
        # appear at the new origin, zeroed) and XOR the footprint into
        # the low bits.  Rows whose origin hits the floor first recopy
        # their live window back to the top of the slack region.
        wrapped = origins < 2
        if wrapped.any():
            w_rows = rows[wrapped]
            w_origins = origins[wrapped]
            live = buf[w_rows[:, None], w_origins[:, None] + self._col_range]
            buf[w_rows] = 0
            buf[w_rows[:, None],
                self._phr_slack + self._col_range[None, :]] = live
            origins = np.where(wrapped, self._phr_slack, origins)
            bit_flat = rows * self._buf_stride + origins
        origins -= 2
        bit_flat = bit_flat - 2
        self._phr_org[rows] = origins
        buf_flat[bit_flat] = 0
        buf_flat[bit_flat + 1] = 0
        buf_flat[bit_flat[:, None] + self._fp_bit_range] ^= (
            (footprint[:, None] >> self._fp_bit_range) & 1
        ).astype(np.uint8)

    # ----- predict / train --------------------------------------------

    def _pc_fold_vec(self, pc: np.ndarray) -> np.ndarray:
        value = pc & 0xFFFF
        for cut, cut_mask in self._pc_schedule:
            value = (value & cut_mask) ^ (value >> cut)
        return value

    def _base_train(self, base_flat: np.ndarray,
                    taken: np.ndarray) -> None:
        if base_flat.size == 0:
            return
        value = np.take(self._base_val_flat, base_flat).astype(np.int64)
        step_up = taken & (value < self._cmax)
        step_down = (~taken) & (value > 0)
        self._base_val_flat[base_flat] = (
            value + step_up - step_down).astype(np.int16)
        self._base_pop_flat[base_flat] = True

    def _weak(self, taken: np.ndarray) -> np.ndarray:
        return np.where(taken, self._cthr, self._cthr - 1).astype(np.int16)

    def _allocate(self, t: int, rows: np.ndarray, index: np.ndarray,
                  tag: np.ndarray, taken: np.ndarray) -> None:
        """Vector transcription of ``TaggedTable.allocate``."""
        tags, ctr, useful, occ_arr = (self._tags[t], self._ctr[t],
                                      self._useful[t], self._occ[t])
        set_tags = tags[rows, index]
        occ = occ_arr[rows, index].astype(np.int64)
        live = self._way_range[None, :] < occ[:, None]
        duplicate = live & (set_tags == tag[:, None])
        has_duplicate = duplicate.any(axis=1)
        if has_duplicate.any():
            d_rows = rows[has_duplicate]
            d_index = index[has_duplicate]
            d_way = duplicate[has_duplicate].argmax(axis=1)
            ctr[d_rows, d_index, d_way] = self._weak(taken[has_duplicate])
            useful[d_rows, d_index, d_way] = 0
        fresh = ~has_duplicate
        append = fresh & (occ < self._ways)
        if append.any():
            a_rows = rows[append]
            a_index = index[append]
            a_way = occ[append]
            tags[a_rows, a_index, a_way] = tag[append].astype(np.int16)
            ctr[a_rows, a_index, a_way] = self._weak(taken[append])
            useful[a_rows, a_index, a_way] = 0
            occ_arr[a_rows, a_index] = (occ[append] + 1).astype(np.int16)
        evict = fresh & (occ >= self._ways)
        if evict.any():
            e_rows = rows[evict]
            e_index = index[evict]
            u_set = useful[e_rows, e_index]
            victim = u_set.argmin(axis=1)
            decay = ((u_set > 0)
                     & (self._way_range[None, :] != victim[:, None]))
            useful[e_rows, e_index] = u_set - decay
            useful[e_rows, e_index, victim] = 0
            tags[e_rows, e_index, victim] = tag[evict].astype(np.int16)
            ctr[e_rows, e_index, victim] = self._weak(taken[evict])

    def observe(self, rows: np.ndarray, pc: np.ndarray,
                taken: np.ndarray) -> np.ndarray:
        """Predict + train one conditional branch on ``rows``.

        Returns the per-row misprediction mask.  Semantics transcribe
        ``ConditionalBranchPredictor.predict``/``update`` exactly (see
        the scalar source for the policy rationale).
        """
        k = rows.size
        base_index = pc & self._base_mask
        base_flat = rows * self._base_size + base_index
        # No populated-mask gather: unpopulated dense slots hold the
        # lazy-init value (cthr - 1 < cthr), so the comparison alone
        # reproduces the scalar absent-counter rule (predict not-taken).
        base_val = np.take(self._base_val_flat, base_flat)
        pred = base_val >= self._cthr
        alternate = pred.copy()
        provider = np.zeros(k, dtype=np.int64)
        pc_fold = self._pc_fold_vec(pc)
        pc_bit = ((pc >> self._pc_index_bit) & 1) << (INDEX_BITS - 1)
        # Probe every table with one stacked gather: (T, k) indices/tags
        # into the (T, n, sets, ways) arrays.
        if self._all_advance:
            folds = self._folds[:, :, rows]
            fold_index = folds[0]
            fold_lo = folds[1]
            fold_hi = folds[2]
        else:
            fold_index = np.empty((self._ntables, k), dtype=np.int64)
            fold_lo = np.empty((self._ntables, k), dtype=np.int64)
            fold_hi = np.empty((self._ntables, k), dtype=np.int64)
            for t, meta in enumerate(self._tables):
                if meta.can_advance:
                    fold_index[t] = self._fold_idx[t][rows]
                    fold_lo[t] = self._fold_lo[t][rows]
                    fold_hi[t] = self._fold_hi[t][rows]
                else:
                    fold_index[t] = self._fold_bits(rows, 0, meta.window,
                                                    INDEX_BITS - 1)
                    fold_lo[t] = self._fold_bits(rows, 0, meta.window,
                                                 meta.tag_bits)
                    fold_hi[t] = self._fold_bits(rows, 3, meta.window,
                                                 meta.tag_bits)
        index_by_table = fold_index | pc_bit
        tag_by_table = fold_lo ^ fold_hi ^ pc_fold
        set_flat = self._t_set_off + rows * self._sets + index_by_table
        set_tags = np.take(self._tags_by_set, set_flat, axis=0)
        occ = np.take(self._occ_flat, set_flat)
        live = self._way_range[None, None, :] < occ[:, :, None]
        match = live & (set_tags == tag_by_table[:, :, None])
        found = match.any(axis=2)
        way_by_table = np.where(found, match.argmax(axis=2), 0)
        counter = np.take(self._ctr_flat,
                          set_flat * self._ways + way_by_table)
        for t in range(self._ntables):
            hit = found[t]
            alternate = np.where(hit, pred, alternate)
            pred = np.where(hit, counter[t] >= self._cthr, pred)
            provider = np.where(hit, t + 1, provider)
        mispredicted = pred != taken

        # Train the provider (tagged tables, then the base fallback).
        way_flat = set_flat * self._ways + way_by_table
        for t in range(len(self._tables)):
            selected = provider == (t + 1)
            if not selected.any():
                continue
            s_flat = way_flat[t][selected]
            s_taken = taken[selected]
            counter = np.take(self._ctr_flat, s_flat).astype(np.int64)
            new_counter = np.where(
                s_taken,
                np.minimum(counter + 1, self._cmax),
                np.maximum(counter - 1, 0),
            )
            self._ctr_flat[s_flat] = new_counter.astype(np.int16)
            use = np.take(self._useful_flat, s_flat)
            bump = ((pred[selected] == s_taken)
                    & (pred[selected] != alternate[selected])
                    & (use < 3))
            self._useful_flat[s_flat] = use + bump
            # Base alt-update while the provider counter is unsaturated.
            weakly = (new_counter != 0) & (new_counter != self._cmax)
            self._base_train(base_flat[selected][weakly], s_taken[weakly])
        base_provided = provider == 0
        if base_provided.any():
            self._base_train(base_flat[base_provided],
                             taken[base_provided])

        # Allocate on misprediction in the next-longer table.
        for t in range(len(self._tables)):
            selected = mispredicted & (provider == t)
            if selected.any():
                self._allocate(t, rows[selected], index_by_table[t][selected],
                               tag_by_table[t][selected], taken[selected])
        return mispredicted

    # ----- history commit rules ---------------------------------------

    def commit_conditional(self, rows: np.ndarray, pc: np.ndarray,
                           target: np.ndarray, taken: np.ndarray) -> None:
        """Intel rule: only taken conditionals fold a footprint."""
        taken_rows = rows[taken]
        self._advance_rows(taken_rows,
                           self._footprints(pc[taken], target[taken]))

    def commit_taken(self, rows: np.ndarray, pc: np.ndarray,
                     target: np.ndarray) -> None:
        self._advance_rows(rows, self._footprints(pc, target))

    # ----- snapshot plumbing ------------------------------------------

    def load_cbp(self, cbp) -> None:
        base_snap, table_snaps = cbp
        values, populated = base_snapshot_to_dense(
            base_snap, self.config.base_index_bits, self.config.counter_bits)
        self._base_val[:] = np.asarray(values, dtype=np.int16)
        self._base_pop[:] = np.asarray(populated, dtype=bool)
        for t, table_snap in enumerate(table_snaps):
            tags, counters, useful, occupancy = table_snapshot_to_dense(
                table_snap, self._sets, self._ways)
            self._tags[t][:] = np.asarray(tags, dtype=np.int16)
            self._ctr[t][:] = np.asarray(counters, dtype=np.int16)
            self._useful[t][:] = np.asarray(useful, dtype=np.int16)
            self._occ[t][:] = np.asarray(occupancy, dtype=np.int16)

    def extract_cbp(self, i: int):
        base_snap = base_snapshot_from_dense(self._base_val[i],
                                             self._base_pop[i])
        table_snaps = tuple(
            table_snapshot_from_dense(self._tags[t][i], self._ctr[t][i],
                                      self._useful[t][i], self._occ[t][i])
            for t in range(len(self._tables))
        )
        return (base_snap, table_snaps)

    def state_arrays(self) -> Dict[str, np.ndarray]:
        return {
            "base_val": self._base_val.copy(),
            "base_pop": self._base_pop.copy(),
            "phr_buf": self._phr_buf.copy(),
            "phr_org": self._phr_org.copy(),
            "tags": self._tags.copy(),
            "ctr": self._ctr.copy(),
            "useful": self._useful.copy(),
            "occ": self._occ.copy(),
            "folds": self._folds.copy(),
        }

    def restore_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        np.copyto(self._base_val, arrays["base_val"])
        np.copyto(self._base_pop, arrays["base_pop"])
        np.copyto(self._phr_buf, arrays["phr_buf"])
        np.copyto(self._phr_org, arrays["phr_org"])
        np.copyto(self._tags, arrays["tags"])
        np.copyto(self._ctr, arrays["ctr"])
        np.copyto(self._useful, arrays["useful"])
        np.copyto(self._occ, arrays["occ"])
        np.copyto(self._folds, arrays["folds"])


@register_batch_backend
class IntelBatchBackend(_TageBatchBackend):
    """The paper's Intel CBP, vectorized -- the original batch tables.

    Pinned bit-identical to the scalar ``intel-cbp`` family by the
    equivalence suite and the Intel golden hashes that predate the
    backend seam.
    """

    model_id = "intel-cbp"


@register_batch_backend
class M1BatchBackend(_TageBatchBackend):
    """The M1 Firestorm-style family, vectorized.

    Same table geometry as Intel; the family identity lives in the
    footprint layout (16 branch bits x 8 target bits, arXiv 2502.10719)
    and the both-direction commit rule below.
    """

    model_id = "m1-phr"
    _branch_lut_src = _M1_BRANCH_LUT
    _target_lut_src = _M1_TARGET_LUT
    _target_mask = 0xFF
    _history_type = M1PathHistoryRegister

    def commit_conditional(self, rows: np.ndarray, pc: np.ndarray,
                           target: np.ndarray, taken: np.ndarray) -> None:
        """M1 rule: every conditional shifts the history.

        Taken branches fold the branch/target footprint; not-taken
        branches fold the branch-address-only fallthrough footprint
        (the vector twin of ``M1PathHistoryRegister.on_conditional``),
        so every row advances once, in one call.
        """
        self._advance_rows(rows, np.where(taken, self._footprints(pc, target),
                                          self._branch_lut[pc & 0xFFFF]))


# ----------------------------------------------------------------------
# the gshare/tournament family
# ----------------------------------------------------------------------


@register_batch_backend
class GshareTournamentBatchBackend(BatchPredictorBackend):
    """The gshare + local tournament baseline, vectorized.

    Three stacked counter planes -- local ``(N, 2^local_bits)``, gshare
    ``(N, 2^gshare_bits)``, chooser ``(N, 2^local_bits)`` -- each a
    value array plus a populated mask (the scalar
    :class:`~repro.cpu.pht.BasePredictor` materialises counters lazily
    and predicts not-taken for absent ones; the mask preserves that
    exactly), arbitrated per the scalar
    :class:`~repro.cpu.tournament.TournamentPredictor`: the chooser
    picks gshare when its counter crosses threshold, both components
    always train, and the chooser trains only on disagreement toward
    whichever component was right.  History is an ``(N,)`` direction-bit
    GHR advanced by ``(ghr << 1) | taken`` on every conditional and
    untouched by taken non-conditional branches.
    """

    model_id = "gshare-tournament"

    @classmethod
    def supports(cls, config: MachineConfig) -> bool:
        """Any sane local-table width (the dense planes are 2^bits wide).

        The family's other parameters (GHR width, gshare width, counter
        bits) are fixed module constants on the scalar side too, so the
        local/chooser index width is the only geometry knob.
        """
        return 1 <= config.base_index_bits <= 20

    @classmethod
    def geometry(cls, config: MachineConfig) -> str:
        return f"base_index_bits={config.base_index_bits} (supported: 1..20)"

    def __init__(self, n: int, config: MachineConfig):
        super().__init__(n, config)
        self._cmax = (1 << TOURNAMENT_COUNTER_BITS) - 1
        self._cthr = 1 << (TOURNAMENT_COUNTER_BITS - 1)
        self._cinit = self._cthr - 1
        self._local_bits = config.base_index_bits
        self._local_size = 1 << self._local_bits
        self._local_mask = self._local_size - 1
        self._gshare_size = 1 << GSHARE_INDEX_BITS
        self._gshare_mask = self._gshare_size - 1
        self._ghr_mask = (1 << GHR_BITS) - 1
        self._ghr_schedule = fold_schedule(GHR_BITS, GSHARE_INDEX_BITS)

        self._local_val = np.full((n, self._local_size), self._cinit,
                                  dtype=np.int16)
        self._local_pop = np.zeros((n, self._local_size), dtype=bool)
        self._gshare_val = np.full((n, self._gshare_size), self._cinit,
                                   dtype=np.int16)
        self._gshare_pop = np.zeros((n, self._gshare_size), dtype=bool)
        self._chooser_val = np.full((n, self._local_size), self._cinit,
                                    dtype=np.int16)
        self._chooser_pop = np.zeros((n, self._local_size), dtype=bool)
        self._ghr = np.zeros(n, dtype=np.int64)

        self._local_val_flat = self._local_val.reshape(-1)
        self._local_pop_flat = self._local_pop.reshape(-1)
        self._gshare_val_flat = self._gshare_val.reshape(-1)
        self._gshare_pop_flat = self._gshare_pop.reshape(-1)
        self._chooser_val_flat = self._chooser_val.reshape(-1)
        self._chooser_pop_flat = self._chooser_pop.reshape(-1)

    # ----- history ----------------------------------------------------

    def make_history(self, value: int):
        return GlobalHistoryRegister(GHR_BITS, value)

    def load_history(self, value: int) -> None:
        self._ghr[:] = int(value) & self._ghr_mask

    def history_value(self, i: int) -> int:
        return int(self._ghr[i])

    def set_history_values(self, values: List[int]) -> None:
        # Mask before the int64 conversion: callers may hand arbitrarily
        # wide Python ints (the scalar GHR masks on set_value too).
        self._ghr[:] = np.asarray([int(v) & self._ghr_mask for v in values],
                                  dtype=np.int64)

    def clear_history(self) -> None:
        self._ghr[:] = 0

    # ----- predict / train --------------------------------------------

    def _train(self, val_flat: np.ndarray, pop_flat: np.ndarray,
               flat: np.ndarray, taken: np.ndarray) -> None:
        """``BasePredictor.update`` over a flat index vector.

        Unpopulated dense slots already hold the default (weakly
        not-taken) counter value, so lazy materialisation reduces to
        setting the populated bit.
        """
        if flat.size == 0:
            return
        value = np.take(val_flat, flat).astype(np.int64)
        value = np.where(taken, np.minimum(value + 1, self._cmax),
                         np.maximum(value - 1, 0))
        val_flat[flat] = value.astype(np.int16)
        pop_flat[flat] = True

    def observe(self, rows: np.ndarray, pc: np.ndarray,
                taken: np.ndarray) -> np.ndarray:
        """Vector transcription of ``TournamentPredictor.observe``."""
        local_flat = rows * self._local_size + (pc & self._local_mask)
        folded = self._ghr[rows]
        for cut, cut_mask in self._ghr_schedule:
            folded = (folded & cut_mask) ^ (folded >> cut)
        gshare_flat = (rows * self._gshare_size
                       + ((pc ^ folded) & self._gshare_mask))
        # The populated masks are not needed to *predict*: unpopulated
        # dense slots hold the lazy-init value (cthr - 1 < cthr), so
        # ``value >= cthr`` is False for them exactly as the scalar
        # predictor's absent-counter rule demands.  The masks only feed
        # sparse snapshot extraction.
        local_taken = np.take(self._local_val_flat, local_flat) >= self._cthr
        gshare_taken = (np.take(self._gshare_val_flat, gshare_flat)
                        >= self._cthr)
        chose_gshare = (np.take(self._chooser_val_flat, local_flat)
                        >= self._cthr)
        pred = np.where(chose_gshare, gshare_taken, local_taken)
        # Both components always train (the classic Alpha 21264 rule);
        # the chooser trains only on disagreement, toward whichever
        # component was right.
        self._train(self._local_val_flat, self._local_pop_flat,
                    local_flat, taken)
        self._train(self._gshare_val_flat, self._gshare_pop_flat,
                    gshare_flat, taken)
        gshare_right = gshare_taken == taken
        disagree = (local_taken == taken) != gshare_right
        if disagree.any():
            self._train(self._chooser_val_flat, self._chooser_pop_flat,
                        local_flat[disagree], gshare_right[disagree])
        return pred != taken

    # ----- history commit rules ---------------------------------------

    def commit_conditional(self, rows: np.ndarray, pc: np.ndarray,
                           target: np.ndarray, taken: np.ndarray) -> None:
        """GHR rule: every conditional shifts in its direction bit."""
        self._ghr[rows] = (((self._ghr[rows] << 1) | taken.astype(np.int64))
                           & self._ghr_mask)

    def commit_taken(self, rows: np.ndarray, pc: np.ndarray,
                     target: np.ndarray) -> None:
        """Taken non-conditional branches do not move a classic GHR."""

    # ----- snapshot plumbing ------------------------------------------

    def _planes(self):
        return (
            (self._local_bits, self._local_val, self._local_pop),
            (GSHARE_INDEX_BITS, self._gshare_val, self._gshare_pop),
            (self._local_bits, self._chooser_val, self._chooser_pop),
        )

    def load_cbp(self, cbp) -> None:
        for snap_dict, (bits, val, pop) in zip(cbp, self._planes()):
            values, populated = base_snapshot_to_dense(
                snap_dict, bits, TOURNAMENT_COUNTER_BITS)
            val[:] = np.asarray(values, dtype=np.int16)
            pop[:] = np.asarray(populated, dtype=bool)

    def extract_cbp(self, i: int):
        return tuple(base_snapshot_from_dense(val[i], pop[i])
                     for _, val, pop in self._planes())

    def state_arrays(self) -> Dict[str, np.ndarray]:
        return {
            "local_val": self._local_val.copy(),
            "local_pop": self._local_pop.copy(),
            "gshare_val": self._gshare_val.copy(),
            "gshare_pop": self._gshare_pop.copy(),
            "chooser_val": self._chooser_val.copy(),
            "chooser_pop": self._chooser_pop.copy(),
            "ghr": self._ghr.copy(),
        }

    def restore_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        np.copyto(self._local_val, arrays["local_val"])
        np.copyto(self._local_pop, arrays["local_pop"])
        np.copyto(self._gshare_val, arrays["gshare_val"])
        np.copyto(self._gshare_pop, arrays["gshare_pop"])
        np.copyto(self._chooser_val, arrays["chooser_val"])
        np.copyto(self._chooser_pop, arrays["chooser_pop"])
        np.copyto(self._ghr, arrays["ghr"])
