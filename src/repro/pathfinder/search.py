"""The Pathfinder backward path search (paper Section 6).

Given a CFG and an observed path history, the search starts from the exit
block and explores predecessors in reverse execution order.  Every edge
that folds a footprint into the PHR must match the current lowest doublet
(which is produced exclusively by the most recent taken branch); matching
edges are reversed (``value = (value ^ footprint) >> 2``) and the walk
continues until the entry block explains the entire history.

Two matching modes:

* ``exact`` -- the observed history covers the victim's whole execution
  (the Extended Read PHR output).  The reversal is then information-
  preserving, and an accepted path reproduces the history bit for bit.
* ``window`` -- the observed history is the physical PHR, covering only
  the last ``len(doublets)`` taken branches.  A path suffix is accepted
  the moment it explains the full window.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.phr import PathHistoryRegister
from repro.pathfinder.cfg import ControlFlowGraph, Edge, EdgeKind
from repro.utils.bits import mask


@dataclass
class RecoveredPath:
    """One execution path consistent with the observed history."""

    #: Edges in forward execution order (entry .. exit).
    edges: List[Edge]
    #: Block start addresses in forward execution order, including entry.
    blocks: List[int]
    #: Whether this path explains history back to the function entry.
    reaches_entry: bool

    @property
    def branch_outcomes(self) -> List[Tuple[int, bool]]:
        """Per-conditional-branch (pc, taken) outcomes, in order."""
        outcomes = []
        for edge in self.edges:
            if edge.kind is EdgeKind.TAKEN:
                outcomes.append((edge.branch_pc, True))
            elif edge.kind is EdgeKind.NOT_TAKEN:
                outcomes.append((edge.branch_pc, False))
        return outcomes

    @property
    def taken_branches(self) -> List[Tuple[int, int]]:
        """Ordered (pc, target) of every PHR-updating branch."""
        return [
            (edge.branch_pc, edge.destination)
            for edge in self.edges
            if edge.kind.updates_phr
        ]

    def block_visit_counts(self) -> Dict[int, int]:
        """How many times each block executed (loop trip counts)."""
        return Counter(self.blocks)


@dataclass
class _State:
    """One frontier node of the backward search (immutable chain)."""

    point: int  # block start whose execution onwards is explained
    value: int  # remaining (reversed) history value
    matched: int  # taken branches consumed so far
    call_stack: Tuple[Tuple[int, int], ...]  # (callee_entry, continuation)
    parent: Optional["_State"] = None
    via: Optional[Edge] = None


@dataclass
class PathSearch:
    """Backward search over one CFG."""

    cfg: ControlFlowGraph
    mode: str = "exact"
    max_states: int = 2_000_000
    max_paths: int = 16
    #: Dead-state transposition table.  A residual state is fully
    #: described by ``(block, residual value, matched depth, call
    #: stack)``; once a subtree rooted at such a state has been fully
    #: explored without yielding a verified path, every later arrival at
    #: the same state is pruned.  Window-mode searches over loopy CFGs
    #: otherwise re-explore identical residual states exponentially
    #: often (equal-footprint diamonds all fold to one value).  ``False``
    #: keeps the naive exhaustive walk for benchmark comparison.
    memoize: bool = True
    #: Explored states in the last run (diagnostics).
    explored: int = field(default=0, init=False)
    #: States skipped via the dead-state memo in the last run.
    pruned: int = field(default=0, init=False)
    #: Doublet-indexed predecessor lookup, keyed to ``cfg.version``.
    _in_index: Optional[Dict] = field(default=None, init=False, repr=False)
    _passthrough: Optional[Dict] = field(default=None, init=False, repr=False)
    _ret_index: Optional[Dict] = field(default=None, init=False, repr=False)
    _index_version: int = field(default=-1, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "window"):
            raise ValueError(f"unknown search mode {self.mode!r}")

    # ------------------------------------------------------------------

    def _ensure_index(self) -> None:
        """(Re)build the per-CFG edge indexes if the CFG changed.

        ``edges_in`` scans touched every in-edge per visited state; the
        index buckets PHR-updating edges by their lowest footprint
        doublet (the only value doublet 0 can match), so each visit
        walks exactly the candidate edges.  Dynamic RET edges -- whose
        footprints the old walk recomputed per visit -- are prebuilt
        once per continuation.  ``cfg.version`` invalidates everything
        when an edge is inserted after the first search.
        """
        version = getattr(self.cfg, "version", 0)
        if self._in_index is not None and self._index_version == version:
            return
        in_index: Dict[int, Dict[int, List[Edge]]] = {}
        passthrough: Dict[int, List[Edge]] = {}
        for destination, edges in self.cfg.edges_in.items():
            for edge in edges:
                if edge.kind.updates_phr:
                    assert edge.footprint is not None
                    in_index.setdefault(destination, {}).setdefault(
                        edge.footprint & 0b11, []).append(edge)
                else:
                    passthrough.setdefault(destination, []).append(edge)
        ret_index: Dict[int, List[Tuple[int, Edge]]] = {}
        for continuation, callees in self.cfg.call_continuations.items():
            entries = ret_index.setdefault(continuation, [])
            for callee_entry in callees:
                for ret_block in self.cfg.ret_blocks():
                    entries.append((callee_entry,
                                    self._ret_edge(ret_block, continuation)))
        self._in_index = in_index
        self._passthrough = passthrough
        self._ret_index = ret_index
        self._index_version = version

    def search(
        self,
        doublets: Sequence[int],
        exit_block: Optional[int] = None,
    ) -> List[RecoveredPath]:
        """Find all paths consistent with ``doublets`` (LSB first)."""
        width = len(doublets)
        if width == 0:
            raise ValueError("cannot search an empty history")
        observed = PathHistoryRegister.from_doublets(doublets, capacity=width)
        value_mask = mask(2 * width)

        if exit_block is not None:
            exits = [self.cfg.block_at(exit_block)]
        else:
            exits = self.cfg.exit_blocks()
        if not exits:
            raise ValueError("CFG has no exit blocks")

        self._ensure_index()
        paths: List[RecoveredPath] = []
        self.explored = 0
        self.pruned = 0
        entry = self.cfg.entry
        #: Per-search transposition table of dead residual states.
        dead = set() if self.memoize else None
        #: Once a limit trips, frames unwind without dead-marking: a
        #: partially explored subtree may still hide a verified path, so
        #: memoizing it as dead would be unsound on a rerun... and within
        #: this run nothing further is explored anyway.
        truncated = False
        #: DFS frames: [state, memo key, successor iterator, found flag].
        frames: List[list] = []

        def enter(state: _State) -> Optional[bool]:
            """Visit ``state``; True = verified leaf, False = barren,
            None = frame pushed (successors pending)."""
            nonlocal truncated
            self.explored += 1
            if self.explored > self.max_states:
                truncated = True
                return False
            if self._accepts(state, entry, width):
                candidate = self._materialize(state)
                if self._verify(candidate, observed.value, width):
                    paths.append(candidate)
                    return True
                # Accepted states have no useful predecessors (window
                # mode: matched == width; exact mode: at the entry).
                return False
            key = (state.point, state.value, state.matched, state.call_stack)
            if dead is not None and key in dead:
                self.pruned += 1
                return False
            # Reversed, so iteration order matches the old LIFO pop order.
            successors = list(self._predecessors(state, value_mask, width))
            frames.append([state, key, iter(reversed(successors)), False])
            return None

        # Old stack order: exits pushed in address order, popped last-first.
        for root in reversed([
            _State(point=block.start, value=observed.value, matched=0,
                   call_stack=())
            for block in exits
        ]):
            if truncated or len(paths) >= self.max_paths:
                break
            enter(root)
            while frames:
                if len(paths) >= self.max_paths:
                    truncated = True
                frame = frames[-1]
                if truncated:
                    frames.pop()
                    continue
                try:
                    successor = next(frame[2])
                except StopIteration:
                    frames.pop()
                    if dead is not None and not frame[3]:
                        dead.add(frame[1])
                    if frames and frame[3]:
                        frames[-1][3] = True
                    continue
                if enter(successor):
                    frame[3] = True

        return paths

    # ------------------------------------------------------------------

    def _accepts(self, state: _State, entry: int, width: int) -> bool:
        if self.mode == "window":
            return state.matched == width and not state.call_stack
        # Exact mode: the victim entered with a cleared PHR, so a path that
        # reaches the entry block may legitimately contain fewer taken
        # branches than the history width (the remaining doublets are the
        # zeros the clear left behind); forward verification settles it.
        return state.point == entry and not state.call_stack

    def _verify(self, path: RecoveredPath, observed_value: int,
                width: int) -> bool:
        """Forward-replay the candidate and compare histories.

        Backward reversal is slightly lossy (the register's top doublet is
        lost per forward update, exactly as in hardware), so the per-step
        doublet-0 pruning is necessary but not sufficient; replaying the
        candidate forward over a ``width``-doublet register and comparing
        against the observed value gives an exact check.  The physical PHR
        is a function of only the last ``width`` taken branches, so the
        replay is well defined in both modes.
        """
        phr = PathHistoryRegister(width)
        for pc, target in path.taken_branches:
            phr.update(pc, target)
        return phr.value == observed_value

    def _predecessors(self, state: _State, value_mask: int, width: int):
        # PHR-updating static edges: only those whose lowest footprint
        # doublet equals the state's doublet 0 can step, and only while
        # the window still has unmatched doublets -- the index hands us
        # exactly that bucket.  Bucket order preserves edges_in order, so
        # the yielded sequence matches the pre-index walk.
        if state.matched < width:
            updating = self._in_index.get(state.point)
            if updating is not None:
                for edge in updating.get(state.value & 0b11, ()):
                    successor = self._step(state, edge, value_mask, width)
                    if successor is not None:
                        yield successor
        # Non-updating edges (not-taken, fallthrough) always qualify.
        for edge in self._passthrough.get(state.point, ()):
            successor = self._step(state, edge, value_mask, width)
            if successor is not None:
                yield successor
        # Dynamic return edges: if this point is a call continuation, the
        # predecessor may be any ret block of the recorded callee.
        if state.matched < width:
            low = state.value & 0b11
            for callee_entry, edge in self._ret_index.get(state.point, ()):
                if (edge.footprint & 0b11) != low:
                    continue
                successor = self._step(state, edge, value_mask, width,
                                       push=(callee_entry, state.point))
                if successor is not None:
                    yield successor

    def _ret_edge(self, ret_block, continuation: int) -> Edge:
        from repro.cpu.footprint import branch_footprint

        ret_pc = ret_block.instruction_addresses[-1]
        return Edge(EdgeKind.RET, ret_block.start, continuation,
                    branch_pc=ret_pc,
                    footprint=branch_footprint(ret_pc, continuation))

    def _step(self, state: _State, edge: Edge, value_mask: int, width: int,
              push: Optional[Tuple[int, int]] = None) -> Optional[_State]:
        call_stack = state.call_stack
        if push is not None:
            call_stack = call_stack + (push,)

        if edge.kind is EdgeKind.CALL:
            # Backward through a call edge: we are at the callee entry and
            # must match the pending (callee, continuation) pair.
            if not call_stack:
                return None
            callee_entry, continuation = call_stack[-1]
            if edge.destination != callee_entry:
                return None
            if edge.branch_pc + 4 != continuation:
                return None
            call_stack = call_stack[:-1]

        if edge.kind.updates_phr:
            if state.matched >= width:
                return None
            assert edge.footprint is not None
            if (edge.footprint & 0b11) != (state.value & 0b11):
                return None
            value = ((state.value ^ edge.footprint) >> 2) & value_mask
            matched = state.matched + 1
        else:
            value = state.value
            matched = state.matched

        return _State(point=edge.source, value=value, matched=matched,
                      call_stack=call_stack, parent=state, via=edge)

    def _materialize(self, state: _State) -> RecoveredPath:
        edges: List[Edge] = []
        cursor: Optional[_State] = state
        while cursor is not None and cursor.via is not None:
            edges.append(cursor.via)
            cursor = cursor.parent
        # The chain was built backward-from-exit, so it is already in
        # forward execution order.
        blocks = [edges[0].source] if edges else [state.point]
        for edge in edges:
            blocks.append(edge.destination)
        reaches_entry = blocks[0] == self.cfg.entry
        return RecoveredPath(edges=edges, blocks=blocks,
                             reaches_entry=reaches_entry)


def cached_path_search(
    cfg: ControlFlowGraph,
    mode: str = "exact",
    max_states: int = 2_000_000,
    max_paths: int = 16,
) -> PathSearch:
    """The memoized :class:`PathSearch` for ``cfg`` and the given knobs.

    Pair with :func:`repro.pathfinder.cfg.cached_cfg` so repeated trials
    against one victim reuse both the graph and the search object.  A
    search object is stateless across runs apart from the ``explored``
    diagnostic, so drivers can share one per configuration.  The memo
    lives on the graph (``cfg.search_memo``) and dies with it.
    """
    key = (mode, max_states, max_paths)
    search = cfg.search_memo.get(key)
    if search is None:
        search = cfg.search_memo[key] = PathSearch(
            cfg, mode=mode, max_states=max_states, max_paths=max_paths)
    return search
