"""Fiduccia-Mattheyses bipartitioning for die assignment.

Block folding partitions one block's instances across the two tiers.  The
paper uses either *natural* partitions (PCX/CPX in the CCX, sub-banks in
the L2 data bank, FUB groups in the SPC) or min-cut partitions balancing
die area; this module provides the min-cut engine plus helpers to seed it
from region metadata, with per-instance locking for pre-assigned objects
(e.g. macros pinned to a tier).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..netlist.core import Netlist
from ..obs import trace
from ..obs.metrics import metrics


@dataclass
class PartitionResult:
    """Outcome of bipartitioning: instance id -> die (0/1)."""

    assignment: Dict[int, int]
    cut_nets: int
    area: Dict[int, float]

    @property
    def balance(self) -> float:
        """Larger-side area fraction (0.5 = perfect balance)."""
        total = self.area[0] + self.area[1]
        if total == 0:
            return 0.5
        return max(self.area[0], self.area[1]) / total


def count_cut(netlist: Netlist, assignment: Dict[int, int]) -> int:
    """Number of non-clock nets with instances on both dies."""
    cut = 0
    for net in netlist.nets.values():
        if net.is_clock:
            continue
        sides = {assignment[r.inst] for r in net.endpoints()
                 if not r.is_port and r.inst in assignment}
        if len(sides) > 1:
            cut += 1
    return cut


def _areas(netlist: Netlist, assignment: Dict[int, int]) -> Dict[int, float]:
    area = {0: 0.0, 1: 0.0}
    for iid, side in assignment.items():
        area[side] += netlist.instances[iid].area_um2
    return area


def fm_bipartition(netlist: Netlist,
                   initial: Optional[Dict[int, int]] = None,
                   locked: Optional[Set[int]] = None,
                   balance_tol: float = 0.10,
                   max_passes: int = 6,
                   seed: int = 0) -> PartitionResult:
    """Min-cut bipartition with area balance.

    Each step moves the unmoved cell of highest ``(gain, jitter)`` whose
    move keeps both sides within the balance window (ties go to the cell
    earliest in instance order).  The candidates live in one lazy max-heap
    per side, so a step costs a few heap operations instead of a scan
    over every cell; the move sequence is exactly the scan's (see
    docs/placement.md).

    Args:
        netlist: the block netlist (ports are ignored for cut counting).
        initial: optional starting assignment; unlisted instances are
            assigned round-robin by locality cluster, which is already a
            decent split for hierarchically local netlists.
        locked: instance ids that must keep their initial side.
        balance_tol: each side must hold within ``0.5 +/- tol`` of area.
        max_passes: FM pass limit.
        seed: tie-break randomness.

    Returns:
        The refined partition.
    """
    rng = np.random.default_rng(seed)
    insts = list(netlist.instances.values())
    assignment: Dict[int, int] = {}
    if initial:
        assignment.update(initial)
    # default: split the cluster space in half (locality-preserving)
    clusters = sorted({i.cluster for i in insts})
    half = set(clusters[: len(clusters) // 2])
    for inst in insts:
        if inst.id not in assignment:
            assignment[inst.id] = 0 if inst.cluster in half else 1
    locked = set(locked or ())

    total_area = sum(i.area_um2 for i in insts)
    lo = total_area * (0.5 - balance_tol)
    hi = total_area * (0.5 + balance_tol)

    n = len(insts)
    with trace.span("place.partition", cells=n) as sp:
        # flat per-call structures, cells indexed by position in ``insts``
        pos = {inst.id: k for k, inst in enumerate(insts)}
        cell_area = [inst.area_um2 for inst in insts]
        side = [assignment[inst.id] for inst in insts]
        movable = [inst.id not in locked for inst in insts]
        movers = [k for k in range(n) if movable[k]]
        # net -> member cells (dedup, ascending id); cell -> net indices
        net_members: List[List[int]] = []
        inst_nets: List[List[int]] = [[] for _ in range(n)]
        for net in netlist.nets.values():
            if net.is_clock:
                continue
            members = sorted({r.inst for r in net.endpoints()
                              if not r.is_port})
            if len(members) < 2:
                continue
            idx = [pos[m] for m in members]
            for k in idx:
                inst_nets[k].append(len(net_members))
            net_members.append(idx)

        start = _areas(netlist, assignment)
        area = [start[0], start[1]]
        # feasibility falls monotonically with cell area (float rounding is
        # monotone), so a side whose smallest mover cannot leave is stuck
        min_area = min((cell_area[k] for k in movers), default=0.0)
        passes = moves = gain_updates = 0
        sp.set(nets=len(net_members))

        for _ in range(max_passes):
            passes += 1
            counts = [[0, 0] for _ in net_members]
            for c, members in zip(counts, net_members):
                for m in members:
                    c[side[m]] += 1
            gain = [0] * n
            for k in movers:
                gain[k] = _gain(inst_nets[k], counts, side[k])
            jitter = [0.0] * n
            for k, j in zip(movers, rng.random(len(movers)).tolist()):
                jitter[k] = j
            # one max-heap per side of (gain, jitter, -position); entries
            # go stale when their cell moves or its gain changes
            heaps: List[List[Tuple[int, float, int]]] = [[], []]
            for k in movers:
                heaps[side[k]].append((-gain[k], -jitter[k], k))
            heapq.heapify(heaps[0])
            heapq.heapify(heaps[1])
            done = [False] * n
            moved: List[int] = []
            gain_trace: List[int] = []
            cum = 0

            for _step in range(len(movers)):
                best: Optional[Tuple[int, float, int]] = None
                aside: List[Tuple[int, Tuple[int, float, int]]] = []
                for s in (0, 1):
                    from_s, to_s = area[s], area[1 - s]
                    if not (lo <= from_s - min_area
                            and to_s + min_area <= hi):
                        continue
                    heap = heaps[s]
                    while heap:
                        top = heap[0]
                        k = top[2]
                        if done[k] or -top[0] != gain[k]:
                            heapq.heappop(heap)
                            continue
                        a = cell_area[k]
                        if lo <= from_s - a and to_s + a <= hi:
                            if best is None or top < best:
                                best = top
                            break
                        aside.append((s, heapq.heappop(heap)))
                if best is not None:
                    # the chosen entry is still its heap's top: the
                    # infeasible entries set aside above it go back after
                    heapq.heappop(heaps[side[best[2]]])
                for s, entry in aside:
                    heapq.heappush(heaps[s], entry)
                if best is None:
                    break
                k = best[2]
                s = side[k]
                a = cell_area[k]
                side[k] = 1 - s
                area[s] -= a
                area[1 - s] += a
                done[k] = True
                cum += gain[k]
                moved.append(k)
                gain_trace.append(cum)
                # update gains of neighbors
                touched = set()
                for nid in inst_nets[k]:
                    c = counts[nid]
                    c[s] -= 1
                    c[1 - s] += 1
                    touched.update(net_members[nid])
                for t in touched:
                    if done[t] or not movable[t]:
                        continue
                    gain_updates += 1
                    g = _gain(inst_nets[t], counts, side[t])
                    if g != gain[t]:
                        gain[t] = g
                        heapq.heappush(heaps[side[t]], (-g, -jitter[t], t))
            moves += len(moved)

            if not gain_trace or max(gain_trace) <= 0:
                # revert the whole pass
                _undo(moved, side, area, cell_area)
                break
            # keep the best prefix
            best_k = gain_trace.index(max(gain_trace)) + 1
            _undo(moved[best_k:], side, area, cell_area)
        sp.set(passes=passes)

        for inst, s in zip(insts, side):
            assignment[inst.id] = s
        m = metrics()
        m.counter("place.fm_passes").inc(passes)
        m.counter("place.fm_moves").inc(moves)
        m.counter("place.fm_gain_updates").inc(gain_updates)
        return PartitionResult(assignment=assignment,
                               cut_nets=count_cut(netlist, assignment),
                               area=_areas(netlist, assignment))


def _gain(nets: List[int], counts: List[List[int]], s: int) -> int:
    """Cut-count change of moving a cell off side ``s`` (positive = fewer
    cut nets)."""
    g = 0
    for nid in nets:
        c = counts[nid]
        if c[s] == 1 and c[1 - s] > 0:
            g += 1  # moving uncuts the net
        elif c[1 - s] == 0:
            g -= 1  # moving cuts the net
    return g


def _undo(cells: List[int], side: List[int], area: List[float],
          cell_area: List[float]) -> None:
    """Move ``cells`` back, in order, updating the side areas."""
    for k in cells:
        s = side[k]
        a = cell_area[k]
        side[k] = 1 - s
        area[s] -= a
        area[1 - s] += a


def balanced_split(scores: np.ndarray, areas: np.ndarray,
                   pre_area: tuple = (0.0, 0.0)) -> np.ndarray:
    """Threshold continuous scores into two area-balanced sides.

    The analytical (bistratal) die assignment solves a continuous
    z in [0, 1] per movable cell and needs the discretization step: sort
    by score (stable, so equal scores keep input order), then cut the
    prefix whose side-0 area lands closest to half the total --
    including ``pre_area``, the area already pinned to each side (macros
    and other fixed objects).  Ties pick the smallest prefix.

    Args:
        scores: per-cell continuous side score (low -> side 0).
        areas: per-cell areas.
        pre_area: (side0, side1) area already committed.

    Returns:
        int array of 0/1 side assignments aligned with ``scores``.
    """
    n = len(scores)
    side = np.ones(n, dtype=np.int64)
    if n == 0:
        return side
    order = np.argsort(scores, kind="stable")
    cum = np.cumsum(areas[order])
    total = float(cum[-1]) + pre_area[0] + pre_area[1]
    # area0[k] = side-0 area when the k lowest-score cells go to side 0
    area0 = pre_area[0] + np.concatenate([[0.0], cum])
    k = int(np.argmin(np.abs(area0 - total / 2)))
    side[order[:k]] = 0
    return side


def partition_by_clusters(netlist: Netlist, die1_clusters: Iterable[int]
                          ) -> Dict[int, int]:
    """Assignment placing instances of the given clusters on die 1."""
    die1 = set(die1_clusters)
    return {i.id: (1 if i.cluster in die1 else 0)
            for i in netlist.instances.values()}
