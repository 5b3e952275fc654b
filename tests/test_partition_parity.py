"""Parity harness: the gain-heap FM partitioner vs the linear-scan oracle.

``fm_bipartition`` picks each move from one lazy max-heap per side (see
docs/placement.md).  The selection loop it replaced -- a scan over every
cell for the best feasible ``(gain, jitter)`` -- lives on below, verbatim,
as :func:`reference_fm`; it exists only here, never in ``src/``.  Every
case runs both on the same netlist and demands identical assignments
(dict order included), cut counts and bit-identical side areas.
"""

from collections import defaultdict
from typing import Dict, List, Optional, Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import folding
from repro.core.secondlevel import second_level_spec
from repro.designgen.t2 import t2_block_types
from repro.netlist.core import Netlist
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer
from repro.place.partition import (PartitionResult, _areas, count_cut,
                                   fm_bipartition)
from tests.conftest import fresh_block


def reference_fm(netlist: Netlist,
                 initial: Optional[Dict[int, int]] = None,
                 locked: Optional[Set[int]] = None,
                 balance_tol: float = 0.10,
                 max_passes: int = 6,
                 seed: int = 0) -> PartitionResult:
    """The O(n^2) linear-scan FM the heap version must reproduce."""
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

    # net -> movable instance ids (dedup); instance -> net ids
    net_members: Dict[int, List[int]] = {}
    inst_nets: Dict[int, List[int]] = defaultdict(list)
    for net in netlist.nets.values():
        if net.is_clock:
            continue
        members = sorted({r.inst for r in net.endpoints() if not r.is_port})
        if len(members) < 2:
            continue
        net_members[net.id] = members
        for m in members:
            inst_nets[m].append(net.id)

    def side_counts(net_id: int) -> List[int]:
        counts = [0, 0]
        for m in net_members[net_id]:
            counts[assignment[m]] += 1
        return counts

    area = _areas(netlist, assignment)

    for _ in range(max_passes):
        counts = {nid: side_counts(nid) for nid in net_members}
        gains: Dict[int, int] = {}
        for inst in insts:
            if inst.id in locked:
                continue
            g = 0
            s = assignment[inst.id]
            for nid in inst_nets[inst.id]:
                c = counts[nid]
                if c[s] == 1 and c[1 - s] > 0:
                    g += 1  # moving uncuts the net
                elif c[1 - s] == 0:
                    g -= 1  # moving cuts the net
            gains[inst.id] = g

        moved: List[int] = []
        gain_trace: List[int] = []
        locked_pass: Set[int] = set(locked)
        cum = 0
        order_jitter = {iid: rng.random() for iid in gains}

        for _step in range(len(gains)):
            best_id, best_gain = None, None
            for iid, g in gains.items():
                if iid in locked_pass:
                    continue
                s = assignment[iid]
                a = netlist.instances[iid].area_um2
                if not (lo <= area[s] - a and area[1 - s] + a <= hi):
                    continue
                key = (g, order_jitter[iid])
                if best_gain is None or key > best_gain:
                    best_gain, best_id = key, iid
            if best_id is None:
                break
            g = gains[best_id]
            s = assignment[best_id]
            a = netlist.instances[best_id].area_um2
            assignment[best_id] = 1 - s
            area[s] -= a
            area[1 - s] += a
            locked_pass.add(best_id)
            cum += g
            moved.append(best_id)
            gain_trace.append(cum)
            # update gains of neighbors
            touched = set()
            for nid in inst_nets[best_id]:
                c = counts[nid]
                c[s] -= 1
                c[1 - s] += 1
                touched.update(net_members[nid])
            for t in touched:
                if t in locked_pass or t in locked or t not in gains:
                    continue
                g2 = 0
                st = assignment[t]
                for nid in inst_nets[t]:
                    c = counts[nid]
                    if c[st] == 1 and c[1 - st] > 0:
                        g2 += 1
                    elif c[1 - st] == 0:
                        g2 -= 1
                gains[t] = g2
            if len(moved) > 2 * len(gains):  # pragma: no cover - safety
                break

        if not gain_trace or max(gain_trace) <= 0:
            # revert the whole pass
            for iid in moved:
                s = assignment[iid]
                a = netlist.instances[iid].area_um2
                assignment[iid] = 1 - s
                area[s] -= a
                area[1 - s] += a
            break
        # keep the best prefix
        best_k = int(np.argmax(gain_trace)) + 1
        for iid in moved[best_k:]:
            s = assignment[iid]
            a = netlist.instances[iid].area_um2
            assignment[iid] = 1 - s
            area[s] -= a
            area[1 - s] += a

    return PartitionResult(assignment=assignment,
                           cut_nets=count_cut(netlist, assignment),
                           area=_areas(netlist, assignment))


def assert_same(got: PartitionResult, want: PartitionResult) -> None:
    assert list(got.assignment.items()) == list(want.assignment.items())
    assert got.cut_nets == want.cut_nets
    # exact floats: the heap version replays the scan's area updates
    assert got.area[0] == want.area[0]
    assert got.area[1] == want.area[1]


def both(netlist: Netlist, **kw) -> None:
    assert_same(fm_bipartition(netlist, **kw), reference_fm(netlist, **kw))


@pytest.mark.parametrize("name", [bt.name for bt in t2_block_types()])
def test_mincut_every_block_type(library, name):
    gb = fresh_block(name, library, seed=1)
    both(gb.netlist, balance_tol=folding.FoldSpec().balance_tol)


@pytest.mark.parametrize("name,seed", [("l2t", 2), ("ccx", 3)])
def test_mincut_other_seeds(library, name, seed):
    gb = fresh_block(name, library, seed=seed)
    both(gb.netlist, seed=seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_spc_second_level_fub_fold(library, monkeypatch, seed):
    """The SPC fub_fold refinement: a given initial split plus locked
    whole-FUB cells."""
    calls = []

    def record(netlist, **kw):
        calls.append(kw)
        return fm_bipartition(netlist, **kw)

    monkeypatch.setattr(folding, "fm_bipartition", record)
    gb = fresh_block("spc", library, seed=seed)
    folding.make_partition(gb, second_level_spec())
    (kw,) = calls
    assert kw["initial"] and kw["locked"]
    both(gb.netlist, **kw)


def test_random_initial_assignment(library):
    gb = fresh_block("l2t", library, seed=6)
    rng = np.random.default_rng(0)
    initial = {i: int(rng.integers(0, 2)) for i in gb.netlist.instances}
    both(gb.netlist, initial=initial)


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(["ncu", "l2t"]),
       seed=st.integers(0, 2**16),
       balance_tol=st.floats(0.0, 0.3),
       max_passes=st.integers(1, 8))
def test_property_seed_tolerance_passes(library, name, seed, balance_tol,
                                        max_passes):
    gb = fresh_block(name, library, seed=1)
    both(gb.netlist, seed=seed, balance_tol=balance_tol,
         max_passes=max_passes)


def _fm_counters(library) -> Dict[str, float]:
    gb = fresh_block("l2t", library, seed=1)
    with use_registry(MetricsRegistry()) as reg:
        fm_bipartition(gb.netlist)
        return reg.snapshot()["counters"]


def test_work_counters_repeat_exactly(library):
    first = _fm_counters(library)
    assert first["place.fm_passes"] >= 1
    assert first["place.fm_moves"] > 0
    assert first["place.fm_gain_updates"] > 0
    assert _fm_counters(library) == first


def test_partition_span(library):
    gb = fresh_block("ncu", library, seed=1)
    tracer = Tracer()
    with trace.use_tracer(tracer):
        fm_bipartition(gb.netlist)
    (sp,) = [s for s in tracer.spans if s.name == "place.partition"]
    assert sp.attrs["cells"] == len(gb.netlist.instances)
    assert sp.attrs["nets"] > 0
    assert sp.attrs["passes"] >= 1
