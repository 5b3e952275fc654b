"""Incremental static timing analysis.

Engineering-change-order edits -- resizing a master, swapping its Vth --
perturb timing only in the touched cells' fan-in/fan-out cones, yet
:func:`repro.timing.sta.run_sta` reprocesses the whole block.  This
module keeps the timing graph alive between edits:

* :meth:`IncrementalSTA.swap_masters` applies a whole batch of master
  changes (one optimizer chunk), refreshes the routing view's pin caps
  through :meth:`repro.route.estimate.RoutingResult.update_instances`,
  and re-propagates arrivals forward / requireds backward with a single
  frontier walk for the batch;
* :meth:`IncrementalSTA.apply_routing_update` absorbs an external
  incremental re-extraction (changed net ids) into the live graph;
* :meth:`IncrementalSTA.to_result` snapshots the live graph as an
  :class:`STAResult` equal to a from-scratch :func:`run_sta` -- not
  approximately: the propagation uses exact comparisons and the same
  arithmetic expressions and accumulation orders as ``run_sta``, so
  every arrival, required, slack, WNS and TNS value matches
  bit-for-bit (asserted exactly by the test suite).

Placement and routing geometry are assumed frozen (master swaps do not
move cells); for netlist surgery (buffer insertion), rebuild.
"""

from __future__ import annotations

from collections import defaultdict, deque
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..netlist.core import Netlist
from ..obs.metrics import metrics
from ..route.estimate import RoutingResult
from ..tech.cells import CellMaster
from ..tech.process import ProcessNode
from .load import driven_load, net_loads_driver
from .sta import (MACRO_SETUP_PS, SETUP_PS, STAResult, TimingConfig,
                  run_sta)

INF = float("inf")


class IncrementalSTA:
    """A persistent timing view supporting batched master-swap ECOs."""

    def __init__(self, netlist: Netlist, routing: RoutingResult,
                 process: ProcessNode, config: TimingConfig) -> None:
        self.netlist = netlist
        self.routing = routing
        self.process = process
        self.config = config
        self._build()

    # -- construction -----------------------------------------------------

    def _build(self) -> None:
        base = run_sta(self.netlist, self.routing, self.process,
                       self.config)
        metrics().counter("sta.full_rebuilds").inc()
        self.period = base.period_ps
        self.arrival: Dict[int, float] = dict(base.arrival)
        self.required: Dict[int, float] = dict(base.required)
        self._index_graph()

    @classmethod
    def from_snapshot(cls, netlist: Netlist, routing: RoutingResult,
                      process: ProcessNode, config: TimingConfig,
                      snapshot: STAResult) -> "IncrementalSTA":
        """Adopt a finished design's STA instead of re-running it.

        ``snapshot`` must be the exact :func:`run_sta` result for
        ``(netlist, routing, config)`` -- e.g. ``BlockDesign.sta``
        straight out of the flow.  Only the (float-free) graph index is
        rebuilt; ``sta.full_rebuilds`` stays untouched, which is what
        lets a derived ECO scenario reuse the base design's timing work
        wholesale.
        """
        view = cls.__new__(cls)
        view.netlist = netlist
        view.routing = routing
        view.process = process
        view.config = config
        view.period = snapshot.period_ps
        view.arrival = dict(snapshot.arrival)
        view.required = dict(snapshot.required)
        view._index_graph()
        return view

    def _index_graph(self) -> None:
        """(Re)build the structural index: edges, loads, topo order.

        Pure graph bookkeeping -- no timing values are touched, so this
        is safe to re-run after netlist surgery to absorb new/removed
        nets and instances.  Loads are re-accumulated from scratch in
        ``run_sta``'s net order, keeping them bit-identical with a full
        run.
        """
        insts = self.netlist.instances
        # edges keep live references to the routed SinkPath objects, so
        # wire delays always reflect the *current* pin caps
        self.succ: Dict[int, List[Tuple[int, object, object]]] = \
            defaultdict(list)
        self.pred: Dict[int, List[Tuple[int, object, object]]] = \
            defaultdict(list)
        self.term_req: Dict[int, List[Tuple[float, object, object]]] = \
            defaultdict(list)
        self.port_in: Dict[int, List[Tuple[float, object, object]]] = \
            defaultdict(list)
        self.loads: Dict[int, float] = defaultdict(float)
        for net in self.netlist.nets.values():
            if net.is_clock:
                continue
            routed = self.routing.nets.get(net.id)
            if routed is None:
                continue
            drv = net.driver
            if net_loads_driver(self.netlist, net):
                self.loads[drv.inst] += routed.total_cap_ff
            for s in routed.sinks:
                ref = s.ref
                if ref.is_port:
                    if not drv.is_port and \
                            not self.netlist.ports[ref.port].false_path:
                        req = self.period - \
                            self.config.io_delay(ref.port)
                        self.term_req[drv.inst].append((req, routed, s))
                    continue
                sink = insts[ref.inst]
                if sink.is_macro or sink.is_sequential:
                    if not drv.is_port:
                        setup = MACRO_SETUP_PS if sink.is_macro \
                            else SETUP_PS
                        self.term_req[drv.inst].append(
                            (self.period - setup, routed, s))
                    continue
                if drv.is_port:
                    a0 = self.config.io_delay(drv.port)
                    self.port_in[ref.inst].append((a0, routed, s))
                else:
                    self.succ[drv.inst].append((ref.inst, routed, s))
                    self.pred[ref.inst].append((drv.inst, routed, s))

        # topological index over the combinational edges: dirty cones
        # re-propagate in this order, so each affected node is
        # re-evaluated once per batch instead of once per worklist hit
        indeg = {iid: 0 for iid in insts}
        for edges in self.succ.values():
            for sink, _routed, _sp in edges:
                indeg[sink] += 1
        order = deque(iid for iid, d in indeg.items() if d == 0)
        self.topo: Dict[int, int] = {}
        idx = 0
        while order:
            iid = order.popleft()
            self.topo[iid] = idx
            idx += 1
            for sink, _routed, _sp in self.succ.get(iid, ()):
                indeg[sink] -= 1
                if indeg[sink] == 0:
                    order.append(sink)

    # -- delay model --------------------------------------------------------

    def _own_delay(self, iid: int) -> float:
        inst = self.netlist.instances[iid]
        if inst.is_macro:
            return inst.master.intrinsic_delay_ps
        return inst.master.delay_ps(self.loads[iid])

    def _recompute_arrival(self, iid: int) -> float:
        inst = self.netlist.instances[iid]
        if inst.is_macro or inst.is_sequential:
            return self._own_delay(iid)
        best = float("-inf")
        for a0, routed, sp in self.port_in.get(iid, ()):
            best = max(best, a0 + routed.sink_wire_delay_ps(sp))
        for drv, routed, sp in self.pred[iid]:
            best = max(best, self.arrival.get(drv, 0.0) +
                       routed.sink_wire_delay_ps(sp))
        if best == float("-inf"):
            best = 0.0
        return best + self._own_delay(iid)

    def _recompute_required(self, iid: int) -> float:
        r = INF
        for req, routed, sp in self.term_req.get(iid, ()):
            r = min(r, req - routed.sink_wire_delay_ps(sp))
        for sink, routed, sp in self.succ[iid]:
            r_sink = self.required.get(sink, INF)
            if r_sink < INF:
                r = min(r, r_sink - self._own_delay(sink) -
                        routed.sink_wire_delay_ps(sp))
        return r

    # -- ECO edits -----------------------------------------------------------

    def swap_master(self, inst_id: int, master: CellMaster) -> None:
        """Apply one master change and re-time the affected cones."""
        self.swap_masters([(inst_id, master)])

    def swap_masters(self,
                     moves: Sequence[Tuple[int, CellMaster]]) -> int:
        """Apply a batch of master changes with one frontier walk.

        Pin capacitances in the routing view are refreshed in place
        (:meth:`RoutingResult.update_instances`), affected drivers'
        loads are recomputed from scratch in ``run_sta``'s accumulation
        order, and the whole batch's fan-in/fan-out cones are re-timed
        with a single forward and a single backward propagation --
        instead of one full re-route and one full STA per chunk.

        Returns the number of moves actually applied (no-ops skipped).
        """
        applied: List[int] = []
        for iid, master in moves:
            if self.netlist.instances[iid].master is master:
                continue
            self.netlist.replace_master(iid, master)
            applied.append(iid)
        if not applied:
            return 0
        changed_nets = self.routing.update_instances(self.netlist,
                                                     applied)
        self._retime(applied, changed_nets)
        return len(applied)

    def apply_routing_update(self, net_ids: Iterable[int]) -> None:
        """Absorb externally re-extracted nets into the live graph.

        Call after mutating the routing view directly (for example a
        caller-driven :meth:`RoutingResult.update_instances` or
        :meth:`RoutingResult.refresh_nets`): affected drivers' loads
        and both cones are re-timed incrementally.  The edge index is
        rebuilt first -- a re-route replaces the ``RoutedNet`` (and
        ``SinkPath``) objects the edges hold live references to, and
        retiming over the stale geometry would quietly freeze wire
        delays at their pre-update values.
        """
        self._index_graph()
        self._retime((), list(net_ids))

    def patch_topology(self, changed_insts: Iterable[int],
                       changed_nets: Iterable[int],
                       removed_insts: Iterable[int] = ()) -> None:
        """Absorb netlist surgery into the live graph.

        Called after instances/nets were added, removed or rewired
        (buffer insertion/removal, ECO displacement) *and* the routing
        view was brought current for every affected net.  The edge
        index is rebuilt structurally, new instances get provisional
        timing values, the touched cones are re-propagated, and finally
        the arrival dict is rebuilt in ``run_sta``'s canonical
        insertion order so :meth:`to_result` stays bit-identical to a
        from-scratch run -- including the order-sensitive TNS
        accumulation.

        Args:
            changed_insts: live instances whose timing context changed
                (e.g. a rewired driver).
            changed_nets: net ids re-routed/re-extracted, including ids
                of nets that were *removed* (skipped harmlessly).
            removed_insts: ids of instances deleted by the surgery.
        """
        metrics().counter("sta.topology_patches").inc()
        for iid in removed_insts:
            self.arrival.pop(iid, None)
            self.required.pop(iid, None)
        self._index_graph()
        insts = self.netlist.instances
        new_ids = [iid for iid in insts if iid not in self.arrival]
        # provisional values for the new nodes, in topo order so chains
        # (buffer trees) see their in-batch predecessors
        for iid in sorted(new_ids,
                          key=lambda i: self.topo.get(i, len(insts))):
            self.arrival[iid] = self._recompute_arrival(iid)
            self.required.setdefault(iid, INF)
        seeds = (set(changed_insts) | set(new_ids)) & set(insts)
        self._retime(seeds, changed_nets)
        order = self._canonical_arrival_order()
        self.arrival = {iid: self.arrival[iid] for iid in order}
        self.required = {iid: self.required.get(iid, INF)
                         for iid in order}

    def retarget(self, config: TimingConfig) -> None:
        """Swap the I/O timing context (neighboring-scenario ECO).

        Port budgets enter timing in exactly two places: launch
        arrivals of port-driven sinks (``port_in``) and capture
        requirements at port-capturing drivers (``term_req``).
        Re-indexing under the new config refreshes both edge sets;
        re-timing then seeds from every port-coupled instance, leaving
        the interior of the block untouched unless a cone actually
        moved.
        """
        self.config = config
        self.period = self.process.clock_period_ps(config.clock_domain)
        self._index_graph()
        seeds = set(self.port_in) | set(self.term_req)
        self._retime(seeds, ())

    def _canonical_arrival_order(self) -> List[int]:
        """``run_sta``'s arrival-dict insertion order, structurally.

        Replays the full run's ordering without touching any floats:
        launches and zero-pred combinational nodes in instance order,
        then Kahn completion order over the combinational edges, then
        the cycle-safety leftovers in instance order.  Rebuilding the
        arrival dict in this order after surgery keeps the (float-
        order-sensitive) TNS sum in :meth:`to_result` bit-identical to
        a from-scratch run.
        """
        insts = self.netlist.instances
        pred_count = {iid: 0 for iid in insts}
        for edges in self.succ.values():
            for sink, _routed, _sp in edges:
                if sink in pred_count:
                    pred_count[sink] += 1
        order: List[int] = []
        ready: deque = deque()
        for inst in insts.values():
            if inst.is_macro or inst.is_sequential:
                order.append(inst.id)
                ready.append(inst.id)
            elif pred_count[inst.id] == 0:
                order.append(inst.id)
                ready.append(inst.id)
        remaining = dict(pred_count)
        processed: Set[int] = set()
        while ready:
            iid = ready.popleft()
            if iid in processed:
                continue
            processed.add(iid)
            for sink, _routed, _sp in self.succ.get(iid, ()):
                remaining[sink] -= 1
                if remaining[sink] == 0:
                    order.append(sink)
                    ready.append(sink)
        seen = set(order)
        for inst in insts.values():
            if inst.id not in seen:
                order.append(inst.id)
        return order

    def try_swap(self, inst_id: int, master: CellMaster,
                 min_slack_ps: float) -> bool:
        """Apply one swap; keep it only if true post-move slack holds.

        Every node whose arrival or required time actually moved (plus
        the swapped cell itself) must keep at least ``min_slack_ps`` of
        slack, or the move is reverted -- re-propagation is purely
        functional, so the revert restores the prior state exactly.
        """
        old = self.netlist.instances[inst_id].master
        if old is master:
            return False
        changed: Set[int] = {inst_id}
        self.netlist.replace_master(inst_id, master)
        nets = self.routing.update_instances(self.netlist, [inst_id])
        self._retime([inst_id], nets, changed)
        worst = INF
        for iid in changed:
            r = self.required.get(iid, INF)
            if r < INF:
                worst = min(worst, r - self.arrival.get(iid, 0.0))
        if worst < min_slack_ps:
            self.netlist.replace_master(inst_id, old)
            nets = self.routing.update_instances(self.netlist, [inst_id])
            self._retime([inst_id], nets)
            return False
        return True

    def _retime(self, changed_insts: Iterable[int],
                changed_nets: Iterable[int],
                changed_out: Optional[Set[int]] = None) -> None:
        dirty: Set[int] = set(changed_insts)
        reload_ids: Set[int] = set(changed_insts)
        for nid in changed_nets:
            net = self.netlist.nets.get(nid)
            if net is None:
                continue
            drv = net.driver
            if not drv.is_port:
                dirty.add(drv.inst)
                reload_ids.add(drv.inst)
            for s in net.sinks:
                if not s.is_port:
                    dirty.add(s.inst)
        for iid in reload_ids:
            self.loads[iid] = driven_load(self.netlist, self.routing,
                                          iid)
        forward = self._propagate_forward(dirty, changed_out)
        backward = None if forward is None else \
            self._propagate_backward(dirty, changed_out)
        if forward is None or backward is None:  # pragma: no cover
            # cyclic-netlist safety valve
            self._build()
            if changed_out is not None:
                changed_out.update(self.arrival)
            return
        metrics().counter("sta.nodes_retimed").inc(forward + backward)

    def _propagate_forward(self, seeds: Iterable[int],
                           changed_out: Optional[Set[int]] = None
                           ) -> Optional[int]:
        """Re-propagate arrivals from ``seeds`` in topological order.

        Returns how many arrivals changed, or ``None`` when the walk
        needs a full rebuild (cyclic netlist).
        """
        topo = self.topo
        heap: List[Tuple[int, int]] = []
        queued: Set[int] = set()
        for iid in seeds:
            idx = topo.get(iid)
            if idx is None:  # cyclic netlist: fall back to full rebuild
                return None
            if iid not in queued:
                heappush(heap, (idx, iid))
                queued.add(iid)
        guard = changed = 0
        limit = 500 * (len(self.netlist.instances) + 4)
        while heap:
            if guard >= limit:
                return None
            guard += 1
            _, iid = heappop(heap)
            queued.discard(iid)
            new = self._recompute_arrival(iid)
            if new == self.arrival.get(iid, 0.0):
                continue
            self.arrival[iid] = new
            changed += 1
            if changed_out is not None:
                changed_out.add(iid)
            for sink, _routed, _sp in self.succ[iid]:
                if sink not in queued:
                    idx = topo.get(sink)
                    if idx is None:
                        return None
                    heappush(heap, (idx, sink))
                    queued.add(sink)
        metrics().counter("sta.incremental_nodes").inc(guard)
        return changed

    def _propagate_backward(self, seeds: Iterable[int],
                            changed_out: Optional[Set[int]] = None
                            ) -> Optional[int]:
        """Re-propagate required times from ``seeds`` in reverse
        topological order; returns how many changed, or ``None`` when
        the walk needs a full rebuild."""
        topo = self.topo
        heap: List[Tuple[int, int]] = []
        queued: Set[int] = set()

        def push(iid: int) -> bool:
            idx = topo.get(iid)
            if idx is None:
                return False
            if iid not in queued:
                # reverse topological order: sinks before their drivers
                heappush(heap, (-idx, iid))
                queued.add(iid)
            return True

        for iid in seeds:
            if not push(iid):
                return None
            # a changed cell's delay also shifts its predecessors'
            # required times, even when its own required is untouched
            for drv, _routed, _sp in self.pred[iid]:
                if not push(drv):
                    return None
        guard = changed = 0
        limit = 500 * (len(self.netlist.instances) + 4)
        while heap:
            if guard >= limit:
                return None
            guard += 1
            _, iid = heappop(heap)
            queued.discard(iid)
            new = self._recompute_required(iid)
            if new == self.required.get(iid, INF):
                continue
            self.required[iid] = new
            changed += 1
            if changed_out is not None:
                changed_out.add(iid)
            for drv, _routed, _sp in self.pred[iid]:
                if not push(drv):
                    return None
        metrics().counter("sta.incremental_nodes").inc(guard)
        return changed

    # -- results ---------------------------------------------------------------

    def to_result(self) -> STAResult:
        """Snapshot the live graph as an :class:`STAResult`.

        Equal to a from-scratch :func:`run_sta` over the same netlist
        and routing -- bit-for-bit, including the TNS accumulation
        order (``run_sta``'s arrival-dict order is a function of graph
        structure only, which master swaps never change).
        """
        slack: Dict[int, float] = {}
        wns = INF
        tns = 0.0
        for iid, a in self.arrival.items():
            r = self.required.get(iid, INF)
            if r >= INF:
                continue
            s = r - a
            slack[iid] = s
            if s < wns:
                wns = s
            if s < 0:
                tns += s
        if wns == INF:
            wns = 0.0
        # copies: a snapshot must stay frozen while further ECOs land
        return STAResult(period_ps=self.period,
                         arrival=dict(self.arrival),
                         required=dict(self.required), slack=slack,
                         wns_ps=wns, tns_ps=tns)

    #: back-compat alias (pre-batch API)
    def result(self) -> STAResult:
        return self.to_result()
