"""The program's layers: which functions to wrap and the per-layer metrics.

Every layer is named after its module.  :data:`TARGETS` lists the
functions whose calls become spans; :func:`layer_metrics` turns the
spans of one traced iteration, plus the diff of the program's own
``repro.obs`` counters over it, into the named per-layer metrics.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, List, Sequence

from perfbench.spans import Span, Target, self_times

# -- hooks: small facts taken from a call after its span closed ----------


def _designgen(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    from repro.designgen.generate import generate_block

    bound = inspect.signature(generate_block).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    span.attrs = {"key": (a["block_type"].name, a["seed"], a["scale"]),
                  "cells": result.netlist.num_cells}


def _partition(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs = {"cells": len(result.assignment),
                  "cut_nets": result.cut_nets}


def _plan(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    # a buffer plan inserts several buffers; every other plan is a list
    # of single moves
    span.attrs = {"moves": sum(getattr(p, "n_buffers", 1) for p in result)}


def _eco_apply(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs = {"requested": result.requested, "applied": result.applied}


def _eco_derive(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs = {"met": result[1].status == "met"}


TARGETS: List[Target] = [
    Target("designgen", "repro.designgen.generate", "generate_block",
           _designgen),
    Target("partition", "repro.place.partition", "fm_bipartition",
           _partition),
    Target("folding", "repro.core.folding", "make_partition"),
    Target("place", "repro.place.placer2d", "place_block_2d"),
    Target("place", "repro.place.placer3d", "fold_place_3d"),
    Target("route", "repro.route.estimate", "RouteContext.route_block"),
    Target("route", "repro.route.estimate", "RouteContext.route_net"),
    Target("route.copy", "repro.route.estimate", "RoutingResult.copy"),
    Target("route.f2f_vias", "repro.route.route3d", "place_f2f_vias"),
    Target("route.chip_global", "repro.route.global_router",
           "GlobalRouter.route"),
    Target("timing.full", "repro.timing.sta", "run_sta"),
    Target("timing.inc_build", "repro.timing.incremental",
           "IncrementalSTA.__init__"),
    Target("timing.inc_build", "repro.timing.incremental",
           "IncrementalSTA.from_snapshot"),
    *(Target("timing.inc_update", "repro.timing.incremental",
             f"IncrementalSTA.{m}")
      for m in ("swap_masters", "apply_routing_update", "patch_topology",
                "retarget", "try_swap")),
    Target("timing.inc_result", "repro.timing.incremental",
           "IncrementalSTA.to_result"),
    Target("cts", "repro.cts.tree", "synthesize_clock_tree"),
    Target("cts", "repro.cts.incremental", "IncrementalCTS.result"),
    Target("opt", "repro.opt.flow", "optimize_block"),
    Target("opt.plan", "repro.opt.buffering", "plan_buffers", _plan),
    Target("opt.plan", "repro.opt.sizing", "plan_upsizes", _plan),
    Target("opt.plan", "repro.opt.sizing", "plan_downsizes", _plan),
    Target("opt.plan", "repro.opt.dualvth", "plan_hvt_swaps", _plan),
    Target("opt.plan", "repro.opt.dualvth", "plan_rvt_restores", _plan),
    Target("power", "repro.power.analysis", "analyze_power"),
    Target("eco", "repro.eco.driver", "derive_design", _eco_derive),
    Target("eco.setup", "repro.eco.session", "EcoSession.from_design"),
    Target("eco.apply", "repro.eco.session", "EcoSession.apply",
           _eco_apply),
    Target("eco.close", "repro.eco.driver", "close_timing"),
    Target("chip", "repro.core.fullchip", "build_chip"),
    Target("flow", "repro.core.flow", "run_block_flow"),
    Target("cache", "repro.core.cache", "DesignCache.get_or_run"),
    Target("analysis", "repro.analysis.experiments", "run_experiment"),
]

#: every per-layer metric, in report order, with its unit
PER_LAYER: Dict[str, str] = {
    "traced.wall_s": "s",
    "designgen.calls": "count", "designgen.distinct_keys": "count",
    "designgen.self_s": "s", "designgen.cells": "count",
    "partition.calls": "count", "partition.self_s": "s",
    "partition.cells": "count", "partition.cut_nets": "count",
    "folding.self_s": "s",
    "place.calls": "count", "place.self_s": "s",
    "place.qp_solves": "count", "place.spread_calls": "count",
    "place.cells_legalized": "count",
    "route.calls": "count", "route.self_s": "s", "route.copy_s": "s",
    "route.f2f_vias_s": "s", "route.chip_global_s": "s",
    "route.nets_reextracted": "count", "route.nets_rerouted": "count",
    "route.nets_extracted_batch": "count",
    "timing.self_s": "s",
    "timing.full_calls": "count", "timing.full_s": "s",
    "timing.inc_build_calls": "count", "timing.inc_build_s": "s",
    "timing.inc_update_calls": "count", "timing.inc_update_s": "s",
    "timing.inc_result_s": "s",
    "sta.levels": "count", "sta.vector_passes": "count",
    "sta.scalar_fallbacks": "count",
    "cts.calls": "count", "cts.self_s": "s",
    "opt.calls": "count", "opt.self_s": "s", "opt.plan_s": "s",
    "opt.moves_planned": "count", "opt.moves_applied": "count",
    "opt.move_yield": "ratio", "opt.full_reroutes": "count",
    "power.calls": "count", "power.self_s": "s",
    "eco.derive_calls": "count", "eco.setup_s": "s", "eco.close_s": "s",
    "eco.apply_s": "s", "eco.self_s": "s",
    "eco.moves_requested": "count", "eco.moves_applied": "count",
    "eco.closure_met": "count", "eco.sta_full_rebuilds": "count",
    "chip.calls": "count", "chip.self_s": "s",
    "flow.calls": "count", "flow.self_s": "s",
    "cache.lookups": "count", "cache.hit_ratio": "ratio",
    "cache.self_s": "s",
    "analysis.self_s": "s",
    "unattributed_s": "s", "trace_overhead": "ratio",
}

#: the metrics that together account for the traced wall time
SELF_TIME_PARTS = (
    "designgen.self_s", "partition.self_s", "folding.self_s",
    "place.self_s", "route.self_s", "timing.self_s", "cts.self_s",
    "opt.self_s", "power.self_s", "eco.self_s", "chip.self_s",
    "flow.self_s", "cache.self_s", "analysis.self_s",
)


def _has_ancestor(spans: Sequence[Span], i: int, layer: str) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == layer:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: Sequence[Span], counters: Dict[str, float],
                  wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration.

    Args:
        spans: the iteration's spans.
        counters: the diff of the program's ``repro.obs`` counters over
            the iteration.
        wall_s: the iteration's traced wall time.

    ``trace_overhead`` needs an untraced twin; the caller sets it.
    """
    own = self_times(spans)
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    for sp, s in zip(spans, own):
        calls[sp.name] = calls.get(sp.name, 0) + 1
        self_s[sp.name] = self_s.get(sp.name, 0.0) + s

    def n(*names: str) -> int:
        return sum(calls.get(x, 0) for x in names)

    def t(*names: str) -> float:
        return sum(self_s.get(x, 0.0) for x in names)

    def c(*names: str) -> float:
        return sum(counters.get(x, 0.0) for x in names)

    def attr_sum(name: str, key: str, within: str = "") -> float:
        return sum((sp.attrs or {}).get(key, 0) for i, sp in enumerate(spans)
                   if sp.name == name
                   and (not within or _has_ancestor(spans, i, within)))

    route = ("route", "route.copy", "route.f2f_vias", "route.chip_global")
    timing = ("timing.full", "timing.inc_build", "timing.inc_update",
              "timing.inc_result")
    eco = ("eco", "eco.setup", "eco.apply", "eco.close")
    planned = attr_sum("opt.plan", "moves", within="opt")
    applied = c("opt.buffers_inserted", "opt.cells_upsized",
                "opt.cells_downsized", "opt.hvt_swaps")
    lookups = n("cache")
    m: Dict[str, float] = {
        "traced.wall_s": wall_s,
        "designgen.calls": n("designgen"),
        "designgen.distinct_keys": len({sp.attrs["key"] for sp in spans
                                        if sp.name == "designgen"
                                        and sp.attrs}),
        "designgen.self_s": t("designgen"),
        "designgen.cells": attr_sum("designgen", "cells"),
        "partition.calls": n("partition"),
        "partition.self_s": t("partition"),
        "partition.cells": attr_sum("partition", "cells"),
        "partition.cut_nets": attr_sum("partition", "cut_nets"),
        "folding.self_s": t("folding"),
        "place.calls": n("place"),
        "place.self_s": t("place"),
        "place.qp_solves": c("place.qp_solves"),
        "place.spread_calls": c("place.spread_calls"),
        "place.cells_legalized": c("place.cells_legalized"),
        "route.calls": n(*route),
        "route.self_s": t(*route),
        "route.copy_s": t("route.copy"),
        "route.f2f_vias_s": t("route.f2f_vias"),
        "route.chip_global_s": t("route.chip_global"),
        "route.nets_reextracted": c("route.nets_reextracted"),
        "route.nets_rerouted": c("route.nets_rerouted"),
        "route.nets_extracted_batch": c("route.nets_extracted_batch"),
        "timing.self_s": t(*timing),
        "timing.full_calls": n("timing.full"),
        "timing.full_s": t("timing.full"),
        "timing.inc_build_calls": n("timing.inc_build"),
        "timing.inc_build_s": t("timing.inc_build"),
        "timing.inc_update_calls": n("timing.inc_update"),
        "timing.inc_update_s": t("timing.inc_update"),
        "timing.inc_result_s": t("timing.inc_result"),
        "sta.levels": c("sta.levels"),
        "sta.vector_passes": c("sta.vector_passes"),
        "sta.scalar_fallbacks": c("sta.scalar_fallbacks"),
        "cts.calls": n("cts"),
        "cts.self_s": t("cts"),
        "opt.calls": n("opt"),
        "opt.self_s": t("opt", "opt.plan"),
        "opt.plan_s": t("opt.plan"),
        "opt.moves_planned": planned,
        "opt.moves_applied": applied,
        "opt.move_yield": applied / planned if planned else 0.0,
        "opt.full_reroutes": c("opt.full_reroutes"),
        "power.calls": n("power"),
        "power.self_s": t("power"),
        "eco.derive_calls": n("eco"),
        "eco.setup_s": t("eco.setup"),
        "eco.close_s": t("eco.close"),
        "eco.apply_s": t("eco.apply"),
        "eco.self_s": t(*eco),
        "eco.moves_requested": attr_sum("eco.apply", "requested"),
        "eco.moves_applied": attr_sum("eco.apply", "applied"),
        "eco.closure_met": attr_sum("eco", "met"),
        "eco.sta_full_rebuilds": sum(
            1 for i, sp in enumerate(spans)
            if sp.name == "timing.full" and _has_ancestor(spans, i, "eco")),
        "chip.calls": n("chip"),
        "chip.self_s": t("chip"),
        "flow.calls": n("flow"),
        "flow.self_s": t("flow"),
        "cache.lookups": lookups,
        "cache.hit_ratio": (c("cache.memory_hits", "cache.disk_hits")
                            / lookups if lookups else 0.0),
        "cache.self_s": t("cache"),
        "analysis.self_s": t("analysis"),
    }
    m["unattributed_s"] = wall_s - sum(m[k] for k in SELF_TIME_PARTS)
    return m


def median_iteration(samples: Sequence[Dict[str, float]]
                     ) -> Dict[str, float]:
    """The metrics of the iteration with the median traced wall time.

    One whole iteration, not per-key medians, so its self times and
    ``unattributed_s`` still add up to its ``traced.wall_s``.
    """
    ordered = sorted(samples, key=lambda m: m["traced.wall_s"])
    return dict(ordered[(len(ordered) - 1) // 2])
