"""Informational scaling report: per-layer self time against cell count.

Not a gated workload.  Runs one traced block flow per (case, scale) --
an l2t min-cut fold and a 2D SPC flow, at scales 1, 2 and 4 -- and
fits ``self_s ~ cells ** k`` per layer by least squares
on the logs, so a superlinear layer shows its exponent before it
dominates a run.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from perfbench.layers import SELF_TIME_PARTS, TARGETS, layer_metrics
from perfbench.spans import Instrumentation, Recorder

SCALES = (1.0, 2.0, 4.0)


def _cases():
    from repro.core.flow import FlowConfig
    from repro.core.folding import FoldSpec

    return {"l2t_mincut": ("l2t", FlowConfig(fold=FoldSpec(mode="mincut"))),
            "spc_2d": ("spc", FlowConfig())}


def fit_exponent(cells: Sequence[float], seconds: Sequence[float]
                 ) -> Optional[float]:
    """Slope of log(seconds) against log(cells); ``None`` if unfit."""
    pts = [(math.log(c), math.log(s)) for c, s in zip(cells, seconds)
           if c > 0 and s > 0]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return None
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def measure_scaling(seed: int) -> Dict[str, Dict[str, Dict[str, float]]]:
    """{case: {scale: per-layer metrics}} of one traced flow each."""
    from repro.core import flow
    from repro.obs.metrics import metrics
    from repro.tech.process import make_process

    process = make_process()
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for case, (block, config) in _cases().items():
        out[case] = {}
        for scale in SCALES:
            rec = Recorder(f"scaling-{case}-{scale}")
            before = metrics().snapshot()
            with Instrumentation(TARGETS, rec):
                t0 = time.perf_counter()
                # looked up now, so the call goes through the wrapper;
                # the design is freed after the clock stops
                design = flow.run_block_flow(
                    block, replace(config, scale=scale, seed=seed), process)
                dt = time.perf_counter() - t0
            del design
            out[case][str(scale)] = layer_metrics(
                rec.spans, metrics().diff(before)["counters"], dt)
    return out


def format_scaling(data: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    lines: List[str] = []
    for case, by_scale in data.items():
        scales = list(by_scale)
        cells = [by_scale[s]["designgen.cells"] for s in scales]
        lines.append(f"{case}: cells " + ", ".join(
            f"{int(c)} (scale {s})" for c, s in zip(cells, scales)))
        lines.append(f"  {'layer':20s}" + "".join(
            f"{'scale ' + s:>12s}" for s in scales) + f"{'exponent':>10s}")
        for key in (*SELF_TIME_PARTS, "unattributed_s", "traced.wall_s"):
            secs = [by_scale[s][key] for s in scales]
            if not any(secs):
                continue
            k = fit_exponent(cells, secs)
            lines.append(f"  {key:20s}" + "".join(f"{x:12.3f}" for x in secs)
                         + (f"{k:10.2f}" if k is not None else f"{'-':>10s}"))
        lines.append("")
    return "\n".join(lines)


def scaling_report(seed: int) -> str:
    """Run the scaling cases; return the table."""
    return format_scaling(measure_scaling(seed))
