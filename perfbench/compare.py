"""Compare two sets of benchmark runs, such as a parent commit and a change.

Each set is a file of run records, one JSON object per line, as
``run.py --out`` appends them.  For every workload and end-to-end
metric the report gives both medians and quartiles, the pairs the
change won (runs paired by seed) and a verdict:

* ``better`` -- the change wins at least nine tenths of the pairs and
  its median beats the base median by more than the base's own
  quartile spread;
* ``unresolved`` -- either side spreads wider than the metric's bound
  and not every change run beats every base run;
* ``no worse within bound`` -- the change's median is at most the bound
  worse than the base's;
* ``worse`` -- otherwise.

Traced records (``--trace 1``) add a ranking of per-layer self-time
deltas by absolute seconds.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: the seed kept out of tuning; a claimed gain must hold on it too
HELDOUT_SEED = json.loads(
    (Path(__file__).resolve().parent / "claims.json").read_text()
)["heldout_seed"]
#: a run that fails more operations than the base is never within bound
FAILED_FRAC = {"name": "failed_frac", "unit": "ratio", "better": "lower",
               "bound": 0.0}


def load_records(path: str) -> List[Dict[str, Any]]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def end_to_end_specs() -> List[Dict[str, Any]]:
    specs = json.loads(BENCHMARK.read_text())["end_to_end"]
    return [*specs, FAILED_FRAC]


def quartiles(xs: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def _value(rec: Dict[str, Any], name: str) -> float:
    if name == "failed_frac":
        return rec["failed"] / max(1, rec["attempted"])
    return rec["metrics"][name]


def pairs_won(base: List[Dict[str, Any]], change: List[Dict[str, Any]],
              name: str, lower: bool) -> Tuple[int, int]:
    """(change wins, pairs): runs paired by seed, in file order."""
    by_seed: Dict[int, List[float]] = {}
    for r in base:
        by_seed.setdefault(r["env"]["seed"], []).append(_value(r, name))
    won = total = 0
    for r in change:
        queue = by_seed.get(r["env"]["seed"])
        if not queue:
            continue
        b, c = queue.pop(0), _value(r, name)
        total += 1
        won += (c < b) if lower else (c > b)
    return won, total


def verdict(base: Sequence[float], change: Sequence[float], lower: bool,
            bound: float, won: int, pairs: int) -> str:
    """The verdict for one metric on one workload (see module doc)."""
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    sign = 1.0 if lower else -1.0
    scale = abs(bmed) or 1.0
    worse_by = sign * (cmed - bmed) / scale
    if (pairs and won >= 0.9 * pairs and worse_by < 0
            and abs(cmed - bmed) > bq3 - bq1):
        return "better"
    spread = max((bq3 - bq1) / scale, (cq3 - cq1) / (abs(cmed) or 1.0))
    all_better = (max(change) < min(base)) if lower else \
        (min(change) > max(base))
    if spread > bound and not all_better:
        return "unresolved"
    return "no worse within bound" if worse_by <= bound else "worse"


def compare(base: List[Dict[str, Any]], change: List[Dict[str, Any]],
            specs: List[Dict[str, Any]]) -> str:
    lines = []
    workloads = sorted({r["env"]["workload"] for r in base + change})
    row = "{:11s} {:12s} {:>32s} {:>32s} {:>8s} {:>7s}  {}"
    lines.append(row.format("workload", "metric", "base median [q1, q3]",
                            "change median [q1, q3]", "delta", "won",
                            "verdict"))
    for w in workloads:
        b = [r for r in base if r["env"]["workload"] == w
             and not r["env"]["trace"]]
        c = [r for r in change if r["env"]["workload"] == w
             and not r["env"]["trace"]]
        if not b or not c:
            continue
        for spec in specs:
            name, lower = spec["name"], spec["better"] == "lower"
            bv = [_value(r, name) for r in b]
            cv = [_value(r, name) for r in c]
            won, pairs = pairs_won(b, c, name, lower)
            bq = quartiles(bv)
            cq = quartiles(cv)
            delta = (cq[1] / bq[1] - 1.0) if bq[1] else 0.0
            lines.append(row.format(
                w, name, f"{bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]",
                f"{cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]", f"{delta:+.1%}",
                f"{won}/{pairs}",
                verdict(bv, cv, lower, spec["bound"], won, pairs)))
    seeds = {r["env"]["seed"] for r in change}
    if HELDOUT_SEED not in seeds:
        lines.append(f"note: the change runs do not include the held-out "
                     f"seed {HELDOUT_SEED}; a claim must also hold there")
    layer_lines = layer_deltas(base, change)
    if layer_lines:
        lines += ["", "per-layer self-time deltas (traced runs), largest "
                  "first:"] + layer_lines
    return "\n".join(lines)


def layer_deltas(base: List[Dict[str, Any]], change: List[Dict[str, Any]],
                 top: int = 20) -> List[str]:
    """Per-layer self-time deltas of traced runs, by absolute seconds."""
    from perfbench.layers import PER_LAYER, SELF_TIME_PARTS

    keys = [k for k, unit in PER_LAYER.items()
            if unit == "s" and k != "traced.wall_s"]
    rows = []
    for w in sorted({r["env"]["workload"] for r in base + change}):
        b = [r["metrics"] for r in base
             if r["env"]["workload"] == w and r["env"]["trace"]]
        c = [r["metrics"] for r in change
             if r["env"]["workload"] == w and r["env"]["trace"]]
        if not b or not c:
            continue
        for k in keys:
            mb = statistics.median(m.get(k, 0.0) for m in b)
            mc = statistics.median(m.get(k, 0.0) for m in c)
            rows.append((abs(mc - mb), w, k, mb, mc))
    rows.sort(reverse=True)
    out = []
    for _, w, k, mb, mc in rows[:top]:
        part = "" if k in SELF_TIME_PARTS or k == "unattributed_s" \
            else " (part)"
        out.append(f"  {w:11s} {k + part:30s} {mb:9.3f} s -> {mc:9.3f} s "
                   f"({mc - mb:+.3f} s)")
    return out


def compare_files(base_path: str, change_path: str) -> str:
    """The comparison report of two record files."""
    return compare(load_records(base_path), load_records(change_path),
                   end_to_end_specs())
