"""The benchmark's workloads: inputs, timed body, output checks, digests.

Each workload stresses a different part of the flow (BENCHMARK.json
says why each is in the benchmark); the per-layer table in
``perfbench/README.md`` says which layer should move on which workload.
Everything here runs at the scale and seed it is given; the program
only ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

#: io budgets (ps) of the eco_derive neighbors; each runs without and
#: with dual-Vth
ECO_BUDGETS_PS = (70.0, 90.0, 110.0, 130.0)
ECO_BASE_BUDGET_PS = 60.0


@dataclass
class Context:
    """What every workload is set up from."""

    process: Any
    seed: int
    scale: float


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Attributes:
        name: the ``--workload`` name.
        ops: operations per body call (block flows, chip builds or
            derivations); failures are counted against these.
        setup: builds the inputs the body takes (outside the timing).
        body: the timed work; returns the output to check.
        digests: one digest per operation of an output, or a single
            digest standing for all of them.
        check: output checks; returns ``(op index or None, message)``
            per failure, ``None`` meaning every operation.
        cells: cells in the netlists the body's flows take in.
    """

    name: str
    ops: int
    setup: Callable[[Context], Any]
    body: Callable[[Context, Any], Any]
    digests: Callable[[Any], List[str]]
    check: Callable[[Context, Any, Any], List[Tuple[Any, str]]]
    cells: Callable[[Context, Any, Any], int]


def _sha(obj: Any) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()
                          ).hexdigest()


def _generated_cells(ctx: Context, block: str,
                     seed: Optional[int] = None) -> int:
    from repro.designgen.generate import generate_block
    from repro.designgen.t2 import block_type_by_name

    gb = generate_block(block_type_by_name(block), ctx.process.library,
                        seed=ctx.seed if seed is None else seed,
                        scale=ctx.scale)
    return gb.netlist.num_cells


def _block_failures(design: Any) -> List[str]:
    from repro.lint import lint_block

    out = []
    errors = lint_block(design).errors
    if errors:
        out.append(f"{design.name}: {len(errors)} lint errors, first: "
                   f"{errors[0]}")
    if design.sta.wns_ps < 0.0:
        out.append(f"{design.name}: WNS {design.sta.wns_ps:.2f} ps < 0")
    return out


# -- spc_fold -------------------------------------------------------------

def _spc_config(ctx: Context) -> Any:
    from repro.core.flow import FlowConfig
    from repro.core.secondlevel import second_level_spec

    return FlowConfig(scale=ctx.scale, seed=ctx.seed,
                      fold=second_level_spec(), bonding="F2F")


def _spc_body(ctx: Context, config: Any) -> Any:
    from repro.core.flow import run_block_flow

    return run_block_flow("spc", config, ctx.process)


def _block_digest(design: Any) -> List[str]:
    from repro.analysis.export_json import block_to_dict

    return [_sha(block_to_dict(design))]


# -- chip_2d --------------------------------------------------------------

def _chip_body(ctx: Context, _inputs: Any) -> Any:
    from repro.core.fullchip import ChipConfig, build_chip

    return build_chip(ChipConfig(style="2d", scale=ctx.scale,
                                 seed=ctx.seed), ctx.process)


def _chip_digest(chip: Any) -> List[str]:
    from repro.analysis.export_json import chip_to_dict

    return [_sha(chip_to_dict(chip))]


def _chip_check(ctx: Context, _inputs: Any, chip: Any
                ) -> List[Tuple[Any, str]]:
    return [(0, msg) for name in sorted(chip.block_designs)
            for msg in _block_failures(chip.block_designs[name])]


def _chip_cells(ctx: Context, _inputs: Any, chip: Any) -> int:
    return sum(_generated_cells(ctx, name) for name in chip.block_designs)


# -- fig7_sweep -----------------------------------------------------------

FIG7_FLOWS = 11
#: l2t designs one body sweeps, at seeds ``seed`` to ``seed + 4``: the
#: runtime of a single design varies by 10% between seeds (quartile
#: distance over median), more than a third of the bound
FIG7_DESIGNS = 5


def _fig7_seeds(ctx: Context) -> List[int]:
    return [ctx.seed + i for i in range(FIG7_DESIGNS)]


def _fig7_body(ctx: Context, _inputs: Any) -> List[Any]:
    from repro.analysis.experiments import ExperimentOptions, run_experiment
    from repro.core.cache import DesignCache

    return [run_experiment("fig7", ExperimentOptions(
        process=ctx.process, scale=ctx.scale, seed=seed,
        cache=DesignCache())) for seed in _fig7_seeds(ctx)]


def _fig7_digest(results: List[Any]) -> List[str]:
    from repro.analysis.experiments import result_to_dict

    return [_sha([result_to_dict(r) for r in results])]


def _fig7_check(ctx: Context, _inputs: Any, results: List[Any]
                ) -> List[Tuple[Any, str]]:
    return [(None, f"seed {seed} shape check failed: {c.name} "
                   f"({c.measured})")
            for seed, r in zip(_fig7_seeds(ctx), results)
            for c in r.checks if not c.passed]


def _fig7_cells(ctx: Context, _inputs: Any, _results: Any) -> int:
    return FIG7_FLOWS * sum(_generated_cells(ctx, "l2t", seed)
                            for seed in _fig7_seeds(ctx))


# -- eco_derive -----------------------------------------------------------

@dataclass
class EcoInputs:
    base: Any
    neighbors: List[Any]


def _eco_setup(ctx: Context) -> EcoInputs:
    from repro.core.flow import FlowConfig, run_block_flow

    base = run_block_flow("spc", FlowConfig(
        scale=ctx.scale, seed=ctx.seed, io_budget_ps=ECO_BASE_BUDGET_PS),
        ctx.process)
    neighbors = [replace(base.config, io_budget_ps=io, dual_vth=dv)
                 for io in ECO_BUDGETS_PS for dv in (False, True)]
    return EcoInputs(base, neighbors)


def _eco_body(ctx: Context, inputs: EcoInputs) -> List[Tuple[Any, Any]]:
    from repro.eco.driver import derive_design

    return [derive_design(inputs.base, cfg, ctx.process)
            for cfg in inputs.neighbors]


def _eco_dict(design: Any, closure: Any) -> Dict[str, Any]:
    from repro.analysis.export_json import block_to_dict

    return {"design": block_to_dict(design), "status": closure.status}


def _eco_digests(derived: List[Tuple[Any, Any]]) -> List[str]:
    return [_sha(_eco_dict(d, c)) for d, c in derived]


def _eco_check_index(seed: int) -> int:
    """The neighbor a run re-derives from scratch, picked by the seed."""
    return random.Random(seed).randrange(2 * len(ECO_BUDGETS_PS))


def _eco_check(ctx: Context, inputs: EcoInputs,
               derived: List[Tuple[Any, Any]]) -> List[Tuple[Any, str]]:
    from repro.analysis.export_json import block_to_dict
    from repro.eco.driver import EcoConfig, derive_design

    i = _eco_check_index(ctx.seed)
    cfg = replace(inputs.neighbors[i], eco=EcoConfig(full_recompute=True))
    full, _ = derive_design(inputs.base, cfg, ctx.process)
    a = json.dumps(block_to_dict(derived[i][0]), sort_keys=True)
    b = json.dumps(block_to_dict(full), sort_keys=True)
    if a != b:
        return [(i, f"neighbor {i}: incremental result differs from "
                    "full recompute")]
    return []


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("spc_fold", 1, _spc_config, _spc_body, _block_digest,
             lambda ctx, _i, d: [(0, m) for m in _block_failures(d)],
             lambda ctx, _i, _d: _generated_cells(ctx, "spc")),
    Workload("chip_2d", 1, lambda ctx: None, _chip_body, _chip_digest,
             _chip_check, _chip_cells),
    Workload("fig7_sweep", FIG7_DESIGNS * FIG7_FLOWS, lambda ctx: None,
             _fig7_body, _fig7_digest, _fig7_check, _fig7_cells),
    Workload("eco_derive", 2 * len(ECO_BUDGETS_PS), _eco_setup, _eco_body,
             _eco_digests, _eco_check,
             lambda ctx, inputs, _d: (len(inputs.neighbors)
                                      * inputs.base.n_cells)),
)}


class UnknownWorkloadError(ValueError):
    """A workload name that is not one of :data:`WORKLOADS`."""


def get_workload(name: str) -> Workload:
    """The workload called ``name``; the error lists the valid names."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise UnknownWorkloadError(
            f"unknown workload {name!r}; valid workloads: "
            f"{', '.join(WORKLOADS)}") from None
