"""Tests for the block-design cache."""

import json

import pytest

from repro.analysis.export_json import block_to_dict
from repro.core.cache import DesignCache
from repro.core.flow import FlowConfig, run_block_flow
from repro.core.fullchip import ChipConfig, build_chip
from repro.designgen import block_type_by_name, generate_block
from repro.obs.metrics import MetricsRegistry, use_registry


def test_hit_returns_same_object(process):
    cache = DesignCache()
    cfg = FlowConfig(scale=0.4)
    a = cache.get_or_run("ncu", cfg, process)
    b = cache.get_or_run("ncu", cfg, process)
    assert a is b
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == pytest.approx(0.5)


def test_different_configs_miss(process):
    cache = DesignCache()
    cache.get_or_run("ncu", FlowConfig(scale=0.4), process)
    cache.get_or_run("ncu", FlowConfig(scale=0.4, dual_vth=True),
                     process)
    assert cache.stats.misses == 2


def test_clear(process):
    cache = DesignCache()
    cache.get_or_run("ncu", FlowConfig(scale=0.4), process)
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.misses == 0


def test_eviction_cap(process):
    cache = DesignCache(max_entries=1)
    cache.get_or_run("ncu", FlowConfig(scale=0.4), process)
    cache.get_or_run("ccu", FlowConfig(scale=0.4), process)
    assert len(cache) == 1


def test_chip_sweep_reuses_blocks(process):
    cache = DesignCache()
    build_chip(ChipConfig(style="core_cache", scale=0.3), process,
               cache=cache)
    first_misses = cache.stats.misses
    # same seed + scale: unfolded blocks with equal budgets recur
    build_chip(ChipConfig(style="core_core", scale=0.3), process,
               cache=cache)
    assert cache.stats.hits > 0
    assert cache.stats.misses < 2 * first_misses


# ---- the generated-netlist memo --------------------------------------------

def _shape(nl):
    """A netlist's structure and placement state as plain values."""
    return ([(i.id, i.name, i.master.name, i.x, i.y, i.die, i.cluster)
             for i in nl.instances.values()],
            [(n.id, n.name, n.driver.key(), [r.key() for r in n.sinks])
             for n in nl.nets.values()],
            [(p.name, p.x, p.y, p.die) for p in nl.ports.values()])


def _netlist_hits(reg) -> float:
    return reg.snapshot()["counters"].get("cache.netlist_hits", 0.0)


def test_netlist_memo_serves_clones(process):
    """Misses share one generated netlist: each flow takes a private
    clone, and the memo's copy stays pristine."""
    cache = DesignCache()
    with use_registry(MetricsRegistry()) as reg:
        a = cache.get_or_run("ncu", FlowConfig(scale=0.4), process)
        b = cache.get_or_run("ncu", FlowConfig(scale=0.4, dual_vth=True),
                             process)
        assert _netlist_hits(reg) == 1
    pristine = cache.generated("ncu", 1, 0.4, process)
    assert a.netlist is not b.netlist
    assert pristine.netlist not in (a.netlist, b.netlist)
    fresh = generate_block(block_type_by_name("ncu"), process.library,
                           seed=1, scale=0.4)
    assert _shape(pristine.netlist) == _shape(fresh.netlist)
    assert _shape(a.netlist) != _shape(fresh.netlist)  # placed


def test_memo_results_match_uncached_flow(process):
    cfg = FlowConfig(scale=0.4)
    cache = DesignCache()
    cache.generated("ncu", cfg.seed, cfg.scale, process)
    cached = cache.get_or_run("ncu", cfg, process)
    direct = run_block_flow("ncu", cfg, process)
    assert json.dumps(block_to_dict(cached), sort_keys=True) == \
        json.dumps(block_to_dict(direct), sort_keys=True)


def test_netlist_memo_key_and_lifetime(process, tmp_path):
    cache = DesignCache(max_entries=1, cache_dir=tmp_path)
    ncu = cache.generated("ncu", 1, 0.4, process)
    assert cache.generated("ncu", 1, 0.4, process) is ncu
    assert cache.generated("ncu", 2, 0.4, process) is not ncu  # seed
    # capped like the memory tier: the seed-1 entry was evicted
    assert cache.generated("ncu", 1, 0.4, process) is not ncu
    again = cache.generated("ncu", 1, 0.4, process)
    cache.clear()
    assert cache.generated("ncu", 1, 0.4, process) is not again
    cache.get_or_run("ncu", FlowConfig(scale=0.4), process)
    # the disk tier holds finished designs only
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".pkl"]


def test_bonding_sweep_generates_once(process, monkeypatch):
    from repro.core import bonding
    from repro.designgen import generate as gen

    calls = []
    real = gen.generate_block

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr("repro.core.cache.generate_block", counting)
    monkeypatch.setattr("repro.core.flow.generate_block", counting)
    monkeypatch.setattr("repro.core.bonding.generate_block", counting)
    sweep = bonding.bonding_power_sweep("ncu", process,
                                        FlowConfig(scale=0.3),
                                        cache=DesignCache())
    assert len(sweep) == 5
    assert len(calls) == 1
