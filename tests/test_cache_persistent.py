"""Tests for the persistent disk tier of the design cache."""

import dataclasses
import hashlib
import json
import pickle
import shutil
from pathlib import Path

import pytest

import repro
from repro.core.cache import (CODE_VERSION, CacheStats, DesignCache,
                              design_key, process_fingerprint,
                              source_version)
from repro.core.flow import FlowConfig
from repro.core.folding import FoldSpec


def _pickles(directory):
    """Entries in the design tier's directory."""
    return sorted(directory.glob("*.pkl"))


def test_cold_then_warm_disk_parity(process, tmp_path):
    """A fresh cache over the same directory serves the stored design."""
    cfg = FlowConfig(scale=0.4)
    cold = DesignCache(cache_dir=tmp_path)
    a = cold.get_or_run("ncu", cfg, process)
    assert cold.stats.misses == 1
    assert cold.stats.stores == 1
    assert len(_pickles(tmp_path)) == 1

    warm = DesignCache(cache_dir=tmp_path)
    b = warm.get_or_run("ncu", cfg, process)
    assert warm.stats.disk_hits == 1
    assert warm.stats.misses == 0
    assert b.power.total_uw == a.power.total_uw
    assert b.footprint_um2 == a.footprint_um2
    assert b.sta.wns_ps == a.sta.wns_ps


def test_disk_hit_promotes_to_memory(process, tmp_path):
    cfg = FlowConfig(scale=0.4)
    DesignCache(cache_dir=tmp_path).get_or_run("ncu", cfg, process)
    warm = DesignCache(cache_dir=tmp_path)
    first = warm.get_or_run("ncu", cfg, process)
    second = warm.get_or_run("ncu", cfg, process)
    assert first is second
    assert warm.stats.disk_hits == 1
    assert warm.stats.hits == 1


def test_corrupted_entry_falls_back_to_recompute(process, tmp_path):
    cfg = FlowConfig(scale=0.4)
    cold = DesignCache(cache_dir=tmp_path)
    good = cold.get_or_run("ncu", cfg, process)
    key = design_key("ncu", cfg, process)
    path = tmp_path / f"{key}.pkl"
    path.write_bytes(b"not a pickle at all")

    warm = DesignCache(cache_dir=tmp_path)
    redone = warm.get_or_run("ncu", cfg, process)
    assert warm.stats.corrupt_drops == 1
    assert warm.stats.misses == 1
    assert warm.stats.disk_hits == 0
    assert redone.power.total_uw == good.power.total_uw
    # the recompute re-stored a healthy entry
    assert len(_pickles(tmp_path)) == 1


def test_wrong_type_pickle_counts_as_corrupt(process, tmp_path):
    cfg = FlowConfig(scale=0.4)
    key = design_key("ncu", cfg, process)
    (tmp_path / f"{key}.pkl").write_bytes(
        pickle.dumps({"not": "a BlockDesign"}))
    cache = DesignCache(cache_dir=tmp_path)
    cache.get_or_run("ncu", cfg, process)
    assert cache.stats.corrupt_drops == 1
    assert cache.stats.misses == 1


def test_clear_keeps_disk_clear_disk_removes(process, tmp_path):
    cfg = FlowConfig(scale=0.4)
    cache = DesignCache(cache_dir=tmp_path)
    cache.get_or_run("ncu", cfg, process)
    cache.clear()
    assert len(cache) == 0
    assert len(_pickles(tmp_path)) == 1


def test_unwritable_cache_dir_degrades_to_memory(process, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the cache dir should go")
    cache = DesignCache(cache_dir=blocker / "sub")
    design = cache.get_or_run("ncu", FlowConfig(scale=0.4), process)
    assert design.power.total_uw > 0
    assert cache.stats.misses == 1
    assert cache.stats.stores == 0
    assert not blocker.is_dir()


# ---- cache-key coverage ------------------------------------------------


def test_key_includes_process_node(process):
    """Regression: two process nodes must never share cache entries."""
    cfg = FlowConfig(scale=0.4)
    other = dataclasses.replace(process, vdd=process.vdd * 0.9)
    assert design_key("ncu", cfg, process) != \
        design_key("ncu", cfg, other)


def test_key_includes_fold_spec(process):
    base = FlowConfig(scale=0.4)
    keys = {
        design_key("ncu", base, process),
        design_key("ncu", dataclasses.replace(
            base, fold=FoldSpec(mode="mincut")), process),
        design_key("ncu", dataclasses.replace(
            base, fold=FoldSpec(mode="interleave")), process),
        design_key("ncu", dataclasses.replace(
            base, fold=FoldSpec(mode="mincut", balance_tol=0.2)),
            process),
    }
    assert len(keys) == 4


def test_key_includes_every_flow_config_field(process):
    """Any FlowConfig field change must change the key."""
    base = FlowConfig(scale=0.4)
    seen = {design_key("ncu", base, process)}
    for name, value in [("seed", 2), ("scale", 0.41),
                        ("bonding", "F2F"), ("dual_vth", True)]:
        key = design_key("ncu", dataclasses.replace(
            base, **{name: value}), process)
        assert key not in seen, f"field {name} not hashed"
        seen.add(key)


def test_key_includes_block_name_and_version(process, monkeypatch):
    cfg = FlowConfig(scale=0.4)
    assert design_key("ncu", cfg, process) != \
        design_key("ccu", cfg, process)
    before = design_key("ncu", cfg, process)
    monkeypatch.setattr("repro.core.cache.CODE_VERSION",
                        CODE_VERSION + ".test")
    assert design_key("ncu", cfg, process) != before


def test_code_version_is_derived_from_the_source(tmp_path):
    """One changed byte anywhere in the package changes the version."""
    tree = tmp_path / "repro"
    shutil.copytree(Path(repro.__file__).parent, tree,
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert source_version(tree) == CODE_VERSION
    target = tree / "core" / "flow.py"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))
    assert source_version(tree) != CODE_VERSION


def test_process_fingerprint_covers_3d_vias(process):
    fp = process_fingerprint(process)
    assert set(fp) >= {"name", "vdd", "clock_freq_ghz", "tsv",
                       "f2f_via", "n_metal_layers"}
    assert fp["tsv"]["style"] != fp["f2f_via"]["style"]


def test_cache_stats_hit_rate_counts_both_tiers():
    stats = CacheStats(hits=2, disk_hits=1, misses=1)
    assert stats.hit_rate == pytest.approx(0.75)
    d = stats.as_dict()
    assert d["hit_rate"] == pytest.approx(0.75)
    assert d["disk_hits"] == 1
    assert CacheStats().hit_rate == 0.0


# ---- scalar reference paths ----------------------------------------------

SCALAR_ENVS = ("REPRO_PLACE_SCALAR", "REPRO_STA_SCALAR")


def _default_path_key(block, config, process):
    """The key formula of the default (vectorized) path, spelled out."""
    payload = {"block": block, "config": dataclasses.asdict(config),
               "process": process_fingerprint(process),
               "version": CODE_VERSION}
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_key_unchanged_without_scalar_flags(process, monkeypatch):
    for env in SCALAR_ENVS:
        monkeypatch.delenv(env, raising=False)
    cfg = FlowConfig(scale=0.4, fold=FoldSpec(mode="mincut"))
    assert design_key("ncu", cfg, process) == \
        _default_path_key("ncu", cfg, process)
    # a flag set to anything but "1" leaves the default path active
    monkeypatch.setenv("REPRO_PLACE_SCALAR", "0")
    assert design_key("ncu", cfg, process) == \
        _default_path_key("ncu", cfg, process)


def test_scalar_runs_never_share_default_keys(process, monkeypatch):
    """Regression: the scalar placer is not bit-exact, so its designs
    must not answer (or be answered by) default-path requests."""
    for env in SCALAR_ENVS:
        monkeypatch.delenv(env, raising=False)
    cfg = FlowConfig(scale=0.4)
    keys = {design_key("ncu", cfg, process)}
    for flags in (("REPRO_PLACE_SCALAR",), ("REPRO_STA_SCALAR",),
                  SCALAR_ENVS):
        for env in SCALAR_ENVS:
            monkeypatch.delenv(env, raising=False)
        for env in flags:
            monkeypatch.setenv(env, "1")
        keys.add(design_key("ncu", cfg, process))
    assert len(keys) == 4
