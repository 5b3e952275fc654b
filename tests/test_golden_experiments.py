"""Golden regression tests for the reproduced headline numbers.

``tests/golden/golden.json`` freezes the metrics the paper reproduction
headlines -- the CCX folding savings (Fig. 2), the F2F-vs-F2B bonding
gap (Fig. 6) and the full-chip folding + dual-Vth savings (Table 5).
These tests recompute them at the frozen scale/seed and fail when any
metric drifts past its tolerance, so perf work (parallel engine,
caching, future kernels) cannot silently move the physics.

To refresh intentionally after a model change::

    PYTHONPATH=src python -m repro bench --ids fig2,fig6,table5 \
        --write-golden tests/golden/golden.json
"""

import hashlib
from pathlib import Path

import pytest

import repro
from repro.analysis.golden import (DEFAULT_ATOL, GOLDEN_IDS,
                                   GOLDEN_SCALE, GOLDEN_SEED,
                                   compare_to_golden, golden_metrics,
                                   load_golden, make_golden_payload,
                                   save_golden)
from repro.core.cache import CODE_VERSION, source_version
from repro.parallel.engine import run_experiments

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden.json"


@pytest.fixture(scope="module")
def golden_run(process):
    """One serial run of the golden experiment set at the frozen
    configuration (module-scoped: this is the expensive part)."""
    report = run_experiments(ids=list(GOLDEN_IDS), scale=GOLDEN_SCALE,
                             seed=GOLDEN_SEED, process=process)
    return report


@pytest.mark.slow
def test_golden_experiments_pass_their_own_checks(golden_run):
    failed = [r.experiment_id for r in golden_run.runs
              if not r.all_passed]
    assert not failed, f"experiment self-checks failed: {failed}"


@pytest.mark.slow
def test_headline_metrics_match_golden(golden_run):
    golden = load_golden(GOLDEN_PATH)
    measured = golden_metrics(golden_run.results_dict())
    problems = compare_to_golden(measured, golden)
    assert not problems, "golden regression:\n  " + "\n  ".join(problems)


@pytest.mark.slow
def test_headline_directions(golden_run):
    """The signs the paper's story rests on, independent of the frozen
    magnitudes: folding saves power and area, F2F beats F2B, and the
    folded dual-Vth chip beats the unfolded one."""
    m = golden_metrics(golden_run.results_dict())
    assert m["ccx_fold_power_rel"] < -0.05
    assert m["ccx_fold_footprint_rel"] < -0.3
    assert m["l2t_f2f_vs_f2b_power_rel"] < 0.0
    assert m["l2d_f2f_vs_f2b_power_rel"] < 0.0
    assert m["chip_dvt_fold_f2f_power_rel"] < \
        m["chip_dvt_nofold_power_rel"] < 0.0
    assert 0.5 < m["chip_dvt_fold_hvt_fraction"] <= 1.0


def test_golden_file_is_frozen_at_the_declared_config():
    golden = load_golden(GOLDEN_PATH)
    assert golden["scale"] == GOLDEN_SCALE
    assert golden["seed"] == GOLDEN_SEED
    assert golden["atol"] == DEFAULT_ATOL
    assert golden["metrics"], "fixture has no metrics"
    assert list(golden["metrics"]) == sorted(golden["metrics"])


def test_compare_to_golden_flags_drift_and_coverage():
    golden = make_golden_payload({"a": -0.30, "b": 0.10}, atol=0.02)
    assert compare_to_golden({"a": -0.31, "b": 0.11}, golden) == []
    drift = compare_to_golden({"a": -0.36, "b": 0.10}, golden)
    assert len(drift) == 1 and "a" in drift[0]
    missing = compare_to_golden({"a": -0.30}, golden)
    assert any("no longer measured" in p for p in missing)
    extra = compare_to_golden({"a": -0.30, "b": 0.10, "c": 1.0}, golden)
    assert any("not frozen" in p for p in extra)


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "golden.json"
    save_golden(path, {"x": -0.5}, atol=0.01)
    loaded = load_golden(path)
    assert loaded["metrics"] == {"x": -0.5}
    assert loaded["atol"] == 0.01
    assert path.read_text().endswith("\n")


#: sha256 of ``tests/golden/golden.json``; a refreshed fixture must move
#: ``repro.core.cache.CODE_VERSION`` too, which holds because the
#: version is the hash of the package source (the code change that moved
#: the goldens moved it), so disk caches never serve designs from the
#: old numerics
GOLDEN_SHA256 = \
    "c4a597306ca15e0e31c0115c6713a88d062def9cc9e5cc7a433c848398b48e3c"


def test_golden_refresh_bumps_code_version():
    digest = hashlib.sha256(GOLDEN_PATH.read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256, (
        "golden.json changed: update GOLDEN_SHA256 with the refresh")
    assert CODE_VERSION == source_version(
        Path(repro.__file__).resolve().parent), (
        "CODE_VERSION must be the hash of the package source")
