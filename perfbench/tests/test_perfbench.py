"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
import sys

import pytest

from perfbench import compare, run
from perfbench.layers import SELF_TIME_PARTS, TARGETS, layer_metrics
from perfbench.scaling import fit_exponent
from perfbench.spans import Instrumentation, Recorder, Span, self_times
from perfbench.speed import REF_KERNEL_S, SpeedClock
from perfbench.workloads import (WORKLOADS, Context, UnknownWorkloadError,
                                 get_workload)

SMALL = 0.25


@pytest.fixture(scope="module")
def process():
    run.prepare_environment()
    run.import_program()
    from repro.tech.process import make_process
    return make_process()


def resolve(t):
    """The object a target names, as found in ``sys.modules`` now."""
    module = sys.modules[t.module]
    if "." in t.qualname:
        cls_name, attr = t.qualname.split(".", 1)
        return getattr(module, cls_name).__dict__[attr]
    return getattr(module, t.qualname)


def _bindings():
    """Every (owner, attribute) currently bound to a target's object."""
    found = {}
    for t in TARGETS:
        obj = resolve(t)
        found[(t.module, t.qualname)] = obj
        if "." not in t.qualname:
            for name, mod in list(sys.modules.items()):
                if mod is not None and name.startswith("repro"):
                    for attr, value in vars(mod).items():
                        if value is obj:
                            found[(name, attr)] = obj
    return found


def test_traced_run_restores_every_wrapped_attribute(
        process, capsys, monkeypatch, tmp_path):
    before = _bindings()
    from repro.timing.incremental import IncrementalSTA
    from_snapshot = IncrementalSTA.__dict__["from_snapshot"]
    assert isinstance(from_snapshot, classmethod)

    monkeypatch.setattr(run, "SCALE", SMALL)
    monkeypatch.setattr(run, "STATE_DIR", tmp_path)
    code = run.main(["--workload", "eco_derive", "--seconds", "0",
                     "--trace", "1"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"]
    assert result["metrics"]["eco.derive_calls"]["value"] == 8
    assert result["metrics"]["timing.inc_build_calls"]["value"] > 0

    after = _bindings()
    assert after.keys() == before.keys()
    for key, obj in before.items():
        assert after[key] is obj, key
    assert IncrementalSTA.__dict__["from_snapshot"] is from_snapshot
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("repro"):
            for attr, value in vars(mod).items():
                assert not hasattr(value, "__perfbench_original__"), \
                    f"{name}.{attr} still wrapped"


def test_self_times_on_nested_tree():
    def sp(name, start, end, parent):
        return Span(name, start, end, parent, "r")

    spans = [
        sp("flow", 0.0, 10.0, None),     # 0
        sp("place", 1.0, 4.0, 0),        # 1
        sp("partition", 2.0, 3.0, 1),    # 2
        sp("route", 3.0, 6.0, 0),        # 3 overlaps place by 1 s
        sp("power", 8.0, 12.0, 0),       # 4 runs past its parent
        sp("designgen", 11.0, 11.5, None),
    ]
    own = self_times(spans)
    # flow: 10 - |[1, 6] u [8, 10]| = 10 - 7
    assert own == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0, 0.5])

    m = layer_metrics(spans, {}, wall_s=13.0)
    assert m["flow.self_s"] == pytest.approx(3.0)
    assert m["partition.self_s"] == pytest.approx(1.0)
    assert m["unattributed_s"] == pytest.approx(13.0 - sum(own))
    assert sum(m[k] for k in SELF_TIME_PARTS) + m["unattributed_s"] == \
        pytest.approx(13.0)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_outputs_match(process, name):
    w = WORKLOADS[name]
    ctx = Context(process, 1, SMALL)
    inputs = w.setup(ctx)
    plain = w.digests(w.body(ctx, inputs))
    rec = Recorder("test")
    with Instrumentation(TARGETS, rec):
        traced = w.digests(w.body(ctx, w.setup(ctx)))
    assert rec.spans
    assert traced == plain


def test_speed_clock_restores_alarm_and_excludes_probes():
    import signal
    import time

    def previous(_signum, _frame):
        pass

    old = signal.signal(signal.SIGALRM, previous)
    try:
        t0 = time.perf_counter()
        with SpeedClock(0.01) as clock:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        measured = time.perf_counter() - t0
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert len(clock.samples) > 3
    probes = sum(clock.samples[1:-1])
    assert clock.wall_s == pytest.approx(0.2 - probes, abs=0.02)
    assert clock.wall_s < measured
    assert clock.speed == pytest.approx(
        sum(REF_KERNEL_S / k for k in clock.samples) / len(clock.samples))
    assert clock.ref_s == pytest.approx(clock.wall_s * clock.speed)


def test_unknown_workload_lists_valid_names(capsys):
    with pytest.raises(UnknownWorkloadError) as exc:
        get_workload("nope")
    for name in WORKLOADS:
        assert name in str(exc.value)
    assert run.main(["--workload", "nope"]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in WORKLOADS)


@pytest.mark.parametrize("var", run.REFUSED_ENV)
def test_refuses_foreign_program_settings(monkeypatch, capsys, var):
    monkeypatch.setenv(var, "1")
    assert run.main(["--workload", "spc_fold"]) == 2
    assert var in capsys.readouterr().err


def _rec(workload, seed, **metrics):
    return {"env": {"workload": workload, "seed": seed, "trace": 0},
            "metrics": metrics, "attempted": 1, "failed": 0}


def test_compare_verdicts():
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    faster = [0.8 * x for x in base]
    won, pairs = 10, 10
    assert compare.verdict(base, faster, True, 0.1, won, pairs) == "better"
    assert compare.verdict(base, [1.05 * x for x in base], True, 0.1, 0, 10) \
        == "no worse within bound"
    assert compare.verdict(base, [1.5 * x for x in base], True, 0.1, 0, 10) \
        == "worse"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(base, noisy, True, 0.1, 5, 10) == "unresolved"

    b = [_rec("chip_2d", s, wall_s=v) for s, v in enumerate(base)]
    c = [_rec("chip_2d", s, wall_s=v) for s, v in enumerate(faster)]
    assert compare.pairs_won(b, c, "wall_s", True) == (10, 10)
    spec = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]
    report = compare.compare(b, c, spec)
    assert "chip_2d" in report and "better" in report


def test_fit_exponent():
    assert fit_exponent([100, 200, 400], [1.0, 4.0, 16.0]) == \
        pytest.approx(2.0)
    assert fit_exponent([100, 200], [0.0, 0.0]) is None
