#!/usr/bin/env python3
"""End-to-end benchmark of the block and chip design flows.

Usage, from the repository root::

    python3 perfbench/run.py --workload spc_fold --seed 1 --seconds 20
    python3 perfbench/run.py --workload eco_derive --trace 1
    python3 perfbench/run.py --workload all --out runs/a.jsonl
    python3 perfbench/run.py --compare runs/parent.jsonl runs/change.jsonl
    python3 perfbench/run.py --scaling

A run sets its workload up, then repeats the workload's body on the
same inputs until the body time reaches ``--seconds`` and reports
medians.  Times are taken at the host's reference speed
(``perfbench/speed.py``): the wall time of each set-up and body,
rescaled by the host's speed sampled on the same CPU while it ran.
``--workload all`` runs the workloads BENCHMARK.json lists.
``--trace 0`` reports the end-to-end metrics with no wrappers
installed; ``--trace 1`` alternates untraced and traced iterations and
reports the per-layer metrics.  Outputs are checked outside the timed
window.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: model scale of every workload's inputs
SCALE = 1.0
#: digests of first runs, spans of traced runs
STATE_DIR = ROOT / ".perfbench"

#: each selects a different program (scalar kernels, injected faults,
#: a warm disk cache), so a run with any of them set measures something
#: else
REFUSED_ENV = ("REPRO_PLACE_SCALAR", "REPRO_STA_SCALAR", "REPRO_FAULTS",
               "REPRO_BENCH_CACHE_DIR")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
#: the modules every workload needs; their import time is set-up time
IMPORTS = ("repro.analysis.experiments", "repro.analysis.export_json",
           "repro.core.fullchip", "repro.eco.driver", "repro.lint")
SETUP_REPEATS = 3

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.speed import PERIOD_S, SpeedClock  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot run here; nothing is measured."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare_environment() -> None:
    """Refuse foreign settings, pin threads and make ``src`` importable.

    Must run before the first ``repro`` (or numpy) import.
    """
    bad = [v for v in REFUSED_ENV if os.environ.get(v)]
    if bad:
        raise BenchError(f"refusing to run with {', '.join(bad)} set: "
                         "each measures a different program")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    os.environ["REPRO_TRACE"] = "0"
    for var in BLAS_ENV:
        os.environ.setdefault(var, str(nproc()))
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def import_program() -> float:
    """Import the program's modules; returns the seconds it took at
    reference speed."""
    with SpeedClock() as clock:
        for name in IMPORTS:
            __import__(name)
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    return clock.ref_s


def child_import_seconds() -> float:
    """Import time of the program's modules in a fresh interpreter, at
    reference speed."""
    code = ("import sys; sys.path[:0] = sys.argv[1:]; "
            "from perfbench.speed import SpeedClock\n"
            "with SpeedClock() as clock:\n"
            + "".join(f"    import {m}\n" for m in IMPORTS)
            + "print(clock.ref_s)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC), str(ROOT)],
                         capture_output=True, text=True, timeout=120,
                         check=True, env=dict(os.environ))
    return float(out.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    """sha256 over the program's sources: the code identity of a run."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        **{v: os.environ.get(v) for v in BLAS_ENV},
        "git_revision": git_revision(), "src_sha256": source_digest(),
    }


# -- first-run digests -----------------------------------------------------

class DigestStore:
    """Output digests of the first run per (code, workload, seed)."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.data: Dict[str, List[str]] = {}
        try:
            self.data = json.loads(path.read_text())
        except (OSError, ValueError):
            pass

    def get(self, key: str) -> Optional[List[str]]:
        return self.data.get(key)

    def put(self, key: str, digests: List[str]) -> None:
        self.data[key] = digests
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def mismatched_ops(digests: List[str], reference: List[str],
                   ops: int) -> set:
    """Operations whose digest differs from the reference."""
    if len(digests) != len(reference):
        return set(range(ops))
    bad = {i for i, (a, b) in enumerate(zip(digests, reference)) if a != b}
    if bad and len(digests) == 1:
        return set(range(ops))
    return bad


# -- one run ---------------------------------------------------------------

class Run:
    """The state of one benchmark run of one workload.

    Every iteration runs the body on the set-up inputs, so the inputs a
    run measures do not depend on how fast the program is.
    """

    def __init__(self, workload, ctx, inputs, seconds: float,
                 store: DigestStore, code_id: str) -> None:
        self.w = workload
        self.ctx = ctx
        self.inputs = inputs
        self.seconds = seconds
        self.store = store
        self.key = f"{code_id}:{workload.name}:{ctx.seed}"
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        #: cells of the input, counted when the first output is checked
        self.cells: Optional[int] = None
        self.cells_per_s: List[float] = []

    def iteration(self, instrumentation=None) -> Tuple[SpeedClock, bool]:
        """Run the body once; check its output outside the timing.

        ``instrumentation`` (span wrappers) is installed before the
        clock starts and removed after it stops; its spans are not
        probed inside, so that they hold the program's time only.
        Returns the body's clock and whether it completed without
        raising.
        """
        w, ctx = self.w, self.ctx
        self.attempted += w.ops
        period = None if instrumentation else PERIOD_S
        with instrumentation or contextlib.nullcontext():
            with SpeedClock(period) as clock:
                try:
                    out = w.body(ctx, self.inputs)
                except Exception:  # a failed operation, reported, counted
                    out = None
                    self.messages.append(traceback.format_exc())
        if out is None:
            self.failed += w.ops
            return clock, False
        bad = set()
        if self.cells is None:
            for op, msg in w.check(ctx, self.inputs, out):
                bad |= set(range(w.ops)) if op is None else {op}
                self.messages.append(f"seed {ctx.seed}: {msg}")
            self.cells = w.cells(ctx, self.inputs, out)
        self.cells_per_s.append(self.cells / clock.ref_s)
        digests = w.digests(out)
        reference = self.store.get(self.key)
        if reference is None:
            if not bad:
                self.store.put(self.key, digests)
        else:
            diff = mismatched_ops(digests, reference, w.ops)
            if diff:
                self.messages.append(
                    f"seed {ctx.seed}: output digest of ops {sorted(diff)} "
                    "differs from the first run of this code and seed")
            bad |= diff
        self.failed += len(bad)
        return clock, True


def _median(xs: Sequence[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    """One benchmark run; returns the full record."""
    from perfbench.workloads import Context, get_workload

    workload = get_workload(args.workload)
    import_s = [import_program()]
    import_s += [child_import_seconds() for _ in range(SETUP_REPEATS - 1)]

    from repro.tech.process import make_process

    setup_s = []
    for i in range(SETUP_REPEATS):
        with SpeedClock() as clock:
            ctx = Context(make_process(), args.seed, SCALE)
            inputs = workload.setup(ctx)
        setup_s.append(import_s[i] + clock.ref_s)

    env = environment(args)
    store = DigestStore(STATE_DIR / "digests.json")
    # the first-run digests belong to the program and the workload
    # definitions together
    bench_sha = hashlib.sha256(
        (ROOT / "perfbench" / "workloads.py").read_bytes()).hexdigest()
    run = Run(workload, ctx, inputs, args.seconds, store,
              f"{env['src_sha256'][:16]}-{bench_sha[:8]}")
    record: Dict[str, Any] = {"env": env}
    if args.trace:
        record.update(_traced(run, args))
    else:
        clocks = _timed(run)
        walls = [c.ref_s for c in clocks]
        record["samples"] = {"wall_s": walls, "setup_s": setup_s,
                             "measured_wall_s": [c.wall_s for c in clocks],
                             "speed": [c.speed for c in clocks]}
        record["metrics"] = {
            "wall_s": _median(walls),
            "cells_per_s": _median(run.cells_per_s),
            "setup_s": _median(setup_s),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    record.update(attempted=run.attempted, failed=run.failed,
                  failed_frac=run.failed / max(1, run.attempted),
                  cells=run.cells,
                  messages=run.messages[:20])
    return record


def _timed(run: Run) -> List[SpeedClock]:
    clocks: List[SpeedClock] = []
    busy = 0.0
    while busy < run.seconds or not clocks:
        clock, ok = run.iteration()
        clocks.append(clock)
        busy += clock.wall_s
        if not ok:
            break
    return clocks


def _traced(run: Run, args: argparse.Namespace) -> Dict[str, Any]:
    """Pairs of untraced and traced iterations."""
    from perfbench.layers import (PER_LAYER, TARGETS, layer_metrics,
                                  median_iteration)
    from perfbench.spans import Instrumentation, Recorder
    from repro.obs.metrics import metrics

    run_id = f"{run.w.name}-s{args.seed}-{os.getpid()}-{time.time_ns()}"
    plain: List[float] = []
    traced: List[Dict[str, float]] = []
    first_spans = None
    busy = 0.0
    while busy < run.seconds or not traced:
        clock, ok = run.iteration()
        if not ok:
            break
        rec = Recorder(run_id)
        before = metrics().snapshot()
        traced_clock, ok = run.iteration(Instrumentation(TARGETS, rec))
        if not ok:
            break
        busy += clock.wall_s + traced_clock.wall_s
        plain.append(clock.ref_s)
        counters = metrics().diff(before)["counters"]
        m = layer_metrics(rec.spans, counters, traced_clock.wall_s)
        m["trace_overhead"] = traced_clock.ref_s / clock.ref_s
        traced.append(m)
        if first_spans is None:
            first_spans = rec.spans
    out: Dict[str, Any] = {"samples": {"wall_s": plain}}
    if not traced:
        out["metrics"] = {k: 0.0 for k in PER_LAYER}
        return out
    out["metrics"] = median_iteration(traced)
    out["metrics"]["trace_overhead"] = _median(
        [t["trace_overhead"] for t in traced])
    out["samples"]["traced_wall_s"] = [t["traced.wall_s"] for t in traced]
    if first_spans is not None:
        write_spans(STATE_DIR / f"spans-{run.w.name}-s{args.seed}.jsonl",
                    first_spans)
    return out


def write_spans(path: Path, spans) -> None:
    """Write one traced iteration's spans as JSON lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for i, sp in enumerate(spans):
            fh.write(json.dumps(sp.to_dict(i)) + "\n")


# -- output ----------------------------------------------------------------

def _units(trace: bool) -> Dict[str, str]:
    if trace:
        from perfbench.layers import PER_LAYER
        return PER_LAYER
    return {"wall_s": "s", "cells_per_s": "cells/s", "setup_s": "s",
            "peak_rss_mb": "MB", "failed_frac": "ratio"}


def result_line(record: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The result line: correctness, operation counts and metrics."""
    units = _units(trace)
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in record["metrics"].items()},
    }


def print_report(record: Dict[str, Any], trace: bool) -> None:
    units = _units(trace)
    env = record["env"]
    print(f"workload {env['workload']} seed {env['seed']} "
          f"trace {int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    for msg in record["messages"]:
        print("FAILED: " + msg.rstrip())
    rows = dict(record["metrics"])
    if not trace:
        rows["failed_frac"] = record["failed_frac"]
    for k, v in rows.items():
        print(f"  {k:28s} {v:14.6g} {units[k]}")
    print(f"  {'operations':28s} {record['attempted']:14d} attempted, "
          f"{record['failed']} failed")


def run_all(args: argparse.Namespace) -> int:
    """The workloads BENCHMARK.json lists, one after another, each in its
    own process."""
    names = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]

    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, Any] = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro design flows.")
    p.add_argument("--workload", default="all",
                   help="spc_fold, chip_2d, fig7_sweep, eco_derive, or all "
                        "of those BENCHMARK.json lists")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="body time to measure for")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full run record (JSON line)")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                   help="compare two files of run records and exit")
    p.add_argument("--scaling", action="store_true",
                   help="print the per-layer scaling report and exit")
    return p.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    from perfbench.workloads import UnknownWorkloadError, get_workload
    if args.compare:
        from perfbench.compare import compare_files
        print(compare_files(*args.compare))
        return 0
    try:
        if args.workload != "all":
            get_workload(args.workload)
        prepare_environment()
        if args.scaling:
            from perfbench.scaling import scaling_report
            import_program()
            print(scaling_report(args.seed))
            return 0
        if args.workload == "all":
            return run_all(args)
        record = measure(args)
    except (BenchError, UnknownWorkloadError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print_report(record, bool(args.trace))
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
