"""One point executor for experiments and design-space grid points.

The paper's artifacts are twelve independent experiments; the
design-space explorer walks an independent grid of chip
configurations.  Every such point -- a bench sweep, an explore grid,
a service broker shard -- runs through :func:`execute`, under one of
two policies the caller picks:

* :class:`Serial` runs attempts in-process against a caller-owned
  :class:`~repro.tech.process.ProcessNode` and
  :class:`~repro.core.cache.DesignCache` (no spawn cost, and the pair
  amortizes across calls).  Timeouts are cooperative: the deadline is
  handed to the fault hooks, so an injected hang raises
  :class:`~repro.faults.inject.InjectedHang` once the budget is spent,
  but a genuinely slow stage cannot be preempted;
* :class:`Supervised` runs every attempt in its own spawned worker
  process (a fresh process node, and a design cache on the shared
  ``cache_dir`` -- disk writes are atomic, so concurrent workers share
  the directory safely and warm reruns are near-free).  The supervisor
  keeps at most ``workers`` alive and multiplexes over their pipes with
  bounded waits, so a *crashed* worker is detected by its exit code and
  a *hung* one is killed at the per-attempt ``timeout_s`` deadline --
  neither can block collection forever.

Both policies share everything else:

* one attempt body (:func:`_attempt`): snapshot the cache (and, in a
  worker, the observability) state, enter the task's fault context,
  pass the engine-level ``fault_point("task")``, run the task -- so
  every injection an attempt performs is accounted for the same way
  under either policy;
* one retry loop: failed attempts are retried up to ``retries`` times
  with exponential backoff plus deterministic jitter (seeded per
  task/attempt, so a rerun schedules identically), and every retry,
  timeout, crash and give-up is recorded as ``tasks.*`` counters plus
  zero-length ``task.*`` marker spans;
* graceful degradation: a task that exhausts its attempts comes back
  as an :class:`Outcome` with ``status`` / ``attempts`` / ``error`` set
  instead of raising -- partial results are first-class;
* coalescing: a task listed twice runs once and its outcome fills
  every slot.

Tasks carry explicit ``(id, scale, seed)`` coordinates, so scheduling
order cannot influence the numbers: a supervised run is byte-identical
(after key-sorted serialization) to the serial run.  Observability
survives the process boundary: each worker attempt ships back its
spans and its metrics and cache-stat deltas, and the parent folds them
into its own tracer and registry -- after :func:`execute` returns,
both policies leave the same record behind.

Deterministic chaos testing plugs in through :mod:`repro.faults`: a
:class:`~repro.faults.plan.FaultPlan` (from ``REPRO_FAULTS`` or passed
as ``fault_plan=``) is shipped to every worker, and the same seeded
plan replays the identical fault sequence -- ``python -m repro chaos``
drives exactly this path.  With no plan active the fault hooks are
inert and the engine behaves (and serializes) exactly as before.

The start method is ``spawn``: workers import a fresh interpreter
instead of forking accumulated parent state, which keeps runs
reproducible no matter what the parent process did before.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import time
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..analysis.experiments import (EXPERIMENTS, ExperimentOptions,
                                    result_to_dict, run_experiment)
from ..core.cache import DesignCache
from ..core.explore import evaluate_point, point_label
from ..faults import inject as faults
from ..faults.plan import FaultPlan
from ..obs import export, trace
from ..obs.metrics import metrics
from ..service.schema import PointSpec, SweepRequest
from ..tech.process import ProcessNode, make_process

#: retry backoff: the first retry waits ``BACKOFF_S``, each later one
#: ``BACKOFF_FACTOR`` times longer, plus up to ``JITTER`` of seeded spread
BACKOFF_S = 0.25
BACKOFF_FACTOR = 2.0
JITTER = 0.25
#: how long a stopped worker may take to die before terminate -> kill
TERM_GRACE_S = 2.0

#: one unit of work: an experiment point, or a design-space grid point
#: ``(style, dual_vth, scale, seed)``
Task = Union[PointSpec, Tuple[str, bool, float, int]]

#: the additive CacheStats fields (``hit_rate`` is derived, recomputed
#: after aggregation)
_CACHE_FIELDS = ("hits", "disk_hits", "misses", "stores", "evictions",
                 "corrupt_drops")


def _cache_delta(after: Dict[str, float],
                 before: Dict[str, float]) -> Dict[str, float]:
    """One attempt's contribution to a cache's cumulative stats."""
    return {k: after.get(k, 0) - before.get(k, 0) for k in _CACHE_FIELDS}


def _aggregate_cache(deltas: Iterable[Dict[str, float]]
                     ) -> Dict[str, float]:
    """Fold cache-stat deltas into one stats dict."""
    total: Dict[str, float] = {k: 0 for k in _CACHE_FIELDS}
    for d in deltas:
        for k in _CACHE_FIELDS:
            total[k] += d.get(k, 0)
    lookups = total["hits"] + total["disk_hits"] + total["misses"]
    total["hit_rate"] = ((total["hits"] + total["disk_hits"]) / lookups
                         if lookups else 0.0)
    return total


class EngineError(RuntimeError):
    """Unrecoverable engine failure (design-space grid points exhausted
    their retries)."""


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance knobs for one engine run.

    Attributes:
        timeout_s: per-attempt wall-clock budget.  A supervised worker
            still running at the deadline is killed; a serial attempt
            gets it as a cooperative deadline (it preempts injected
            hangs).  ``None`` disables the deadline (crashed workers
            are still detected -- collection never blocks forever on a
            dead process).
        retries: extra attempts after the first (``0`` = fail fast).
    """

    timeout_s: Optional[float] = None
    retries: int = 0

    @property
    def max_attempts(self) -> int:
        return max(1, self.retries + 1)


def _backoff_delay(label: str, attempt: int) -> float:
    """Delay before retrying task ``label`` after failed ``attempt``.

    Exponential in the attempt number with deterministic jitter
    (string-seeded :class:`random.Random` is stable across processes),
    so the same run replays the same schedule.
    """
    base = BACKOFF_S * (BACKOFF_FACTOR ** (attempt - 1))
    rng = random.Random(f"repro-backoff:{label}:{attempt}")
    return base * (1.0 + JITTER * rng.random())


@dataclass
class Serial:
    """In-process policy: attempts run on the calling thread against a
    caller-owned process node and design cache; timeouts only preempt
    injected hangs (use :class:`Supervised` for hard kills)."""

    process: ProcessNode = field(default_factory=make_process)
    cache: DesignCache = field(default_factory=DesignCache)


@dataclass(frozen=True)
class Supervised:
    """Worker policy: every attempt runs in its own spawned process
    with a fresh process node and a design cache on ``cache_dir``; at
    most ``workers`` run at once.  A worker is killed at the attempt
    deadline, a crashed one is detected by its exit code, and either
    is replaced by a fresh process for the next attempt."""

    workers: int = 1
    cache_dir: Optional[str] = None


@dataclass
class Outcome:
    """Final state of one task, under either policy.

    ``status`` is ``"ok"`` (``value`` holds the result: an experiment's
    :func:`~repro.analysis.experiments.result_to_dict` form, or a grid
    point's :class:`~repro.core.explore.DesignPoint`), ``"failed"``
    (raised or crashed on every attempt) or ``"timeout"`` (cut at the
    deadline on every attempt).  ``attempts`` counts the attempts that
    ran and ``error`` carries the final one's failure; ``wall_s`` and
    ``cache`` (design-cache-stat deltas) sum over every attempt.
    """

    status: str = "pending"
    value: Any = None
    attempts: int = 0
    error: Optional[str] = None
    wall_s: float = 0.0
    cache: Dict[str, float] = field(
        default_factory=lambda: _aggregate_cache([]))


@dataclass
class ExperimentRun:
    """One experiment's outcome plus its wall-clock cost.

    ``status`` is ``"ok"`` (result present), ``"failed"`` (raised on
    every attempt) or ``"timeout"`` (killed at the deadline on every
    attempt); ``attempts`` counts how many attempts ran, and ``error``
    carries the final attempt's failure message.
    """

    experiment_id: str
    wall_s: float
    all_passed: bool
    result: Dict[str, Any]
    status: str = "ok"
    attempts: int = 1
    error: Optional[str] = None

    @classmethod
    def from_outcome(cls, experiment_id: str,
                     outcome: Outcome) -> "ExperimentRun":
        """The run record of one experiment task's :class:`Outcome`."""
        ok = outcome.status == "ok"
        return cls(experiment_id=experiment_id, wall_s=outcome.wall_s,
                   all_passed=ok and outcome.value["all_passed"],
                   result=outcome.value if ok else {},
                   status=outcome.status, attempts=outcome.attempts,
                   error=outcome.error)


@dataclass
class BenchReport:
    """The full bench run: per-experiment results and timings.

    Partial results are first-class: a task that exhausted its retries
    appears with ``status != "ok"`` and an empty ``result`` instead of
    poisoning the run.  :meth:`completed` says whether every task
    produced a result; :attr:`all_passed` additionally requires every
    shape check to pass.
    """

    runs: List[ExperimentRun]
    total_wall_s: float
    parallel: int
    scale: float
    seed: int
    #: aggregated across the whole run (per-task deltas summed;
    #: ``None`` only for empty runs)
    cache_stats: Optional[Dict[str, float]] = None
    #: per-task cache-stat deltas, request order
    worker_cache_stats: List[Dict[str, float]] = field(default_factory=list)
    #: every span recorded during the run (dict form; workers merged in)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: metrics snapshot of the run (this run's delta, workers merged in)
    metrics: Optional[Dict[str, Any]] = None

    @property
    def all_passed(self) -> bool:
        return all(r.all_passed for r in self.runs)

    def completed(self) -> bool:
        """Did every task produce a result (shape checks aside)?"""
        return all(r.status == "ok" for r in self.runs)

    def completed_runs(self) -> List[ExperimentRun]:
        """The runs that produced a result."""
        return [r for r in self.runs if r.status == "ok"]

    def failed_runs(self) -> List[ExperimentRun]:
        """The runs that exhausted their attempts (failed or timed
        out)."""
        return [r for r in self.runs if r.status != "ok"]

    def results_dict(self) -> Dict[str, Any]:
        """Experiment id -> serialized result (timings excluded, so the
        bytes are comparable across serial/parallel and cold/warm).
        Only completed runs serialize: a degraded run's dict is the
        uninjected dict minus the failed ids, nothing else moves."""
        return {r.experiment_id: r.result for r in self.runs
                if r.status == "ok"}

    def results_json(self, indent: int = 2) -> str:
        return json.dumps(self.results_dict(), sort_keys=True,
                          indent=indent)

    def timing_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "parallel": self.parallel,
            "scale": self.scale,
            "seed": self.seed,
            "total_wall_s": self.total_wall_s,
            "experiments": {r.experiment_id: r.wall_s for r in self.runs},
        }
        if self.cache_stats is not None:
            out["cache"] = self.cache_stats
        degraded = {
            r.experiment_id: {
                "status": r.status, "attempts": r.attempts,
                **({"error": r.error} if r.error else {})}
            for r in self.runs if r.status != "ok" or r.attempts > 1}
        if degraded:
            out["resilience"] = degraded
        return out

    def timing_json(self, indent: int = 2) -> str:
        return json.dumps(self.timing_dict(), sort_keys=True,
                          indent=indent)

    def summary(self) -> str:
        lines = [f"{'experiment':10s} {'checks':>6s} {'wall':>8s}"]
        for r in self.runs:
            if r.status == "ok":
                mark = "PASS" if r.all_passed else "FAIL"
            else:
                mark = "TIME" if r.status == "timeout" else "ERR"
            note = f" (x{r.attempts})" if r.attempts > 1 else ""
            lines.append(f"{r.experiment_id:10s} {mark:>6s} "
                         f"{r.wall_s:7.2f}s{note}")
        mode = (f"{self.parallel} workers" if self.parallel > 1
                else "serial")
        lines.append(f"{'total':10s} {'':6s} {self.total_wall_s:7.2f}s "
                     f"({mode})")
        if self.cache_stats is not None:
            cs = self.cache_stats
            lines.append(f"cache: {cs['hits']:.0f} memory hits, "
                         f"{cs['disk_hits']:.0f} disk hits, "
                         f"{cs['misses']:.0f} misses "
                         f"({cs['hit_rate']:.0%} hit rate)")
        failed = self.failed_runs()
        if failed:
            lines.append(
                f"degraded: {len(failed)} of {len(self.runs)} "
                f"experiments without a result "
                f"({', '.join(r.experiment_id for r in failed)})")
        return "\n".join(lines)

    def write_trace(self, path: Union[str, Path],
                    meta: Optional[Dict[str, Any]] = None) -> Path:
        """Write this run's merged trace (spans + metrics) as JSONL."""
        header: Dict[str, Any] = {
            "parallel": self.parallel,
            "scale": self.scale,
            "seed": self.seed,
            "total_wall_s": self.total_wall_s,
            "experiments": [r.experiment_id for r in self.runs],
        }
        header.update(meta or {})
        return export.write_trace(path, self.spans, metrics=self.metrics,
                                  meta=header)


# ---------------------------------------------------------------------------
# The attempt body both policies share
# ---------------------------------------------------------------------------

def _task_label(task: Task) -> str:
    """The task id fault specs and backoff jitter key on."""
    if isinstance(task, PointSpec):
        return task.experiment_id
    return point_label(task[0], task[1])


def _attempt(task: Task, attempt: int, deadline: Optional[float],
             process: ProcessNode, cache: DesignCache, ship_obs: bool
             ) -> Tuple[str, Any, Dict[str, Any]]:
    """Run one attempt of one task.

    The snapshots are taken *before* the engine-level ``task`` fault
    point, so whatever the attempt injects lands in its payload.
    Returns ``(status, value, payload)``: status ``"ok"`` with the
    task's value, or ``"failed"`` / ``"timeout"`` / ``"crash"`` with
    the error text.  The payload holds the attempt's cache-stat delta
    and, with ``ship_obs`` (a worker's attempt, whose records would
    otherwise die with its process), its spans and metrics delta.
    Never raises for task-level failures.
    """
    tracer = trace.get_tracer()
    n_spans = len(tracer.spans)
    metrics_before = metrics().snapshot() if ship_obs else None
    cache_before = cache.stats.as_dict()
    value: Any
    try:
        with faults.task_context(_task_label(task), attempt, deadline):
            faults.fault_point("task")
            if isinstance(task, PointSpec):
                value = result_to_dict(run_experiment(
                    task.experiment_id, ExperimentOptions(
                        process=process, scale=task.scale,
                        seed=task.seed, cache=cache)))
            else:
                style, dual_vth, scale, seed = task
                value = evaluate_point(process, style, dual_vth,
                                       scale=scale, seed=seed, cache=cache)
        status = "ok"
    except faults.InjectedHang as exc:
        status, value = "timeout", str(exc)
    except faults.InjectedCrash as exc:
        status, value = "crash", f"{type(exc).__name__}: {exc}"
    except Exception as exc:
        status, value = "failed", f"{type(exc).__name__}: {exc}"
    payload: Dict[str, Any] = {
        "cache": _cache_delta(cache.stats.as_dict(), cache_before)}
    if metrics_before is not None:
        payload["spans"] = tracer.spans[n_spans:]
        payload["metrics"] = metrics().diff(metrics_before)
    return status, value, payload


def _child_main(conn, task: Task, attempt: int, cache_dir: Optional[str],
                plan: Optional[FaultPlan]) -> None:
    """Entry point of one supervised attempt (spawn target).

    Sends exactly one ``(status, value, payload)`` message back.  An
    injected crash exits without a word and a hang never returns: the
    supervisor detects both from the outside.
    """
    # the supervisor's resolved plan is authoritative -- installing
    # None too keeps a control run inert even when the child inherited
    # a REPRO_FAULTS environment variable
    faults.install(plan)
    status, value, payload = _attempt(task, attempt, None, make_process(),
                                      DesignCache(cache_dir=cache_dir),
                                      ship_obs=True)
    if status == "crash":
        # die without a word: the supervisor must detect this from the
        # exit code alone and replace the worker
        conn.close()
        os._exit(3)
    try:
        conn.send((status, value, payload))
    except Exception:
        pass
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------

@dataclass
class _Live:
    """One in-flight worker process."""

    proc: Any
    conn: Any
    attempt: int
    deadline: Optional[float]
    t0: float


def _stop_worker(lv: _Live) -> None:
    """Kill one worker process, escalating terminate -> kill."""
    try:
        lv.proc.terminate()
        lv.proc.join(TERM_GRACE_S)
        if lv.proc.is_alive():
            lv.proc.kill()
            lv.proc.join(TERM_GRACE_S)
    except Exception:
        pass
    try:
        lv.conn.close()
    except Exception:
        pass


def execute(tasks: Sequence[Task], policy: Union[Serial, Supervised],
            resilience: Optional[ResilienceConfig] = None,
            fault_plan: Optional[FaultPlan] = None) -> List[Outcome]:
    """Run ``tasks`` under ``policy``; one :class:`Outcome` per task,
    in task order.

    ``fault_plan`` defaults to the ambient plan (``REPRO_FAULTS`` or a
    prior :func:`repro.faults.install`); a supervised run ships it to
    every worker, a serial run installs an explicit one for the call's
    duration.  A task listed more than once runs once, and the same
    :class:`Outcome` fills each of its slots.  Never raises for
    task-level failures.
    """
    res = resilience if resilience is not None else ResilienceConfig()
    unique = list(dict.fromkeys(tasks))
    with ExitStack() as stack:
        if isinstance(policy, Serial) and fault_plan is not None:
            stack.enter_context(faults.installed(fault_plan))
        plan = fault_plan if fault_plan is not None else \
            faults.active_plan()
        outcomes = _run(unique, policy, res, plan)
    by_task = dict(zip(unique, outcomes))
    return [by_task[t] for t in tasks]


def _run(tasks: Sequence[Task], policy: Union[Serial, Supervised],
         res: ResilienceConfig,
         plan: Optional[FaultPlan]) -> List[Outcome]:
    """The retry loop: launch ready attempts, collect finished ones,
    and retry each failure with backoff until every task has an
    outcome."""
    capacity = 1 if isinstance(policy, Serial) else \
        max(1, min(policy.workers, len(tasks)))
    ctx = multiprocessing.get_context("spawn")
    outcomes = [Outcome() for _ in tasks]
    #: (not before, monotonic; task index; attempt)
    pending: List[Tuple[float, int, int]] = [(0.0, i, 1)
                                             for i in range(len(tasks))]
    live: Dict[int, _Live] = {}
    unsettled = len(tasks)

    def settle(index: int, attempt: int, status: str, value: Any,
               elapsed: float, payload: Optional[Dict]) -> None:
        """Record one finished attempt: success, retry, or give up."""
        nonlocal unsettled
        o = outcomes[index]
        o.attempts = attempt
        o.wall_s += elapsed
        if payload is not None:
            o.cache = _aggregate_cache([o.cache, payload["cache"]])
            if "metrics" in payload:
                metrics().merge_snapshot(payload["metrics"])
                trace.get_tracer().adopt(payload["spans"])
        if status == "ok":
            o.status, o.value = "ok", value
            unsettled -= 1
            return
        label = _task_label(tasks[index])
        if status == "timeout":
            metrics().counter("tasks.timed_out").inc()
            with trace.span("task.timeout", task=label, attempt=attempt,
                            timeout_s=res.timeout_s):
                pass
        if attempt < res.max_attempts:
            metrics().counter("tasks.retried").inc()
            delay = _backoff_delay(label, attempt)
            with trace.span("task.retry", task=label, attempt=attempt,
                            reason=status, backoff_s=round(delay, 4)):
                pass
            pending.append((time.monotonic() + delay, index, attempt + 1))
        else:
            metrics().counter("tasks.failed").inc()
            with trace.span("task.gave_up", task=label, attempt=attempt,
                            reason=status):
                pass
            o.status, o.error = status, value
            unsettled -= 1

    try:
        while unsettled:
            # launch every ready pending attempt while capacity remains
            pending.sort()
            while pending and pending[0][0] <= time.monotonic() and \
                    len(live) < capacity:
                _, index, attempt = pending.pop(0)
                t0 = time.monotonic()
                deadline = t0 + res.timeout_s if res.timeout_s else None
                if isinstance(policy, Serial):
                    status, value, payload = _attempt(
                        tasks[index], attempt, deadline, policy.process,
                        policy.cache, ship_obs=False)
                    # in-process there is no worker to lose: an
                    # injected crash is a plain failure
                    settle(index, attempt,
                           "failed" if status == "crash" else status,
                           value, time.monotonic() - t0, payload)
                    continue
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_child_main,
                    args=(child_conn, tasks[index], attempt,
                          policy.cache_dir, plan))
                proc.start()
                child_conn.close()
                live[index] = _Live(proc=proc, conn=parent_conn,
                                    attempt=attempt, deadline=deadline,
                                    t0=t0)
            if not live:
                if unsettled:
                    # nothing running: sleep toward the earliest backoff
                    wake = min(p[0] for p in pending)
                    time.sleep(min(max(wake - time.monotonic(), 0.0),
                                   0.05))
                continue
            # bounded multiplexed wait: readable pipes, next deadline,
            # or the next pending launch -- whichever comes first
            wait_s = 0.05
            deadlines = [lv.deadline for lv in live.values()
                         if lv.deadline is not None]
            if deadlines:
                wait_s = min(wait_s,
                             max(min(deadlines) - time.monotonic(), 0.0))
            mp_connection.wait([lv.conn for lv in live.values()],
                               timeout=wait_s)
            now = time.monotonic()
            for index in list(live):
                lv = live[index]
                msg = None
                readable = lv.conn.poll(0)
                if not readable and not lv.proc.is_alive():
                    # died between sends? give the pipe one last look
                    readable = lv.conn.poll(0.05)
                if readable:
                    try:
                        msg = lv.conn.recv()
                    except (EOFError, OSError):
                        msg = None
                if msg is not None:
                    del live[index]
                    lv.proc.join(TERM_GRACE_S)
                    if lv.proc.is_alive():
                        _stop_worker(lv)
                    else:
                        lv.conn.close()
                    status, value, payload = msg
                    settle(index, lv.attempt, status, value, now - lv.t0,
                           payload)
                elif not lv.proc.is_alive():
                    del live[index]
                    lv.conn.close()
                    metrics().counter("tasks.crashed").inc()
                    with trace.span("task.crash",
                                    task=_task_label(tasks[index]),
                                    attempt=lv.attempt,
                                    exitcode=lv.proc.exitcode):
                        pass
                    settle(index, lv.attempt, "failed",
                           f"worker crashed (exit code "
                           f"{lv.proc.exitcode})", now - lv.t0, None)
                elif lv.deadline is not None and now >= lv.deadline:
                    del live[index]
                    _stop_worker(lv)
                    settle(index, lv.attempt, "timeout",
                           f"timed out after {res.timeout_s:g}s",
                           now - lv.t0, None)
    finally:
        for lv in live.values():
            _stop_worker(lv)
    return outcomes


# ---------------------------------------------------------------------------
# Experiment sweeps
# ---------------------------------------------------------------------------

def run_experiments(ids: Optional[Iterable[str]] = None,
                    parallel: int = 0,
                    scale: float = 1.0,
                    seed: int = 1,
                    cache_dir: Optional[str] = None,
                    process=None,
                    timeout_s: Optional[float] = None,
                    retries: int = 0,
                    fault_plan: Optional[FaultPlan] = None
                    ) -> BenchReport:
    """Run a set of registered experiments, serially or supervised.

    Args:
        ids: experiment ids (default: the whole registry, in registry
            order -- the output order is always the request order, not
            completion order).
        parallel: worker count; ``0``/``1`` runs serially in-process.
        scale: model-scale multiplier for every experiment.
        seed: generation/placement seed for every experiment.
        cache_dir: optional persistent design-cache directory, shared
            by all workers.
        process: technology node for the serial path (workers always
            build their own).
        timeout_s: per-task wall-clock budget per attempt (parallel
            workers are killed at the deadline; the serial path
            enforces it cooperatively against injected hangs).
        retries: extra attempts for failed/timed-out tasks.
        fault_plan: chaos plan to activate for this run (shipped to
            every worker; the serial path installs it for the run's
            duration).  Defaults to the ambient plan (``REPRO_FAULTS``
            or a prior :func:`repro.faults.install`).

    Returns:
        A :class:`BenchReport`; ``results_json()`` is byte-identical
        across serial and parallel runs of the same request.  Tasks
        that exhaust their attempts degrade into ``status``-marked
        runs instead of raising -- the report always comes back.

    Raises:
        ValueError: on unknown experiment ids, or on the same id
            submitted twice in one batch (the report keys results by
            id, so duplicates used to silently overwrite each other).
    """
    request = SweepRequest.from_ids(ids, scale=scale, seed=seed,
                                    timeout_s=timeout_s, retries=retries)
    return run_sweep(request, parallel=parallel, cache_dir=cache_dir,
                     process=process, fault_plan=fault_plan)


def run_sweep(request: SweepRequest,
              parallel: int = 0,
              cache_dir: Optional[str] = None,
              process=None,
              fault_plan: Optional[FaultPlan] = None) -> BenchReport:
    """Run one :class:`~repro.service.schema.SweepRequest`.

    The schema-first twin of :func:`run_experiments` -- the CLI and
    library callers build a frozen :class:`SweepRequest` and hand it
    here, instead of re-threading flag soup into engine kwargs.  The
    request's ``timeout_s`` / ``retries`` set the
    :class:`ResilienceConfig`.  The points run :class:`Supervised` when
    ``parallel > 1`` and there is more than one, else :class:`Serial`.

    Raises:
        ValueError: when the request is empty, names unknown ids,
            repeats a point, or repeats an experiment id (the report's
            ``results_dict()`` is id-keyed; overlapping sweeps belong
            on the service broker, which coalesces by content hash).
    """
    request.validate(known=EXPERIMENTS)
    ids = request.experiment_ids()
    dupes = sorted(eid for eid, n in Counter(ids).items() if n > 1)
    if dupes:
        raise ValueError(
            f"duplicate experiment ids in one batch: "
            f"{', '.join(dupes)}; results are keyed by id -- submit "
            f"each id once (concurrent identical sweeps coalesce on "
            f"the service broker instead)")
    res = ResilienceConfig(timeout_s=request.timeout_s,
                           retries=request.retries)
    supervised = parallel > 1 and len(ids) > 1
    policy: Union[Serial, Supervised] = (
        Supervised(workers=parallel, cache_dir=cache_dir) if supervised
        else Serial(process if process is not None else make_process(),
                    DesignCache(cache_dir=cache_dir)))
    scale, seed = request.points[0].scale, request.points[0].seed
    tracer = trace.get_tracer()
    n_spans = len(tracer.spans)
    metrics_before = metrics().snapshot()
    t0 = time.perf_counter()
    with trace.span("bench", parallel=parallel if supervised else 1,
                    scale=scale, seed=seed, n_experiments=len(ids)):
        outcomes = execute(request.points, policy, res, fault_plan)
    per_task = [o.cache for o in outcomes]
    return BenchReport(
        runs=[ExperimentRun.from_outcome(p.experiment_id, o)
              for p, o in zip(request.points, outcomes)],
        total_wall_s=time.perf_counter() - t0,
        parallel=max(parallel, 1) if len(ids) > 1 else 1,
        scale=scale, seed=seed,
        cache_stats=_aggregate_cache(per_task),
        worker_cache_stats=per_task,
        spans=[sp.to_dict() for sp in tracer.spans[n_spans:]],
        metrics=metrics().diff(metrics_before))
