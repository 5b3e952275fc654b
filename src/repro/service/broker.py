"""Asyncio experiment broker: sweeps as a streaming network service.

``python -m repro serve`` runs one of these.  Clients submit
:class:`~repro.service.schema.SweepRequest` batches over a
newline-delimited-JSON TCP (or unix-socket) connection and results
stream back *as each point completes* -- completion order, not request
order; the request-order batch view stays available through
:func:`repro.parallel.run_sweep`.

Scheduling is work-stealing over ``shards`` worker shards.  Each shard
is an asyncio consumer loop feeding a single-thread executor whose
body is one :func:`~repro.parallel.engine.execute` call, under the
shard's policy: ``shard_mode="process"`` runs every point
:class:`~repro.parallel.engine.Supervised` (its own spawned worker --
hard timeouts, crash replacement), ``shard_mode="inline"`` runs points
:class:`~repro.parallel.engine.Serial` against a shard-local process
node and design cache (no spawn cost, cooperative timeouts).  A shard
with an empty queue steals from the deepest peer queue's tail, so one
slow sweep cannot idle the rest of the pool -- and when chaos testing
kills a shard outright (see below) its queue drains through the
survivors.

Two layers keep repeated work free:

* **result store** -- finished points persist in a shared
  :class:`~repro.service.store.ResultStore` tier (memory + optional
  ``cache_dir`` disk), consulted before dispatch;
* **request coalescing** -- identical in-flight points (same content
  hash) attach to the one running job and fan out on completion:
  N concurrent clients sweeping the same grid cost one execution per
  unique point (``service.coalesced`` counts the saved runs).

Failure contract: a client disconnect only unsubscribes that client
-- in-flight jobs finish for their other subscribers (or the store)
and the shard is untouched.  Chaos testing reuses :mod:`repro.faults`:
each shard claims work under ``task_context("shard-<i>")`` and passes
``fault_point("service.shard")``; a matching ``raise``/``crash`` spec
kills the shard, its queue is redistributed, and the sweep still
completes -- ``python -m repro chaos --serve`` asserts exactly this.

Everything observable goes through :mod:`repro.obs` under ``service.*``
names (see the generated ``repro.obs.names`` registry).
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from ..analysis.experiments import EXPERIMENTS
from ..core.cache import DesignCache
from ..faults import inject as faults
from ..faults.plan import FaultPlan
from ..obs import trace
from ..obs.metrics import metrics
from ..parallel.engine import (ExperimentRun, ResilienceConfig, Serial,
                               Supervised, execute)
from ..tech.process import make_process
from .schema import (SCHEMA_VERSION, PointResult, PointSpec, SchemaError,
                     SweepRequest, decode_line, encode_line)
from .store import ResultStore

#: shard execution styles
SHARD_MODES = ("process", "inline")


@dataclass(frozen=True)
class ServiceConfig:
    """One broker's knobs.

    Attributes:
        host / port: TCP listen address; port ``0`` binds an ephemeral
            port (read it back from :attr:`Broker.port`).
        socket_path: listen on a unix socket instead of TCP.
        shards: worker shard count (each consumes one point at a
            time; work-stealing balances their queues).
        cache_dir: shared persistent tier -- the design cache for the
            shards *and* the broker's result store live under it.
        shard_mode: ``"process"`` supervises every point in its own
            spawned worker (production); ``"inline"`` runs points
            in-process (fast startup -- tests, quick loads).
        timeout_s / retries: default resilience for points whose
            request does not set its own.
        max_line_bytes: wire-line size limit (result JSON is big;
            the asyncio default of 64 KiB would truncate it).
    """

    host: str = "127.0.0.1"
    port: int = 0
    socket_path: Optional[str] = None
    shards: int = 2
    cache_dir: Optional[str] = None
    shard_mode: str = "process"
    timeout_s: Optional[float] = None
    retries: int = 0
    max_line_bytes: int = 8 * 1024 * 1024


def _execute_job(policy: Union[Serial, Supervised], spec: PointSpec,
                 res: ResilienceConfig) -> ExperimentRun:
    """Shard executor body: run one point through the engine.

    Module-level on purpose -- executor callables must not capture
    event-loop state (and the concurrency analyzer enforces the
    idiom repo-wide).
    """
    outcome, = execute([spec], policy, res)
    return ExperimentRun.from_outcome(spec.experiment_id, outcome)


class _Shard:
    """One work-stealing consumer: a queue, a loop, a worker thread."""

    def __init__(self, index: int, config: ServiceConfig):
        self.index = index
        self.queue: Deque["_Job"] = deque()
        self.alive = True
        #: a serial shard's process node and design cache are its own,
        #: touched only by its worker thread
        self.policy: Union[Serial, Supervised] = (
            Supervised(cache_dir=config.cache_dir)
            if config.shard_mode == "process"
            else Serial(cache=DesignCache(cache_dir=config.cache_dir)))
        self.pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-shard-{index}")
        self.task: Optional[asyncio.Task] = None


class _Job:
    """One unique in-flight point plus everyone waiting on it."""

    __slots__ = ("key", "spec", "resilience", "subscribers")

    def __init__(self, key: str, spec: PointSpec,
                 resilience: ResilienceConfig):
        self.key = key
        self.spec = spec
        self.resilience = resilience
        #: (session, request_id, point index) per waiting client
        self.subscribers: List[Tuple["_Session", int, int]] = []


class _Session:
    """One client connection's broker-side state."""

    def __init__(self, sid: int, writer: asyncio.StreamWriter):
        self.sid = sid
        self.writer = writer
        self.alive = True
        #: request id -> points still owed to this client
        self.remaining: Dict[int, int] = {}
        self.cancelled: set = set()


class Broker:
    """The service: sessions in, shards out, everything observable.

    All broker state is mutated only on the event-loop thread; shard
    worker threads touch nothing but their own shard's policy.
    """

    def __init__(self, config: Optional[ServiceConfig] = None,
                 fault_plan: Optional[FaultPlan] = None):
        self.config = config or ServiceConfig()
        if self.config.shard_mode not in SHARD_MODES:
            raise ValueError(
                f"shard_mode must be one of {SHARD_MODES}, "
                f"got {self.config.shard_mode!r}")
        self._plan = fault_plan
        self._prev_plan: Optional[FaultPlan] = None
        self._process = make_process()
        self._store = ResultStore(cache_dir=self.config.cache_dir)
        self._jobs: Dict[str, _Job] = {}
        self._shards: List[_Shard] = []
        self._sessions: Dict[int, _Session] = {}
        self._request_ids = itertools.count(1)
        self._session_ids = itertools.count(1)
        self._rr = 0
        self._running = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._wake: Optional[asyncio.Event] = None
        self._stop_event: Optional[asyncio.Event] = None
        self.port: Optional[int] = None
        self.endpoint: Optional[str] = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the shard loops."""
        if self._plan is not None:
            self._prev_plan = faults.active_plan()
            faults.install(self._plan)
        self._running = True
        self._wake = asyncio.Event()
        self._stop_event = asyncio.Event()
        self._shards = [_Shard(i, self.config)
                        for i in range(max(1, self.config.shards))]
        if self.config.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=self.config.socket_path,
                limit=self.config.max_line_bytes)
            self.endpoint = self.config.socket_path
        else:
            self._server = await asyncio.start_server(
                self._handle_conn, host=self.config.host,
                port=self.config.port, limit=self.config.max_line_bytes)
            self.port = self._server.sockets[0].getsockname()[1]
            self.endpoint = f"{self.config.host}:{self.port}"
        for shard in self._shards:
            shard.task = asyncio.ensure_future(self._shard_loop(shard))

    async def stop(self) -> None:
        """Close the listener, stop the shards, drop the sessions."""
        self._running = False
        if self._wake is not None:
            self._wake.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for shard in self._shards:
            if shard.task is not None:
                shard.task.cancel()
        for shard in self._shards:
            if shard.task is not None:
                try:
                    await shard.task
                except (asyncio.CancelledError, Exception):
                    pass
            shard.pool.shutdown(wait=False, cancel_futures=True)
        for session in list(self._sessions.values()):
            self._drop_session(session, expected=True)
        if self._plan is not None:
            faults.install(self._prev_plan)

    async def wait_stopped(self) -> None:
        """Block until a client's ``shutdown`` message (or a signal
        handler) sets the stop event."""
        assert self._stop_event is not None
        await self._stop_event.wait()

    def request_stop(self) -> None:
        """Thread-safe-only-from-the-loop stop trigger."""
        if self._stop_event is not None:
            self._stop_event.set()

    # -- connection handling ---------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        session = _Session(next(self._session_ids), writer)
        self._sessions[session.sid] = session
        try:
            while self._running:
                try:
                    line = await reader.readline()
                except ValueError:
                    # line overran max_line_bytes: cannot resync safely
                    await self._send(session, {
                        "type": "error",
                        "error": "wire line too long"})
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    msg = decode_line(line)
                except SchemaError as exc:
                    await self._send(session,
                                     {"type": "error", "error": str(exc)})
                    continue
                if not await self._dispatch(session, msg):
                    break
        except (ConnectionError, OSError):
            pass
        finally:
            self._drop_session(session)

    async def _dispatch(self, session: _Session,
                        msg: Dict[str, Any]) -> bool:
        """Handle one client message; False ends the session."""
        mtype = msg.get("type")
        if mtype == "submit":
            await self._handle_submit(session, msg)
        elif mtype == "cancel":
            await self._handle_cancel(session, msg)
        elif mtype == "ping":
            await self._send(session, {"type": "pong",
                                       "schema_version": SCHEMA_VERSION})
        elif mtype == "stats":
            await self._send(session, self._stats_payload())
        elif mtype == "shutdown":
            await self._send(session, {"type": "bye"})
            self.request_stop()
            return False
        else:
            await self._send(session, {
                "type": "error",
                "error": f"unknown message type {mtype!r}"})
        return session.alive

    async def _handle_submit(self, session: _Session,
                             msg: Dict[str, Any]) -> None:
        try:
            request = SweepRequest.from_wire(msg.get("request") or {})
            request.validate(known=EXPERIMENTS)
        except SchemaError as exc:
            await self._send(session, {"type": "error",
                                       "error": str(exc)})
            return
        rid = next(self._request_ids)
        metrics().counter("service.requests").inc()
        session.remaining[rid] = len(request.points)
        await self._send(session, {
            "type": "accepted", "request_id": rid,
            "n_points": len(request.points),
            "schema_version": SCHEMA_VERSION})
        timeout_s = (request.timeout_s if request.timeout_s is not None
                     else self.config.timeout_s)
        res = ResilienceConfig(
            timeout_s=timeout_s,
            retries=request.retries or self.config.retries)
        with trace.span("service.request", request_id=rid,
                        n_points=len(request.points)):
            for index, spec in enumerate(request.points):
                if not session.alive:
                    break
                metrics().counter("service.points").inc()
                await self._admit(session, rid, index, spec, res)

    async def _admit(self, session: _Session, rid: int, index: int,
                     spec: PointSpec, res: ResilienceConfig) -> None:
        """Route one point: store hit, coalesce, or enqueue fresh."""
        key = spec.key(self._process)
        hit = self._store.get(key)
        if hit is not None:
            metrics().counter("service.result_hits").inc()
            await self._deliver(session, rid, index,
                                hit.with_source("cache"))
            return
        job = self._jobs.get(key)
        if job is not None:
            metrics().counter("service.coalesced").inc()
            job.subscribers.append((session, rid, index))
            return
        job = _Job(key=key, spec=spec, resilience=res)
        job.subscribers.append((session, rid, index))
        self._jobs[key] = job
        await self._enqueue(job)

    async def _handle_cancel(self, session: _Session,
                             msg: Dict[str, Any]) -> None:
        rid = msg.get("request_id")
        if rid in session.remaining:
            session.cancelled.add(rid)
            session.remaining.pop(rid, None)
            for job in self._jobs.values():
                job.subscribers = [
                    s for s in job.subscribers
                    if not (s[0] is session and s[1] == rid)]
            metrics().counter("service.cancelled").inc()
        await self._send(session,
                         {"type": "cancelled", "request_id": rid})

    # -- scheduling ------------------------------------------------------

    async def _enqueue(self, job: _Job) -> None:
        live = [s for s in self._shards if s.alive]
        if not live:
            await self._complete(job, _dead_pool_run(job.spec))
            return
        live[self._rr % len(live)].queue.append(job)
        self._rr += 1
        assert self._wake is not None
        self._wake.set()

    def _claim(self, shard: _Shard) -> Optional[_Job]:
        """Next runnable job: own queue head, else steal a peer tail."""
        if not shard.alive or not self._running:
            return None
        while shard.queue:
            job = shard.queue.popleft()
            if job.subscribers:
                return job
            self._forget(job)
        victims = sorted(
            (s for s in self._shards if s is not shard and s.queue),
            key=_queue_depth, reverse=True)
        for victim in victims:
            while victim.queue:
                job = victim.queue.pop()
                if job.subscribers:
                    metrics().counter("service.steals").inc()
                    return job
                self._forget(job)
        return None

    def _forget(self, job: _Job) -> None:
        """Drop a queued job every subscriber abandoned."""
        self._jobs.pop(job.key, None)
        metrics().counter("service.dropped").inc()

    async def _shard_loop(self, shard: _Shard) -> None:
        loop = asyncio.get_running_loop()
        assert self._wake is not None
        while self._running and shard.alive:
            job = self._claim(shard)
            if job is None:
                # single-threaded loop: nothing can enqueue between
                # the failed claim and this clear
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(),
                                           timeout=0.25)
                except asyncio.TimeoutError:
                    pass
                continue
            if not self._survive_fault(shard):
                await self._abandon_shard(shard, job)
                return
            with trace.span("service.point", key=job.key[:12],
                            experiment=job.spec.experiment_id,
                            shard=shard.index):
                run = await loop.run_in_executor(
                    shard.pool, _execute_job, shard.policy, job.spec,
                    job.resilience)
            metrics().counter("service.computed").inc()
            await self._complete(job, run)

    def _survive_fault(self, shard: _Shard) -> bool:
        """The chaos seam: a matching fault spec kills this shard."""
        try:
            with faults.task_context(f"shard-{shard.index}", 1):
                faults.fault_point("service.shard")
            return True
        except Exception:
            return False

    async def _abandon_shard(self, shard: _Shard, job: _Job) -> None:
        """Mark the shard dead and rehome its work on the survivors."""
        shard.alive = False
        metrics().counter("service.shard_deaths").inc()
        with trace.span("service.shard_death", shard=shard.index):
            pass
        orphans = [job] + list(shard.queue)
        shard.queue.clear()
        live = [s for s in self._shards if s.alive]
        if not live:
            for orphan in orphans:
                await self._complete(orphan,
                                     _dead_pool_run(orphan.spec))
            return
        for orphan in orphans:
            live[self._rr % len(live)].queue.append(orphan)
            self._rr += 1
        assert self._wake is not None
        self._wake.set()

    # -- result fan-out --------------------------------------------------

    async def _complete(self, job: _Job, run: ExperimentRun) -> None:
        self._jobs.pop(job.key, None)
        result = PointResult.from_run(run, job.spec, job.key)
        if run.status == "ok":
            self._store.put(result)
        else:
            metrics().counter("service.failed").inc()
        for session, rid, index in list(job.subscribers):
            await self._deliver(session, rid, index, result)

    async def _deliver(self, session: _Session, rid: int, index: int,
                       result: PointResult) -> None:
        if not session.alive or rid in session.cancelled:
            return
        await self._send(session, {
            "type": "result", "request_id": rid, "index": index,
            "result": result.to_wire()})
        if not session.alive or rid not in session.remaining:
            return
        session.remaining[rid] -= 1
        if session.remaining[rid] <= 0:
            session.remaining.pop(rid, None)
            await self._send(session,
                             {"type": "done", "request_id": rid})

    async def _send(self, session: _Session,
                    obj: Dict[str, Any]) -> None:
        if not session.alive:
            return
        try:
            session.writer.write(encode_line(obj))
            await session.writer.drain()
        except (ConnectionError, OSError, RuntimeError):
            self._drop_session(session)

    def _drop_session(self, session: _Session,
                      expected: bool = False) -> None:
        """Unsubscribe a dead client everywhere; never touch shards."""
        if not session.alive:
            return
        session.alive = False
        owed = sum(session.remaining.values())
        for job in self._jobs.values():
            job.subscribers = [s for s in job.subscribers
                               if s[0] is not session]
        session.remaining.clear()
        if owed and not expected:
            metrics().counter("service.disconnects").inc()
        self._sessions.pop(session.sid, None)
        try:
            session.writer.close()
        except Exception:
            pass

    # -- introspection ---------------------------------------------------

    def _stats_payload(self) -> Dict[str, Any]:
        snap = metrics().snapshot()
        counters = {k: v for k, v in snap["counters"].items()
                    if k.startswith("service.")}
        return {
            "type": "stats",
            "schema_version": SCHEMA_VERSION,
            "counters": counters,
            "shards": [{"index": s.index, "alive": s.alive,
                        "queued": len(s.queue)} for s in self._shards],
            "jobs_in_flight": len(self._jobs),
            "store_entries": len(self._store),
            "sessions": len(self._sessions),
        }


def _queue_depth(shard: _Shard) -> int:
    return len(shard.queue)


def _dead_pool_run(spec: PointSpec) -> ExperimentRun:
    """The synthetic failure a point gets when every shard is dead."""
    return ExperimentRun(experiment_id=spec.experiment_id, wall_s=0.0,
                         all_passed=False, result={}, status="failed",
                         attempts=1, error="no live shards")


# ---------------------------------------------------------------------------
# Entry points: blocking serve (the CLI) and background serve (tests,
# load benches)
# ---------------------------------------------------------------------------

async def _serve_until_stopped(config: Optional[ServiceConfig],
                               fault_plan: Optional[FaultPlan],
                               verbose: bool) -> None:
    broker = Broker(config, fault_plan)
    await broker.start()
    if verbose:
        print(f"repro service listening on {broker.endpoint} "
              f"({len(broker._shards)} shards, "
              f"{broker.config.shard_mode} mode)")
    try:
        await broker.wait_stopped()
    finally:
        await broker.stop()


def serve(config: Optional[ServiceConfig] = None,
          fault_plan: Optional[FaultPlan] = None,
          verbose: bool = True) -> None:
    """Run a broker in the foreground until shutdown/interrupt."""
    asyncio.run(_serve_until_stopped(config, fault_plan, verbose))


class BrokerHandle:
    """A broker running on its own thread's event loop."""

    def __init__(self, broker: Broker, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.broker = broker
        self.loop = loop
        self.thread = thread

    @property
    def port(self) -> Optional[int]:
        return self.broker.port

    @property
    def endpoint(self) -> Optional[str]:
        return self.broker.endpoint

    def stop(self, timeout: float = 30.0) -> None:
        if self.loop.is_running():
            self.loop.call_soon_threadsafe(self.broker.request_stop)
        self.thread.join(timeout)

    def __enter__(self) -> "BrokerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def _background_main(config: Optional[ServiceConfig],
                     fault_plan: Optional[FaultPlan],
                     ready: threading.Event, slot: Dict) -> None:
    """Thread body of :func:`serve_background` (module-level so the
    thread target is importable and closure-free)."""
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    broker = Broker(config, fault_plan)
    try:
        loop.run_until_complete(broker.start())
    except BaseException as exc:  # startup failure must unblock ready
        slot["error"] = exc
        ready.set()
        loop.close()
        return
    slot["broker"] = broker
    slot["loop"] = loop
    ready.set()
    try:
        loop.run_until_complete(broker.wait_stopped())
    finally:
        loop.run_until_complete(broker.stop())
        loop.close()


def serve_background(config: Optional[ServiceConfig] = None,
                     fault_plan: Optional[FaultPlan] = None,
                     start_timeout: float = 30.0) -> BrokerHandle:
    """Start a broker on a daemon thread; returns once it listens.

    The workhorse of the tests and ``benchmarks/serve_load.py`` --
    bind ``port=0`` and read the ephemeral port off the handle.
    """
    ready = threading.Event()
    slot: Dict = {}
    thread = threading.Thread(target=_background_main,
                              args=(config, fault_plan, ready, slot),
                              daemon=True, name="repro-broker")
    thread.start()
    if not ready.wait(start_timeout):
        raise RuntimeError("broker did not start in time")
    if "error" in slot:
        raise RuntimeError(f"broker failed to start: {slot['error']}")
    return BrokerHandle(slot["broker"], slot["loop"], thread)
