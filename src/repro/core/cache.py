"""Block-design caching for sweeps: in-memory plus a persistent disk tier.

Design-space sweeps rebuild the same (block type, flow config) pairs
over and over -- unfolded control blocks recur identically across chip
styles, RVT blocks across bonding variants.  ``FlowConfig`` is a frozen
dataclass (fold specs included), so (block, config, process) is a proper
cache key; a finished :class:`~repro.core.flow.BlockDesign` is immutable
*by convention* after the flow (the aggregation layers only read it), so
cache hits can share the object.

The designs live in one :class:`~repro.core.store.Store` (FIFO memory
tier; with ``cache_dir``, pickles under ``<cache_dir>/<sha256>.pkl``,
written atomically and loaded corruption-tolerantly).  Keys hash the
*content* of the request -- block name, every ``FlowConfig`` field
(fold spec included), a :func:`process_fingerprint` of the technology
node, and :data:`CODE_VERSION`, a hash of the package source -- so a
design built by other code can never satisfy a new request.

Pass one :class:`DesignCache` through
:func:`~repro.core.fullchip.build_chip` calls (or the design-space
explorer) to deduplicate the work; point several runs (or several
``multiprocessing`` workers) at one ``cache_dir`` to make reruns
near-free.

Beside the designs, each cache memoizes the *generated* netlists its
flows start from (:meth:`DesignCache.generated`), keyed by block, seed,
scale and process fingerprint: a sweep folds one netlist many ways, and
every miss gets a fresh clone of the pristine netlist instead of
regenerating it.  The memo is a memory-only store, capped like the
design tier and dropped by :meth:`DesignCache.clear`.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import IO, Dict, Optional, Union

from ..designgen.generate import GeneratedBlock, generate_block
from ..designgen.t2 import block_type_by_name
from ..faults.inject import corrupt_point
from ..obs import trace
from ..obs.metrics import metrics
from ..place import scalar as place_scalar
from ..tech.process import ProcessNode
from ..timing import scalar as sta_scalar
from .flow import BlockDesign, FlowConfig, run_block_flow
from .store import Codec, Store, content_key


def source_version(root: Union[str, Path]) -> str:
    """sha256 over the sorted relative paths and bytes of every ``.py``
    file under ``root``."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py"),
                       key=lambda p: p.relative_to(root).as_posix()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


#: Version stamp baked into every design and service-point key: the
#: hash of the ``repro`` package source, so any code change turns old
#: disk entries into misses instead of serving designs built by other
#: numerics.
CODE_VERSION = source_version(Path(__file__).resolve().parent.parent)


def process_fingerprint(process: ProcessNode) -> Dict[str, object]:
    """Stable identity of a technology node for cache keying.

    Captures every process parameter the block flow reads -- supply,
    clocks, activity, the 3D via electricals and the metal stack shape --
    as plain JSON-serializable values.  Two nodes with equal fingerprints
    produce equal designs for equal configs.
    """
    def via(v) -> Dict[str, object]:
        return {
            "style": v.style,
            "diameter_um": v.diameter_um,
            "height_um": v.height_um,
            "pitch_um": v.pitch_um,
            "resistance_kohm": v.resistance_kohm,
            "capacitance_ff": v.capacitance_ff,
            "occupies_silicon": v.occupies_silicon,
            "landing_pad_um": v.landing_pad_um,
        }
    return {
        "name": process.name,
        "vdd": process.vdd,
        "clock_freq_ghz": dict(sorted(process.clock_freq_ghz.items())),
        "default_activity": process.default_activity,
        "cell_height_um": process.cell_height_um,
        "n_metal_layers": len(process.metal_stack.layers),
        "tsv": via(process.tsv),
        "f2f_via": via(process.f2f_via),
    }


def design_key(block: str, config: FlowConfig,
               process: ProcessNode) -> str:
    """Content hash of one block-flow request.

    The key covers the block name, the whole ``FlowConfig`` (fold spec,
    bonding, seed, scale, budgets, ...), the process fingerprint and
    :data:`CODE_VERSION`, so any input that can change the finished
    design changes the key.  Runs on a scalar reference path
    (``REPRO_PLACE_SCALAR`` / ``REPRO_STA_SCALAR``) add the active flags,
    so their designs never answer a default-path request; without them
    the payload is unchanged.
    """
    payload: Dict[str, object] = {
        "block": block,
        "config": asdict(config),
        "process": process_fingerprint(process),
        "version": CODE_VERSION,
    }
    scalar = {"place": place_scalar.use_scalar(),
              "sta": sta_scalar.use_scalar()}
    if any(scalar.values()):
        payload["scalar"] = scalar
    return content_key(payload)


def netlist_key(block: str, seed: int, scale: float,
                process: ProcessNode) -> str:
    """Content hash of one generated netlist (the netlist memo's key)."""
    return content_key({"block": block, "seed": seed, "scale": scale,
                        "process": process_fingerprint(process)})


@dataclass
class CacheStats:
    """Hit/miss/store counters of the design tier."""

    hits: int = 0            # in-memory hits
    disk_hits: int = 0       # loaded from the persistent tier
    misses: int = 0          # full flow runs
    stores: int = 0          # designs written to disk
    evictions: int = 0       # memory entries dropped by the FIFO cap
    corrupt_drops: int = 0   # unreadable disk entries discarded

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.disk_hits + self.misses
        return (self.hits + self.disk_hits) / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        d = asdict(self)
        d["hit_rate"] = self.hit_rate
        return d


def _write_design(design: BlockDesign, f: IO[bytes]) -> None:
    pickle.dump(design, f, protocol=pickle.HIGHEST_PROTOCOL)


def _read_design(f: IO[bytes], key: str) -> BlockDesign:
    design = pickle.load(f)
    if not isinstance(design, BlockDesign):
        raise TypeError(f"{key}: not a BlockDesign")
    return design


#: the design tier's disk format: ``<cache_dir>/<key>.pkl``
DESIGN_CODEC: Codec[BlockDesign] = Codec(".pkl", _write_design,
                                         _read_design)


class DesignCache:
    """Memoizes finished block designs by content-hashed request.

    Args:
        max_entries: in-memory entry cap (FIFO eviction), for the
            designs and the netlist memo alike.
        cache_dir: optional directory for the persistent tier
            (created if missing).  Safe to share between processes.
    """

    def __init__(self, max_entries: int = 256,
                 cache_dir: Optional[Union[str, Path]] = None) -> None:
        self._designs: Store[BlockDesign] = Store(
            cache_dir, DESIGN_CODEC, max_entries)
        #: pristine generated netlists, never handed to a flow directly
        self._netlists: Store[GeneratedBlock] = Store(
            max_entries=max_entries)
        self._stats = CacheStats()

    def __len__(self) -> int:
        return len(self._designs)

    @property
    def stats(self) -> CacheStats:
        """A snapshot of the design tier's counters."""
        return replace(self._stats, evictions=self._designs.evictions,
                       corrupt_drops=self._designs.drops)

    # ---- the netlist memo ----------------------------------------------

    def generated(self, block: str, seed: int, scale: float,
                  process: ProcessNode) -> GeneratedBlock:
        """The memoized generated netlist of one block (read-only).

        Generates on the first request and serves the same object after
        that (each hit counts in ``cache.netlist_hits``).  Never mutate
        it: flows take the clones :meth:`get_or_run` makes.
        """
        key = netlist_key(block, seed, scale, process)
        gb = self._netlists.get(key)
        if gb is not None:
            metrics().counter("cache.netlist_hits").inc()
            return gb
        gb = generate_block(block_type_by_name(block), process.library,
                            seed=seed, scale=scale)
        self._netlists.put(key, gb)
        return gb

    def _fresh_block(self, block: str, seed: int, scale: float,
                     process: ProcessNode) -> GeneratedBlock:
        """A private clone of the memo's entry, for a flow to mutate."""
        gb = self.generated(block, seed, scale, process)
        return replace(gb, netlist=gb.netlist.clone())

    # ---- the lookup ----------------------------------------------------

    def get_or_run(self, block: str, config: FlowConfig,
                   process: ProcessNode) -> BlockDesign:
        """Return the cached design or run the flow and cache it.

        The cached object is shared: treat it as read-only.  Flows that
        intend to mutate the netlist afterwards (ECO sessions) should
        call :func:`run_block_flow` directly.

        Every lookup records a ``cache.lookup`` span whose ``outcome``
        attribute is ``memory_hit`` / ``disk_hit`` / ``miss``, and
        increments the matching ``cache.*`` counters.
        """
        with trace.span("cache.lookup", block=block) as sp:
            key = design_key(block, config, process)
            hit = self._designs.get(key)
            if hit is not None:
                self._stats.hits += 1
                metrics().counter("cache.memory_hits").inc()
                sp.set(outcome="memory_hit")
                return hit
            path = self._designs.path(key)
            if path is not None:
                # chaos hook: an active "corrupt" fault spec garbles the
                # entry here, immediately before the read, so the
                # store's tolerant load is exercised for real (inert
                # without a fault plan)
                corrupt_point(path)
            design = self._designs.load(key)
            if design is not None:
                self._stats.disk_hits += 1
                metrics().counter("cache.disk_hits").inc()
                sp.set(outcome="disk_hit")
                return design
            self._stats.misses += 1
            metrics().counter("cache.misses").inc()
            sp.set(outcome="miss")
            design = run_block_flow(
                block, config, process,
                source=lambda: self._fresh_block(
                    block, config.seed, config.scale, process))
            if self._designs.put(key, design):
                self._stats.stores += 1
                metrics().counter("cache.stores").inc()
            return design

    def clear(self) -> None:
        """Drop the in-memory designs and the netlist memo and reset the
        counters (the disk tier survives)."""
        self._designs.clear()
        self._netlists.clear()
        self._stats = CacheStats()
