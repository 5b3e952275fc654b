"""One content-addressed store: a FIFO memory tier over an optional disk tier.

Every cache in the package keys values by a sha256 of their request
(:func:`content_key`) and shares this primitive: the design cache's
design tier (pickle, ``<cache_dir>/<key>.pkl``) and netlist memo
(memory only) in :mod:`repro.core.cache`, and the experiment broker's
result tier (JSON, ``<cache_dir>/results/<key>.json``).  Disk writes
are atomic (temp file + ``os.replace``), so processes sharing one
directory never observe a torn file; loads are corruption-tolerant
(anything the codec cannot read back is a miss, deleted and counted in
``cache.corrupt_drops``); a directory that cannot be created or
written leaves the store memory-only.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Dict, Generic, Optional, TypeVar, Union

from ..obs.metrics import metrics

V = TypeVar("V")


def content_key(payload: Dict[str, object]) -> str:
    """sha256 over the key-sorted JSON of ``payload`` (the one key
    formula of design, netlist and service-point entries)."""
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Codec(Generic[V]):
    """How one store's values travel to and from its disk tier.

    ``read(f, key)`` must raise for anything that is not a valid value
    stored under ``key``; the store then drops the entry.
    """

    suffix: str
    write: Callable[[V, IO[bytes]], None]
    read: Callable[[IO[bytes], str], V]


class Store(Generic[V]):
    """Values by content key: FIFO memory tier, optional disk tier.

    Args:
        directory: the disk tier's directory (created if missing;
            safe to share between processes), or ``None`` for memory
            only.
        codec: serializes values for the disk tier; required with a
            ``directory``.
        max_entries: memory-tier cap (FIFO eviction).
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None,
                 codec: Optional[Codec[V]] = None,
                 max_entries: int = 256) -> None:
        if directory is not None and codec is None:
            raise ValueError("a disk tier needs a codec")
        self.codec = codec
        self.max_entries = max_entries
        self.directory: Optional[Path] = None
        #: memory entries dropped by the FIFO cap
        self.evictions = 0
        #: unreadable disk entries deleted
        self.drops = 0
        self._memory: Dict[str, V] = {}
        if directory is not None:
            try:
                Path(directory).mkdir(parents=True, exist_ok=True)
                self.directory = Path(directory)
            except OSError:
                pass  # unwritable directory: memory only

    def __len__(self) -> int:
        return len(self._memory)

    def path(self, key: str) -> Optional[Path]:
        """Where ``key`` lives on disk (``None`` without a disk tier)."""
        if self.directory is None or self.codec is None:
            return None
        return self.directory / f"{key}{self.codec.suffix}"

    def get(self, key: str) -> Optional[V]:
        """The memory tier's value for ``key``, or ``None``."""
        return self._memory.get(key)

    def load(self, key: str) -> Optional[V]:
        """The disk tier's value for ``key``, or ``None`` on a miss.

        A hit is kept in the memory tier.  An entry the codec cannot
        read back is deleted and counts as a miss.
        """
        path = self.path(key)
        if path is None or self.codec is None:
            return None
        try:
            f = open(path, "rb")
        except OSError:
            return None
        try:
            with f:
                value = self.codec.read(f, key)
        except Exception:
            # truncated write, foreign bytes, stale format, wrong key:
            # drop the entry so the caller recomputes it
            self.drops += 1
            metrics().counter("cache.corrupt_drops").inc()
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._remember(key, value)
        return value

    def put(self, key: str, value: V) -> bool:
        """Keep ``value`` in memory and write it to the disk tier.

        Returns whether the disk write happened; a failed write leaves
        the store memory-only for this entry.
        """
        self._remember(key, value)
        path = self.path(key)
        if path is None or self.codec is None:
            return False
        try:
            fd, tmp = tempfile.mkstemp(dir=str(self.directory),
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as f:
                    self.codec.write(value, f)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    def _remember(self, key: str, value: V) -> None:
        if key not in self._memory and \
                len(self._memory) >= self.max_entries:
            del self._memory[next(iter(self._memory))]
            self.evictions += 1
        self._memory[key] = value

    def clear(self) -> None:
        """Drop the memory tier and reset the counters (disk entries
        stay)."""
        self._memory.clear()
        self.evictions = 0
        self.drops = 0
