"""Span recording around the program's layer functions, from outside.

The benchmark never edits the program's sources.  For a traced run it
replaces each layer function under every name a caller can look it up
by (the defining module and every ``repro`` module that imported it),
records one span per call, and puts the originals back afterwards.
Spans live in memory; :func:`self_times` turns them into per-span self
time.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: called as ``hook(span, args, kwargs, result)`` after a wrapped call
#: returns; it may add attributes to the span (cell counts, cache keys)
ResultHook = Callable[["Span", tuple, dict, Any], None]


@dataclass
class Span:
    """One call of a wrapped function."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, index: int) -> Dict[str, Any]:
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "run_id": self.run_id, "attrs": self.attrs or {}}


class Recorder:
    """The spans of one run, kept in memory until the run ends."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.run_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover.

    Child intervals are clipped to the parent and merged before being
    subtracted, so overlapping children are not counted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, sp.start), min(hi, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(sp.duration - covered)
    return out


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` plus ``Class.attr`` or ``attr``."""

    span: str
    module: str
    qualname: str
    hook: Optional[ResultHook] = None


def _wrap(fn: Callable, name: str, rec: Recorder,
          hook: Optional[ResultHook]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec.spans[idx], args, kwargs, result)
        return result
    wrapper.__perfbench_original__ = fn
    return wrapper


def _repro_modules() -> List[Any]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


class Instrumentation:
    """Installs span wrappers for a list of targets and removes them.

    Use as a context manager; on exit every replaced attribute holds
    the original object again (for classmethods, the original
    ``classmethod`` object).
    """

    def __init__(self, targets: Iterable[Target], rec: Recorder) -> None:
        self.targets = list(targets)
        self.rec = rec
        #: (owner, attribute, original object) in install order
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            for t in self.targets:
                self._install(t)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _install(self, t: Target) -> None:
        module = sys.modules[t.module]
        if "." in t.qualname:
            cls_name, attr = t.qualname.split(".", 1)
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(
                    _wrap(original.__func__, t.span, self.rec, t.hook))
            else:
                wrapped = _wrap(original, t.span, self.rec, t.hook)
            self._saved.append((cls, attr, original))
            setattr(cls, attr, wrapped)
            return
        original = getattr(module, t.qualname)
        wrapped = _wrap(original, t.span, self.rec, t.hook)
        # every module-level name bound to the function, so callers that
        # did ``from x import f`` see the wrapper too
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def restore(self) -> None:
        """Put every original back, including copies bound meanwhile."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        # a module first imported while wrappers were installed bound
        # the wrapper under its own name; unwrap those too
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                original = getattr(value, "__perfbench_original__", None)
                if original is not None:
                    setattr(mod, attr, original)

