"""In-memory span recorder for the traced pass.

The traced pass wraps the public functions at each layer boundary *from
here* — nothing under ``src/`` knows it is being measured. A span is
``(name, round, start, end, parent)``; spans form a stack, so a layer's
**self time** is its duration minus the part its child spans cover.
Counts are taken at the same boundary as the time, totals are kept per
``(name, key)``, and nothing touches the disk until :meth:`Recorder.dump`
is called at the end of the run.

Only synchronous functions go on the stack. Coroutines interleave, so
:meth:`Recorder.wrap_async` records their call count and elapsed wall
time as free-standing spans without a parent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Raw spans kept for ``spans.json`` (totals always cover every span).
MAX_RAW_SPANS = 4000


@dataclass
class Total:
    """Everything recorded under one span name (and optional key)."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Free-standing (coroutine) spans overlap each other and include
    #: their awaits, so they are kept out of self-time sums.
    free: bool = False

    @property
    def self_us_per_call(self) -> float:
        return self.self_s / self.calls * 1e6 if self.calls else 0.0

    @property
    def us_per_call(self) -> float:
        return self.total_s / self.calls * 1e6 if self.calls else 0.0


class Recorder:
    """Span stack + per-name totals + the patches that feed them."""

    def __init__(self) -> None:
        self.totals: Dict[Tuple[str, str], Total] = {}
        #: Wall time inside top-level spans (nothing above them on the
        #: stack): the share of a run that some span accounts for.
        self.covered_s = 0.0
        #: While set, wrapped functions run unrecorded (a workload's
        #: untimed reference path must not be charged to its layers).
        self.paused = False
        self.round = 0
        self.raw: List[Dict[str, Any]] = []
        #: Span boundaries the program no longer has (reported, not fatal:
        #: their metrics read 0 until the benchmark is re-anchored).
        self.missing: List[str] = []
        self._stack: List[List[Any]] = []  # [name, key, start, child_s, raw index]
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _close(self, name: str, key: str, start: float, end: float,
               child_s: float, top_level: bool, index: Optional[int]) -> None:
        total = self.totals.get((name, key))
        if total is None:
            total = self.totals[(name, key)] = Total()
        duration = end - start
        total.calls += 1
        total.total_s += duration
        total.self_s += duration - child_s
        if index is not None:
            self.raw[index].update(end=end, self_s=duration - child_s)
        if top_level:
            self.covered_s += duration

    def add(self, name: str, duration_s: float, key: str = "") -> None:
        """Record a free-standing span (no stack, no parent)."""
        total = self.totals.get((name, key))
        if total is None:
            total = self.totals[(name, key)] = Total(free=True)
        total.calls += 1
        total.total_s += duration_s
        total.self_s += duration_s

    def _open_raw(self, name: str, key: str, start: float) -> Optional[int]:
        if len(self.raw) >= MAX_RAW_SPANS:
            return None
        parent = self._stack[-1][4] if self._stack else None
        self.raw.append(
            {"name": name, "key": key, "round": self.round, "start": start,
             "parent": parent}
        )
        return len(self.raw) - 1

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        key: Optional[Callable[..., str]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``key(*args)`` optionally splits the totals (per shard, per event
        type). The original is restored by :meth:`unwrap_all`.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        stack = self._stack
        close = self._close
        open_raw = self._open_raw

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.paused:
                return original(*args, **kwargs)
            k = key(*args) if key is not None else ""
            start = perf_counter()
            frame = [name, k, start, 0.0, open_raw(name, k, start)]
            stack.append(frame)
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][3] += end - start
                close(name, k, start, end, frame[3], not stack, frame[4])

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_async(
        self,
        owner: Any,
        attr: str,
        name: str,
        key: Optional[Callable[..., str]] = None,
    ) -> None:
        """Count and time a coroutine function (free-standing spans)."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        add = self.add

        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                add(name, perf_counter() - start,
                    key(*args, **kwargs) if key is not None else "")

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def total(self, name: str, key: Optional[str] = None) -> Total:
        """Totals for ``name``: one key, or summed over all its keys."""
        if key is not None:
            return self.totals.get((name, key), Total())
        merged = Total()
        for (n, _), t in self.totals.items():
            if n == name:
                merged.calls += t.calls
                merged.total_s += t.total_s
                merged.self_s += t.self_s
        return merged

    def keys(self, name: str) -> List[str]:
        return sorted(k for n, k in self.totals if n == name)

    def calls_and_self_us(self, names: Sequence[str], rounds: int) -> Dict[str, float]:
        """``<name>.calls`` (per round) and ``<name>.self_us`` (per call)."""
        out: Dict[str, float] = {}
        for name in names:
            total = self.total(name)
            out[name + ".calls"] = total.calls / max(1, rounds)
            out[name + ".self_us"] = total.self_us_per_call
        return out

    def dump(self, path: Path, workload: str) -> None:
        """Write totals + the retained raw spans (end of run only)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "workload": workload,
            "covered_s": self.covered_s,
            "missing": self.missing,
            "totals": [
                {"name": n, "key": k, "calls": t.calls, "total_s": t.total_s,
                 "self_s": t.self_s, "free": t.free}
                for (n, k), t in sorted(self.totals.items())
            ],
            "raw_spans_kept": len(self.raw),
            "raw_spans": self.raw,
        }
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
