"""Measurement protocol shared by every ledger workload.

One run = several set-ups (``setup_s`` is their median), one untimed
warm-up round, then timed rounds of identical seeded work until
``--seconds`` has passed. A round is cut into short *windows*; each is
timed in process-CPU and wall time by the workload itself, so a
workload decides what is inside the timed region (its reference path,
for instance, is not).

Noise policy. This box is a shared 2-vCPU VM whose speed moves between
plateaus ~±30 % apart for seconds at a time, so a raw median of ten
seconds of work swings ~20 % from run to run. A fixed reference kernel
(:class:`Calibrator`) is therefore timed beside every window, and each
window's CPU time is rescaled to the speed at which that kernel takes
``REF_CAL_S``; a round's cost is the sum over its windows, and the
reported figure is the **median over rounds**. Raw (unscaled) medians
are printed beside it.
"""

from __future__ import annotations

import heapq
import json
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from spans import Recorder

#: CPU seconds one calibration sample takes at the reference speed (this
#: box on a typical quiet plateau). Only fixes the unit of the rescaled
#: figures; ratios between commits do not depend on it.
REF_CAL_S = 0.0140

#: Set-ups per run: at least MIN, more (up to MAX) while they are cheap,
#: so that a 10 ms set-up is not judged on three samples.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 15, 0.5
MIN_ROUNDS = 3


class Calibrator:
    """A fixed pure-Python kernel shaped like the program's hot paths:
    heap pops/pushes of small tuples, slotted-object attribute updates,
    string-keyed dict traffic over a few MB. It never imports ``repro``,
    so no change to the program can move it."""

    class _Obj:
        __slots__ = ("count", "period", "acc")

        def __init__(self, i: int) -> None:
            self.count = 0
            self.period = 1.0 + (i % 17) * 0.25
            self.acc = 0.0

    def __init__(self) -> None:
        rng = random.Random(1)
        objs = [self._Obj(i) for i in range(40_000)]
        self._keys = [f"u{i:06d}.probe" for i in range(60_000)]
        self._table = {k: float(i) for i, k in enumerate(self._keys)}
        self._heap = [(rng.random() * 100.0, i, objs[i]) for i in range(40_000)]
        heapq.heapify(self._heap)
        self._seq = len(self._heap)
        for _ in range(3):  # reach steady state before the first real sample
            self.sample()

    def sample(self) -> float:
        """Run the kernel once; process-CPU seconds it took."""
        start = time.process_time()
        heap, table, keys = self._heap, self._table, self._keys
        n_keys = len(keys)
        seq = self._seq
        pop, push = heapq.heappop, heapq.heappush
        for _ in range(4_000):
            t, s, obj = pop(heap)
            obj.count += 1
            key = keys[(s * 7919) % n_keys]
            value = table[key]
            table[key] = value * 0.5 + t
            obj.acc += value
            key.rpartition(".")
            seq += 1
            push(heap, (t + obj.period, seq, obj))
        self._seq = seq
        return time.process_time() - start


@dataclass
class Slice:
    """What a workload reports for one timed window."""

    ops: int
    failed: int
    cpu_s: float
    wall_s: float


class Timed:
    """``with Timed() as t: ...`` → ``t.cpu_s`` / ``t.wall_s``."""

    def __enter__(self) -> "Timed":
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *exc: object) -> None:
        self.cpu_s = time.process_time() - self._cpu
        self.wall_s = time.perf_counter() - self._wall


class Workload:
    """Base class: the harness drives these hooks.

    ``variant`` is ``"plain"`` on every untraced round; the traced pass
    cycles through ``trace_variants``: ``plain``, ``spans`` (wrappers
    installed) and whatever else a workload names.
    """

    name = ""
    #: Size parameters, recorded in the output so a number can be re-made.
    sizes: Dict[str, Any] = {}
    #: Rebuild state before every round (each round then feeds ``setup_s``).
    fresh_setup_per_round = False
    windows_per_round = 1
    trace_variants: Sequence[str] = ("plain", "spans")

    def __init__(self, seed: int, smoke: bool, recorder: Optional[Recorder]) -> None:
        self.seed = seed
        self.smoke = smoke
        self.recorder = recorder
        #: Correctness findings beyond failed operations (strings).
        self.problems: List[str] = []

    def setup(self, variant: str = "plain") -> None:
        raise NotImplementedError

    def begin_round(self, variant: str) -> None:
        """Install/remove span wrappers for a round on persistent state."""

    def window(self, variant: str) -> Slice:
        raise NotImplementedError

    def end_round(self, variant: str) -> Optional[Dict[str, Any]]:
        """The round's digest (must repeat across rounds), or None."""
        return None

    def teardown(self) -> None:
        """Release whatever :meth:`setup` made."""

    def layer_metrics(self, run: "Run") -> Dict[str, float]:
        """Per-layer figures from the traced pass (names from BENCHMARK.json);
        called while the last round's state is still up."""
        return {}

    def close(self) -> None:
        """Last call of a run, after :meth:`teardown`."""


@dataclass
class RoundStat:
    """One timed round: sums over its windows, so that windows doing
    unlike work (a probing burst, a cheap stretch) cannot move the figure."""

    variant: str
    ops: int
    cpu_us_per_op: float        # each window rescaled to the reference speed
    raw_cpu_us_per_op: float
    wall_us_per_op: float
    wall_s: float
    cpu_s: float


@dataclass
class Run:
    """Everything one run measured."""

    workload: str
    seed: int
    setup_s: List[float] = field(default_factory=list)      # rescaled
    raw_setup_s: List[float] = field(default_factory=list)
    rounds: List[RoundStat] = field(default_factory=list)
    cal_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: Optional[Dict[str, Any]] = None
    problems: List[str] = field(default_factory=list)
    layer: Dict[str, float] = field(default_factory=dict)

    def of(self, variant: str) -> List[RoundStat]:
        return [r for r in self.rounds if r.variant == variant]

    def count(self, variant: str) -> int:
        return len(self.of(variant))

    def median(self, variant: str, attr: str) -> float:
        values = [getattr(r, attr) for r in self.of(variant)]
        return statistics.median(values) if values else 0.0

    def unattributed_share(self, covered_s: float, variant: str = "spans") -> float:
        """Share of the traced rounds' process-CPU time outside every span."""
        cpu_s = sum(r.cpu_s for r in self.of(variant))
        return max(0.0, 1.0 - covered_s / cpu_s) if cpu_s else 0.0

    def overhead_pct(self, variant: str) -> float:
        """Rescaled CPU per op of ``variant`` rounds over plain rounds."""
        base = self.median("plain", "cpu_us_per_op")
        return (self.median(variant, "cpu_us_per_op") / base - 1.0) * 100.0 if base else 0.0


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0, 0.0, 0.0]
    return statistics.quantiles(values, n=4)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, seconds: float, trace: bool) -> Run:
    """Run the protocol on one workload."""
    run = Run(workload.name, workload.seed)
    cal = Calibrator()

    def scale(cal_before: float, cal_after: float) -> float:
        sample = (cal_before + cal_after) / 2.0
        run.cal_s.append(sample)
        return REF_CAL_S / sample

    def timed_setup(variant: str) -> None:
        before = cal.sample()
        with Timed() as t:
            workload.setup(variant)
        factor = scale(before, cal.sample())
        idle = max(0.0, t.wall_s - t.cpu_s)  # sleeps do not speed up with the CPU
        run.setup_s.append(idle + t.cpu_s * factor)
        run.raw_setup_s.append(t.wall_s)

    def one_round(variant: str, record: bool) -> None:
        if workload.fresh_setup_per_round:
            workload.teardown()
            timed_setup(variant)
        workload.begin_round(variant)
        ops = failed = 0
        cpu_s = wall_s = scaled_cpu_s = 0.0
        before = cal.sample()
        for _ in range(workload.windows_per_round):
            s = workload.window(variant)
            after = cal.sample()
            scaled_cpu_s += s.cpu_s * scale(before, after)
            before = after
            ops += s.ops
            failed += s.failed
            cpu_s += s.cpu_s
            wall_s += s.wall_s
        digest = workload.end_round(variant)
        if digest is not None and record:
            if run.digest is None:
                run.digest = digest
            elif digest != run.digest:
                failed = ops  # a round that is not the same work answers nothing
                run.problems.append(f"digest of a {variant} round differs: {digest}")
        if record and ops:
            run.attempted += ops
            run.failed += failed
            run.rounds.append(
                RoundStat(variant, ops, scaled_cpu_s / ops * 1e6, cpu_s / ops * 1e6,
                          wall_s / ops * 1e6, wall_s, cpu_s)
            )

    try:
        if not workload.fresh_setup_per_round:
            while len(run.setup_s) < MIN_SETUPS or (
                sum(run.raw_setup_s) < SETUP_BUDGET_S and len(run.setup_s) < MAX_SETUPS
            ):
                workload.teardown()
                timed_setup("plain")
            one_round("plain", record=False)  # warm-up: caches, lazy imports
        variants = list(workload.trace_variants) if trace else ["plain"]
        started = time.perf_counter()
        done = 0
        while (
            time.perf_counter() - started < seconds
            or done < max(MIN_ROUNDS, len(variants))
        ):
            one_round(variants[done % len(variants)], record=True)
            done += 1
        if trace:
            run.layer = workload.layer_metrics(run)
            run.layer["ledger.span_overhead_pct"] = run.overhead_pct("spans")
            run.layer["wall_us_per_op"] = run.median("plain", "wall_us_per_op")
            run.layer["failed_share"] = run.failed / max(1, run.attempted)
    finally:
        if workload.recorder is not None:
            workload.recorder.unwrap_all()
        workload.teardown()
        workload.close()
    run.problems.extend(workload.problems)
    if run.attempted == 0:
        run.problems.append("no operation was attempted")
    return run


# ----------------------------------------------------------------------
# Result assembly
# ----------------------------------------------------------------------
def end_to_end(run: Run) -> Dict[str, Dict[str, Any]]:
    return {
        "setup_s": {"value": statistics.median(run.setup_s), "unit": "s"},
        "cpu_us_per_op": {"value": run.median("plain", "cpu_us_per_op"), "unit": "us"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def detail(run: Run, workload: Workload) -> Dict[str, Any]:
    """Quartiles, counts and raw figures printed beside the metrics."""
    plain = run.of("plain")
    variants = sorted({r.variant for r in run.rounds})
    out: Dict[str, Any] = {
        "workload": run.workload,
        "seed": run.seed,
        "sizes": workload.sizes,
        "rounds": {v: run.count(v) for v in variants},
        "windows_per_round": workload.windows_per_round,
        "ops_per_round": plain[0].ops if plain else 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_share": run.failed / run.attempted if run.attempted else 1.0,
        "setup_s": {"n": len(run.setup_s), "quartiles": quartiles(run.setup_s),
                    "raw_median": statistics.median(run.raw_setup_s)},
        "calibration_s": {"n": len(run.cal_s), "quartiles": quartiles(run.cal_s),
                          "reference": REF_CAL_S},
        "digest": run.digest,
        "problems": run.problems,
        "cpu_s": {v: sum(r.cpu_s for r in run.of(v)) for v in variants},
    }
    for attr in ("cpu_us_per_op", "raw_cpu_us_per_op", "wall_us_per_op"):
        out[attr] = {"n": len(plain), "quartiles": quartiles([getattr(r, attr) for r in plain])}
    return out


def result_line(run: Run, metrics: Dict[str, Dict[str, Any]]) -> str:
    """The contract's last line of standard output."""
    return json.dumps(
        {
            "correct": run.failed == 0 and not run.problems,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        }
    )
