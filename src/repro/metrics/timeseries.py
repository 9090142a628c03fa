"""Time-binned series for performance traces (Figs. 4, 6, 8)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class TimeSeries:
    """An append-only (time, value) series with helpers.

    Times are simulation milliseconds; appends must be non-decreasing in
    time (the collector only ever appends "now").
    """

    name: str = ""
    times_ms: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def append(self, time_ms: float, value: float) -> None:
        if self.times_ms and time_ms < self.times_ms[-1]:
            raise ValueError(
                f"time series {self.name!r} must be appended in order: "
                f"{time_ms} < {self.times_ms[-1]}"
            )
        self.times_ms.append(time_ms)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times_ms)


def bin_series(
    times_ms: Sequence[float],
    values: Sequence[float],
    bin_ms: float,
    start_ms: float = 0.0,
    end_ms: Optional[float] = None,
) -> List[Tuple[float, float]]:
    """Average ``values`` into fixed time bins.

    Returns (bin_start_ms, mean value) for every bin that received at
    least one sample — the reduction used for the "average performance
    trace" plots.

    Raises:
        ValueError: on a non-positive bin width or mismatched lengths.
    """
    if bin_ms <= 0:
        raise ValueError(f"bin_ms must be positive: {bin_ms}")
    if len(times_ms) != len(values):
        raise ValueError("times and values must have equal length")
    sums: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for t, v in zip(times_ms, values):
        if t < start_ms:
            continue
        if end_ms is not None and t >= end_ms:
            continue
        index = int((t - start_ms) // bin_ms)
        sums[index] = sums.get(index, 0.0) + v
        counts[index] = counts.get(index, 0) + 1
    return [
        (start_ms + index * bin_ms, sums[index] / counts[index])
        for index in sorted(sums)
    ]
