"""The cohort path's transient memory, at the perf ledger's size.

``metro_cohort`` gates ``peak_rss_mb`` at 5 %, and what moves a metro
run's high-water mark is the largest set of temporaries alive at once on
top of the resident columns. Before the t=0 attach went to flat passes
that was the cohort advance (``_advance_frames``): its index arrays and
the ten gathered columns peaked 8.5 MB over resident on every tick, the
per-cell attach 4.1 MB. Both now have to stay under that figure, so the mark cannot
rise: the attach because its flat passes hold at most
``_SCORE_CHUNK_PAIRS`` pairs and its whole-user temporaries are dropped
before the first pass (one pass over all 87 000 pairs measured 16.5 MB,
the former cap of ``1 << 16`` 10.2 MB, ``1 << 14`` 4.4 MB), the advance
because mask form holds no index arrays (5.0 MB).

``python tests/test_metro_memory_budget.py`` prints the two figures.
"""

import tracemalloc

from repro.core.config import SystemConfig
from repro.metro.kernel import MetroKernel
from repro.metro.spec import MetroSpec, build_population

#: MB over resident: just under the index-form advance's 8.47 at this size.
BUDGET_MB = 8.4


def peaks_over_resident_mb():
    """(attach, advance): the most each call held beyond what was
    allocated when it was entered, at ``metro_cohort``'s size."""
    config = SystemConfig(seed=42, probing_period_ms=3.6e6)
    spec = MetroSpec(nodes=10_000, users=100_000, fps=4.0)
    kernel = MetroKernel(config, spec, build_population(spec, config.seed))

    def peak(call, *args):
        tracemalloc.reset_peak()
        resident = tracemalloc.get_traced_memory()[0]
        call(*args)
        return (tracemalloc.get_traced_memory()[1] - resident) / 1e6

    tracemalloc.start()
    try:
        attach = peak(kernel._initial_attach)
        advance = peak(kernel._advance_frames, 0)
    finally:
        tracemalloc.stop()
    assert kernel.unattached_initial == 0 and kernel.frames_advanced == 100_000
    return attach, advance


def test_cohort_path_temporaries_stay_under_the_index_form_advances_peak():
    attach, advance = peaks_over_resident_mb()
    assert 0.0 < attach < BUDGET_MB
    assert 0.0 < advance < BUDGET_MB


if __name__ == "__main__":
    print("attach +%.1f MB, advance +%.1f MB over resident" % peaks_over_resident_mb())
