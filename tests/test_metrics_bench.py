"""Regression tests for BENCH_perf.json bookkeeping.

The writer must be atomic: a crash mid-write (simulated by making the
final ``os.replace`` fail) may lose the *new* section but must never
corrupt the sections already on disk.
"""

import json

import pytest

import repro.fsutil as fsutil
from repro.fsutil import atomic_write_text
from repro.metrics.bench import record_bench_section


def test_record_merges_sections(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    record_bench_section(path, "discovery", {"qps": 100})
    record_bench_section(path, "sweep", {"speedup": 3.2})
    report = json.loads(path.read_text())
    assert report == {"discovery": {"qps": 100}, "sweep": {"speedup": 3.2}}


def test_record_overwrites_same_section(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    record_bench_section(path, "sweep", {"speedup": 1.0})
    record_bench_section(path, "sweep", {"speedup": 4.0})
    assert json.loads(path.read_text()) == {"sweep": {"speedup": 4.0}}


def test_corrupt_report_replaced_not_crashed(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    path.write_text("{ definitely not json")
    record_bench_section(path, "sweep", {"ok": 1})
    assert json.loads(path.read_text()) == {"sweep": {"ok": 1}}


def test_interrupted_write_preserves_existing_report(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_perf.json"
    record_bench_section(path, "discovery", {"qps": 100})
    before = path.read_text()

    def exploding_replace(src, dst):
        raise OSError("simulated crash during replace")

    monkeypatch.setattr(fsutil.os, "replace", exploding_replace)
    with pytest.raises(OSError):
        record_bench_section(path, "sweep", {"speedup": 9.9})

    # The original report is byte-identical and no tmp files leak.
    assert path.read_text() == before
    leftovers = [p for p in tmp_path.iterdir() if p != path]
    assert leftovers == []


def test_atomic_write_text_roundtrip(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "hello\n")
    assert path.read_text() == "hello\n"
    atomic_write_text(path, "replaced\n")
    assert path.read_text() == "replaced\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


# ----------------------------------------------------------------------
# The perf-benchmark registry behind `repro bench`
# ----------------------------------------------------------------------
def test_registry_scripts_all_exist():
    from repro.metrics.bench import PERF_BENCHMARKS, perf_bench_dir

    perf = perf_bench_dir()
    for name, script in PERF_BENCHMARKS.items():
        assert (perf / script).is_file(), f"{name} -> {script}"


def test_perf_bench_dir_walks_up(tmp_path):
    from repro.metrics.bench import perf_bench_dir

    (tmp_path / "benchmarks" / "perf").mkdir(parents=True)
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    assert perf_bench_dir(nested) == tmp_path / "benchmarks" / "perf"


def test_run_perf_bench_rejects_unknown_name():
    from repro.metrics.bench import run_perf_bench

    with pytest.raises(KeyError, match="unknown benchmark"):
        run_perf_bench("no_such_bench")


def test_run_perf_bench_invokes_script_main(tmp_path):
    from repro.metrics.bench import run_perf_bench

    perf = tmp_path / "benchmarks" / "perf"
    perf.mkdir(parents=True)
    (perf / "bench_discovery.py").write_text(
        "import json, sys\n"
        "def main(argv):\n"
        "    json.dump(argv, open(argv[argv.index('--output') + 1], 'w'))\n"
        "    return 0\n"
    )
    out = tmp_path / "result.json"
    rc = run_perf_bench(
        "discovery", ["--output", str(out)], perf_dir=perf
    )
    assert rc == 0
    assert json.loads(out.read_text()) == ["--output", str(out)]
