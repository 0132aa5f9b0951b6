"""Tests for the provenance block every ``BENCH_*.json`` emitter stamps."""

import os

from benchmarks.bench_meta import effective_cpu_count


def test_effective_cpu_count_positive():
    cpus = effective_cpu_count()
    assert cpus >= 1
    assert cpus <= (os.cpu_count() or cpus)
