"""The reference load: it runs on its CPU and yields speeds and CPU times."""

from __future__ import annotations

import os
import time

from reference import CpuReference, ReferenceFailed


def test_reference_measures_its_cpu(tmp_path):
    cpu = max(os.sched_getaffinity(0))
    ref = CpuReference(cpu, tmp_path / "marks.json")
    start = time.perf_counter()
    time.sleep(0.5)
    end = time.perf_counter()
    ref.stop()
    assert ref.proc.returncode == 0
    assert len(ref.times) > 10
    assert ref.factor(start, end) > 0
    # alone on its CPU at most, and never more CPU than time passed
    assert 0 < ref.cpu_used(start, end) <= (end - start) * 1.05 + 0.01
    try:
        ref.cpu_used(start - 60, end)
    except ReferenceFailed:
        pass
    else:
        raise AssertionError("a window outside the marks must be refused")
