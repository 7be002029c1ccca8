"""The names the benchmark in ``perfbench/`` hooks from outside the program.

``perfbench/run.py`` replaces functions by name and reads the pattern
cache's counters, so a refactor that moves one breaks the benchmark, not
the program; this loads the benchmark as its own tests do and checks that
every name it hooks still resolves.
"""

import importlib
from pathlib import Path

from rendergov import governor, harness, simgpu

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    spans = importlib.import_module("spans")
    tick = governor.Governor.tick
    spans.restore(run.instrument(spans.Tracer()))
    assert governor.Governor.tick is tick
    assert harness.render_frame is simgpu.render_frame
    assert callable(harness.quality_error)
    run._fresh_process_state()
    assert simgpu._base_pattern.cache_info().currsize == 0
