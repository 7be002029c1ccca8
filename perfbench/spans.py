"""In-memory span tracing from outside the program, and timing statistics.

The benchmark times a layer by replacing that layer's public functions with
wrappers for the length of one sample and putting the originals back after.
Modules import by name (``from .powermodel import predict_all``), so a
function is replaced in every ``rendergov`` module that binds it; methods are
replaced on their class.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from scipy.ndimage import correlate1d

# Span record fields. A record is a list so a wrapper can fill in its end.
NAME, START, END, PARENT, SAMPLE = range(5)


class Tracer:
    """Spans (name, start, end, parent span, sample id) and call counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.sample = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.sample]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def timed(self, name: str):
        """Wrapper factory recording one span per call."""

        def make(fn):
            def wrapper(*args, **kwargs):
                record = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(record)

            return wrapper

        return make

    def counted(self, name: str):
        """Wrapper factory counting calls only, for functions too hot to time."""
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, sample) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start, "end": end,
                          "parent": parent, "sample": sample}
                fh.write(json.dumps(record) + "\n")


def replace_function(module, name: str, make_wrapper) -> list[tuple[object, str, object]]:
    """Replace ``module.name`` in every loaded rendergov module that binds it.

    Returns (owner, attribute, original) triples for :func:`restore`.
    """
    original = getattr(module, name)
    wrapper = make_wrapper(original)
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.partition(".")[0] != "rendergov":
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))
    return undo


def replace_method(cls, name: str, make_wrapper) -> list[tuple[object, str, object]]:
    original = cls.__dict__[name]
    setattr(cls, name, make_wrapper(original))
    return [(cls, name, original)]


def restore(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_totals(spans: list[list], sample: int) -> dict[str, dict[str, float]]:
    """Per span name in one sample: calls, total (inclusive) and self seconds.

    A span's self time is its duration minus the part of it that its child
    spans cover; calls run one at a time, so that is the children's summed
    duration.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        if span[SAMPLE] == sample and span[PARENT] >= 0:
            child_time[span[PARENT]] = (
                child_time.get(span[PARENT], 0.0) + span[END] - span[START]
            )
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        if span[SAMPLE] != sample:
            continue
        duration = span[END] - span[START]
        row = out.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time.get(i, 0.0)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile, refused unless ten values lie beyond it."""
    n = len(values)
    rank = max(1, math.ceil(q * n / 100.0))
    if n - rank < 10:
        raise ValueError(
            f"p{q:g} of {n} values has {max(n - rank, 0)} beyond it; 10 are required"
        )
    return sorted(values)[rank - 1]


class SpeedProbe:
    """Fixed work run in short chunks while the program runs, to cancel the
    host's speed drift.

    On a shared virtual machine the same code runs tens of percent slower for
    seconds to minutes at a time while other tenants load the host. A chunk
    does work of the kinds the program does, interpreted Python and small
    scipy filters, so it slows with the program. A chunk runs at the start
    and end of a measured interval and, through :meth:`hook` on a function the
    program calls throughout the interval, at most every ``INTERVAL_S`` in
    between. :meth:`normalize` takes the chunks' time out of the interval and
    scales the rest by ``REFERENCE_S`` over the mean chunk time in it:
    seconds at the speed where a chunk takes
    ``REFERENCE_S``, about its typical time on a 2-vCPU x86-64 virtual
    machine with Python 3.11.
    """

    REFERENCE_S = 0.006
    INTERVAL_S = 0.25
    _TAPS = np.full(11, 1.0 / 11)
    _IMAGE = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.spent = 0.0
        self._next = 0.0

    def chunk(self) -> None:
        start = perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i % 7
        x = self._IMAGE
        for _ in range(10):
            x = correlate1d(correlate1d(x, self._TAPS, axis=0), self._TAPS, axis=1)
        elapsed = perf_counter() - start
        self.durations.append(elapsed)
        self.spent += elapsed

    def hook(self, fn):
        def wrapper(*args, **kwargs):
            if perf_counter() >= self._next:
                self.chunk()
                self._next = perf_counter() + self.INTERVAL_S
            return fn(*args, **kwargs)

        return wrapper

    def mark(self) -> tuple[int, float]:
        """Start an interval with a chunk."""
        first = len(self.durations)
        self.chunk()
        self._next = perf_counter() + self.INTERVAL_S
        return first, self.spent

    def normalize(self, mark: tuple[int, float], seconds: float) -> tuple[float, float]:
        """(program seconds, speed-normalized seconds) for ``seconds`` of host
        time measured since ``mark``, chunks included."""
        first, spent = mark
        program = seconds - (self.spent - spent)
        self.chunk()
        speed = sum(self.durations[first:]) / (len(self.durations) - first)
        return program, program * self.REFERENCE_S / speed
