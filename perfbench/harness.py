"""Benchmark-side plumbing: statistics, host information, host-speed
calibration, attribute patching and span recording.

Nothing here changes the program under test. Layers are timed from
outside by replacing a public entry point (a class attribute or a module
attribute) with a thin wrapper for the duration of a run, and putting
the original back afterwards.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

now = time.perf_counter


# -- statistics ------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return ordered[int(rank) - 1]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- host ------------------------------------------------------------------------


def host_info() -> Dict[str, object]:
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    import resource

    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- host-speed calibration ------------------------------------------------------

_CAL_KEYS = [i.to_bytes(8, "little") for i in range(50000)]
_CAL_TABLE = {key: i for i, key in enumerate(_CAL_KEYS)}
# Calibration-loop time on the reference host (2-CPU Intel Xeon VM at
# 2.1 GHz, CPython 3.11, no contention).
REFERENCE_CAL_S = 0.015


def calibration_s() -> float:
    """Time one fixed interpreter-bound loop: dict lookups on bytes keys,
    slicing and ``int.from_bytes``, the simulators' staple operations."""
    table = _CAL_TABLE
    acc = 0
    start = now()
    for key in _CAL_KEYS:
        acc = (acc + table[key] + int.from_bytes(key[2:6], "little")) \
            & 0xFFFFFFFF
    return now() - start


class Calibration:
    """Calibration loops interleaved with measured windows of work.

    On a shared host, contention from other tenants slows the program
    and this loop alike for seconds at a time. A window's scale is the
    reference loop time over the mean loop time on both sides of the
    window: host seconds times scale are reference-host seconds.
    """

    def __init__(self) -> None:
        self.samples = [calibration_s()]

    def tick(self) -> float:
        """Close the window that ran since the last tick; its scale."""
        self.samples.append(calibration_s())
        return 2 * REFERENCE_CAL_S / (self.samples[-2] + self.samples[-1])


# -- patching --------------------------------------------------------------------


class Patches:
    """Replace attributes and restore them later (LIFO)."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# -- spans -----------------------------------------------------------------------


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, run_id, thread]``; ``parent``
    is the index of the enclosing span on the same thread (or ``None``).
    Spans are written out once, at exit (:meth:`dump`).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.enabled = False
        self.run_id = ""
        self._local = threading.local()
        self.patches = Patches()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, now(), None, stack[-1] if stack else None,
                           self.run_id, threading.current_thread().name])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = now()
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[int]]:
        if not self.enabled:
            yield None
            return
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            index = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(index)

        self.patches.set(owner, attr, traced)

    def wrap_generator(self, owner: object, attr: str, name: str) -> None:
        """Record a span around every ``next()`` of a generator method."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            source = original(*args, **kwargs)
            while True:
                index = tracer.begin(name) if tracer.enabled else None
                try:
                    item = next(source)
                except StopIteration:
                    return
                finally:
                    if index is not None:
                        tracer.end(index)
                yield item

        self.patches.set(owner, attr, traced)

    def unwrap(self) -> None:
        self.patches.restore()

    # -- analysis ----------------------------------------------------------------

    def children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            if span[3] is not None:
                kids.setdefault(span[3], []).append(index)
        return kids

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return (span[2] if span[2] is not None else now()) - span[1]

    def self_times(self) -> List[float]:
        """Duration minus the time covered by direct children.

        Children of one span run on its thread, nested and in sequence,
        so the covered time is the sum of their durations.
        """
        kids = self.children()
        return [
            self.duration(i) - sum(self.duration(k) for k in kids.get(i, ()))
            for i in range(len(self.spans))
        ]

    def descendants(self, root: int) -> List[int]:
        kids = self.children()
        out: List[int] = []
        todo = list(kids.get(root, ()))
        while todo:
            index = todo.pop()
            out.append(index)
            todo.extend(kids.get(index, ()))
        return sorted(out)

    def dump(self, path: str, meta: Dict[str, object]) -> None:
        self_times = self.self_times()
        records = [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             "run": s[4], "thread": s[5], "self": self_times[i]}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(meta, spans=records), fh)


# -- sensitivity check -----------------------------------------------------------


def spin(reference_s: float) -> None:
    """A fixed amount of CPU work: the calibration loop's operations for
    ``reference_s`` seconds of the reference host. Contention slows it
    as it slows the program, so it is the same delay in reference time."""
    table = _CAL_TABLE
    acc = 0
    full, rest = divmod(round(len(_CAL_KEYS) * reference_s / REFERENCE_CAL_S),
                        len(_CAL_KEYS))
    for keys in [_CAL_KEYS] * full + [_CAL_KEYS[:rest]]:
        for key in keys:
            acc = (acc + table[key] + int.from_bytes(key[2:6], "little")) \
                & 0xFFFFFFFF


def delayed(patches: Patches, owner: object, attr: str,
            reference_s: float) -> None:
    """Wrap ``owner.attr`` so every call first does :func:`spin` work."""
    original = getattr(owner, attr)

    def slow(*args, **kwargs):
        spin(reference_s)
        return original(*args, **kwargs)

    patches.set(owner, attr, slow)
