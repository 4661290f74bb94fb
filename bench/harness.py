"""Measurement plumbing shared by the legs and the probes.

One :class:`Recorder` per run holds the three things a run produces:
timing samples per metric, the op/gate tally (``attempted`` / ``failed``),
and — on a traced run — the bench-side spans around every call into a
layer. Nothing here imports ``repro``.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


# -- statistics ----------------------------------------------------------------


def phigh(values: List[float]) -> Tuple[str, float]:
    """The highest percentile the sample supports (ten samples beyond
    it): p95 from 200 samples, p90 from 100, else the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 200:
        return "p95", ordered[int(n * 0.95) - 1]
    if n >= 100:
        return "p90", ordered[int(n * 0.90) - 1]
    return "max", ordered[-1]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- the recorder ----------------------------------------------------------------


class Recorder:
    """Samples, the op tally, and (when ``traced``) spans for one run."""

    def __init__(self, traced: bool = False) -> None:
        self.traced = traced
        self.samples: Dict[str, List[float]] = {}
        self.values: Dict[str, Optional[float]] = {}
        #: Live objects a leg sets aside as inputs for the layer probes.
        self.harvest: Dict[str, Any] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: ``(id, parent, name, layer, start, end)`` in perf_counter seconds.
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    # -- ops and gates -----------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        """One correctness gate = one attempted op; a false gate is a
        failed op, reported and never raised."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"bench: FAILED op: {what}", file=sys.stderr)
        return bool(ok)

    # -- timing --------------------------------------------------------------------

    def add(self, metric: str, value: float) -> None:
        """One sample; times in seconds (scaled to the metric's unit when
        the run is reduced), rates and counts as they are."""
        self.samples.setdefault(metric, []).append(value)

    def set(self, metric: str, value: Optional[float]) -> None:
        """A single-valued metric, already in its reported unit."""
        self.values[metric] = value

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """A bench-side span around a call into ``layer`` (no-op unless
        the run is traced)."""
        if not self.traced:
            yield
            return
        span_id = len(self.spans) + 1
        parent = self._stack[-1] if self._stack else 0
        self.spans.append((span_id, parent, name, layer, 0.0, 0.0))
        self._stack.append(span_id)
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            self._stack.pop()
            self.spans[span_id - 1] = (
                span_id, parent, name, layer, started, ended
            )

    def timed(self, metric: Optional[str], name: str, layer: str,
              call: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call into a layer's public function: time it into ``metric``
        (seconds; ``None`` = span only) and, on a traced run, span it."""
        with self.span(name, layer):
            started = time.perf_counter()
            result = call(*args, **kwargs)
            elapsed = time.perf_counter() - started
        if metric is not None:
            self.add(metric, elapsed)
        return result

    # -- trace export ----------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer: each span's duration minus the
        part its child spans cover."""
        children: Dict[int, float] = {}
        for _, parent, _, _, start, end in self.spans:
            children[parent] = children.get(parent, 0.0) + (end - start)
        totals: Dict[str, float] = {}
        for span_id, _, _, layer, start, end in self.spans:
            own = (end - start) - children.get(span_id, 0.0)
            totals[layer] = totals.get(layer, 0.0) + max(own, 0.0)
        return totals

    def chrome_trace(self) -> Dict[str, Any]:
        """The spans as Chrome ``trace_event`` complete events."""
        events = [
            {
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - self._origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, parent, name, layer, start, end in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- host stamp, scratch space, leak checks ------------------------------------


def host_stamp(root: str) -> Dict[str, Any]:
    """What every result carries (ROADMAP aim 1): the host it ran on."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(root),
    }


def _commit(root: str) -> str:
    """HEAD's hash read straight from ``.git`` (no subprocess; the
    driver's checkout is not a repository, which reads ``unknown``)."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fp:
            return fp.read().strip()[:12]
    except OSError:
        return "unknown"


@contextlib.contextmanager
def scratch_dir() -> Iterator[str]:
    """A private temp dir under ``bench/out/`` that also becomes the
    process's (and its children's) ``TMPDIR``, so nothing the program
    writes lands outside the checkout. Removed on exit."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    saved_env, saved_tempdir = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = path
    tempfile.tempdir = path
    try:
        yield path
    finally:
        tempfile.tempdir = saved_tempdir
        if saved_env is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_env
        shutil.rmtree(path, ignore_errors=True)


def live_children() -> List[int]:
    """Pids whose parent is this process (zombies included). Empty where
    ``/proc`` is unavailable."""
    me = os.getpid()
    found = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fp:
                # pid (comm) state ppid ... — comm may contain spaces.
                fields = fp.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def write_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=1, sort_keys=True)
        fp.write("\n")
