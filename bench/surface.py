"""The single place the benchmark imports ``repro`` from.

Every symbol the benchmark touches is named once, here, as
``"module:attribute"``. A later refactor that moves or renames one shows
up as exactly one of two things, never as a silent zero:

* a missing :data:`REQUIRED` symbol (the end-to-end legs need it) is one
  clear error line and a non-zero exit before anything is measured;
* a missing :data:`OPTIONAL` symbol (only a per-layer probe needs it)
  loads as ``None`` with a warning, and the probe reports ``null``.

The documented facade is preferred: ``repro.core.api`` and the
package-level exports of ``repro.check`` / ``repro.debugger`` /
``repro.distributed`` / ``repro.record`` / ``repro.recovery`` /
``repro.observe``.
"""

from __future__ import annotations

import importlib
import os
import sys
from types import SimpleNamespace

#: The checkout root: ``bench/`` sits beside ``src/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REQUIRED = {
    "attach_debugger": "repro.core.api:attach_debugger",
    "build_workload": "repro.core.api:build_workload",
    "check_cut_consistency": "repro.analysis.consistency:check_cut_consistency",
    "total_money": "repro.workloads.bank:total_money",
    "ThreadedDebugSession": "repro.debugger:ThreadedDebugSession",
    "ThreadedSurface": "repro.debugger:ThreadedSurface",
    "DebugServer": "repro.debugger:DebugServer",
    "DebuggerService": "repro.debugger:DebuggerService",
    "HeldTarget": "repro.debugger:HeldTarget",
    "DebugClient": "repro.debugger:DebugClient",
    "DistributedDebugSession": "repro.distributed:DistributedDebugSession",
    "FrameRecorder": "repro.record:FrameRecorder",
    "explore_parallel": "repro.check:explore_parallel",
    "scenarios": "repro.check:scenarios",
    "check_main": "repro.check.cli:check_main",
}

OPTIONAL = {
    "build_system": "repro.core.api:build_system",
    "SimulationKernel": "repro.simulation.kernel:SimulationKernel",
    "capture": "repro.runtime.memento:capture",
    "Observability": "repro.observe:Observability",
    "ExplorationEngine": "repro.check.engine:ExplorationEngine",
    "run_schedule": "repro.check:run_schedule",
    "fingerprint_system": "repro.check:fingerprint_system",
    "evaluate": "repro.check:evaluate",
    "encode_payload": "repro.distributed.protocol:encode_payload",
    "decode_payload": "repro.distributed.protocol:decode_payload",
    "send_frame": "repro.distributed.wire:send_frame",
    "recv_frame": "repro.distributed.wire:recv_frame",
    "record_run": "repro.record:record_run",
    "replay_trace": "repro.record:replay_trace",
    "save_trace": "repro.record:save_trace",
    "load_trace": "repro.record:load_trace",
    "CheckpointStore": "repro.recovery:CheckpointStore",
    "ClusterSupervisor": "repro.recovery:ClusterSupervisor",
}


class SurfaceError(Exception):
    """A symbol the end-to-end run cannot do without is gone."""


def _resolve(spec: str):
    module, _, attribute = spec.partition(":")
    return getattr(importlib.import_module(module), attribute)


def load() -> SimpleNamespace:
    """Import every symbol; returns a namespace keyed by the names above."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(src):
        raise SurfaceError(f"no program to measure: {src} does not exist")
    if src not in sys.path:
        sys.path.insert(0, src)
    api = SimpleNamespace()
    missing = []
    for name, spec in REQUIRED.items():
        try:
            setattr(api, name, _resolve(spec))
        except (ImportError, AttributeError) as exc:
            missing.append(f"{spec} ({type(exc).__name__}: {exc})")
    if missing:
        raise SurfaceError(
            "benchmark surface is missing required symbol(s): "
            + "; ".join(missing)
        )
    for name, spec in OPTIONAL.items():
        try:
            setattr(api, name, _resolve(spec))
        except (ImportError, AttributeError) as exc:
            print(f"bench: warning: probe symbol {spec} unavailable "
                  f"({type(exc).__name__}: {exc}); its metrics read null",
                  file=sys.stderr)
            setattr(api, name, None)
    return api
