"""What the benchmark runs: the two traffic regimes and the metric tables.

Every run drives all four surfaces of the tool (the *legs*: DES debug
loop, schedule checker, threaded debug loop + control plane, live
cluster with the recorder tap off and on); a *workload* picks the traffic
regime the debugged program imposes on all of them. ``BENCHMARK.json`` is
the one list of metric names, units and bounds; this module only reads it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from bench.surface import ROOT

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Seconds -> the unit a metric is reported in.
UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as fp:
        return json.load(fp)


def ring_progress(state: Any) -> int:
    """Token hops so far: the newest token value any station has seen."""
    return max(snap.state["last_value"] for snap in state.processes.values())


def bank_progress(state: Any) -> int:
    """Wires sent so far, summed over the branches."""
    return sum(snap.state["transfers_made"] for snap in state.processes.values())


def ring_conserved(api: Any, state: Any, n: int) -> Optional[str]:
    """Exactly one token at any consistent cut: held, or in a channel."""
    held = sum(1 for snap in state.processes.values() if snap.state["holding"])
    flying = sum(len(c.messages) for c in state.channels.values())
    injected = any(snap.state.get("injected") is False
                   for snap in state.processes.values())
    if held + flying + (1 if injected else 0) != 1:
        return f"token count {held} held + {flying} in flight != 1"
    return None


def bank_conserved(api: Any, state: Any, n: int) -> Optional[str]:
    """Balances at the cut plus amounts in transit equal the initial total."""
    total = api.total_money(state)
    if total != 1000 * n:
        return f"money {total} != {1000 * n}"
    return None


@dataclass(frozen=True)
class Regime:
    """One workload: the program every leg debugs or checks."""

    name: str
    program: str
    #: DES leg: build params, virtual time per run phase, the linked
    #: predicate that fires once per session, and predicates that arm but
    #: never fire (the ``breakpoints.armed_event_us`` probe).
    des_params: Dict[str, Any]
    des_horizon: float
    des_breakpoint: str
    never_predicates: tuple
    #: Threaded and live legs: build params (a fast, endless program).
    threaded_params: Dict[str, Any]
    live_params: Dict[str, Any]
    #: A predicate already reachable whenever it is armed (control plane).
    live_breakpoint: str
    #: Checker leg: registry scenario and exploration budget.
    scenario: str
    budget: int
    progress: Callable[[Any], int]
    conserved: Callable[[Any, Any, int], Optional[str]]


_FOREVER = 10 ** 9

REGIMES = {
    "ring": Regime(
        name="ring",
        program="token_ring",
        des_params={"n": 6, "max_hops": _FOREVER, "hold_time": 0.05},
        des_horizon=400.0,
        des_breakpoint="recv(token)@p1 -> recv(token)@p3",
        never_predicates=(
            "state(tokens_seen<0)@p0", "state(tokens_seen<0)@p1",
            "state(tokens_seen<0)@p2", "state(tokens_seen<0)@p3",
            "state(tokens_seen<0)@p4 -> state(tokens_seen<0)@p5",
        ),
        threaded_params={"n": 4, "max_hops": _FOREVER, "hold_time": 0.005},
        live_params={"n": 3, "max_hops": _FOREVER, "hold_time": 0.005},
        live_breakpoint="state(tokens_seen>=1)@p1",
        scenario="token_ring",
        budget=1200,
        progress=ring_progress,
        conserved=ring_conserved,
    ),
    "bank": Regime(
        name="bank",
        program="bank",
        des_params={"n": 6, "transfers": _FOREVER},
        des_horizon=50.0,
        des_breakpoint="send(wire)@branch0 -> recv(wire)@branch1",
        never_predicates=(
            "state(balance<0)@branch0", "state(balance<0)@branch1",
            "state(balance<0)@branch2", "state(balance<0)@branch3",
            "state(balance<0)@branch4 -> state(balance<0)@branch5",
        ),
        threaded_params={"n": 4, "transfers": _FOREVER, "tick": 0.005},
        live_params={"n": 3, "transfers": _FOREVER, "tick": 0.005},
        live_breakpoint="state(transfers_made>=1)@branch1",
        scenario="pipeline",
        budget=600,
        progress=bank_progress,
        conserved=bank_conserved,
    ),
}
