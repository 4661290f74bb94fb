"""Event-driven waits and marker-closure halt convergence, end to end.

The sessions no longer sleep between looks: every verb returns on the
wake-up of the fact it waits for, and a halt is over when the paper says
it is — ``d`` holds every notification and every channel between frozen
processes saw its closing marker. These tests hammer the verbs back to
back with *no sleeps in between* (the old quiet window used to hide any
ordering slack) and check that the cut is whole every single time.
"""

import threading
import time

import pytest

from repro.debugger.threaded_session import ThreadedDebugSession
from repro.distributed.session import DistributedDebugSession
from repro.workloads import bank, token_ring

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")

FOREVER = 10 ** 9


def ring_tokens(state) -> int:
    """Held + in flight + (a halt can beat p0's inject timer) not yet born."""
    snaps = state.processes.values()
    held = sum(1 for snap in snaps if snap.state.get("holding"))
    unborn = any(snap.state.get("injected") is False for snap in snaps)
    return held + state.total_pending_messages() + unborn


def _report_wake(label: str, wake) -> None:
    print(f"{label}: waits={wake.waits} notified={wake.notified_wakeups} "
          f"fallback={wake.fallback_wakeups}")


WORKLOADS = {
    "token_ring": (
        lambda: token_ring.build(n=4, max_hops=FOREVER, hold_time=0.005),
        lambda state: ring_tokens(state) == 1,
    ),
    "bank": (
        lambda: bank.build(n=4, transfers=FOREVER, tick=0.005),
        lambda state: bank.total_money(state) == 4 * bank.INITIAL_BALANCE,
    ),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_thirty_back_to_back_threaded_cycles(workload):
    build, conserved = WORKLOADS[workload]
    topology, processes = build()
    with ThreadedDebugSession(topology, processes, seed=11) as session:
        system = session.system
        names = list(system.user_process_names)
        channels = len(system.topology.channels)
        for cycle in range(30):
            markers = system.message_totals().get("halt_marker", 0)
            report = session.halt_with_watchdog(timeout=20.0)
            assert report.complete, report.describe()
            assert report.generation == cycle + 1
            sent = system.message_totals().get("halt_marker", 0) - markers
            assert sent == channels, f"cycle {cycle}: {sent} markers"
            state = session.global_state(timeout=20.0)
            assert set(state.processes) == set(names)
            assert all(c.complete for c in state.channels.values()), cycle
            assert conserved(state), f"cycle {cycle}: cut lost a message"
            target = names[cycle % len(names)]
            step = session.step(target, timeout=20.0)
            assert step.process == target
            assert session.resume(timeout=20.0)
        _report_wake(f"threaded {workload}", system.wake)


def test_ten_back_to_back_cycles_on_a_live_cluster():
    with DistributedDebugSession(
            "token_ring", {"n": 3, "max_hops": FOREVER, "hold_time": 0.005},
            seed=11) as session:
        channels = len(session.spec.channels)
        for cycle in range(10):
            report = session.halt_with_watchdog(timeout=20.0)
            assert report.complete, report.describe()
            state = session.collect_global_state(timeout=20.0)
            assert all(c.complete for c in state.channels.values()), cycle
            assert ring_tokens(state) == 1, f"cycle {cycle}"
            target = f"p{cycle % 3}"
            assert session.step(target, timeout=20.0).process == target
            assert session.resume(timeout=20.0)
        _report_wake("live token_ring", session.system.wake)
    markers = session.cluster_message_totals().get("halt_marker", 0)
    assert markers == 10 * channels


def test_breakpoint_halt_returns_with_the_full_halting_order():
    topology, processes = bank.build(n=4, transfers=FOREVER, tick=0.005)
    with ThreadedDebugSession(topology, processes, seed=3) as session:
        names = set(session.system.user_process_names)
        for generation in (1, 2, 3):
            session.set_breakpoint(
                f"state(transfers_made>={generation})@branch1")
            assert session.run_until_stopped(timeout=20.0)
            # No probe, no sleep: §2.2.4's list is already whole.
            order = [
                n.process for n in session.agent.halting_order()
                if n.halt_id == generation
            ]
            assert set(order) == names and len(order) == len(names)
            assert set(session.halt_paths()) == names
            state = session.global_state(timeout=20.0)
            assert bank.total_money(state) == 4 * bank.INITIAL_BALANCE
            assert session.resume(timeout=20.0)


def test_global_state_drains_a_halt_nobody_waited_for():
    """``global_state()`` straight after the processes froze — before the
    closing markers landed — must still see every in-flight wire."""
    topology, processes = bank.build(n=4, transfers=FOREVER, tick=0.002)
    with ThreadedDebugSession(topology, processes, seed=5) as session:
        system = session.system
        for _ in range(15):
            session.halt()
            assert system.run_until(system.all_user_processes_halted, 20.0)
            state = session.global_state(timeout=20.0)
            assert all(c.complete for c in state.channels.values())
            assert bank.total_money(state) == 4 * bank.INITIAL_BALANCE
            assert session.resume(timeout=20.0)


def test_wait_halt_runs_concurrently_with_other_verbs():
    """docs/DEBUGGER.md: one session's wait-halt does not exclude
    another's commands — waiters share the wake, they do not hold it."""
    topology, processes = token_ring.build(
        n=3, max_hops=FOREVER, hold_time=0.01)
    with ThreadedDebugSession(topology, processes, seed=2) as session:
        stopped = []
        waiter = threading.Thread(
            target=lambda: stopped.append(
                session.run_until_stopped(timeout=30.0)),
            daemon=True,
        )
        waiter.start()
        # Verbs complete while the other thread is parked in its wait.
        for name in ("p0", "p1", "p2"):
            assert "tokens_seen" in session.inspect(name, timeout=10.0)
        assert waiter.is_alive() and not stopped
        session.halt()  # ...and one of them is what the waiter waits for
        waiter.join(30.0)
        assert not waiter.is_alive()
        assert stopped == [True]
        assert session.resume(timeout=10.0)


def test_sigkill_mid_halt_yields_the_partial_report_promptly():
    """A child's death is never signalled; the wake's re-check timer is
    what notices it, so the report comes after ``probe_grace`` plus a
    re-check — not after the 20 s halt timeout."""
    with DistributedDebugSession(
            "token_ring", {"n": 4, "max_hops": FOREVER, "hold_time": 0.5},
            seed=5) as session:
        time.sleep(0.3)
        killer = threading.Timer(0.002, session.kill, args=("p2",))
        killer.start()
        try:
            started = time.monotonic()
            report = session.halt_with_watchdog(timeout=20.0, probe_grace=1.0)
            elapsed = time.monotonic() - started
        finally:
            killer.join(10.0)
        assert report.is_partial and not report.complete
        assert report.dead == ("p2",)
        assert set(report.halted) == {"p0", "p1", "p3"}
        assert elapsed < 1.0 + 2.0, f"took {elapsed:.2f}s"
        state = session.collect_global_state(timeout=15.0, report=report)
        assert set(state.processes) == {"p0", "p1", "p3"}
        _report_wake("live sigkill", session.system.wake)
