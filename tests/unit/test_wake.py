"""The wake primitive every wall-clock session wait sleeps on.

Races are run with the re-check timer pushed out of reach (``RECHECK`` is
read through the instance), so a lost wake-up hangs into the test's own
deadline instead of being quietly rescued 50 ms later.
"""

import sys
import threading
import time

import pytest

from repro.runtime.wake import Wake

JOIN = 60.0


def _no_recheck() -> Wake:
    wake = Wake()
    wake.RECHECK = 3600.0
    return wake


@pytest.fixture
def fast_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def test_set_then_notify_never_loses_a_wakeup(fast_switching):
    """10k rounds of ping-pong: every wait races the other side's
    set-then-notify, and one lost wake-up would stall the rally."""
    wake = _no_recheck()
    rounds = 10_000
    ball = {"ping": 0, "pong": 0}
    failed = []

    def server() -> None:
        for i in range(1, rounds + 1):
            if not wake.wait_for(lambda: ball["ping"] == i, timeout=JOIN):
                failed.append(("server", i))
                return
            ball["pong"] = i
            wake.notify()

    thread = threading.Thread(target=server, daemon=True)
    thread.start()
    for i in range(1, rounds + 1):
        ball["ping"] = i
        wake.notify()
        if not wake.wait_for(lambda: ball["pong"] == i, timeout=JOIN):
            failed.append(("client", i))
            break
    thread.join(JOIN)
    assert not thread.is_alive()
    assert not failed
    assert ball == {"ping": rounds, "pong": rounds}
    assert wake.waits == 2 * rounds
    assert wake.fallback_wakeups == 0


def test_timeout_is_honoured_and_last_look_comes_after_it():
    wake = Wake()
    looks = []
    started = time.monotonic()
    assert wake.wait_for(lambda: looks.append(time.monotonic()), 0.12) is False
    elapsed = time.monotonic() - started
    assert 0.12 <= elapsed < 0.12 + Wake.RECHECK + 0.5
    assert looks[-1] - started >= 0.12
    # An expired budget still gets its one look.
    assert wake.wait_for(lambda: True, timeout=-1.0) is True
    assert wake.wait_for(lambda: False, timeout=0.0) is False


def test_unnotified_change_is_caught_by_the_recheck():
    wake = Wake()
    flag = threading.Event()
    timer = threading.Timer(0.02, flag.set)  # no notify()
    timer.start()
    try:
        started = time.monotonic()
        assert wake.wait_for(flag.is_set, timeout=10.0)
        assert time.monotonic() - started < 10 * Wake.RECHECK
    finally:
        timer.cancel()
        timer.join(JOIN)
    assert wake.notified_wakeups == 0
    assert wake.fallback_wakeups >= 1


def test_every_concurrent_waiter_wakes_on_one_notify(fast_switching):
    wake = _no_recheck()
    flag = []
    woke = []
    looked = threading.Semaphore(0)

    def predicate() -> bool:
        looked.release()
        return bool(flag)

    def waiter(index: int) -> None:
        if wake.wait_for(predicate, timeout=JOIN):
            woke.append(index)

    threads = [
        threading.Thread(target=waiter, args=(i,), daemon=True)
        for i in range(24)
    ]
    for thread in threads:
        thread.start()
    for _ in threads:  # every waiter has looked once and found nothing
        assert looked.acquire(timeout=JOIN)
    flag.append(True)
    wake.notify()
    for thread in threads:
        thread.join(JOIN)
        assert not thread.is_alive()
    assert sorted(woke) == list(range(24))
    assert wake.notified_wakeups == 24
    assert wake.fallback_wakeups == 0


def test_counters_split_signal_from_timer():
    """A controlled notifier: each notify is sent only once the waiter
    has looked (it holds the lock from the look until it sleeps, so the
    notify cannot land early), making the wake-up count exact."""
    wake = _no_recheck()
    spurious = 5
    looks = threading.Semaphore(0)
    done = []

    def predicate() -> bool:
        looks.release()
        return bool(done)

    def notifier() -> None:
        for _ in range(spurious):
            looks.acquire(timeout=JOIN)
            wake.notify()
        looks.acquire(timeout=JOIN)
        done.append(True)
        wake.notify()

    thread = threading.Thread(target=notifier, daemon=True)
    thread.start()
    assert wake.wait_for(predicate, timeout=JOIN)
    thread.join(JOIN)
    assert not thread.is_alive()
    assert (wake.waits, wake.notified_wakeups, wake.fallback_wakeups) == (
        1, spurious + 1, 0)

    # ...and a wait nobody signals is all timer.
    timed = Wake()
    assert not timed.wait_for(lambda: False, timeout=2.5 * Wake.RECHECK)
    assert (timed.waits, timed.notified_wakeups) == (1, 0)
    assert timed.fallback_wakeups >= 2
