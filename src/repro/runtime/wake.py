"""One wake primitive for every wall-clock wait in the debugger.

The threaded and distributed sessions drive their clusters by waiting for
facts to become observable: a halt notification filed, a state report
arrived, a ``halted`` flag flipped, a channel closed by its marker. Those
facts are all produced at a handful of known places (a mailbox item
finishing on the debugger's controller or on a frozen one, a ``ctl``
frame arriving), so the waiter sleeps on a condition variable and the
producers wake it — the Cwerg ``BreakPoint`` idiom: mutex +
condition variable, wait / ``notify_all``.

Two facts predicates read are never signalled — a child OS process dying
(``proc.poll()``) and wall-clock deadlines — so every wait also re-checks
on a coarse timer. The counters say which of the two ended a wait.
"""

from __future__ import annotations

import threading
import time
from typing import Callable


class Wake:
    """Condition-variable wait with lost-wake-up-free predicates."""

    #: Seconds between unsignalled re-checks of a waiting predicate.
    RECHECK = 0.05

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._signals = 0
        #: ``wait_for`` calls made.
        self.waits = 0
        #: Wake-ups caused by a :meth:`notify`.
        self.notified_wakeups = 0
        #: Wake-ups caused by the re-check timer (or the deadline).
        self.fallback_wakeups = 0

    def notify(self) -> None:
        """Wake every waiter. Call *after* changing what predicates read."""
        with self._cond:
            self._signals += 1
            self._cond.notify_all()

    def wait_for(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Block until ``predicate()`` holds; False once ``timeout`` passed.

        The predicate runs under the lock ``notify`` takes, so a change
        made between a failed look and the sleep cannot be lost: its
        ``notify`` blocks until the waiter is asleep. Predicates must not
        block and must not wait on this object.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            self.waits += 1
            while not predicate():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                seen = self._signals
                self._cond.wait(min(remaining, self.RECHECK))
                if self._signals != seen:
                    self.notified_wakeups += 1
                else:
                    self.fallback_wakeups += 1
            return True


__all__ = ["Wake"]
