"""Threaded backend: the same programs and algorithms on real threads.

The DES backend proves the algorithms correct under *controlled*
nondeterminism (seeded interleavings). This backend removes the control:
every process is an OS thread, channels are queue-fed forwarder threads
with real (small) sleeps, and the scheduler is the operating system. The
marker algorithms run unchanged — they only use the controller surface
(``send_control``, ``halt``, ``outgoing_channels``, ``defer``, …), which
this module re-implements over threads.

What can be asserted here is what the paper asserts: every halted cut is
*consistent* (checked by the same oracle), money is conserved, markers
close channels — not bitwise equality between runs, which genuine
nondeterminism forecloses. The GIL is irrelevant: message-passing programs
block on queues, and correctness never depends on parallel speedup.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.events.clocks import ClockFrame
from repro.events.event import Event, EventKind
from repro.events.log import EventLog
from repro.faults.injection import ChannelFaultInjector, CrashAfterEvents, injector_for
from repro.faults.plan import FaultPlan
from repro.network.channel import ChannelStats
from repro.network.message import Envelope, MessageKind
from repro.network.reliable import ReliabilityConfig
from repro.runtime.context import ProcessContext
from repro.runtime.interfaces import ControlPlugin
from repro.runtime.payload import UserMessage
from repro.runtime.process import Process
from repro.runtime.state_capture import ProcessStateSnapshot, capture
from repro.runtime.wake import Wake
from repro.network.topology import Topology
from repro.util.errors import (
    ConfigurationError,
    FaultError,
    RuntimeStateError,
    TopologyError,
)
from repro.util.ids import ChannelId, ProcessId, SequenceGenerator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe.integrate import Observability

_STOP = object()


class _PendingFrame:
    """Sender-side state of one unacknowledged message (reliable mode)."""

    __slots__ = ("envelope", "attempts", "timer")

    def __init__(self, envelope: Envelope) -> None:
        self.envelope = envelope
        self.attempts = 0
        self.timer: Optional[threading.Timer] = None


class ThreadedChannel:
    """FIFO link: a queue drained by one forwarder thread that sleeps the
    sampled latency before handing the envelope to the receiver's mailbox.
    Serial forwarding makes FIFO structural, exactly like the DES clamp.

    With an injector, the wire loses/duplicates frames (reorder shows up
    only as extra delay here — the serial forwarder keeps frames in order,
    so true reordering is a DES-only fault). With ``reliability`` set, the
    same ack/retransmit protocol as the DES
    :class:`~repro.network.reliable.ReliableChannel` runs over this wire:
    sequence numbers, cumulative acks (applied directly to sender state —
    the reverse path of a threaded link is a method call), retransmission
    via real timers (scaled by the system's ``time_scale``), capped retries.

    Activity accounting for ``settle()``: the ``+1`` taken at ``send``
    belongs to the *logical message* and is released by the receiver's main
    loop after it processes the delivery. A wire drop in raw mode releases
    it in the forwarder (the message will never arrive); in reliable mode
    the credit stays held across retransmissions until the message is
    delivered or given up, so ``settle()`` cannot declare quiescence while
    a retransmission is still owed.
    """

    def __init__(self, channel_id: ChannelId, system: "ThreadedSystem",
                 latency_range: Tuple[float, float], seed: str,
                 injector: Optional[ChannelFaultInjector] = None,
                 reliability: Optional[ReliabilityConfig] = None) -> None:
        self.id = channel_id
        self._system = system
        self._latency_range = latency_range
        self._rng = random.Random(seed)
        self._retry_rng = random.Random(f"{seed}|retry")
        self._injector = None if (injector is not None and injector.is_noop) else injector
        self._reliability = reliability
        self._queue: "queue.Queue" = queue.Queue()
        self._thread = threading.Thread(
            target=self._forward_loop, name=f"chan-{channel_id}", daemon=True
        )
        self.stats = ChannelStats()
        # Legacy alias (message_totals and older tests read this).
        self.sent_by_kind = self.stats.sent_by_kind
        self.failed = False
        #: Observability hooks, same contract as ``ReliableChannel``'s:
        #: invoked outside ``_lock`` (they may re-enter channel state).
        self.on_retransmit: Optional[Callable[[int, Envelope, int], None]] = None
        self.on_recovered: Optional[Callable[[int, Envelope, int], None]] = None
        self.on_give_up: Optional[Callable[[Envelope], None]] = None
        self._lock = threading.Lock()
        self._stopping = False
        # Reliable-mode protocol state (all guarded by _lock).
        self._next_rseq = 1
        self._unacked: Dict[int, _PendingFrame] = {}
        self._expected = 1
        self._out_of_order: Dict[int, Envelope] = {}

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        with self._lock:
            self._stopping = True
            for pending in self._unacked.values():
                if pending.timer is not None:
                    pending.timer.cancel()
            self._unacked.clear()
        self._queue.put(_STOP)

    def join(self, timeout: float = 1.0) -> None:
        self._thread.join(timeout)

    def send(self, kind: MessageKind, payload: object, clock: object = None) -> Envelope:
        envelope = Envelope(
            channel=self.id,
            kind=kind,
            payload=payload,
            send_time=self._system.now,
            seq=self._system.next_message_seq(),
            clock=clock,
        )
        self._system.note_activity(+1)
        with self._lock:
            self.stats.sent += 1
            self.stats.sent_by_kind[kind] += 1
            if self._reliability is None:
                rseq = None
            else:
                rseq = self._next_rseq
                self._next_rseq += 1
                self._unacked[rseq] = _PendingFrame(envelope)
        self._queue.put((rseq, envelope))
        if rseq is not None:
            self._arm_retry(rseq)
        return envelope

    # -- forwarder (wire + receiver-side protocol endpoint) -------------------

    def _forward_loop(self) -> None:
        receiver = self._system.controller(self.id.dst)
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            rseq, envelope = item
            is_user = envelope.kind.is_user
            low, high = self._latency_range
            delay = self._rng.uniform(low, high)
            if self._injector is not None:
                # Reorder degrades to extra delay on this backend: the
                # serial forwarder is structurally FIFO.
                delay += self._injector.extra_delay(is_user) * self._system.time_scale
            time.sleep(delay)
            copies = 1
            if self._injector is not None:
                copies += self._injector.duplicates(is_user)
            arrived = 0
            for _ in range(copies):
                # drop_frame first, unconditionally: it consumes the loss
                # RNG stream, so partitions don't perturb probabilistic loss.
                if self._injector is not None and (
                    self._injector.drop_frame(is_user)
                    or self._injector.partitioned(
                        self._system.now / (self._system.time_scale or 1.0)
                    )
                ):
                    with self._lock:
                        self.stats.frames_dropped += 1
                    self._system.note_drop(envelope)
                    continue
                arrived += 1
            if self._reliability is None:
                if arrived == 0:
                    # Raw wire: the message is gone for good. Release the
                    # logical-message credit taken at send.
                    with self._lock:
                        self.stats.dropped += 1
                        self.stats.dropped_by_kind[envelope.kind] += 1
                    self._system.note_activity(-1)
                    continue
                if receiver.crashed:
                    # Frames addressed at a dead host fall on the floor.
                    self._system.note_activity(-1)
                    continue
                with self._lock:
                    self.stats.delivered += 1
                    self.stats.total_latency += self._system.now - envelope.send_time
                # The +1 from send() transfers to the mailbox item; the
                # receiver's main loop decrements after processing it.
                receiver.inbox.put(("env", envelope))
                for _ in range(arrived - 1):
                    # Wire-made duplicates each need their own credit.
                    with self._lock:
                        self.stats.delivered += 1
                    self._system.note_activity(+1)
                    receiver.inbox.put(("env", envelope))
                continue
            # Reliable mode: the surviving copies reach the protocol
            # endpoint; duplicates collapse there.
            for _ in range(arrived):
                self._protocol_receive(rseq, envelope, receiver)

    def _protocol_receive(self, rseq: int, envelope: Envelope,
                          receiver: "ThreadedController") -> None:
        if receiver.crashed:
            return  # dead host: neither delivers nor acks
        deliveries = []
        with self._lock:
            if rseq < self._expected or rseq in self._out_of_order:
                self.stats.duplicates_suppressed += 1
            else:
                self._out_of_order[rseq] = envelope
                while self._expected in self._out_of_order:
                    head = self._out_of_order.pop(self._expected)
                    self._expected += 1
                    self.stats.delivered += 1
                    self.stats.total_latency += self._system.now - head.send_time
                    deliveries.append(head)
            cumulative = self._expected - 1
        for head in deliveries:
            # Each in-order delivery carries the credit taken at its send.
            receiver.inbox.put(("env", head))
        self._send_ack(cumulative, envelope.kind.is_user)

    # -- ack + retransmit (reliable mode) --------------------------------------

    def _send_ack(self, cumulative: int, is_user: bool) -> None:
        with self._lock:
            self.stats.acks_sent += 1
        if self._injector is not None and self._injector.drop_ack(is_user):
            with self._lock:
                self.stats.acks_dropped += 1
            return
        if self._system.controller(self.id.src).crashed:
            return  # a dead sender has no transport state to update
        recovered: List[Tuple[int, Envelope, int]] = []
        with self._lock:
            for rseq in [r for r in self._unacked if r <= cumulative]:
                pending = self._unacked.pop(rseq)
                if pending.timer is not None:
                    pending.timer.cancel()
                if pending.attempts > 0:
                    recovered.append((rseq, pending.envelope, pending.attempts))
        if self.on_recovered is not None:
            for rseq, envelope, attempts in recovered:
                self.on_recovered(rseq, envelope, attempts)

    def _arm_retry(self, rseq: int) -> None:
        assert self._reliability is not None
        with self._lock:
            pending = self._unacked.get(rseq)
            if pending is None or self._stopping:
                return
            timeout = self._reliability.timeout_for(pending.attempts, self._retry_rng)
            timer = threading.Timer(
                timeout * self._system.time_scale, self._retry_fire, args=(rseq,)
            )
            timer.daemon = True
            pending.timer = timer
        timer.start()

    def _retry_fire(self, rseq: int) -> None:
        assert self._reliability is not None
        gave_up: Optional[Envelope] = None
        retransmit = False
        with self._lock:
            pending = self._unacked.get(rseq)
            if pending is None or self._stopping:
                return
            if self._system.controller(self.id.src).crashed:
                # Dead senders don't retransmit. Release the credit if the
                # message never made it, so settle() can still quiesce.
                self._unacked.pop(rseq, None)
                undelivered = rseq >= self._expected and rseq not in self._out_of_order
                if undelivered:
                    self.stats.dropped += 1
                    self.stats.dropped_by_kind[pending.envelope.kind] += 1
                    self._system.note_activity(-1)
                return
            pending.attempts += 1
            if pending.attempts > self._reliability.max_retries:
                self._unacked.pop(rseq, None)
                self.stats.gave_up += 1
                undelivered = rseq >= self._expected and rseq not in self._out_of_order
                if undelivered:
                    self.failed = True
                    self.stats.dropped += 1
                    self.stats.dropped_by_kind[pending.envelope.kind] += 1
                    self._system.note_activity(-1)
                    gave_up = pending.envelope
            else:
                self.stats.retransmits += 1
                envelope = pending.envelope
                attempts = pending.attempts
                retransmit = True
        if gave_up is not None and self.on_give_up is not None:
            self.on_give_up(gave_up)
        if not retransmit:
            return
        if self.on_retransmit is not None:
            self.on_retransmit(rseq, envelope, attempts)
        self._queue.put((rseq, envelope))
        self._arm_retry(rseq)


class ThreadedController:
    """Thread-hosted counterpart of the DES ProcessController. Exposes the
    same surface the algorithm plugins use."""

    def __init__(self, system: "ThreadedSystem", name: ProcessId,
                 process: Process, never_halts: bool = False) -> None:
        self.system = system
        self.name = name
        self.process = process
        self.never_halts = never_halts
        self.user_rng = random.Random(f"{system.seed}|proc|{name}")
        self.lamport = _Lamport()
        self.vector = system.clock_frame.clock_for(name)
        self.ctx = ProcessContext(self)
        self.halted = False
        self.terminated = False
        #: Fail-stop fault: the host is dead (see the DES controller).
        self.crashed = False
        #: Transient freeze (fault injection): buffers like halt, invisible
        #: to the debugging system.
        self.stalled = False
        self._stall_until = 0.0
        self._stall_credit = False
        self._stall_buffer: List[Envelope] = []
        self._stall_timers: List[Tuple[str, object]] = []
        self.halted_snapshot: Optional[ProcessStateSnapshot] = None
        self.halt_buffers: Dict[ChannelId, List[Envelope]] = {}
        self._halt_buffer_order: List[Envelope] = []
        self.closed_channels: set = set()
        self._deferred_timers: List[Tuple[str, object]] = []
        self._timers: Dict[str, threading.Timer] = {}
        self._timer_gen: Dict[str, int] = {}
        # Gate mode only: mirrors the DES controller's per-set_timer
        # counter so staged-timer tiebreaks match across backends.
        self._timer_seq = 0
        self._local_seq = 0
        self._muted = False
        self._restored = False
        self._plugins: List[ControlPlugin] = []
        self.inbox: "queue.Queue" = queue.Queue()
        self._thread = threading.Thread(
            target=self._main_loop, name=f"proc-{name}", daemon=True
        )

    # -- wiring ------------------------------------------------------------

    def install(self, plugin: ControlPlugin) -> None:
        plugin.attach(self)
        self._plugins.append(plugin)

    def plugin_of(self, cls: type) -> Optional[ControlPlugin]:
        for plugin in self._plugins:
            if isinstance(plugin, cls):
                return plugin
        return None

    # -- surface used by ProcessContext and plugins ---------------------------

    @property
    def now(self) -> float:
        return self.system.now

    def neighbors_out(self) -> Tuple[ProcessId, ...]:
        return tuple(
            c.dst for c in self.system.outgoing_channels(self.name)
            if not self.system.controller(c.dst).never_halts
        )

    def neighbors_in(self) -> Tuple[ProcessId, ...]:
        return tuple(
            c.src for c in self.system.incoming_channels(self.name)
            if not self.system.controller(c.src).never_halts
        )

    def outgoing_channels(self) -> Tuple[ChannelId, ...]:
        return self.system.outgoing_channels(self.name)

    def incoming_channels(self) -> Tuple[ChannelId, ...]:
        return self.system.incoming_channels(self.name)

    def defer(self, action: Callable[[], None], label: str = "defer") -> None:
        # getattr: the distributed HostRuntime reuses this controller and
        # has no gate attribute (gating there happens at the frame layer).
        gate = getattr(self.system, "gate", None)
        if gate is not None:
            # Gate mode: the action becomes an explorable internal step
            # with the DES backend's label, instead of an immediate post.
            gate.stage_internal(label, self, action)
            return
        self.system.note_activity(+1)
        self.inbox.put(("call", action))

    # -- lifecycle ----------------------------------------------------------------

    def preload(self, snapshot: ProcessStateSnapshot) -> None:
        """Load a previously captured state before the thread starts — the
        restoration half of halting, mirroring the DES controller's
        ``preload``. State, clocks, and counters resume where the capture
        left them; the new incarnation continues the old causal history."""
        if self._local_seq or self.ctx.state:
            raise RuntimeStateError(
                f"{self.name} already has history; preload before start"
            )
        self._muted = True
        try:
            self.ctx.state.update(snapshot.state)
        finally:
            self._muted = False
        self.lamport.load(snapshot.lamport)
        self.vector.load(snapshot.vector)
        self._local_seq = snapshot.local_seq
        self.terminated = snapshot.terminated
        self._restored = True

    def start(self) -> None:
        self._thread.start()

    def join(self, timeout: float = 2.0) -> None:
        self._thread.join(timeout)

    def _main_loop(self) -> None:
        if self._restored:
            # A resurrected process continues, it is not created anew.
            self.process.on_restore(self.ctx)
        else:
            self._record(EventKind.PROCESS_CREATED)
            self.process.on_start(self.ctx)
        self.system.note_activity(-1)  # balances the start credit
        while True:
            item = self.inbox.get()
            if item is _STOP:
                return
            try:
                self._dispatch(item)
            finally:
                self.system.note_activity(-1)
                # Everything a session waits for becomes observable here:
                # d's intake lists, or a frozen/dead controller's flags and
                # closed channels. A running user process never notifies.
                if self.never_halts or self.halted or self.crashed:
                    self.system.wake.notify()

    def _dispatch(self, item: Tuple) -> None:
        kind = item[0]
        if kind == "env":
            self._deliver(item[1])
        elif kind == "timer":
            self._timer_fired(item[1], item[2], item[3])
        elif kind == "call":
            item[1]()
        else:  # pragma: no cover - defensive
            raise RuntimeStateError(f"unknown mailbox item {item!r}")

    # -- deliveries -------------------------------------------------------------------

    def _deliver(self, envelope: Envelope) -> None:
        if self.crashed:
            return  # frames at a dead host fall on the floor
        if self.stalled:
            # A frozen host processes nothing — control plane included.
            self._stall_buffer.append(envelope)
            return
        if envelope.kind is MessageKind.USER:
            self._deliver_user(envelope)
            return
        if envelope.clock is not None:
            lamport, vector = envelope.clock
            self.lamport.merge(lamport)
            self.vector.merge(vector)
        routed = False
        for plugin in self._plugins:
            if envelope.kind in plugin.kinds:
                plugin.on_control(envelope)
                routed = True
        if not routed:
            raise RuntimeStateError(
                f"{self.name}: no plugin handles {envelope.kind.value}"
            )

    def _deliver_user(self, envelope: Envelope) -> None:
        if self.halted or self.terminated:
            self.halt_buffers.setdefault(envelope.channel, []).append(envelope)
            self._halt_buffer_order.append(envelope)
            for plugin in self._plugins:
                plugin.on_user_delivered(envelope, None)
            return
        event = self._process_user_envelope(envelope)
        for plugin in self._plugins:
            plugin.on_user_delivered(envelope, event)

    def _process_user_envelope(self, envelope: Envelope) -> Event:
        message = envelope.payload
        assert isinstance(message, UserMessage)
        self.lamport.merge(message.lamport)
        if message.vector:
            self.vector.merge(message.vector)
        else:
            self.vector.tick()
        event = self._record(
            EventKind.RECEIVE,
            message=message.payload,
            channel=envelope.channel,
            detail=message.tag,
            tick=False,
        )
        self.process.on_message(self.ctx, envelope.src, message.payload)
        return event

    # -- user actions (via ProcessContext) ------------------------------------------------

    def user_send(self, dst: ProcessId, payload: object, tag: Optional[str]) -> None:
        self._require_live("send")
        channel = self.system.channel(ChannelId(self.name, dst))
        if channel is None:
            raise TopologyError(f"{self.name!r} has no outgoing channel to {dst!r}")
        if self.system.controller(dst).never_halts:
            raise TopologyError(f"{dst!r} is a debugger/monitor process")
        self.lamport.tick()
        self.vector.tick()
        message = UserMessage(
            payload=payload, tag=tag,
            lamport=self.lamport.value, vector=self.vector.snapshot(),
        )
        channel.send(MessageKind.USER, message)
        self._record(
            EventKind.SEND, message=payload,
            channel=channel.id, detail=tag, tick=False,
        )

    def user_create_channel(self, dst: ProcessId) -> None:
        raise ConfigurationError("dynamic channels are DES-backend-only")

    def user_destroy_channel(self, dst: ProcessId) -> None:
        raise ConfigurationError("dynamic channels are DES-backend-only")

    def user_set_timer(self, name: str, delay: float, payload: object) -> None:
        self._require_live("set a timer")
        self.user_cancel_timer(name)
        generation = self._timer_gen.get(name, 0) + 1
        self._timer_gen[name] = generation
        gate = getattr(self.system, "gate", None)
        if gate is not None:
            # Gate mode: the expiration is staged at virtual ``now +
            # delay`` (unscaled — there is no wall clock to stretch) with
            # the DES controller's tiebreak, making it an explorable step.
            self._timer_seq += 1
            gate.stage_timer(self, name, delay, payload, generation,
                             self._timer_seq)
            return
        scaled = delay * self.system.time_scale
        timer = threading.Timer(
            scaled, self._timer_post, args=(name, payload, generation)
        )
        timer.daemon = True
        self._timers[name] = timer
        timer.start()

    def _timer_post(self, name: str, payload: object, generation: int) -> None:
        # Armed timers are tracked via self._timers for quiescence; the
        # activity credit starts only when the expiration enters the mailbox.
        self.system.note_activity(+1)
        self.inbox.put(("timer", name, payload, generation))

    def user_cancel_timer(self, name: str) -> bool:
        gate = getattr(self.system, "gate", None)
        if gate is not None:
            return gate.cancel_timer(self.name, name)
        timer = self._timers.pop(name, None)
        if timer is None:
            return False
        timer.cancel()
        return True

    def _timer_fired(self, name: str, payload: object, generation: int) -> None:
        if self._timer_gen.get(name) != generation:
            return  # stale expiration of a cancelled/re-armed timer
        self._timers.pop(name, None)
        if self.terminated or self.crashed:
            return
        if self.stalled:
            self._stall_timers.append((name, payload))
            return
        if self.halted:
            self._deferred_timers.append((name, payload))
            return
        self._record(EventKind.TIMER, detail=name)
        self.process.on_timer(self.ctx, name, payload)

    # -- fault injection ------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop this process. Runs on the process's own thread (posted
        via ``defer``/the fault scheduler), so it lands on a handler
        boundary. The mailbox keeps draining (to release activity credits)
        but nothing is processed ever again."""
        if self.crashed:
            return
        self._record(EventKind.PROCESS_CRASHED)
        self.crashed = True
        gate = getattr(self.system, "gate", None)
        if gate is not None:
            # Staged timers die with the host, matching the DES
            # controller's handle cancellation.
            gate.cancel_process_timers(self.name)
        for name in list(self._timers):
            self.user_cancel_timer(name)
        self._deferred_timers = []
        self._stall_buffer = []
        self._stall_timers = []

    def stall(self, duration: float) -> None:
        """Freeze for ``duration`` (virtual units, scaled like timers).
        Buffered arrivals/timers replay afterwards in order."""
        if self.crashed or self.terminated or duration <= 0:
            return
        scaled = duration * self.system.time_scale
        self._stall_until = max(self._stall_until, time.monotonic() + scaled)
        if not self.stalled:
            self.stalled = True
            if not self._stall_credit:
                # Hold one activity credit for the whole window so settle()
                # cannot declare quiescence while replays are still owed.
                self._stall_credit = True
                self.system.note_activity(+1)
            self._arm_unstall(scaled)

    def _arm_unstall(self, delay: float) -> None:
        timer = threading.Timer(delay, self._post_unstall)
        timer.daemon = True
        timer.start()

    def _post_unstall(self) -> None:
        self.system.note_activity(+1)
        self.inbox.put(("call", self._maybe_unstall))

    def _maybe_unstall(self) -> None:
        if not self.stalled or self.crashed:
            self._release_stall_credit()
            return
        remaining = self._stall_until - time.monotonic()
        if remaining > 0:
            self._arm_unstall(remaining)  # window was extended
            return
        self.stalled = False
        replay = self._stall_buffer
        self._stall_buffer = []
        timers = self._stall_timers
        self._stall_timers = []
        for envelope in replay:
            if self.stalled or self.crashed:
                self._stall_buffer.append(envelope)
                continue
            self._deliver(envelope)
        for name, payload in timers:
            if self.stalled or self.crashed:
                self._stall_timers.append((name, payload))
                continue
            self._timer_fired(name, payload, self._timer_gen.get(name, 0))
        if not self.stalled:
            self._release_stall_credit()

    def _release_stall_credit(self) -> None:
        if self._stall_credit:
            self._stall_credit = False
            self.system.note_activity(-1)

    def user_terminate(self) -> None:
        self._require_live("terminate")
        self._record(EventKind.PROCESS_TERMINATED)
        self.terminated = True

    # -- control plane ------------------------------------------------------------------------

    def send_control(self, channel_id: ChannelId, kind: MessageKind, payload: object) -> None:
        channel = self.system.channel(channel_id)
        if channel is None:
            raise TopologyError(f"no channel {channel_id} for control send")
        # No tick on control sends — see the DES controller's send_control.
        channel.send(kind, payload, clock=(self.lamport.value, self.vector.snapshot()))

    # -- halting ----------------------------------------------------------------------------------

    def halt(self, **meta: object) -> ProcessStateSnapshot:
        if self.never_halts:
            raise RuntimeStateError(f"{self.name} never halts")
        if self.crashed:
            raise RuntimeStateError(f"{self.name} has crashed; there is nothing to halt")
        if self.halted:
            raise RuntimeStateError(f"{self.name} already halted")
        snapshot = self.capture_state(**meta)
        self.halted = True
        self.halted_snapshot = snapshot
        for plugin in self._plugins:
            plugin.on_halted()
        self._muted = True
        try:
            self.process.on_halt(self.ctx)
        finally:
            self._muted = False
        return snapshot

    def rehalt(self, **meta: object) -> ProcessStateSnapshot:
        # See the DES controller's rehalt: a frozen process adopting a
        # newer halt generation after a partition ate its notification
        # or resume. State is untouched (nothing ran since the halt);
        # generation metadata updates and channels re-drain.
        if not self.halted:
            raise RuntimeStateError(
                f"{self.name} is not halted; rehalt is only for adopting "
                "a newer generation while frozen"
            )
        assert self.halted_snapshot is not None
        self.halted_snapshot.meta.update(meta)
        self.closed_channels = set()
        for plugin in self._plugins:
            plugin.on_halted()
        return self.halted_snapshot

    def resume(self) -> None:
        if not self.halted:
            raise RuntimeStateError(f"{self.name} is not halted")
        self.halted = False
        self.halted_snapshot = None
        self.halt_buffers = {}
        self.closed_channels = set()
        replay = self._halt_buffer_order
        self._halt_buffer_order = []
        timers = self._deferred_timers
        self._deferred_timers = []
        self._muted = True
        try:
            self.process.on_resume(self.ctx)
        finally:
            self._muted = False
        for plugin in self._plugins:
            plugin.on_resumed()
        self.system.wake.notify()  # ``halted`` flipped: resume() waits on it
        for envelope in replay:
            if self.halted:
                self.halt_buffers.setdefault(envelope.channel, []).append(envelope)
                self._halt_buffer_order.append(envelope)
                continue
            event = self._process_user_envelope(envelope)
            for plugin in self._plugins:
                plugin.on_user_delivered(envelope, event)
        for name, payload in timers:
            if self.terminated or self.halted:
                self._deferred_timers.append((name, payload))
                continue
            self._record(EventKind.TIMER, detail=name)
            self.process.on_timer(self.ctx, name, payload)

    def step_one(self, channel: Optional[str] = None) -> Optional[Envelope]:
        """Deliver exactly one buffered arrival while remaining halted.

        Mirrors the DES controller's ``step_one`` — pop the oldest
        buffered envelope (optionally restricted to ``str(channel)``),
        briefly un-freeze for the handler, then re-freeze with a fresh
        snapshot carrying the same halt generation metadata. Runs on
        this controller's own thread (the debugger defers it into the
        mailbox), so no extra locking is needed.
        """
        if not self.halted:
            raise RuntimeStateError(f"{self.name} is not halted; nothing to step")
        pick: Optional[Envelope] = None
        for envelope in self._halt_buffer_order:
            if channel is None or str(envelope.channel) == str(channel):
                pick = envelope
                break
        if pick is None:
            return None
        self._halt_buffer_order.remove(pick)
        bucket = self.halt_buffers.get(pick.channel, [])
        if pick in bucket:
            bucket.remove(pick)
            if not bucket:
                del self.halt_buffers[pick.channel]
        assert self.halted_snapshot is not None
        meta = {
            key: self.halted_snapshot.meta[key]
            for key in ("halt_id", "halt_path")
            if key in self.halted_snapshot.meta
        }
        self.halted = False
        try:
            event = self._process_user_envelope(pick)
            for plugin in self._plugins:
                plugin.on_user_delivered(pick, event)
        finally:
            if not self.halted:
                self.halted = True
                self.halted_snapshot = self.capture_state(**meta)
        return pick

    def capture_state(self, **meta: object) -> ProcessStateSnapshot:
        return capture(
            process=self.name,
            state=self.ctx.state,
            local_seq=self._local_seq,
            lamport=self.lamport.value,
            vector=self.vector.snapshot(),
            vector_index=self.vector.owner_index,
            time=self.now,
            terminated=self.terminated,
            **meta,
        )

    def note_channel_closed(self, channel_id: ChannelId) -> None:
        self.closed_channels.add(channel_id)

    # -- event recording ------------------------------------------------------------------------------

    def note_state_change(self, key: str, value: object, deleted: bool = False) -> None:
        if self._muted:
            return
        self._record(
            EventKind.STATE_CHANGE, detail=key,
            attrs={"key": key, "value": value, "deleted": deleted},
        )

    def note_procedure_entry(self, name: str) -> None:
        if not self._muted:
            self._record(EventKind.PROCEDURE_ENTRY, detail=name)

    def note_procedure_exit(self, name: str) -> None:
        if not self._muted:
            self._record(EventKind.PROCEDURE_EXIT, detail=name)

    def note_mark(self, detail: str, attrs: Dict[str, object]) -> None:
        if not self._muted:
            self._record(EventKind.STATE_CHANGE, detail=detail, attrs=attrs)

    def _record(self, kind: EventKind, message: object = None,
                channel: Optional[ChannelId] = None, detail: Optional[str] = None,
                attrs: Optional[Dict[str, object]] = None, tick: bool = True) -> Event:
        if tick:
            self.lamport.tick()
            self.vector.tick()
        self._local_seq += 1
        event_args = dict(
            process=self.name,
            kind=kind,
            time=self.now,
            lamport=self.lamport.value,
            vector=self.vector.snapshot(),
            vector_index=self.vector.owner_index,
            message=message,
            channel=channel,
            detail=detail,
            local_seq=self._local_seq,
            attrs=attrs or {},
        )
        event = self.system.record_event(event_args)
        for plugin in self._plugins:
            plugin.on_local_event(event)
        return event

    def _require_live(self, action: str) -> None:
        if self.crashed:
            raise RuntimeStateError(f"{self.name} has crashed and cannot {action}")
        if self.terminated:
            raise RuntimeStateError(f"{self.name} is terminated and cannot {action}")
        if self.halted:
            raise RuntimeStateError(f"{self.name} is halted and cannot {action}")


class _Lamport:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def tick(self) -> int:
        self.value += 1
        return self.value

    def merge(self, received: int) -> int:
        self.value = max(self.value, received) + 1
        return self.value

    def load(self, value: int) -> None:
        """Adopt a restored clock value (see ``preload``)."""
        self.value = value


class ThreadedSystem:
    """Thread-per-process runtime with the System API subset plugins use."""

    def __init__(
        self,
        topology: Topology,
        processes: Mapping[ProcessId, Process],
        seed: int = 0,
        latency_range: Tuple[float, float] = (0.0005, 0.003),
        time_scale: float = 0.01,
        never_halt: Iterable[ProcessId] = (),
        fault_plan: Optional[FaultPlan] = None,
        reliability: Optional[ReliabilityConfig] = None,
        reliable: bool = False,
        observe: Optional["Observability"] = None,
        gate: Optional[object] = None,
    ) -> None:
        missing = set(topology.processes) - set(processes)
        if missing:
            raise ConfigurationError(f"no Process supplied for {sorted(missing)}")
        #: Optional cooperative step gate (:class:`repro.check.gate.
        #: ThreadedStepGate`). When set, channels stage deliveries with the
        #: gate instead of running forwarder threads, timers stage instead
        #: of arming wall clocks, and ``now`` is the gate's virtual clock —
        #: the schedule checker picks which thread advances.
        self.gate = gate
        if gate is not None:
            if reliability is not None or reliable:
                raise ConfigurationError(
                    "gate mode drives raw channels only (the reliable "
                    "layer's retransmission clock is wall time)"
                )
            self._validate_gated_plan(fault_plan)
            gate.bind(self)
        #: Optional live-observability hub (metrics + spans), shared with
        #: the DES backend's ``System.observe``.
        self.observe = observe
        self.topology = topology
        self.seed = seed
        self.time_scale = time_scale
        self.fault_plan = fault_plan
        self._reliability = reliability or (ReliabilityConfig() if reliable else None)
        self.capture_states = False
        self.clock_frame = ClockFrame(topology.processes)
        self.log = EventLog()
        self._log_lock = threading.Lock()
        self._event_ids = SequenceGenerator(start=1)
        self._message_seqs = SequenceGenerator(start=1)
        self._activity = 0
        self._activity_lock = threading.Lock()
        self._idle = threading.Condition(self._activity_lock)
        #: What every session wait sleeps on (see :mod:`repro.runtime.wake`).
        self.wake = Wake()
        self._epoch = time.monotonic()

        never_halt = set(never_halt)
        self.controllers: Dict[ProcessId, ThreadedController] = {
            name: ThreadedController(
                self, name, processes[name], never_halts=name in never_halt
            )
            for name in topology.processes
        }
        self._channels: Dict[ChannelId, ThreadedChannel] = {
            channel_id: (
                gate.make_channel(channel_id, self) if gate is not None
                else ThreadedChannel(
                    channel_id, self, latency_range,
                    f"{seed}|chan|{channel_id}",
                    injector=(
                        injector_for(fault_plan, channel_id)
                        if fault_plan is not None else None
                    ),
                    reliability=self._reliability,
                )
            )
            for channel_id in topology.channels
        }
        if observe is not None:
            for channel in self._channels.values():
                observe.wire_channel(channel)
            observe.attach_system(self)
        self._fault_timers: List[threading.Timer] = []
        if fault_plan is not None:
            self._prepare_faults(fault_plan)
        self._out: Dict[ProcessId, List[ChannelId]] = {p: [] for p in topology.processes}
        self._in: Dict[ProcessId, List[ChannelId]] = {p: [] for p in topology.processes}
        for channel_id in topology.channels:
            self._out[channel_id.src].append(channel_id)
            self._in[channel_id.dst].append(channel_id)
        self._started = False

    # -- surface shared with the DES System -----------------------------------

    @property
    def now(self) -> float:
        if self.gate is not None:
            # Virtual time: the clock follows committed gate steps, so
            # timestamps are deterministic and DES-comparable.
            return self.gate.now
        return time.monotonic() - self._epoch

    def _validate_gated_plan(self, plan: Optional[FaultPlan]) -> None:
        """Gate mode supports crash faults only.

        Loss/duplication/reorder and partitions act on the *wire*, which
        gate mode replaces with a staging buffer; stalls are wall-clock
        windows. Rejecting them here beats silently not injecting them.
        """
        if plan is None:
            return
        noisy = [
            name for name, spec in dict(plan.channels).items()
            if not spec.is_noop
        ]
        if not plan.channel_defaults.is_noop:
            noisy.append("<defaults>")
        if noisy or plan.stalls or plan.partitions:
            raise ConfigurationError(
                "gate mode supports crash faults only; this plan has "
                f"channel faults on {noisy!r}, {len(plan.stalls)} stalls, "
                f"{len(plan.partitions)} partitions"
            )

    def controller(self, name: ProcessId) -> ThreadedController:
        return self.controllers[name]

    def channel(self, channel_id: ChannelId) -> Optional[ThreadedChannel]:
        return self._channels.get(channel_id)

    def channels(self) -> List[ThreadedChannel]:
        return list(self._channels.values())

    def outgoing_channels(self, process: ProcessId) -> Tuple[ChannelId, ...]:
        return tuple(self._out[process])

    def incoming_channels(self, process: ProcessId) -> Tuple[ChannelId, ...]:
        return tuple(self._in[process])

    def find_path(self, src: ProcessId, dst: ProcessId) -> Optional[List[ProcessId]]:
        if src == dst:
            return [src]
        frontier = [src]
        parent = {src: src}
        while frontier:
            node = frontier.pop(0)
            for channel_id in self._out[node]:
                nxt = channel_id.dst
                if nxt in parent:
                    continue
                parent[nxt] = node
                if nxt == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                frontier.append(nxt)
        return None

    @property
    def user_process_names(self) -> Tuple[ProcessId, ...]:
        return tuple(
            n for n in self.topology.processes
            if not self.controllers[n].never_halts
        )

    def all_user_processes_halted(self) -> bool:
        return all(self.controllers[n].halted for n in self.user_process_names)

    def all_live_user_processes_halted(self) -> bool:
        """Partial-halt convergence: every user process halted or dead."""
        return all(
            self.controllers[n].halted or self.controllers[n].crashed
            for n in self.user_process_names
        )

    def crashed_process_names(self) -> Tuple[ProcessId, ...]:
        return tuple(
            n for n in self.topology.processes if self.controllers[n].crashed
        )

    def state_of(self, name: ProcessId) -> dict:
        return dict(self.controllers[name].ctx.state)

    def message_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for channel in self._channels.values():
            for kind, count in channel.sent_by_kind.items():
                totals[kind.value] = totals.get(kind.value, 0) + count
        return totals

    # -- fault scheduling ------------------------------------------------------------

    def _prepare_faults(self, plan: FaultPlan) -> None:
        """Validate the plan and stage its crash/stall schedule. Wall-clock
        timers start in :meth:`start` (plan times are virtual units, scaled
        by ``time_scale`` like everything else on this backend)."""
        self._staged_faults: List[Tuple[float, ProcessId, str, Callable[["ThreadedController"], None]]] = []
        for crash in plan.crashes:
            controller = self.controllers.get(crash.process)
            if controller is None:
                raise FaultError(f"crash spec names unknown process {crash.process!r}")
            if controller.never_halts:
                raise FaultError(
                    f"refusing to crash debugger process {crash.process!r}; "
                    "the paper's debugger d is outside the failure model"
                )
            if crash.at_time is not None:
                self._staged_faults.append(
                    (crash.at_time, crash.process, "crash",
                     lambda c: c.crash())
                )
            else:
                controller.install(CrashAfterEvents(crash.after_events))
        for stall in plan.stalls:
            if stall.process not in self.controllers:
                raise FaultError(f"stall spec names unknown process {stall.process!r}")
            self._staged_faults.append(
                (stall.at_time, stall.process, "stall",
                 lambda c, d=stall.duration: c.stall(d))
            )
        known = {str(c) for c in self.topology.channels}
        for partition in plan.partitions:
            unknown = sorted(set(partition.channels) - known)
            if unknown:
                raise FaultError(
                    f"partition names unknown channels {unknown!r}"
                )

    def _start_fault_timers(self) -> None:
        for at_time, process, label, action in getattr(self, "_staged_faults", []):
            controller = self.controllers[process]
            if self.gate is not None:
                # Gate mode: the fault is a staged internal step at its
                # virtual time (the DES tiebreak), explorable like any
                # other — no wall clock involved.
                self.gate.stage_fault(
                    at_time, label, controller,
                    lambda c=controller, act=action: act(c),
                )
                continue

            def fire(c: "ThreadedController" = controller,
                     act: Callable = action) -> None:
                # Post onto the process's own thread so faults land on
                # handler boundaries, exactly like the DES backend.
                self.note_activity(+1)
                c.inbox.put(("call", lambda: act(c)))

            timer = threading.Timer(at_time * self.time_scale, fire)
            timer.daemon = True
            timer.start()
            self._fault_timers.append(timer)

    def note_drop(self, envelope: Envelope) -> None:
        """Record a wire loss in the event log (system-level record; the
        sender's clocks are read without ticking — best-effort under
        threading, good enough for forensics)."""
        sender = self.controllers[envelope.channel.src]
        self.record_event(dict(
            process=envelope.channel.src,
            kind=EventKind.MESSAGE_DROPPED,
            time=self.now,
            lamport=sender.lamport.value,
            vector=sender.vector.snapshot(),
            vector_index=sender.vector.owner_index,
            channel=envelope.channel,
            detail=envelope.kind.value,
            local_seq=0,
            attrs={"seq": envelope.seq},
        ))

    # -- bookkeeping ----------------------------------------------------------------

    def record_event(self, event_args: Dict) -> Event:
        with self._log_lock:
            event = Event(eid=self._event_ids.next(), **event_args)
            self.log.append(event)
        return event

    def next_message_seq(self) -> int:
        return self._message_seqs.next()

    def note_activity(self, delta: int) -> None:
        with self._activity_lock:
            self._activity += delta
            if self._activity <= 0:
                self._idle.notify_all()

    @property
    def pending_activity(self) -> int:
        with self._activity_lock:
            return self._activity

    def wait_idle(self, timeout: float = 30.0) -> None:
        """Block until the activity count drains to zero.

        The gate's turnstile: a committed step posts one mailbox item
        (+1 credit); the handler may stage further work with the gate
        (no credit), so once the count returns to zero nothing can raise
        it again until the next commit. A timeout means a handler is
        wedged in user code — surfaced, never swallowed.
        """
        with self._activity_lock:
            if not self._idle.wait_for(lambda: self._activity <= 0, timeout):
                raise RuntimeStateError(
                    f"system did not go idle within {timeout}s "
                    f"(activity={self._activity})"
                )

    # -- execution ----------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise ConfigurationError("already started")
        self._started = True
        for channel in self._channels.values():
            channel.start()
        for name in self.topology.processes:
            # Credit one activity unit per on_start so quiescence detection
            # cannot trigger before startup completes.
            self.note_activity(+1)
            self.controllers[name].start()
        self._start_fault_timers()

    def run_until(self, condition: Callable[[], bool],
                  timeout: float = 30.0) -> bool:
        """Wait until ``condition()`` holds. Returns False on timeout."""
        if not self._started:
            self.start()
        return self.wake.wait_for(condition, timeout)

    def quiet_for(self, quiet: float = 0.05) -> Callable[[], bool]:
        """A fresh quiescence predicate: no in-flight messages, empty
        mailboxes, no armed timers, at every look for ``quiet`` seconds."""
        since: Optional[float] = None

        def stable() -> bool:
            nonlocal since
            busy = self.pending_activity > 0 or any(
                not c.inbox.empty() or c._timers
                for c in self.controllers.values()
            )
            now = time.monotonic()
            if busy:
                since = None
            elif since is None:
                since = now
            return since is not None and now - since >= quiet

        return stable

    def settle(self, quiet: float = 0.05, timeout: float = 30.0) -> bool:
        """Wait for quiescence (:meth:`quiet_for`), False on timeout."""
        return self.run_until(self.quiet_for(quiet), timeout)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every thread and wait for it to exit.

        Joins are bounded by one shared ``timeout`` budget; any thread still
        alive afterwards is a real bug (a handler stuck in user code, a
        forwarder wedged mid-sleep) and is surfaced as
        :class:`~repro.util.errors.RuntimeStateError` naming the stuck
        threads, instead of leaking daemon threads silently.
        """
        for timer in self._fault_timers:
            timer.cancel()
        for channel in self._channels.values():
            channel.stop()
        for controller in self.controllers.values():
            for timer in list(controller._timers.values()):
                timer.cancel()
            controller.inbox.put(_STOP)
        deadline = time.monotonic() + timeout
        stuck: List[str] = []
        for controller in self.controllers.values():
            controller.join(max(0.01, deadline - time.monotonic()))
            if controller._thread.is_alive():
                stuck.append(controller._thread.name)
        for channel in self._channels.values():
            channel.join(max(0.01, deadline - time.monotonic()))
            # Gate-mode channels have no forwarder thread to wait on.
            thread = getattr(channel, "_thread", None)
            if thread is not None and thread.is_alive():
                stuck.append(thread.name)
        if stuck:
            raise RuntimeStateError(
                f"shutdown did not converge within {timeout}s; "
                f"stuck threads: {', '.join(sorted(stuck))}"
            )
