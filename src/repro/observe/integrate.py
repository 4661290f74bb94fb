"""The :class:`Observability` hub: one object wiring metrics + spans into a run.

Attachment is explicit and off by default — ``System(…, observe=obs)`` /
``ThreadedSystem(…, observe=obs)``. The hub holds a
:class:`~repro.observe.metrics.MetricsRegistry` and a
:class:`~repro.observe.spans.SpanTracer` and feeds them two ways:

* **pull** (the common case): a collector registered with the registry
  reads the runtime's *existing* accounting — ``ChannelStats``, controller
  event counters, ``message_totals()`` — at collection time. Nothing is
  added to the hot path, and ``messages_sent_total`` matches
  :func:`repro.analysis.metrics.message_overhead` exactly because both
  read the same counters.
* **push** (event-driven lifecycles): channels get retransmission hooks,
  the snapshot coordinator reports recordings, sessions report halt
  initiations. Each produces a :class:`~repro.observe.spans.Span` with
  vector-clock context where the closing event has one.

Halt and breakpoint spans are *derived*: :meth:`Observability.sync_session`
rebuilds them from the debugger's notification lists (idempotently, via
``SpanTracer.replace``), so they exist whether or not the hub was attached
before the halt began.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.observe.metrics import MetricsRegistry
from repro.observe.spans import Span, SpanTracer

#: Buckets for small count-valued histograms (hops, attempts).
_COUNT_BUCKETS: Tuple[float, ...] = (1, 2, 3, 4, 5, 8, 13, 21, float("inf"))


class Observability:
    """Metrics + tracing for one ``System`` / ``ThreadedSystem`` run."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = SpanTracer()
        #: Backend time source; set by :meth:`attach_system`.
        self.clock = lambda: 0.0
        self._system = None
        self._lock = threading.Lock()
        #: generation -> time the debugger initiated that halt.
        self._halt_initiated: Dict[int, float] = {}
        #: (channel, rseq) -> open retransmission episode.
        self._open_rtx: Dict[Tuple[str, int], Dict[str, object]] = {}
        self._snapshot_started: Dict[int, float] = {}
        self._snapshots_reported: set = set()
        #: Supervisor recoveries (see :meth:`note_recovery`).
        self._recoveries: List[Dict[str, object]] = []

    # -- system attachment -----------------------------------------------------

    def attach_system(self, system) -> None:
        """Bind to a runtime: adopt its clock and register the pull collector.

        Called by the system constructors; channels are wired separately
        (see :meth:`wire_channel`) so dynamically created channels join too.
        """
        self._system = system
        kernel = getattr(system, "kernel", None)
        if kernel is not None:
            self.clock = lambda: kernel.now
        else:
            self.clock = lambda: system.now
        self.metrics.add_collector(self._collect)

    def wire_channel(self, channel) -> None:
        """Install retransmission-episode hooks on one channel.

        Raw channels have no retransmission protocol and are left alone;
        for reliable ones the hooks close a span per recovered / abandoned
        message. The pre-existing ``on_give_up`` hook, if any, is chained.
        """
        if not hasattr(channel, "on_retransmit"):
            return
        channel.on_retransmit = (
            lambda rseq, envelope, attempts, ch=channel:
                self._retransmit_fired(ch, rseq, envelope, attempts)
        )
        channel.on_recovered = (
            lambda rseq, envelope, attempts, ch=channel:
                self._retransmit_recovered(ch, rseq, envelope, attempts)
        )
        previous = getattr(channel, "on_give_up", None)

        def give_up(envelope, ch=channel, prev=previous):
            self._retransmit_gave_up(ch, envelope)
            if prev is not None:
                prev(envelope)

        channel.on_give_up = give_up

    # -- push: retransmission episodes -----------------------------------------

    def _retransmit_fired(self, channel, rseq, envelope, attempts) -> None:
        key = (str(channel.id), rseq)
        with self._lock:
            episode = self._open_rtx.setdefault(
                key, {"start": envelope.send_time, "attempts": 0}
            )
            episode["attempts"] = attempts

    def _retransmit_recovered(self, channel, rseq, envelope, attempts) -> None:
        key = (str(channel.id), rseq)
        with self._lock:
            episode = self._open_rtx.pop(key, None)
        if episode is None:
            return  # acked on the first try: not an episode
        self._close_episode(channel, envelope, episode, "recovered")

    def _retransmit_gave_up(self, channel, envelope) -> None:
        with self._lock:
            key = next(
                (k for k, v in self._open_rtx.items()
                 if k[0] == str(channel.id)),
                None,
            )
            episode = self._open_rtx.pop(key, None) if key else None
        if episode is None:
            episode = {"start": envelope.send_time, "attempts": 0}
        self._close_episode(channel, envelope, episode, "gave_up")

    def _close_episode(self, channel, envelope, episode, outcome: str) -> None:
        self.tracer.add(Span(
            name="channel.retransmission",
            category="retransmission",
            start=float(episode["start"]),  # type: ignore[arg-type]
            end=self.clock(),
            process=channel.id.src,
            attrs={
                "channel": str(channel.id),
                "kind": envelope.kind.value,
                "attempts": int(episode["attempts"]),  # type: ignore[arg-type]
                "outcome": outcome,
            },
        ))

    # -- push: halts and snapshots ----------------------------------------------

    def note_halt_initiated(self, generation: int) -> None:
        """Record when the debugger kicked off halt ``generation`` — the
        start anchor of that generation's convergence span."""
        with self._lock:
            self._halt_initiated.setdefault(generation, self.clock())

    def note_snapshot_initiated(self, snapshot_id: int) -> None:
        with self._lock:
            self._snapshot_started.setdefault(snapshot_id, self.clock())

    def note_snapshot_complete(self, snapshot_id: int, records) -> None:
        """One C&L snapshot finished: ``records`` is a list of
        ``(process, time, vector, vector_index)`` recording instants."""
        with self._lock:
            if snapshot_id in self._snapshots_reported:
                return
            self._snapshots_reported.add(snapshot_id)
            start = self._snapshot_started.get(snapshot_id)
        times = [t for _, t, _, _ in records]
        if start is None:
            start = min(times) if times else self.clock()
        end = self.clock()
        self.tracer.add(Span(
            name="snapshot.record",
            category="snapshot",
            start=start,
            end=end,
            attrs={"snapshot_id": snapshot_id, "processes": len(records)},
        ))
        for process, time_, vector, vector_index in records:
            self.tracer.add(Span(
                name="snapshot.process",
                category="snapshot",
                start=time_,
                end=time_,
                process=process,
                attrs={"snapshot_id": snapshot_id},
                vector=vector,
                vector_index=vector_index,
            ))

    def note_recovery(self, event) -> None:
        """Record one supervisor recovery (a
        :class:`repro.recovery.supervisor.RecoveryEvent`): counts and
        latencies surface through the metrics registry, and the restart
        becomes a wall-clock span."""
        with self._lock:
            self._recoveries.append({
                "victims": tuple(getattr(event, "victims", ())),
                "checkpoint_seq": getattr(event, "checkpoint_seq", None),
                "incarnation": getattr(event, "incarnation", None),
                "teardown_s": float(getattr(event, "teardown_s", 0.0)),
                "restart_s": float(getattr(event, "restart_s", 0.0)),
                "total_s": float(getattr(event, "total_s", 0.0)),
            })
        self.tracer.add(Span(
            name="recovery.restart",
            category="recovery",
            start=0.0,
            end=float(getattr(event, "total_s", 0.0)),
            attrs={
                "victims": list(getattr(event, "victims", ())),
                "checkpoint_seq": getattr(event, "checkpoint_seq", None),
                "incarnation": getattr(event, "incarnation", None),
            },
        ))

    # -- derived: session sync ----------------------------------------------------

    def sync_session(self, session) -> None:
        """Rebuild halt and breakpoint spans from the debugger's state.

        Idempotent — categories are replaced wholesale, so sessions call
        this after every run/halt without double-counting.
        """
        agent = getattr(session, "agent", None)
        if agent is None:
            return
        self._sync_halt_spans(agent, session.system)
        self._sync_breakpoint_spans(agent, session.system)

    def _sync_halt_spans(self, agent, system) -> None:
        by_generation: Dict[int, List] = {}
        for notification in agent.halting_order():
            by_generation.setdefault(notification.halt_id, []).append(notification)
        spans: List[Span] = []
        for generation in sorted(by_generation):
            group = by_generation[generation]
            times = [n.time for n in group]
            with self._lock:
                start = self._halt_initiated.get(generation, min(times))
            spans.append(Span(
                name="halt.converge",
                category="halt",
                start=start,
                end=max(times),
                attrs={
                    "generation": generation,
                    "processes": len(group),
                    "order": [n.process for n in group],
                },
            ))
            for notification in group:
                vector = vector_index = None
                controller = system.controllers.get(notification.process)
                snapshot = getattr(controller, "halted_snapshot", None)
                if (
                    snapshot is not None
                    and snapshot.meta.get("halt_id") == notification.halt_id
                ):
                    vector = snapshot.vector
                    vector_index = snapshot.vector_index
                spans.append(Span(
                    name="halt.process",
                    category="halt",
                    start=notification.time,
                    end=notification.time,
                    process=notification.process,
                    attrs={
                        "generation": generation,
                        "path": list(notification.path),
                        "hops": len(notification.path),
                    },
                    vector=vector,
                    vector_index=vector_index,
                ))
        self.tracer.replace("halt", spans)

    def _sync_breakpoint_spans(self, agent, system) -> None:
        by_eid = {event.eid: event for event in system.log.events}
        spans: List[Span] = []
        for hit in agent.breakpoint_hits:
            trail = hit.marker.trail
            for index, stage in enumerate(trail):
                event = by_eid.get(stage.eid)
                spans.append(Span(
                    name="lp.stage",
                    category="breakpoint",
                    start=trail[index - 1].time if index else stage.time,
                    end=stage.time,
                    process=stage.process,
                    attrs={
                        "lp_id": hit.marker.lp_id,
                        "stage_index": stage.stage_index,
                        "term": stage.term,
                    },
                    vector=event.vector if event is not None else None,
                    vector_index=(
                        event.vector_index if event is not None else None
                    ),
                ))
            spans.append(Span(
                name="lp.detection",
                category="breakpoint",
                start=trail[0].time if trail else hit.time,
                end=hit.time,
                process=hit.process,
                attrs={"lp_id": hit.marker.lp_id, "hops": len(trail)},
            ))
        self.tracer.replace("breakpoint", spans)

    # -- pull: the collector -------------------------------------------------------

    def _collect(self) -> None:
        system = self._system
        if system is None:
            return
        metrics = self.metrics
        sent = metrics.counter(
            "messages_sent_total",
            "Messages sent, by kind — same counters analysis.metrics reads.",
        )
        for kind, count in system.message_totals().items():
            sent.set_total(count, kind=kind)

        channel_sent = metrics.counter(
            "channel_messages_sent_total", "Per-channel sends by kind.")
        delivered = metrics.counter(
            "channel_messages_delivered_total", "Messages handed to receivers.")
        dropped = metrics.counter(
            "channel_messages_dropped_total",
            "Logical messages permanently lost, by kind.")
        frames = metrics.counter(
            "channel_frames_dropped_total",
            "Wire-eaten frame copies (recovered or not).")
        retransmits = metrics.counter(
            "channel_retransmits_total", "Retransmitted data frames.")
        acks = metrics.counter(
            "channel_acks_total", "Acknowledgement frames by result.")
        duplicates = metrics.counter(
            "channel_duplicates_suppressed_total",
            "Received frames discarded as duplicates.")
        gave_up = metrics.counter(
            "channel_gave_up_total", "Messages abandoned after the retry cap.")
        channels = list(system.channels()) + list(
            getattr(system, "_retired_channels", ())
        )
        for channel in channels:
            stats = channel.stats
            label = str(channel.id)
            for kind, count in stats.sent_by_kind.items():
                if count:
                    channel_sent.set_total(count, channel=label, kind=kind.value)
            delivered.set_total(stats.delivered, channel=label)
            frames.set_total(stats.frames_dropped, channel=label)
            retransmits.set_total(stats.retransmits, channel=label)
            acks.set_total(stats.acks_sent, channel=label, result="sent")
            acks.set_total(stats.acks_dropped, channel=label, result="dropped")
            duplicates.set_total(stats.duplicates_suppressed, channel=label)
            gave_up.set_total(stats.gave_up, channel=label)
            for kind, count in stats.dropped_by_kind.items():
                if count:
                    dropped.set_total(count, channel=label, kind=kind.value)

        events = metrics.counter(
            "process_events_total", "Instrumented events per process.")
        rate = metrics.gauge(
            "process_event_rate", "Events per time unit per process.")
        now = self.clock()
        for name, controller in system.controllers.items():
            count = controller._local_seq
            events.set_total(count, process=name)
            rate.set(count / now if now > 0 else 0.0, process=name)

        wake = getattr(system, "wake", None)  # wall-clock backends only
        if wake is not None:
            metrics.counter(
                "wake_waits_total", "Session waits on the wake primitive."
            ).set_total(wake.waits)
            metrics.counter(
                "wake_notified_wakeups_total",
                "Waiter wake-ups caused by a notify (event-driven).",
            ).set_total(wake.notified_wakeups)
            metrics.counter(
                "wake_fallback_wakeups_total",
                "Waiter wake-ups caused by the re-check timer or a deadline.",
            ).set_total(wake.fallback_wakeups)

        tracer = self.tracer
        metrics.histogram(
            "halt_latency", "Halt initiation to convergence, per generation."
        ).set_from(tracer.durations("halt", name="halt.converge"))
        metrics.histogram(
            "snapshot_latency", "C&L snapshot start to completion."
        ).set_from(tracer.durations("snapshot", name="snapshot.record"))
        metrics.histogram(
            "halt_marker_hops",
            "Length of the already-halted path each halt marker carried.",
            buckets=_COUNT_BUCKETS,
        ).set_from(
            float(span.attrs.get("hops", 0))
            for span in tracer.spans("halt") if span.name == "halt.process"
        )
        metrics.histogram(
            "predicate_marker_hops",
            "Stage hits per completed linked-predicate detection.",
            buckets=_COUNT_BUCKETS,
        ).set_from(
            float(span.attrs.get("hops", 0))
            for span in tracer.spans("breakpoint")
            if span.name == "lp.detection"
        )
        metrics.histogram(
            "retransmission_attempts",
            "Retries per retransmission episode.",
            buckets=_COUNT_BUCKETS,
        ).set_from(
            float(span.attrs.get("attempts", 0))
            for span in tracer.spans("retransmission")
        )

        with self._lock:
            recoveries = list(self._recoveries)
        if recoveries:
            metrics.counter(
                "recoveries_total",
                "Supervisor rollback recoveries from checkpoints.",
            ).set_total(len(recoveries))
            victims = metrics.counter(
                "recovered_processes_total",
                "Victim processes restored, per process.",
            )
            per_process: Dict[str, int] = {}
            for record in recoveries:
                for name in record["victims"]:  # type: ignore[union-attr]
                    per_process[name] = per_process.get(name, 0) + 1
            for name, count in sorted(per_process.items()):
                victims.set_total(count, process=name)
            metrics.histogram(
                "recovery_latency",
                "Death detection to cluster restored, wall seconds.",
            ).set_from(float(r["total_s"]) for r in recoveries)  # type: ignore[arg-type]
            metrics.histogram(
                "recovery_restart_latency",
                "Relaunch + re-rendezvous + restore portion, wall seconds.",
            ).set_from(float(r["restart_s"]) for r in recoveries)  # type: ignore[arg-type]
