"""The debugger process ``d`` (extended model, §2.2.3).

``d`` is an ordinary process of the system — it occupies a node, owns real
channels to and from every user process, and its messages ride the same
simulated network. What makes it special:

* it never halts (its :class:`~repro.runtime.controller.ProcessController`
  is built with ``never_halts=True``);
* its :class:`~repro.halting.algorithm.HaltingAgent` relays halt markers
  without halting, making the channel graph strongly connected for markers
  (the fix for Fig. 2's acyclic topologies);
* this plugin collects every notification the clients push and exposes the
  "typical functions of a debugger" to the session layer.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.breakpoints.detector import PredicateAgent, PredicateMarker
from repro.breakpoints.predicates import ConjunctivePredicate, LinkedPredicate
from repro.debugger.commands import (
    BreakpointHit,
    HaltNotification,
    PingCommand,
    PongNotice,
    SatisfactionNotice,
    StateReport,
    StateRequest,
    StepCommand,
    StepReport,
    UnwatchCommand,
    WatchCommand,
)
from repro.debugger.gather import GatherDetector, UnorderedDetection
from repro.network.message import Envelope, MessageKind
from repro.runtime.controller import ProcessController
from repro.runtime.interfaces import ControlPlugin
from repro.runtime.process import Process
from repro.util.errors import ReproError
from repro.util.ids import ChannelId, ProcessId

DEFAULT_DEBUGGER_NAME: ProcessId = "d"


class DebuggerProcess(Process):
    """The debugger's user-code shell. Debugger behaviour lives in control
    plugins; the shell only routes the debugger's own timers (heartbeat
    intervals, watchdog deadlines) to registered hooks — the debugger never
    halts, so its timers keep firing while the user program is frozen,
    which is what makes failure detection during a halt possible."""

    def __init__(self) -> None:
        self.timer_hooks: Dict[str, object] = {}

    def on_timer(self, ctx: object, name: str, payload: object) -> None:
        """Dispatch a named timer to its registered hook (heartbeats,
        watchdogs); unknown timers are ignored."""
        hook = self.timer_hooks.get(name)
        if hook is not None:
            hook(payload)  # type: ignore[operator]


class DebuggerAgent(ControlPlugin):
    """Collects notifications and issues commands — the hub side of the
    protocol in :mod:`repro.debugger.commands`."""

    kinds = frozenset({MessageKind.DEBUG_CONTROL})

    def __init__(self, controller: ProcessController) -> None:
        self.attach(controller)
        self.halt_notifications: List[HaltNotification] = []
        self.breakpoint_hits: List[BreakpointHit] = []
        self.state_reports: Dict[int, StateReport] = {}
        #: step_id -> StepReport for every answered single-step.
        self.step_reports: Dict[int, StepReport] = {}
        self.unordered_detections: List[UnorderedDetection] = []
        #: ping_id -> PongNotice for every answered liveness probe.
        self.pongs: Dict[int, PongNotice] = {}
        #: process -> debugger-local arrival time of its freshest pong.
        self.last_pong: Dict[ProcessId, float] = {}
        self._gatherers: Dict[int, GatherDetector] = {}
        self._next_request_id = 1
        self._next_watch_id = 1
        self._next_ping_id = 1
        self._next_step_id = 1

    # -- notification intake -------------------------------------------------

    def on_control(self, envelope: Envelope) -> None:
        """File one incoming notification into the matching append-only
        intake (halts, hits, state/step reports, pongs, satisfactions)."""
        notice = envelope.payload
        if isinstance(notice, HaltNotification):
            self.halt_notifications.append(notice)
        elif isinstance(notice, BreakpointHit):
            self.breakpoint_hits.append(notice)
        elif isinstance(notice, StateReport):
            self.state_reports[notice.request_id] = notice
        elif isinstance(notice, StepReport):
            self.step_reports[notice.step_id] = notice
        elif isinstance(notice, PongNotice):
            self.pongs[notice.ping_id] = notice
            self.last_pong[notice.process] = self.controller.now
        elif isinstance(notice, SatisfactionNotice):
            gatherer = self._gatherers.get(notice.watch_id)
            if gatherer is not None:
                detection = gatherer.on_notice(notice, now=self.controller.now)
                if detection is not None:
                    self.unordered_detections.append(detection)
        else:
            raise ReproError(f"debugger received unknown notification {notice!r}")

    # -- commands -----------------------------------------------------------------

    def send_command(self, process: ProcessId, command: object) -> None:
        """Send one debugger command on the direct d->process channel."""
        self.controller.send_control(
            ChannelId(self.controller.name, process),
            MessageKind.DEBUG_CONTROL,
            command,
        )

    def request_state(self, process: ProcessId, include_channels: bool = True) -> int:
        """Ask one process for a state report; returns the request id the
        eventual :class:`StateReport` will carry."""
        request_id = self._next_request_id
        self._next_request_id += 1
        self.send_command(
            process, StateRequest(request_id=request_id, include_channels=include_channels)
        )
        return request_id

    def send_step(self, process: ProcessId, channel: Optional[str] = None) -> int:
        """Ask one halted process to deliver exactly one buffered message
        (optionally restricted to ``channel``). Returns the step_id; the
        answer lands in :attr:`step_reports` — always, even when there was
        nothing to step."""
        step_id = self._next_step_id
        self._next_step_id += 1
        self.send_command(process, StepCommand(step_id=step_id, channel=channel))
        return step_id

    def send_ping(self, process: ProcessId) -> int:
        """Probe one process's liveness. Returns the ping_id; the answer
        (if the host is alive) lands in :attr:`pongs`."""
        ping_id = self._next_ping_id
        self._next_ping_id += 1
        self.send_command(process, PingCommand(ping_id=ping_id))
        return ping_id

    def ask(self, wait, label: str, send, names, replies, timeout: float):
        """One protocol round trip, driven from a wall-clock session's
        thread: on ``d``'s own thread ``send(name)`` a request to each of
        ``names``, then ``wait(predicate, timeout)`` for the reply filed in
        ``replies`` under the id each send returned. Returns name -> reply,
        ``None`` where none came in time. Only defers and reads append-only
        intakes, so it is safe off ``d``'s thread."""
        ids: Dict[ProcessId, int] = {}

        def request() -> None:
            for name in names:
                ids[name] = send(name)

        self.controller.defer(request, label=label)
        wait(
            lambda: len(ids) == len(names)
            and all(rid in replies for rid in ids.values()),
            timeout,
        )
        return {name: replies.get(ids.get(name)) for name in names}

    def answered(self, ping_id: int) -> bool:
        """True once the pong for ``ping_id`` arrived."""
        return ping_id in self.pongs

    # -- breakpoints (Predicate-Marker-Sending Rule, §3.6) ----------------------------

    def issue_predicate(self, lp: LinkedPredicate, lp_id: int, halt: bool = True) -> None:
        """Send a predicate marker for ``lp`` to each process involved in
        its first Disjunctive Predicate."""
        agent = self.controller.plugin_of(PredicateAgent)
        if agent is None:
            raise ReproError("debugger has no PredicateAgent installed")
        marker = PredicateMarker(lp_id=lp_id, residual=lp, stage_index=0, halt=halt)
        for target in sorted(lp.first.processes()):
            if target == self.controller.name:
                raise ReproError("predicates cannot reference the debugger process")
            agent._route_marker(target, marker)  # direct d->target channel exists

    # -- conjunctive watches (gather detector, §3.5) -------------------------------------

    def watch_conjunction(self, conjunction: ConjunctivePredicate,
                          history: int = 32) -> int:
        """Install continuous watches for every term of an (unordered)
        conjunction; the debugger gathers notices and reports concurrent
        co-satisfactions after the fact."""
        watch_id = self._next_watch_id
        self._next_watch_id += 1
        self._gatherers[watch_id] = GatherDetector(watch_id, conjunction, history)
        for term_index, term in enumerate(conjunction.terms):
            self.send_command(
                term.process,
                WatchCommand(watch_id=watch_id, term_index=term_index, term=term),
            )
        return watch_id

    def unwatch(self, watch_id: int) -> None:
        """Tear down one conjunction watch at every involved process."""
        gatherer = self._gatherers.pop(watch_id, None)
        if gatherer is None:
            return
        for term in gatherer.conjunction.terms:
            self.send_command(term.process, UnwatchCommand(watch_id=watch_id))

    def detections_for(self, watch_id: int) -> List[UnorderedDetection]:
        """Every concurrent co-satisfaction one watch has gathered."""
        return [d for d in self.unordered_detections if d.watch_id == watch_id]

    # -- views ---------------------------------------------------------------------------

    def halted_processes(self) -> List[ProcessId]:
        """Processes that have reported halting, in arrival order."""
        return [n.process for n in self.halt_notifications]

    def halting_order(self) -> List[HaltNotification]:
        """Halt notifications in arrival order. Each carries the §2.2.4
        marker path — who had already halted when this process froze."""
        return list(self.halt_notifications)

    def latest_report(self, process: ProcessId) -> Optional[StateReport]:
        """The most recent state report from ``process``, if any."""
        for report in reversed(list(self.state_reports.values())):
            if report.process == process:
                return report
        return None
