"""The full debugger on the threaded backend.

Everything :class:`~repro.debugger.session.DebugSession` offers — the
extended topology with the debugger process, breakpoints over predicate
markers, halting, protocol-based inspection, resume — running over OS
threads instead of virtual time. The agents are the *same classes*; only
the driving loop differs: where the DES session steps a kernel, this one
waits on real conditions with timeouts.

Thread-safety rule: controller state belongs to the controller's thread.
Session methods therefore never touch a controller directly — they
``defer`` closures into the debugger's mailbox (commands go out from the
debugger's own thread) and read only append-only notification lists.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, Union

from repro.breakpoints.detector import PredicateAgent
from repro.breakpoints.parser import parse_predicate
from repro.breakpoints.predicates import LinkedPredicate, SimplePredicate, as_linked
from repro.debugger.agent import (
    DEFAULT_DEBUGGER_NAME,
    DebuggerAgent,
    DebuggerProcess,
)
from repro.debugger.client import DebugClientAgent
from repro.debugger.commands import ResumeCommand
from repro.debugger.failure import PartialHaltReport
from repro.faults.plan import FaultPlan
from repro.halting.algorithm import HaltingAgent
from repro.network.reliable import ReliabilityConfig
from repro.network.topology import Topology
from repro.runtime.process import Process
from repro.runtime.threaded import ThreadedSystem
from repro.util.errors import HaltingError, PredicateError, ReproError
from repro.util.ids import ProcessId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe.integrate import Observability


class ThreadedDebugSession:
    """Interactive debugging over a thread-per-process system."""

    def __init__(
        self,
        topology: Topology,
        processes: Mapping[ProcessId, Process],
        seed: int = 0,
        time_scale: float = 0.02,
        latency_range: Tuple[float, float] = (0.0005, 0.003),
        debugger_name: ProcessId = DEFAULT_DEBUGGER_NAME,
        fault_plan: Optional[FaultPlan] = None,
        reliability: Optional[ReliabilityConfig] = None,
        reliable: bool = False,
        observe: Optional["Observability"] = None,
    ) -> None:
        if debugger_name in topology.processes:
            raise ReproError(f"user topology already contains {debugger_name!r}")
        self.debugger_name = debugger_name
        #: Optional live metrics/tracing hub (see :mod:`repro.observe`).
        self.observe = observe
        extended = topology.with_debugger(debugger_name)
        staffed: Dict[ProcessId, Process] = dict(processes)
        staffed[debugger_name] = DebuggerProcess()
        self.system = ThreadedSystem(
            extended, staffed, seed=seed,
            time_scale=time_scale, latency_range=latency_range,
            never_halt={debugger_name},
            fault_plan=fault_plan,
            reliability=reliability,
            reliable=reliable,
            observe=observe,
        )
        self._halting_agents: Dict[ProcessId, HaltingAgent] = {}
        self._predicate_agents: Dict[ProcessId, PredicateAgent] = {}
        self._cancelled: set = set()
        for name in extended.processes:
            controller = self.system.controller(name)
            halting = HaltingAgent(controller)
            controller.install(halting)
            self._halting_agents[name] = halting
            if name == debugger_name:
                predicate = PredicateAgent(controller, halt_on_final=False,
                                           cancelled=self._cancelled)
                controller.install(predicate)
                self._predicate_agents[name] = predicate
                self.agent = DebuggerAgent(controller)
                controller.install(self.agent)
            else:
                client = DebugClientAgent(controller, debugger_name)
                predicate = PredicateAgent(
                    controller,
                    on_final=client.notify_breakpoint,
                    halt_on_final=True,
                    cancelled=self._cancelled,
                )
                controller.install(predicate)
                controller.install(client)
                self._predicate_agents[name] = predicate
        self._next_lp_id = 1
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Launch every process thread (idempotent)."""
        if not self._started:
            self._started = True
            self.system.start()

    def shutdown(self) -> None:
        """Stop and join every process thread."""
        self.system.shutdown()

    def __enter__(self) -> "ThreadedDebugSession":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- breakpoints ------------------------------------------------------------

    def set_breakpoint(
        self, predicate: Union[str, LinkedPredicate, SimplePredicate],
        halt: bool = True,
    ) -> int:
        """Arm a linked predicate (§3.6); returns its lp_id. The markers
        are issued on the debugger's own thread via its mailbox."""
        lp = parse_predicate(predicate) if isinstance(predicate, str) else as_linked(predicate)
        unknown = lp.processes() - set(self.system.topology.processes)
        if unknown:
            raise PredicateError(f"predicate names unknown processes {sorted(unknown)}")
        lp_id = self._next_lp_id
        self._next_lp_id += 1
        debugger = self.system.controller(self.debugger_name)
        debugger.defer(
            lambda: self.agent.issue_predicate(lp, lp_id, halt=halt),
            label="set_breakpoint",
        )
        return lp_id

    def clear_breakpoint(self, lp_id: int) -> None:
        """Disarm one linked predicate: later completions are ignored."""
        self._cancelled.add(lp_id)

    # -- execution control -----------------------------------------------------------

    def run_until_stopped(self, timeout: float = 30.0) -> bool:
        """Wait until every user process halted and the halt drained
        (see :meth:`_drain`): the §2.2.4 halting order is complete on
        return."""
        self.start()
        if not self.system.run_until(self.system.all_user_processes_halted,
                                     timeout=timeout):
            return False
        drained = self._drain(timeout)
        if self.observe is not None:
            self.observe.sync_session(self)
        return drained

    def _drained(self) -> bool:
        """The paper's own end-of-halt condition, over the frozen
        survivors: ``d`` holds each one's notification for the current
        generation (§2.2.3), and each has seen that generation's marker on
        every incoming channel from another survivor or from ``d`` — which
        by FIFO closes the channel (Lemma 2.2): nothing is in flight."""
        controllers = self.system.controllers
        frozen = {
            n for n in self.system.user_process_names
            if controllers[n].halted and not controllers[n].crashed
        }
        generation = self.current_generation()
        notified = {
            n.process for n in self.agent.halt_notifications
            if n.halt_id == generation
        }
        return frozen <= notified and all(
            channel in controllers[name].closed_channels
            for name in frozen
            for channel in self.system.incoming_channels(name)
            if channel.src in frozen or channel.src == self.debugger_name
        )

    def _drain(self, timeout: float) -> bool:
        """Wait until the halt's traffic has landed: :meth:`_drained`, or
        plain quiescence — a marker lost on a lossy unreliable channel
        never closes its channel, and the quiet window is all that is
        left to wait for."""
        quiet = self.system.quiet_for()
        return self.system.run_until(
            lambda: self._drained() or quiet(), timeout=timeout
        )

    def wait_quiet(self, timeout: float = 30.0) -> bool:
        """Wait for quiescence regardless of halting (program finished or
        wedged)."""
        self.start()
        return self.system.settle(timeout=timeout)

    def halt(self) -> None:
        """Debugger-initiated halt (markers on its control channels)."""
        debugger = self.system.controller(self.debugger_name)
        agent = self._halting_agents[self.debugger_name]
        debugger.defer(agent.initiate, label="halt")

    def halt_with_watchdog(
        self, timeout: float = 10.0, probe_grace: float = 3.0
    ) -> PartialHaltReport:
        """Initiate a halt bounded by wall-clock watchdogs.

        Mirrors :meth:`DebugSession.halt_with_watchdog`: if the halt does
        not converge within ``timeout`` seconds, the still-unhalted
        processes are pinged and anything silent through ``probe_grace``
        is declared dead; the survivors form a partial consistent cut.
        """
        self.start()
        names = self.system.user_process_names
        # Initiate only if no halt is in progress — supervising an already
        # spreading halt must not layer a second generation onto processes
        # that are frozen (their agents would reject the re-halt).
        if not any(self.system.controller(n).halted for n in names):
            self.halt()

        def halted(name: ProcessId) -> bool:
            return self.system.controller(name).halted

        converged = self.system.run_until(
            self.system.all_user_processes_halted, timeout=timeout
        )
        if converged:
            self._drain(timeout)
        # A process may have halted and *then* crashed — its halted flag
        # survives but it can never answer. A converged halt probes everyone.
        dead = self._probe_dead(
            [n for n in names if converged or not halted(n)], probe_grace
        )
        if self.observe is not None:
            self.observe.sync_session(self)
        return PartialHaltReport(
            generation=self.current_generation(),
            halted=tuple(n for n in names if halted(n) and n not in dead),
            dead=dead,
            unresolved=tuple(
                n for n in names if not halted(n) and n not in dead
            ),
            time=time.time(),
            complete=converged and not dead,
        )

    def _probe_dead(self, suspects, probe_grace: float):
        """Ping each suspect from the debugger thread; silence through the
        grace window means the host is dead (live ones answer even halted)."""
        agent = self.agent
        pongs = agent.ask(self.system.run_until, "watchdog_probe",
                          agent.send_ping, list(suspects), agent.pongs,
                          probe_grace)
        return tuple(name for name, pong in pongs.items() if pong is None)

    def resume(self, timeout: float = 10.0) -> bool:
        """Send resume commands; wait until nobody is halted."""
        generation = self.current_generation()
        debugger = self.system.controller(self.debugger_name)

        def send_resumes() -> None:
            for name in self.system.user_process_names:
                if self.system.controller(name).halted:
                    self.agent.send_command(name, ResumeCommand(generation=generation))

        debugger.defer(send_resumes, label="resume")
        return self.system.run_until(
            lambda: not any(
                self.system.controller(n).halted
                for n in self.system.user_process_names
            ),
            timeout=timeout,
        )

    def step(self, process: ProcessId, channel: Optional[str] = None,
             timeout: float = 10.0):
        """Single-step one halted process: deliver exactly one buffered
        message and re-freeze. Returns the :class:`StepReport` (which says
        ``delivered=False`` when there was nothing to step)."""
        if process not in self.system.user_process_names:
            raise ReproError(f"unknown process {process!r}")
        agent = self.agent
        report = agent.ask(
            self.system.run_until, "step",
            lambda name: agent.send_step(name, channel=channel),
            [process], agent.step_reports, timeout,
        )[process]
        if report is None:
            raise HaltingError(f"no step report from {process}")
        return report

    def current_generation(self) -> int:
        """The highest halt_id any process has seen."""
        return max(a.last_halt_id for a in self._halting_agents.values())

    def alive(self) -> List[ProcessId]:
        """User processes whose controllers have not crashed."""
        return [
            n for n in self.system.user_process_names
            if not self.system.controller(n).crashed
        ]

    # -- inspection -------------------------------------------------------------------------

    def inspect(self, process: ProcessId, timeout: float = 10.0) -> Dict[str, object]:
        """Protocol-based state fetch (works live or halted)."""
        agent = self.agent
        report = agent.ask(self.system.run_until, "inspect",
                           agent.request_state, [process],
                           agent.state_reports, timeout)[process]
        if report is None:
            raise HaltingError(f"no state report from {process}")
        return dict(report.snapshot.state)

    def global_state(self, timeout: float = 10.0,
                     allow_partial: bool = False):
        """Assemble the halted global state ``S_h`` from protocol state
        reports, exactly like the DES session does: one report per halted
        process, pending channel contents included. ``allow_partial``
        accepts a cut over only the currently-halted processes. Drains the
        halt first (a no-op after :meth:`halt_with_watchdog` /
        :meth:`run_until_stopped`), so a call racing the last markers
        cannot drop an in-flight message from the cut."""
        from repro.snapshot.state import ChannelState, GlobalState
        from repro.util.ids import ChannelId

        names = self.system.user_process_names
        halted = [n for n in names if self.system.controller(n).halted]
        missing = [n for n in names if n not in halted]
        if missing and not allow_partial:
            raise HaltingError("global_state() requires all processes halted")
        self._drain(timeout)
        agent = self.agent
        reports = agent.ask(self.system.run_until, "global_state",
                            agent.request_state, halted,
                            agent.state_reports, timeout)
        if None in reports.values():
            raise HaltingError("state reports did not all arrive")
        processes = {}
        channels: Dict[ChannelId, ChannelState] = {}
        for name, report in reports.items():
            processes[name] = report.snapshot
            closed = set(report.closed_channels)
            for channel_text, messages in report.pending.items():
                channel = ChannelId.parse(channel_text)
                channels[channel] = ChannelState(
                    channel=channel,
                    messages=tuple(messages),
                    complete=channel_text in closed,
                )
        meta: Dict[str, object] = {
            "halt_order": [n.process for n in self.agent.halting_order()],
        }
        if missing:
            meta["partial"] = True
            meta["missing"] = sorted(missing)
        return GlobalState(
            origin="halting",
            processes=processes,
            channels=channels,
            generation=self.current_generation(),
            meta=meta,
        )

    def halting_order(self) -> List[ProcessId]:
        """§2.2.4 order in which halt notifications arrived."""
        return [n.process for n in self.agent.halting_order()]

    def halt_paths(self) -> Dict[ProcessId, Tuple[ProcessId, ...]]:
        """Per process, the already-halted path its marker carried."""
        return {n.process: n.path for n in self.agent.halting_order()}

    def breakpoint_hits(self):
        """Every BreakpointHit the debugger has learned about."""
        return list(self.agent.breakpoint_hits)

    # -- observability exports (require observe=Observability()) ----------------

    def _require_observe(self):
        if self.observe is None:
            raise ReproError(
                "session has no observability attached; construct it with "
                "ThreadedDebugSession(..., observe=Observability())"
            )
        return self.observe

    def chrome_trace(self, path: Optional[str] = None) -> Dict[str, object]:
        """Export recorded spans as a validated Chrome trace document."""
        from repro.observe.export import chrome_trace, write_chrome_trace

        observe = self._require_observe()
        observe.sync_session(self)
        if path is not None:
            return write_chrome_trace(observe, path)
        return chrome_trace(observe)

    def metrics_text(self) -> str:
        """Prometheus-style text dump of the live metrics registry."""
        from repro.observe.export import prometheus_text

        observe = self._require_observe()
        observe.sync_session(self)
        return prometheus_text(observe.metrics)

    def halt_narrative(self) -> str:
        """§2.2.4's halting order as readable text."""
        from repro.observe.narrative import halt_narrative

        if self.observe is not None:
            self.observe.sync_session(self)
        return halt_narrative(self)
