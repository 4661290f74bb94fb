"""The distributed debug session: process ``d`` over real sockets.

The parent OS process *is* the paper's debugger process ``d``. It plans a
:class:`~repro.distributed.spec.ClusterSpec`, spawns one child OS process
per user process, hosts ``d``'s own controller and agents over the same
socket transport the children use, and then drives the run exactly like
:class:`~repro.debugger.session.DebugSession` does on the DES backend:
initiate the Halting Algorithm, collect the consistent global state from
protocol state reports, resume, set breakpoints.

Everything the session knows about the children it learns through the
wire: halt notifications (with §2.2.4 halting-order paths), state reports,
pongs — and, for failures, silence. ``kill()`` SIGKILLs a child outright;
the partial-halt machinery then has a genuinely dead host to discover.

Thread-safety follows the threaded session's rule: commands are deferred
into ``d``'s own mailbox, and only append-only notification state is read
from the driving thread.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import repro
from repro.breakpoints.detector import PredicateAgent
from repro.breakpoints.parser import parse_predicate
from repro.breakpoints.predicates import LinkedPredicate, SimplePredicate, as_linked
from repro.debugger.agent import (
    DEFAULT_DEBUGGER_NAME,
    DebuggerAgent,
    DebuggerProcess,
)
from repro.debugger.commands import ResumeCommand
from repro.debugger.failure import PartialHaltReport
from repro.distributed import wire
from repro.distributed.host import ProcessHost
from repro.distributed.spec import ClusterSpec
from repro.faults.plan import FaultPlan
from repro.halting.algorithm import HaltingAgent
from repro.snapshot.state import ChannelState, GlobalState
from repro.util.errors import (
    HaltingError,
    PredicateError,
    ReproError,
    SurvivorsOnlyError,
)
from repro.util.ids import ChannelId, ProcessId

if False:  # pragma: no cover - typing only
    from repro.observe.integrate import Observability


def _child_env() -> Dict[str, str]:
    """Environment for spawned children: make this ``repro`` importable."""
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src_root + os.pathsep + existing if existing else src_root
    )
    return env


class DistributedDebugSession:
    """Debugging a cluster of real OS processes from the debugger ``d``."""

    def __init__(
        self,
        workload: str,
        params: Optional[Mapping[str, Any]] = None,
        seed: int = 0,
        time_scale: float = 0.02,
        debugger_name: ProcessId = DEFAULT_DEBUGGER_NAME,
        fault_plan: Optional[FaultPlan] = None,
        observe: Optional["Observability"] = None,
        spec: Optional[ClusterSpec] = None,
        frame_stager: Optional[Any] = None,
    ) -> None:
        self.spec = spec if spec is not None else ClusterSpec.plan(
            workload,
            params,
            seed=seed,
            time_scale=time_scale,
            debugger=debugger_name,
            fault_plan=fault_plan,
        )
        self.debugger_name = self.spec.debugger
        self.observe = observe
        #: Optional :class:`~repro.distributed.framegate.FrameStager` —
        #: when set, the ports map sent back at the rendezvous is doctored
        #: so every user-process channel runs through the stager's proxy
        #: and a :class:`~repro.check.gate.FrameGate` can order deliveries.
        #: ``d``'s own port stays real: control traffic is never staged.
        self.frame_stager = frame_stager
        self._lock = threading.Lock()
        self._ready: set = set()
        #: Children that still owe a port announcement, their parked
        #: connections, and the "everyone announced" latch.
        self._expect_ports: set = set()
        self._port_conns: List[Any] = []
        self._ports_ready = threading.Event()
        #: process -> its final ``stats`` ctl frame (arrives at shutdown).
        self.host_stats: Dict[ProcessId, Dict[str, Any]] = {}
        self._host = ProcessHost(
            self.spec,
            self.debugger_name,
            DebuggerProcess(),
            observe=observe,
            on_ctl=self._on_ctl,
            on_port=self._on_port,
        )
        #: ``d``'s system facade — the ``session.system`` surface that
        #: observability and narrative tooling read.
        self.system = self._host.runtime
        controller = self._host.controller
        self._halting = HaltingAgent(controller)
        controller.install(self._halting)
        self._cancelled: set = set()
        self._predicate = PredicateAgent(
            controller, halt_on_final=False, cancelled=self._cancelled
        )
        controller.install(self._predicate)
        self.agent = DebuggerAgent(controller)
        controller.install(self.agent)
        self._children: Dict[ProcessId, subprocess.Popen] = {}
        self._killed: set = set()
        #: Halt generations fully resumed — their notifications are stale,
        #: so a later halt must start a fresh generation, not adopt them.
        self._resumed_generations: set = set()
        self._spec_path: Optional[str] = None
        self._next_lp_id = 1
        self._started = False
        self._shutdown = False

    # -- ctl side band -------------------------------------------------------

    def _on_ctl(self, frame: Dict[str, Any], channel_id: ChannelId) -> None:
        op = frame.get("op")
        if op == "ready":
            with self._lock:
                self._ready.add(frame.get("process"))
        elif op == "stats":
            with self._lock:
                self.host_stats[frame.get("process")] = {
                    "totals": frame.get("totals", {}),
                    "channels": frame.get("channels", {}),
                }
        self.system.wake.notify()

    def _on_port(self, frame: Dict[str, Any], conn: Any) -> None:
        """Parent side of the port rendezvous.

        Each child announces its real (OS-assigned) listening port over a
        throwaway connection to ``d``'s known port. The connection is
        parked until every expected child has announced; then the complete
        map goes back on every parked connection at once, so no host dials
        a listener that is not yet up.
        """
        with self._lock:
            self.spec.ports[str(frame.get("process"))] = int(
                frame.get("port", 0)
            )
            self._port_conns.append(conn)
            if not all(self.spec.ports.get(n) for n in self._expect_ports):
                return
            announced = dict(self.spec.ports)
            if self.frame_stager is not None:
                # Children learn proxied ports; the parent's own dials
                # (connect_all) keep using the real spec.ports map.
                announced = self.frame_stager.doctor(
                    announced, keep={str(self.debugger_name)}
                )
            reply = {"frame": "ports", "ports": announced}
            for parked in self._port_conns:
                try:
                    wire.send_frame(parked, reply)
                except OSError:
                    pass
                finally:
                    parked.close()
            self._port_conns.clear()
            self._ports_ready.set()

    def _wait(self, condition, timeout: float) -> bool:
        return self.system.wake.wait_for(condition, timeout)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind ``d``, spawn every child, connect, and release the cluster."""
        if self._started:
            return
        self._started = True
        # Bind before writing the spec: ``d``'s real port is the one fixed
        # point every child needs to reach the rendezvous.
        self._host.bind()
        fd, self._spec_path = tempfile.mkstemp(
            prefix="repro-cluster-", suffix=".json"
        )
        os.close(fd)
        self.spec.write(self._spec_path)
        self._expect_ports = {
            n for n in self.spec.user_names if not self.spec.ports.get(n)
        }
        env = _child_env()
        for name in self.spec.user_names:
            self._children[name] = subprocess.Popen(
                [sys.executable, "-m", "repro.distributed.host",
                 self._spec_path, name],
                env=env,
            )
        if self._expect_ports and not self._ports_ready.wait(
            timeout=self.spec.connect_timeout + 10.0
        ):
            missing = sorted(
                n for n in self._expect_ports if not self.spec.ports.get(n)
            )
            self.shutdown()
            raise HaltingError(
                f"port rendezvous incomplete; missing {missing}"
            )
        self._host.connect_all()
        expected = set(self.spec.user_names)
        if not self._wait(
            lambda: expected <= self._ready,
            timeout=self.spec.connect_timeout + 10.0,
        ):
            missing = sorted(expected - self._ready)
            self.shutdown()
            raise HaltingError(f"cluster never became ready; missing {missing}")
        for name in self.spec.user_names:
            self._host.send_ctl(name, {"op": "go"})
        self.system.note_activity(+1)
        self._host.controller.start()

    def shutdown(self, timeout: float = 5.0) -> None:
        """Orderly teardown: collect per-host stats, then stop everything."""
        if self._shutdown:
            return
        self._shutdown = True
        live = [
            name for name, proc in self._children.items()
            if proc.poll() is None
        ]
        for name in live:
            self._host.send_ctl(name, {"op": "shutdown"})
        # Stats are best-effort: a killed child never sends its frame.
        self._wait(
            lambda: set(live) <= set(self.host_stats), timeout=min(timeout, 3.0)
        )
        for name, proc in self._children.items():
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=timeout)
        if self._started:
            self._host.stop_controller(timeout)
        self._host.close()
        if self.frame_stager is not None:
            self.frame_stager.close()
        if self._spec_path is not None and os.path.exists(self._spec_path):
            os.unlink(self._spec_path)

    def __enter__(self) -> "DistributedDebugSession":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- failure injection ---------------------------------------------------

    def kill(self, process: ProcessId) -> None:
        """SIGKILL one child — a genuine fail-stop crash, mid-anything."""
        proc = self._children.get(process)
        if proc is None:
            raise ReproError(f"no child process named {process!r}")
        proc.kill()
        proc.wait(timeout=5.0)
        self._killed.add(process)

    def alive(self, process: ProcessId) -> bool:
        proc = self._children.get(process)
        return proc is not None and proc.poll() is None

    # -- halting -------------------------------------------------------------

    def _halted_of(self, generation: int) -> set:
        return {
            n.process
            for n in self.agent.halt_notifications
            if n.halt_id == generation
        }

    def halt(self) -> None:
        """Debugger-initiated halt: markers flood from ``d``'s channels."""
        self.start()
        if self.observe is not None:
            self.observe.note_halt_initiated(self._halting.last_halt_id + 1)
        self._host.controller.defer(self._halting.initiate, label="halt")

    def halt_with_watchdog(
        self, timeout: float = 10.0, probe_grace: float = 3.0
    ) -> PartialHaltReport:
        """Halt under a watchdog; silent processes are declared dead.

        Mirrors the threaded session: converged means every user process
        sent a halt notification for the current generation; anything
        still silent at ``timeout`` is pinged, and silence through
        ``probe_grace`` marks it dead. The survivors form a partial
        consistent cut (the PR 2 machinery, now over real process death).
        """
        self.start()
        names = list(self.spec.user_names)
        gen0 = self._halting.last_halt_id
        fresh = (
            gen0 in self._resumed_generations
            or not self._halted_of(gen0)
        )
        if fresh:
            self.halt()

        def settled() -> bool:
            # Everyone notified for this generation — except that members
            # whose OS process is gone are excused: a corpse will never
            # notify, so once everyone has either notified or died there
            # is nothing left to wait for. Survivors still get their full
            # chance — a corpse alone never cuts the wait short.
            gen = self._halting.last_halt_id
            if fresh and gen <= gen0:
                return False  # d's own initiation has not executed yet
            halted = self._halted_of(gen)
            return all(n in halted or not self.alive(n) for n in names)

        settled_in_time = self._wait(settled, timeout=timeout)
        generation = self._halting.last_halt_id
        halted = self._halted_of(generation)
        converged = settled_in_time and halted >= set(names)
        # Even a converged halt probes everyone: a process may have
        # notified and *then* died.
        dead = self._probe_dead(
            [n for n in names if converged or n not in halted], probe_grace
        )
        if self.observe is not None:
            self.observe.sync_session(self)
        return PartialHaltReport(
            generation=generation,
            halted=tuple(n for n in names if n in halted and n not in dead),
            dead=dead,
            unresolved=tuple(
                n for n in names if n not in halted and n not in dead
            ),
            time=time.time(),
            complete=converged and not dead,
        )

    def _probe_dead(self, suspects, probe_grace: float) -> Tuple[ProcessId, ...]:
        """Ping suspects from ``d``; no pong through the grace = dead host."""
        agent = self.agent
        pongs = agent.ask(self._wait, "watchdog_probe", agent.send_ping,
                          list(suspects), agent.pongs, probe_grace)
        return tuple(name for name, pong in pongs.items() if pong is None)

    def run_until_stopped(self, timeout: float = 30.0) -> bool:
        """Wait until a breakpoint-initiated halt covers every process."""
        self.start()
        converged = self._wait(
            lambda: self._halted_of(self._halting.last_halt_id)
            >= set(self.spec.user_names),
            timeout=timeout,
        )
        if converged and self.observe is not None:
            self.observe.sync_session(self)
        return converged

    def resume(self, timeout: float = 10.0, allow_partial: bool = False) -> bool:
        """Resume the halted generation; verified by pongs with
        ``halted=False`` from every resumed process.

        A cluster with dead members (SIGKILL, FaultPlan crash — anything
        whose OS process is gone) cannot resume whole. By default that
        raises :class:`~repro.util.errors.SurvivorsOnlyError` carrying the
        dead list, instead of hanging on control frames a corpse will never
        answer; ``allow_partial=True`` opts into resuming the survivors
        only (the recovery supervisor does this around its checkpoints).
        """
        generation = self._halting.last_halt_id
        dead = tuple(sorted(
            n for n in self.spec.user_names if not self.alive(n)
        ))
        if dead and not allow_partial:
            raise SurvivorsOnlyError(
                f"cannot resume the whole cluster: {list(dead)} are dead; "
                "resume(allow_partial=True) continues the survivors, or "
                "recover the cluster from a checkpoint (repro.recovery)",
                dead=dead,
            )
        targets = sorted(self._halted_of(generation) - set(dead))

        def send_resumes() -> None:
            for name in targets:
                self.agent.send_command(
                    name, ResumeCommand(generation=generation)
                )

        self._host.controller.defer(send_resumes, label="resume")
        resumed: set = set()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if allow_partial:
                # A target can die *mid-resume* (a timed crash racing the
                # resume command). Partial mode treats it like any other
                # corpse — drop it — rather than waiting out the clock
                # for a pong that will never come.
                targets = [n for n in targets if self.alive(n)]
            if set(targets) <= resumed:
                break
            pongs = self.agent.ask(
                self._wait, "resume_probe", self.agent.send_ping,
                [n for n in targets if n not in resumed], self.agent.pongs,
                timeout=min(1.0, max(0.05, deadline - time.monotonic())),
            )
            resumed.update(
                name for name, pong in pongs.items()
                if pong is not None and not pong.halted
            )
        success = set(targets) <= resumed
        if success:
            self._resumed_generations.add(generation)
        return success

    def current_generation(self) -> int:
        """The highest halt generation ``d`` has initiated or observed."""
        return self._halting.last_halt_id

    def halted_names(self) -> List[ProcessId]:
        """Processes frozen at the current generation (empty once it has
        been fully resumed — their old notifications are stale)."""
        generation = self._halting.last_halt_id
        if generation in self._resumed_generations:
            return []
        return sorted(self._halted_of(generation))

    def step(self, process: ProcessId, channel: Optional[str] = None,
             timeout: float = 10.0):
        """Single-step one halted child: exactly one buffered delivery,
        then frozen again. The :class:`StepCommand` and its
        :class:`StepReport` ride the real control sockets; a child with
        nothing to step still answers (``delivered=False``)."""
        if process not in self.spec.user_names:
            raise ReproError(f"unknown process {process!r}")
        agent = self.agent
        report = agent.ask(
            self._wait, "step",
            lambda name: agent.send_step(name, channel=channel),
            [process], agent.step_reports, timeout,
        )[process]
        if report is None:
            raise HaltingError(f"no step report from {process}")
        return report

    # -- inspection ----------------------------------------------------------

    def inspect(
        self, process: ProcessId, timeout: float = 10.0
    ) -> Dict[str, object]:
        """Protocol-based state fetch over the control channel."""
        agent = self.agent
        report = agent.ask(self._wait, "inspect", agent.request_state,
                           [process], agent.state_reports, timeout)[process]
        if report is None:
            raise HaltingError(f"no state report from {process}")
        return dict(report.snapshot.state)

    def collect_global_state(
        self,
        timeout: float = 10.0,
        report: Optional[PartialHaltReport] = None,
    ) -> GlobalState:
        """Assemble the consistent global state ``S_h`` from state reports.

        Re-requests state until, for every halted process, every user
        channel from another halted process is *closed* (the same-
        generation marker arrived behind the last user message — Lemma
        2.2's completeness signal), so no in-flight message can be missing
        from the cut. With a partial ``report``, only survivors
        participate; channels touching dead processes are excluded, which
        is exactly the shape :func:`repro.halting.restore.restore` accepts
        for partial restoration.
        """
        generation = self._halting.last_halt_id
        halted = sorted(
            self._halted_of(generation) if report is None
            else report.halted
        )
        if not halted:
            raise HaltingError("no halted processes to collect")
        halted_set = set(halted)

        def wanted_channels(process: ProcessId) -> List[ChannelId]:
            return [
                c for c in self.system.incoming_channels(process)
                if c.src in halted_set
            ]

        deadline = time.monotonic() + timeout
        while True:
            reports = self.agent.ask(
                self._wait, "collect_state", self.agent.request_state,
                halted, self.agent.state_reports,
                timeout=max(0.05, deadline - time.monotonic()),
            )
            if None not in reports.values() and all(
                str(channel) in reports[name].closed_channels
                for name in halted
                for channel in wanted_channels(name)
            ):
                break
            if time.monotonic() >= deadline:
                raise HaltingError(
                    "global state did not complete within the timeout "
                    "(some channels never saw their closing marker)"
                )
            # A channel closes inside its receiver; d learns of it only by
            # asking again, so the re-ask is paced by the wake's own timer.
            self._wait(lambda: False, timeout=0.02)

        processes = {name: reports[name].snapshot for name in halted}
        channels: Dict[ChannelId, ChannelState] = {}
        for name in halted:
            rep = reports[name]
            for channel in wanted_channels(name):
                channels[channel] = ChannelState(
                    channel=channel,
                    messages=tuple(rep.pending.get(str(channel), ())),
                    complete=str(channel) in rep.closed_channels,
                )
        order = [
            n.process for n in self.agent.halting_order()
            if n.halt_id == generation
        ]
        return GlobalState(
            origin="halting",
            processes=processes,
            channels=channels,
            generation=generation,
            meta={
                "halt_order": order,
                "clock_frame": list(self.spec.process_order),
            },
        )

    # -- breakpoints ---------------------------------------------------------

    def set_breakpoint(
        self,
        predicate: Union[str, LinkedPredicate, SimplePredicate],
        halt: bool = True,
    ) -> int:
        """Issue a linked predicate (§3.6); markers ride the sockets."""
        lp = (
            parse_predicate(predicate)
            if isinstance(predicate, str)
            else as_linked(predicate)
        )
        unknown = lp.processes() - set(self.spec.process_order)
        if unknown:
            raise PredicateError(
                f"predicate names unknown processes {sorted(unknown)}"
            )
        lp_id = self._next_lp_id
        self._next_lp_id += 1
        self._host.controller.defer(
            lambda: self.agent.issue_predicate(lp, lp_id, halt=halt),
            label="set_breakpoint",
        )
        return lp_id

    def clear_breakpoint(self, lp_id: int) -> None:
        self._cancelled.add(lp_id)

    # -- views ---------------------------------------------------------------

    def halting_order(self) -> List[ProcessId]:
        return [n.process for n in self.agent.halting_order()]

    def halt_paths(self) -> Dict[ProcessId, Tuple[ProcessId, ...]]:
        return {n.process: n.path for n in self.agent.halting_order()}

    def breakpoint_hits(self):
        return list(self.agent.breakpoint_hits)

    def cluster_message_totals(self) -> Dict[str, int]:
        """Messages sent by kind across the whole cluster: ``d``'s own plus
        every child's final stats frame (available after shutdown)."""
        totals = dict(self.system.message_totals())
        with self._lock:
            for stats in self.host_stats.values():
                for kind, count in stats.get("totals", {}).items():
                    totals[kind] = totals.get(kind, 0) + int(count)
        return totals


__all__ = ["DistributedDebugSession"]
