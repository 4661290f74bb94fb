"""One OS process of a distributed run: facade, host, and entry point.

The load-bearing idea of this backend is that
:class:`~repro.runtime.threaded.ThreadedController` — and therefore every
algorithm plugin (halting, snapshots, predicates, debugger client) — talks
to its system only through a narrow facade: clocks, channels, topology
queries, event recording, activity accounting. :class:`HostRuntime`
re-implements exactly that facade over TCP sockets, so the controller and
the agents run *unmodified* inside a child OS process; the paper's
algorithms never learn that their channels became real.

Topology split per host: a host owns live
:class:`~repro.distributed.transport.SocketChannel` objects only for its
*outgoing* channels (a process only ever sends on those); every other
process is a :class:`_PeerStub` carrying just the attributes neighbour
queries read. Incoming channels arrive as accepted connections, each
drained by one reader thread that feeds the controller's mailbox —
one serial reader per connection keeps every channel FIFO end to end.

Run ``python -m repro.distributed.host <spec.json> <name>`` to start one
child (the parent does this via ``subprocess``).
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.debugger.client import DebugClientAgent
from repro.breakpoints.detector import PredicateAgent
from repro.distributed import wire
from repro.distributed.protocol import envelope_from_wire
from repro.distributed.spec import ClusterSpec
from repro.distributed.transport import InboundLink, SocketChannel, dial
from repro.events.clocks import ClockFrame
from repro.events.event import Event
from repro.events.log import EventLog
from repro.faults.injection import injector_for
from repro.halting.algorithm import HaltingAgent
from repro.network.message import MessageKind
from repro.runtime.interfaces import ControlPlugin
from repro.runtime.process import Process
from repro.runtime.threaded import _STOP, ThreadedController
from repro.runtime.wake import Wake
from repro.util.errors import CheckpointError, ReproError, WireError
from repro.util.ids import ChannelId, ProcessId, SequenceGenerator

if False:  # pragma: no cover - typing only
    from repro.observe.integrate import Observability


class _PeerStub:
    """What a host knows about a process it does not run: almost nothing.

    Neighbour queries (``neighbors_out``, ``user_send`` guards) read only
    ``never_halts``; everything else about a remote peer is learned the
    distributed way — from its messages, or from its silence.
    """

    __slots__ = ("name", "never_halts", "crashed", "halted")

    def __init__(self, name: ProcessId, never_halts: bool) -> None:
        self.name = name
        self.never_halts = never_halts
        self.crashed = False
        self.halted = False


class HostRuntime:
    """The system facade one OS process gives its local controller."""

    def __init__(
        self,
        spec: ClusterSpec,
        name: ProcessId,
        process: Process,
        observe: Optional["Observability"] = None,
    ) -> None:
        self.spec = spec
        self.name = name
        self.observe = observe
        self.topology = spec.extended_topology()
        self.seed = spec.seed
        self.time_scale = spec.time_scale
        #: All hosts build the frame from the same spec order, so vector
        #: snapshots are index-compatible across the whole cluster.
        self.clock_frame = ClockFrame(spec.process_order)
        self.log = EventLog()
        self._log_lock = threading.Lock()
        self._event_ids = SequenceGenerator(start=1)
        self._message_seqs = SequenceGenerator(start=1)
        self._activity = 0
        self._activity_lock = threading.Lock()
        #: The same wake primitive the threaded backend waits on: the
        #: local controller notifies it, the session's waits sleep on it.
        self.wake = Wake()
        self._epoch = time.monotonic()

        never_halt = set(spec.never_halt)
        local = ThreadedController(
            self, name, process, never_halts=name in never_halt
        )
        self.controllers: Dict[ProcessId, ThreadedController] = {name: local}
        self._stubs: Dict[ProcessId, _PeerStub] = {
            other: _PeerStub(other, other in never_halt)
            for other in spec.process_order
            if other != name
        }
        self._out: Dict[ProcessId, List[ChannelId]] = {
            p: [] for p in spec.process_order
        }
        self._in: Dict[ProcessId, List[ChannelId]] = {
            p: [] for p in spec.process_order
        }
        for channel_id in self.topology.channels:
            self._out[channel_id.src].append(channel_id)
            self._in[channel_id.dst].append(channel_id)
        #: Live sender endpoints for this host's outgoing channels.
        self.outgoing: Dict[ChannelId, SocketChannel] = {}
        #: Receiver-side accounting for accepted connections.
        self.inbound: Dict[ChannelId, InboundLink] = {}
        if observe is not None:
            observe.attach_system(self)

    # -- facade surface (what ThreadedController and plugins call) ----------

    @property
    def now(self) -> float:
        return time.monotonic() - self._epoch

    def controller(self, name: ProcessId) -> Any:
        local = self.controllers.get(name)
        if local is not None:
            return local
        return self._stubs[name]

    def channel(self, channel_id: ChannelId) -> Optional[SocketChannel]:
        return self.outgoing.get(channel_id)

    def channels(self) -> List[Any]:
        return list(self.outgoing.values()) + list(self.inbound.values())

    def outgoing_channels(self, process: ProcessId) -> Tuple[ChannelId, ...]:
        return tuple(self._out[process])

    def incoming_channels(self, process: ProcessId) -> Tuple[ChannelId, ...]:
        return tuple(self._in[process])

    def find_path(
        self, src: ProcessId, dst: ProcessId
    ) -> Optional[List[ProcessId]]:
        """BFS over the (static, spec-defined) extended topology."""
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
        return self.spec.user_names

    def message_totals(self) -> Dict[str, int]:
        """This host's sends by kind (inbound links contribute zero)."""
        totals: Dict[str, int] = {}
        for channel in self.channels():
            for kind, count in channel.sent_by_kind.items():
                totals[kind.value] = totals.get(kind.value, 0) + count
        return totals

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

    @property
    def pending_activity(self) -> int:
        with self._activity_lock:
            return self._activity


class ProcessHost:
    """Network plumbing for one OS process: listener, dials, readers.

    Owns the listening socket for this process's port, accepts one
    connection per incoming channel (identified by the peer's ``hello``
    frame), and dials one connection per outgoing channel. Envelope frames
    go into the local controller's mailbox; ``ctl`` frames go to the
    ``on_ctl`` callback (the cluster-membership side band: ready/go/
    shutdown/stats).
    """

    def __init__(
        self,
        spec: ClusterSpec,
        name: ProcessId,
        process: Process,
        observe: Optional["Observability"] = None,
        on_ctl: Optional[Callable[[Dict[str, Any], ChannelId], None]] = None,
        on_peer_lost: Optional[Callable[[ChannelId], None]] = None,
        on_port: Optional[Callable[[Dict[str, Any], socket.socket], None]] = None,
    ) -> None:
        self.spec = spec
        self.name = name
        self.runtime = HostRuntime(spec, name, process, observe=observe)
        self.controller = self.runtime.controllers[name]
        self._on_ctl = on_ctl
        self._on_peer_lost = on_peer_lost
        self._on_port = on_port
        self._plan = spec.faults()
        #: Port this host was planned with; ``0`` obliges it to announce
        #: its real port at the rendezvous.
        self._planned_port = spec.ports.get(name, 0)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conns: List[socket.socket] = []
        self._conn_lock = threading.Lock()
        self._closing = False

    # -- wiring --------------------------------------------------------------

    def bind(self) -> None:
        """Bind this process's listening port and start accepting.

        Planned port ``0`` means "let the OS pick": the real port is read
        back from the socket and written into ``spec.ports`` so the
        rendezvous can announce it — no probe-then-close race.

        Raises ``OSError`` (e.g. ``EADDRINUSE``) to the caller — the CLI
        turns that into a clean exit, not a hang.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind(("127.0.0.1", self.spec.ports[self.name]))
            listener.listen(len(self.spec.process_order) + 4)
        except OSError:
            listener.close()
            raise
        self.spec.ports[self.name] = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"accept-{self.name}", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conn_lock:
                self._conns.append(conn)
            threading.Thread(
                target=self._handshake_and_read, args=(conn,),
                name=f"reader-{self.name}", daemon=True,
            ).start()

    def _handshake_and_read(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(10.0)
            hello = wire.recv_frame(conn)
            conn.settimeout(None)
            if (
                hello.get("frame") == "port"
                and "process" in hello
                and self._on_port is not None
            ):
                # Port rendezvous: a child announces its real listening
                # port. The handler keeps the connection open — the parent
                # replies with the full map once everyone has announced.
                self._on_port(hello, conn)
                return
            if hello.get("frame") != "hello" or "channel" not in hello:
                raise WireError(f"expected hello frame, got {hello!r}")
            channel_id = ChannelId.parse(hello["channel"])
        except Exception:
            conn.close()
            return
        link = InboundLink(channel_id)
        self.runtime.inbound[channel_id] = link
        self._read_loop(conn, channel_id, link)

    def _read_loop(
        self, conn: socket.socket, channel_id: ChannelId, link: InboundLink
    ) -> None:
        """Drain one connection serially — per-channel FIFO is structural."""
        try:
            while True:
                frame = wire.recv_frame(conn)
                kind = frame.get("frame")
                if kind == "env":
                    envelope = envelope_from_wire(frame)
                    link.note_delivered(envelope, self.runtime.now)
                    # Credit transfers to the mailbox item; the controller
                    # main loop releases it after processing.
                    self.runtime.note_activity(+1)
                    self.controller.inbox.put(("env", envelope))
                elif kind == "ctl":
                    if self._on_ctl is not None:
                        self._on_ctl(frame, channel_id)
                else:
                    raise WireError(f"unknown frame type {kind!r}")
        except (WireError, OSError):
            # WireClosed (clean EOF) included: the peer is gone. Under
            # fail-stop that is not an error — it is information.
            pass
        finally:
            conn.close()
            if self._on_peer_lost is not None and not self._closing:
                self._on_peer_lost(channel_id)

    def exchange_ports(self) -> None:
        """Child side of the port rendezvous: announce, then learn the map.

        The planned spec carries port ``0`` for every child; only the
        debugger's port is real by the time the spec file is written (the
        parent binds before spawning). Each child dials that known port,
        announces its own OS-assigned port, and blocks until the parent
        replies with the complete map — so by the time any host dials a
        data channel, every listener is already up.
        """
        if self._planned_port != 0:
            return  # legacy spec with pre-allocated ports: nothing to do
        deadline = time.monotonic() + self.spec.connect_timeout
        sock = dial(
            self.spec.ports[self.spec.debugger], deadline,
            seed=f"{self.spec.seed}|rendezvous|{self.name}",
        )
        try:
            wire.send_frame(sock, {
                "frame": "port",
                "process": self.name,
                "port": self.spec.ports[self.name],
            })
            sock.settimeout(self.spec.connect_timeout + 10.0)
            reply = wire.recv_frame(sock)
            if reply.get("frame") != "ports" or "ports" not in reply:
                raise WireError(f"expected ports frame, got {reply!r}")
            self.spec.ports.update(
                {str(k): int(v) for k, v in reply["ports"].items()}
            )
        finally:
            sock.close()

    def connect_all(self) -> None:
        """Dial one connection per outgoing channel (with startup retry)."""
        deadline = time.monotonic() + self.spec.connect_timeout
        for channel_id in sorted(self.runtime.outgoing_channels(self.name)):
            sock = dial(
                self.spec.ports[channel_id.dst], deadline,
                seed=f"{self.spec.seed}|dial|{channel_id}",
            )
            wire.send_frame(sock, {"frame": "hello", "channel": str(channel_id)})
            injector = (
                injector_for(self._plan, channel_id)
                if self._plan is not None
                else None
            )
            channel = SocketChannel(channel_id, self.runtime, sock, injector)
            self.runtime.outgoing[channel_id] = channel
            if self.runtime.observe is not None:
                self.runtime.observe.wire_channel(channel)

    def send_ctl(self, dst: ProcessId, frame: Dict[str, Any]) -> bool:
        """Send one control-plane frame on the outgoing channel to ``dst``."""
        channel = self.runtime.channel(ChannelId(self.name, dst))
        if channel is None:
            return False
        return channel.send_raw({"frame": "ctl", **frame})

    # -- teardown ------------------------------------------------------------

    def stop_controller(self, timeout: float = 5.0) -> None:
        """Stop the local controller thread (bounded join)."""
        for timer in list(self.controller._timers.values()):
            timer.cancel()
        self.controller.inbox.put(_STOP)
        self.controller.join(timeout)

    def close(self) -> None:
        """Tear down every socket this host owns."""
        self._closing = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for channel in list(self.runtime.outgoing.values()):
            channel.close()
        with self._conn_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass


class _DieAfterEvents(ControlPlugin):
    """Fault plugin: hard-kill this OS process after its N-th local event.

    The distributed analogue of
    :class:`~repro.faults.injection.CrashAfterEvents`: instead of setting a
    ``crashed`` flag, the process genuinely dies (``os._exit``), its sockets
    collapse, and the debugger must discover the death by silence — which is
    exactly what the partial-halt machinery (PR 2) is for.
    """

    kinds: frozenset = frozenset()

    def __init__(self, after_events: int) -> None:
        self.after_events = int(after_events)
        self._count = 0

    def on_local_event(self, event: Event) -> None:
        self._count += 1
        if self._count >= self.after_events:
            os._exit(137)


def restore_from_checkpoint(host: ProcessHost, name: ProcessId) -> None:
    """Restore this child from ``spec.restore_checkpoint`` (Theorem 2,
    distributed): preload the process's own snapshot, then re-send the
    checkpoint's pending messages on this host's outgoing channels.

    Ordering guarantee: restore runs after ``connect_all`` but before the
    ``ready``/``go`` rendezvous completes, and no controller starts until
    ``go`` — so every replayed message is on its TCP stream before any new
    traffic is generated, and per-channel FIFO puts it first in line at the
    receiver. The pending messages of the cut are delivered exactly once,
    ahead of everything the resurrected run produces.
    """
    from repro.recovery.checkpoint import load_checkpoint

    spec = host.spec
    assert spec.restore_checkpoint is not None
    state = load_checkpoint(spec.restore_checkpoint)
    frame = state.meta.get("clock_frame")
    if frame is not None and list(frame) != list(spec.process_order):
        raise CheckpointError(
            f"checkpoint clock frame {list(frame)!r} does not match this "
            f"cluster's process order {list(spec.process_order)!r}"
        )
    snapshot = state.processes.get(name)
    if snapshot is None:
        raise CheckpointError(f"checkpoint has no snapshot for {name!r}")
    host.controller.preload(snapshot)
    for channel_id in sorted(host.runtime.outgoing_channels(name)):
        channel = host.runtime.outgoing.get(channel_id)
        if channel is None:
            continue
        for message in state.pending_on(channel_id):
            channel.send(MessageKind.USER, message)


def install_debug_agents(
    controller: ThreadedController, debugger: ProcessId
) -> Tuple[HaltingAgent, PredicateAgent, DebugClientAgent]:
    """The standard user-process agent stack, same as every other backend."""
    halting = HaltingAgent(controller)
    controller.install(halting)
    client = DebugClientAgent(controller, debugger)
    predicate = PredicateAgent(
        controller,
        on_final=client.notify_breakpoint,
        halt_on_final=True,
        cancelled=set(),
    )
    controller.install(predicate)
    controller.install(client)
    return halting, predicate, client


def child_main(spec_path: str, name: str) -> int:
    """Entry point of one spawned user process."""
    spec = ClusterSpec.read(spec_path)
    if name not in spec.user_names:
        print(f"{name!r} is not a user process of this spec", file=sys.stderr)
        return 2
    process = spec.user_processes()[name]

    go = threading.Event()
    stop = threading.Event()

    def on_ctl(frame: Dict[str, Any], channel_id: ChannelId) -> None:
        op = frame.get("op")
        if op == "go":
            go.set()
        elif op == "shutdown":
            stop.set()

    def on_peer_lost(channel_id: ChannelId) -> None:
        # Orphan protection: losing the debugger's control connection means
        # the parent is gone; a user process without its debugger exits.
        if channel_id.src == spec.debugger:
            stop.set()

    host = ProcessHost(
        spec, name, process, on_ctl=on_ctl, on_peer_lost=on_peer_lost
    )
    try:
        host.bind()
    except OSError as exc:
        print(f"{name}: cannot bind port {spec.ports[name]}: {exc}",
              file=sys.stderr)
        return 2
    try:
        host.exchange_ports()
        host.connect_all()
    except (OSError, WireError) as exc:
        print(f"{name}: cannot reach peers: {exc}", file=sys.stderr)
        host.close()
        return 2

    controller = host.controller
    install_debug_agents(controller, spec.debugger)

    if spec.restore_checkpoint:
        try:
            restore_from_checkpoint(host, name)
        except (ReproError, OSError) as exc:
            print(f"{name}: cannot restore from checkpoint "
                  f"{spec.restore_checkpoint!r}: {exc}", file=sys.stderr)
            host.close()
            return 2

    # Self-inflicted faults from the plan: real process death, real freezes.
    plan = spec.faults()
    staged_timers: List[threading.Timer] = []
    if plan is not None:
        for crash in plan.crashes:
            if crash.process != name:
                continue
            if crash.after_events is not None:
                controller.install(_DieAfterEvents(crash.after_events))
            else:
                staged_timers.append(threading.Timer(
                    float(crash.at_time) * spec.time_scale,
                    lambda: os._exit(137),
                ))
        for stall in plan.stalls:
            if stall.process != name:
                continue
            def fire_stall(duration: float = stall.duration) -> None:
                controller.defer(lambda: controller.stall(duration))
            staged_timers.append(threading.Timer(
                float(stall.at_time) * spec.time_scale, fire_stall,
            ))

    host.send_ctl(spec.debugger, {"op": "ready", "process": name})
    if not go.wait(timeout=spec.connect_timeout + 10.0):
        print(f"{name}: never received go", file=sys.stderr)
        host.close()
        return 1

    host.runtime.note_activity(+1)  # released after on_start, as ever
    controller.start()
    for timer in staged_timers:
        timer.daemon = True
        timer.start()

    stop.wait()
    stats = {
        "op": "stats",
        "process": name,
        "totals": host.runtime.message_totals(),
        "channels": {
            str(c.id): {
                "sent": c.stats.sent,
                "delivered": c.stats.delivered,
                "dropped": c.stats.dropped,
                "frames_dropped": c.stats.frames_dropped,
            }
            for c in host.runtime.channels()
        },
    }
    host.send_ctl(spec.debugger, stats)
    for timer in staged_timers:
        timer.cancel()
    host.stop_controller()
    host.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.distributed.host <spec.json> <name>``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print("usage: python -m repro.distributed.host <spec.json> <name>",
              file=sys.stderr)
        return 2
    return child_main(argv[0], argv[1])


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
