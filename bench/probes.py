"""The isolated layer probes of a traced run.

Each probe times only public functions of one layer, on inputs built from
the workload's own program or harvested from its legs, and writes the
per-layer metrics of ``BENCHMARK.json``. A probe whose symbols are
missing from :mod:`bench.surface` reports ``null`` for what it gives (with
the warning the surface already printed); a probe that raises is a failed
op and also reports ``null`` — never a silent zero.
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import time
import traceback
from typing import Any, Callable, List, Tuple

from bench import legs
from bench.harness import Recorder
from bench.spec import REGIMES


class Context:
    """Everything a probe may use."""

    def __init__(self, api: Any, regime: Any, rec: Recorder, sizes: Any,
                 seed: int, scratch: str) -> None:
        self.api, self.regime, self.rec = api, regime, rec
        self.sizes, self.seed, self.scratch = sizes, seed, scratch
        self.loops = 200 if sizes.quick else 2000

    def des_session(self, **kwargs: Any) -> Any:
        """A fresh DES debugger over the regime's program."""
        topology, processes = self.api.build_workload(
            self.regime.program, **self.regime.des_params)
        return self.api.attach_debugger(topology, processes, seed=self.seed,
                                        **kwargs)

    @property
    def horizon(self) -> float:
        """Virtual time of one probe run phase (about 10k events)."""
        return self.regime.des_horizon * (2 if self.sizes.quick else 10)


def per_call(rec: Recorder, metric: str, name: str, layer: str, loops: int,
             call: Callable[[], Any]) -> None:
    """Time ``loops`` calls under one span; one per-call sample."""
    with rec.span(name, layer):
        started = time.perf_counter()
        for _ in range(loops):
            call()
        rec.add(metric, (time.perf_counter() - started) / loops)


# -- simulation ------------------------------------------------------------------


def kernel_steps(ctx: Context) -> None:
    """The kernel alone, in its two modes, with 48 self-rescheduling
    callbacks always pending (E18's micro)."""
    steps = ctx.loops * 10

    def first_due(views: Any) -> int:
        best = views[0]
        for view in views:
            if (view.time, view.priority, view.tiebreak, view.sequence) < (
                    best.time, best.priority, best.tiebreak, best.sequence):
                best = view
        return best.sequence

    for metric, hook in (("simulation.free_step_us", None),
                         ("simulation.controlled_step_us", first_due)):
        for _ in range(3):
            kernel = ctx.api.SimulationKernel()

            def tick() -> None:
                kernel.schedule(1.0, tick)

            for index in range(48):
                kernel.schedule(float(index % 7), tick)
            if hook is not None:
                kernel.set_ordering(hook)
            for _ in range(200):
                kernel.step()
            per_call(ctx.rec, metric, metric, "simulation", steps, kernel.step)


# -- runtime / debugger / breakpoints / observe on the DES ---------------------------


def des_layers(ctx: Context) -> None:
    """The same program and virtual-time slice four ways: bare system,
    debug session, session with armed never-firing breakpoints, observed
    session. Read each per-event cost against the one before it."""
    api, rec, regime = ctx.api, ctx.rec, ctx.regime

    def bare() -> Any:
        topology, processes = api.build_workload(
            regime.program, **regime.des_params)
        return api.build_system(topology, processes, seed=ctx.seed)

    def armed() -> Any:
        session = ctx.des_session()
        for predicate in regime.never_predicates:
            session.set_breakpoint(predicate)
        return session

    def observed() -> Any:
        return ctx.des_session(observe=api.Observability())

    variants = (
        ("runtime.bare_event_us", "runtime", bare),
        ("debugger.session_event_us", "debugger", ctx.des_session),
        ("breakpoints.armed_event_us", "breakpoints", armed),
        ("_observed_event", "observe", observed),
    )
    events = {}
    for round_ in range(4):
        for metric, layer, build in variants:
            world = build()
            with rec.span(f"run ({metric})", layer):
                started = time.perf_counter()
                outcome = world.run(until=ctx.horizon)
                elapsed = time.perf_counter() - started
            events[metric] = getattr(outcome, "events_executed", outcome)
            if round_:  # the first round warms the interpreter's caches
                rec.add(metric, elapsed / events[metric])
    rec.check(
        events["_observed_event"] == events["debugger.session_event_us"],
        "observe: the observed run executed different events "
        f"({events['_observed_event']} vs "
        f"{events['debugger.session_event_us']})")
    rec.set("observe.des_wall_ratio",
            statistics.median(rec.samples["_observed_event"])
            / statistics.median(rec.samples["debugger.session_event_us"]))
    session = observed()
    session.run(until=ctx.horizon)
    session.halt()
    session.run()
    with rec.span("chrome_trace + metrics_text", "observe"):
        started = time.perf_counter()
        document = session.chrome_trace()
        text = session.metrics_text()
        rec.add("observe.export_ms", time.perf_counter() - started)
    rec.check(bool(document.get("traceEvents")) and bool(text),
              "observe: empty export")


def memento(ctx: Context) -> None:
    """Capture and restore of a live, mid-run DES world."""
    session = ctx.des_session()
    session.run(until=ctx.horizon / 5)
    for _ in range(5):
        snapshot = ctx.rec.timed("runtime.memento.capture_us", "capture",
                                 "runtime.memento", ctx.api.capture,
                                 session.system)
        session.run(until=session.system.kernel.now + ctx.horizon / 50)
        ctx.rec.timed("runtime.memento.restore_us", "restore",
                      "runtime.memento", snapshot.restore)
    ctx.rec.set("runtime.memento.ops", snapshot.ops)


# -- check ---------------------------------------------------------------------------


def checker_layers(ctx: Context) -> None:
    """One schedule's cost, piece by piece."""
    api, rec = ctx.api, ctx.rec
    scenario = api.scenarios()[ctx.regime.scenario]
    for _ in range(3):
        rec.timed("check.build_ms", "ExplorationEngine()", "check.engine",
                  api.ExplorationEngine, scenario)
    for _ in range(5):
        result = rec.timed("check.oneshot_schedule_ms", "run_schedule",
                           "check", api.run_schedule, scenario)
    rec.check(not result.violated and not result.inconclusive,
              "check: the default schedule did not pass")
    per_call(rec, "check.judge_us", "evaluate", "check.invariants",
             max(ctx.loops // 20, 5),
             lambda: api.evaluate(result.record, scenario.invariants))
    session = ctx.des_session()
    session.run(until=ctx.horizon / 5)
    per_call(rec, "check.fingerprint_us", "fingerprint_system",
             "check.fingerprint", max(ctx.loops // 20, 5),
             lambda: api.fingerprint_system(session.system))


def checker_variants(ctx: Context) -> None:
    """Ungated ways to use the checker: two workers, level order, and the
    threaded scheduling gate."""
    api, rec = ctx.api, ctx.rec
    scenario = api.scenarios()[ctx.regime.scenario]
    budget = max(20, int(ctx.regime.budget * ctx.sizes.budget_scale))

    def explore(**kwargs: Any) -> Tuple[Any, float]:
        label = ",".join(f"{k}={v}" for k, v in kwargs.items())
        with rec.span(f"explore_parallel({label})", "check.parallel"):
            started = time.perf_counter()
            report = api.explore_parallel(scenario, seed=ctx.seed, **kwargs)
            return report, time.perf_counter() - started

    one, one_s = explore(budget=budget, jobs=1)
    two, two_s = explore(budget=budget, jobs=2)
    rec.check(
        (two.schedules_run, two.distinct_states, two.found)
        == (one.schedules_run, one.distinct_states, one.found),
        f"check: -j 2 != -j 1: {two.summary()} vs {one.summary()}")
    rec.set("check.parallel.j2_ratio", one_s / two_s)
    level, level_s = explore(budget=budget, jobs=1, order="level")
    rec.check(not level.found, "check: level order convicted the stock scenario")
    rec.set("check.level_schedules_per_s", level.schedules_run / level_s)
    gate_scenario = api.scenarios()["token_ring"]
    gate_budget = 6 if ctx.sizes.quick else 60
    with rec.span("explore_parallel(backend=threaded)", "check.gate"):
        started = time.perf_counter()
        gated = api.explore_parallel(gate_scenario, budget=gate_budget,
                                     seed=ctx.seed, backend="threaded")
        elapsed = time.perf_counter() - started
    rec.check(not gated.found, "check: threaded gate convicted token_ring")
    rec.set("check.gate.threaded_schedules_per_s",
            gated.schedules_run / elapsed)


# -- codec and wire -----------------------------------------------------------------


def codec_and_wire(ctx: Context) -> None:
    """The wire's two halves on a small payload (one user message) and a
    large one (one state report), both harvested from the legs."""
    api, rec = ctx.api, ctx.rec
    payloads = (("user", rec.harvest.get("user_message")),
                ("state", rec.harvest.get("state_report")))
    left, right = socket.socketpair()
    left.settimeout(legs.CALL_TIMEOUT)
    right.settimeout(legs.CALL_TIMEOUT)
    try:
        for label, payload in payloads:
            if not rec.check(payload is not None,
                             f"codec: no {label} payload was harvested"):
                continue
            encoded = json.dumps(api.encode_payload(payload))
            rec.check(api.decode_payload(json.loads(encoded)) == payload,
                      f"codec: {label} payload does not round-trip")
            rec.set(f"util.codec.{label}_bytes"
                    if label == "state" else "util.codec.user_msg_bytes",
                    len(encoded.encode("utf-8")))
            per_call(rec, f"util.codec.encode_{label}_us", f"encode {label}",
                     "util.codec", ctx.loops,
                     lambda: json.dumps(api.encode_payload(payload)))
            per_call(rec, f"util.codec.decode_{label}_us", f"decode {label}",
                     "util.codec", ctx.loops,
                     lambda: api.decode_payload(json.loads(encoded)))
            frame = {"kind": label, "payload": api.encode_payload(payload)}

            def round_trip() -> None:
                api.send_frame(left, frame)
                api.recv_frame(right)

            per_call(rec, "distributed.wire.frame_rtt_us" if label == "user"
                     else "distributed.wire.frame_rtt_state_us",
                     f"send_frame+recv_frame {label}", "distributed.wire",
                     ctx.loops, round_trip)
    finally:
        left.close()
        right.close()


# -- the debug control plane ---------------------------------------------------------


def service(ctx: Context) -> None:
    """One request through the service in-process, over TCP, and the
    connect+attach handshake — against a held (never spawned) target."""
    api, rec = ctx.api, ctx.rec
    held = api.DebuggerService(api.HeldTarget(lambda: None))
    attached = held.handle({"op": "attach", "label": "probe"})
    rec.check(attached.get("ok") is True, f"service: attach said {attached}")
    ping = {"op": "ping", "session": attached.get("session")}
    rec.check(held.handle(ping).get("ok") is True, "service: ping refused")
    per_call(rec, "debugger.service.handle_us", "handle(ping)",
             "debugger.service", ctx.loops, lambda: held.handle(ping))
    with api.DebugServer(held, port=0) as server:
        with api.DebugClient(server.port, label="probe",
                             timeout=legs.CALL_TIMEOUT) as client:
            per_call(rec, "debugger.service.request_ms", "ping over TCP",
                     "debugger.service", ctx.loops // 10, client.ping)

        def attach() -> None:
            with api.DebugClient(server.port, label="probe",
                                 timeout=legs.CALL_TIMEOUT):
                pass

        per_call(rec, "debugger.service.attach_ms", "connect+attach+detach",
                 "debugger.service", ctx.loops // 10, attach)


# -- record / recovery ---------------------------------------------------------------


def record(ctx: Context) -> None:
    """Record a live run through the tap, replay it in the DES (must be
    FAITHFUL), and round-trip the artifact through the trace store. Always
    the ring program: a bank recording does not replay faithfully (its
    payloads depend on the interleaving; see README, findings)."""
    api, rec = ctx.api, ctx.rec
    frames = 40 if ctx.sizes.quick else 200
    ring = REGIMES["ring"]
    with rec.span("record_run", "record"):
        trace = api.record_run(ring.program, dict(ring.live_params),
                               seed=ctx.seed, min_frames=frames,
                               frames_timeout=legs.CALL_TIMEOUT,
                               halt_timeout=legs.CALL_TIMEOUT)
    report, result = rec.timed("record.replay_ms", "replay_trace",
                               "record.bridge", api.replay_trace, trace)
    rec.check(report.fidelity_ok and not result.violated,
              f"record: replay not FAITHFUL: {report.summary()}")
    path = os.path.join(ctx.scratch, "trace.json")
    with rec.span("save_trace + load_trace", "record.store"):
        started = time.perf_counter()
        api.save_trace(trace, path)
        loaded = api.load_trace(path)
        rec.add("record.store.save_load_ms", time.perf_counter() - started)
    rec.check(loaded.user_frame_count() == trace.user_frame_count(),
              "record: the stored trace lost frames")


def recovery(ctx: Context) -> None:
    """Checkpoint -> SIGKILL one member -> whole-cluster rollback."""
    api, rec = ctx.api, ctx.rec
    state = rec.harvest.get("live_state")
    if rec.check(state is not None, "recovery: no live cut was harvested"):
        store = api.CheckpointStore(os.path.join(ctx.scratch, "ckpt-probe"))
        with rec.span("CheckpointStore save + load", "recovery.checkpoint"):
            started = time.perf_counter()
            store.save(state)
            loaded = store.load(store.latest()[0])
            rec.add("recovery.checkpoint.save_load_ms",
                    time.perf_counter() - started)
        rec.check(set(loaded.processes) == set(state.processes),
                  "recovery: the stored checkpoint lost processes")
    for sample in range(1 if ctx.sizes.quick else 3):
        supervisor = api.ClusterSupervisor(
            ctx.regime.program, dict(ctx.regime.live_params),
            seed=ctx.seed + sample,
            store=os.path.join(ctx.scratch, f"ckpt-{sample}"))
        with supervisor:
            time.sleep(0.2)
            saved = supervisor.checkpoint(timeout=legs.CALL_TIMEOUT)
            rec.check(saved is not None, "recovery: checkpoint refused")
            victim = supervisor.session.spec.user_names[0]
            supervisor.session.kill(victim)
            event = rec.timed("recovery.recover_s", "recover",
                              "recovery.supervisor", supervisor.recover)
            rec.check(event.victims == (victim,),
                      f"recovery: victims {event.victims}")
            rec.add("recovery.teardown_s", event.teardown_s)
            rec.add("recovery.restart_s", event.restart_s)
            report = supervisor.session.halt_with_watchdog(
                timeout=legs.CALL_TIMEOUT)
            rec.check(report.complete,
                      "recovery: the recovered cluster does not halt")


# -- tracing's own cost ----------------------------------------------------------------


def trace_overhead(ctx: Context) -> None:
    """The DES leg is the one with the highest span rate; run one session
    of it with spans off and on (same seed: identical work), three pairs,
    and report the median ratio."""
    sizes = legs.Sizes(0.0, ctx.sizes.quick)
    ratios = []
    for _ in range(3):
        walls = {}
        for traced in (False, True):
            side = Recorder(traced=traced)
            started = time.perf_counter()
            legs.des_debug(ctx.api, ctx.regime, side, sizes, ctx.seed)
            walls[traced] = time.perf_counter() - started
            ctx.rec.check(side.failed == 0,
                          "trace_overhead: the DES leg failed ops")
        ratios.append(walls[True] / walls[False])
    ctx.rec.set("trace_overhead_ratio", statistics.median(ratios))


#: ``(probe, symbols it needs from the surface, metrics it gives)``.
PROBES: List[Tuple[Callable[[Context], None], Tuple[str, ...], Tuple[str, ...]]] = [
    (kernel_steps, ("SimulationKernel",),
     ("simulation.free_step_us", "simulation.controlled_step_us")),
    (des_layers, ("build_system", "Observability"),
     ("runtime.bare_event_us", "debugger.session_event_us",
      "breakpoints.armed_event_us", "observe.des_wall_ratio",
      "observe.export_ms")),
    (memento, ("capture",),
     ("runtime.memento.capture_us", "runtime.memento.restore_us",
      "runtime.memento.ops")),
    (checker_layers,
     ("ExplorationEngine", "run_schedule", "evaluate", "fingerprint_system"),
     ("check.build_ms", "check.oneshot_schedule_ms", "check.judge_us",
      "check.fingerprint_us")),
    (checker_variants, (),
     ("check.parallel.j2_ratio", "check.level_schedules_per_s",
      "check.gate.threaded_schedules_per_s")),
    (codec_and_wire,
     ("encode_payload", "decode_payload", "send_frame", "recv_frame"),
     ("util.codec.encode_user_us", "util.codec.decode_user_us",
      "util.codec.user_msg_bytes", "util.codec.encode_state_us",
      "util.codec.decode_state_us", "util.codec.state_bytes",
      "distributed.wire.frame_rtt_us", "distributed.wire.frame_rtt_state_us")),
    (service, (),
     ("debugger.service.handle_us", "debugger.service.request_ms",
      "debugger.service.attach_ms")),
    (record, ("record_run", "replay_trace", "save_trace", "load_trace"),
     ("record.replay_ms", "record.store.save_load_ms")),
    (recovery, ("CheckpointStore", "ClusterSupervisor"),
     ("recovery.checkpoint.save_load_ms", "recovery.recover_s",
      "recovery.teardown_s", "recovery.restart_s")),
    (trace_overhead, (), ("trace_overhead_ratio",)),
]


def run_probes(api: Any, regime: Any, rec: Recorder, sizes: Any, seed: int,
               scratch: str) -> None:
    """Run every probe whose symbols loaded; a probe that cannot run or
    raises leaves its metrics ``null``."""
    ctx = Context(api, regime, rec, sizes, seed, scratch)
    for probe, needs, gives in PROBES:
        absent = [name for name in needs if getattr(api, name) is None]
        if absent:
            for metric in gives:
                rec.set(metric, None)
            continue
        with rec.span(probe.__name__, "bench"):
            try:
                probe(ctx)
            except Exception as exc:  # a probe boundary must keep running
                traceback.print_exc()
                rec.check(False, f"probe {probe.__name__}: "
                                 f"{type(exc).__name__}: {exc}")
                for metric in gives:
                    rec.samples.pop(metric, None)
                    rec.set(metric, None)
