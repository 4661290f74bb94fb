"""The four legs of a run, one per surface of the tool, plus set-up.

Each leg is a closed loop of one client (this thread): the next verb is
issued when the previous one returned. A leg loops over its cycle until
its share of ``--seconds`` is spent, records one timing sample per verb
per cycle, and gates every result (:meth:`Recorder.check`): a wrong
answer is a failed op, never an exception and never a skipped sample.
Only public functions of ``repro`` are called, all through
:mod:`bench.surface`.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import subprocess
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from bench.harness import Recorder
from bench.spec import Regime
from bench.surface import ROOT

#: Ceiling on any single blocking call into the program (seconds).
CALL_TIMEOUT = 20.0

#: Share of ``--seconds`` each leg measures for.
SHARES = {"des": 0.08, "check": 0.17, "threaded": 0.20, "service": 0.05,
          "live": 0.25, "tapped": 0.25}


class Sizes:
    """Loop sizes: the defaults, or the tiny ``--quick`` ones."""

    def __init__(self, seconds: float, quick: bool) -> None:
        self.quick = quick
        self.seconds = seconds
        self.setup_starts = 2 if quick else 5
        self.des_cycles = 6 if quick else 40
        self.threaded_window = 0.1 if quick else 0.25
        self.live_window = 0.15 if quick else 0.4
        #: Fresh clusters per threaded / live / tapped leg. A cluster's
        #: message rate has a per-incarnation component (where its threads
        #: or processes happen to land) that more cycles cannot average
        #: out, so each leg splits its share over several incarnations.
        self.sessions = 1 if quick else 3
        self.min_cycles = 3
        self.min_repeats = 2
        self.convictions = 1 if quick else 12
        self.budget_scale = 0.1 if quick else 1.0

    def share(self, leg: str) -> float:
        return self.seconds * SHARES[leg]


# -- set-up ------------------------------------------------------------------------

_SETUP_CHILD = r"""
import sys, time
sys.path.insert(0, {root!r})
from bench import surface
from bench.spec import REGIMES
api = surface.load()
regime = REGIMES[{regime!r}]
topology, processes = api.build_workload(regime.program, **regime.des_params)
api.attach_debugger(topology, processes, seed={seed})
topology, processes = api.build_workload(regime.program, **regime.threaded_params)
threaded = api.ThreadedDebugSession(topology, processes, seed={seed})
threaded.start()
live = api.DistributedDebugSession(regime.program, dict(regime.live_params), seed={seed})
live.start()
print("ready", flush=True)
live.shutdown()
threaded.shutdown()
"""


def setup(regime: Regime, rec: Recorder, sizes: Sizes, seed: int) -> None:
    """``setup_s``: a cold child interpreter imports the tool, attaches a
    DES debugger, starts the threaded cluster, spawns the live cluster and
    waits for its rendezvous — the moment the first op on every surface is
    possible. Timed from spawn to the child's ``ready`` line; torn down
    outside the timing."""
    code = _SETUP_CHILD.format(root=ROOT, regime=regime.name, seed=seed)
    for _ in range(sizes.setup_starts):
        with rec.span("cold start", "setup"):
            started = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, "-c", code], stdout=subprocess.PIPE,
                cwd=ROOT, text=True,
            )
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - started
                child.wait(timeout=CALL_TIMEOUT)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait(timeout=CALL_TIMEOUT)
            finally:
                child.stdout.close()
        if rec.check(line.strip() == "ready" and child.returncode == 0,
                     f"setup child exit {child.returncode}, said {line!r}"):
            rec.add("setup_s", elapsed)


# -- the debug loop, shared by the three debug legs ---------------------------------


class Verbs(NamedTuple):
    """The five verbs of the paper's loop on one backend. ``halt`` returns
    True when every process verifiably halted, ``resume`` True when all
    run again; ``marker_total`` the halt markers sent so far (None where
    only a shut-down cluster knows)."""

    backend: str
    names: List[str]
    halt: Callable[[], bool]
    collect: Callable[[], Any]
    inspect: Callable[[str], Dict[str, object]]
    step: Callable[[str], Any]
    resume: Callable[[], bool]
    marker_total: Callable[[], Optional[int]]
    channels: int


def debug_cycle(api: Any, regime: Regime, rec: Recorder, verbs: Verbs,
                cycle: int) -> Any:
    """halt -> collect -> inspect -> step -> resume, each timed and gated.
    Returns the collected cut (None when the halt failed)."""
    tag = verbs.backend
    target = verbs.names[cycle % len(verbs.names)]
    markers = verbs.marker_total()
    halted = rec.timed(f"halt_ms.{tag}", "halt", "halting", verbs.halt)
    if not rec.check(halted, f"{tag}: incomplete halt report, cycle {cycle}"):
        return None
    if markers is not None:
        sent = verbs.marker_total() - markers
        rec.add(f"halting.markers_per_halt.{tag}", sent)
        rec.check(sent == verbs.channels,
                  f"{tag}: {sent} halt markers != {verbs.channels} channels")
    state = rec.timed(f"collect_ms.{tag}", "collect", "debugger",
                      verbs.collect)
    broken = regime.conserved(api, state, len(verbs.names))
    rec.check(broken is None, f"{tag}: conservation broken at cut: {broken}")
    rec.check(all(c.complete for c in state.channels.values()),
              f"{tag}: cut has an unclosed channel, cycle {cycle}")
    view = rec.timed(f"debugger.inspect_ms.{tag}", "inspect", "debugger",
                     verbs.inspect, target)
    rec.check(view == dict(state.processes[target].state),
              f"{tag}: inspect({target}) disagrees with the cut")
    report = rec.timed(f"step_ms.{tag}", "step", "debugger",
                       verbs.step, target)
    rec.check(report.process == target, f"{tag}: step report for wrong process")
    resumed = rec.timed(f"resume_ms.{tag}", "resume", "debugger",
                        verbs.resume)
    rec.check(resumed, f"{tag}: resume not confirmed, cycle {cycle}")
    return state


# -- leg 1: the DES debug loop -----------------------------------------------------


def des_debug(api: Any, regime: Regime, rec: Recorder, sizes: Sizes,
              seed: int) -> None:
    """Fresh sessions of ``des_cycles`` cycles: run a slice of virtual
    time, then the debug cycle. One linked-predicate breakpoint hit per
    session; the consistency oracle on the first, middle and last cycle
    only, outside the timed verbs (it is O(log of the run))."""
    deadline = time.perf_counter() + sizes.share("des")
    sessions = 0
    hits = 0
    while sessions == 0 or time.perf_counter() < deadline:
        topology, processes = api.build_workload(
            regime.program, **regime.des_params)
        session = rec.timed(None, "attach_debugger", "debugger",
                            api.attach_debugger, topology, processes,
                            seed=seed + sessions)
        system = session.system
        names = list(system.user_process_names)

        def halt() -> bool:
            session.halt()
            return session.run().stopped

        def resume() -> bool:
            session.resume()
            return not any(system.controller(n).halted for n in names)

        verbs = Verbs(
            "des", names, halt, session.global_state, session.inspect,
            session.step, resume,
            lambda: system.message_totals().get("halt_marker", 0),
            len(system.topology.channels),
        )
        session.set_breakpoint(regime.des_breakpoint)
        outcome = rec.timed(None, "run to breakpoint", "breakpoints",
                            session.run)
        rec.check(outcome.stopped and len(outcome.hits) == 1,
                  f"des: breakpoint halt stopped={outcome.stopped} "
                  f"hits={len(outcome.hits)}")
        hits += len(outcome.hits)
        now = session.resume().time
        for cycle in range(sizes.des_cycles):
            with rec.span("run", "simulation"):
                started = time.perf_counter()
                outcome = session.run(until=now + regime.des_horizon)
                elapsed = time.perf_counter() - started
            rec.add("events_per_s", outcome.events_executed / elapsed)
            rec.check(not outcome.stopped, "des: run phase ended halted")
            before = outcome.time
            state = debug_cycle(api, regime, rec, verbs, cycle)
            now = system.kernel.now
            if sessions == 0 and cycle == 0:
                # The algorithm's own latency, immune to host speed.
                rec.set("halting.des_halt_sim_time",
                        _sim_halt_time(session, before))
            if state is not None and cycle in (
                    0, sizes.des_cycles // 2, sizes.des_cycles - 1):
                with rec.span("check_cut_consistency", "analysis"):
                    started = time.perf_counter()
                    verdict = api.check_cut_consistency(system.log, state)
                    elapsed = time.perf_counter() - started
                rec.check(bool(verdict), f"des: inconsistent cut: {verdict}")
                rec.add("analysis.consistency_ms_per_kevent",
                        elapsed / (len(system.log.events) / 1000.0))
        sessions += 1
    rec.set("breakpoints.hits", hits / sessions)


def _sim_halt_time(session: Any, initiated_at: float) -> float:
    """Virtual time between the halt's initiation and the last process's
    halt notification of the current generation."""
    generation = session.current_generation()
    return max(
        note.time for note in session.agent.halt_notifications
        if note.halt_id == generation
    ) - initiated_at


# -- leg 2: the checker -------------------------------------------------------------


def check_explore(api: Any, regime: Regime, rec: Recorder, sizes: Sizes,
                  seed: int, scratch: str) -> None:
    """Repeat one exploration of the regime's scenario (same seed: the
    counts must repeat exactly), then convict the two stock mutants
    through the real CLI: explore -> minimize -> artifact -> replay."""
    scenario = api.scenarios()[regime.scenario]
    budget = max(20, int(regime.budget * sizes.budget_scale))
    deadline = time.perf_counter() + sizes.share("check")
    first: Optional[Dict[str, Any]] = None
    repeats = 0
    while repeats < sizes.min_repeats or time.perf_counter() < deadline:
        with rec.span(f"explore_parallel({scenario.name})", "check"):
            started = time.perf_counter()
            report = api.explore_parallel(
                scenario, budget=budget, seed=seed, jobs=1)
            elapsed = time.perf_counter() - started
        rec.add("schedules_per_s", report.schedules_run / elapsed)
        rec.check(not report.found,
                  f"check: stock {scenario.name} convicted at seed {seed}")
        counts = exploration_counts(report)
        if first is None:
            first = counts
        rec.check(counts == first,
                  f"check: exploration counts differ between repeats: "
                  f"{counts} != {first}")
        repeats += 1
    for name, value in first.items():
        rec.set(name, value)
    for round_ in range(sizes.convictions):
        elapsed = 0.0
        for mutant in ("late-halt", "skip-forward"):
            elapsed += convict(api, rec, mutant, seed + round_, scratch)
        rec.add("convict_ms", elapsed / 2)


def exploration_counts(report: Any) -> Dict[str, float]:
    """The exact-repeat counters of one exploration report."""
    engine = report.engine
    counts = {f"check.engine.{key}": engine[key] for key in (
        "root_restores", "snapshot_restores", "snapshot_captures",
        "snapshot_evictions", "replayed_decisions", "shard_hits", "twin_runs",
    )}
    counts["check.schedules_run"] = report.schedules_run
    counts["check.distinct_states"] = report.distinct_states
    counts["check.deduped_nodes"] = report.deduped_nodes
    counts["check.leases"] = report.leases
    restores = engine["snapshot_restores"] + engine["root_restores"]
    counts["check.snapshot_hit_ratio"] = (
        engine["snapshot_restores"] / restores if restores else 0.0)
    return counts


def convict(api: Any, rec: Recorder, mutant: str, seed: int,
            scratch: str) -> float:
    """One conviction through ``check_main``; returns its seconds."""
    artifact = os.path.join(scratch, f"convict-{mutant}.json")
    sink = io.StringIO()
    with rec.span(f"convict {mutant}", "check"):
        started = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with rec.span("explore+minimize+artifact", "check"):
                convicted = api.check_main([
                    "token_ring", "--mutate", mutant, "--seed", str(seed),
                    "--artifact", artifact])
            minimized = time.perf_counter()
            with rec.span("replay", "check"):
                replayed = api.check_main(["--replay", artifact])
        ended = time.perf_counter()
    rec.check(convicted == 1, f"check: mutant {mutant} not convicted "
                              f"(exit {convicted}) at seed {seed}")
    rec.check(replayed == 0, f"check: --replay of {mutant} artifact "
                             f"exit {replayed}")
    rec.add("check.minimize_ms", minimized - started)
    rec.add("check.replay_ms", ended - minimized)
    if os.path.exists(artifact):
        rec.add("check.artifact_bytes", os.path.getsize(artifact))
    return ended - started


# -- leg 3: real threads --------------------------------------------------------------


def live_cycles(api: Any, regime: Regime, rec: Recorder, verbs: Verbs,
                rate_metric: str, window: float, deadline: float,
                min_cycles: int) -> None:
    """Traffic window -> debug cycle, until the deadline. The user-message
    rate is Δprogress between consecutive consistent cuts over the wall
    time the program ran between them (resume returned -> next halt
    initiated): public state only, no child-side counters."""
    last_progress: Optional[int] = None
    ran_from = 0.0
    cycle = 0
    while cycle < min_cycles or time.perf_counter() < deadline:
        time.sleep(window)
        halted_at = time.perf_counter()
        state = debug_cycle(api, regime, rec, verbs, cycle)
        cycle += 1
        if state is None:
            last_progress = None
            continue
        rec.harvest["live_state"] = state
        for channel in state.channels.values():
            if channel.messages:
                rec.harvest.setdefault("user_message", channel.messages[0])
        progress = regime.progress(state)
        if last_progress is not None:
            rec.add(rate_metric,
                    (progress - last_progress) / (halted_at - ran_from))
        last_progress, ran_from = progress, time.perf_counter()


def threaded_session(api: Any, regime: Regime, seed: int) -> Any:
    topology, processes = api.build_workload(
        regime.program, **regime.threaded_params)
    return api.ThreadedDebugSession(topology, processes, seed=seed,
                                    time_scale=0.02)


def threaded_debug(api: Any, regime: Regime, rec: Recorder, sizes: Sizes,
                   seed: int) -> None:
    """The debug loop on OS threads inside this interpreter, over
    ``sizes.sessions`` fresh clusters."""
    for index in range(sizes.sessions):
        threaded_cluster(api, regime, rec, sizes, seed + index,
                         sizes.share("threaded") / sizes.sessions)


def threaded_cluster(api: Any, regime: Regime, rec: Recorder, sizes: Sizes,
                     seed: int, seconds: float) -> None:
    session = threaded_session(api, regime, seed)
    system = session.system
    names = list(system.user_process_names)
    verbs = Verbs(
        "threaded", names,
        lambda: session.halt_with_watchdog(timeout=CALL_TIMEOUT).complete,
        lambda: session.global_state(timeout=CALL_TIMEOUT),
        lambda name: session.inspect(name, timeout=CALL_TIMEOUT),
        lambda name: session.step(name, timeout=CALL_TIMEOUT),
        lambda: session.resume(timeout=CALL_TIMEOUT),
        lambda: system.message_totals().get("halt_marker", 0),
        len(system.topology.channels),
    )
    with session:
        live_cycles(api, regime, rec, verbs, "user_msgs_per_s.threaded",
                    sizes.threaded_window, time.perf_counter() + seconds,
                    sizes.min_cycles)
        # Harvest one wire-shaped state report for the codec probes.
        reports = list(session.agent.state_reports.values())
        rec.harvest["state_report"] = reports[-1] if reports else None


def debug_service(api: Any, regime: Regime, rec: Recorder, sizes: Sizes,
                  seed: int) -> None:
    """The control plane: ``break-set`` of an already-reachable predicate
    -> ``wait-halt`` -> ``resume`` over TCP against a held threaded
    cluster, with one idle bystander session attached."""

    def factory() -> Any:
        session = threaded_session(api, regime, seed)
        session.start()
        return api.ThreadedSurface(session)

    server = api.DebugServer(api.DebuggerService(api.HeldTarget(factory)),
                             port=0)
    members = regime.threaded_params["n"]
    deadline = time.perf_counter() + sizes.share("service")
    with server:
        try:
            with api.DebugClient(server.port, label="idle", timeout=CALL_TIMEOUT), \
                    api.DebugClient(server.port, label="driver",
                                    timeout=CALL_TIMEOUT) as driver:
                rec.check(driver.request("spawn").get("spawned") is True,
                          "service: spawn refused")
                rounds = 0
                while rounds < sizes.min_cycles or time.perf_counter() < deadline:
                    time.sleep(0.02)
                    with rec.span("break-set -> wait-halt", "debugger.service"):
                        started = time.perf_counter()
                        armed = driver.request(
                            "break-set", predicate=regime.live_breakpoint)
                        halted = driver.request("wait-halt",
                                                timeout=CALL_TIMEOUT)
                        elapsed = time.perf_counter() - started
                    ok = (armed.get("state") == "armed"
                          and halted.get("stopped") is True
                          and len(halted.get("halted", ())) == members)
                    if rec.check(ok, f"service: break-set/wait-halt said "
                                     f"{armed} / {halted}"):
                        rec.add("break_to_halt_ms", elapsed)
                    reply = rec.timed(None, "resume", "debugger.service",
                                      driver.request, "resume")
                    rec.check(reply.get("resumed") is True,
                              f"service: resume said {reply}")
                    rounds += 1
        finally:
            surface = server.service.target.surface()
            if surface is not None:
                surface.shutdown()


# -- leg 4: OS processes over TCP ----------------------------------------------------


def live_debug(api: Any, regime: Regime, rec: Recorder, sizes: Sizes,
               seed: int, tapped: bool) -> None:
    """The debug loop against one OS process per user process, over
    ``sizes.sessions`` fresh clusters. With ``tapped`` the recorder's
    observe-mode proxy sits on every user channel (one extra loopback hop
    per frame), and only the rate is kept: the verbs ride the control
    channels, which are never staged."""
    share = sizes.share("tapped" if tapped else "live")
    for index in range(sizes.sessions):
        live_cluster(api, regime, rec, sizes, seed + index,
                     share / sizes.sessions, tapped)


def live_cluster(api: Any, regime: Regime, rec: Recorder, sizes: Sizes,
                 seed: int, seconds: float, tapped: bool) -> None:
    recorder = api.FrameRecorder() if tapped else None
    started = time.perf_counter()
    session = api.DistributedDebugSession(
        regime.program, dict(regime.live_params), seed=seed,
        frame_stager=recorder.stager if recorder else None)
    names = list(session.spec.user_names)
    verbs = Verbs(
        "tapped" if tapped else "live", names,
        lambda: session.halt_with_watchdog(timeout=CALL_TIMEOUT).complete,
        lambda: session.collect_global_state(timeout=CALL_TIMEOUT),
        lambda name: session.inspect(name, timeout=CALL_TIMEOUT),
        lambda name: session.step(name, timeout=CALL_TIMEOUT),
        lambda: session.resume(timeout=CALL_TIMEOUT),
        lambda: None,
        len(session.spec.channels),
    )
    halts_before = len(rec.samples.get(f"halt_ms.{verbs.backend}", ()))
    try:
        with session:
            rec.add("distributed.spawn_s", time.perf_counter() - started)
            live_cycles(
                api, regime, rec, verbs,
                "tapped_msgs_per_s" if tapped else "user_msgs_per_s.live",
                sizes.live_window, time.perf_counter() + seconds,
                sizes.min_cycles)
            if tapped:
                rec.check(recorder.frame_count() > 0,
                          "tapped: the recorder saw no frame")
        # Child-side totals are complete only after shutdown.
        halts = len(rec.samples[f"halt_ms.{verbs.backend}"]) - halts_before
        markers = session.cluster_message_totals().get("halt_marker", 0)
        if rec.check(halts > 0 and markers == halts * verbs.channels,
                     f"{verbs.backend}: {markers} halt markers over {halts} "
                     f"halts != {verbs.channels} channels each"):
            rec.set(f"halting.markers_per_halt.{verbs.backend}",
                    markers / halts)
    finally:
        if recorder is not None:
            recorder.close()
        session.shutdown()


def run_legs(api: Any, regime: Regime, rec: Recorder, sizes: Sizes,
             seed: int, scratch: str) -> None:
    """All legs in a fixed order, garbage collected between them."""
    legs = (
        ("setup", lambda: setup(regime, rec, sizes, seed)),
        ("des_debug", lambda: des_debug(api, regime, rec, sizes, seed)),
        ("check_explore",
         lambda: check_explore(api, regime, rec, sizes, seed, scratch)),
        ("threaded_debug",
         lambda: threaded_debug(api, regime, rec, sizes, seed)),
        ("debug_service", lambda: debug_service(api, regime, rec, sizes, seed)),
        ("live_debug",
         lambda: live_debug(api, regime, rec, sizes, seed, tapped=False)),
        ("live_debug_tapped",
         lambda: live_debug(api, regime, rec, sizes, seed, tapped=True)),
    )
    for name, leg in legs:
        gc.collect()
        with rec.span(name, "bench"):
            try:
                leg()
            except Exception as exc:  # a leg boundary must keep running
                traceback.print_exc()
                rec.check(False, f"{name}: {type(exc).__name__}: {exc}")
