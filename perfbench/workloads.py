"""The four benchmark workloads.

Each workload turns a seed into pre-generated inputs (:meth:`prepare`),
builds the program cold (:meth:`setup`, the timed set-up), drives it
for a number of seconds (:meth:`measure`, the timed region) and then
checks every output it produced (:meth:`check`, outside the timed
region). Every failed check is one failure string.

The timed region is cut into windows, fixed units of work; a
calibration loop runs between windows (see ``harness.Calibration``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List

from harness import Calibration, Patches, now

from repro import telemetry
from repro.apps import ct_firewall, firewall, router, toy_counter
from repro.core import vhdl
from repro.core.cache import compile_cached
from repro.ebpf.isa import Program
from repro.ebpf.maps import MapSet
from repro.ebpf.vm import Vm
from repro.hwsim.engines import compare_runs, run_engine
from repro.hwsim.multi import MultiProgramNic
from repro.hwsim.shell import ShellConfig
from repro.hwsim.sim import PipelineSimulator, SimOptions
from repro.net.flows import flow_at
from repro.net.pcap import write_pcap
from repro.rtl import RtlRunner, run_three_way
from repro.serve import (FeedSpec, NicDaemon, ProgramSpec, ServeConfig,
                         segmented_replay, verify_replay)
from repro.workloads import make_workload, parse_workload_spec

BATCH = 256            # frames per batch (serve batch size, stream pacing)
FLOWS = 1_000_000      # flow population of every generated trace
ALLOW_FLOWS = 4096     # firewall allow-list: the hottest flow_at ranks
SHELL = ShellConfig()  # NicSystem constants: 250 MHz, 840 ns shell
FW_SLOT = 1            # serve-swap slot order: toy_counter, firewall


def versioned(program: Program, tag: str) -> Program:
    """The same program under a new name: a new compile-cache key and
    new generated source, so nothing compiled earlier is reused."""
    return Program(list(program.instructions), dict(program.maps),
                   name=f"{program.name}_{tag}")


def generate(spec: str) -> List[bytes]:
    return make_workload(parse_workload_spec(spec)).materialize()


def report_key(report) -> Dict[str, Any]:
    """The exact, order-independent outputs of one simulator run."""
    return {
        "packets_out": report.packets_out,
        "dropped_queue": report.packets_dropped_queue,
        "cycles": report.cycles,
        "stall_cycles": report.stall_cycles,
        "flush_events": report.flush_events,
        "squashed": report.squashed_packets,
        "sum_total_cycles": report.sum_total_cycles,
        "actions": {a.name: n for a, n in sorted(report.action_counts.items())},
    }


def exact_of(report) -> Dict[str, float]:
    """Cycle counts, modelled throughput and NicSystem-style latency."""
    return {
        "cycles": report.cycles,
        "cycles_per_pkt": report.cycles / report.packets_out,
        "stall_cycles": report.stall_cycles,
        "flush_events": report.flush_events,
        "model_mpps": report.throughput_mpps,
        "model_latency_ns": report.latency_ns(SHELL.shell_latency_ns),
    }


def shares(actions: Dict[str, int]) -> Dict[str, float]:
    total = sum(actions.values())
    return {name: count / total for name, count in actions.items()} \
        if total else {}


def check_split(fails: List[str], actions: Dict[str, int]) -> float:
    """The firewall's allow-list holds the hottest 4096 of 1M Zipf flows:
    about 62% of packets hit it (TX), the rest DROP."""
    split = shares(actions)
    if set(split) != {"TX", "DROP"} or not 0.52 <= split["TX"] <= 0.72:
        fails.append(f"verdict split {split} is not ~62% TX / 38% DROP")
    return split.get("TX", 0.0)


@dataclass
class Window:
    """One fixed unit of timed work."""

    verdicts: int              # packets that got a verdict
    seconds: float             # host seconds
    batches: List[float]       # host seconds of each batch inside it
    scale: float               # reference-host seconds per host second


@dataclass
class Pass:
    """What one measured pass produced."""

    windows: List[Window] = field(default_factory=list)
    offered: int = 0           # frames handed to the program
    control_ops: int = 0
    failures: List[str] = field(default_factory=list)
    hw_packets: int = 0        # verdicts from the pipeline simulator
    hw_cycles: int = 0         # cycles it simulated
    rtl_cycles: int = 0
    exact: Dict[str, float] = field(default_factory=dict)
    context: Dict[str, Any] = field(default_factory=dict)
    serve: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def timed_s(self) -> float:
        return sum(w.seconds for w in self.windows)

    @property
    def verdicts(self) -> int:
        return sum(w.verdicts for w in self.windows)


class Workload:
    name = ""
    telemetry = False       # registry state of the measured passes
    pool_reloads = 0        # compile-cache hits expected from warm_cache

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self, tag: str):
        raise NotImplementedError

    def measure(self, ready, seconds: float) -> Pass:
        raise NotImplementedError

    def check(self, ready, result: Pass) -> None:
        raise NotImplementedError


class StreamZipf(Workload):
    """Firewall on codegen at line rate: the hazard-free _STREAM path.

    A window is one pass over the 32768-frame trace through one
    persistent simulator; a batch is 256 consecutive frames of it.
    """

    name = "stream-zipf"
    frames_per_round = 32768

    def prepare(self) -> None:
        self.frames = generate(
            f"udp-zipf:flows={FLOWS},packets={self.frames_per_round},"
            f"seed={self.seed}")
        self.allow = [firewall.flow_key(flow_at(rank))
                      for rank in range(ALLOW_FLOWS)]
        self._reference = None

    def install(self, maps: MapSet) -> None:
        flows = maps.by_name("flows")
        for key in self.allow:
            flows.update(key, bytes(8))

    def setup(self, tag: str):
        program = versioned(firewall.build(), tag)
        pipeline = compile_cached(program)
        sim = PipelineSimulator(
            pipeline, maps=MapSet(program.maps),
            options=SimOptions(engine="codegen", keep_records=False))
        return program, pipeline, sim

    def measure(self, ready, seconds: float) -> Pass:
        _program, _pipeline, sim = ready
        self.install(sim.maps)
        result = Pass()
        frames = self.frames
        rounds: List[Dict[str, Any]] = []

        def paced(stamps: List[float]):
            for i in range(0, len(frames), BATCH):
                stamps.append(now())
                yield from frames[i:i + BATCH]

        calibration = Calibration()
        while result.timed_s < seconds:
            stamps: List[float] = []
            start = now()
            report = sim.run_stream(paced(stamps), gap=1)
            end = now()
            stamps.append(end)
            result.windows.append(Window(
                report.packets_out, end - start,
                [b - a for a, b in zip(stamps, stamps[1:])],
                calibration.tick()))
            result.offered += len(frames)
            result.hw_packets += report.packets_out
            result.hw_cycles += report.cycles
            rounds.append(report_key(report))
        result.context["rounds"] = rounds
        return result

    def reference(self, program, pipeline):
        if self._reference is None:
            self._reference = {
                engine: run_engine(engine, program, self.frames,
                                   pipeline=pipeline, setup=self.install)
                for engine in ("codegen", "vm", "interpreted")
            }
        return self._reference

    def check(self, ready, result: Pass) -> None:
        program, pipeline, sim = ready
        ref = self.reference(program, pipeline)
        fails = result.failures
        fails += compare_runs(ref["codegen"], ref["vm"])
        fails += compare_runs(ref["codegen"], ref["interpreted"])
        expected = report_key(ref["codegen"].report)
        rounds = result.context.pop("rounds")
        for index, got in enumerate(rounds):
            if got != expected:
                fails.append(f"round {index}: {got} != reference {expected}")
        # Allow-list counters grow by the same amount every round.
        fd = sim.maps.fd_of("flows")
        want = {key: (len(rounds) * int.from_bytes(value, "little"))
                .to_bytes(8, "little")
                for key, value in ref["vm"].map_items[fd].items()}
        if dict(sim.maps[fd].items()) != want:
            fails.append("final flows map differs from the vm reference")
        result.context.update(
            hit_share=check_split(fails, expected["actions"]),
            modelled_loss=expected["dropped_queue"] / len(self.frames))
        result.exact = exact_of(ref["codegen"].report)


class WindowedChurn(Workload):
    """ct_firewall on codegen at line rate: the generic cycle loop with a
    serialization window over the LRU conntrack stages.

    A window (and a batch) is one 20000-frame line-rate burst through a
    fresh simulator whose conntrack table starts full, so every burst
    does the same work and its outputs can be checked exactly.
    """

    name = "windowed-churn"
    frames_per_round = 20000

    def prepare(self) -> None:
        self.frames = generate(
            f"flow-churn:flows={FLOWS},packets={self.frames_per_round},"
            f"churn=0.05,seed={self.seed}")
        entries = ct_firewall.CONNTRACK_MAP.max_entries
        # A full table in steady state: hottest ranks most recently used.
        self.prefill = [ct_firewall.conntrack_key(flow_at(rank))
                        for rank in reversed(range(entries))]
        self._reference = None

    def install(self, maps: MapSet) -> MapSet:
        table = maps.by_name("conntrack")
        for key in self.prefill:
            table.update(key, bytes(8))
        return maps

    def setup(self, tag: str):
        program = versioned(ct_firewall.build(), tag)
        pipeline = compile_cached(program)
        sim = PipelineSimulator(
            pipeline, maps=MapSet(program.maps),
            options=SimOptions(engine="codegen", keep_records=False))
        return program, pipeline, sim

    def measure(self, ready, seconds: float) -> Pass:
        _program, pipeline, sim = ready
        result = Pass()
        rounds = []
        calibration = Calibration()
        while result.timed_s < seconds:
            if rounds:
                sim = PipelineSimulator(pipeline, maps=MapSet(
                    pipeline.program.maps), options=sim.options)
            self.install(sim.maps)
            start = now()
            report = sim.run_packets(self.frames, gap=1)
            end = now()
            result.windows.append(Window(report.packets_out, end - start,
                                         [end - start], calibration.tick()))
            result.offered += len(self.frames)
            result.hw_packets += report.packets_out
            result.hw_cycles += report.cycles
            table = sim.maps.by_name("conntrack")
            rounds.append((report_key(report), table.evictions,
                           hash(tuple(table.items()))))
        result.context["rounds"] = rounds
        return result

    def reference(self, program, pipeline):
        if self._reference is None:
            maps: Dict[str, MapSet] = {}
            runs = {}
            for engine in ("codegen", "interpreted"):
                def keep(leg_maps, engine=engine):
                    maps[engine] = self.install(leg_maps)
                runs[engine] = run_engine(engine, program, self.frames,
                                          pipeline=pipeline, setup=keep)
            self._reference = runs, maps
        return self._reference

    def check(self, ready, result: Pass) -> None:
        program, pipeline, _sim = ready
        runs, maps = self.reference(program, pipeline)
        fails = result.failures
        codegen = runs["codegen"]
        fails += compare_runs(codegen, runs["interpreted"])
        tables = {e: m.by_name("conntrack") for e, m in maps.items()}
        if tables["codegen"].lru_keys() != tables["interpreted"].lru_keys():
            fails.append("LRU order: codegen != interpreted")
        # The VM sees exactly the frames the modelled queue admitted, in
        # order. Pids number admitted frames only; at gap 1 a record's
        # arrival cycle is its frame's index in the burst.
        vm_maps = self.install(MapSet(program.maps))
        vm = Vm(program, maps=vm_maps)
        for rec in sorted(codegen.report.records, key=lambda r: r.pid):
            out = vm.run(self.frames[rec.arrival_cycle])
            if out.action != rec.action or out.packet != bytes(rec.data):
                fails.append(f"frame {rec.arrival_cycle}: vm {out.action!r}"
                             f" != codegen {rec.action!r} (or bytes differ)")
        vm_table = vm_maps.by_name("conntrack")
        if list(vm_table.items()) != list(tables["codegen"].items()):
            fails.append("final conntrack (LRU order) differs from vm")
        key = report_key(codegen.report)
        evictions = tables["codegen"].evictions
        expected = (key, evictions, hash(tuple(tables["codegen"].items())))
        rounds = result.context.pop("rounds")
        for index, got in enumerate(rounds):
            if got != expected:
                fails.append(f"round {index}: {got[:2]} != reference "
                             f"{expected[:2]} (or final table differs)")
        loss = key["dropped_queue"] / len(self.frames)
        if set(key["actions"]) != {"TX"}:
            fails.append(f"verdicts {key['actions']} are not all TX")
        if not 0.6 <= loss <= 0.9:
            fails.append(f"modelled queue loss {loss:.3f} is not ~75%")
        if not 0 < evictions < key["packets_out"]:
            fails.append(f"{evictions} LRU evictions for "
                         f"{key['packets_out']} packets: no learn/evict mix")
        result.context.update(
            hit_share=1 - evictions / key["packets_out"], modelled_loss=loss)
        result.exact = dict(exact_of(codegen.report), lru_evictions=evictions)


# bpf_ktime_get_ns reads the same on every leg, as in repro.rtl.diff.
FROZEN_CLOCK_MHZ = 1e9
ROUTE = (b"\x02\x00\x00\x00\x00\x01", b"\x02\x00\x00\x00\x00\x02", 3)


class Verify3Way(Workload):
    """vm, codegen pipeline and compiled RTL legs on the router.

    A batch is 256 frames run through all three legs and compared; a
    window is four batches.
    """

    name = "verify-3way"
    trace_frames = 32768
    check_frames = 512
    window_batches = 4

    def prepare(self) -> None:
        self.frames = generate(
            f"udp-zipf:flows={FLOWS},packets={self.trace_frames},"
            f"seed={self.seed}")

    @staticmethod
    def install(maps: MapSet) -> MapSet:
        # Every flow_at destination sits in one /24: one route covers all.
        router.add_route(maps, flow_at(0).dst_ip, *ROUTE)
        return maps

    def setup(self, tag: str):
        program = versioned(router.build(), tag)
        pipeline = compile_cached(program)
        text = vhdl.emit_vhdl(pipeline)
        legs = [self.install(MapSet(program.maps)) for _ in range(3)]
        vm = Vm(program, maps=legs[0])
        hw = PipelineSimulator(
            pipeline, maps=legs[1],
            options=SimOptions(clock_mhz=FROZEN_CLOCK_MHZ, engine="codegen"))
        rtl = RtlRunner(pipeline, maps=legs[2], text=text, engine="rtl")
        return program, pipeline, vm, hw, rtl

    def verify_batch(self, ready, batch: List[bytes], first: int,
                     result: Pass) -> None:
        _program, pipeline, vm, hw, rtl = ready
        gap = pipeline.n_stages + 2
        vm_out = [vm.run(frame) for frame in batch]
        hw_report = hw.run_packets(batch, gap=gap)
        rtl_report = rtl.run_packets(batch, gap=gap)
        for leg, report in (("hw", hw_report), ("rtl", rtl_report)):
            by_pid = {rec.pid: rec for rec in report.records}
            for pid, ref in enumerate(vm_out):
                rec = by_pid.get(pid)
                if rec is None or rec.action != ref.action \
                        or bytes(rec.data) != ref.packet:
                    result.failures.append(
                        f"{leg} packet {first + pid} differs from vm")
        actions = result.context["actions"]
        for out in vm_out:
            actions[out.action.name] = actions.get(out.action.name, 0) + 1
        result.hw_packets += hw_report.packets_out
        result.hw_cycles += hw_report.cycles
        result.rtl_cycles += rtl_report.cycles
        if not result.exact:
            result.exact = {key: getattr(hw_report, key) for key in
                            ("cycles", "stall_cycles", "flush_events")}

    def measure(self, ready, seconds: float) -> Pass:
        frames = self.frames
        result = Pass(context={"actions": {}})
        calibration = Calibration()
        offset = 0
        while result.timed_s < seconds:
            batches = []
            for _ in range(self.window_batches):
                batch = frames[offset:offset + BATCH]
                start = now()
                self.verify_batch(ready, batch, result.offered, result)
                batches.append(now() - start)
                result.offered += len(batch)
                offset = (offset + BATCH) % len(frames)
            result.windows.append(Window(
                self.window_batches * BATCH, sum(batches), batches,
                calibration.tick()))
        return result

    def check(self, ready, result: Pass) -> None:
        program, pipeline, vm, hw, rtl = ready
        fails = result.failures
        if rtl.engine != "rtl":
            fails.append("RTL leg fell back to the interpreter")
        for fd in vm.maps:
            want = dict(vm.maps[fd].items())
            for leg, maps in (("hw", hw.maps), ("rtl", rtl.maps)):
                if dict(maps[fd].items()) != want:
                    fails.append(f"{leg} map fd {fd} differs from vm")
        official = run_three_way(
            program, self.frames[:self.check_frames], pipeline=pipeline,
            setup=self.install, engine="codegen")
        fails += [str(m) for m in official.mismatches]
        actions = result.context["actions"]
        if set(actions) != {"REDIRECT"}:
            fails.append(f"verdicts {actions} are not all REDIRECT")
        if router.routed_count(vm.maps) != result.verdicts:
            fails.append("stats counter != packets routed")
        result.context.update(hit_share=shares(actions).get("REDIRECT", 0.0),
                              modelled_loss=0.0)


class ServeSwap(Workload):
    """A two-slot NicDaemon serving a pcap feed while the firewall slot
    is hot-swapped to a newly compiled version every 64 batches.

    A batch is one 256-frame daemon batch; a window is the 64 batches
    from one swap boundary to the next, swap included.
    """

    name = "serve-swap"
    telemetry = True            # as `repro serve --metrics-out` runs
    pool_reloads = 2            # warm_cache compiles both slots in a pool
    unique_frames = 131072
    feed_rate = 100_000         # feed frames per second of --seconds
    swap_every = 64             # batches between swaps (one window)

    def prepare(self) -> None:
        frames = generate(f"udp-zipf:flows={FLOWS},packets="
                          f"{self.unique_frames},seed={self.seed}")
        total = max(len(frames), int(self.seconds * self.feed_rate))
        self.pcap = os.path.join(self.workdir, "feed.pcap")
        write_pcap(self.pcap, ((0, frames[i % len(frames)])
                               for i in range(total)))
        self.allow = [firewall.flow_key(flow_at(rank)).hex()
                      for rank in range(ALLOW_FLOWS)]

    def setup(self, tag: str):
        config = ServeConfig(
            programs=[
                ProgramSpec("counter", versioned(toy_counter.build(), tag)),
                ProgramSpec("fw", versioned(firewall.build(), tag),
                            ethertype=0x0800),
            ],
            feed=FeedSpec(source="pcap", path=self.pcap, packets=0),
            engine="codegen", batch_size=BATCH)
        return tag, NicDaemon(config)

    def measure(self, ready, seconds: float) -> Pass:
        """Closed loop: the benchmark is the control client. At boundary
        0 it installs the allow-list; at every ``swap_every``-th boundary
        it requests a swap to a newly named firewall, which therefore
        compiles while the boundary waits for it; once ``seconds`` have
        passed it requests a shutdown."""
        tag, daemon = ready
        result = Pass()
        base = firewall.build()
        ops = [daemon.submit({"op": "map_update", "program": "fw",
                              "map": "flows", "key": key,
                              "value": "00" * 8}, wait=False)
               for key in self.allow]
        serve = result.serve = {"pause": [], "first_batch": [],
                                "boundary": []}
        state = {"stop": False, "pause_from": None, "start": None,
                 "batches": []}
        calibration = Calibration()
        apply_pending = NicDaemon.apply_pending
        process_batch = MultiProgramNic.process_batch

        def boundary(self_, include_scheduled=False):
            if self_ is not daemon or state["stop"]:
                return apply_pending(self_, include_scheduled)
            swapping = False
            if self_.batches % self.swap_every == 0:
                if state["start"] is not None:
                    result.windows.append(Window(
                        self.swap_every * BATCH, now() - state["start"],
                        state["batches"], calibration.tick()))
                    state["batches"] = []
                if result.timed_s >= seconds:
                    state["stop"] = True
                    ops.append(self_.submit({"op": "shutdown"}, wait=False))
                elif self_.batches:
                    ops.append(self_.submit({
                        "op": "swap", "name": "fw", "keep_maps": True,
                        "program": versioned(base, f"{tag}_w{len(ops)}")},
                        wait=False))
                    swapping = True
                state["start"] = now()
            t0 = now()
            try:
                return apply_pending(self_, include_scheduled)
            finally:
                if swapping:
                    state["pause_from"] = t0
                else:
                    serve["boundary"].append(now() - t0)

        def batch(nic, frames, *args, **kwargs):
            if nic is not daemon.nic:
                return process_batch(nic, frames, *args, **kwargs)
            t0 = now()
            out = process_batch(nic, frames, *args, **kwargs)
            t1 = now()
            if state["pause_from"] is not None:
                # The first batch of a new program belongs to its swap.
                serve["pause"].append(t1 - state["pause_from"])
                serve["first_batch"].append(t1 - t0)
                state["pause_from"] = None
            else:
                state["batches"].append(t1 - t0)
            if not result.exact:
                report = out[FW_SLOT].report
                result.exact = {key: getattr(report, key) for key in
                                ("cycles", "stall_cycles", "flush_events")}
            return out

        patches = Patches()
        patches.set(NicDaemon, "apply_pending", boundary)
        patches.set(MultiProgramNic, "process_batch", batch)
        try:
            final = daemon.run()
        finally:
            patches.restore()
        result.offered = final["frames"]
        result.control_ops = len(ops)
        actions: Dict[str, Dict[str, int]] = {}
        for name, slot in final["programs"].items():
            per = actions.setdefault(name, {})
            for inc in slot["incarnations"]:
                for action, count in inc["actions"].items():
                    per[action] = per.get(action, 0) + count
                result.hw_packets += sum(inc["actions"].values())
                result.hw_cycles += inc["cycles"]
        result.context.update(final=final, ops=ops, actions=actions,
                              min_swaps=min(10, int(seconds)))
        return result

    def check(self, ready, result: Pass) -> None:
        _tag, daemon = ready
        fails = result.failures
        final = result.context.pop("final")
        ops = result.context.pop("ops")
        fails += [f"control op failed: {op.error}" for op in ops
                  if op.error is not None or not op.done.is_set()]
        swaps = final["programs"]["fw"]["swaps"]
        min_swaps = result.context.pop("min_swaps")
        if swaps < min_swaps:
            fails.append(f"only {swaps} swaps landed (need {min_swaps})")
        if result.hw_packets != result.offered:
            fails.append(f"{result.offered - result.hw_packets} frames "
                         "got no verdict")
        quarantined = sum(s["quarantined_frames"]
                          for s in final["programs"].values())
        if quarantined or final["quarantined"]:
            fails.append(f"{quarantined} frames quarantined")
        # The replay runs with telemetry off, so it also cross-checks the
        # online cycle loop against the codegen stream path.
        was_on = telemetry.enabled()
        telemetry.disable()
        try:
            offline = segmented_replay(daemon.config, final,
                                       daemon.program_table)
        finally:
            if was_on:
                telemetry.enable()
        fails += [f"replay: {d}" for d in verify_replay(final, offline)]
        result.context.update(
            hit_share=check_split(fails, result.context["actions"]["fw"]),
            modelled_loss=0.0, swaps=swaps)


WORKLOADS = {w.name: w for w in (StreamZipf, WindowedChurn, Verify3Way,
                                 ServeSwap)}
