"""Metric computation: end-to-end from an untraced pass, per-layer from
the spans of a traced pass (see ``layers.json`` for the layer map)."""

from __future__ import annotations

import importlib
from typing import Dict, List

import harness
from harness import Tracer, mean, median, percentile

# (span name, module, class or None, attribute): the public entry points
# each layer is timed at.
ENTRY_POINTS = (
    ("core.compile", "repro.core.compiler", None, "compile_program"),
    ("core.vhdl_emit", "repro.core.vhdl", None, "emit_vhdl"),
    ("hwsim.codegen_emit", "repro.hwsim.codegen", None, "attach_source"),
    ("hwsim.run", "repro.hwsim.sim", "PipelineSimulator", "run_packets"),
    ("hwsim.run", "repro.hwsim.sim", "PipelineSimulator", "run_stream"),
    ("hwsim.run", "repro.hwsim.sim", "PipelineSimulator", "run"),
    ("ebpf.vm", "repro.ebpf.vm", "Vm", "run"),
    ("rtl.setup", "repro.rtl.sim", "RtlRunner", "__init__"),
    ("rtl.run", "repro.rtl.sim", "RtlRunner", "run_packets"),
    ("serve.dispatch", "repro.hwsim.multi", "MultiProgramNic",
     "process_batch"),
    ("serve.replace_at", "repro.hwsim.multi", "MultiProgramNic",
     "replace_at"),
    ("serve.boundary", "repro.serve.daemon", "NicDaemon", "apply_pending"),
    ("serve.carry_maps", "repro.serve.daemon", None, "carry_maps"),
)
GENERATOR_ENTRY_POINTS = (
    ("serve.feed", "repro.serve.feeder", "Feeder", "batches"),
)


def _owner(module: str, cls):
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def wrap_layers(tracer: Tracer) -> None:
    # The calibration loop is benchmark time, kept apart from the layers.
    tracer.wrap(harness, "calibration_s", "bench.calibrate")
    for name, module, cls, attr in ENTRY_POINTS:
        tracer.wrap(_owner(module, cls), attr, name)
    for name, module, cls, attr in GENERATOR_ENTRY_POINTS:
        tracer.wrap_generator(_owner(module, cls), attr, name)


def _labelled(bench: Dict, group: str, values: Dict[str, float]):
    out = {}
    for spec in bench[group]:
        out[spec["name"]] = {"value": float(values[spec["name"]]),
                             "unit": spec["unit"]}
    return out


def _rate(result, scaled: bool = True) -> float:
    """Median over windows of verdicts per second."""
    return median([w.verdicts / (w.seconds * (w.scale if scaled else 1.0))
                   for w in result.windows])


def _batches(result, scaled: bool = True) -> List[float]:
    return [b * (w.scale if scaled else 1.0)
            for w in result.windows for b in w.batches]


def _reference_s_per_verdict(result) -> float:
    return sum(w.seconds * w.scale for w in result.windows) \
        / result.verdicts


def end_to_end(bench: Dict, result, setup: List, rss_mb: float):
    """Times are reference-host times (see harness.Calibration)."""
    batches = _batches(result)
    return _labelled(bench, "end_to_end", {
        "setup_s": median([ref for _host, ref in setup]),
        "pps": _rate(result),
        "peak_rss_mb": rss_mb,
        "batch_ms_p50": percentile(batches, 50) * 1e3,
    })


def host_figures(result, setup: List) -> Dict[str, float]:
    """The same figures in plain host time, and the calibration scales."""
    batches = _batches(result, scaled=False)
    return {
        "setup_s": median([host for host, _ref in setup]),
        "pps": _rate(result, scaled=False),
        "batch_ms_p50": percentile(batches, 50) * 1e3,
        "batch_ms_p99": percentile(batches, 99) * 1e3,
        "scale_median": median([w.scale for w in result.windows]),
        "windows": len(result.windows),
        "batches": len(batches),
    }


def per_layer(bench: Dict, workload, passes: Dict, tracer: Tracer):
    spans = tracer.spans
    self_time = tracer.self_times()
    traced = passes["traced"]
    root = traced.context["root_span"]
    inside = tracer.descendants(root)
    root_start, root_end = spans[root][1], spans[root][2]

    def named(name, where=None):
        return [i for i in (range(len(spans)) if where is None else where)
                if spans[i][0] == name]

    def total(indices):
        return sum(tracer.duration(i) for i in indices)

    def parent_name(i):
        parent = spans[i][3]
        return spans[parent][0] if parent is not None else None

    hw = [i for i in named("hwsim.run", inside)
          if parent_name(i) != "hwsim.run"]
    hw_s = total(hw)
    rtl_s = total(named("rtl.run", inside))
    batches = max(1, len(named("serve.dispatch", inside)))
    swap_compiles = [
        tracer.duration(i) for i in named("core.compile")
        if spans[i][5] != "MainThread" and root_start <= spans[i][1] <= root_end
    ]
    swap_apply = [
        tracer.duration(a) + tracer.duration(b)
        for a, b in zip(named("serve.carry_maps", inside),
                        named("serve.replace_at", inside))
    ]
    on, off = ((passes["untraced"], passes["telemetry"])
               if workload.telemetry
               else (passes["telemetry"], passes["untraced"]))
    exact = traced.exact
    # Share of the timed region, calibration loops aside, that ran
    # inside some layer's entry point.
    root_s = tracer.duration(root) - total(named("bench.calibrate", inside))
    layer_s = sum(self_time[i] for i in inside
                  if not spans[i][0].startswith("bench."))
    return _labelled(bench, "per_layer", {
        "core.compile_ms": median([tracer.duration(i)
                                   for i in named("core.compile")]) * 1e3,
        "core.vhdl_emit_ms": median([tracer.duration(i) for i in
                                     named("core.vhdl_emit")]) * 1e3,
        "hwsim.run_s": hw_s,
        "hwsim.host_ns_per_pkt": hw_s * 1e9 / max(1, traced.hw_packets),
        "hwsim.host_ns_per_cycle": hw_s * 1e9 / max(1, traced.hw_cycles),
        "hwsim.cycles": exact.get("cycles", 0),
        "hwsim.cycles_per_pkt": exact.get("cycles_per_pkt", 0.0),
        "hwsim.stall_cycles": exact.get("stall_cycles", 0),
        "hwsim.flush_events": exact.get("flush_events", 0),
        "hwsim.model_mpps": exact.get("model_mpps", 0.0),
        "hwsim.model_latency_ns": exact.get("model_latency_ns", 0.0),
        "ebpf.vm_s": total(named("ebpf.vm", inside)),
        "ebpf.lru_evictions": exact.get("lru_evictions", 0),
        "rtl.setup_ms": median([tracer.duration(i)
                                for i in named("rtl.setup")]) * 1e3,
        "rtl.run_s": rtl_s,
        "rtl.host_ns_per_cycle": rtl_s * 1e9 / max(1, traced.rtl_cycles),
        "serve.feed_ms": total(named("serve.feed", inside)) * 1e3 / batches,
        "serve.dispatch_ms": sum(self_time[i] for i in
                                 named("serve.dispatch", inside))
        * 1e3 / batches,
        "serve.slot_run_ms": total([i for i in hw
                                    if parent_name(i) == "serve.dispatch"])
        * 1e3 / batches,
        "serve.boundary_ms": mean(traced.serve.get("boundary", [])) * 1e3,
        "serve.swap_compile_ms": median(swap_compiles) * 1e3,
        "serve.swap_apply_ms": median(swap_apply) * 1e3,
        "serve.first_batch_ms": median(traced.serve.get("first_batch", []))
        * 1e3,
        "serve.swap_pause_ms_p50": median(traced.serve.get("pause", []))
        * 1e3,
        "serve.batch_ms_p99": percentile(_batches(traced), 99) * 1e3
        if traced.serve else 0.0,
        "telemetry.overhead_pct": (_reference_s_per_verdict(on)
                                   / _reference_s_per_verdict(off) - 1)
        * 100,
        "trace.overhead_pct": (_reference_s_per_verdict(traced)
                               / _reference_s_per_verdict(passes["untraced"])
                               - 1) * 100,
        "trace.coverage_pct": layer_s * 100 / root_s,
    })
