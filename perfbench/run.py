"""Repository benchmark: cold-cache workloads with checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream-zipf --seed 1 --seconds 10 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json``; the
layer each per-layer metric belongs to, and the end-to-end metric it
should move, in ``perfbench/layers.json``.

One run:

1. generates the workload's inputs from ``--seed`` (not timed);
2. builds the program cold ``SETUPS`` times, each in a fresh, empty
   ``EHDL_CACHE_DIR`` and under a new program name, so the compiler,
   the codegen emitter and the RTL schedule generator of this checkout
   run every time; ``setup_s`` is the median;
3. drives the program for ``--seconds`` (the timed region), cut into
   windows of fixed work with a calibration loop between windows;
4. checks every output against the reference engines, outside the
   timed region, counting each failed check as a failed operation.

Other tenants of a shared host slow the program by up to 1.6x for
seconds at a time. Every reported time is therefore in reference-host
time: host time times the window's calibration scale (the reference
loop time over the loop time measured around the window, see
``harness.Calibration``). ``pps`` is the median over windows and
``batch_ms_p50`` the median over batches. The same figures in plain
host time are in the context line.

With ``--trace 1`` the run makes three passes: untraced, traced (spans
around each layer's entry points, written to ``.perfbench/`` at exit)
and untraced with telemetry toggled; it reports the per-layer metrics.

The last line of standard output is the JSON result. The line before
it holds the host, the verdict split and the modelled queue loss.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUPS = 5

# Entry points the sensitivity self-test may slow down (--delay).
DELAY_TARGETS = {
    "hwsim.run_stream": ("repro.hwsim.sim", "PipelineSimulator", "run_stream"),
    "hwsim.run": ("repro.hwsim.sim", "PipelineSimulator", "run"),
    "rtl.run_packets": ("repro.rtl.sim", "RtlRunner", "run_packets"),
    "serve.process_batch": ("repro.hwsim.multi", "MultiProgramNic",
                            "process_batch"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--delay", action="append", default=[], metavar="ENTRY=SECONDS",
        help="before every call of an entry point "
             f"({', '.join(DELAY_TARGETS)}), do CPU work that takes SECONDS "
             "on the reference host; for the sensitivity self-test")
    return parser.parse_args(argv)


def fresh_cache(work: Path, label: str) -> Path:
    """Point the compile cache at a new, empty directory."""
    from repro.core.cache import get_default_cache

    directory = work / f"cache-{label}"
    directory.mkdir()
    os.environ["EHDL_CACHE_DIR"] = str(directory)
    if get_default_cache().directory != directory:
        raise RuntimeError("compile cache did not follow EHDL_CACHE_DIR")
    return directory


class CacheProbe:
    """Counts compile-cache hits; a hit on an entry that was on disk
    before the set-up began is a stale hit."""

    def __init__(self, patches) -> None:
        from repro.core.cache import CompileCache

        self.hits = 0
        self.stale = 0
        self.before: set = set()
        probe = self
        get, get_artifact = CompileCache.get, CompileCache.get_artifact

        def counted_get(cache, key):
            found = get(cache, key)
            probe.count(found, f"{key}.pipeline.pkl")
            return found

        def counted_artifact(cache, digest, kind):
            found = get_artifact(cache, digest, kind)
            probe.count(found, f"{digest}.{kind}.py")
            return found

        patches.set(CompileCache, "get", counted_get)
        patches.set(CompileCache, "get_artifact", counted_artifact)

    def count(self, found, filename: str) -> None:
        if found is not None:
            self.hits += 1
            self.stale += filename in self.before


def cold_setups(workload, work: Path, probe: CacheProbe, tracer):
    """Returns (host seconds, reference-host seconds) of each set-up,
    the last set-up's ready program, and the cache hits they saw."""
    from harness import Calibration, now

    times, ready = [], None
    hits = stale = 0
    calibration = Calibration()
    for index in range(SETUPS):
        directory = fresh_cache(work, f"setup{index}")
        probe.before = set(os.listdir(directory))
        first = probe.hits, probe.stale
        with tracer.span("bench.setup"):
            start = now()
            ready = workload.setup(f"s{index}")
            seconds = now() - start
        times.append((seconds, seconds * calibration.tick()))
        hits += probe.hits - first[0]
        stale += probe.stale - first[1]
    return times, ready, hits, stale


def run_pass(workload, ready, seconds, tracer, label):
    tracer.run_id = f"{workload.name}-{workload.seed}-{label}"
    with tracer.span("bench.timed") as root:
        result = workload.measure(ready, seconds)
    result.context["root_span"] = root
    return result


def install_delays(specs, patches) -> None:
    import importlib

    from harness import delayed

    for spec in specs:
        entry, _, seconds = spec.partition("=")
        module, owner, attr = DELAY_TARGETS[entry]
        cls = getattr(importlib.import_module(module), owner)
        delayed(patches, cls, attr, float(seconds))


def execute(args, work: Path):
    from harness import Patches, Tracer, host_info, peak_rss_mb
    from metrics import end_to_end, host_figures, per_layer, wrap_layers
    from workloads import WORKLOADS

    from repro import telemetry

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r} "
                         f"(choose from {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload](args.seed, args.seconds, str(work))
    patches = Patches()
    tracer = Tracer()
    try:
        if workload.telemetry:
            telemetry.enable()
        probe = CacheProbe(patches)
        if args.trace:
            wrap_layers(tracer)
            tracer.enabled = True
            tracer.run_id = f"{workload.name}-{workload.seed}-setup"
        workload.prepare()
        setup_s, ready, hits, stale = cold_setups(workload, work, probe,
                                                  tracer)
        tracer.enabled = False
        install_delays(args.delay, patches)
        passes = {}
        if not args.trace:
            passes["untraced"] = run_pass(workload, ready, args.seconds,
                                          tracer, "untraced")
            rss = peak_rss_mb()
        else:
            plan = (("untraced", False, workload.telemetry),
                    ("traced", True, workload.telemetry),
                    ("telemetry", False, not workload.telemetry))
            for number, (label, traced, tel) in enumerate(plan):
                if number:
                    fresh_cache(work, label)
                    ready = workload.setup(label)
                (telemetry.enable if tel else telemetry.disable)()
                tracer.enabled = traced
                passes[label] = run_pass(workload, ready, args.seconds,
                                         tracer, label)
                tracer.enabled = False
                passes[label].context["ready"] = ready
            (telemetry.enable if workload.telemetry else telemetry.disable)()
        for result in passes.values():
            workload.check(result.context.pop("ready", ready), result)
    finally:
        tracer.unwrap()
        patches.restore()

    failures = [f for result in passes.values() for f in result.failures]
    expected_hits = workload.pool_reloads * SETUPS
    if stale or hits != expected_hits:
        failures.append(f"compile cache served {hits} hits in set-up "
                        f"({stale} stale; {expected_hits} expected)")
    attempted = sum(r.offered + r.control_ops for r in passes.values())
    main = passes["untraced"]
    if args.trace:
        metrics = per_layer(bench, workload, passes, tracer)
    else:
        metrics = end_to_end(bench, main, setup_s, rss)
    context = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_info(),
        "setup_s_samples": setup_s,
        "host_time": host_figures(main, setup_s),
        "setup_cache_hits": hits, "setup_stale_hits": stale,
        "hit_share": main.context.get("hit_share"),
        "modelled_loss": main.context.get("modelled_loss"),
        "passes": {label: {"timed_s": r.timed_s, "verdicts": r.verdicts,
                           "offered": r.offered,
                           "failures": len(r.failures)}
                   for label, r in passes.items()},
        "first_failures": failures[:10],
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if args.trace:
        tracer.dump(str(OUT / f"spans-{stem}.json"),
                    {"workload": workload.name, "seed": args.seed})
    result = {
        "correct": not failures,
        "attempted": max(1, attempted),
        "failed": len(failures),
        "metrics": metrics,
    }
    (OUT / f"result-{stem}.json").write_text(
        json.dumps(dict(result, context=context), indent=1))
    return context, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    work = OUT / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["EHDL_CACHE_DIR"] = str(work / "cache-import")
    try:
        context, result = execute(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
