"""Self-tests of the benchmark.

The sensitivity test slows one entry point by a fixed delay per call,
from the benchmark side (``run.py --delay``), and asserts that the
workload which runs that entry point loses more throughput than its
bound allows while a workload that bypasses it stays within the bound.

Run from the root of a checkout (takes a few minutes)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BOUND = {m["name"]: m["bound"] for m in
         json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
SECONDS = "6"
SEED = "7"

sys.path.insert(0, str(HERE))

from harness import Tracer, percentile  # noqa: E402


def bench(cwd: Path, workload: str, *extra: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", SEED, "--seconds", SECONDS, "--trace", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


_baseline = {}


def pps(workload: str, *extra: str) -> float:
    key = (workload, extra)
    if key not in _baseline:
        out = bench(ROOT, workload, *extra)
        assert out.returncode == 0, out.stderr[-3000:]
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, out.stdout[-3000:]
        _baseline[key] = result["metrics"]["pps"]["value"]
    return _baseline[key]


# (entry point, delay per call in seconds, workload that runs it,
#  workload that bypasses it)
CASES = [
    ("hwsim.run_stream", 0.1, "stream-zipf", "windowed-churn"),
    ("hwsim.run", 0.2, "windowed-churn", "stream-zipf"),
    ("rtl.run_packets", 0.05, "verify-3way", "stream-zipf"),
    ("serve.process_batch", 0.004, "serve-swap", "stream-zipf"),
]


@pytest.mark.parametrize("entry,delay,runs,bypasses", CASES,
                         ids=[case[0] for case in CASES])
def test_delay_moves_only_the_workload_that_runs_it(entry, delay, runs,
                                                    bypasses):
    flag = f"--delay={entry}={delay}"
    hit = pps(runs, flag) / pps(runs)
    assert hit < 1 - BOUND["pps"], \
        f"{runs}: pps ratio {hit:.3f} with {entry} slowed"
    miss = pps(bypasses, flag) / pps(bypasses)
    print(f"{entry} +{delay}s/call: {runs} pps x{hit:.3f}, "
          f"{bypasses} pps x{miss:.3f}")
    assert abs(miss - 1) < BOUND["pps"], \
        f"{bypasses}: pps ratio {miss:.3f} with {entry} slowed"


def test_self_times_account_for_the_root_span():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("root") as root:
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    self_times = tracer.self_times()
    assert sum(self_times) == pytest.approx(tracer.duration(root))
    assert tracer.descendants(root) == [1, 2, 3]
    assert all(t >= 0 for t in self_times)


def test_every_per_layer_metric_is_mapped_to_its_layer():
    declared = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    layers = json.loads((HERE / "layers.json").read_text())
    assert set(layers["per_layer"]) == declared
    assert {name.split(".")[0] for name in declared} == \
        set(layers["layers"]) | {"trace"}


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([3.0], 99) == 3.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(tmp_path, "stream-zipf")
    assert out.returncode != 0
    assert out.stdout == ""
