"""Bench — vectorized fleet stepping vs. the naive per-node loop.

The acceptance bar for ``repro.fleet``: stepping a 1000-node fleet
through the numpy batch models must deliver at least 10x the step
throughput of the naive per-object loop (the same kernels applied one
node at a time, the vector twin of the scalar object stack) — while
changing *nothing*: the final fleet state must match the naive loop
bit-for-bit, and a small campaign must produce byte-identical reports
from a single shard and a multi-shard multi-process run of the
``repro fleet`` CLI.

Scale knobs from the environment:

``FLEET_BENCH_NODES``        fleet size                (default 1000)
``FLEET_BENCH_STEPS``        steps per timing arm      (default 40)
``FLEET_BENCH_MIN_SPEEDUP``  throughput floor          (default 10)
``FLEET_BENCH_CLI_NODES``    CLI identity fleet size   (default 16)
"""

import os
import pathlib
import subprocess
import sys
import time

import numpy as np
from conftest import run_once

NODES = int(os.environ.get("FLEET_BENCH_NODES", "1000"))
STEPS = int(os.environ.get("FLEET_BENCH_STEPS", "40"))
MIN_SPEEDUP = float(os.environ.get("FLEET_BENCH_MIN_SPEEDUP", "10"))
CLI_NODES = int(os.environ.get("FLEET_BENCH_CLI_NODES", "16"))
CLI_DURATION_S = 1800.0

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _env():
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _fleet_argv(report_path, **options):
    argv = [sys.executable, "-m", "repro", "fleet",
            "--nodes", str(CLI_NODES),
            "--duration", str(CLI_DURATION_S),
            "--report-json", str(report_path)]
    for flag, value in options.items():
        argv.extend([f"--{flag}", str(value)])
    return argv


def _utilization_schedule(config, rng):
    """A reproducible load pattern exercising every power regime."""
    return rng.integers(0, config.vcpus_per_node + 1,
                        size=(STEPS, config.n_nodes)).astype(np.int64)


def _time_stepper(state, vectors, used, scalar):
    start = time.perf_counter()
    for t in range(STEPS):
        state.used_vcpus[:] = used[t]
        if scalar:
            for index in range(state.n):
                vectors.step_node(state, index, t)
        else:
            vectors.step(state, t)
    return time.perf_counter() - start


def test_vector_stepping_is_10x_and_bit_identical(
        benchmark, emit, tmp_path):
    from repro.fleet import FleetConfig, FleetVectors, build_fleet_state
    from repro.fleet.state import DYNAMIC_FIELDS

    config = FleetConfig(n_nodes=NODES, seed=0)
    vectors = FleetVectors(config)
    used = _utilization_schedule(config, np.random.default_rng(1234))

    def harness():
        naive_state = build_fleet_state(config)
        vector_state = build_fleet_state(config)
        naive_s = _time_stepper(naive_state, vectors, used, scalar=True)
        vector_s = _time_stepper(vector_state, vectors, used,
                                 scalar=False)
        return naive_state, vector_state, naive_s, vector_s

    naive_state, vector_state, naive_s, vector_s = \
        run_once(benchmark, harness)

    identical = all(
        np.array_equal(getattr(naive_state, name),
                       getattr(vector_state, name))
        for name, _ in DYNAMIC_FIELDS)
    speedup = naive_s / vector_s
    naive_rate = NODES * STEPS / naive_s
    vector_rate = NODES * STEPS / vector_s

    # CLI identity arms: a single shard and a sharded multi-process run
    # must write byte-identical reports.
    report_single = tmp_path / "fleet-single.json"
    report_sharded = tmp_path / "fleet-sharded.json"
    for path, options in (
            (report_single, {}),
            (report_sharded, {"shards": 4, "jobs": 2})):
        subprocess.run(_fleet_argv(path, **options), check=True,
                       env=_env(), cwd=_REPO_ROOT,
                       stdout=subprocess.DEVNULL, timeout=600)
    cli_identical = (report_single.read_bytes()
                     == report_sharded.read_bytes())

    emit("fleet_scaling", "\n".join([
        f"fleet stepping: {NODES} nodes x {STEPS} steps",
        f"naive per-node loop: {naive_s:8.3f} s "
        f"({naive_rate:10.0f} node-steps/s)",
        f"vectorized shard:    {vector_s:8.3f} s "
        f"({vector_rate:10.0f} node-steps/s)",
        f"speedup: {speedup:.1f}x (floor {MIN_SPEEDUP:.0f}x)",
        f"final state bit-identical: {identical}",
        f"CLI reports byte-identical "
        f"(shards=1 / shards=4 jobs=2, {CLI_NODES} nodes): "
        f"{cli_identical}",
    ]))

    assert identical, (
        "vectorized stepping diverged from the per-node loop")
    assert cli_identical, (
        "fleet campaign report depends on shards/jobs")
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized stepping only {speedup:.1f}x faster than the "
        f"naive loop at {NODES} nodes (floor {MIN_SPEEDUP:.0f}x)")
