"""Bench — scaling and determinism of the parallel sweep engine.

The acceptance bar for ``repro.sweep``: fanning a multi-seed campaign
sweep across worker subprocesses must be *faster* than running it
serially and must not change a single byte of the aggregate report.

Two arms, both run as subprocesses of the ``repro sweep`` CLI:

* **serial** — ``--jobs 1``, wall-clock timed, writes its
  canonical-JSON report;
* **parallel** — ``--jobs N`` (default 4), timed, and its report
  compared byte-for-byte against the serial arm's.

The byte-identity assertion always runs.  The speedup assertion only
runs when the machine actually has cores to parallelise over (>= 2
visible CPUs); on a single-core host the parallel arm degenerates to
serial plus scheduling overhead and a speedup bar would only measure
the host, not the engine.

Scale knobs from the environment:

``SWEEP_BENCH_NODES``        rack size per campaign   (default 3)
``SWEEP_BENCH_DURATION``     campaign seconds         (default 1800)
``SWEEP_BENCH_SEEDS``        seed list/ranges         (default 0:4)
``SWEEP_BENCH_JOBS``         parallel arm width       (default 4)
``SWEEP_BENCH_MIN_SPEEDUP``  speedup floor            (default 1.5)
"""

import os
import pathlib
import subprocess
import sys
import time

from conftest import run_once

NODES = int(os.environ.get("SWEEP_BENCH_NODES", "3"))
DURATION_S = float(os.environ.get("SWEEP_BENCH_DURATION", "1800"))
SEEDS = os.environ.get("SWEEP_BENCH_SEEDS", "0:4")
JOBS = int(os.environ.get("SWEEP_BENCH_JOBS", "4"))
MIN_SPEEDUP = float(os.environ.get("SWEEP_BENCH_MIN_SPEEDUP", "1.5"))
RATE_PER_HOUR = 20.0
INTENSITY = 0.8

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _sweep_argv(jobs, report_path):
    return [
        sys.executable, "-m", "repro", "sweep",
        "--nodes", str(NODES), "--duration", str(DURATION_S),
        "--rate", str(RATE_PER_HOUR), "--intensity", str(INTENSITY),
        "--seeds", SEEDS, "--jobs", str(jobs), "--quiet",
        "--report-json", str(report_path),
    ]


def _env():
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _timed_sweep(jobs, report_path) -> float:
    start = time.perf_counter()
    subprocess.run(
        _sweep_argv(jobs, report_path), check=True, env=_env(),
        cwd=_REPO_ROOT, stdout=subprocess.DEVNULL, timeout=600)
    return time.perf_counter() - start


def test_parallel_sweep_is_faster_and_bit_identical(
        benchmark, emit, tmp_path):
    report_serial = tmp_path / "sweep-jobs1.json"
    report_parallel = tmp_path / f"sweep-jobs{JOBS}.json"

    def harness():
        serial_s = _timed_sweep(1, report_serial)
        parallel_s = _timed_sweep(JOBS, report_parallel)
        return serial_s, parallel_s

    serial_s, parallel_s = run_once(benchmark, harness)
    speedup = serial_s / parallel_s
    cpus = _cpus()
    enforce_speedup = cpus >= 2
    n_seeds = report_serial.read_text().count('"seed"')
    emit("sweep_scaling", "\n".join([
        f"sweep scaling: {NODES} nodes, {DURATION_S:.0f} s per "
        f"campaign, seeds {SEEDS}",
        f"visible cpus: {cpus} (speedup bar "
        f"{'enforced' if enforce_speedup else 'reported only'})",
        f"serial   --jobs 1:      {serial_s:8.2f} s",
        f"parallel --jobs {JOBS}:      {parallel_s:8.2f} s",
        f"speedup: {speedup:.2f}x (floor {MIN_SPEEDUP:.2f}x)",
        f"reports byte-identical: "
        f"{report_serial.read_bytes() == report_parallel.read_bytes()}",
    ]))
    assert n_seeds > 0, "serial report carries no rows"
    # The headline: --jobs N must not change a byte of the report.
    assert report_serial.read_bytes() == report_parallel.read_bytes()
    if enforce_speedup:
        assert speedup >= MIN_SPEEDUP, (
            f"parallel sweep only {speedup:.2f}x faster than serial "
            f"(floor {MIN_SPEEDUP:.2f}x on {cpus} cpus)")
