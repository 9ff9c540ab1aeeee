"""Bench — kill/resume equivalence of the crash-safe campaign runtime.

The acceptance bar for ``repro.persistence``: a chaos campaign that is
SIGKILLed at a random step and resumed from its durable snapshots must
finish with **bit-identical** headline numbers and cross-layer metrics
to an uninterrupted run of the same config.

Two arms, both run as subprocesses of the ``repro chaos`` CLI (so the
kill is a real process death, not a simulated one):

* **arm A** — uninterrupted, no persistence, writes its canonical-JSON
  report;
* **arm B** — snapshotting into a temp directory, SIGKILLed once a
  snapshot generation exists, then ``--resume``d to completion and its
  report compared byte-for-byte against arm A's.

Scale knobs from the environment:

``RESUME_BENCH_NODES``     rack size          (default 3)
``RESUME_BENCH_DURATION``  campaign seconds   (default 1800)
``RESUME_BENCH_KEEP_DIR``  persist the snapshot directory here instead
                           of the test's temp dir (CI uploads it as an
                           artifact when the equivalence check fails)
"""

import os
import pathlib
import shutil
import subprocess
import sys
import time

from conftest import run_once

NODES = int(os.environ.get("RESUME_BENCH_NODES", "3"))
DURATION_S = float(os.environ.get("RESUME_BENCH_DURATION", "1800"))
SEED = 1
RATE_PER_HOUR = 20.0
INTENSITY = 0.8
SNAPSHOT_EVERY_S = 300.0

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _chaos_argv(*extra):
    return [
        sys.executable, "-m", "repro", "--seed", str(SEED), "chaos",
        "--nodes", str(NODES), "--duration", str(DURATION_S),
        "--rate", str(RATE_PER_HOUR), "--intensity", str(INTENSITY),
        "--snapshot-every", str(SNAPSHOT_EVERY_S), *extra,
    ]


def _env():
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_uninterrupted(report_path) -> None:
    subprocess.run(
        _chaos_argv("--policies", "on",
                    "--report-json", str(report_path)),
        check=True, env=_env(), cwd=_REPO_ROOT,
        stdout=subprocess.DEVNULL, timeout=600)


def _run_killed_then_resumed(snapshot_dir, report_path) -> bool:
    """SIGKILL one campaign mid-run, resume it; True if the kill
    actually interrupted the run (vs the campaign finishing first)."""
    process = subprocess.Popen(
        _chaos_argv("--policies", "on", "--snapshot-dir",
                    str(snapshot_dir)),
        env=_env(), cwd=_REPO_ROOT, stdout=subprocess.DEVNULL)
    try:
        # Wait for the first durable generation, then let the campaign
        # get a random distance into the run before the kill.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if list(pathlib.Path(snapshot_dir).glob("snapshot-*.json")):
                break
            if process.poll() is not None:
                break
            time.sleep(0.02)
        # Derive the kill delay from the PID: varies run to run without
        # perturbing the campaign's own (seeded) determinism.
        time.sleep(0.2 + (process.pid % 97) / 97.0)
        interrupted = process.poll() is None
        process.kill()
        process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
    subprocess.run(
        _chaos_argv("--resume", "--snapshot-dir", str(snapshot_dir),
                    "--report-json", str(report_path)),
        check=True, env=_env(), cwd=_REPO_ROOT,
        stdout=subprocess.DEVNULL, timeout=600)
    return interrupted


def test_kill_resume_is_bit_identical(benchmark, emit, tmp_path):
    report_a = tmp_path / "uninterrupted.json"
    report_b = tmp_path / "killed-resumed.json"
    keep_dir = os.environ.get("RESUME_BENCH_KEEP_DIR", "")
    snapshot_dir = (_REPO_ROOT / keep_dir if keep_dir
                    else tmp_path / "snapshots")
    # Stale generations from an earlier run would trip the kill timing.
    shutil.rmtree(snapshot_dir, ignore_errors=True)

    def harness():
        _run_uninterrupted(report_a)
        interrupted = _run_killed_then_resumed(snapshot_dir, report_b)
        return interrupted, report_a.read_bytes(), report_b.read_bytes()

    interrupted, bytes_a, bytes_b = run_once(benchmark, harness)
    generations = sorted(
        p.name for p in snapshot_dir.glob("snapshot-*.json"))
    emit("resume_equivalence", "\n".join([
        f"kill/resume equivalence: {NODES} nodes, {DURATION_S:.0f} s, "
        f"seed {SEED}",
        f"campaign interrupted mid-run: {interrupted}",
        f"surviving snapshot generations: {', '.join(generations)}",
        f"uninterrupted report bytes: {len(bytes_a)}",
        f"resumed report identical:  {bytes_a == bytes_b}",
    ]))
    assert generations, "the killed arm never wrote a snapshot"
    # The headline: byte-identical canonical reports (headline numbers
    # AND the sha256 over the full cross-layer metrics snapshot).
    assert bytes_a == bytes_b
