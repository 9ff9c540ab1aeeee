"""End-to-end benchmark of the repository: six pinned campaigns.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR] [--smoke]
    python3 benchmarks/e2e/run.py compare --base A.json B.json \\
        --head C.json D.json

Each repetition runs in a fresh process (``rep.py``) with
``PYTHONHASHSEED=0`` and single-threaded BLAS, one at a time: a closed
loop, where the next repetition starts after the previous one exits.
Bytecode is compiled before anything is timed.  Repetitions start while
another one still fits in ``--seconds``, and at least :data:`MIN_REPS`
run unless that would stretch the run past :data:`STRETCH` times
``--seconds``; every metric is the median over them.  ``--seconds`` defaults to
``run_seconds`` in ``BENCHMARK.json``, and the benchmark's command
contract passes that value explicitly; each result file records it, and
``compare`` refuses to pair runs of different lengths.

Untraced, the last line of standard output is one JSON object with the
end-to-end metrics.  With ``--trace`` the run alternates untraced and
traced repetitions and the last line carries the per-layer metrics
instead, including ``trace.overhead_pct`` (traced vs untraced
throughput).  ``--out DIR`` also writes one result file per workload
(the input of ``compare``) and every traced span as JSON lines.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from importlib import metadata
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
REP = os.path.join(HERE, "rep.py")
sys.path.insert(0, HERE)

import campaigns  # noqa: E402
import spans  # noqa: E402

#: A median over fewer repetitions moves with single slow ones.
MIN_REPS = 7
#: In a traced run: at least this many of each kind of repetition.
MIN_TRACED_REPS = 3
#: How far past ``--seconds`` the floors above may stretch a run.
STRETCH = 1.5
#: RSS sampling period of the repetition's process tree, and how many
#: samples pass between the /proc scans that discover new processes.
POLL_S = 0.05
RESCAN_EVERY = 5
#: No repetition starts after this much of a run has passed, and none
#: may outlive it, so a run ends well inside its 180 s cap.
DEADLINE_S = 150.0
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCHMARK = json.load(_f)
#: ``(name, unit)`` of every end-to-end and per-layer metric, in output
#: order.
E2E = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}


def load_pins() -> Dict[str, Dict[str, object]]:
    """Default seed and report digest of every workload."""
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as handle:
        return json.load(handle)


def host_info() -> Dict[str, object]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def child_env(work: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.update({"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
                "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
                "TMPDIR": work})
    return env


# -- one repetition -------------------------------------------------------------


def _stat(pid: int) -> Optional[List[str]]:
    """Fields of /proc/<pid>/stat after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rpartition(")")[2].split()
    except OSError:  # the process exited
        return None


def descendants(root: int) -> List[int]:
    """``root`` and every live process below it (one /proc scan)."""
    parent_of = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(int(entry))
            if fields is not None:
                parent_of[int(entry)] = int(fields[1])
    tree = []
    for pid in parent_of:
        ancestor = pid
        while ancestor > 1 and ancestor != root:
            ancestor = parent_of.get(ancestor, 0)
        if ancestor == root:
            tree.append(pid)
    return tree


def rss_bytes(pids: List[int]) -> int:
    """Summed resident set size of the live processes among ``pids``."""
    total = 0
    for pid in pids:
        fields = _stat(pid)
        if fields is not None:
            total += int(fields[21]) * PAGE_BYTES
    return total


def run_rep(name: str, seed: int, work: str, trace: bool, smoke: bool,
            timeout_s: float, spans_path: Optional[str] = None) -> Dict:
    """Run one repetition; returns its result, or ``{"error": ...}``."""
    cmd = [sys.executable, REP, "--workload", name, "--seed", str(seed),
           "--work", work]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    if spans_path is not None:
        cmd += ["--spans", spans_path]
    with tempfile.TemporaryFile(dir=work) as out, \
            tempfile.TemporaryFile(dir=work) as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env(work), start_new_session=True)
        peak = 0
        tree: List[int] = []
        try:
            for sample in itertools.count():
                if proc.poll() is not None:
                    break
                if time.monotonic() - started > timeout_s:
                    raise TimeoutError
                # A full /proc scan finds new workers; in between only
                # the known processes are read, to keep sampling cheap.
                if sample % RESCAN_EVERY == 0:
                    tree = descendants(proc.pid)
                peak = max(peak, rss_bytes(tree))
                time.sleep(POLL_S)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if not isinstance(exc, TimeoutError):
                raise
            return {"error": f"timed out after {timeout_s:.0f} s"}
        out.seek(0)
        err.seek(0)
        lines = out.read().decode("utf-8", "replace").strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = err.read().decode("utf-8", "replace").strip()
            return {"error": f"exit code {proc.returncode}: "
                             f"{tail.splitlines()[-1] if tail else ''}",
                    "stderr": tail}
    result = json.loads(lines[-1])
    result["peak_rss_mb"] = max(peak, result["maxrss_bytes"]) / 1e6
    return result


# -- one workload -----------------------------------------------------------------


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: campaigns.Workload, seed: int, seconds: float,
            trace: bool, smoke: bool, out_dir: Optional[str]) -> Dict:
    """Run one workload's repetitions and reduce them to its metrics."""
    floor = 2 if trace else 1
    need = 2 * MIN_TRACED_REPS if trace else MIN_REPS
    if smoke:
        need, seconds = floor, 0.0
    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(dir=scratch)
    for tree in (os.path.join(ROOT, "src"), HERE):
        compileall.compile_dir(tree, quiet=1)
    started = time.monotonic()
    reps: List[Dict] = []
    try:
        while True:
            spent = time.monotonic() - started
            ends_at = spent + median([rep["wall_s"] for rep in reps])
            if len(reps) >= need and ends_at > seconds:
                break
            # The MIN_REPS floor may stretch a run by half its length, no
            # more: on a slow host a run gets fewer repetitions rather
            # than overrunning the time its caller budgeted for it.
            if len(reps) >= floor and ends_at > STRETCH * seconds:
                break
            if reps and spent + reps[-1]["wall_s"] > DEADLINE_S:
                break
            # Traced runs alternate: untraced, traced, untraced, ...
            as_traced = trace and len(reps) % 2 == 1
            spans_path = None
            if as_traced and out_dir is not None:
                spans_path = os.path.join(
                    out_dir, f"{workload.name}-s{seed}-rep{len(reps)}"
                             ".spans.jsonl")
            rep_started = time.monotonic()
            rep = run_rep(workload.name, seed, work, as_traced, smoke,
                          DEADLINE_S - spent, spans_path)
            rep["traced"] = as_traced
            rep["wall_s"] = time.monotonic() - rep_started
            reps.append(rep)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run is still using it
            pass
    return reduce_reps(workload, seed, seconds, trace, smoke, reps)


def reduce_reps(workload: campaigns.Workload, seed: int, seconds: float,
                trace: bool, smoke: bool, reps: List[Dict]) -> Dict:
    """Medians, failure count and digest agreement over repetitions."""
    done = [r for r in reps if "error" not in r]
    digests = Counter(r["digest"] for r in done)
    digest = digests.most_common(1)[0][0] if digests else None
    failed = 0
    for rep in reps:
        problems = rep.setdefault("problems", [])
        if "error" in rep:
            problems.append(rep["error"])
        elif rep["digest"] != digest:
            problems.append(f"digest {rep['digest'][:12]} differs from "
                            f"the other repetitions' {digest[:12]}")
        failed += bool(problems)
    plain = [r for r in done if not r["traced"]]
    rates = [r["node_hours"] / r["run_s"] for r in plain]
    metrics = {
        "node_hours_per_s": median(rates),
        "setup_s": median([r["setup_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }
    host = host_info()
    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "host": host,
        # A jobs-2 workload on one CPU measures time slicing, not the
        # parallel code: its host metrics say nothing either way.
        "unresolved": host["nproc"] < workload.jobs,
        "correct": failed == 0 and bool(plain),
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
        "digest": digest,
        "sim": done[0]["sim"] if done else {},
        "reps": reps,
    }
    if trace:
        result["layers"] = reduce_layers(done, rates)
    return result


def reduce_layers(done: List[Dict],
                  plain_rates: List[float]) -> Dict[str, float]:
    """Per-layer metrics: medians over traced repetitions, latency
    percentiles pooled over them, and the tracing overhead."""
    traced = [r for r in done if r["traced"]]
    layers: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for name in {key for rep in traced for key in rep["layers"]}:
        layers[name] = median([rep["layers"].get(name, 0.0)
                               for rep in traced])
    for span, prefix in (("cloudmgr.simulation", "cloudmgr.simulation."),
                         (spans.FLEET_STEP, "fleet.")):
        pooled = [1e3 * s for rep in traced for s in rep["samples"][span]]
        layers[f"{prefix}step_ms_p50"] = spans.percentile(pooled, 50)
        layers[f"{prefix}step_ms_p90"] = spans.percentile(pooled, 90)
        layers[f"{prefix}step_samples"] = len(pooled)
    run_s = median([r["run_s"] for r in traced])
    layers["trace.run_s"] = run_s
    layers["trace.setup_s"] = median([r["setup_s"] for r in traced])
    layers["trace.target_share_pct"] = 100.0 * median(
        [r["target_share"] for r in traced])
    traced_rate = median([r["node_hours"] / r["run_s"] for r in traced])
    layers["trace.overhead_pct"] = 100.0 * (
        spans.ratio(median(plain_rates), traced_rate) - 1.0)
    return {name: layers[name] for name, _ in PER_LAYER}


# -- output -------------------------------------------------------------------------


def contract_line(result: Dict) -> str:
    """The last output line: ``correct``, ``attempted``, ``failed``,
    ``metrics`` (end-to-end untraced, per-layer traced)."""
    if result["trace"]:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in E2E}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_workload(result: Dict, workload: campaigns.Workload,
           pins: Dict[str, Dict[str, object]]) -> None:
    """Human-readable lines for one workload."""
    host = result["host"]
    print(f"== {workload.name} seed {result['seed']} "
          f"({'traced' if result['trace'] else 'untraced'}); "
          f"nproc {host['nproc']} python {host['python']} "
          f"numpy {host['numpy']} scipy {host['scipy']}")
    print(f"  why: {WHY[workload.name]}")
    for name, unit in E2E:
        note = (f"  unresolved: nproc {host['nproc']} < jobs "
                f"{workload.jobs}" if result["unresolved"] else "")
        print(f"  {name:<18} {result['metrics'][name]:>14.6g} {unit}{note}")
    print(f"  {'ops':<18} {result['attempted']:>14d}")
    print(f"  {'ops_failed':<18} {result['failed']:>14d}")
    for rep in result["reps"]:
        for problem in rep["problems"]:
            print(f"  FAILED: {problem}")
    for key, value in result["sim"].items():
        print(f"  {'sim.' + key:<18} {value:>14.6g}")
    # Informational: a speed-only change keeps the pinned digest.
    pin = pins[workload.name]
    identical = "unpinned (smoke size or another seed)"
    if not result["smoke"] and result["seed"] == pin["seed"]:
        identical = result["digest"] == pin["digest"]
    print(f"  digest {result['digest']}  sim_identical {identical}")
    if result["trace"]:
        for name, unit in PER_LAYER:
            print(f"  {name:<38} {result['layers'][name]:>14.6g} {unit}")


def parse_trace(value: Optional[str]) -> bool:
    if value in (None, "1"):
        return True
    if value == "0":
        return False
    raise argparse.ArgumentTypeError("--trace takes 0 or 1")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=sorted(campaigns.WORKLOADS),
                        help="repeatable; default: all six")
    parser.add_argument("--seed", type=int,
                        help="default: each workload's pinned seed")
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"],
                        help="measuring time per workload (default and "
                             "contract value: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        type=parse_trace, help="per-layer spans (0 or 1)")
    parser.add_argument("--out", help="write result files and spans here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repetition, no time floor")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running repetition's
    # process group is killed and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    pins = load_pins()
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
    for name in args.workload or list(campaigns.WORKLOADS):
        workload = campaigns.WORKLOADS[name]
        seed = args.seed if args.seed is not None else pins[name]["seed"]
        result = measure(workload, seed, args.seconds, args.trace,
                         args.smoke, args.out)
        if not any("error" not in rep for rep in result["reps"]):
            for rep in result["reps"]:
                print(rep.get("stderr", rep.get("error", "")),
                      file=sys.stderr)
            print(f"{name}: every repetition failed", file=sys.stderr)
            return 1
        print_workload(result, workload, pins)
        if args.out is not None:
            stamp = time.strftime("%Y%m%dT%H%M%S")
            path = os.path.join(
                args.out, f"{name}-s{seed}-{'traced' if args.trace else 'plain'}"
                          f"-{stamp}-{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(result, handle, indent=1)
        print(contract_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
