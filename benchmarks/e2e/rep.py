"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition and reads the JSON
object it prints as its last line of standard output.  The set-up clock
starts at the first statement, before ``repro`` or numpy is imported,
because a command-line user pays that import on every run.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True,
                        help="scratch directory for snapshots and sidecars")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", help="write every span here as JSON lines")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import campaigns
    import spans

    workload = campaigns.WORKLOADS[args.workload]
    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder(keep=args.spans is not None)
        if workload.spans:
            # Forked fleet workers run unwrapped code: their spans would
            # land in a copy of the recorder that nothing reads, and the
            # cost would show up in the parent's executor wait.
            os.register_at_fork(after_in_child=spans.install(recorder))
    run = workload.make(args.seed, args.work, smoke=args.smoke)
    try:
        run.setup()
        setup_end = time.perf_counter()
        at_setup = {} if recorder is None else {
            name: list(row) for name, row in recorder.totals.items()}
        run.run(recorder)
        run_end = time.perf_counter()
        outcome = run.outcome()
    finally:
        run.close()

    result = {
        "setup_s": setup_end - _T0,
        "run_s": run_end - setup_end,
        "node_hours": run.node_hours,
        "digest": outcome["digest"],
        "sim": outcome["sim"],
        "problems": outcome["problems"],
        # ru_maxrss is in KiB on Linux.
        "maxrss_bytes": 1024 * max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
    }
    if recorder is not None:
        layers = spans.layer_metrics(recorder.totals)
        layers["persistence.snapshot.bytes"] = recorder.snapshot_bytes
        layers.update(outcome["layers"])
        # Share of the run phase (set-up excluded) spent in the layers the
        # workload is built to stress.
        run_layers = spans.layer_metrics(
            spans.since(recorder.totals, at_setup))
        result["target_share"] = spans.ratio(
            sum(run_layers.get(name, 0.0) for name in workload.targets),
            result["run_s"])
        succeeded = layers.pop("cloudmgr.migration.succeeded", 0)
        layers["cloudmgr.migration.success_ratio"] = spans.ratio(
            succeeded, layers["cloudmgr.migration.calls"])
        result["layers"] = layers
        result["samples"] = recorder.samples
        if args.spans is not None:
            recorder.write_jsonl(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
