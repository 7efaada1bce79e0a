"""Campaign benchmark: one workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload seu-dct-atomic --seed 1 \\
        --seconds 15 --trace 0

Prints, as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``).  The traced run does a
fixed number of rounds (``common.LEADING_ROUNDS``) whatever
``--seconds`` says, prints its per-layer table and its end-to-end
figures to standard error and keeps its spans in
``.perfbench/trace-<workload>-<seed>/``.  A failed correctness check
prints ``correct: false`` and exits 1; a checkout without the program's
sources exits 2 without a result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import common  # noqa: E402

WORKLOADS = ("seu-dct-atomic", "seu-jacobi-o3", "share-live", "service-now")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 rounds: int | None = None, records: int | None = None) -> dict:
    """Run one workload; returns the result object of the last line."""
    import tracing
    run_id = f"{workload}-{seed}"
    out_dir = os.path.join(common.OUT_DIR, f"trace-{run_id}")
    work_dir = os.path.join(common.OUT_DIR, f"work-{run_id}-{os.getpid()}")
    for path in (out_dir, work_dir):
        shutil.rmtree(path, ignore_errors=True)
    os.makedirs(work_dir)
    recorder = installation = None
    if trace and rounds is None:
        # A fixed amount of work, so per-layer totals and counts compare
        # between runs of a faster and a slower program.
        rounds = common.LEADING_ROUNDS[workload]
    if trace:
        recorder = tracing.SpanRecorder(run_id, out_dir)
        if workload != "service-now":
            # The service process installs its own wrappers.
            installation = tracing.install(recorder)
    try:
        if workload.startswith("seu-"):
            import seu
            attempted, failed, metrics = seu.run(workload, seed, seconds,
                                                 rounds=rounds)
        elif workload == "share-live":
            import share
            extra = {"records": records} if records else {}
            attempted, failed, metrics = share.run(
                workload, seed, seconds, work_dir, rounds=rounds, **extra)
        else:
            import service
            attempted, failed, metrics = service.run(
                workload, seed, seconds, work_dir, recorder=recorder,
                out_dir=out_dir, rounds=rounds)
    finally:
        if installation is not None:
            installation.remove()
        shutil.rmtree(work_dir, ignore_errors=True)
    if trace:
        recorder.dump("bench")
        spans = tracing.load_spans(out_dir)
        print(tracing.render_table(spans), file=sys.stderr)
        # Against an untraced run of the same seed: the tracing overhead.
        print("end-to-end with tracing on: " + json.dumps(
            {name: row["value"] for name, row in metrics.items()}),
            file=sys.stderr)
        metrics = tracing.layer_metrics(spans)
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Campaign benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.use_program_sources()
    except common.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
