"""``seu-*`` workloads: an in-process checkpointed CampaignRunner campaign
of single-bit SEUs, spread over the seven locations and the FI window."""

from __future__ import annotations

import random
import time

import checks
import inputs
from common import Rounds, median, metric, peak_rss_mb, timed_setup

# workload -> (program workload, scale, detailed model of the paper's
# switch-to-atomic-after-the-fault method, or None for atomic only).
# Jacobi runs at tiny: at small a 15-second run holds only 14-21
# experiments of ~1 s, and the per-run median swung from 0.80 s to
# 1.22 s between seeds; at tiny a run holds 42-49.
WORKLOADS = {
    "seu-dct-atomic": ("dct", "small", None),
    "seu-jacobi-o3": ("jacobi", "tiny", "o3"),
}


def check_golden(program: str, scale: str, golden) -> None:
    if program == "dct":
        from repro.workloads.dct import SCALES
        size = SCALES[scale]
        checks.check_golden("dct", golden.outputs.arrays["OUT"],
                            width=size["width"], height=size["height"])
    else:
        from repro.workloads.jacobi import SCALES
        checks.check_golden("jacobi", golden.outputs.arrays["XOUT"],
                            n=SCALES[scale]["n"])


def run(workload: str, seed: int, seconds: float, rounds: int | None = None):
    """Set up (compile, golden run, checkpoint), check the golden
    outputs and a control fault, then run whole rounds of experiments
    for *seconds* (or exactly *rounds* rounds)."""
    from repro.campaign import CampaignRunner
    from repro.workloads import build

    program, scale, detailed = WORKLOADS[workload]
    setup_s, runner = timed_setup(
        lambda: CampaignRunner(build(program, scale), detailed_model=detailed))
    golden = runner.golden
    check_golden(program, scale, golden)
    window = golden.profile.committed
    # Also the warm-up: one full experiment outside the measured window.
    checks.check_control(runner.run_experiment(inputs.control_fault(window)),
                         golden.console)

    rng = random.Random(seed)
    per_round: list[list[float]] = []
    window_rounds = Rounds(workload, seconds, rounds)
    while window_rounds.more(len(per_round)):
        durations = []
        for fault in inputs.seu_round(rng, window, len(per_round)):
            start = time.perf_counter()
            result = runner.run_experiment(fault, seed=seed)
            durations.append(time.perf_counter() - start)
            checks.check_experiment(result, fault, golden.console)
        per_round.append(durations)
    elapsed = window_rounds.elapsed()
    attempted = sum(len(durations) for durations in per_round)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_min": metric(60.0 * attempted / elapsed, "1/min"),
        "op_p50_s": metric(median(window_rounds.leading_values(per_round)), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    return attempted, 0, metrics
