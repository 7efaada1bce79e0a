"""Tests of the campaign benchmark itself.

    python3 -m pytest perfbench/tests -q

A short mode runs every workload once at minimum size with every check
on; then one case per check shows that it rejects a corrupted output.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import common  # noqa: E402
import golden  # noqa: E402

common.use_program_sources()

import run  # noqa: E402
import tracing  # noqa: E402

# -- short mode -----------------------------------------------------------------


@pytest.mark.parametrize("workload,extra", [
    ("seu-dct-atomic", {}),
    ("seu-jacobi-o3", {}),
    ("share-live", {"records": 60}),
    ("service-now", {}),
])
def test_short_mode(workload, extra):
    result = run.run_workload(workload, seed=7, seconds=0, trace=False,
                              rounds=1, **extra)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "ops_per_min", "op_p50_s",
                                      "peak_rss_mb"}
    assert all(row["value"] > 0 for row in result["metrics"].values())


def test_traced_short_mode_reports_every_layer_metric():
    result = run.run_workload("share-live", seed=7, seconds=0, trace=True,
                              rounds=1, records=60)
    names = [name for name, _unit in tracing.layer_metric_names()]
    assert list(result["metrics"]) == names
    metrics = result["metrics"]
    # One refresh per set-up and one per step.
    refreshes = common.SETUP_REPEATS + 1
    assert metrics["telemetry.watchdog.evaluate_s.count"]["value"] == refreshes
    # read_status runs once directly and once inside evaluate_alerts.
    assert metrics["telemetry.campaign.read_status_s.count"]["value"] == \
        2 * refreshes
    assert metrics["telemetry.watchdog.evaluate_s.self"]["value"] < \
        metrics["telemetry.watchdog.evaluate_s"]["value"]


def test_wrappers_are_removed_after_a_traced_run():
    from repro.campaign import runner
    from repro.sim import checkpoint
    before = runner.restore_checkpoint
    run.run_workload("share-live", seed=3, seconds=0, trace=True, rounds=1,
                     records=20)
    assert runner.restore_checkpoint is before is checkpoint.restore_checkpoint


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "share-live",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_a_timed_run_completes_its_leading_rounds():
    rounds = common.Rounds("share-live", seconds=0)
    done = 0
    while rounds.more(done):
        done += 1
    leading = common.LEADING_ROUNDS["share-live"]
    assert done == leading
    assert rounds.leading_values([[1.0], [2.0]] * 9) == \
        [1.0, 2.0] * (leading // 2)


# -- layer aggregation ----------------------------------------------------------


def test_self_time_excludes_children():
    spans = [
        {"id": "a", "name": "outer", "t0": 0.0, "t1": 10.0, "parent": None},
        {"id": "b", "name": "inner", "t0": 1.0, "t1": 4.0, "parent": "a"},
        {"id": "c", "name": "inner", "t0": 5.0, "t1": 7.0, "parent": "a"},
    ]
    table = tracing.layer_table(spans)
    assert table["outer"] == {"count": 1, "total": 10.0, "self": 5.0,
                              "attrs": {}}
    assert table["inner"]["count"] == 2 and table["inner"]["total"] == 5.0


def test_queue_wait_pairs_submit_with_lease():
    spans = [
        {"id": "1", "name": "service.http.submit_s", "t0": 1.0, "t1": 2.0,
         "parent": None, "attrs": {"fresh": True, "job": "j1"}},
        {"id": "2", "name": "service.queue.lease", "t0": 2.25, "t1": 2.25,
         "parent": None, "attrs": {"job": "j1"}},
    ]
    assert tracing.queue_waits(spans) == [0.25]


# -- every check rejects a corrupted output -------------------------------------


def _dct_coefficients(width=16, height=16):
    """Quantised forward DCT of the input image, computed here."""
    k = np.arange(8)
    basis = np.cos((2 * k[None, :] + 1) * k[:, None] * np.pi / 16.0)
    basis *= np.where(k == 0, math.sqrt(1 / 8), math.sqrt(2 / 8))[:, None]
    image = golden.dct_input_image(width, height) - 128.0
    out = np.empty((height, width))
    for by in range(0, height, 8):
        for bx in range(0, width, 8):
            q = basis @ image[by:by + 8, bx:bx + 8] @ basis.T / golden.JPEG_QUANT
            out[by:by + 8, bx:bx + 8] = np.sign(q) * np.floor(np.abs(q) + 0.5)
    return [int(v) for v in out.ravel()]


def test_dct_psnr_check():
    coefficients = _dct_coefficients()
    assert golden.check_dct_golden(coefficients, 16, 16) > 30.0
    corrupted = list(coefficients)
    for index in range(0, 256, 8):
        corrupted[index] += 40
    with pytest.raises(checks.CheckFailed):
        golden.check_dct_golden(corrupted, 16, 16)
    with pytest.raises(checks.CheckFailed):
        golden.check_dct_golden(coefficients[:-1], 16, 16)


def test_jacobi_check():
    a, b = golden.jacobi_system(12)
    solution = list(np.round(np.linalg.solve(a, b), 6))
    golden.check_jacobi_golden(solution, 12)
    solution[3] += 1e-6
    with pytest.raises(checks.CheckFailed):
        golden.check_jacobi_golden(solution, 12)


def test_golden_check_runs_apart_and_rejects():
    a, b = golden.jacobi_system(6)
    solution = [float(v) for v in np.round(np.linalg.solve(a, b), 6)]
    checks.check_golden("jacobi", solution, n=6)
    solution[0] += 1e-6
    with pytest.raises(checks.CheckFailed, match="Jacobi golden XOUT"):
        checks.check_golden("jacobi", solution, n=6)
    corrupted = _dct_coefficients()
    corrupted[0] += 400
    with pytest.raises(checks.CheckFailed, match="PSNR"):
        checks.check_golden("dct", corrupted, width=16, height=16)


def test_numpy_stays_out_of_the_measured_process():
    done = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'perfbench'); "
         "import run, seu, share, service, tracing; "
         "print('numpy' in sys.modules)"],
        cwd=os.path.dirname(BENCH), capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "False", done.stderr


def test_experiment_check():
    import inputs
    fault = inputs.make_fault("int_reg", 10, 3, reg_index=4)
    other = inputs.make_fault("int_reg", 10, 4, reg_index=4)

    def result(outcome="sdc", injected=True, console="ko\n", of=fault):
        return SimpleNamespace(outcome=SimpleNamespace(value=outcome),
                               injected=injected, console=console, fault=of)
    checks.check_experiment(result(), fault, "ok\n")
    checks.check_experiment(result("non_propagated", False, "ok\n"), fault,
                            "ok\n")
    for bad in (result(outcome="exploded"), result(of=other),
                result("sdc", injected=False),
                result("non_propagated", False, "ko\n")):
        with pytest.raises(checks.CheckFailed):
            checks.check_experiment(bad, fault, "ok\n")


def test_control_check():
    def result(injected=False, outcome="non_propagated", console="ok\n"):
        return SimpleNamespace(injected=injected, console=console,
                               outcome=SimpleNamespace(value=outcome))
    checks.check_control(result(), "ok\n")
    for bad in (result(injected=True), result(outcome="sdc"),
                result(console="ko\n")):
        with pytest.raises(checks.CheckFailed):
            checks.check_control(bad, "ok\n")


def test_share_checks():
    written = {"sdc": 2, "crashed": 1}
    checks.check_totals("reader", {"sdc": 2, "crashed": 1, "correct": 0},
                        written)
    with pytest.raises(checks.CheckFailed):
        checks.check_totals("reader", {"sdc": 1, "crashed": 1}, written)
    coverage = {"accounted": {"experiments": 3}, "heatmaps": {"location": {
        "cells": [{"outcomes": {"sdc": {"weight": 2.0}}},
                  {"outcomes": {"crashed": {"weight": 1.0}}}]}}}
    checks.check_coverage(coverage, written)
    coverage["accounted"]["experiments"] = 2
    with pytest.raises(checks.CheckFailed):
        checks.check_coverage(coverage, written)
    diff = {"verdict": "unchanged", "outcomes": {"sdc": {"verdict": "unchanged"}}}
    checks.check_self_compare(diff)
    diff["outcomes"]["sdc"]["verdict"] = "regressed"
    with pytest.raises(checks.CheckFailed):
        checks.check_self_compare(diff)


def test_blob_and_repeat_checks():
    import hashlib
    data = b'{"a": 1}'
    digest = hashlib.sha256(data).hexdigest()
    checks.check_blob(data, digest)
    with pytest.raises(checks.CheckFailed):
        checks.check_blob(data + b" ", digest)
    job = {"state": "done", "reused_from": "job-1", "result_digest": digest}
    checks.check_repeat(job, digest)
    with pytest.raises(checks.CheckFailed):
        checks.check_repeat(dict(job, result_digest="0" * 64), digest)
    with pytest.raises(checks.CheckFailed):
        checks.check_repeat(dict(job, reused_from=None), digest)


def test_same_results_check():
    base = [{"outcome": "sdc", "ticks": 5, "wall_seconds": 1.0, "phases": {}}]
    checks.check_same_results(
        [dict(base[0], wall_seconds=2.0, phases={"boot": 1.0})], base)
    with pytest.raises(checks.CheckFailed):
        checks.check_same_results([dict(base[0], ticks=6)], base)
    with pytest.raises(checks.CheckFailed):
        checks.check_same_results([], base)


def test_inputs_depend_only_on_the_seed():
    import random

    import inputs
    first = [f.describe() for f in inputs.seu_round(random.Random(5), 1000, 2)]
    again = [f.describe() for f in inputs.seu_round(random.Random(5), 1000, 2)]
    assert first == again
    # Which location strikes when does not depend on the seed either.
    sites = [[(f.location, f.time) for f in inputs.seu_round(
        random.Random(seed), 1000, 2)] for seed in (5, 6)]
    assert sites[0] == sites[1]
    times = sorted(f.time for r in range(50)
                   for f in inputs.seu_round(random.Random(r), 7000, r))
    # 350 faults spread evenly over the window: every tenth holds ~35.
    assert all(34 <= sum(1 for t in times if k * 700 < t <= (k + 1) * 700) <= 36
               for k in range(10))
    record = inputs.share_record(random.Random(5), 1000, "dct", 5)
    assert json.dumps(record) == json.dumps(
        inputs.share_record(random.Random(5), 1000, "dct", 5))
    assert record["outcome"] in checks.OUTCOME_CLASSES
