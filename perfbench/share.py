"""``share-live``: every share reader over a growing NoW share.

The starting share holds ``RECORDS`` result records in the program's
result format, with flight-recorder fields, plus the claim files a
finished NoW campaign leaves.  Each step appends ``BATCH`` records and
then does one full refresh with every reader.  No simulation runs.

Set-up time is the first refresh over the starting share, not writing
its ~7,500 files: on the VM this was measured on, creating the same
7,500 files took anywhere from 0.15 s to 2.5 s from one minute to the
next, a swing no program change causes.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import shutil
import time

import checks
import inputs
from common import SETUP_REPEATS, Rounds, median, metric, peak_rss_mb

RECORDS = 2500
BATCH = 25
# DCT-small's golden run: the window the records are drawn over.
GOLDEN_INSTRUCTIONS = 852_712
WINDOW = 152_988
CHECKPOINT_BYTES = 49_000


def golden_blob(rng: random.Random) -> bytes:
    """A pickled golden run as the coordinator publishes it
    (``golden.pkl``), with a checkpoint-sized payload."""
    from repro.campaign import GoldenRun, WindowProfile
    from repro.workloads.quality import Outputs
    golden = GoldenRun(
        outputs=Outputs(console="dct done\n"),
        profile=WindowProfile(committed=WINDOW, ticks=9 * WINDOW,
                              stage_counts={"fetch": WINDOW}),
        checkpoint=rng.randbytes(CHECKPOINT_BYTES),
        instructions=GOLDEN_INSTRUCTIONS, ticks=9 * GOLDEN_INSTRUCTIONS,
        wall_seconds=3.7, boot_instructions=GOLDEN_INSTRUCTIONS - WINDOW)
    return pickle.dumps(golden)


def record_files(index: int, record: dict, now: float) -> dict[str, bytes]:
    """The files a NoW worker leaves for one finished experiment: the
    claimed fault file, the claim and the result."""
    name = f"exp_{index:05d}"
    worker = f"ws{index % 2}"
    claim = {"worker": worker, "pid": 1000 + index % 2, "time": now}
    return {f"claimed/{worker}_{name}.txt": record["fault_file"].encode(),
            f"claims/{name}.txt.claim": json.dumps(claim).encode(),
            f"results/{name}.json": json.dumps(record).encode()}


class LiveShare:
    """A share directory the benchmark writes as NoW workers would."""

    def __init__(self, path: str, seed: int) -> None:
        self.path = path
        self.seed = seed
        self.written: dict[str, int] = {}
        self.count = 0
        for sub in ("todo", "claimed", "results", "claims", "heartbeats",
                    "manifests"):
            os.makedirs(os.path.join(path, sub), exist_ok=True)

    def contents(self, rng: random.Random, records: int) -> dict[str, bytes]:
        """The starting share's files, as bytes by relative path."""
        files = {"golden.pkl": golden_blob(rng),
                 "workload.json": json.dumps(
                     {"name": "dct", "scale": "small", "seed": self.seed,
                      "flight": 1000}).encode()}
        files.update(self.records(rng, records))
        return files

    def records(self, rng: random.Random, count: int) -> dict[str, bytes]:
        """*count* new result records, with their claim files."""
        now = time.time()
        files = {}
        for _ in range(count):
            record = inputs.share_record(rng, WINDOW, "dct", self.seed)
            files.update(record_files(self.count, record, now))
            self.written[record["outcome"]] = \
                self.written.get(record["outcome"], 0) + 1
            self.count += 1
        for worker in ("ws0", "ws1"):
            files[f"heartbeats/{worker}.json"] = json.dumps(
                {"worker": worker, "completed": self.count // 2,
                 "time": now}).encode()
        return files

    def write(self, files: dict[str, bytes]) -> None:
        for relative, data in files.items():
            with open(os.path.join(self.path, relative), "wb") as handle:
                handle.write(data)


def refresh(share_dir: str) -> dict:
    """One full refresh with every share reader."""
    from repro.analysis.coverage import coverage_from_share
    from repro.analysis.diff import CampaignDiff, CampaignSummary
    from repro.campaign import SharedDirCampaign
    from repro.telemetry.campaign import read_status
    from repro.telemetry.report import load_share, render_report
    from repro.telemetry.watchdog import evaluate_alerts

    collected = SharedDirCampaign(share_dir, "dct", "small").collect()
    status = read_status(share_dir)
    snapshot, _alerts = evaluate_alerts(share_dir)
    report = load_share(share_dir)
    render_report(report, fmt="md")
    coverage = coverage_from_share(share_dir).as_dict()
    summary = CampaignSummary.from_share(share_dir)
    diff = CampaignDiff(summary, summary)
    return {"collected": collected, "status": status, "snapshot": snapshot,
            "report": report, "coverage": coverage, "summary": summary,
            "diff": diff}


def check_refresh(views: dict, written: dict) -> None:
    collected: dict[str, int] = {}
    for entry in views["collected"]:
        collected[entry["outcome"]] = collected.get(entry["outcome"], 0) + 1
    checks.check_totals("collect", collected, written)
    checks.check_totals("read_status", views["status"].outcomes, written)
    checks.check_totals("evaluate_alerts", views["snapshot"].status.outcomes,
                        written)
    checks.check_totals("load_share", views["report"].outcomes, written)
    checks.check_coverage(views["coverage"], written)
    checks.check_totals("CampaignSummary",
                        {name: row["count"] for name, row
                         in views["summary"].payload["outcomes"].items()},
                        written)
    checks.check_self_compare(views["diff"].payload)


def run(workload: str, seed: int, seconds: float, work_dir: str,
        records: int = RECORDS, rounds: int | None = None):
    """Set up, then append-and-refresh steps for *seconds* (or exactly
    *rounds* steps).

    Set-up is the first refresh over the starting share: every reader
    over a share it has not seen.  It is timed on ``SETUP_REPEATS``
    fresh copies of the same share, each at a path of its own; writing
    a copy's files is not timed."""
    setup_seconds = []
    for copy in range(SETUP_REPEATS):
        if copy:
            shutil.rmtree(share.path)
        share = LiveShare(os.path.join(work_dir, f"share{copy}"), seed)
        rng = random.Random(seed)
        share.write(share.contents(rng, records))
        begin = time.perf_counter()
        views = refresh(share.path)
        setup_seconds.append(time.perf_counter() - begin)
        check_refresh(views, share.written)

    per_round: list[list[float]] = []
    window_rounds = Rounds(workload, seconds, rounds)
    while window_rounds.more(len(per_round)):
        share.write(share.records(rng, BATCH))
        begin = time.perf_counter()
        views = refresh(share.path)
        per_round.append([time.perf_counter() - begin])
        check_refresh(views, share.written)
    elapsed = window_rounds.elapsed()
    metrics = {
        "setup_s": metric(median(setup_seconds), "s"),
        "ops_per_min": metric(60.0 * len(per_round) / elapsed, "1/min"),
        "op_p50_s": metric(median(window_rounds.leading_values(per_round)), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    return len(per_round), 0, metrics
