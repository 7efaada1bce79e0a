"""``service-now``: the campaign service with one closed-loop client.

The service runs in its own process (``service_host.py``).  The client
submits DCT ``tiny`` jobs with ``workers: 2``, so each runs as NoW
worker processes forked by the service.  Every fourth submission repeats
an earlier spec of the run, which the content store answers.  For every
job the client fetches status, report, summary, coverage, results and
blobs.  Each request is timed client-side, per route.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time

import checks
import inputs
from common import BENCH_DIR, Rounds, median, metric, timed_setup

JOB = {"workload": "dct", "scale": "tiny", "experiments": 4, "workers": 2}
FRESH_PER_ROUND = 3
# How often the client polls a job it waits for.
POLL_SECONDS = 0.05
START_TIMEOUT = 60.0
JOB_TIMEOUT = 120.0


class Host:
    """A running service process (``gemfi serve`` via service_host.py)."""

    URL_LINE = "# gemfi service on "

    def __init__(self, data_dir: str, out_dir: str, trace: bool,
                 run_id: str) -> None:
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "service_host.py"),
             "--data-dir", data_dir, "--out", out_dir,
             "--trace", str(int(trace)), "--run-id", run_id],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self.stderr: list[str] = []
        self.url = ""
        for line in self.process.stderr:
            self.stderr.append(line)
            if line.startswith(self.URL_LINE):
                self.url = line[len(self.URL_LINE):].split()[0]
                break
        # Keep the pipe drained so the service never blocks on it.
        self.drain = threading.Thread(target=self.stderr.extend,
                                      args=(self.process.stderr,), daemon=True)
        self.drain.start()
        if not self.url:
            self.stop()
            raise RuntimeError("service did not start: "
                               + "".join(self.stderr[-20:]))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the service process")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.drain.join()
        self.process.stderr.close()


class TimedClient:
    """A ServiceClient whose requests become client-side latency spans,
    one name per route, when a recorder is attached."""

    def __init__(self, url: str, recorder=None) -> None:
        from repro.service import ServiceClient
        self.client = ServiceClient(url)
        self.recorder = recorder

    def call(self, route: str, method, *args, **attrs):
        start = time.monotonic()
        result = method(*args)
        end = time.monotonic()
        if self.recorder is not None:
            self.last_span = self.recorder.record(
                f"service.http.{route}_s", start, end, **attrs)
        return result

    def healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            try:
                if self.client.healthz().get("ok"):
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("service never became healthy")
            time.sleep(0.02)

    def submit(self, spec: dict, fresh: bool) -> dict:
        job = self.call("submit", self.client.submit, spec, fresh=fresh)
        if fresh and self.recorder is not None:
            # Queue wait runs from this response to the job's lease.
            self.last_span["attrs"]["job"] = job["id"]
        return job

    def wait(self, job: dict) -> dict:
        deadline = time.monotonic() + JOB_TIMEOUT
        while job["state"] not in ("done", "failed", "cancelled"):
            if time.monotonic() > deadline:
                raise RuntimeError(f"job {job['id']} still {job['state']}")
            time.sleep(POLL_SECONDS)
            job = self.call("job", self.client.job, job["id"])
        return job

    def fetch_all(self, job: dict) -> list[dict]:
        """Every per-job read of the API; returns the job's results."""
        job_id = job["id"]
        self.call("status", self.client.status, job_id)
        self.call("report", self.client.report, job_id)
        self.call("summary", self.client.summary, job_id)
        self.call("coverage", self.client._json, "GET",
                  f"/v1/jobs/{job_id}/coverage")
        results = self.call("results", self.client.results, job_id)
        for key in ("result_digest", "report_digest", "checkpoint_digest"):
            digest = job.get(key)
            if digest:
                checks.check_blob(self.call("blob", self.client.fetch, digest),
                                  digest)
        return results

    def close(self) -> None:
        self.client.close()


def in_process_results(spec: dict) -> list[dict]:
    """The same campaign run directly with a CampaignRunner: the
    service's own fault draw for the spec's seed, run in this process."""
    from repro.campaign import CampaignRunner, SEUGenerator
    from repro.workloads import build
    runner = CampaignRunner(build(spec["workload"], spec["scale"]))
    faults = SEUGenerator(runner.golden.profile,
                          seed=spec["seed"]).batch(spec["experiments"])
    return [runner.run_experiment(fault, seed=spec["seed"]).as_dict()
            for fault in faults]


def run(workload: str, seed: int, seconds: float, work_dir: str,
        recorder=None, out_dir: str = "", rounds: int | None = None):
    rng = random.Random(seed)
    warmup = dict(JOB, seed=inputs.fresh_job_seed(rng))
    hosts: list[Host] = []
    state: dict = {}

    def start() -> TimedClient:
        hosts.append(Host(os.path.join(work_dir, f"service{len(hosts)}"),
                          out_dir, recorder is not None, f"{workload}-{seed}"))
        client = TimedClient(hosts[-1].url)
        client.healthy()
        job = client.wait(client.client.submit(warmup))
        state["warmup"] = job
        return client

    try:
        setup_s, client = timed_setup(
            start, discard=lambda old: (old.close(), hosts[-1].stop()))
        host = hosts[-1]
        warm = state["warmup"]
        checks.require(warm["state"] == "done", f"warm-up job {warm['state']}")
        client.recorder = recorder
        checks.check_same_results(client.fetch_all(warm),
                                  in_process_results(warmup))

        job_seconds: list[float] = []
        attempted = failed = 0
        fresh_specs: list[tuple[dict, str]] = []
        done = 0
        window_rounds = Rounds(workload, seconds, rounds)
        while window_rounds.more(done):
            for _ in range(FRESH_PER_ROUND):
                spec = dict(JOB, seed=inputs.fresh_job_seed(rng))
                begin = time.perf_counter()
                job = client.wait(client.submit(spec, fresh=True))
                attempted += 1
                if job["state"] != "done":
                    failed += 1
                    continue
                job_seconds.append(time.perf_counter() - begin)
                client.fetch_all(job)
                fresh_specs.append((spec, job["result_digest"]))
            spec, digest = fresh_specs[rng.randrange(len(fresh_specs))]
            job = client.submit(spec, fresh=False)
            attempted += 1
            checks.check_repeat(job, digest)
            client.fetch_all(job)
            done += 1
        elapsed = window_rounds.elapsed()
        rss = host.peak_rss_mb()
        client.close()
    finally:
        for host in hosts:
            host.stop()
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_min": metric(60.0 * len(job_seconds) / elapsed, "1/min"),
        # Over every fresh job: job seeds are independent draws, so the
        # jobs a faster run adds are like the ones before them.
        "op_p50_s": metric(median(job_seconds), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return attempted, failed, metrics
