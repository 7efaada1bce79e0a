"""Spans around the program's public calls, recorded from outside.

Tracing is opt-in (``--trace 1``).  :func:`install` replaces each timed
callable with a wrapper that records a span (name, start, end, parent
span, run id) in memory; nothing inside ``src/`` changes.  A function
that callers import by name (``runner.py`` does ``from
..sim.checkpoint import restore_checkpoint``) is rebound in every
loaded ``repro`` module that holds it, so the wrapper sits where each
caller looks the name up.  Wrappers are installed before any campaign
worker forks, so forked workers inherit them; each worker writes its
own spans to a file when it ends.

Span times come from ``time.monotonic`` (one system-wide clock on
Linux), so spans from the service process, its forked workers and the
benchmark's client line up.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

from common import percentile

# Span names whose wrapper picks a different name from its parent span.
EXPERIMENT = "campaign.runner.experiment_s"
WORKER = "campaign.now.worker_s"

# Per-layer timed calls: count, total and self seconds are reported for
# each (``<name>.count``, ``<name>``, ``<name>.self``).
TIMED_LAYERS = (
    "compiler.compile_s",
    "campaign.runner.golden_s",
    "sim.checkpoint.save_s",
    "sim.checkpoint.restore_s",
    EXPERIMENT,
    "sim.simulator.run_s",
    "campaign.classify.classify_s",
    "campaign.now.collect_s",
    "telemetry.campaign.read_status_s",
    "telemetry.watchdog.evaluate_s",
    "telemetry.report.load_s",
    "telemetry.report.render_s",
    "analysis.coverage.from_share_s",
    "analysis.diff.summary_s",
    "analysis.diff.compare_s",
    "campaign.now.publish_s",
    "campaign.now.run_local_s",
    "campaign.now.worker_setup_s",
    "campaign.now.run_one_s",
    "service.queue.wait_s",
    "service.dispatcher.run_job_s",
    "service.store.put_s",
)

# Client-side latency per service route (``service.http.<route>_s``).
HTTP_ROUTES = ("submit", "job", "status", "report", "summary",
               "coverage", "results", "blob")

# Per-layer figures derived from span attributes rather than durations.
DERIVED = (
    "sim.golden_kips",
    "sim.armed_kips",
    "sim.checkpoint.bytes",
    "campaign.runner.window_s",
    "campaign.runner.drain_s",
    "service.http.api_p50_s",
    "service.http.api_p90_s",
)


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names = []
    timed = list(TIMED_LAYERS) + [f"service.http.{route}_s"
                                  for route in HTTP_ROUTES]
    for layer in timed:
        names += [(f"{layer}.count", "count"), (layer, "s"),
                  (f"{layer}.self", "s")]
    units = {"sim.golden_kips": "kinst/s", "sim.armed_kips": "kinst/s",
             "sim.checkpoint.bytes": "bytes"}
    names += [(name, units.get(name, "s")) for name in DERIVED]
    return names


class SpanRecorder:
    """In-memory spans of one process, with a per-thread parent stack."""

    def __init__(self, run_id: str, out_dir: str) -> None:
        self.run_id = run_id
        self.out_dir = out_dir
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counter = 0
        self.pid = os.getpid()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_name(self) -> str | None:
        stack = self._stack()
        return stack[-1]["name"] if stack else None

    def _new(self, name: str, t0: float, parent: str | None,
             attrs: dict) -> dict:
        with self._lock:
            self._counter += 1
            span_id = f"{self.pid}:{self._counter}"
        span = {"id": span_id, "name": name, "t0": t0, "t1": None,
                "parent": parent, "run": self.run_id, "pid": self.pid}
        if attrs:
            span["attrs"] = attrs
        with self._lock:
            self.spans.append(span)
        return span

    def begin(self, name: str) -> dict:
        stack = self._stack()
        parent = stack[-1]["id"] if stack else None
        span = self._new(name, time.monotonic(), parent, {})
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["t1"] = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def record(self, name: str, t0: float, t1: float, **attrs) -> dict:
        """A span measured elsewhere (client-side latency, queue wait)."""
        span = self._new(name, t0, None, attrs)
        span["t1"] = t1
        return span

    def forked(self) -> None:
        """Forget the parent's spans in a freshly forked child."""
        self.pid = os.getpid()
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def dump(self, label: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{label}-{self.pid}.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        return path


def load_spans(out_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
                spans += [json.loads(line) for line in handle if line.strip()]
    return spans


# -- installing the wrappers ---------------------------------------------------


class Installation:
    """The wrappers put in place by :func:`install`; ``remove`` undoes them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, original, replacement) -> None:
        """Point every ``repro`` module name bound to *original* at
        *replacement*."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def method(self, cls, attr: str, wrapper_factory) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(wrapper_factory(raw.__func__)))
        else:
            self._set(cls, attr, wrapper_factory(raw))

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _timed(recorder: SpanRecorder, name, before=None, after=None):
    """Wrapper factory: a span per call.  *name* is a string or a
    function of the parent span's name.  ``before(args)`` runs ahead of
    the call and ``after(attrs, args, result, state)`` after it, where
    *state* is what *before* returned and *attrs* the span's attributes."""
    def factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) \
                else name(recorder.current_name())
            state = before(args) if before is not None else None
            span = recorder.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end(span)
            if after is not None:
                after(span.setdefault("attrs", {}), args, result, state)
            return result
        return wrapper
    return factory


def install(recorder: SpanRecorder) -> Installation:
    """Wrap every timed call of the per-layer table."""
    from importlib import import_module
    (coverage, diff, classify, now, runner, compiler, dispatcher, queue,
     store, checkpoint, simulator, tcampaign, report, watchdog) = [
        import_module(f"repro.{name}") for name in (
            "analysis.coverage", "analysis.diff", "campaign.classify",
            "campaign.now", "campaign.runner", "compiler", "service.dispatcher",
            "service.queue", "service.store", "sim.checkpoint", "sim.simulator",
            "telemetry.campaign", "telemetry.report", "telemetry.watchdog")]

    inst = Installation()

    def fn(original, name, after=None):
        inst.rebind(original, _timed(recorder, name, after=after)(original))

    fn(compiler.compile_source, "compiler.compile_s")

    def checkpoint_bytes(attrs, args, result, state):
        attrs["bytes"] = len(result)

    fn(checkpoint.dumps_checkpoint, "sim.checkpoint.save_s", checkpoint_bytes)
    fn(checkpoint.restore_checkpoint, "sim.checkpoint.restore_s")
    fn(classify.classify, "campaign.classify.classify_s")
    fn(tcampaign.read_status, "telemetry.campaign.read_status_s")
    fn(watchdog.evaluate_alerts, "telemetry.watchdog.evaluate_s")
    fn(report.load_share, "telemetry.report.load_s")
    fn(report.render_report, "telemetry.report.render_s")
    fn(coverage.coverage_from_share, "analysis.coverage.from_share_s")

    def golden_name(parent):
        return "campaign.now.worker_setup_s" if parent == WORKER \
            else "campaign.runner.golden_s"

    def golden_attrs(attrs, args, result, state):
        attrs["instructions"] = args[0].golden.instructions

    inst.method(runner.CampaignRunner, "__init__",
                _timed(recorder, golden_name, after=golden_attrs))

    def phase_attrs(attrs, args, result, state):
        phases = result.phases or {}
        attrs.update(window=phases.get("window", 0.0),
                     drain=phases.get("drain", 0.0))

    inst.method(runner.CampaignRunner, "run_experiment",
                _timed(recorder, EXPERIMENT, after=phase_attrs))

    def run_name(parent):
        return "sim.simulator.run_s" if parent == EXPERIMENT \
            else "sim.simulator.other_run_s"

    def run_attrs(attrs, args, result, before):
        attrs["instructions"] = args[0].instructions - before

    inst.method(simulator.Simulator, "run",
                _timed(recorder, run_name,
                       lambda args: args[0].instructions, run_attrs))
    campaign_cls = now.SharedDirCampaign
    inst.method(campaign_cls, "collect", _timed(recorder, "campaign.now.collect_s"))
    inst.method(campaign_cls, "publish", _timed(recorder, "campaign.now.publish_s"))
    inst.method(campaign_cls, "run_local",
                _timed(recorder, "campaign.now.run_local_s"))
    inst.method(campaign_cls, "run_one", _timed(recorder, "campaign.now.run_one_s"))
    inst.method(diff.CampaignSummary, "from_share",
                _timed(recorder, "analysis.diff.summary_s"))
    inst.method(diff.CampaignDiff, "__init__",
                _timed(recorder, "analysis.diff.compare_s"))
    inst.method(dispatcher.Dispatcher, "run_job",
                _timed(recorder, "service.dispatcher.run_job_s"))
    inst.method(store.ContentStore, "put_bytes",
                _timed(recorder, "service.store.put_s"))

    def leased(lease):
        @functools.wraps(lease)
        def wrapper(self, *args, **kwargs):
            job = lease(self, *args, **kwargs)
            if job is not None:
                now_t = time.monotonic()
                recorder.record("service.queue.lease", now_t, now_t, job=job.id)
            return job
        return wrapper

    inst.method(queue.JobQueue, "lease", leased)

    worker_main = now._worker_main

    @functools.wraps(worker_main)
    def traced_worker(*args, **kwargs):
        recorder.forked()
        span = recorder.begin(WORKER)
        try:
            worker_main(*args, **kwargs)
        finally:
            recorder.end(span)
            recorder.dump("worker")

    inst.rebind(worker_main, traced_worker)
    return inst


# -- aggregation -----------------------------------------------------------------


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, total seconds, self seconds (total
    minus the time covered by child spans) and summed attributes."""
    children: dict[str, float] = {}
    for span in spans:
        if span.get("parent") and span.get("t1") is not None:
            children[span["parent"]] = children.get(span["parent"], 0.0) \
                + span["t1"] - span["t0"]
    table: dict[str, dict] = {}
    for span in spans:
        if span.get("t1") is None:
            continue
        row = table.setdefault(span["name"], {"count": 0, "total": 0.0,
                                              "self": 0.0, "attrs": {}})
        duration = span["t1"] - span["t0"]
        row["count"] += 1
        row["total"] += duration
        row["self"] += max(0.0, duration - children.get(span["id"], 0.0))
        for key, value in span.get("attrs", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row["attrs"][key] = row["attrs"].get(key, 0) + value
    return table


def queue_waits(spans: list[dict]) -> list[float]:
    """Seconds from each submit response to the lease of that job."""
    submitted = {span["attrs"]["job"]: span["t1"] for span in spans
                 if span["name"] == "service.http.submit_s"
                 and span.get("attrs", {}).get("fresh")}
    waits = []
    for span in spans:
        if span["name"] == "service.queue.lease":
            job = span["attrs"]["job"]
            if job in submitted:
                waits.append(span["t0"] - submitted[job])
    return waits


def layer_metrics(spans: list[dict]) -> dict[str, dict]:
    """The per-layer metrics of the benchmark from one run's spans."""
    spans = list(spans)
    for wait in queue_waits(spans):
        spans.append({"id": None, "name": "service.queue.wait_s", "t0": 0.0,
                      "t1": wait, "parent": None})
    table = layer_table(spans)
    values: dict[str, float] = {}
    for name, _unit in layer_metric_names():
        base, _, part = name.rpartition(".")
        if part in ("count", "self") and base in table:
            values[name] = table[base][part]
        elif name in table:
            values[name] = table[name]["total"]
    golden = table.get("campaign.runner.golden_s")
    if golden and golden["total"] > 0:
        values["sim.golden_kips"] = \
            golden["attrs"].get("instructions", 0) / golden["total"] / 1e3
    run = table.get("sim.simulator.run_s")
    if run and run["total"] > 0:
        values["sim.armed_kips"] = \
            run["attrs"].get("instructions", 0) / run["total"] / 1e3
    save = table.get("sim.checkpoint.save_s")
    if save and save["count"]:
        values["sim.checkpoint.bytes"] = save["attrs"].get("bytes", 0) / save["count"]
    experiment = table.get(EXPERIMENT)
    if experiment:
        values["campaign.runner.window_s"] = experiment["attrs"].get("window", 0.0)
        values["campaign.runner.drain_s"] = experiment["attrs"].get("drain", 0.0)
    # Every request except the submit of a fresh job, which belongs to
    # that job's own latency.
    api = [span["t1"] - span["t0"] for span in spans
           if span["name"].startswith("service.http.")
           and not span.get("attrs", {}).get("fresh")]
    if api:
        values["service.http.api_p50_s"] = percentile(api, 0.5)
        values["service.http.api_p90_s"] = percentile(api, 0.9)
    units = dict(layer_metric_names())
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in units.items()}


def render_table(spans: list[dict]) -> str:
    """Every span name with count, total and self time, largest self first."""
    table = layer_table(spans)
    lines = [f"{'layer':<40} {'count':>7} {'total_s':>10} {'self_s':>10}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self"]):
        lines.append(f"{name:<40} {row['count']:>7} {row['total']:>10.4f} "
                     f"{row['self']:>10.4f}")
    return "\n".join(lines)
