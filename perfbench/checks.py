"""Correctness checks computed apart from the program.

Each check raises :class:`CheckFailed` naming what went wrong; a failed
check fails the benchmark run.  None compares against a stored copy of
today's output: the golden outputs are checked against numpy
re-computations of the kernels (``golden.py``, run in a process of its
own), and campaign outputs against properties the fault-injection
method must have.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

OUTCOME_CLASSES = frozenset(
    {"crashed", "non_propagated", "strictly_correct", "correct", "sdc"})

GOLDEN_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "golden.py")


class CheckFailed(AssertionError):
    """An output of the program failed an independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- golden outputs ---------------------------------------------------------------


def check_golden(kind: str, values, **dims) -> None:
    """Check a golden output with ``golden.py`` in a process of its own,
    so numpy never loads into the process whose peak RSS is measured."""
    request = json.dumps({"kind": kind, "values": list(values), **dims})
    done = subprocess.run([sys.executable, GOLDEN_SCRIPT], input=request,
                          capture_output=True, text=True, timeout=120)
    if done.returncode == 1:
        raise CheckFailed(done.stderr.strip().splitlines()[-1])
    if done.returncode != 0:
        raise RuntimeError(f"golden check did not run: {done.stderr}")


# -- campaign outcomes --------------------------------------------------------------


def check_experiment(result, fault, golden_console: str) -> None:
    """One experiment's result: a known outcome class, for the fault
    submitted; a fault that never fired must leave the golden run."""
    outcome = result.outcome.value
    require(outcome in OUTCOME_CLASSES, f"unknown outcome class {outcome!r}")
    require(result.fault.describe() == fault.describe(),
            f"result for {result.fault.describe()}, submitted "
            f"{fault.describe()}")
    if not result.injected:
        require(outcome == "non_propagated",
                f"{fault.describe()} never fired but is classified {outcome}")
        require(result.console == golden_console,
                f"{fault.describe()} never fired but the console differs "
                f"from the golden console")


def check_control(result, golden_console: str) -> None:
    """A fault armed past the FI window never fires, so the run must be
    the golden run: not injected, outputs untouched.  The classifier's
    class for a fault that never fired is ``non_propagated``."""
    require(not result.injected, "control fault past the FI window fired")
    require(result.outcome.value == "non_propagated",
            f"control fault classified {result.outcome.value}, "
            f"expected non_propagated")
    require(result.console == golden_console,
            "control run's console differs from the golden console")


# -- share readers ---------------------------------------------------------------


def check_totals(reader: str, got: dict, written: dict) -> None:
    got = {key: value for key, value in got.items() if value}
    require(got == written,
            f"{reader} outcome totals {dict(sorted(got.items()))} != "
            f"written {dict(sorted(written.items()))}")


def check_coverage(payload: dict, written: dict) -> None:
    total = sum(written.values())
    accounted = payload["accounted"]["experiments"]
    require(accounted == total,
            f"coverage accounted {accounted} of {total} results")
    totals: dict[str, float] = {}
    for cell in payload["heatmaps"]["location"]["cells"]:
        for outcome, row in cell["outcomes"].items():
            totals[outcome] = totals.get(outcome, 0.0) + row["weight"]
    check_totals("coverage location heatmap",
                 {key: round(value) for key, value in totals.items()}, written)


def check_self_compare(payload: dict) -> None:
    verdicts = {name: row["verdict"]
                for name, row in payload["outcomes"].items()}
    require(payload["verdict"] == "unchanged"
            and set(verdicts.values()) <= {"unchanged"},
            f"self-compare is not all unchanged: {verdicts}")


# -- service ----------------------------------------------------------------------


def check_blob(data: bytes, digest: str) -> None:
    got = hashlib.sha256(data).hexdigest()
    require(got == digest, f"blob {digest[:12]} hashes to {got[:12]}")


def check_repeat(job: dict, first_digest: str) -> None:
    """A repeated spec is answered from the store with the first
    submission's result digest."""
    require(job["state"] == "done" and bool(job.get("reused_from")),
            "a repeated spec was not answered from the store")
    require(job.get("result_digest") == first_digest,
            "a repeated spec returned another result digest")


HOST_FIELDS = ("wall_seconds", "phases")


def strip_host_fields(records: list[dict]) -> list[dict]:
    return [{key: value for key, value in record.items()
             if key not in HOST_FIELDS} for record in records]


def check_same_results(service: list[dict], in_process: list[dict]) -> None:
    """The service's results must be the in-process run's, apart from
    host timings."""
    require(len(service) == len(in_process),
            f"service returned {len(service)} results, in-process run "
            f"{len(in_process)}")
    for index, (got, want) in enumerate(zip(strip_host_fields(service),
                                            strip_host_fields(in_process))):
        require(got == want, f"result {index} differs from the in-process "
                             f"run: {got} != {want}")
