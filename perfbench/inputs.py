"""Seeded inputs of every workload, drawn from the benchmark's own RNG.

The program receives only what is generated here: fault objects for the
``seu-*`` campaigns, result records for the ``share-live`` share, and
job specs for ``service-now``.  None of it goes through the program's
``SEUGenerator``, so a change to that generator's draw order cannot
change the benchmark's inputs.
"""

from __future__ import annotations

import random

# Location name -> bit width of the corrupted value (the SEU model of
# the paper's validation campaigns).
LOCATIONS = (("int_reg", 64), ("fp_reg", 64), ("pc", 64), ("fetch", 32),
             ("decode", 5), ("execute", 64), ("mem", 64))

OUTCOMES = ("crashed", "non_propagated", "strictly_correct", "correct", "sdc")
# Outcome mix of the synthetic share records (roughly DCT's, Fig. 4).
OUTCOME_WEIGHTS = (0.30, 0.40, 0.12, 0.10, 0.08)


def make_fault(location: str, time: int, bit: int, reg_index: int = 0,
               operand_role: str = "src", operand_index: int = 0):
    from repro.core.fault import (Behavior, BehaviorKind, Fault,
                                  LocationKind, TimeMode)
    return Fault(location=LocationKind(location),
                 time_mode=TimeMode.INSTRUCTIONS, time=time,
                 behavior=Behavior(kind=BehaviorKind.FLIP, bits=(bit,), occ=1),
                 reg_index=reg_index, operand_role=operand_role,
                 operand_index=operand_index)


def draw_fault(rng: random.Random, location: str, width: int, time: int):
    """One single-bit SEU at *location*, armed for instruction *time*
    of the FI window; bit, register and operand drawn from *rng*."""
    bit = rng.randrange(width)
    reg_index = rng.randrange(32) if location in ("int_reg", "fp_reg") else 0
    role = rng.choice(("src", "dst")) if location == "decode" else "src"
    operand = rng.randrange(3) if location == "decode" else 0
    return make_fault(location, time, bit, reg_index, role, operand)


# Fractional part of the golden ratio: the offsets k * GOLDEN (mod 1)
# of successive rounds spread evenly over [0, 1).
GOLDEN = 0.6180339887498949


def seu_round(rng: random.Random, window: int, round_index: int) -> list:
    """Round *round_index* of the ``seu-*`` campaigns: a fault at each of
    the seven locations, at seven evenly spaced points of the FI window.

    The points of round k start at offset k * GOLDEN (mod 1) of a
    seventh of the window, so successive rounds interleave evenly and
    together spread the faults uniformly over the window (a
    low-discrepancy design).  Location i sits at point (i + 3k) mod 7,
    so over seven rounds each location visits every point once (a Latin
    square).  Neither depends on the seed: every run of R rounds injects
    each location at the same R times, and only the bit, the register
    and the decode operand come from *rng*.  Experiment time depends
    mostly on the injection time and on whether the fault crashes the
    program, which depends mostly on the location, so this keeps the
    mix of short and long experiments nearly the same from seed to
    seed."""
    points = len(LOCATIONS)
    offset = (round_index * GOLDEN) % 1.0
    return [draw_fault(rng, name, width,
                       1 + min(window - 1, int(
                           ((index + 3 * round_index) % points + offset)
                           * window / points)))
            for index, (name, width) in enumerate(LOCATIONS)]


def control_fault(window: int):
    """A fault armed for an instruction past the end of the FI window:
    it must never fire."""
    return make_fault("int_reg", window + 1000, 7, reg_index=9)


# -- share-live records ------------------------------------------------------------


def share_record(rng: random.Random, window: int, workload: str,
                 seed: int) -> dict:
    """One result record in the program's result format
    (``ExperimentResult.as_dict``), with flight-recorder fields."""
    from repro.core.parser import render_fault_file
    name, width = LOCATIONS[rng.randrange(len(LOCATIONS))]
    fault = draw_fault(rng, name, width, rng.randint(1, window))
    outcome = rng.choices(OUTCOMES, OUTCOME_WEIGHTS)[0]
    injected = outcome != "non_propagated" or rng.random() < 0.7
    wall = 0.6 + 0.4 * rng.random()
    window_part = (wall - 0.003) * fault.time / window
    pc = 0x1000000 + 4 * rng.randrange(600)
    divergence = None
    if injected and outcome != "non_propagated":
        latency = rng.randrange(1, 400)
        divergence = {
            "kind": rng.choice(("register", "memory", "control")),
            "tick": 9 * (fault.time + latency), "count": fault.time + latency,
            "window": fault.time + latency - 1,
            "interval": (fault.time + latency) // 32, "pc": pc,
            "golden_pc": pc, "location": f"int r{rng.randrange(32)}",
            "golden_value": rng.randrange(1 << 16),
            "faulty_value": rng.randrange(1 << 40), "hamming_distance": 1,
            "latency": latency}
    nodes = [{"id": 0, "kind": "fault",
              "label": f"SEU {name} bit {fault.behavior.bits[0]} "
                       f"@ inst {fault.time}",
              "pc": None, "index": None, "window": fault.time}]
    for index in range(1, 1 + rng.randrange(12) if injected else 1):
        nodes.append({"id": index, "kind": "def",
                      "label": f"addq @ pc {pc + 4 * index:#x}",
                      "pc": pc + 4 * index, "index": fault.time + index,
                      "window": fault.time + index})
    nodes.append({"id": len(nodes), "kind": "outcome", "label": outcome,
                  "pc": None, "index": None, "window": None})
    edges = [[index, index + 1] for index in range(len(nodes) - 1)]
    return {
        "fault": fault.describe(), "workload": workload, "seed": seed,
        "fault_file": render_fault_file([fault]), "outcome": outcome,
        "injected": injected,
        "propagated": (outcome != "non_propagated") if injected else None,
        "crash_reason": "unaligned access" if outcome == "crashed" else None,
        "instructions": window + rng.randrange(2000),
        "ticks": 9 * (window + rng.randrange(2000)),
        "wall_seconds": wall,
        "time_fraction": min(1.0, fault.time / window),
        "injection_pc": pc if injected else None,
        "injection_asm": "addq t0, t1, t2" if injected else "",
        "injection_detail": f"{name} bit {fault.behavior.bits[0]}",
        "weight": 1.0, "predicted": False,
        "divergence": divergence,
        "propagation": {"nodes": nodes, "edges": edges, "truncated": False},
        "phases": {"boot": 0.003, "window": window_part, "injection": 0.0,
                   "drain": wall - 0.003 - window_part},
    }


# -- service-now job specs ---------------------------------------------------------


def fresh_job_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1 << 30)
