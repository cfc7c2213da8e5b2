"""Host-speed calibration, shared by run.py and worker.py.

On a shared host each vCPU slows down (up to about twice) and recovers on
its own, in stretches of about a second. ``calibrate`` times a fixed
pure-Python loop that does not touch dronesim, so a change of the program
cannot move it, only the host can; run.py takes it around every process
and worker.py right before and after the simulation.
"""

import os
import time

CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
CAL_ITERATIONS = 4000    # one pass: about 1 ms on the reference machine
CAL_PASSES = 3
CAL_REF_NS = 1_000_000   # a pass on the reference machine in its fast state


def calibrate() -> int:
    """The fastest of CAL_PASSES passes of the loop (dict updates and
    int-to-str), in ns."""
    best = None
    for _ in range(CAL_PASSES):
        start = time.perf_counter_ns()
        table = {}
        total = 0
        for i in range(CAL_ITERATIONS):
            table[i % 997] = table.get(i % 997, 0) + i
            total += len(str(i))
        ns = time.perf_counter_ns() - start
        best = ns if best is None else min(best, ns)
    return best


def pin_fastest_cpu() -> int:
    """Pin this process, and so its next child, to the CPU that calibrates
    fastest now, the quieter one; returns that calibration."""
    if not hasattr(os, "sched_setaffinity"):
        return calibrate()
    timed = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        timed.append((calibrate(), cpu))
    cal_ns, cpu = min(timed)
    os.sched_setaffinity(0, {cpu})
    return cal_ns
