"""Seeded inputs for the benchmark workloads.

Every scenario document is written here as plain text in the format of
docs/scenario_format.md, so the simulator receives nothing but `.scn` text.
The same (workload, seed) pair always gives the same bytes: each generator
draws from ``random.Random("<workload>:<seed>")``, whose string seeding does
not depend on PYTHONHASHSEED.

Inputs are drawn so that the work per tick depends little on the seed: the
drone count, tick count, sensor set-up and the mix of command kinds are
fixed per workload, and only positions, speeds, colours and timings vary.
"""

from __future__ import annotations

import random

DT = 0.1

# The stock discharge curve and flight-time bound (docs/scenario_format.md),
# used to pick initial charges that run out at a chosen time.
STOCK_COEFFS = (1.0, -0.003, 1.42421402327237e-05, -2.5877842137707736e-08)
STOCK_T_MAX = 427.21

# Default sizes: N drones x ticks per unit. Units are kept short (about half
# a second) so that a run holds many of them and the host rarely changes
# speed within one; see run.steady.
SIZES = {
    "swarm-sensing": {"drones": 100, "ticks": 8},
    "fleet-flight": {"drones": 100, "ticks": 200},
    "swarm-readback": {"drones": 10, "ticks": 1000},
}


def stock_charge(t: float) -> float:
    """Charge of the stock curve after t flight seconds."""
    c0, c1, c2, c3 = STOCK_COEFFS
    return c0 + t * (c1 + t * (c2 + t * c3))


def _num(value: float) -> str:
    return f"{value:.4f}"


def _vec(values) -> str:
    return " ".join(_num(v) for v in values)


def _header(name: str, ticks: int, lo, hi, extra=()) -> list[str]:
    lines = [
        "[scenario]",
        "format_version = 1",
        f"name = {name}",
        f"dt = {DT}",
        f"duration = {ticks}",
        f"arena_min = {_vec(lo)}",
        f"arena_max = {_vec(hi)}",
    ]
    lines.extend(extra)
    lines.append("")
    return lines


def _point(rng: random.Random, lo, hi, margin: float):
    return tuple(rng.uniform(a + margin, b - margin) for a, b in zip(lo, hi))


def _color(rng: random.Random) -> str:
    return " ".join(str(rng.randrange(256)) for _ in range(3))


def _waypoints(rng, ident, lo, hi, margin, count, speed_range, threshold):
    lines = [
        f"[waypoints {ident}]",
        f"speed = {_num(rng.uniform(*speed_range))}",
        f"threshold = {threshold}",
        "points =",
    ]
    for _ in range(count):
        lines.append("    " + _vec(_point(rng, lo, hi, margin)))
    lines.append("")
    return lines


def swarm_sensing(seed: int, drones: int = 100, ticks: int = 8) -> str:
    """Camera, lit LED and an every-tick broadcast on every drone, with a few
    lights, flying waypoints in a 20 x 20 x 6 m arena. The broadcast range
    exceeds the arena diagonal, so every message reaches every other drone."""
    rng = random.Random(f"swarm-sensing:{seed}")
    lo, hi = (-10.0, -10.0, 0.0), (10.0, 10.0, 6.0)
    lines = _header("swarm_sensing", ticks, lo, hi)
    for i in range(drones):
        lines += [
            f"[drone s{i:03d}]",
            f"position = {_vec(_point(rng, lo, hi, 0.5))}",
            f"yaw = {_num(rng.uniform(-179.0, 179.0))}",
            "camera = on",
            "rab_range = 40",
            f"rab_broadcast = {rng.randrange(1 << 16):04x}",
            "led_on = true",
            f"led_color = {_color(rng)}",
            "",
        ]
    for i in range(4):
        lines += [
            f"[light l{i}]",
            f"position = {_vec(_point(rng, lo, hi, 0.0))}",
            f"color = {_color(rng)}",
            "",
        ]
    for i in range(drones):
        lines += _waypoints(rng, f"s{i:03d}", lo, hi, 0.5, 4, (0.5, 2.0), 0.1)
    return "\n".join(lines)


def fleet_flight(seed: int, drones: int = 100, ticks: int = 200) -> str:
    """Sensing off. Half the drones fly waypoints, half follow command
    scripts that cycle through all four command kinds (velocity/position x
    world/body). Every fifth drone starts with a charge that runs out between
    30% and 70% of the run, so it is grounded mid-run. Position jitter is on."""
    rng = random.Random(f"fleet-flight:{seed}")
    lo, hi = (-20.0, -20.0, 0.0), (20.0, 20.0, 10.0)
    run_s = ticks * DT
    lines = _header(
        "fleet_flight", ticks, lo, hi,
        (f"noise_seed = {rng.randrange(1 << 31)}", "noise_position_std = 0.002"),
    )
    # Charges at or above `keep` last longer than the run.
    keep = stock_charge(max(0.0, STOCK_T_MAX - 1.2 * run_s))
    for i in range(drones):
        if i % 5 == 0:
            remaining = rng.uniform(0.3, 0.7) * run_s
            charge = stock_charge(STOCK_T_MAX - remaining)
        else:
            charge = rng.uniform(min(keep, 0.99), 1.0)
        lines += [
            f"[drone f{i:03d}]",
            f"position = {_vec(_point(rng, lo, hi, 1.0))}",
            f"yaw = {_num(rng.uniform(-179.0, 179.0))}",
            f"charge = {charge:.6f}",
            "",
        ]
    kinds = ("velocity world", "velocity body", "position world", "position body")
    for i in range(drones):
        ident = f"f{i:03d}"
        if i % 2 == 0:
            lines += _waypoints(rng, ident, lo, hi, 1.0, 6, (0.5, 2.0), 0.1)
            continue
        order = list(kinds) * 2
        rng.shuffle(order)
        lines += [f"[script {ident}]", "commands ="]
        tick = 0
        for k, kind in enumerate(order):
            if k:
                tick = max(tick, k * ticks // len(order) + rng.randrange(-3, 4))
            if kind == "position world":
                args = _vec(_point(rng, lo, hi, 1.0))
                angular = rng.uniform(-179.0, 179.0)
            elif kind == "position body":
                args = _vec((rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-1, 1)))
                angular = rng.uniform(-90.0, 90.0)
            else:
                args = _vec((rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                             rng.uniform(-0.3, 0.3)))
                angular = rng.uniform(-30.0, 30.0)
            lines.append(f"    {tick} {kind} {args} {_num(angular)}")
        lines.append("")
    return "\n".join(lines)


def swarm_readback(seed: int, drones: int = 10, ticks: int = 1000) -> str:
    """Like acceptance criterion 9: ten drones in the stock 3 x 3 x 3 m arena,
    each with a camera, a lit LED and a two-byte broadcast, plus a beacon;
    here they also drift slowly between waypoints, so what each sensor
    reports changes from tick to tick."""
    rng = random.Random(f"swarm-readback:{seed}")
    lo, hi = (-1.5, -1.5, 0.0), (1.5, 1.5, 3.0)
    lines = _header("swarm_readback", ticks, lo, hi)
    for i in range(drones):
        lines += [
            f"[drone r{i:02d}]",
            f"position = {_vec(_point(rng, lo, hi, 0.2))}",
            f"yaw = {_num(rng.uniform(-179.0, 179.0))}",
            "camera = on",
            f"rab_broadcast = {rng.randrange(1 << 16):04x}",
            "led_on = true",
            f"led_color = {_color(rng)}",
            "",
        ]
    for i in range(2):
        lines += [
            f"[light beacon{i}]",
            f"position = {_vec((rng.choice((-1.45, 1.45)), rng.uniform(-1.4, 1.4), rng.uniform(0.5, 2.5)))}",
            f"color = {_color(rng)}",
            "",
        ]
    for i in range(drones):
        lines += _waypoints(rng, f"r{i:02d}", lo, hi, 0.2, 3, (0.05, 0.2), 0.05)
    return "\n".join(lines)


GENERATORS = {
    "swarm-sensing": swarm_sensing,
    "fleet-flight": fleet_flight,
    "swarm-readback": swarm_readback,
}


# --------------------------------------------------------------------------
# cli-short: a fixed sequence of `python -m dronesim.cli` invocations.

SHIPPED = ("hover", "leg_x_1m", "battery_start", "two_drones_rab")


def cli_invocations(seed: int) -> list[dict]:
    """The CLI argument lists of one cli-short unit, in order.

    Each entry has ``args`` (after ``python -m dronesim.cli``), ``kind``
    (``run`` or ``experiment``) and, where the output has a second source to
    compare against, ``golden`` (shipped scenario name) or ``same_as``
    (index of the invocation whose CSVs must be byte-identical).
    ``{out}`` stands for the invocation's output directory and
    ``{emitted}`` for the file holding the ``--emit-scenario`` output.
    """
    # Narrow ranges keep the simulated ticks, and so the cost, nearly the
    # same for every seed: line2d runs 3/speed + 4 s, battery about
    # (charge - 0.30) / 0.005 + 5 s, a position leg leg/10 + 5 s.
    rng = random.Random(f"cli-short:{seed}")
    speed = f"{rng.uniform(0.48, 0.52):.3f}"
    charge = f"{rng.uniform(0.345, 0.355):.4f}"
    leg = f"{rng.uniform(2.0, 4.0):.3f}"
    calls = [
        {"kind": "run", "args": ["run", f"scenarios/{name}.scn", "--out", "{out}"],
         "golden": name}
        for name in SHIPPED
    ]
    calls += [
        {"kind": "experiment",
         "args": ["experiment", "line2d", "--speed", speed, "--out-dir", "{out}"]},
        {"kind": "experiment",
         "args": ["experiment", "battery", "--initial-charge", charge, "--out-dir", "{out}"]},
        {"kind": "experiment",
         "args": ["experiment", "position-legs", "--leg", leg, "--out-dir", "{out}"]},
        {"kind": "emit",
         "args": ["experiment", "position-legs", "--leg", leg, "--emit-scenario"]},
    ]
    calls.append({"kind": "run", "args": ["run", "{emitted}", "--out", "{out}"],
                  "same_as": len(calls) - 2})
    return calls
