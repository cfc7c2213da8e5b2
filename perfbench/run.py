"""dronesim benchmark: one workload per call, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, both modes

Run from the root of a source checkout; nothing needs installing, workers
import the simulator from ``src/``. See perfbench/README.md for what each
workload and metric means.

A run repeats *units* for ``--seconds`` seconds, each in fresh processes,
one at a time: for swarm-sensing, fleet-flight and swarm-readback a unit is
one ``worker.py`` process; for cli-short it is two set-up probes followed by
the sequence of ``python -m dronesim.cli`` invocations from ``gen.py``.
Every unit's CSV bytes and simulated counts are checked against
``reference.json`` (or, for a seed it does not hold, against the run's
first unit), and cli-short also against ``tests/golden/``. End-to-end
times are medians over the units run in the host's fast state, scaled by a
host-speed calibration taken around each process (see ``steady``); memory
and layer figures are medians over units. With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` traced and untraced units alternate and the per-layer
metrics are printed. The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
from hostspeed import CAL_REF_NS, calibrate, pin_fastest_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("swarm-sensing", "fleet-flight", "swarm-readback", "cli-short")
DEFAULT_SEED = 1
MIN_UNITS = 3            # per run, whatever --seconds says
SETUP_PROBES = 2         # cli-short set-up probes per unit
RUN_LIMIT_S = 150.0      # stop starting units after this, to end within 180 s


END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "drone_ticks_per_s": "1/s",
    "tick_ms_p50": "ms",
    "tick_ms_p99": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.ms": "ms",
    "scenario.load_ms": "ms",
    "scenario.load_us_per_drone": "us",
    "scenario.render_ms": "ms",
    "experiments.build_ms": "ms",
    "world.create_ms": "ms",
    "world.self_us_per_drone_tick": "us",
    "control.us_per_drone_tick": "us",
    "control.calls": "count",
    "battery.us_per_drone_tick": "us",
    "battery.calls": "count",
    "rab.us_per_drone_tick": "us",
    "rab.readings_built": "count",
    "rab.readings_read": "count",
    "rab.read_ratio": "ratio",
    "rab.read_us_per_call": "us",
    "camera.us_per_drone_tick": "us",
    "camera.projections": "count",
    "camera.detections": "count",
    "camera.detection_ratio": "ratio",
    "camera.detections_read": "count",
    "camera.capture_us_per_call": "us",
    "trajectory.csv_us_per_row": "us",
    "trajectory.rows": "count",
    "trajectory.csv_bytes": "bytes",
    "trajectory.summarize_ms": "ms",
    "cli.invocations": "count",
    "cli.process_ms_p50": "ms",
    "tracing.overhead_frac": "ratio",
    "failed_frac": "ratio",
}


class Failure(Exception):
    """The checkout cannot run the benchmark."""


# --------------------------------------------------------------------------
# Processes

class Proc:
    __slots__ = ("code", "stdout", "stderr", "start", "end", "rss_kb", "cals")


def spawn(argv, timeout_s: float) -> Proc:
    """Run ``argv`` from the checkout root and wait for it.

    ``start``/``end`` are ``time.monotonic_ns()`` stamps taken just before
    the spawn and just after the process was reaped; ``rss_kb`` is the
    child's own peak resident set size from ``wait4``; ``cals`` are the
    calibrations on the child's CPU just before and just after it ran.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Cached bytecode, as an installed package has, whatever the caller set.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    result = Proc()
    err_path = WORK / f"stderr-{os.getpid()}.txt"
    before = pin_fastest_cpu()
    with open(err_path, "wb") as err:
        result.start = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
    killer = threading.Timer(max(timeout_s, 1.0), proc.kill)
    killer.start()
    try:
        result.stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        result.end = time.monotonic_ns()
        proc.returncode = result.code = os.waitstatus_to_exitcode(status)
        result.rss_kb = usage.ru_maxrss
    finally:
        killer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    result.cals = (before, calibrate())
    result.stderr = err_path.read_text(encoding="utf-8", errors="replace")
    return result


def csv_files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, data in sorted(files.items()):
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def data_rows(data: bytes) -> int:
    return data.count(b"\n") - 1   # minus the header


# --------------------------------------------------------------------------
# Units

class Context:
    """Everything one run of one workload needs, generated from the seed."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.deadline = deadline
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0
        self.expected = load_reference().get(workload, {}).get(str(seed))
        if workload == "cli-short":
            self.calls = gen.cli_invocations(seed)
            self.shipped = [str(ROOT / "scenarios" / f"{n}.scn") for n in gen.SHIPPED]
        else:
            size = gen.SIZES[workload]
            self.mode = "step" if workload == "swarm-readback" else "run"
            self.ticks = size["ticks"]
            self.drones = size["drones"]
            self.scenario = self.dir / f"{workload}.scn"
            self.scenario.write_text(
                gen.GENERATORS[workload](seed, size["drones"], size["ticks"]),
                encoding="utf-8")

    def fresh_dir(self) -> Path:
        self.count += 1
        path = self.dir / f"unit{self.count}"
        path.mkdir()
        return path

    def timeout(self) -> float:
        return self.deadline - time.monotonic()

    def check(self, signatures: list) -> list[bool]:
        """Per operation: does its signature match the expected one?"""
        if self.expected is None:
            self.expected = signatures
        return [i < len(self.expected) and sig == self.expected[i]
                for i, sig in enumerate(signatures)]


def worker_unit(ctx: Context, traced: bool) -> dict:
    out = ctx.fresh_dir()
    argv = [sys.executable, str(HERE / "worker.py"), ctx.mode, str(out),
            "1" if traced else "0", str(ctx.scenario)]
    proc = spawn(argv, ctx.timeout())
    unit = {"traced": traced, "proc": proc, "ok": [False], "report": None}
    files = csv_files(out)
    shutil.rmtree(out)
    if proc.code != 0:
        sys.stderr.write(f"worker exited {proc.code}:\n{proc.stderr}\n")
        return unit
    report = json.loads(proc.stdout.decode().splitlines()[-1])
    counts = report["counts"]
    signature = dict(counts, sha256=digest(files))
    sound = (counts["rows"] == ctx.drones * (ctx.ticks + 1)
             and len(files) == ctx.drones
             and report.get("trace_error", "") == "")
    if report.get("trace_error"):
        sys.stderr.write(f"trace check failed: {report['trace_error']}\n")
    if report.get("untimed_layers"):
        sys.stderr.write(f"layers not found, their metrics read 0: "
                         f"{', '.join(report['untimed_layers'])}\n")
    unit.update(report=report, signature=signature,
                ok=[sound and ctx.check([signature])[0]])
    return unit


def setup_probe(ctx: Context) -> Proc:
    probe_dir = ctx.fresh_dir()
    proc = spawn([sys.executable, str(HERE / "worker.py"), "setup", str(probe_dir),
                  "0", *ctx.shipped], ctx.timeout())
    probe_dir.rmdir()
    return proc


def cli_unit(ctx: Context, traced: bool) -> dict:
    unit_dir = ctx.fresh_dir()
    probes = []
    for _ in range(SETUP_PROBES):
        proc = setup_probe(ctx)
        if proc.code == 0:
            setup_ns = json.loads(proc.stdout.decode().splitlines()[-1])["t_setup"] - proc.start
            probes.append((setup_ns, proc.cals))
        else:
            sys.stderr.write(f"set-up probe exited {proc.code}:\n{proc.stderr}\n")
    emitted = unit_dir / "emitted.scn"
    invocations = []
    for index, call in enumerate(ctx.calls):
        out = unit_dir / str(index)
        out.mkdir()
        args = [a.replace("{out}", str(out)).replace("{emitted}", str(emitted))
                for a in call["args"]]
        trace_path = unit_dir / f"trace{index}.json"
        if traced:
            argv = [sys.executable, str(HERE / "cli_traced.py"), str(trace_path), *args]
        else:
            argv = [sys.executable, "-m", "dronesim.cli", *args]
        proc = spawn(argv, ctx.timeout())
        files = csv_files(out)
        if call["kind"] == "emit":
            emitted.write_bytes(proc.stdout)
            files = {"emitted.scn": proc.stdout}
        sound = proc.code == 0 and bool(files)
        if proc.code != 0:
            sys.stderr.write(f"{' '.join(args)}: exit {proc.code}\n{proc.stderr}\n")
        if "golden" in call:
            for name, data in files.items():
                golden = ROOT / "tests" / "golden" / name
                sound = sound and golden.is_file() and golden.read_bytes() == data
        if "same_as" in call:
            sound = sound and files == invocations[call["same_as"]]["files"]
        layers = None
        if traced and trace_path.is_file():
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
            layers = trace["layers"]
            sound = sound and trace["trace_error"] == ""
        elif traced:
            sound = False
        drone_ticks = sum(data_rows(d) for n, d in files.items() if n.endswith(".csv"))
        # A run invocation writes one CSV per drone of one scenario; an
        # experiment writes one single-drone CSV per variant.
        csvs = sum(1 for n in files if n.endswith(".csv"))
        world_ticks = drone_ticks // csvs if call["kind"] == "run" and csvs else drone_ticks
        invocations.append({
            "proc": proc, "files": files, "sound": sound, "layers": layers,
            "drone_ticks": drone_ticks, "world_ticks": world_ticks,
            "signature": {"sha256": digest(files), "rows": drone_ticks + csvs},
        })
    shutil.rmtree(unit_dir)
    matches = ctx.check([inv["signature"] for inv in invocations])
    return {
        "traced": traced,
        "probes": probes,
        "invocations": invocations,
        "ok": [inv["sound"] and match for inv, match in zip(invocations, matches)]
              + [True] * len(probes) + [False] * (SETUP_PROBES - len(probes)),
        "signature": [inv["signature"] for inv in invocations],
    }


# --------------------------------------------------------------------------
# Statistics

def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * q
    lo = math.floor(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def unit_wall_ns(unit: dict) -> int:
    if "invocations" in unit:
        return sum(inv["proc"].end - inv["proc"].start for inv in unit["invocations"])
    report = unit["report"]
    return report["t_done"] - unit["proc"].start - report["cal_spent_ns"]


def steady(segments) -> float:
    """Median of the times of ``segments``, pairs of (ns, calibrations taken
    around it), each scaled by CAL_REF_NS over the mean of its calibrations.

    The host's speed jumps between a fast state and one up to twice as
    slow, per vCPU, in stretches of a fraction of a second to seconds, and
    the share of a run spent in each differs from run to run; the
    calibrations around a segment say which state it ran in. Scaled this
    way, a run spent mostly in the slow state reads close to one spent
    mostly in the fast state, and the median drops the segments whose
    state changed between their calibrations.
    """
    return median(ns * CAL_REF_NS / statistics.fmean(cals) for ns, cals in segments)


def segments(unit: dict) -> dict:
    """A worker unit's timed segments, each with the calibrations around it:
    the parent's before and after the process, the worker's before and
    after the simulation."""
    report = unit["report"]
    before, after = unit["proc"].cals
    pre, post = report["cals"]
    samples = report["samples"]
    return {
        "setup": (report["t_setup"] - unit["proc"].start, (before, pre)),
        "wall": (unit_wall_ns(unit), (before, pre, post, after)),
        "sim": (sum(ns for ns, _ in samples), (pre, post)),
        "ticks": [(ns / n, (pre, post)) for ns, n in samples],
    }


def end_to_end(units: list[dict]) -> dict:
    """Time metrics through ``steady``; memory: the median over units."""
    if "invocations" in units[0]:
        return cli_end_to_end(units)
    parts = [segments(u) for u in units]
    sim_ns = steady(p["sim"] for p in parts)
    drone_ticks = units[0]["report"]["drone_ticks"]
    # Every unit simulates the same ticks, so each tick sample is taken
    # through steady across the units on its own; the percentiles are
    # over those per-tick values. A stall of the host during one unit
    # then moves one of many values of that tick, not the tail.
    ticks_ms = [steady(p["ticks"][k] for p in parts) / 1e6
                for k in range(len(parts[0]["ticks"]))]
    return {
        "setup_s": steady(p["setup"] for p in parts) / 1e9,
        "wall_s": steady(p["wall"] for p in parts) / 1e9,
        "drone_ticks_per_s": ratio(drone_ticks, sim_ns / 1e9),
        "tick_ms_p50": percentile(ticks_ms, 0.50),
        "tick_ms_p99": percentile(ticks_ms, 0.99),
        "peak_rss_mb": median(u["proc"].rss_kb for u in units) / 1024.0,
    }


def cli_end_to_end(units: list[dict]) -> dict:
    """cli-short: each invocation of the sequence is taken through
    ``steady`` over the units on its own, and the sequence is their sum.

    Tick latencies are percentiles over the invocations that simulate,
    each divided by the ticks it simulated.
    """
    probes = [probe for u in units for probe in u["probes"]]
    calls = []
    for k, first in enumerate(units[0]["invocations"]):
        procs = [u["invocations"][k]["proc"] for u in units]
        ns = steady((p.end - p.start, p.cals) for p in procs)
        calls.append((ns, first["drone_ticks"], first["world_ticks"]))
    wall_ns = sum(ns for ns, _, _ in calls)
    ticks_ms = [ns / world_ticks / 1e6 for ns, _, world_ticks in calls if world_ticks]
    return {
        "setup_s": steady(probes) / 1e9,
        "wall_s": wall_ns / 1e9,
        "drone_ticks_per_s": ratio(sum(n for _, n, _ in calls), wall_ns / 1e9),
        "tick_ms_p50": percentile(ticks_ms, 0.50),
        "tick_ms_p99": percentile(ticks_ms, 0.99),
        "peak_rss_mb": median(max(i["proc"].rss_kb for i in u["invocations"])
                              for u in units) / 1024.0,
    }


def unit_cals(unit: dict) -> tuple:
    """Every calibration taken around a unit."""
    if "invocations" in unit:
        return tuple(c for i in unit["invocations"] for c in i["proc"].cals)
    return unit["proc"].cals + tuple(unit["report"]["cals"])


def per_layer(units: list[dict]) -> dict:
    traced = [u for u in units if u["traced"]]
    plain = [u for u in units if not u["traced"]]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics["tracing.overhead_frac"] = ratio(
        steady((unit_wall_ns(u), unit_cals(u)) for u in traced),
        steady((unit_wall_ns(u), unit_cals(u)) for u in plain)) - 1.0
    if "invocations" in units[0]:
        metrics.update(cli_layers(traced, plain))
    else:
        metrics.update(worker_layers(traced))
    return metrics


def cli_layers(traced: list[dict], plain: list[dict]) -> dict:
    totals: dict[str, list] = {}
    imports = []
    for unit in traced:
        for inv in unit["invocations"]:
            imports.append(inv["layers"]["import"][0])
            for name, (ns, calls) in inv["layers"].items():
                record = totals.setdefault(name, [0, 0])
                record[0] += ns
                record[1] += calls
    load = totals.get("scenario.load", [0, 0])
    render = totals.get("scenario.render", [0, 0])
    build = totals.get("experiments.build", [0, 0])
    last = traced[-1]["invocations"]
    return {
        "import.ms": median(imports) / 1e6,
        "scenario.load_ms": ratio(load[0], load[1]) / 1e6,
        "scenario.load_us_per_drone": ratio(load[0], totals["drones_loaded"][0]) / 1e3,
        "scenario.render_ms": ratio(render[0], render[1]) / 1e6,
        "experiments.build_ms": ratio(build[0], build[1]) / 1e6,
        "trajectory.rows": sum(i["signature"]["rows"] for i in last),
        "trajectory.csv_bytes": sum(len(d) for i in last for n, d in i["files"].items()
                                    if n.endswith(".csv")),
        "cli.invocations": len(last),
        "cli.process_ms_p50": median((i["proc"].end - i["proc"].start) / 1e6
                                     for u in plain for i in u["invocations"]),
    }


def worker_layers(traced: list[dict]) -> dict:
    """Layer times are medians over traced units; counts are the first
    unit's (they repeat exactly)."""
    reports = [u["report"] for u in traced]
    first = reports[0]
    counts = first["counts"]
    step_mode = "world.step" in first["layers"]
    zero = [0, 0, 0, 0]

    def per(name, scale, by):
        """Median over traced units of layers[name][0] / by(report) * scale."""
        return median(ratio(r["layers"].get(name, zero)[0], by(r)) * scale for r in reports)

    def per_drone_tick_us(name):
        return per(name, 1e-3, lambda r: r["drone_ticks"])

    def per_call_us(name):
        return per(name, 1e-3, lambda r: r["layers"].get(name, zero)[1])

    def per_unit_ms(name):
        return per(name, 1e-6, lambda r: 1)

    layer = lambda name: first["layers"].get(name, zero)  # noqa: E731
    built = layer("rab")[1]
    read = counts["messages"] if step_mode else 0
    _, _, detections, projections = layer("camera")
    return {
        "import.ms": per_unit_ms("import"),
        "scenario.load_ms": per_unit_ms("scenario.load"),
        "scenario.load_us_per_drone": per("scenario.load", 1e-3, lambda r: r["drones"]),
        "world.create_ms": per_unit_ms("world.create"),
        "world.self_us_per_drone_tick": per_drone_tick_us("world.self"),
        "control.us_per_drone_tick": per_drone_tick_us("control"),
        "control.calls": layer("control")[1],
        "battery.us_per_drone_tick": per_drone_tick_us("battery"),
        "battery.calls": layer("battery")[1],
        "rab.us_per_drone_tick": per_drone_tick_us("rab"),
        "rab.readings_built": built,
        "rab.readings_read": read,
        "rab.read_ratio": ratio(read, built),
        "rab.read_us_per_call": per_call_us("rab.read.self"),
        "camera.us_per_drone_tick": per_drone_tick_us("camera"),
        "camera.projections": projections,
        "camera.detections": detections,
        "camera.detection_ratio": ratio(detections, projections),
        "camera.detections_read": counts["detections"] if step_mode else 0,
        "camera.capture_us_per_call": per_call_us("camera.capture.self"),
        "trajectory.csv_us_per_row": per("trajectory.csv", 1e-3, lambda r: r["counts"]["rows"]),
        "trajectory.rows": counts["rows"],
        "trajectory.csv_bytes": counts["csv_bytes"],
        "trajectory.summarize_ms": per_unit_ms("trajectory.summarize"),
    }


# --------------------------------------------------------------------------
# Runs

def load_reference() -> dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


def clean_work() -> None:
    """Remove this process's leftovers, and the work directory once empty."""
    (WORK / f"stderr-{os.getpid()}.txt").unlink(missing_ok=True)
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()


def check_checkout(workload: str) -> None:
    needed = [ROOT / "src" / "dronesim" / "__init__.py"]
    if workload == "cli-short":
        needed += [ROOT / "scenarios", ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        raise Failure(f"not a dronesim source checkout (missing {', '.join(missing)})")


def warm_up(ctx: Context) -> None:
    """Compile the simulator's and the tracer's bytecode before timing."""
    proc = spawn([sys.executable, "-c",
                  f"import sys; sys.path.insert(0, {str(HERE)!r}); "
                  "import dronesim.cli, tracing"], ctx.timeout())
    if proc.code != 0:
        raise Failure(f"cannot import dronesim from src/:\n{proc.stderr}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Units for ``seconds`` seconds; returns the contract's result object."""
    started = time.monotonic()
    ctx = Context(workload, seed, started + RUN_LIMIT_S + 20.0)
    try:
        warm_up(ctx)
        unit_fn = cli_unit if workload == "cli-short" else worker_unit
        units = []
        while True:
            traced = trace and len(units) % 2 == 1
            units.append(unit_fn(ctx, traced))
            elapsed = time.monotonic() - started
            enough = len(units) >= (2 * MIN_UNITS if trace else MIN_UNITS)
            if (elapsed >= seconds and enough) or elapsed >= RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(ctx.dir, ignore_errors=True)
    attempted = sum(len(u["ok"]) for u in units)
    failed = sum(1 for u in units for ok in u["ok"] if not ok)
    # Metrics come from the units whose every operation passed.
    good = [u for u in units if all(u["ok"])]
    kinds = {u["traced"] for u in good}
    measurable = kinds == {False, True} if trace else bool(good)
    metrics = {}
    if measurable:
        if trace:
            values = per_layer(good)
            values["failed_frac"] = ratio(failed, attempted)
        else:
            values = end_to_end(good)
        units_of = PER_LAYER if trace else END_TO_END
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units_of.items()}
    correct = failed == 0 and measurable
    sig = units[0].get("signature")
    # The host's speed during the run: untraced units' calibrations.
    cals = [c / 1e6 for u in good if not u["traced"] for c in unit_cals(u)]
    host = f"cal_ms_min={min(cals):.3f} cal_ms_median={median(cals):.3f}" if cals else ""
    print(f"workload={workload} seed={seed} trace={int(trace)} units={len(units)} "
          f"attempted={attempted} failed={failed} {host} "
          f"signature={json.dumps(sig, sort_keys=True, separators=(',', ':'))}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_metrics(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"workload={workload} metric={name} value={m['value']!r} unit={m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            check_checkout(workload)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print_metrics(args.workload, result)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (False, True):
                result = run_workload(workload, args.seed, args.seconds, trace)
                print_metrics(workload, result)
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for name, m in result["metrics"].items():
                    combined["metrics"][f"{workload}/{name}"] = m
        print(json.dumps(combined))
        return 0 if combined["correct"] else 1
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        clean_work()


if __name__ == "__main__":
    sys.exit(main())
