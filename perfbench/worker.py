"""One benchmark unit, run in a fresh interpreter by run.py.

    worker.py run   <out_dir> <trace 0|1> <scenario.scn>
    worker.py step  <out_dir> <trace 0|1> <scenario.scn>
    worker.py setup <out_dir> 0           <scenario.scn>...

``run`` advances the world with one ``run()`` call and never reads a
sensor; ``step`` advances it with ``step()`` and after every tick calls
``rab_read`` and ``camera_capture`` for every drone. Both then summarize
each trajectory and write one CSV per drone into ``out_dir``, as
``dronesim run`` does. ``setup`` only loads each scenario and creates its
world. The last stdout line is a JSON report whose times are
``time.monotonic_ns()`` stamps, comparable with the parent's.

With trace 1 the layer functions that ``dronesim.world`` calls are rebound
to timing wrappers for the unit and restored afterwards.
"""

import sys
import time

T_START = time.monotonic_ns()
import dronesim  # noqa: E402  -- timed as import.ms
T_IMPORT = time.monotonic_ns()

clock = time.perf_counter_ns

# Span names of the public entry points the workloads call.
ENTRY_POINTS = {
    "load_scenario": "scenario.load",
    "create_world": "world.create",
    "run": "world.run",
    "step": "world.step",
    "rab_read": "rab.read",
    "camera_capture": "camera.capture",
    "summarize": "trajectory.summarize",
    "trajectory_csv": "trajectory.csv",
    "write_text": "io.write",
}
SIM_SPANS = ("world.run", "world.step")
# Layer work under these spans is set-up, not simulation.
SETUP_SPANS = ("scenario.load", "world.create")
# Spans whose self time, without the layer work under them, is reported.
SELF_SPANS = {"world.run": "world.self", "world.step": "world.self",
              "rab.read": "rab.read.self", "camera.capture": "camera.capture.self"}
SAMPLE_EVERY = 100   # ticks between sensor readings kept for the digest


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


class Api:
    """The entry points a workload calls, optionally wrapped in spans."""

    def __init__(self, tracer=None):
        for attr, span_name in ENTRY_POINTS.items():
            fn = write_text if attr == "write_text" else getattr(dronesim, attr)
            setattr(self, attr, fn if tracer is None else tracer.span(span_name, fn))


def install_leaves(tracer):
    """Rebind the layer functions ``dronesim.world`` calls.

    Returns (undo list, names of layers whose function was not found). A
    missing function leaves its layer untimed instead of failing the unit.
    """
    import dronesim.world as world_mod
    from dronesim.battery import BatteryModel

    lit = [None, 0]

    def camera_counts(args, detections):
        world, drone = args
        key = (id(world), world.tick)
        if lit[0] != key:
            lit[0] = key
            lit[1] = sum(1 for d in world.drones if d.led_on)
        others_lit = lit[1] - (1 if drone.led_on else 0)
        return len(detections), len(world.lights) + others_lit

    targets = [
        (world_mod, "drone_control_step", "control", None),
        (world_mod, "make_reading", "rab", None),
        (world_mod, "_capture", "camera", camera_counts),
        (BatteryModel, "charge_at", "battery", None),
    ]
    undo = []
    missing = []
    for owner, attr, name, count in targets:
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(name)
            continue
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.leaf(name, original, count))
    return undo, missing


def simulate_run(api, world, ticks):
    """One run() call; returns (world, trajectories, samples)."""
    start = clock()
    world, trajectories = api.run(world, ticks)
    return world, trajectories, [(clock() - start, ticks)]


def sensor_digest(sensed) -> int:
    """CRC-32 of the repr of each drone's readings (float repr is exact).

    zlib is already loaded by ``import dronesim``, and hashing item by item
    keeps this check from raising the worker's peak RSS.
    """
    import zlib

    crc = 0
    for item in sensed:
        crc = zlib.crc32(repr(item).encode(), crc)
    return crc


def simulate_step(api, world, ticks, ids, counts):
    """step() per tick, reading every drone's sensors after each tick. The
    reads of every SAMPLE_EVERY-th tick are also returned, for the digest."""
    from dronesim import Trajectory, TrajectoryRow

    trajectories = {i: Trajectory(i, []) for i in ids}

    def record(w):
        t = w.tick * w.dt
        for i in ids:
            d = w.drone(i)
            trajectories[i].rows.append(TrajectoryRow(
                w.tick, t, d.x, d.y, d.z, d.yaw, d.vx, d.vy, d.vz, d.yaw_rate, d.charge,
            ))

    samples = []
    sampled = []
    messages = detections = 0
    record(world)
    for _ in range(ticks):
        start = clock()
        world = api.step(world)
        samples.append((clock() - start, 1))
        keep = world.tick % SAMPLE_EVERY == 0
        for i in ids:
            readings = api.rab_read(world, i)
            seen = api.camera_capture(world, i)
            messages += len(readings)
            detections += len(seen)
            if keep:
                sampled.append((readings, seen))
        record(world)
    counts["messages"] = messages
    counts["detections"] = detections
    return world, trajectories, samples, sampled


def main(argv):
    mode, out_dir, trace = argv[1], argv[2], argv[3] == "1"
    paths = argv[4:]
    tracer = None
    undo = []
    if trace:
        import tracing
        tracer = tracing.Tracer()
        undo, missing = install_leaves(tracer)
        root = tracer.begin("unit")
    api = Api(tracer)
    worlds = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            scenario = api.load_scenario(fh.read())
        worlds.append((scenario, api.create_world(scenario)))
    t_setup = time.monotonic_ns()
    report = {"t_start": T_START, "t_import": T_IMPORT, "t_setup": t_setup}
    if mode == "setup":
        report["t_done"] = t_setup
        return report

    import os

    import hostspeed

    scenario, world = worlds[0]
    ids = [spec.id for spec in scenario.drones]
    counts = {}
    # The host's speed right before and right after the simulation; the
    # time spent calibrating is reported so that wall time can leave it out.
    spent = clock()
    cals = [hostspeed.calibrate()]
    spent = clock() - spent
    try:
        if mode == "step":
            world, trajectories, samples, sensed = simulate_step(
                api, world, scenario.duration, ids, counts)
        else:
            world, trajectories, samples = simulate_run(api, world, scenario.duration)
        start = clock()
        cals.append(hostspeed.calibrate())
        spent += clock() - start
        summaries = {}
        csv_bytes = 0
        for drone_id in sorted(trajectories):
            traj = trajectories[drone_id]
            summaries[drone_id] = api.summarize(traj)
            text = api.trajectory_csv(traj)
            csv_bytes += len(text)
            api.write_text(os.path.join(out_dir, f"{scenario.name}_{drone_id}.csv"), text)
        report["t_done"] = time.monotonic_ns()
        if mode == "run":
            # Read once, after the timed part, from the final world only; still
            # traced, so sensing work deferred to the read is counted.
            sensed = [(world.drone(i).inbox, world.drone(i).detections) for i in ids]
            counts["messages"] = sum(len(inbox) for inbox, _ in sensed)
            counts["detections"] = sum(len(seen) for _, seen in sensed)
    finally:
        if tracer is not None:
            tracer.end(root)
        for owner, attr, original in undo:
            setattr(owner, attr, original)

    counts["sensors_crc32"] = sensor_digest(sensed)
    counts.update(
        rows=sum(len(traj.rows) for traj in trajectories.values()),
        csv_bytes=csv_bytes,
        grounded_ticks=sum(1 for traj in trajectories.values()
                           for row in traj.rows if row.charge == 0.0),
        grounded_drones=sum(1 for s in summaries.values()
                            if s.time_to_zero_charge is not None),
    )
    report.update(
        counts=counts,
        cals=cals,
        cal_spent_ns=spent,
        samples=samples,
        drone_ticks=len(ids) * scenario.duration,
        drones=len(ids),
    )
    if tracer is not None:
        report["layers"] = layer_totals(tracer)
        report["untimed_layers"] = missing
        # run()/step() as the worker's own clock saw them, around each call.
        outside = {SIM_SPANS[mode == "step"]: sum(ns for ns, _ in samples)}
        report["trace_error"] = tracing.check_tree(tracer.spans, tracer.rollups, outside)
    return report


def layer_totals(tracer):
    """Raw per-layer sums of one traced unit: {name: [ns, calls, items, projections]}.

    Spans give their whole duration under their own name and, for
    SELF_SPANS, their self time under the mapped name. Wrapped layer calls
    count wherever they ran except in set-up: inside the tick, or inside a
    public read such as camera_capture.
    """
    import tracing

    spans = tracer.spans
    out = {"import": [T_IMPORT - T_START, 1, 0, 0]}
    for (name, start, end, parent), own in zip(spans, tracing.self_times(spans, tracer.rollups)):
        record = out.setdefault(name, [0, 0, 0, 0])
        record[0] += end - start
        record[1] += 1
        if name in SELF_SPANS:
            record = out.setdefault(SELF_SPANS[name], [0, 0, 0, 0])
            record[0] += own
            record[1] += 1
    for (parent, name), record in tracer.rollups.items():
        if spans[parent][tracing.NAME] not in SETUP_SPANS:
            total = out.setdefault(name, [0, 0, 0, 0])
            for k in range(4):
                total[k] += record[k]
    return out


if __name__ == "__main__":
    import json

    result = main(sys.argv)
    print(json.dumps(result, separators=(",", ":")))
