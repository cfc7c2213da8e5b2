"""Self-test of the benchmark itself (not of the simulator):

    python3 perfbench/selftest.py

Checks that the generator is stable per seed, that self times come out
right on a synthetic span tree and are checked against an outside clock,
that times are scaled by the host-speed calibration taken around them,
that per-tick step() gives the same CSV bytes as one run() call, and that
every workload runs at tiny sizes in both modes and prints only metrics
that BENCHMARK.json declares, with the same units. Takes about half a
minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import dronesim  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

TINY = {"drones": 3, "ticks": 7}
UNREFERENCED_SEED = 1_000_003


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_text_other_seed_other_text(self):
        for name, make in gen.GENERATORS.items():
            with self.subTest(workload=name):
                first = make(5, 4, 20)
                self.assertEqual(first, make(5, 4, 20))
                self.assertNotEqual(first, make(6, 4, 20))
                scenario = dronesim.load_scenario(first)
                self.assertEqual(len(scenario.drones), 4)
                self.assertEqual(scenario.duration, 20)
        self.assertEqual(gen.cli_invocations(5), gen.cli_invocations(5))
        self.assertNotEqual(gen.cli_invocations(5), gen.cli_invocations(6))

    def test_default_sizes_load(self):
        for name, size in gen.SIZES.items():
            with self.subTest(workload=name):
                scenario = dronesim.load_scenario(
                    gen.GENERATORS[name](1, size["drones"], size["ticks"]))
                self.assertEqual(len(scenario.drones), size["drones"])

    def test_fleet_flight_grounds_every_fifth_drone(self):
        scenario = dronesim.load_scenario(gen.fleet_flight(3, 20, 1000))
        _, trajectories = dronesim.run_scenario(scenario)
        grounded = sorted(i for i, t in trajectories.items() if t.rows[-1].charge == 0.0)
        self.assertEqual(grounded, ["f000", "f005", "f010", "f015"])


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            ["root", 0, 100, -1],
            ["a", 10, 40, 0],
            ["b", 50, 90, 0],
            ["c", 60, 70, 2],
        ]
        rollups = {(1, "leaf"): [5, 3, 0, 0], (0, "leaf"): [7, 1, 0, 0]}
        self.assertEqual(tracing.self_times(spans, rollups), [23, 25, 30, 10])
        self.assertEqual(tracing.check_tree(spans, rollups, {"root": 100, "b": 41}), "")

    def test_outside_clock_disagreeing_is_reported(self):
        spans = [["root", 0, 100, -1], ["a", 10, 40, 0]]
        self.assertIn("measured", tracing.check_tree(spans, {}, {"root": 99}))
        self.assertIn("measured", tracing.check_tree(spans, {}, {"root": 200}))

    def test_overlapping_children_count_once(self):
        spans = [["root", 0, 100, -1], ["a", 10, 50, 0], ["b", 30, 60, 0]]
        self.assertEqual(tracing.self_times(spans, {})[0], 50)

    def test_rollup_longer_than_parent_is_reported(self):
        spans = [["root", 0, 10, -1]]
        self.assertIn("negative", tracing.check_tree(spans, {(0, "x"): [11, 1, 0, 0]}, {}))

    def test_wrappers_nest(self):
        tracer = tracing.Tracer()
        leaf = tracer.leaf("leaf", lambda x: x + 1, count=lambda args, r: (r, 1))
        outer = tracer.span("outer", lambda: leaf(1) + leaf(2))
        self.assertEqual(outer(), 5)
        self.assertEqual([s[0] for s in tracer.spans], ["outer"])
        self.assertEqual(tracer.rollups[(0, "leaf")][1:], [2, 5, 2])
        self.assertEqual(tracing.check_tree(tracer.spans, tracer.rollups, {}), "")


    def test_missing_layer_function_is_left_untimed(self):
        import dronesim.world as world_mod

        saved = world_mod._capture
        del world_mod._capture
        try:
            undo, missing = worker.install_leaves(tracing.Tracer())
            for owner, attr, original in undo:
                setattr(owner, attr, original)
        finally:
            world_mod._capture = saved
        self.assertEqual(missing, ["camera"])
        self.assertEqual(len(undo), 3)


class DrivingPathsTest(unittest.TestCase):
    def csv(self, trajectories):
        return [dronesim.trajectory_csv(trajectories[i]) for i in sorted(trajectories)]

    def test_step_matches_one_run(self):
        scenario = dronesim.load_scenario(gen.swarm_readback(2, 4, 23))
        world = dronesim.create_world(scenario)
        _, whole = dronesim.run(world, scenario.duration)
        ids = [d.id for d in scenario.drones]
        _, stepped, samples, _ = worker.simulate_step(
            worker.Api(), world, scenario.duration, ids, {})
        self.assertEqual(self.csv(stepped), self.csv(whole))
        self.assertEqual(len(samples), scenario.duration)


class SteadyTest(unittest.TestCase):
    def test_times_are_scaled_by_their_calibration(self):
        ref = run.CAL_REF_NS
        # The same work at full speed and on a host twice as slow, and one
        # segment whose host slowed down between its two calibrations.
        segments = [(100, (ref,)), (200, (2 * ref, 2 * ref)), (100, (ref, ref)),
                    (300, (ref, 2 * ref)), (200, (2 * ref,))]
        self.assertEqual(run.steady(segments), 100)
        self.assertEqual(run.steady([(50, (ref / 2, ref / 2))]), 100)


class TinyRunTest(unittest.TestCase):
    """Every workload through the real worker processes, at tiny sizes."""

    def setUp(self):
        self.saved = (dict(gen.SIZES), run.MIN_UNITS)
        for name in gen.SIZES:
            gen.SIZES[name] = dict(TINY)
        run.MIN_UNITS = 1
        self.declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        run.WORK.mkdir(exist_ok=True)

    def tearDown(self):
        gen.SIZES.clear()
        gen.SIZES.update(self.saved[0])
        run.MIN_UNITS = self.saved[1]

    def test_declared_metrics_match_run_tables(self):
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in self.declared[key]}
            self.assertEqual(declared, table)
        self.assertEqual([w["name"] for w in self.declared["workloads"]],
                         list(run.WORKLOADS))

    def test_every_workload_both_modes(self):
        self.assertNotIn(str(UNREFERENCED_SEED),
                         json.dumps(run.load_reference().get("fleet-flight", {})))
        declared = {m["name"]: m["unit"]
                    for key in ("end_to_end", "per_layer") for m in self.declared[key]}
        for workload in run.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    with contextlib.redirect_stdout(io.StringIO()):
                        result = run.run_workload(workload, UNREFERENCED_SEED, 0.0, trace)
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    expected = run.PER_LAYER if trace else run.END_TO_END
                    self.assertEqual(set(result["metrics"]), set(expected))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(declared.get(name), metric["unit"], name)
                        self.assertTrue(isinstance(metric["value"], (int, float)))
                    if not trace:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0.0, name)


def tearDownModule():
    run.clean_work()


if __name__ == "__main__":
    unittest.main()
