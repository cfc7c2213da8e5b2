"""``python -m dronesim.cli`` with spans around its layers, for the traced
cli-short runs:

    cli_traced.py <trace.json> <dronesim arguments>...

The scenario loader, the renderer and the experiment builder that
``dronesim.cli`` imported are rebound to timing wrappers, ``main`` runs with
the given arguments and the spans are written to ``trace.json``.
"""

import sys
import time

T_START = time.monotonic_ns()
import dronesim.cli as cli  # noqa: E402  -- timed as import.ms
T_IMPORT = time.monotonic_ns()


def main(argv):
    import json

    import tracing

    tracer = tracing.Tracer()
    drones = [0]
    load = cli.load_scenario_file

    def load_counting(path):
        scenario = load(path)
        drones[0] += len(scenario.drones)
        return scenario

    layers = {
        "load_scenario_file": ("scenario.load", load_counting),
        "render_scenario": ("scenario.render", cli.render_scenario),
        "variants": ("experiments.build", cli.variants),
    }
    saved = {attr: getattr(cli, attr) for attr in layers}
    for attr, (name, fn) in layers.items():
        setattr(cli, attr, tracer.span(name, fn))
    outside = time.monotonic_ns()
    root = tracer.begin("cli.main")
    try:
        code = cli.main(argv[2:])
    finally:
        tracer.end(root)
        outside = time.monotonic_ns() - outside
        for attr, fn in saved.items():
            setattr(cli, attr, fn)
        sys.stdout.flush()
    totals = {"import": [T_IMPORT - T_START, 1], "drones_loaded": [drones[0], 0]}
    for name, start, end, _parent in tracer.spans:
        record = totals.setdefault(name, [0, 0])
        record[0] += end - start
        record[1] += 1
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump({"layers": totals,
                   "trace_error": tracing.check_tree(tracer.spans, tracer.rollups,
                                                    {"cli.main": outside})}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
