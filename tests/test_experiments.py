"""The built-in experiments: every default variant pinned as its rendered
scenario document, and position legs mirrored through the origin."""

from pathlib import Path

import pytest

from dronesim.experiments import EXPERIMENT_NAMES, variants
from dronesim.scenario import render_scenario
from dronesim.world import run_scenario

GOLDEN_VARIANTS = Path(__file__).resolve().parent / "golden" / "experiment_variants.txt"


def variant_corpus():
    """Every default variant of every experiment, then the position and yaw
    legs with truncated settle times: the report fields, then the document."""
    cases = [(name, v) for name in EXPERIMENT_NAMES for v in variants(name)]
    for name in ("position-legs", "yaw-legs"):
        cases += [(f"{name} truncated", v) for v in variants(name, truncate_settle=True)]
    return "".join(
        f"### {label} {v.params!r} {v.projections!r} {v.target!r} {v.target_yaw!r}\n"
        f"{render_scenario(v.scenario)}"
        for label, v in cases
    )


def test_every_variant_matches_golden_bytes():
    assert variant_corpus() == GOLDEN_VARIANTS.read_text(encoding="utf-8")


@pytest.mark.parametrize("leg", [1.0, 2.0, 5.0, 50.0])
def test_negative_leg_mirrors_positive_leg(leg):
    # A negative leg was given the +x arena and a signed duration: --leg -5
    # flew into the wall at x = -1.5 and stopped 10 rows early.
    (ahead,) = variants("position-legs", leg=leg)
    (behind,) = variants("position-legs", leg=-leg)
    _, ahead_rows = run_scenario(ahead.scenario)
    _, behind_rows = run_scenario(behind.scenario)
    ahead_rows, behind_rows = ahead_rows["cf1"].rows, behind_rows["cf1"].rows
    assert len(behind_rows) == len(ahead_rows)
    for a, b in zip(ahead_rows, behind_rows):
        assert b._replace(x=-b.x, vx=-b.vx) == a
