"""The engine's frame shortcuts against a reference with none.

simcore._sense skips the frame of a turn tick, reuses a still cart's frame,
takes clean bits or only the control band, and detects placards only out to
the reading range. Each shortcut claims the trace bytes of the plain chain:
render, binarize and undistort every tick, then detect the whole frame.
"""

import pytest

from wardcart import simcore
from wardcart.arena import default_map, load_map
from wardcart.mission import SensorBundle, reading_range
from wardcart.simcore import CONTROL_ROI, GATE_HALF_PX, SimConfig, run_scenario, trace_to_csv
from wardcart.vision.pipeline import (adaptive_binarize, detect_in_binary, line_centroid,
                                      undistort_bits)
from wardcart.vision.render import NoiseParams, render


def reference_sense(cart, track, cam, config, templates):
    """_sense without a shortcut, turn ticks included: a whole rendered frame
    every tick, fully detected, with the same tracking gate."""
    cards = (cart.card,) if cart.card is not None else ()
    frame = render(track, cart.vehicle.pose, cam, config.noise, rng=cart.rng, cards=cards)
    binary = undistort_bits(adaptive_binarize(frame), cam.distortion_k1)
    turning = cart.turn is not None
    if turning:
        cart.gate_x = None  # the view sweeps during a turn
    window = None
    if cart.gate_x is not None:
        window = (int(cart.gate_x) - GATE_HALF_PX, int(cart.gate_x) + GATE_HALF_PX + 1)
    line = line_centroid(binary, CONTROL_ROI, col_window=window)
    reach = None
    if not turning:
        cart.gate_x = line[0] if line is not None else None
        reach = reading_range(cart.mission, cart.mission_cfg, cart.vehicle.loaded)
    detections = []
    if reach is not None:
        detections = [d for d in detect_in_binary(binary, templates) if d.range_z < reach]
    return SensorBundle(line=line, detections=detections, loaded=cart.vehicle.loaded,
                        odometry_distance=cart.odometry)


# five edges at other angles and stub lengths than the default map's, with
# wards on both sides of one junction and straight on past it
FIVE_EDGES = load_map("""\
node p 0.0 0.0
node j1 1.25 0.0
node j2 2.25 0.0
node a 1.25 0.6
node b 1.25 -0.6
node c 2.25 0.7
edge e1 p j1
edge e2 j1 j2
edge e3 j1 a
edge e4 j1 b
edge e5 j2 c
ward 3 a
ward 6 c
pharmacy p
""")

CASES = {
    "ward5_clean": (default_map(), SimConfig(wards=(5,))),
    "twocart_drop": (default_map(), SimConfig(carts=2, wards=(1, 2), seed=3, link_drop=0.3)),
    # at sigma 4 the noise flips no bit, so a noise stream that drifts out
    # of step would not show; at sigma 8 and brightness -30 it does
    "noisy_distorted": (default_map(), SimConfig(
        wards=(1,), seed=2, max_ticks=700,
        noise=NoiseParams(brightness=-30.0, sigma=8.0, k1=0.05))),
    # the control band alone never decides here, so band ticks render
    "bright": (default_map(), SimConfig(wards=(2,), noise=NoiseParams(brightness=150.0))),
    "five_edges_twocart": (FIVE_EDGES, SimConfig(carts=2, wards=(3, 6),
                                                 noise=NoiseParams(k1=0.1))),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_engine_leaves_the_bytes_of_the_reference(monkeypatch, case):
    track, config = CASES[case]
    fast = run_scenario(track, config)
    monkeypatch.setattr(simcore, "_sense", reference_sense)
    slow = run_scenario(track, config)
    fast_lines, slow_lines = trace_to_csv(fast).splitlines(), trace_to_csv(slow).splitlines()
    same = fast_lines == slow_lines  # not in the assert: a diff of the traces takes minutes
    first = next((i for i, pair in enumerate(zip(fast_lines, slow_lines))
                  if pair[0] != pair[1]), min(len(fast_lines), len(slow_lines)))
    assert same, f"the traces part at line {first}"
    assert ([(v, type(v)) for v in fast.line_deviations]
            == [(v, type(v)) for v in slow.line_deviations])
    assert any("turn=" in ev.text for ev in fast.events)
