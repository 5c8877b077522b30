"""The engine's frame shortcuts against a reference with none.

simcore._sense skips the frame of a turn tick and of a tick at the ward,
looks a noise-free reading up in its table, takes clean bits or only the
control band, and detects placards only out to the reading range, which a
paused follower has only in the tick a Proceed reaches it. Each shortcut
claims the trace bytes of the plain chain: render, binarize and undistort
every tick, then detect the whole frame. The engine sees every frame from
the pose's x and y as np.float64, and so does the reference.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wardcart import simcore
from wardcart.arena import Action, default_map, load_map
from wardcart.mission import DECISION_RANGE, MissionPhase, MissionState, Role, SensorBundle
from wardcart.simcore import CONTROL_ROI, GATE_HALF_PX, SimConfig, run_scenario, trace_to_csv
from wardcart.vision.camera import WIDTH, CameraModel
from wardcart.vision.pipeline import (adaptive_binarize, detect_in_binary, line_centroid,
                                      undistort_bits)
from wardcart.vision.render import NoiseParams, render


def float64_pose(pose):
    """pose with x and y as np.float64, the precision of every engine frame."""
    return (np.float64(pose[0]), np.float64(pose[1]), pose[2])


def reference_sense(cart, track, config, inbox):
    """_sense without a shortcut, turn and ward ticks included: a whole
    rendered frame every tick, fully detected, with the same tracking gate.
    Every detection is passed on, for any phase and inbox: a step ignores
    the ones beyond its reading range."""
    cam = CameraModel(distortion_k1=config.noise.k1)
    cards = (cart.card,) if cart.card is not None else ()
    frame = render(track, float64_pose(cart.vehicle.pose), cam, config.noise, rng=cart.rng,
                   cards=cards)
    binary = undistort_bits(adaptive_binarize(frame), cam.distortion_k1)
    turning = cart.turn is not None
    if turning:
        cart.gate_x = None  # the view sweeps during a turn
    window = None
    if cart.gate_x is not None:
        window = (int(cart.gate_x) - GATE_HALF_PX, int(cart.gate_x) + GATE_HALF_PX + 1)
    line = line_centroid(binary, CONTROL_ROI, col_window=window)
    if not turning:
        cart.gate_x = line[0] if line is not None else None
    return SensorBundle(line=line, detections=detect_in_binary(binary),
                        loaded=cart.vehicle.loaded,
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
    # the control band alone never decides here, so band ticks sample the
    # whole clean frame
    "bright": (default_map(), SimConfig(wards=(2,), noise=NoiseParams(brightness=150.0))),
    "five_edges_twocart": (FIVE_EDGES, SimConfig(carts=2, wards=(3, 6),
                                                 noise=NoiseParams(k1=0.1))),
    # the follower pauses while the leader waits to unload, and resumes with
    # the first Proceed; each cart then waits at its ward while its link
    # drops messages. The leader's noise stream shows out of step from tick
    # 649 on, when a tick at the ward draws none
    "noisy_lossy_twocart": (default_map(), SimConfig(
        carts=2, wards=(1, 1), seed=4, link_drop=0.5, max_ticks=660,
        noise=NoiseParams(brightness=-30.0, sigma=8.0, k1=0.05))),
}


# a run that shares each case's approach from the pharmacy, so that the case
# starts on a table that already holds readings of it; a noisy tick looks
# nothing up, so one noisy case is warmed
WARM_UPS = {
    "ward5_clean": SimConfig(wards=(4,)),
    "twocart_drop": SimConfig(wards=(3,)),
    "noisy_distorted": SimConfig(wards=(2,), noise=NoiseParams(brightness=-30.0, k1=0.05)),
    "bright": SimConfig(wards=(1,), noise=NoiseParams(brightness=150.0)),
    "five_edges_twocart": SimConfig(wards=(6,), noise=NoiseParams(k1=0.1)),
}


def _hits_of_run(track, config):
    """(report, table hits during the run)."""
    before = simcore._table.cache_info().hits
    report = run_scenario(track, config)
    return report, simcore._table.cache_info().hits - before


def _assert_the_reference_bytes(monkeypatch, track, config, fast):
    with monkeypatch.context() as patch:
        patch.setattr(simcore, "_sense", reference_sense)
        slow = run_scenario(track, config)
    fast_lines, slow_lines = trace_to_csv(fast).splitlines(), trace_to_csv(slow).splitlines()
    same = fast_lines == slow_lines  # not in the assert: a diff of the traces takes minutes
    first = next((i for i, pair in enumerate(zip(fast_lines, slow_lines))
                  if pair[0] != pair[1]), min(len(fast_lines), len(slow_lines)))
    assert same, f"the traces part at line {first}"
    assert ([(v, type(v)) for v in fast.line_deviations]
            == [(v, type(v)) for v in slow.line_deviations])
    assert any("turn=" in ev.text for ev in fast.events)


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_engine_leaves_the_bytes_of_the_reference(monkeypatch, case):
    track, config = CASES[case]
    simcore._table.cache_clear()  # earlier tests fill it
    _assert_the_reference_bytes(monkeypatch, track, config, run_scenario(track, config))


@pytest.mark.parametrize("case", sorted(WARM_UPS))
def test_a_warm_table_leaves_the_bytes_of_the_reference(monkeypatch, case):
    track, config = CASES[case]
    simcore._table.cache_clear()
    _, cold = _hits_of_run(track, config)
    simcore._table.cache_clear()
    run_scenario(track, WARM_UPS[case])
    fast, warm = _hits_of_run(track, config)
    if config.noise.sigma == 0:
        assert warm > cold > 0  # the case read frames the warm-up made
    else:
        assert warm == cold == 0  # a noisy tick never looks up
    _assert_the_reference_bytes(monkeypatch, track, config, fast)


# missions whose next step reads placards to each range
READING = {None: MissionState(phase=MissionPhase.RETURNING),
           DECISION_RANGE: MissionState(phase=MissionPhase.OUTBOUND, target=2,
                                        leg_actions=(Action.RIGHT, Action.STOP),
                                        leg_triggers=(1.0, 1.5)),
           math.inf: MissionState()}


def _reference_reading(track, pose, card, noise, reach, window):
    cam = CameraModel(distortion_k1=noise.k1)
    frame = render(track, float64_pose(pose), cam, noise,
                   cards=(card,) if card is not None else ())
    binary = undistort_bits(adaptive_binarize(frame), noise.k1)
    line = line_centroid(binary, CONTROL_ROI, col_window=window)
    if reach is None:
        return line, ()
    return line, tuple(d for d in detect_in_binary(binary) if d.range_z < reach)


TYPE_SENSITIVE = (0.01088630715916037, 1.7597459177440231, 1.5373643062170363)


@settings(max_examples=40, deadline=None)
@given(x=st.sampled_from([0.0, -0.0]) | st.floats(-0.03, 0.03),
       y=st.floats(0.0, 4.0), heading=st.floats(math.pi / 2 - 0.2, math.pi / 2 + 0.2),
       brightness=st.sampled_from([-30.0, 0.0, 150.0]),
       card=st.none() | st.integers(1, 8),
       gate=st.none() | st.floats(0.0, WIDTH - 1.0))
@example(x=-0.0, y=0.9, heading=math.pi / 2, brightness=0.0, card=2, gate=80.0)
# about one pose in a hundred reads differently in float32 and in float64:
# both value types of it give the float64 reading
@example(x=TYPE_SENSITIVE[0], y=TYPE_SENSITIVE[1], heading=TYPE_SENSITIVE[2],
         brightness=0.0, card=None, gate=None)
def test_a_table_reading_is_the_reference_reading(track, x, y, heading, brightness, card, gate):
    """Every variant of one drawn pose that the key must tell apart: k1 0
    and 0.05, the three reading ranges and the gate window or none. Each
    first lookup equals the plain chain, and a second lookup equals the
    first. The pose's float and np.float64 forms are one key: they give one
    reading and make one table entry."""
    simcore._table.cache_clear()
    values = (x, y, heading)
    shown = simcore._make_card(card, values) if card is not None else None
    variants = list(itertools.product((0.0, 0.05), READING, (None, gate)))
    first = {}
    for _, kind in itertools.product(range(2), (float, np.float64)):
        for k1, reach, gate_x in variants:
            key = (k1, reach, gate_x)
            pose, noise = tuple(map(kind, values)), NoiseParams(brightness=brightness, k1=k1)
            cart = simcore._Cart(0, SimpleNamespace(role=Role.SOLO), pose,
                                 np.random.default_rng(0))
            cart.card, cart.mission, cart.gate_x = shown, READING[reach], gate_x
            sensed = simcore._sense(cart, track, SimConfig(noise=noise), [])
            got = (sensed.line, sensed.detections)
            if key not in first:
                window = None
                if gate_x is not None:
                    window = (int(gate_x) - GATE_HALF_PX, int(gate_x) + GATE_HALF_PX + 1)
                assert got == _reference_reading(track, pose, shown, noise, reach, window), key
                first[key] = got
            else:
                assert got == first[key], (kind, key)
    assert simcore._table.cache_info().currsize == len(first)


def test_both_value_types_of_a_pose_read_in_float64(track):
    """From an empty table each time, _sense gives one reading of a pose as
    Python floats and as np.float64, and that is the float64 frame's."""
    noise = NoiseParams()
    float32_frame = render(track, TYPE_SENSITIVE, CameraModel(), noise)
    assert (line_centroid(adaptive_binarize(float32_frame), CONTROL_ROI)
            != _reference_reading(track, TYPE_SENSITIVE, None, noise, None, None)[0])
    lines = []
    for kind in (float, np.float64):
        simcore._table.cache_clear()
        pose = tuple(map(kind, TYPE_SENSITIVE))
        cart = simcore._Cart(0, SimpleNamespace(role=Role.SOLO), pose, np.random.default_rng(0))
        cart.mission = READING[None]
        lines.append(simcore._sense(cart, track, SimConfig(noise=noise), []).line)
    assert lines[0] == lines[1] == _reference_reading(track, TYPE_SENSITIVE, None, noise,
                                                      None, None)[0]
