import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wardcart import simcore
from wardcart.arena import (Action, load_map, nearest_centerline_distance, route_progress,
                            route_to)
from wardcart.comms import Message, MessageKind
from wardcart.mission import (DECISION_RANGE, PROCEED_RETRY_TICKS, WARD_PHASES, Intent,
                              MissionPhase, MissionState, Role, mission_step, reading_range)
from wardcart.simcore import (BASE_DUTY, CONFIG_KEYS, GAINS, CartOutcome, PoseSample,
                              SimConfig, TraceReport, _deviation_of, _header, config_from_keys,
                              render_svg, run_scenario, trace_to_csv)
from wardcart.vehicle import V_MAX
from wardcart.vision.camera import CameraModel
from wardcart.vision.pipeline import adaptive_binarize, detect_in_binary, undistort_bits
from wardcart.vision.render import NoiseParams, _scratch, clean_bits, render

from test_golden import GOLDEN

LEGAL_NEXT = {
    MissionPhase.AWAIT_TARGET: {MissionPhase.AWAIT_LOAD, MissionPhase.FAULT},
    MissionPhase.AWAIT_LOAD: {MissionPhase.OUTBOUND, MissionPhase.FAULT},
    MissionPhase.OUTBOUND: {MissionPhase.PAUSED_AT_POINT, MissionPhase.AT_WARD,
                            MissionPhase.FAULT},
    MissionPhase.PAUSED_AT_POINT: {MissionPhase.OUTBOUND, MissionPhase.FAULT},
    MissionPhase.AT_WARD: {MissionPhase.AWAIT_UNLOAD, MissionPhase.FAULT},
    MissionPhase.AWAIT_UNLOAD: {MissionPhase.RETURNING, MissionPhase.FAULT},
    MissionPhase.RETURNING: {MissionPhase.DONE, MissionPhase.FAULT},
    MissionPhase.DONE: set(),
    MissionPhase.FAULT: set(),
}


def fabricated_samples(points, phase=MissionPhase.OUTBOUND):
    return [PoseSample(t, 0, x, y, 0.0, phase, False, False)
            for t, (x, y) in enumerate(points)]


def test_zero_tick_budget_is_incomplete_with_no_events(track):
    report = run_scenario(track, SimConfig(wards=(2,), max_ticks=0))
    assert report.outcomes == (CartOutcome.INCOMPLETE,)
    assert report.events == ()
    assert report.samples == ()
    assert report.completion_ticks == 0


def test_cart_without_payload_never_departs(track, monkeypatch):
    monkeypatch.setattr(simcore, "LOAD_DELAY_TICKS", 10 ** 9)
    report = run_scenario(track, SimConfig(wards=(2,), max_ticks=250))
    assert report.outcomes == (CartOutcome.INCOMPLETE,)
    last = report.samples[-1]
    assert last.phase is MissionPhase.AWAIT_LOAD
    assert (last.x, last.y) == (0.0, 0.0)


def test_ward_two_clean_run_delivers_and_returns(track):
    report = run_scenario(track, SimConfig(wards=(2,), max_ticks=9000, seed=1))
    assert report.outcomes == (CartOutcome.DELIVERED_AND_RETURNED,)
    assert report.recognized == (2,)
    assert report.max_line_deviation < 0.10


def test_deviation_of_on_line_trace_is_zero(track):
    pts = [(0.0, 0.1 * i) for i in range(10)]
    assert _deviation_of(track, fabricated_samples(pts), 0) == pytest.approx(0.0)


def test_deviation_of_offset_trace_matches_construction(track):
    pts = [(0.03, 0.2 + 0.05 * i) for i in range(8)]
    got = _deviation_of(track, fabricated_samples(pts), 0)
    assert got == pytest.approx(0.03, abs=1e-9)


def test_deviation_ignores_halted_phases(track):
    pts = [(0.25, 0.5)]
    samples = fabricated_samples(pts, phase=MissionPhase.AWAIT_LOAD)
    assert _deviation_of(track, samples, 0) == 0.0


def scalar_deviation(track, samples, cart):
    """The per-sample loop that _deviation_of must equal by value and type."""
    worst = 0.0
    for s in samples:
        if s.cart == cart and s.phase in (MissionPhase.OUTBOUND, MissionPhase.RETURNING):
            worst = max(worst, nearest_centerline_distance(track, (s.x, s.y)))
    return worst


@st.composite
def small_maps(draw):
    """A tree map on a 0.25 m grid, so that samples often lie at equal
    distances from two segments. The first two edges are collinear on either
    side of the pharmacy, and the last has length zero."""
    grid = st.integers(-8, 8).map(lambda v: v / 4)
    nodes = {"p": (0.0, 0.0), "u": (0.0, 1.0), "d": (0.0, -1.0)}
    edges = [("p", "u"), ("p", "d")]
    for i in range(draw(st.integers(0, 4))):
        edges.append((draw(st.sampled_from(sorted(nodes))), f"n{i}"))
        nodes[f"n{i}"] = (draw(grid), draw(grid))
    twin = draw(st.sampled_from(sorted(nodes)))
    nodes["z"] = nodes[twin]
    edges.append((twin, "z"))
    text = "".join(f"node {n} {x!r} {y!r}\n" for n, (x, y) in nodes.items())
    text += "".join(f"edge e{i} {a} {b}\n" for i, (a, b) in enumerate(edges))
    return load_map(text + "pharmacy p\n")


def pose_samples():
    """Samples of carts 0 and 1 in any phase; x and y on a 1/8 m grid or
    anywhere, as Python floats or NumPy float64."""
    coord = st.integers(-24, 24).map(lambda v: v / 8) | st.floats(-3, 3)
    sample = st.tuples(st.integers(0, 1), st.sampled_from(list(MissionPhase)), coord, coord,
                       st.booleans())
    return st.lists(sample, max_size=40).map(lambda rows: [
        PoseSample(t, cart, np.float64(x) if wrap else x, np.float64(y) if wrap else y,
                   0.0, phase, False, False)
        for t, (cart, phase, x, y, wrap) in enumerate(rows)])


# np.hypot of this sample's offset from (0, -1) is one bit below math.hypot's
HYPOT_DIFFERS = [PoseSample(0, 0, -0.723, -1.882, 0.0, MissionPhase.OUTBOUND, False, False)]


@settings(deadline=None)
@given(track=small_maps(), samples=pose_samples())
@example(track=load_map("node p 0 0\nnode u 0 1\nnode d 0 -1\nedge pu p u\nedge pd p d\n"
                        "pharmacy p\n"), samples=HYPOT_DIFFERS)
def test_deviation_of_equals_the_scalar_reference(track, samples):
    on_line = (MissionPhase.OUTBOUND, MissionPhase.RETURNING)
    for cart in (0, 1):
        got = _deviation_of(track, samples, cart)
        assert type(got) is float
        assert got == scalar_deviation(track, samples, cart)
        if not any(s.cart == cart and s.phase in on_line for s in samples):
            assert got == 0.0


def test_traces_are_byte_identical_for_equal_seeds(track):
    cfg = SimConfig(wards=(3,), max_ticks=9000, seed=7,
                    noise=NoiseParams(brightness=10, sigma=4.0, k1=0.05))
    a = trace_to_csv(run_scenario(track, cfg))
    b = trace_to_csv(run_scenario(track, cfg))
    assert a.encode() == b.encode()
    c = trace_to_csv(run_scenario(track, SimConfig(wards=(3,), max_ticks=9000, seed=8,
                                                   noise=cfg.noise)))
    assert a != c


def test_dt_halving_keeps_mission_time(track):
    a = run_scenario(track, SimConfig(wards=(2,), max_ticks=9000, seed=0, dt=0.02))
    b = run_scenario(track, SimConfig(wards=(2,), max_ticks=18000, seed=0, dt=0.01))
    assert a.outcomes == b.outcomes == (CartOutcome.DELIVERED_AND_RETURNED,)
    ta = a.completion_ticks * 0.02
    tb = b.completion_ticks * 0.01
    assert abs(ta - tb) / ta < 0.10


def test_no_teleportation(track):
    cfg = SimConfig(wards=(4,), max_ticks=9000, seed=2)
    report = run_scenario(track, cfg)
    prev = None
    for s in report.samples:
        if prev is not None:
            jump = math.hypot(s.x - prev.x, s.y - prev.y)
            assert jump <= V_MAX * cfg.dt + 1e-9
        prev = s


def test_led_phase_coupling_every_tick(track):
    cfg = SimConfig(carts=2, wards=(4, 4), max_ticks=9000, seed=3)
    report = run_scenario(track, cfg)
    for s in report.samples:
        assert s.led_red == (s.phase in (MissionPhase.AT_WARD, MissionPhase.AWAIT_UNLOAD))
        assert s.led_yellow == (s.phase is MissionPhase.PAUSED_AT_POINT)
    # the follower really pauses in this choreography
    assert any(s.led_yellow for s in report.samples if s.cart == 1)


def test_phase_sequence_is_the_legal_chain(track):
    cfg = SimConfig(carts=2, wards=(3, 3), max_ticks=9000, seed=4, link_drop=0.3)
    report = run_scenario(track, cfg)
    for cart in (0, 1):
        seq = [s.phase for s in report.samples if s.cart == cart]
        for a, b in zip(seq, seq[1:]):
            if a is not b:
                assert b in LEGAL_NEXT[a], (a, b)
        collapsed = [seq[0]]
        for p in seq[1:]:
            if p is not collapsed[-1]:
                collapsed.append(p)
        # no phase repeats except Outbound around a pause
        seen = set()
        for p in collapsed:
            if p in seen:
                assert p is MissionPhase.OUTBOUND
            seen.add(p)


def _leader_faults_in(phase):
    """mission_step, except that the leader faults in its step from phase."""
    def step(state, cfg, sensors, inbox, tick):
        intent, outbox, new = mission_step(state, cfg, sensors, inbox, tick)
        if cfg.role is Role.LEADER and state.phase is phase:
            new.phase, new.fault_reason, intent = MissionPhase.FAULT, "forced", Intent.HALT
        return intent, outbox, new
    return step


@pytest.mark.parametrize("label, fault_in", [
    ("clean_ward1", None), ("noisy_ward2", None), ("twocart_1_2", None),
    ("twocart_1_2", MissionPhase.AT_WARD), ("twocart_1_2", MissionPhase.RETURNING)])
def test_the_schedule_shows_the_card_and_moves_the_payload_once(track, monkeypatch, label,
                                                                 fault_in):
    config = GOLDEN[label][0]
    if fault_in is not None:
        monkeypatch.setattr(simcore, "mission_step", _leader_faults_in(fault_in))
        config = replace(config, link_drop=0.0, max_ticks=4000)
    report = run_scenario(track, config)
    assert (report.outcomes[0] is CartOutcome.FAULT) == (fault_in is not None)
    began, last = {}, {}  # (tick, cart) -> the phase the cart began that tick in
    for s in report.samples:
        began[s.tick, s.cart] = last.get(s.cart, MissionPhase.AWAIT_TARGET)
        last[s.cart] = s.phase
    delivered_at = min(s.tick for s in report.samples
                       if s.cart == 0 and s.phase is MissionPhase.AT_WARD)
    for cart in range(config.carts):
        events = [(ev.tick, ev.text.partition("=")[0] if ev.text.startswith("card") else ev.text)
                  for ev in report.events if ev.cart == cart
                  and ev.text.startswith(("card_shown=", "payload="))]
        kinds = [kind for _, kind in events]
        assert len(kinds) == len(set(kinds)), kinds
        for tick, kind in events:
            if kind == "payload=on":
                assert began[tick, cart] is MissionPhase.AWAIT_LOAD
            elif kind == "payload=off":
                assert began[tick, cart] is MissionPhase.AWAIT_UNLOAD
            elif cart == 1:  # the follower's card shows once the lead cart has delivered
                assert tick >= delivered_at
        if report.outcomes[cart] is CartOutcome.DELIVERED_AND_RETURNED:
            assert sorted(kinds) == ["card_shown", "payload=off", "payload=on"]


def test_outcome_consistent_with_final_phase(track):
    report = run_scenario(track, SimConfig(wards=(6,), max_ticks=9000, seed=5))
    final = [s for s in report.samples if s.cart == 0][-1]
    assert final.phase is MissionPhase.DONE
    assert report.outcomes[0] is CartOutcome.DELIVERED_AND_RETURNED
    px, py = track.node_pos(track.pharmacy)
    assert math.hypot(final.x - px, final.y - py) <= simcore.PHARMACY_RADIUS


def test_route_progress_projects_onto_the_plan(track):
    route = route_to(track, 4)
    assert route_progress(track, route, (0.0, 0.0)) == pytest.approx(0.0)
    assert route_progress(track, route, (0.0, 1.3)) == pytest.approx(1.3)
    assert route_progress(track, route, (0.2, 2.0)) == pytest.approx(2.2, abs=0.01)


def test_svg_contains_map_and_paths(track):
    report = run_scenario(track, SimConfig(wards=(1,), max_ticks=9000, seed=0))
    svg = render_svg(track, report)
    assert svg.startswith("<svg")
    assert "<polyline" in svg
    assert svg.count("<circle") == len(track.nodes)


def test_trace_header_carries_config_and_generator(track):
    report = run_scenario(track, SimConfig(wards=(1,), max_ticks=50, seed=9))
    text = trace_to_csv(report)
    head = [ln for ln in text.splitlines() if ln.startswith("#")]
    assert any("generator=lcg64" in ln for ln in head)
    assert any("seed=9" in ln for ln in head)
    assert "tick,cart,x,y,heading,phase,event" in text


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(max_ticks=-1)
    with pytest.raises(ValueError):
        SimConfig(carts=3, wards=(1, 2, 3))
    with pytest.raises(ValueError):
        SimConfig(carts=1, wards=(1, 2))
    with pytest.raises(ValueError):
        SimConfig(wards=(9,))
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError):
            SimConfig(seed=seed)
    assert SimConfig(seed=2 ** 64 - 1).seed == 2 ** 64 - 1


@settings(max_examples=40, deadline=None)
@given(dt=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False,
                    allow_subnormal=True))
@example(dt=5e-324)  # 1/dt overflows to inf, which round() cannot take
@example(dt=1e308)   # dt / REFERENCE_DT overflows, and with it the rescaled ki
# the cart leaves the map in one tick: a turn's angle holds about 1e300
# full turns, and the pose is far past any map raster
@example(dt=1e300)
def test_a_positive_dt_is_rejected_or_runs(track, dt):
    try:
        config = SimConfig(dt=dt, wards=(2,), max_ticks=40)
    except ValueError:
        return
    assert isinstance(run_scenario(track, config), TraceReport)


def _count_frames(monkeypatch) -> list[str]:
    """A list that gains the maker's name for every frame the engine makes:
    a render or clean bits."""
    frames = []
    render_frame, bits = simcore.render, simcore.clean_bits

    def spy_render(*args, **kwargs):
        frames.append("render")
        return render_frame(*args, **kwargs)

    def spy_bits(*args, **kwargs):
        frames.append("clean_bits")
        return bits(*args, **kwargs)

    monkeypatch.setattr(simcore, "render", spy_render)
    monkeypatch.setattr(simcore, "clean_bits", spy_bits)
    return frames


def _reach(cart, inbox):
    """The range the cart's next mission step, which reads inbox, reads
    placards to, or None."""
    if cart.turn is not None:
        return None
    return reading_range(cart.mission, cart.mission_cfg, cart.vehicle.loaded, inbox)


def test_detection_runs_only_when_the_mission_can_read_it(track, monkeypatch):
    """On a cart-tick with no latched turn and a reading range, _sense
    supplies the detections of that tick's frame nearer than the range,
    whether it rendered the frame or reused last tick's; on every other tick
    it supplies none."""
    sensed = []
    sense = simcore._sense

    def spy_sense(cart, track, config, inbox):
        pose, card, phase = cart.vehicle.pose, cart.card, cart.mission.phase
        reach = _reach(cart, inbox)
        readable = reach is not None
        sensors = sense(cart, track, config, inbox)
        if readable:
            frame = render(track, pose, CameraModel(config.noise.k1), config.noise,
                           cards=(card,) if card is not None else ())
            binary = undistort_bits(adaptive_binarize(frame), config.noise.k1)
            assert sensors.detections == tuple(d for d in detect_in_binary(binary)
                                               if d.range_z < reach)
        else:
            assert sensors.detections == ()
        sensed.append((readable, phase, bool(sensors.detections)))
        return sensors

    monkeypatch.setattr(simcore, "_sense", spy_sense)
    frames = _count_frames(monkeypatch)
    simcore._table.cache_clear()  # earlier tests fill it
    report = run_scenario(track, SimConfig(wards=(1,), seed=0))
    assert report.outcomes == (CartOutcome.DELIVERED_AND_RETURNED,)
    assert any(not readable for readable, _, _ in sensed)  # turns and unread phases
    assert {phase for readable, phase, _ in sensed if readable} >= {
        MissionPhase.AWAIT_TARGET, MissionPhase.AWAIT_LOAD, MissionPhase.OUTBOUND}
    assert any(found for _, _, found in sensed)
    assert len(frames) < len(sensed)  # some ticks looked their reading up


def _readable_ticks_and_calls(track, monkeypatch, config, layer):
    """(cart-ticks the mission can read placards on, calls of simcore.<layer>,
    cart-ticks sensed, of them those with a latched turn, those at the ward,
    phases seen) over one run."""
    readable, turning, at_ward, calls, phases = [], [], [], [], set()
    sense, original = simcore._sense, getattr(simcore, layer)

    def spy_sense(cart, track, config, inbox):
        phases.add(cart.mission.phase)
        readable.append(_reach(cart, inbox) is not None)
        turning.append(cart.turn is not None)
        at_ward.append(cart.mission.phase in WARD_PHASES)
        return sense(cart, track, config, inbox)

    def spy_layer(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(simcore, "_sense", spy_sense)
    monkeypatch.setattr(simcore, layer, spy_layer)
    run_scenario(track, config)
    return sum(readable), len(calls), len(readable), sum(turning), sum(at_ward), phases


def test_a_paused_follower_is_not_read_again(track, monkeypatch):
    config = SimConfig(carts=2, wards=(1, 2), seed=5, link_drop=0.5)
    readable, calls, _, _, _, phases = _readable_ticks_and_calls(
        track, monkeypatch, config, "detect_in_binary")
    assert MissionPhase.PAUSED_AT_POINT in phases
    assert calls < readable


def test_a_paused_follower_fixes_the_line_alone_until_a_proceed_reaches_it(track,
                                                                          monkeypatch):
    """A paused tick without a Proceed detects nothing and makes at most a
    band-only frame, because the tracking gate still needs the line; the
    tick a Proceed reaches makes a whole frame and reads it to
    DECISION_RANGE."""
    work, paused = [], []
    sense, bits, detect = simcore._sense, simcore.clean_bits, simcore.detect_in_binary

    def spy_sense(cart, track, config, inbox):
        before = len(work)
        sensors = sense(cart, track, config, inbox)
        if cart.mission.phase is MissionPhase.PAUSED_AT_POINT:
            proceed = any(m.kind is MessageKind.PROCEED for m in inbox)
            paused.append((proceed, work[before:]))
        return sensors

    monkeypatch.setattr(simcore, "_sense", spy_sense)
    monkeypatch.setattr(simcore, "clean_bits",
                        lambda *a: work.append(("clean_bits", a[-1])) or bits(*a))
    monkeypatch.setattr(simcore, "detect_in_binary", lambda binary, reach: work.append(
        ("detect_in_binary", reach)) or detect(binary, reach))
    simcore._table.cache_clear()  # earlier tests fill it
    report = run_scenario(track, SimConfig(carts=2, wards=(1, 2), seed=5, link_drop=0.5))
    assert report.outcomes == (CartOutcome.DELIVERED_AND_RETURNED,) * 2
    *waiting, (proceed, resumed) = paused
    assert len(waiting) > 50 and not any(p for p, _ in waiting)
    assert all(made in ([], [("clean_bits", simcore.CONTROL_ROI)]) for _, made in waiting)
    assert any(made for _, made in waiting)  # the cart creeps to a halt
    assert proceed and resumed == [("clean_bits", None), ("detect_in_binary", DECISION_RANGE)]


def test_a_noisy_run_renders_every_sensed_tick(track, monkeypatch):
    config = SimConfig(wards=(1,), seed=2, max_ticks=400, noise=NoiseParams(sigma=4.0))
    frames = _count_frames(monkeypatch)
    _, _, sensed, turning, at_ward, phases = _readable_ticks_and_calls(
        track, monkeypatch, config, "detect_in_binary")
    assert MissionPhase.AWAIT_LOAD in phases  # the cart stood still at the pharmacy
    assert turning > 0 and at_ward > 0  # and a turn tick or one at the ward makes no frame
    assert frames == ["render"] * (sensed - turning - at_ward)


def test_a_frame_is_reused_only_when_noise_free_and_pose_and_card_are_the_same(
        track, monkeypatch):
    frames, detects = _count_frames(monkeypatch), []
    detect = simcore.detect_in_binary
    monkeypatch.setattr(simcore, "detect_in_binary",
                        lambda *a, **k: detects.append(1) or detect(*a, **k))
    simcore._table.cache_clear()  # earlier tests fill it
    start = simcore._start_pose(track, 2)
    cart = simcore._Cart(0, SimpleNamespace(role=Role.SOLO), start, np.random.default_rng(0))
    clean = SimConfig()

    def step(config=clean, gate=None):
        cart.gate_x = gate  # the tracking gate is part of the key too
        before = len(frames), len(detects)
        sensors = simcore._sense(cart, track, config, [])
        return len(frames) - before[0], len(detects) - before[1], sensors

    assert step()[:2] == (1, 1)
    assert step()[:2] == (0, 0)
    assert step(gate=80.0)[:2] == (1, 1)
    assert step(gate=80.0)[:2] == (0, 0)
    # equal values of another type: every frame is seen in float64
    cart.vehicle = replace(cart.vehicle, pose=tuple(np.float64(v) for v in start))
    assert step()[:2] == (0, 0)
    cart.vehicle = replace(cart.vehicle, pose=(start[0] + 1e-9, start[1], start[2]))
    assert step()[:2] == (1, 1)
    cart.card = simcore._make_card(2, start)
    made, _, shown = step()
    assert made == 1 and [d.digit for d in shown.detections] == [2]
    assert step()[:2] == (0, 0)
    cart.card = replace(cart.card)  # an equal card, but another object
    assert step()[:2] == (0, 0)
    # a turn tick supplies no placards and makes no frame, even after a
    # move; the first tick after it makes and reads a new one
    cart.turn = simcore._Turn(direction=Intent.LEFT, target=math.pi / 2)
    assert step()[:2] == (0, 0) and step()[2].detections == ()
    cart.vehicle = replace(cart.vehicle, pose=(start[0] + 2e-9, start[1], start[2]))
    assert step()[:2] == (0, 0)
    cart.turn = None
    assert step()[:2] == (1, 1)
    assert step()[:2] == (0, 0)
    noisy = SimConfig(noise=NoiseParams(sigma=4.0))
    assert step(noisy)[:2] == (1, 1)
    assert step(noisy)[:2] == (1, 1)
    # a pose that is not finite is never looked up: NaN equals nothing. It
    # sees no map ink, so no cell index cast warns
    cart.vehicle = replace(cart.vehicle, pose=(math.nan, start[1], start[2]))
    assert step()[:2] == (1, 1)
    assert step()[:2] == (1, 1)


def test_a_still_cart_reads_a_whole_frame_after_a_band_only_one(track, monkeypatch):
    made = []
    bits = simcore.clean_bits
    monkeypatch.setattr(simcore, "clean_bits", lambda *a: made.append(bits(*a)) or made[-1])
    simcore._table.cache_clear()  # earlier tests fill it
    start = simcore._start_pose(track, 2)
    cart = simcore._Cart(0, SimpleNamespace(role=Role.SOLO), start, np.random.default_rng(0))
    cart.card = simcore._make_card(2, start)
    returning = MissionState(phase=MissionPhase.RETURNING)  # reads no placards
    cart.mission = returning

    def sense():
        cart.gate_x = None
        return simcore._sense(cart, track, SimConfig(), [])

    assert sense().detections == () and len(made) == 1
    assert not made[0][:simcore.CONTROL_ROI[0]].any()  # only the control band
    cart.mission = MissionState()  # the same pose, now on a tick that reads placards
    whole = undistort_bits(adaptive_binarize(render(track, start, CameraModel(), NoiseParams(),
                                                    cards=(cart.card,))), 0.0)
    want = detect_in_binary(whole)
    assert [d.digit for d in want] == [2]
    assert sense().detections == want and len(made) == 2
    assert np.array_equal(made[1], whole)
    # both readings are looked up again, and the table keeps no frame
    cart.mission = returning
    assert sense().detections == () and len(made) == 2
    line, found = simcore._table(track, start, (cart.card,), NoiseParams(), math.inf, None)
    assert found == want and len(made) == 2
    assert not any(isinstance(v, np.ndarray) for v in (line, *line, found, *found))


def _assert_no_frame_but_its_noise(track, monkeypatch, noise, unread, inbox):
    """Three ticks of a cart that unread(cart) set up, whose steps read
    inbox, make no frame, look nothing up and supply nothing, but draw the
    noise their frames would."""
    called = []
    for layer in ("clean_bits", "render", "adaptive_binarize", "undistort_bits",
                  "line_centroid", "detect_in_binary"):
        monkeypatch.setattr(simcore, layer, lambda *a, layer=layer, **k: called.append(layer))
    start = simcore._start_pose(track, 2)
    cart = simcore._Cart(0, SimpleNamespace(role=Role.SOLO), start, np.random.default_rng(7))
    cart.card = simcore._make_card(2, start)
    unread(cart)
    cam, twin = CameraModel(distortion_k1=noise.k1), np.random.default_rng(7)
    simcore._table.cache_clear()
    for i in range(3):
        cart.vehicle = replace(cart.vehicle, pose=(start[0], start[1], start[2] + 0.1 * i))
        sensors = simcore._sense(cart, track, SimConfig(noise=noise), inbox)
        assert sensors.line is None and sensors.detections == ()
        # the frame the tick would have rendered, from a twin noise stream
        render(track, cart.vehicle.pose, cam, noise, rng=twin, cards=(cart.card,))
    assert called == [] and cart.gate_x is None
    assert simcore._table.cache_info()[:2] == (0, 0)  # nor looks one up
    assert cart.rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("noise", (NoiseParams(), NoiseParams(sigma=4.0),
                                   NoiseParams(sigma=4.0, k1=0.05)))
def test_a_turn_tick_makes_no_frame_but_draws_its_noise(track, monkeypatch, noise):
    def turning(cart):
        cart.turn = simcore._Turn(direction=Intent.LEFT, target=math.pi / 2)

    _assert_no_frame_but_its_noise(track, monkeypatch, noise, turning, [])


@pytest.mark.parametrize("phase", sorted(WARD_PHASES, key=lambda p: p.value))
@pytest.mark.parametrize("noise", (NoiseParams(), NoiseParams(sigma=8.0),
                                   NoiseParams(sigma=8.0, k1=0.05)))
def test_a_tick_at_the_ward_makes_no_frame_but_draws_its_noise(track, monkeypatch, noise,
                                                               phase):
    """Its step reads only the payload switch, even with a Proceed in its
    inbox, as a follower waiting to unload can have."""
    def at_ward(cart):
        cart.mission = MissionState(phase=phase)

    _assert_no_frame_but_its_noise(track, monkeypatch, noise, at_ward,
                                   [Message(MessageKind.PROCEED, 0, 0)])


def test_a_still_cart_reads_again_when_its_range_widens(track, monkeypatch):
    frames, ranges = _count_frames(monkeypatch), []
    detect = simcore.detect_in_binary
    monkeypatch.setattr(simcore, "detect_in_binary",
                        lambda binary, reach: ranges.append(reach) or detect(binary, reach))
    start = simcore._start_pose(track, 2)
    cart = simcore._Cart(0, SimpleNamespace(role=Role.SOLO), start, np.random.default_rng(0))
    cart.card = simcore._make_card(2, start)  # read at 0.42 m: beyond DECISION_RANGE
    at_junction = MissionState(phase=MissionPhase.OUTBOUND, target=2,
                               leg_actions=(Action.RIGHT, Action.STOP), leg_triggers=(1.0, 1.5))
    unloaded = MissionState(phase=MissionPhase.AWAIT_LOAD, target=2)
    frame = render(track, start, CameraModel(), NoiseParams(), cards=(cart.card,))
    everything = detect_in_binary(adaptive_binarize(frame))
    assert [(d.digit, d.range_z > DECISION_RANGE) for d in everything] == [(2, True)]

    def sense(mission):
        cart.mission = mission
        cart.gate_x = None
        before = len(frames), len(ranges)
        sensors = simcore._sense(cart, track, SimConfig(), [])
        return len(frames) - before[0], ranges[before[1]:], sensors.detections

    simcore._table.cache_clear()  # earlier tests fill it
    assert sense(at_junction) == (1, [DECISION_RANGE], ())
    assert sense(unloaded) == (1, [], ())  # a band-only frame
    assert sense(MissionState()) == (1, [math.inf], everything)  # a new frame, read farther
    assert sense(at_junction) == (0, [], ())
    assert sense(unloaded) == (0, [], ())
    assert sense(MissionState()) == (0, [], everything)


@pytest.mark.parametrize("k1", (0.0, 0.05))
@pytest.mark.parametrize("brightness", (-30.0, 150.0, 230.0))
def test_clean_bits_leave_every_trace_byte_as_the_render_chain(track, monkeypatch,
                                                              brightness, k1):
    # the golden runs hold no clean run at a clipped brightness or with distortion
    config = SimConfig(wards=(1,), seed=0, max_ticks=700,
                       noise=NoiseParams(brightness=brightness, k1=k1))
    frames = _count_frames(monkeypatch)
    simcore._table.cache_clear()  # or the runs would look their frames up
    fast = trace_to_csv(run_scenario(track, config))
    made = set(frames)

    def render_chain(track, pose, brightness, k1, cards, rows):
        frame = render(track, pose, CameraModel(k1), NoiseParams(brightness=brightness),
                       cards=cards)
        return adaptive_binarize(frame)

    monkeypatch.setattr(simcore, "clean_bits", render_chain)
    simcore._table.cache_clear()
    assert trace_to_csv(run_scenario(track, config)) == fast
    # a clean run renders nothing, even at +150 where the band never decides
    # and through a distorted lens
    assert made == {"clean_bits"}


def test_a_noise_free_distorted_run_renders_nothing(track, monkeypatch):
    frames = _count_frames(monkeypatch)
    simcore._table.cache_clear()  # or the run would look its frames up
    run_scenario(track, SimConfig(wards=(3,), max_ticks=400, noise=NoiseParams(k1=0.1)))
    assert frames and set(frames) == {"clean_bits"}


def test_render_work_arrays_stay_cached_across_clean_and_noisy_runs(track):
    clean = SimConfig(wards=(1,), seed=0)
    noisy = SimConfig(wards=(1,), seed=0,
                      noise=NoiseParams(brightness=-30.0, sigma=8.0, k1=0.05))
    start = simcore._start_pose(track, 1)  # Python floats: a float32 frame
    misses = []
    for _ in range(2):
        simcore._table.cache_clear()  # or the second clean run makes no frame
        run_scenario(track, clean)
        run_scenario(track, noisy)
        clean_bits(track, start, 0.0, 0.0, (), simcore.CONTROL_ROI)
        clean_bits(track, start, 0.0, 0.0, (), None)
        misses.append(_scratch.cache_info().misses)
    assert misses[1] == misses[0]


# Written out here, not read from CONFIG_KEYS, so that a row naming the wrong
# field or header key fails: scenario key -> (valid values, where the value
# lands, header key or None).
KEY_SPEC = {
    "dt": (st.floats(1e-4, 1.0), lambda c: c.dt, "dt"),
    "max_ticks": (st.integers(0, 10 ** 6), lambda c: c.max_ticks, "max_ticks"),
    "seed": (st.integers(0, 2 ** 64 - 1), lambda c: c.seed, "seed"),
    "carts": (st.integers(1, 2), lambda c: c.carts, "carts"),
    "ward": (st.integers(1, 8), lambda c: c.wards[0], "wards"),
    "ward2": (st.integers(1, 8), lambda c: c.wards[1], None),
    "noise.brightness": (st.floats(-100, 100), lambda c: c.noise.brightness,
                         "noise.brightness"),
    "noise.sigma": (st.floats(0, 50), lambda c: c.noise.sigma, "noise.sigma"),
    "noise.k1": (st.floats(-0.3, 0.3), lambda c: c.noise.k1, "noise.k1"),
    "link.latency": (st.integers(0, 100), lambda c: c.link_latency, "link.latency"),
    "link.drop": (st.floats(0, 1), lambda c: c.link_drop, "link.drop"),
}
# after the keys, the header echoes the fixed resend period and controller
FIXED_HEADER = (("link.retry_interval", repr(PROCEED_RETRY_TICKS)), ("pid.kp", repr(GAINS.kp)),
                ("pid.ki", repr(GAINS.ki)), ("pid.kd", repr(GAINS.kd)),
                ("base_duty", repr(BASE_DUTY)))


def test_key_spec_covers_the_table():
    assert set(KEY_SPEC) == {key for key, _ in CONFIG_KEYS}
    assert all(len(row) == 2 for row in CONFIG_KEYS)


def test_every_config_field_is_a_scenario_key():
    # a field no key reaches could not be set or echoed in the trace header;
    # the cart's tuning values are module constants, not fields
    named = {name.partition(".")[0] for _, name in CONFIG_KEYS}
    assert {f.name for f in fields(SimConfig)} == named
    assert [f.name for f in fields(SimConfig)] == [
        "dt", "max_ticks", "seed", "noise", "carts", "wards", "link_latency", "link_drop"]


# a whole-number key that float parsing would round, always tried
_EXACT_SEED = {key: spec[1](SimConfig(carts=2, wards=(1, 2))) for key, spec in KEY_SPEC.items()}
_EXACT_SEED["seed"] = 2 ** 53 + 1


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({key: spec[0] for key, spec in KEY_SPEC.items()}))
@example(_EXACT_SEED)
def test_every_key_lands_in_its_field_and_header_line(values):
    cfg = config_from_keys({key: repr(value) for key, value in values.items()})
    header = dict(_header(cfg))
    if values["carts"] == 1:  # a one-cart run ignores ward2
        assert cfg.wards == (values["ward"],)
        del values["ward2"]
    for key, value in values.items():
        _, get, echo = KEY_SPEC[key]
        assert get(cfg) == value and type(get(cfg)) is type(value), key
        if echo == "wards":
            assert header[echo] == ",".join(repr(w) for w in cfg.wards)
        elif echo is not None:
            assert header[echo] == repr(value), key
    echoed = [spec[2] for spec in KEY_SPEC.values() if spec[2] is not None]
    assert list(header) == ["generator"] + echoed + [key for key, _ in FIXED_HEADER]
    assert tuple(header.items())[-len(FIXED_HEADER):] == FIXED_HEADER


def test_a_second_cart_defaults_to_the_first_carts_ward():
    assert config_from_keys({"carts": "2", "ward": "5"}).wards == (5, 5)
    assert config_from_keys({}, SimConfig(carts=2, wards=(1, 2))).wards == (1, 2)
    assert config_from_keys({"carts": "1"}, SimConfig(carts=2, wards=(1, 2))).wards == (1,)
