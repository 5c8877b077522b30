import math

import pytest

from wardcart import simcore
from wardcart.mission import DETECTION_PHASES, MissionPhase
from wardcart.simcore import (CartOutcome, PoseSample, SimConfig, TraceReport,
                              measure_line_deviation, render_svg, route_progress,
                              run_scenario, trace_to_csv)
from wardcart.vision.render import NoiseParams

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


def fabricated_report(points, phase=MissionPhase.OUTBOUND):
    samples = tuple(PoseSample(t, 0, x, y, 0.0, phase, False, False)
                    for t, (x, y) in enumerate(points))
    return TraceReport(outcomes=(CartOutcome.INCOMPLETE,), fault_reasons=(None,),
                       recognized=(None,), events=(), samples=samples,
                       completion_ticks=len(points), line_deviations=(0.0,),
                       header=())


def test_zero_tick_budget_is_incomplete_with_no_events(track):
    report = run_scenario(track, SimConfig(wards=(2,), max_ticks=0))
    assert report.outcomes == (CartOutcome.INCOMPLETE,)
    assert report.events == ()
    assert report.samples == ()
    assert report.completion_ticks == 0


def test_cart_without_payload_never_departs(track):
    cfg = SimConfig(wards=(2,), max_ticks=250, load_delay_ticks=10 ** 9)
    report = run_scenario(track, cfg)
    assert report.outcomes == (CartOutcome.INCOMPLETE,)
    last = report.samples[-1]
    assert last.phase is MissionPhase.AWAIT_LOAD
    assert (last.x, last.y) == (0.0, 0.0)


def test_ward_two_clean_run_delivers_and_returns(track):
    report = run_scenario(track, SimConfig(wards=(2,), max_ticks=9000, seed=1))
    assert report.outcomes == (CartOutcome.DELIVERED_AND_RETURNED,)
    assert report.recognized == (2,)
    assert measure_line_deviation(report, track) < 0.10


def test_deviation_of_on_line_trace_is_zero(track):
    pts = [(0.0, 0.1 * i) for i in range(10)]
    assert measure_line_deviation(fabricated_report(pts), track) == pytest.approx(0.0)


def test_deviation_of_offset_trace_matches_construction(track):
    pts = [(0.03, 0.2 + 0.05 * i) for i in range(8)]
    got = measure_line_deviation(fabricated_report(pts), track)
    assert got == pytest.approx(0.03, abs=1e-9)


def test_deviation_ignores_halted_phases(track):
    pts = [(0.25, 0.5)]
    report = fabricated_report(pts, phase=MissionPhase.AWAIT_LOAD)
    assert measure_line_deviation(report, track) == 0.0


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
    vmax = cfg.vehicle.v_max
    for s in report.samples:
        if prev is not None:
            jump = math.hypot(s.x - prev.x, s.y - prev.y)
            assert jump <= vmax * cfg.dt + 1e-9
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


def test_outcome_consistent_with_final_phase(track):
    report = run_scenario(track, SimConfig(wards=(6,), max_ticks=9000, seed=5))
    final = [s for s in report.samples if s.cart == 0][-1]
    assert final.phase is MissionPhase.DONE
    assert report.outcomes[0] is CartOutcome.DELIVERED_AND_RETURNED
    px, py = track.node_pos(track.pharmacy)
    assert math.hypot(final.x - px, final.y - py) <= SimConfig().pharmacy_radius


def test_route_progress_projects_onto_the_plan(track):
    from wardcart.arena import route_to
    plan = route_to(track, 4)
    assert route_progress(track, plan, (0.0, 0.0)) == pytest.approx(0.0)
    assert route_progress(track, plan, (0.0, 1.3)) == pytest.approx(1.3)
    assert route_progress(track, plan, (0.2, 2.0)) == pytest.approx(2.2, abs=0.01)


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


def test_detection_runs_only_when_the_mission_can_read_it(track, monkeypatch):
    """Placards are detected on exactly the cart-ticks whose mission step can
    read them: no latched turn, and a phase in DETECTION_PHASES."""
    sensed, detected = [], []
    current = []
    sense, detect = simcore._sense, simcore.detect_in_binary

    def spy_sense(cart, *args):
        state = (cart.turn is not None, cart.mission.phase)
        sensed.append(state)
        current[:] = [state]
        return sense(cart, *args)

    def spy_detect(*args, **kwargs):
        detected.append(current[0])
        return detect(*args, **kwargs)

    monkeypatch.setattr(simcore, "_sense", spy_sense)
    monkeypatch.setattr(simcore, "detect_in_binary", spy_detect)
    report = run_scenario(track, SimConfig(wards=(1,), seed=0))
    assert report.outcomes == (CartOutcome.DELIVERED_AND_RETURNED,)
    wanted = [s for s in sensed if not s[0] and s[1] in DETECTION_PHASES]
    assert detected == wanted
    assert any(turning for turning, _ in sensed)
    assert {phase for _, phase in sensed} - DETECTION_PHASES  # some ticks skipped
    assert {phase for _, phase in detected} >= {MissionPhase.AWAIT_TARGET,
                                                 MissionPhase.AWAIT_LOAD,
                                                 MissionPhase.OUTBOUND}
