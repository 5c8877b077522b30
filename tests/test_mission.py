import copy
import itertools
import math
from dataclasses import fields

import pytest

from wardcart.arena import Action, pause_distance, reverse_route, route_to
from wardcart.comms import Message, MessageKind
from wardcart.mission import (CONFIRM_FRAMES, CONTRADICTION_LIMIT, DECISION_RANGE,
                              PROCEED_RETRY_TICKS, STOP_MARGIN, TURN_LEAD, Intent,
                              MissionConfig, MissionPhase, MissionState,
                              Role, SensorBundle, check_junction, mission_step, reading_range)
from wardcart.vision.pipeline import DigitDetection


def det(digit, x=80.0, z=0.2, score=0.95):
    return DigitDetection(digit=digit, image_x=x, range_z=z, score=score)


def sensors(line=(80.0, 1.0), detections=(), loaded=False, odo=0.0):
    return SensorBundle(line=line, detections=tuple(detections), loaded=loaded,
                        odometry_distance=odo)


def make_config(track, role=Role.SOLO, ward=None, **overrides):
    routes = {w.id: route_to(track, w.id) for w in track.wards}
    returns = {wid: reverse_route(track, route) for wid, route in routes.items()}
    missing = object()
    pause = overrides.pop("pause_distance", missing)
    if pause is missing:
        pause = pause_distance(track, ward) if role is Role.FOLLOWER else None
    return MissionConfig(role=role, cart_id=0 if role is not Role.FOLLOWER else 1,
                         routes=routes, returns=returns, pause_distance=pause,
                         **overrides)


# ------------------------------------------------------- target acquisition

def acquire(frames, track):
    """Step a fresh mission through AwaitTarget, one detection list per
    frame; the digit it locks onto, or None."""
    cfg = make_config(track)
    state = MissionState()
    for dets in frames:
        _, _, state = mission_step(state, cfg, sensors(line=None, detections=dets), [], 0)
        if state.phase is not MissionPhase.AWAIT_TARGET:
            return state.target
    return None


def test_acquire_nothing_from_empty_frames(track):
    assert acquire([[] for _ in range(30)], track) is None


def test_acquire_stable_single_detection(track):
    frames = [[det(6, z=0.4)] for _ in range(CONFIRM_FRAMES)]
    assert acquire(frames, track) == 6
    assert acquire(frames[:-1], track) is None


def test_acquire_rejects_alternating_digits(track):
    frames = []
    for i in range(40):
        frames.append([det(3 if i % 2 == 0 else 8)])
    assert acquire(frames, track) is None


def test_acquire_uses_nearest_when_crowded(track):
    frames = [[det(2, z=1.5), det(7, z=0.3)] for _ in range(CONFIRM_FRAMES)]
    assert acquire(frames, track) == 7


# ------------------------------------------------------- junction decisions

def test_junction_decide_left_from_placard_position(track):
    planned = route_to(track, 1)[0].action  # first junction action is Left
    assert check_junction(1, [det(1, x=20.0, z=0.2)], planned) is None
    for other in (Action.RIGHT, Action.STRAIGHT):
        assert check_junction(1, [det(1, x=20.0, z=0.2)], other) == (
            f"target 1 placard suggests left, route says {other.value}")


def test_junction_decide_no_placard_in_range(track):
    planned = route_to(track, 1)[0].action
    assert check_junction(1, [], planned) is None
    for z in (2.0, DECISION_RANGE):  # on the wrong side, but not yet in range
        assert check_junction(1, [det(1, x=150.0, z=z)], planned) is None


def test_junction_decide_centered_is_straight(track):
    planned = route_to(track, 5)[0].action  # straight through the first junction
    assert check_junction(5, [det(5, x=80.0, z=0.2)], planned) is None
    assert check_junction(5, [det(5, x=80.0, z=0.2)], Action.LEFT) == (
        "target 5 placard suggests straight, route says left")


def test_junction_decide_falls_back_to_plan(track):
    planned = route_to(track, 5)[0].action  # target 5 absent at the near junction
    for plan_says in (planned, Action.LEFT, Action.RIGHT):
        assert check_junction(5, [det(1, x=20.0, z=0.2), det(2, x=140.0, z=0.2)],
                              plan_says) is None


def test_junction_decide_contradiction_raises(track):
    planned = route_to(track, 1)[0].action  # route says Left
    assert check_junction(1, [det(1, x=150.0, z=0.2)], planned) == (
        "target 1 placard suggests right, route says left")
    # arriving, not deciding
    assert check_junction(1, [det(1, x=150.0, z=0.2)], Action.STOP) is None


# ---------------------------------------------------------- phase stepping

def step(state, cfg, snsr, inbox=(), tick=0):
    return mission_step(state, cfg, snsr, list(inbox), tick)


def drive_until(state, cfg, make_sensors, limit=5000):
    intents = []
    for t in range(limit):
        intent, outbox, state = step(state, cfg, make_sensors(t, state), tick=t)
        intents.append(intent)
    return state, intents


def test_await_target_confirms_then_waits_for_load(track):
    cfg = make_config(track)
    state = MissionState()
    for t in range(CONFIRM_FRAMES):
        intent, _, state = step(state, cfg, sensors(detections=[det(2, z=0.4)]), tick=t)
        assert intent is Intent.HALT
    assert state.phase is MissionPhase.AWAIT_LOAD
    assert state.target == 2


def test_load_starts_outbound_with_follow_intent(track):
    cfg = make_config(track)
    state = MissionState(phase=MissionPhase.AWAIT_LOAD, target=2)
    intent, _, state = step(state, cfg, sensors(loaded=True))
    assert state.phase is MissionPhase.OUTBOUND
    assert intent is Intent.FOLLOW


def test_outbound_turn_fires_at_junction_distance(track):
    cfg = make_config(track)
    state = MissionState(phase=MissionPhase.AWAIT_LOAD, target=2)
    _, _, state = step(state, cfg, sensors(loaded=True))
    # approach the junction: trigger sits TURN_LEAD short of 1.0 m
    intent, _, state = step(state, cfg, sensors(loaded=True, odo=0.9))
    assert intent is Intent.FOLLOW
    intent, _, state = step(state, cfg, sensors(loaded=True, odo=1.0 - TURN_LEAD))
    assert intent is Intent.RIGHT


def test_stop_at_ward_then_unload_then_return(track):
    cfg = make_config(track)
    state = MissionState(phase=MissionPhase.AWAIT_LOAD, target=2)
    _, _, state = step(state, cfg, sensors(loaded=True))
    _, _, state = step(state, cfg, sensors(loaded=True, odo=1.0))  # turn emitted
    intent, _, state = step(state, cfg, sensors(loaded=True, odo=1.5))
    assert state.phase is MissionPhase.AT_WARD
    assert state.delivered and intent is Intent.HALT
    intent, _, state = step(state, cfg, sensors(loaded=True, odo=1.5))
    assert state.phase is MissionPhase.AWAIT_UNLOAD
    assert intent is Intent.HALT
    # payload removed: return leg starts with a half-turn
    intent, _, state = step(state, cfg, sensors(loaded=False, odo=1.5))
    assert state.phase is MissionPhase.RETURNING
    assert intent is Intent.AROUND
    # back down the stub, turn onto the spine (mirrored: Left), then stop home
    intent, _, state = step(state, cfg, sensors(loaded=False, odo=2.0))
    assert intent is Intent.LEFT
    intent, _, state = step(state, cfg, sensors(loaded=False, odo=3.0))
    assert state.phase is MissionPhase.DONE
    assert intent is Intent.HALT


def test_line_loss_times_out_to_fault(track):
    cfg = make_config(track, lost_line_ticks=10)
    state = MissionState(phase=MissionPhase.AWAIT_LOAD, target=2)
    _, _, state = step(state, cfg, sensors(loaded=True))
    for t in range(10):
        intent, _, state = step(state, cfg, sensors(line=None, loaded=True, odo=0.2), tick=t)
        assert state.phase is MissionPhase.OUTBOUND
    _, _, state = step(state, cfg, sensors(line=None, loaded=True, odo=0.2), tick=11)
    assert state.phase is MissionPhase.FAULT
    assert "line" in state.fault_reason


def test_line_reacquire_resets_the_timeout(track):
    cfg = make_config(track, lost_line_ticks=10)
    state = MissionState(phase=MissionPhase.AWAIT_LOAD, target=2)
    _, _, state = step(state, cfg, sensors(loaded=True))
    for t in range(50):
        line = None if t % 3 else (80.0, 1.0)
        _, _, state = step(state, cfg, sensors(line=line, loaded=True, odo=0.2), tick=t)
    assert state.phase is MissionPhase.OUTBOUND


def test_contradictions_fault_after_limit(track):
    cfg = make_config(track)
    state = MissionState(phase=MissionPhase.AWAIT_LOAD, target=1)
    _, _, state = step(state, cfg, sensors(loaded=True))
    bad = [det(1, x=150.0, z=0.2)]  # route says Left, placard far right
    for t in range(CONTRADICTION_LIMIT - 1):
        _, _, state = step(state, cfg, sensors(detections=bad, loaded=True, odo=0.5), tick=t)
        assert state.phase is MissionPhase.OUTBOUND
    _, _, state = step(state, cfg, sensors(detections=bad, loaded=True, odo=0.5),
                       tick=CONTRADICTION_LIMIT)
    assert state.phase is MissionPhase.FAULT


def test_halt_phases_never_move(track):
    # every phase but Outbound and Returning, with the payload that keeps the
    # cart there; the paused follower holds no Proceed
    cfg = make_config(track)
    follower, _ = follower_outbound(track)
    cases = [(cfg, MissionPhase.AWAIT_TARGET, True), (cfg, MissionPhase.AWAIT_LOAD, False),
             (follower, MissionPhase.PAUSED_AT_POINT, True), (cfg, MissionPhase.AT_WARD, True),
             (cfg, MissionPhase.AWAIT_UNLOAD, True), (cfg, MissionPhase.DONE, True),
             (cfg, MissionPhase.FAULT, True)]
    assert {phase for _, phase, _ in cases} == set(MissionPhase) - {
        MissionPhase.OUTBOUND, MissionPhase.RETURNING}
    for config, phase, loaded in cases:
        state = MissionState(phase=phase, target=2, delivered=True)
        intent, _, _ = step(state, config, sensors(loaded=loaded, odo=follower.pause_distance))
        assert intent is Intent.HALT, phase


# --------------------------------------------------------------- follower

def follower_outbound(track, **overrides):
    cfg = make_config(track, role=Role.FOLLOWER, ward=4, **overrides)
    state = MissionState(phase=MissionPhase.AWAIT_LOAD, target=4)
    _, _, state = step(state, cfg, sensors(loaded=True))
    return cfg, state


def test_follower_pauses_at_pause_point(track):
    cfg, state = follower_outbound(track)
    pause_dist = cfg.pause_distance
    intent, _, state = step(state, cfg, sensors(loaded=True, odo=pause_dist - 0.2))
    assert state.phase is MissionPhase.OUTBOUND
    intent, _, state = step(state, cfg, sensors(loaded=True, odo=pause_dist - STOP_MARGIN))
    assert state.phase is MissionPhase.PAUSED_AT_POINT
    assert intent is Intent.HALT


def test_follower_resumes_on_proceed_and_acks(track):
    cfg, state = follower_outbound(track)
    _, _, state = step(state, cfg, sensors(loaded=True, odo=cfg.pause_distance))
    assert state.phase is MissionPhase.PAUSED_AT_POINT
    intent, outbox, state = step(state, cfg, sensors(loaded=True, odo=cfg.pause_distance),
                                 inbox=[Message(MessageKind.PROCEED, 0, 0)])
    assert state.phase is MissionPhase.OUTBOUND
    assert intent is Intent.FOLLOW
    assert [m.kind for m in outbox] == [MessageKind.ACK]


def test_follower_acks_every_proceed_but_resumes_once(track):
    cfg, state = follower_outbound(track)
    _, _, state = step(state, cfg, sensors(loaded=True, odo=cfg.pause_distance))
    inbox = [Message(MessageKind.PROCEED, 0, 0), Message(MessageKind.PROCEED, 0, 1)]
    _, outbox, state = step(state, cfg, sensors(loaded=True, odo=cfg.pause_distance),
                            inbox=inbox)
    assert state.phase is MissionPhase.OUTBOUND
    assert [m.kind for m in outbox] == [MessageKind.ACK, MessageKind.ACK]
    assert [m.seq for m in outbox] == [0, 1]
    # another duplicate later: acked again, no state regression
    _, outbox, state = step(state, cfg, sensors(loaded=True, odo=cfg.pause_distance + 0.05),
                            inbox=[Message(MessageKind.PROCEED, 0, 2)])
    assert state.phase is MissionPhase.OUTBOUND
    assert len(outbox) == 1


def test_follower_with_early_proceed_never_pauses(track):
    cfg, state = follower_outbound(track)
    _, _, state = step(state, cfg, sensors(loaded=True, odo=0.1),
                       inbox=[Message(MessageKind.PROCEED, 0, 0)])
    _, _, state = step(state, cfg, sensors(loaded=True, odo=cfg.pause_distance))
    assert state.phase is MissionPhase.OUTBOUND
    # and no later step pauses it: the Proceed it holds never clears
    _, _, state = step(state, cfg, sensors(loaded=True, odo=cfg.pause_distance + 0.05))
    assert state.phase is MissionPhase.OUTBOUND and state.proceed_received


def test_follower_config_requires_pause_point(track):
    with pytest.raises(ValueError):
        make_config(track, role=Role.FOLLOWER, ward=4, pause_distance=None)


def test_mission_config_holds_only_what_the_engine_sets():
    # the fixed thresholds are module constants; a field here is set per run
    assert [f.name for f in fields(MissionConfig)] == [
        "role", "cart_id", "routes", "returns", "lost_line_ticks",
        "pause_distance"]


# ----------------------------------------------------------------- leader

R = PROCEED_RETRY_TICKS


def test_leader_announces_proceed_on_returning_and_retries(track):
    cfg = make_config(track, role=Role.LEADER)
    state = MissionState(phase=MissionPhase.AWAIT_UNLOAD, target=4, delivered=True)
    _, outbox, state = step(state, cfg, sensors(loaded=False, odo=2.5), tick=100)
    assert state.phase is MissionPhase.RETURNING
    assert [m.kind for m in outbox] == [MessageKind.PROCEED]
    # not due again until the retry period elapses
    _, outbox, state = step(state, cfg, sensors(loaded=False, odo=2.6), tick=100 + R - 1)
    assert outbox == []
    _, outbox, state = step(state, cfg, sensors(loaded=False, odo=2.7), tick=100 + R)
    assert [m.kind for m in outbox] == [MessageKind.PROCEED]
    assert [m.seq for m in outbox] == [1]
    # an ack stops the stream
    _, outbox, state = step(state, cfg, sensors(loaded=False, odo=2.8),
                            inbox=[Message(MessageKind.ACK, 1, 0)], tick=100 + 2 * R)
    assert outbox == []
    _, outbox, state = step(state, cfg, sensors(loaded=False, odo=2.9), tick=100 + 5 * R)
    assert outbox == []


def test_leader_keeps_retrying_after_done_until_acked(track):
    cfg = make_config(track, role=Role.LEADER)
    state = MissionState(phase=MissionPhase.RETURNING, target=4, delivered=True)
    state.leg_triggers = (0.5,)
    state.leg_actions = (Action.STOP,)
    _, outbox, state = step(state, cfg, sensors(loaded=False, odo=1.0), tick=0)
    assert state.phase is MissionPhase.DONE
    assert len(outbox) == 1
    _, outbox, state = step(state, cfg, sensors(loaded=False, odo=1.0), tick=R)
    assert len(outbox) == 1  # still resending in Done


def proceeds_sent(track, ticks, ack_tick=None):
    """Ticks at which a leader that starts its return at ticks[0] sends a
    Proceed, and its last state; the follower's ACK arrives at ack_tick."""
    cfg = make_config(track, role=Role.LEADER)
    state = MissionState(phase=MissionPhase.AWAIT_UNLOAD, target=4, delivered=True)
    sent = []
    for tick in ticks:
        inbox = [Message(MessageKind.ACK, 1, 0)] if tick == ack_tick else []
        _, outbox, state = step(state, cfg, sensors(loaded=False, odo=2.5),
                                inbox=inbox, tick=tick)
        sent += [tick for m in outbox if m.kind is MessageKind.PROCEED]
    return sent, state


def test_proceed_retry_schedule(track):
    # due every R ticks (one tick early is not), and never again once acked
    ticks = [100, 99 + R, 100 + R, 99 + 2 * R, 100 + 2 * R, 101 + 2 * R, 100 + 3 * R,
             100 + 10 * R]
    sent, state = proceeds_sent(track, ticks, ack_tick=101 + 2 * R)
    assert sent == [100, 100 + R, 100 + 2 * R]
    assert state.phase is MissionPhase.RETURNING
    assert state.proceed_acked and state.proceed_sent_tick == 100 + 2 * R


def copy_cases(track):
    """(config, state, sensors, inbox, tick) of steps that change every
    kind of field: solo, follower and leader, an ACK and a PROCEED."""
    solo = make_config(track)
    yield solo, MissionState(), sensors(detections=[det(4)]), [], 0
    yield solo, MissionState(phase=MissionPhase.AWAIT_LOAD, target=4), sensors(loaded=True), [], 0
    cfg, state = follower_outbound(track)
    yield cfg, state, sensors(loaded=True, odo=cfg.pause_distance), [], 0
    _, _, paused = step(state, cfg, sensors(loaded=True, odo=cfg.pause_distance))
    assert paused.phase is MissionPhase.PAUSED_AT_POINT
    yield (cfg, paused, sensors(loaded=True, odo=cfg.pause_distance),
           [Message(MessageKind.PROCEED, 0, 0)], 0)
    leader = make_config(track, role=Role.LEADER)
    unloading = MissionState(phase=MissionPhase.AWAIT_UNLOAD, target=4, delivered=True)
    yield leader, unloading, sensors(loaded=False, odo=2.5), [], 100
    _, _, returning = step(unloading, leader, sensors(loaded=False, odo=2.5), tick=100)
    assert returning.proceed_sent_tick == 100
    yield (leader, returning, sensors(loaded=False, odo=2.6),
           [Message(MessageKind.ACK, 1, 0)], 140)


def test_mission_step_never_mutates_its_input(track):
    for cfg, state, snsr, inbox, tick in copy_cases(track):
        before = copy.deepcopy(state)
        _, _, after = step(state, cfg, snsr, inbox, tick=tick)
        assert after != before  # the step changed something, in its copy only
        assert state == before


def test_every_mission_state_field_is_immutable(track):
    # mission_step copies its input state shallowly, so a mutable field
    # would be shared between the input and the state it returns
    for _, state, _, _, _ in copy_cases(track):
        for f in fields(MissionState):
            hash(getattr(state, f.name))


# ------------------------------------------------------ detection demand

class DetectionsRead(Exception):
    pass


class Unreadable:
    """A detections sequence that raises on any access."""

    def _read(self, *args):
        raise DetectionsRead

    __iter__ = __len__ = __bool__ = __getitem__ = __contains__ = _read


def unreadable(line=(80.0, 1.0), loaded=False, odo=0.0):
    return SensorBundle(line=line, detections=Unreadable(), loaded=loaded,
                        odometry_distance=odo)


def returning_state(track, cfg):
    state = MissionState(phase=MissionPhase.AWAIT_UNLOAD, target=2, delivered=True)
    _, _, state = step(state, cfg, sensors(loaded=False, odo=1.5))
    assert state.phase is MissionPhase.RETURNING
    return state


# (phase, sensors) cases with no reading range; the odometry values follow
# test_stop_at_ward_then_unload_then_return on the ward 2 route
def no_read_cases(track, cfg):
    delivered = dict(target=2, delivered=True)
    returning = returning_state(track, cfg)
    _, _, turned = step(returning, cfg, sensors(odo=2.0))
    return [
        (MissionState(phase=MissionPhase.AT_WARD, **delivered), unreadable(loaded=True)),
        (MissionState(phase=MissionPhase.AWAIT_UNLOAD, **delivered), unreadable(loaded=True)),
        # unload: Returning starts with a half-turn in this very step
        (MissionState(phase=MissionPhase.AWAIT_UNLOAD, **delivered),
         unreadable(loaded=False, odo=1.5)),
        (returning, unreadable(odo=1.7)),
        (returning, unreadable(odo=2.0)),  # at the junction back onto the spine
        (turned, unreadable(odo=3.0)),  # home: Done
        (returning, unreadable(line=None, odo=1.7)),
        (MissionState(phase=MissionPhase.DONE, **delivered), unreadable()),
        (MissionState(phase=MissionPhase.FAULT, fault_reason="x"), unreadable()),
    ]


@pytest.mark.parametrize("role", [Role.SOLO, Role.LEADER])
def test_phases_outside_detection_phases_never_read_detections(track, role):
    cfg = make_config(track, role=role)
    cases = no_read_cases(track, cfg)
    assert {st.phase for st, _ in cases} == set(MissionPhase) - {
        MissionPhase.AWAIT_TARGET, MissionPhase.AWAIT_LOAD, MissionPhase.OUTBOUND,
        MissionPhase.PAUSED_AT_POINT}
    for state, snsr in cases:
        assert reading_range(state, cfg, snsr.loaded, []) is None
        step(state, cfg, snsr, tick=100)


def test_returning_turns_and_stops_without_reading(track):
    cfg = make_config(track)
    intent, _, state = step(returning_state(track, cfg), cfg, unreadable(odo=2.0))
    assert intent is Intent.LEFT
    _, _, state = step(state, cfg, unreadable(odo=3.0))
    assert state.phase is MissionPhase.DONE


def test_await_load_reads_detections_when_loaded(track):
    # the payload starts Outbound, whose junction check reads placards in
    # the same step; before the payload nothing is read
    cfg = make_config(track)
    state = MissionState(phase=MissionPhase.AWAIT_LOAD, target=2)
    assert reading_range(state, cfg, False, []) is None
    step(state, cfg, unreadable(loaded=False))
    assert reading_range(state, cfg, True, []) == DECISION_RANGE
    with pytest.raises(DetectionsRead):
        step(state, cfg, unreadable(loaded=True))


def test_paused_at_point_reads_detections_once_proceed_arrives(track):
    cfg, state = follower_outbound(track)
    _, _, state = step(state, cfg, sensors(loaded=True, odo=cfg.pause_distance))
    assert state.phase is MissionPhase.PAUSED_AT_POINT
    # still waiting: nothing read
    assert reading_range(state, cfg, True, []) is None
    step(state, cfg, unreadable(loaded=True, odo=cfg.pause_distance))
    # a Proceed in the step's own inbox resumes it, and the range is set
    proceed = [Message(MessageKind.PROCEED, 0, 0)]
    assert reading_range(state, cfg, True, proceed) == DECISION_RANGE
    with pytest.raises(DetectionsRead):
        step(state, cfg, unreadable(loaded=True, odo=cfg.pause_distance), inbox=proceed)
    state.proceed_received = True
    with pytest.raises(DetectionsRead):
        step(state, cfg, unreadable(loaded=True, odo=cfg.pause_distance))


def test_await_target_and_outbound_read_detections(track):
    cfg = make_config(track)
    assert reading_range(MissionState(), cfg, False, []) == math.inf
    with pytest.raises(DetectionsRead):
        step(MissionState(), cfg, unreadable())
    _, _, state = step(MissionState(phase=MissionPhase.AWAIT_LOAD, target=2), cfg,
                       sensors(loaded=True))
    assert reading_range(state, cfg, True, []) == DECISION_RANGE
    with pytest.raises(DetectionsRead):
        step(state, cfg, unreadable(loaded=True, odo=0.5))


# ------------------------------------------------------- reading contract

def reading_cases(track):
    """(config, state, loaded, odometry, inbox, expected reading range) over
    every phase, with and without the payload; on the default map ward 2
    turns right at 1 m then stops 0.5 m on, and ward 5 goes straight first."""
    solo, leader = make_config(track), make_config(track, role=Role.LEADER)
    follower, paused = follower_outbound(track)
    _, _, paused = step(paused, follower, sensors(loaded=True, odo=follower.pause_distance))
    assert paused.phase is MissionPhase.PAUSED_AT_POINT
    proceed = [Message(MessageKind.PROCEED, 0, 0)]

    def outbound(ward, odo):
        _, _, state = step(MissionState(phase=MissionPhase.AWAIT_LOAD, target=ward), solo,
                           sensors(loaded=True))
        _, _, state = step(state, solo, sensors(loaded=True, odo=odo))
        return state

    confirming = MissionState(confirm_digit=2, confirm_count=CONFIRM_FRAMES - 1)
    past_end = MissionState(phase=MissionPhase.OUTBOUND, target=2,
                            leg_actions=(Action.RIGHT,), leg_triggers=(1.0,), cursor=1)
    cases = [
        (solo, MissionState(), False, 0.0, [], math.inf),
        (solo, confirming, False, 0.0, [], math.inf),
        (solo, confirming, True, 0.0, [], math.inf),
        (leader, confirming, False, 0.0, [], math.inf),
        (solo, MissionState(phase=MissionPhase.AWAIT_LOAD), True, 0.0, [], None),
        (solo, MissionState(phase=MissionPhase.AWAIT_LOAD, target=2), False, 0.0, [], None),
        (solo, MissionState(phase=MissionPhase.AWAIT_LOAD, target=2), True, 0.0, [],
         DECISION_RANGE),  # the leg's first step is a turn
        (solo, MissionState(phase=MissionPhase.AWAIT_LOAD, target=5), True, 0.0, [],
         DECISION_RANGE),  # and here a straight
        (solo, outbound(2, 0.5), True, 0.8, [], DECISION_RANGE),
        (solo, outbound(2, 0.5), True, 1.0 - TURN_LEAD, [], DECISION_RANGE),  # the turn fires
        (solo, outbound(5, 0.5), True, 0.9, [], DECISION_RANGE),
        (solo, outbound(2, 1.0), True, 1.2, [], None),  # next is the stop
        (solo, outbound(2, 1.0), True, 1.5, [], None),  # and here it fires
        (solo, past_end, True, 3.0, [], None),
        (follower, outbound(4, 0.5), True, 0.8, [], DECISION_RANGE),
        (follower, paused, True, follower.pause_distance, [], None),
        (follower, paused, True, follower.pause_distance, [Message(MessageKind.ACK, 0, 0)],
         None),  # only a Proceed resumes it
        (follower, paused, True, follower.pause_distance, proceed, DECISION_RANGE),
    ]
    for cfg in (solo, leader):
        cases += [(cfg, state, snsr.loaded, snsr.odometry_distance, [], None)
                  for state, snsr in no_read_cases(track, cfg)]
    return cases


def placard_lists(target):
    """Detection lists with the target's placard left, centered and right of
    the frame, nearer and farther than DECISION_RANGE, alone and beside
    another digit."""
    near = (0.2, 0.3, 0.34)
    far = (DECISION_RANGE, 0.6, 1.5)
    lists = [[]]
    for x in (20.0, 80.0, 150.0):
        for z in near + far:
            lists.append([det(target, x=x, z=z)])
            lists.append([det(target % 8 + 1, x=80.0, z=0.25), det(target, x=x, z=z)])
    # a near placard on the planned side and a far one on the wrong side
    for x_near, x_far in ((20.0, 150.0), (150.0, 20.0), (80.0, 150.0)):
        for z_far in far:
            lists.append([det(target, x=x_near, z=0.2), det(target, x=x_far, z=z_far)])
    return lists


def test_reading_range_is_what_the_mission_step_reads(track):
    """Where the range is None the step reads no detection; otherwise it
    acts the same on a detection list as on its part nearer than the range."""
    seen = set()
    for cfg, state, loaded, odo, inbox, expected in reading_cases(track):
        reach = reading_range(state, cfg, loaded, inbox)
        assert reach == expected, (state.phase, state.target, state.cursor)
        seen.add((state.phase, reach is None))
        if reach is None:
            step(state, cfg, unreadable(loaded=loaded, odo=odo), inbox=inbox, tick=100)
            continue
        for dets in placard_lists(state.target or 2):
            want = step(state, cfg, sensors(detections=dets, loaded=loaded, odo=odo),
                        inbox=inbox, tick=100)
            near = [d for d in dets if d.range_z < reach]
            assert step(state, cfg, sensors(detections=near, loaded=loaded, odo=odo),
                        inbox=inbox, tick=100) == want
    assert {phase for phase, _ in seen} == set(MissionPhase)


def test_a_step_halts_exactly_when_it_ends_outside_outbound_and_returning(track):
    """Over every reading case, placard list and line fix, at odometries on
    each leg trigger and the follower's pause point, and from a state one
    lost-line tick and one contradiction short of a fault: the intent is
    HALT exactly when the new phase is neither Outbound nor Returning."""
    pause = make_config(track, role=Role.FOLLOWER, ward=4).pause_distance
    moving = (MissionPhase.OUTBOUND, MissionPhase.RETURNING)
    steps, halted = 0, set()
    for cfg, state, loaded, odo, inbox, _ in reading_cases(track):
        odometries = {odo, pause, pause - STOP_MARGIN}
        for trigger in state.leg_triggers:
            odometries.update(state.leg_odo_base + trigger - lead
                              for lead in (0.0, TURN_LEAD, STOP_MARGIN))
        near_fault = copy.copy(state)
        near_fault.lost_line = cfg.lost_line_ticks
        near_fault.contradictions = CONTRADICTION_LIMIT - 1
        for start, dets, line, odometry in itertools.product(
                (state, near_fault), placard_lists(state.target or 2), ((80.0, 1.0), None),
                sorted(odometries)):
            intent, _, new = step(start, cfg, sensors(line=line, detections=dets, loaded=loaded,
                                                      odo=odometry), inbox=inbox, tick=100)
            assert (intent is Intent.HALT) is (new.phase not in moving), (
                start.phase, new.phase, intent, odometry)
            if intent is Intent.HALT and start.phase in moving:
                halted.add(new.phase)
            steps += 1
    # the drive halts the cart into every phase it can stop in
    assert halted == {MissionPhase.PAUSED_AT_POINT, MissionPhase.AT_WARD, MissionPhase.DONE,
                      MissionPhase.FAULT}
    assert steps > 30000


def test_the_junction_check_reads_nothing_at_a_stop():
    assert check_junction(2, Unreadable(), Action.STOP) is None
