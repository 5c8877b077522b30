import pytest

from wardcart.arena import Action, resolve_pause_point, route_to
from wardcart.comms import Message, MessageKind
from wardcart.mission import (DETECTION_PHASES, HALT, IntentKind, JunctionContradiction,
                              MissionConfig, MissionPhase, MissionState, Role,
                              SensorBundle, TurnDirection, check_junction, mission_step)
from wardcart.vision.pipeline import DigitDetection


def det(digit, x=80.0, z=0.2, score=0.95, y=50.0):
    return DigitDetection(digit=digit, image_x=x, image_y=y, range_z=z, score=score)


def sensors(line=(80.0, 1.0), detections=(), loaded=False, odo=0.0):
    return SensorBundle(line=line, detections=list(detections), loaded=loaded,
                        odometry_distance=odo)


def make_config(track, role=Role.SOLO, ward=None, **overrides):
    routes = {w.id: route_to(track, w.id) for w in track.wards}
    returns = {wid: plan.reversed(track) for wid, plan in routes.items()}
    missing = object()
    pause = overrides.pop("pause_point", missing)
    if pause is missing:
        pause = resolve_pause_point(track, ward) if role is Role.FOLLOWER else None
    return MissionConfig(role=role, cart_id=0 if role is not Role.FOLLOWER else 1,
                         routes=routes, returns=returns, pause_point=pause,
                         **overrides)


# ------------------------------------------------------- target acquisition

def acquire(frames, track, confirm_frames=5):
    """Step a fresh mission through AwaitTarget, one detection list per
    frame; the digit it locks onto, or None."""
    cfg = make_config(track, confirm_frames=confirm_frames)
    state = MissionState()
    for dets in frames:
        _, _, state = mission_step(state, cfg, sensors(line=None, detections=dets), [], 0)
        if state.phase is not MissionPhase.AWAIT_TARGET:
            return state.target
    return None


def test_acquire_nothing_from_empty_frames(track):
    assert acquire([[] for _ in range(30)], track) is None


def test_acquire_stable_single_detection(track):
    frames = [[det(6, z=0.4)] for _ in range(5)]
    assert acquire(frames, track, confirm_frames=5) == 6
    assert acquire(frames[:4], track, confirm_frames=5) is None


def test_acquire_rejects_alternating_digits(track):
    frames = []
    for i in range(40):
        frames.append([det(3 if i % 2 == 0 else 8)])
    assert acquire(frames, track, confirm_frames=5) is None


def test_acquire_uses_nearest_when_crowded(track):
    frames = [[det(2, z=1.5), det(7, z=0.3)] for _ in range(5)]
    assert acquire(frames, track, confirm_frames=5) == 7


# ------------------------------------------------------- junction decisions

TOLERANCE = MissionConfig().junction_center_tolerance
DECISION_RANGE = MissionConfig().decision_range


def check(target, detections, planned, frame_width=320):
    check_junction(target, detections, planned, frame_width, TOLERANCE, DECISION_RANGE)


def test_junction_decide_left_from_placard_position(track):
    planned = route_to(track, 1).steps[0].action  # first junction action is Left
    check(1, [det(1, x=40.0, z=0.2)], planned)
    for other in (Action.RIGHT, Action.STRAIGHT):
        with pytest.raises(JunctionContradiction, match="suggests left"):
            check(1, [det(1, x=40.0, z=0.2)], other)


def test_junction_decide_no_placard_in_range(track):
    planned = route_to(track, 1).steps[0].action
    check(1, [], planned)
    for z in (2.0, DECISION_RANGE):  # on the wrong side, but not yet in range
        check(1, [det(1, x=300.0, z=z)], planned)


def test_junction_decide_centered_is_straight(track):
    planned = route_to(track, 5).steps[0].action  # straight through the first junction
    check(5, [det(5, x=160.0, z=0.2)], planned)
    with pytest.raises(JunctionContradiction, match="suggests straight"):
        check(5, [det(5, x=160.0, z=0.2)], Action.LEFT)


def test_junction_decide_falls_back_to_plan(track):
    planned = route_to(track, 5).steps[0].action  # target 5 absent at the near junction
    for plan_says in (planned, Action.LEFT, Action.RIGHT):
        check(5, [det(1, x=40.0, z=0.2), det(2, x=280.0, z=0.2)], plan_says)


def test_junction_decide_contradiction_raises(track):
    planned = route_to(track, 1).steps[0].action  # route says Left
    with pytest.raises(JunctionContradiction, match="route says left"):
        check(1, [det(1, x=300.0, z=0.2)], planned)
    check(1, [det(1, x=300.0, z=0.2)], Action.STOP)  # arriving, not deciding


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
    for t in range(cfg.confirm_frames):
        intent, _, state = step(state, cfg, sensors(detections=[det(2, z=0.4)]), tick=t)
        assert intent is HALT
    assert state.phase is MissionPhase.AWAIT_LOAD
    assert state.target == 2


def test_load_starts_outbound_with_follow_intent(track):
    cfg = make_config(track)
    state = MissionState(phase=MissionPhase.AWAIT_LOAD, target=2)
    intent, _, state = step(state, cfg, sensors(loaded=True))
    assert state.phase is MissionPhase.OUTBOUND
    assert intent.kind is IntentKind.FOLLOW


def test_outbound_turn_fires_at_junction_distance(track):
    cfg = make_config(track)
    state = MissionState(phase=MissionPhase.AWAIT_LOAD, target=2)
    _, _, state = step(state, cfg, sensors(loaded=True))
    # approach the junction: trigger sits turn_lead short of 1.0 m
    intent, _, state = step(state, cfg, sensors(loaded=True, odo=0.9))
    assert intent.kind is IntentKind.FOLLOW
    intent, _, state = step(state, cfg, sensors(loaded=True, odo=1.0 - cfg.turn_lead))
    assert intent.kind is IntentKind.TURN
    assert intent.turn is TurnDirection.RIGHT


def test_stop_at_ward_then_unload_then_return(track):
    cfg = make_config(track)
    state = MissionState(phase=MissionPhase.AWAIT_LOAD, target=2)
    _, _, state = step(state, cfg, sensors(loaded=True))
    _, _, state = step(state, cfg, sensors(loaded=True, odo=1.0))  # turn emitted
    intent, _, state = step(state, cfg, sensors(loaded=True, odo=1.5))
    assert state.phase is MissionPhase.AT_WARD
    assert state.delivered and intent is HALT
    intent, _, state = step(state, cfg, sensors(loaded=True, odo=1.5))
    assert state.phase is MissionPhase.AWAIT_UNLOAD
    assert intent is HALT
    # payload removed: return leg starts with a half-turn
    intent, _, state = step(state, cfg, sensors(loaded=False, odo=1.5))
    assert state.phase is MissionPhase.RETURNING
    assert intent.kind is IntentKind.TURN and intent.turn is TurnDirection.AROUND
    # back down the stub, turn onto the spine (mirrored: Left), then stop home
    intent, _, state = step(state, cfg, sensors(loaded=False, odo=2.0))
    assert intent.kind is IntentKind.TURN and intent.turn is TurnDirection.LEFT
    intent, _, state = step(state, cfg, sensors(loaded=False, odo=3.0))
    assert state.phase is MissionPhase.DONE
    assert intent is HALT


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
    cfg = make_config(track, contradiction_limit=3)
    state = MissionState(phase=MissionPhase.AWAIT_LOAD, target=1)
    _, _, state = step(state, cfg, sensors(loaded=True))
    bad = [det(1, x=150.0, z=0.2)]  # route says Left, placard far right
    for t in range(2):
        _, _, state = step(state, cfg, sensors(detections=bad, loaded=True, odo=0.5), tick=t)
        assert state.phase is MissionPhase.OUTBOUND
    _, _, state = step(state, cfg, sensors(detections=bad, loaded=True, odo=0.5), tick=3)
    assert state.phase is MissionPhase.FAULT


def test_halt_phases_never_move(track):
    cfg = make_config(track)
    for phase in (MissionPhase.AWAIT_TARGET, MissionPhase.AT_WARD,
                  MissionPhase.AWAIT_UNLOAD, MissionPhase.DONE, MissionPhase.FAULT):
        state = MissionState(phase=phase, target=2, delivered=True)
        intent, _, _ = step(state, cfg, sensors(loaded=True))
        assert intent is HALT, phase


# --------------------------------------------------------------- follower

def follower_outbound(track, **overrides):
    cfg = make_config(track, role=Role.FOLLOWER, ward=4, **overrides)
    state = MissionState(phase=MissionPhase.AWAIT_LOAD, target=4)
    _, _, state = step(state, cfg, sensors(loaded=True))
    return cfg, state


def test_follower_pauses_at_pause_point(track):
    cfg, state = follower_outbound(track)
    pause_dist = cfg.pause_point[1]
    intent, _, state = step(state, cfg, sensors(loaded=True, odo=pause_dist - 0.2))
    assert state.phase is MissionPhase.OUTBOUND
    intent, _, state = step(state, cfg, sensors(loaded=True, odo=pause_dist - cfg.stop_margin))
    assert state.phase is MissionPhase.PAUSED_AT_POINT
    assert intent is HALT


def test_follower_resumes_on_proceed_and_acks(track):
    cfg, state = follower_outbound(track)
    _, _, state = step(state, cfg, sensors(loaded=True, odo=cfg.pause_point[1]))
    assert state.phase is MissionPhase.PAUSED_AT_POINT
    intent, outbox, state = step(state, cfg, sensors(loaded=True, odo=cfg.pause_point[1]),
                                 inbox=[Message(MessageKind.PROCEED, 0, 0)])
    assert state.phase is MissionPhase.OUTBOUND
    assert intent.kind is IntentKind.FOLLOW
    assert [m.kind for m in outbox] == [MessageKind.ACK]


def test_follower_acks_every_proceed_but_resumes_once(track):
    cfg, state = follower_outbound(track)
    _, _, state = step(state, cfg, sensors(loaded=True, odo=cfg.pause_point[1]))
    inbox = [Message(MessageKind.PROCEED, 0, 0), Message(MessageKind.PROCEED, 0, 1)]
    _, outbox, state = step(state, cfg, sensors(loaded=True, odo=cfg.pause_point[1]),
                            inbox=inbox)
    assert state.phase is MissionPhase.OUTBOUND
    assert [m.kind for m in outbox] == [MessageKind.ACK, MessageKind.ACK]
    assert [m.seq for m in outbox] == [0, 1]
    # another duplicate later: acked again, no state regression
    _, outbox, state = step(state, cfg, sensors(loaded=True, odo=cfg.pause_point[1] + 0.05),
                            inbox=[Message(MessageKind.PROCEED, 0, 2)])
    assert state.phase is MissionPhase.OUTBOUND
    assert len(outbox) == 1


def test_follower_with_early_proceed_never_pauses(track):
    cfg, state = follower_outbound(track)
    _, _, state = step(state, cfg, sensors(loaded=True, odo=0.1),
                       inbox=[Message(MessageKind.PROCEED, 0, 0)])
    _, _, state = step(state, cfg, sensors(loaded=True, odo=cfg.pause_point[1]))
    assert state.phase is MissionPhase.OUTBOUND
    assert state.pause_cleared


def test_follower_config_requires_pause_point(track):
    with pytest.raises(ValueError):
        make_config(track, role=Role.FOLLOWER, ward=4, pause_point=None)


# ----------------------------------------------------------------- leader

def test_leader_announces_proceed_on_returning_and_retries(track):
    cfg = make_config(track, role=Role.LEADER, retry_interval=20)
    state = MissionState(phase=MissionPhase.AWAIT_UNLOAD, target=4, delivered=True)
    _, outbox, state = step(state, cfg, sensors(loaded=False, odo=2.5), tick=100)
    assert state.phase is MissionPhase.RETURNING
    assert [m.kind for m in outbox] == [MessageKind.PROCEED]
    # not due again until the retry interval elapses
    _, outbox, state = step(state, cfg, sensors(loaded=False, odo=2.6), tick=110)
    assert outbox == []
    _, outbox, state = step(state, cfg, sensors(loaded=False, odo=2.7), tick=120)
    assert [m.kind for m in outbox] == [MessageKind.PROCEED]
    assert [m.seq for m in outbox] == [1]
    # an ack stops the stream
    _, outbox, state = step(state, cfg, sensors(loaded=False, odo=2.8),
                            inbox=[Message(MessageKind.ACK, 1, 0)], tick=140)
    assert outbox == []
    _, outbox, state = step(state, cfg, sensors(loaded=False, odo=2.9), tick=200)
    assert outbox == []


def test_leader_keeps_retrying_after_done_until_acked(track):
    cfg = make_config(track, role=Role.LEADER, retry_interval=10)
    state = MissionState(phase=MissionPhase.RETURNING, target=4, delivered=True)
    state.leg_triggers = (0.5,)
    state.leg_actions = (Action.STOP,)
    _, outbox, state = step(state, cfg, sensors(loaded=False, odo=1.0), tick=0)
    assert state.phase is MissionPhase.DONE
    assert len(outbox) == 1
    _, outbox, state = step(state, cfg, sensors(loaded=False, odo=1.0), tick=10)
    assert len(outbox) == 1  # still resending in Done


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


# (phase, sensors) cases outside DETECTION_PHASES; the odometry values follow
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
    assert {st.phase for st, _ in cases} == set(MissionPhase) - DETECTION_PHASES
    for state, snsr in cases:
        step(state, cfg, snsr, tick=100)


def test_returning_turns_and_stops_without_reading(track):
    cfg = make_config(track)
    intent, _, state = step(returning_state(track, cfg), cfg, unreadable(odo=2.0))
    assert intent.kind is IntentKind.TURN and intent.turn is TurnDirection.LEFT
    _, _, state = step(state, cfg, unreadable(odo=3.0))
    assert state.phase is MissionPhase.DONE


def test_await_load_reads_detections_when_loaded(track):
    # the payload starts Outbound, whose junction check reads placards in
    # the same step: the reason AwaitLoad is a detection phase
    cfg = make_config(track)
    state = MissionState(phase=MissionPhase.AWAIT_LOAD, target=2)
    assert MissionPhase.AWAIT_LOAD in DETECTION_PHASES
    with pytest.raises(DetectionsRead):
        step(state, cfg, unreadable(loaded=True))


def test_paused_at_point_reads_detections_once_proceed_arrives(track):
    cfg, state = follower_outbound(track)
    _, _, state = step(state, cfg, sensors(loaded=True, odo=cfg.pause_point[1]))
    assert state.phase is MissionPhase.PAUSED_AT_POINT
    assert MissionPhase.PAUSED_AT_POINT in DETECTION_PHASES
    # still waiting: nothing read
    step(state, cfg, unreadable(loaded=True, odo=cfg.pause_point[1]))
    with pytest.raises(DetectionsRead):
        step(state, cfg, unreadable(loaded=True, odo=cfg.pause_point[1]),
             inbox=[Message(MessageKind.PROCEED, 0, 0)])
    state.proceed_received = True
    with pytest.raises(DetectionsRead):
        step(state, cfg, unreadable(loaded=True, odo=cfg.pause_point[1]))


def test_await_target_and_outbound_read_detections(track):
    cfg = make_config(track)
    with pytest.raises(DetectionsRead):
        step(MissionState(), cfg, unreadable())
    _, _, state = step(MissionState(phase=MissionPhase.AWAIT_LOAD, target=2), cfg,
                       sensors(loaded=True))
    with pytest.raises(DetectionsRead):
        step(state, cfg, unreadable(loaded=True, odo=0.5))
