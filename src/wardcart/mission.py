"""Per-cart mission state machine.

Phase chain for a delivery: AwaitTarget (read the digit card), AwaitLoad
(wait for the contact switch), Outbound (line following with junction
decisions), optional PausedAtPoint for the trailing cart, AtWard/AwaitUnload
at the destination, Returning, Done. Fault is reachable from anywhere.

The transition function is pure: it never touches the world, it only maps
(state, sensors, inbox) to (drive intent, outbox, new state). Junction
turns are announced once as a Turn intent and executed by the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from .arena import Action, RoutePlan, Vec2
from .comms import Message, MessageKind, ProceedRetry
from .vision.pipeline import DigitDetection


class MissionPhase(Enum):
    AWAIT_TARGET = "await_target"
    AWAIT_LOAD = "await_load"
    OUTBOUND = "outbound"
    PAUSED_AT_POINT = "paused_at_point"
    AT_WARD = "at_ward"
    AWAIT_UNLOAD = "await_unload"
    RETURNING = "returning"
    DONE = "done"
    FAULT = "fault"


# phases in which the cart must hold still
HALT_PHASES = frozenset({
    MissionPhase.AWAIT_TARGET, MissionPhase.AWAIT_LOAD, MissionPhase.AT_WARD,
    MissionPhase.AWAIT_UNLOAD, MissionPhase.PAUSED_AT_POINT, MissionPhase.DONE,
    MissionPhase.FAULT,
})

# phases from which one mission_step can read sensors.detections: the
# target is confirmed in AwaitTarget and junctions are checked in Outbound;
# AwaitLoad and PausedAtPoint can enter Outbound within the same step
DETECTION_PHASES = frozenset({
    MissionPhase.AWAIT_TARGET, MissionPhase.AWAIT_LOAD, MissionPhase.OUTBOUND,
    MissionPhase.PAUSED_AT_POINT,
})


class Role(Enum):
    SOLO = "solo"
    LEADER = "leader"
    FOLLOWER = "follower"


class IntentKind(Enum):
    FOLLOW = "follow"
    TURN = "turn"
    HALT = "halt"


class TurnDirection(Enum):
    LEFT = "left"
    RIGHT = "right"
    AROUND = "around"


@dataclass(frozen=True)
class DriveIntent:
    kind: IntentKind
    turn: TurnDirection | None = None


FOLLOW = DriveIntent(IntentKind.FOLLOW)
HALT = DriveIntent(IntentKind.HALT)


def turn_intent(direction: TurnDirection) -> DriveIntent:
    return DriveIntent(IntentKind.TURN, direction)


@dataclass(frozen=True)
class SensorBundle:
    """One tick of simulated serial traffic from the camera and switches."""
    line: tuple[float, float] | None  # (x px, confidence)
    detections: list[DigitDetection]
    loaded: bool
    odometry_distance: float


@dataclass(frozen=True)
class MissionConfig:
    role: Role = Role.SOLO
    cart_id: int = 0
    routes: dict[int, RoutePlan] = field(default_factory=dict)
    returns: dict[int, RoutePlan] = field(default_factory=dict)
    frame_width: int = 160
    junction_center_tolerance: float = 10.0
    confirm_frames: int = 5
    decision_range: float = 0.35
    lost_line_ticks: int = 50
    contradiction_limit: int = 3
    stop_margin: float = 0.05
    turn_lead: float = 0.04
    pause_point: tuple[Vec2, float] | None = None  # (position, route distance)
    retry_interval: int = 20

    def __post_init__(self):
        if self.role is Role.FOLLOWER and self.pause_point is None:
            raise ValueError("follower role requires a resolved pause_point")


@dataclass
class MissionState:
    phase: MissionPhase = MissionPhase.AWAIT_TARGET
    fault_reason: str | None = None
    target: int | None = None
    confirm_digit: int = 0
    confirm_count: int = 0
    leg_triggers: tuple[float, ...] = ()
    leg_actions: tuple[Action, ...] = ()
    cursor: int = 0
    leg_odo_base: float = 0.0
    lost_line: int = 0
    contradictions: int = 0
    delivered: bool = False
    proceed_received: bool = False
    pause_cleared: bool = False
    out_seq: int = 0
    retry: ProceedRetry = field(default_factory=ProceedRetry)


class JunctionContradiction(ValueError):
    """Vision places the target on a side the route plan rules out."""


def _confirm_update(digit: int, streak: int,
                    detections: list[DigitDetection]) -> tuple[int, int]:
    if not detections:
        return 0, 0
    nearest = min(detections, key=lambda d: (d.range_z, d.image_x, d.digit))
    if nearest.digit == digit:
        return digit, streak + 1
    return nearest.digit, 1


def check_junction(target: int, detections: list[DigitDetection], planned: Action,
                   frame_width: int, tolerance: float, decision_range: float) -> None:
    """Check the planned action at the upcoming junction against vision.

    The nearest target placard within decision_range shows the side the
    target lies on. Raises JunctionContradiction when that side is not the
    planned turn or straight (a misread somewhere); a planned Stop and a
    target placard out of range or out of sight pass.
    """
    on_target = [d for d in detections if d.range_z < decision_range and d.digit == target]
    if not on_target or planned is Action.STOP:
        return
    best = min(on_target, key=lambda d: (d.range_z, d.image_x))
    dx = best.image_x - frame_width / 2.0
    if dx < -tolerance:
        seen = Action.LEFT
    elif dx > tolerance:
        seen = Action.RIGHT
    else:
        seen = Action.STRAIGHT
    if seen is not planned:
        raise JunctionContradiction(
            f"target {target} placard suggests {seen.value}, route says {planned.value}")


def _begin_leg(st: MissionState, plan: RoutePlan, odometry: float) -> None:
    st.leg_actions = tuple(s.action for s in plan.steps)
    cum = 0.0
    triggers = []
    for s in plan.steps:
        cum += s.length
        triggers.append(cum)
    st.leg_triggers = tuple(triggers)
    st.cursor = 0
    st.leg_odo_base = odometry
    st.lost_line = 0
    st.contradictions = 0


def _fault(st: MissionState, reason: str) -> None:
    st.phase = MissionPhase.FAULT
    st.fault_reason = reason


def _drive(st: MissionState, cfg: MissionConfig, sensors: SensorBundle) -> DriveIntent:
    """Line following plus junction/stop handling for Outbound/Returning."""
    leg_dist = sensors.odometry_distance - st.leg_odo_base

    if sensors.line is None:
        st.lost_line += 1
        if st.lost_line > cfg.lost_line_ticks:
            _fault(st, "guide line lost")
            return HALT
    else:
        st.lost_line = 0

    if (st.phase is MissionPhase.OUTBOUND and st.target is not None
            and st.cursor < len(st.leg_actions)):
        try:
            check_junction(st.target, sensors.detections, st.leg_actions[st.cursor],
                           cfg.frame_width, cfg.junction_center_tolerance,
                           cfg.decision_range)
        except JunctionContradiction as exc:
            st.contradictions += 1
            if st.contradictions >= cfg.contradiction_limit:
                _fault(st, str(exc))
                return HALT
        else:
            st.contradictions = 0

    if (st.phase is MissionPhase.OUTBOUND and cfg.role is Role.FOLLOWER
            and not st.pause_cleared and cfg.pause_point is not None):
        if leg_dist >= cfg.pause_point[1] - cfg.stop_margin:
            if st.proceed_received:
                st.pause_cleared = True
            else:
                st.phase = MissionPhase.PAUSED_AT_POINT
                return HALT

    if st.cursor < len(st.leg_triggers):
        action = st.leg_actions[st.cursor]
        lead = cfg.stop_margin if action is Action.STOP else cfg.turn_lead
        if leg_dist >= st.leg_triggers[st.cursor] - lead:
            st.cursor += 1
            if action is Action.STOP:
                if st.phase is MissionPhase.OUTBOUND:
                    st.phase = MissionPhase.AT_WARD
                    st.delivered = True
                else:
                    st.phase = MissionPhase.DONE
                return HALT
            if action is Action.LEFT:
                return turn_intent(TurnDirection.LEFT)
            if action is Action.RIGHT:
                return turn_intent(TurnDirection.RIGHT)
    return FOLLOW


def mission_step(state: MissionState, cfg: MissionConfig, sensors: SensorBundle,
                 inbox: list[Message], now_tick: int
                 ) -> tuple[DriveIntent, list[Message], MissionState]:
    """One tick of the mission FSM. Returns (intent, outbox, new state)."""
    st = replace(state, retry=replace(state.retry))
    outbox: list[Message] = []

    if cfg.role is Role.FOLLOWER:
        for msg in inbox:
            if msg.kind is MessageKind.PROCEED:
                st.proceed_received = True
                outbox.append(Message(MessageKind.ACK, cfg.cart_id, st.out_seq))
                st.out_seq += 1
    elif cfg.role is Role.LEADER:
        if any(m.kind is MessageKind.ACK for m in inbox):
            st.retry.mark_acked()

    intent = HALT

    if st.phase is MissionPhase.AWAIT_TARGET:
        st.confirm_digit, st.confirm_count = _confirm_update(
            st.confirm_digit, st.confirm_count, sensors.detections)
        if st.confirm_count >= cfg.confirm_frames:
            if st.confirm_digit not in cfg.routes:
                _fault(st, f"no route to ward {st.confirm_digit}")
            else:
                st.target = st.confirm_digit
                st.phase = MissionPhase.AWAIT_LOAD

    if st.phase is MissionPhase.AWAIT_LOAD and st.target is not None and sensors.loaded:
        _begin_leg(st, cfg.routes[st.target], sensors.odometry_distance)
        st.phase = MissionPhase.OUTBOUND

    if st.phase is MissionPhase.PAUSED_AT_POINT and st.proceed_received:
        st.pause_cleared = True
        st.phase = MissionPhase.OUTBOUND

    if st.phase is MissionPhase.AT_WARD:
        st.phase = MissionPhase.AWAIT_UNLOAD
    elif st.phase is MissionPhase.AWAIT_UNLOAD and not sensors.loaded:
        _begin_leg(st, cfg.returns[st.target], sensors.odometry_distance)
        st.phase = MissionPhase.RETURNING
        intent = turn_intent(TurnDirection.AROUND)

    if st.phase in (MissionPhase.OUTBOUND, MissionPhase.RETURNING) \
            and intent.kind is not IntentKind.TURN:
        intent = _drive(st, cfg, sensors)

    # leader announces Proceed once returning, resending until acked; kept
    # alive through Done so a lossy link cannot strand the follower
    if (cfg.role is Role.LEADER
            and st.phase in (MissionPhase.RETURNING, MissionPhase.DONE)):
        st.retry.retry_interval = cfg.retry_interval
        if st.retry.should_send(now_tick):
            outbox.append(Message(MessageKind.PROCEED, cfg.cart_id, st.out_seq))
            st.out_seq += 1
            st.retry.mark_sent(now_tick)

    if st.phase in HALT_PHASES and intent.kind is not IntentKind.HALT:
        intent = HALT
    return intent, outbox, st
