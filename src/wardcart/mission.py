"""Per-cart mission state machine.

Phase chain for a delivery: AwaitTarget (read the digit card), AwaitLoad
(wait for the contact switch), Outbound (line following with junction
decisions), optional PausedAtPoint for the trailing cart, AtWard/AwaitUnload
at the destination, Returning, Done. Fault is reachable from anywhere.

The transition function is pure: it never touches the world, it only maps
(state, sensors, inbox) to (drive intent, outbox, new state). A turn is
announced once as a LEFT, RIGHT or AROUND intent and executed by the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .arena import Action, RouteStep
from .comms import Message, MessageKind
from .vision.camera import WIDTH
from .vision.pipeline import DigitDetection

CONFIRM_FRAMES = 5          # frames in a row that must show the same nearest digit
DECISION_RANGE = 0.35       # m; target placards nearer than this are checked
JUNCTION_CENTER_TOLERANCE = 10.0  # px off the frame center still read as straight
CONTRADICTION_LIMIT = 3     # contradicting frames in a row that fault the cart
STOP_MARGIN = 0.05          # m; stops and the pause point trigger this far early
TURN_LEAD = 0.04            # m; turns trigger this far before the junction
PROCEED_RETRY_TICKS = 20    # the leader resends an unacked Proceed this often


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


# phases at the ward: the step reads the payload switch and no frame, and
# the cart leaves them only through the AROUND turn
WARD_PHASES = frozenset({MissionPhase.AT_WARD, MissionPhase.AWAIT_UNLOAD})


class Role(Enum):
    SOLO = "solo"
    LEADER = "leader"
    FOLLOWER = "follower"


class Intent(Enum):
    """What one mission step asks of the drive. A turn's value is the
    direction the ``turn=`` trace event names."""
    FOLLOW = "follow"
    HALT = "halt"
    LEFT = "left"
    RIGHT = "right"
    AROUND = "around"


@dataclass(frozen=True)
class SensorBundle:
    """One tick of simulated serial traffic from the camera and switches."""
    line: tuple[float, float] | None  # (x px, confidence)
    detections: tuple[DigitDetection, ...]
    loaded: bool
    odometry_distance: float


@dataclass(frozen=True)
class MissionConfig:
    role: Role = Role.SOLO
    cart_id: int = 0
    routes: dict[int, tuple[RouteStep, ...]] = field(default_factory=dict)
    returns: dict[int, tuple[RouteStep, ...]] = field(default_factory=dict)
    lost_line_ticks: int = 50
    pause_distance: float | None = None  # along the follower's outbound route, m

    def __post_init__(self):
        if self.role is Role.FOLLOWER and self.pause_distance is None:
            raise ValueError("follower role requires a pause_distance")


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
    out_seq: int = 0
    proceed_acked: bool = False          # leader: the follower acknowledged a Proceed
    proceed_sent_tick: int | None = None  # leader: tick of the last Proceed sent


def _copy(state: MissionState) -> MissionState:
    """A copy of state. Every field holds an immutable value, so the copy is
    shallow; copying the attribute dict skips the __init__ that
    dataclasses.replace runs, about 4 µs of every mission_step."""
    st = object.__new__(MissionState)
    st.__dict__.update(state.__dict__)
    return st


def _confirm_update(digit: int, streak: int,
                    detections: tuple[DigitDetection, ...]) -> tuple[int, int]:
    if not detections:
        return 0, 0
    nearest = min(detections, key=lambda d: (d.range_z, d.image_x, d.digit))
    if nearest.digit == digit:
        return digit, streak + 1
    return nearest.digit, 1


def check_junction(target: int, detections: tuple[DigitDetection, ...],
                   planned: Action) -> str | None:
    """Check the planned action at the upcoming junction against vision.

    The nearest target placard within DECISION_RANGE shows the side the
    target lies on. Returns the contradiction when that side is not the
    planned turn or straight (a misread somewhere), else None; a planned
    Stop and a target placard out of range or out of sight pass.
    """
    if planned is Action.STOP:
        return None
    on_target = [d for d in detections if d.range_z < DECISION_RANGE and d.digit == target]
    if not on_target:
        return None
    best = min(on_target, key=lambda d: (d.range_z, d.image_x))
    dx = best.image_x - WIDTH / 2.0
    if dx < -JUNCTION_CENTER_TOLERANCE:
        seen = Action.LEFT
    elif dx > JUNCTION_CENTER_TOLERANCE:
        seen = Action.RIGHT
    else:
        seen = Action.STRAIGHT
    if seen is planned:
        return None
    return f"target {target} placard suggests {seen.value}, route says {planned.value}"


def reading_range(state: MissionState, cfg: MissionConfig, loaded: bool,
                  inbox: list[Message]) -> float | None:
    """How far the next mission_step reads placards, or None when it reads none.

    The step reads only detections with range_z below the returned range:
    every one while the target card is confirmed, and those within
    DECISION_RANGE when a planned turn or straight is checked at the next
    junction. AwaitLoad starts Outbound, and checks the leg's first step, in
    the step the payload arrives. PausedAtPoint does the same in the step
    whose inbox, the messages that step reads, holds a Proceed.
    """
    if state.phase is MissionPhase.AWAIT_TARGET:
        return math.inf
    if state.phase is MissionPhase.AWAIT_LOAD:
        if state.target is None or not loaded:
            return None
        actions, cursor = [s.action for s in cfg.routes[state.target]], 0
    elif state.phase is MissionPhase.OUTBOUND or (
            state.phase is MissionPhase.PAUSED_AT_POINT
            and any(m.kind is MessageKind.PROCEED for m in inbox)):
        actions, cursor = state.leg_actions, state.cursor
    else:
        return None
    if cursor >= len(actions) or actions[cursor] is Action.STOP:
        return None
    return DECISION_RANGE


def _begin_leg(st: MissionState, route: tuple[RouteStep, ...], odometry: float) -> None:
    st.leg_actions = tuple(s.action for s in route)
    cum = 0.0
    triggers = []
    for s in route:
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


def _drive(st: MissionState, cfg: MissionConfig, sensors: SensorBundle) -> Intent:
    """Line following plus junction/stop handling for Outbound/Returning."""
    leg_dist = sensors.odometry_distance - st.leg_odo_base

    if sensors.line is None:
        st.lost_line += 1
        if st.lost_line > cfg.lost_line_ticks:
            _fault(st, "guide line lost")
            return Intent.HALT
    else:
        st.lost_line = 0

    if (st.phase is MissionPhase.OUTBOUND and st.target is not None
            and st.cursor < len(st.leg_actions)):
        contradiction = check_junction(st.target, sensors.detections, st.leg_actions[st.cursor])
        if contradiction is None:
            st.contradictions = 0
        else:
            st.contradictions += 1
            if st.contradictions >= CONTRADICTION_LIMIT:
                _fault(st, contradiction)
                return Intent.HALT

    # a follower holds at its pause point until the leader's Proceed arrives
    if (st.phase is MissionPhase.OUTBOUND and cfg.role is Role.FOLLOWER
            and not st.proceed_received and leg_dist >= cfg.pause_distance - STOP_MARGIN):
        st.phase = MissionPhase.PAUSED_AT_POINT
        return Intent.HALT

    if st.cursor < len(st.leg_triggers):
        action = st.leg_actions[st.cursor]
        lead = STOP_MARGIN if action is Action.STOP else TURN_LEAD
        if leg_dist >= st.leg_triggers[st.cursor] - lead:
            st.cursor += 1
            if action is Action.STOP:
                if st.phase is MissionPhase.OUTBOUND:
                    st.phase = MissionPhase.AT_WARD
                    st.delivered = True
                else:
                    st.phase = MissionPhase.DONE
                return Intent.HALT
            if action is Action.LEFT:
                return Intent.LEFT
            if action is Action.RIGHT:
                return Intent.RIGHT
    return Intent.FOLLOW


def mission_step(state: MissionState, cfg: MissionConfig, sensors: SensorBundle,
                 inbox: list[Message], now_tick: int
                 ) -> tuple[Intent, list[Message], MissionState]:
    """One tick of the mission FSM. Returns (intent, outbox, new state); the
    intent is HALT unless the new phase is Outbound or Returning."""
    st = _copy(state)
    outbox: list[Message] = []

    if cfg.role is Role.FOLLOWER:
        for msg in inbox:
            if msg.kind is MessageKind.PROCEED:
                st.proceed_received = True
                outbox.append(Message(MessageKind.ACK, cfg.cart_id, st.out_seq))
                st.out_seq += 1
    elif cfg.role is Role.LEADER:
        if any(m.kind is MessageKind.ACK for m in inbox):
            st.proceed_acked = True

    intent = Intent.HALT

    if st.phase is MissionPhase.AWAIT_TARGET:
        st.confirm_digit, st.confirm_count = _confirm_update(
            st.confirm_digit, st.confirm_count, sensors.detections)
        if st.confirm_count >= CONFIRM_FRAMES:
            if st.confirm_digit not in cfg.routes:
                _fault(st, f"no route to ward {st.confirm_digit}")
            else:
                st.target = st.confirm_digit
                st.phase = MissionPhase.AWAIT_LOAD

    if st.phase is MissionPhase.AWAIT_LOAD and st.target is not None and sensors.loaded:
        _begin_leg(st, cfg.routes[st.target], sensors.odometry_distance)
        st.phase = MissionPhase.OUTBOUND

    if st.phase is MissionPhase.PAUSED_AT_POINT and st.proceed_received:
        st.phase = MissionPhase.OUTBOUND

    if st.phase is MissionPhase.AT_WARD:
        st.phase = MissionPhase.AWAIT_UNLOAD
    elif st.phase is MissionPhase.AWAIT_UNLOAD and not sensors.loaded:
        _begin_leg(st, cfg.returns[st.target], sensors.odometry_distance)
        st.phase = MissionPhase.RETURNING
        intent = Intent.AROUND

    if st.phase in (MissionPhase.OUTBOUND, MissionPhase.RETURNING) \
            and intent is not Intent.AROUND:
        intent = _drive(st, cfg, sensors)

    # leader announces Proceed once returning and resends it every
    # PROCEED_RETRY_TICKS until acked; kept alive through Done so a lossy
    # link cannot strand the follower
    if (cfg.role is Role.LEADER
            and st.phase in (MissionPhase.RETURNING, MissionPhase.DONE)
            and not st.proceed_acked
            and (st.proceed_sent_tick is None
                 or now_tick - st.proceed_sent_tick >= PROCEED_RETRY_TICKS)):
        outbox.append(Message(MessageKind.PROCEED, cfg.cart_id, st.out_seq))
        st.out_seq += 1
        st.proceed_sent_tick = now_tick

    return intent, outbox, st
