"""Deterministic fixed-timestep engine wiring vision, control and missions.

Per tick and per cart, in a fixed order: deliver due link messages, apply
the scenario schedule (digit card, payload on/off), render and run the
recognition pipeline, step the mission, drive (PID line following, latched
junction turns, or halt), integrate the vehicle, record the trace. The LEDs
follow from the mission phase. Cart 1 always steps before cart 2 and
messages sent in a tick are deliverable from the next tick on, so a (map,
config) pair fully determines the byte-level trace.

A tick makes only the sensing its mission step reads. A tick with a
latched junction turn makes no frame: the mission is not stepped and the
drive follows the turn. Nor does a tick at the ward (``WARD_PHASES``): its
step reads only the payload switch, and the cart leaves through the AROUND
turn, which re-seeds the tracking gate at the frame center when it ends.
Such a tick only advances the cart's noise stream by the draw that frame's
render would take (``render.skip_noise``). Any other tick reads its frame
for the line fix and the placards nearer than the reading range, each
exactly; a paused follower reads placards only in the tick a Proceed
reaches it. Every frame is seen from the pose's x and y as NumPy float64
(``_reading``), so the first tick, from the Python floats of the start
pose, samples the ground in the precision of every later one.

- Lookup. Without pixel noise that reading is a function of the track, the
  pose values, the cards, the brightness, the lens, the range and the
  tracking gate. One table of the last 1,024 such readings, shared by every
  cart and run, answers a repeated one: a still cart, or a run on an
  approach an earlier run took. It keeps no frames. A noisy frame draws
  from the cart's noise stream, so with noise every tick makes a new one.
- Clean bits (``render.clean_bits``), without noise, through any lens. The
  frame has two levels, so its mean follows from the ink count and the
  bits are the ink or nothing. Without distortion, a tick that reads no
  placards gets only the control band, which the line centroid reads, when
  a lower bound on the frame mean already decides it; every other tick
  gets the whole frame.
- Render and binarize: noisy frames only. Every frame is then undistorted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .arena import (PlacardEntry, TrackMap, nearest_centerline_distance, pause_distance,
                    project_offsets, reverse_route, route_to, segments)
from .comms import Link, Message
from .controller import PidGains, PidState, pid_step, steer
from .mission import (PROCEED_RETRY_TICKS, WARD_PHASES, Intent, MissionConfig, MissionPhase,
                      MissionState, Role, SensorBundle, mission_step, reading_range)
from .prng import GENERATOR_IDS, derive_seed
from .vehicle import MOTOR_TIME_CONSTANT, TRACK_WIDTH, VehicleState, apply_motor, set_payload
from .vision.camera import WIDTH, CameraModel
from .vision.pipeline import (DigitDetection, adaptive_binarize, detect_in_binary, line_centroid,
                              undistort_bits)
from .vision.render import NoiseParams, clean_bits, render, skip_noise

PAYLOAD_GRAMS = 200.0
REFERENCE_DT = 0.02  # tick length GAINS are quoted at
GAINS = PidGains(kp=0.5, ki=0.01, kd=14.0, integral_limit=0.3, output_limit=0.9)
BASE_DUTY = 0.8      # wheel duty on a straight line
CARD_AHEAD = 0.22    # digit card shown this far in front of the cart
CARD_LEFT = 0.10     # and this far to its left, off the guide line
GATE_HALF_PX = 12    # tracking gate: centroid columns around the last fix
CONTROL_ROI = (78, 120)  # frame rows the line centroid is taken over
TURN_DUTY = 0.45     # wheel duty of a latched junction turn
PHARMACY_RADIUS = 0.20  # a cart ending this close to the pharmacy is home
LOAD_DELAY_TICKS = 25   # target locked to payload on
UNLOAD_DWELL_TICKS = 50  # at the ward to payload off
LEADER_DWELL_AFTER_PAUSE = 50  # leader unloads this long after the follower pauses
LEADER_MAX_DWELL = 1500  # and unloads anyway after this long at its ward


class CartOutcome(Enum):
    DELIVERED_AND_RETURNED = "delivered_and_returned"
    DELIVERED = "delivered"
    INCOMPLETE = "incomplete"
    FAULT = "fault"


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.02
    max_ticks: int = 9000
    seed: int = 0
    noise: NoiseParams = NoiseParams()
    carts: int = 1
    wards: tuple[int, ...] = (2,)
    link_latency: int = 3
    link_drop: float = 0.0

    def __post_init__(self):
        # 1/dt sets the lost-line limit, and dt / REFERENCE_DT rescales GAINS
        if not (0 < self.dt < math.inf and math.isfinite(1.0 / self.dt)
                and math.isfinite(self.dt / REFERENCE_DT)):
            raise ValueError("dt must be positive and finite, and 1/dt and dt/0.02 finite")
        if self.max_ticks < 0:
            raise ValueError("max_ticks must be nonnegative")
        if not 0 <= self.seed < 2 ** 64:  # derive_seed keeps 64 bits of it
            raise ValueError("seed must be in [0, 2**64)")
        if self.carts not in (1, 2):
            raise ValueError("carts must be 1 or 2")
        if len(self.wards) != self.carts:
            raise ValueError("one target ward per cart required")
        for w in self.wards:
            if not 1 <= w <= 8:
                raise ValueError(f"ward {w} out of range 1..8")
        if self.link_latency < 0:
            raise ValueError("link_latency must be nonnegative")
        if not 0 <= self.link_drop <= 1:
            raise ValueError("link_drop must be in [0, 1]")

    def gains(self) -> PidGains:
        """GAINS at the configured tick length.

        The integral and derivative gains rescale with dt exactly as the
        classical kp*(T/Ti) and kp*(Td/T) terms do, so changing dt keeps the
        same continuous-time behavior.
        """
        scale = self.dt / REFERENCE_DT
        return replace(GAINS, ki=GAINS.ki * scale, kd=GAINS.kd / scale)


# Every scenario key: (key, SimConfig field). A "noise.x" field is a
# NoiseParams field; ward and ward2 are the two entries of wards. A value
# takes the type of the field's default.
CONFIG_KEYS: tuple[tuple[str, str], ...] = (
    ("dt", "dt"),
    ("max_ticks", "max_ticks"),
    ("seed", "seed"),
    ("carts", "carts"),
    ("ward", "wards"),
    ("ward2", "wards"),
    ("noise.brightness", "noise.brightness"),
    ("noise.sigma", "noise.sigma"),
    ("noise.k1", "noise.k1"),
    ("link.latency", "link_latency"),
    ("link.drop", "link_drop"),
)
_DEFAULTS = SimConfig()  # the source of each key's type


def _field(config: SimConfig, name: str):
    owner, _, attr = name.rpartition(".")
    return getattr(getattr(config, owner) if owner else config, attr)


def _parse(key: str, raw: str, default) -> int | float:
    """raw as the type of default: a float, or an int for int and tuple fields."""
    if not isinstance(default, float):
        try:
            return int(raw)  # exact above 2**53, where float would round
        except ValueError:
            pass  # "1e3" and "1.0" are whole numbers too
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"bad number for {key}: {raw!r}") from None
    if isinstance(default, float):
        return value
    if not value.is_integer():
        raise ValueError(f"{key} must be a whole number: {raw!r}")
    return int(value)


def config_from_keys(values: dict[str, str], base: SimConfig = _DEFAULTS) -> SimConfig:
    """Apply scenario ``key = value`` strings to base; the result passes the
    range checks. Raises ValueError on an unknown key or a bad value."""
    unknown = sorted(set(values) - {key for key, _ in CONFIG_KEYS})
    if unknown:
        raise ValueError(f"unknown keys {unknown}")
    updates, noise, wards = {}, {}, list(base.wards)
    for key, name in CONFIG_KEYS:
        if key not in values:
            continue
        value = _parse(key, values[key], _field(_DEFAULTS, name))
        if key == "ward":
            wards[0] = value
        elif key == "ward2":
            wards[1:] = [value]
        elif name.startswith("noise."):
            noise[name.partition(".")[2]] = value
        else:
            updates[name] = value
    # one ward per cart: ward2 defaults to ward and a one-cart run drops it
    wards = (wards + wards[:1])[:updates.get("carts", base.carts)]
    return replace(base, noise=replace(base.noise, **noise), wards=tuple(wards), **updates)


@dataclass(frozen=True)
class PoseSample:
    tick: int
    cart: int
    x: float
    y: float
    heading: float
    phase: MissionPhase
    led_red: bool
    led_yellow: bool


@dataclass(frozen=True)
class TraceEvent:
    tick: int
    cart: int
    text: str


@dataclass(frozen=True)
class TraceReport:
    outcomes: tuple[CartOutcome, ...]
    fault_reasons: tuple[str | None, ...]
    recognized: tuple[int | None, ...]  # target each cart locked onto
    events: tuple[TraceEvent, ...]
    samples: tuple[PoseSample, ...]
    completion_ticks: int
    line_deviations: tuple[float, ...]
    header: tuple[tuple[str, str], ...]

    @property
    def max_line_deviation(self) -> float:
        return max(self.line_deviations) if self.line_deviations else 0.0


@dataclass
class _Turn:
    direction: Intent  # LEFT, RIGHT or AROUND
    target: float
    progress: float = 0.0
    prev_heading: float = 0.0
    braking: bool = True  # stop dead first: rotation from rest stays in place


class _Cart:
    def __init__(self, idx: int, cfg: MissionConfig, start: tuple[float, float, float],
                 rng: np.random.Generator):
        self.idx = idx
        self.mission_cfg = cfg
        self.mission = MissionState()
        self.vehicle = VehicleState(pose=start)
        self.pid = PidState()
        self.odometry = 0.0
        self.rng = rng
        self.start = start
        self.card: PlacardEntry | None = None
        self.gate_x: float | None = None
        self.turn: _Turn | None = None
        self.pending_inbox: list[Message] = []
        self.load_tick: int | None = None
        self.unload_tick: int | None = None
        self.await_unload_since: int | None = None


def _wrap_angle(a: float) -> float:
    # exact, and in one step however many turns a holds
    return math.remainder(a, 2 * math.pi)


def _make_card(digit: int, start: tuple[float, float, float]) -> PlacardEntry:
    x, y, heading = start
    fx, fy = math.cos(heading), math.sin(heading)
    lx, ly = -fy, fx
    return PlacardEntry(digit, x + fx * CARD_AHEAD + lx * CARD_LEFT,
                        y + fy * CARD_AHEAD + ly * CARD_LEFT, heading)


def _start_pose(track: TrackMap, ward: int) -> tuple[float, float, float]:
    px, py = track.node_pos(track.pharmacy)
    first = route_to(track, ward)[0]
    if first.edge_id is None:
        return (px, py, math.pi / 2)
    ox, oy = track.node_pos(first.end_node)
    return (px, py, math.atan2(oy - py, ox - px))


def _leds(phase: MissionPhase) -> tuple[bool, bool]:
    """(red, yellow): red at the ward, yellow while paused for the lead cart."""
    return phase in WARD_PHASES, phase is MissionPhase.PAUSED_AT_POINT


def _empty_sensors(cart: _Cart) -> SensorBundle:
    return SensorBundle(line=None, detections=(), loaded=cart.vehicle.loaded,
                        odometry_distance=cart.odometry)


def run_scenario(track: TrackMap, config: SimConfig) -> TraceReport:
    """Run one scenario to completion (all carts Done/Fault) or max_ticks."""
    gains = config.gains()
    link = Link(latency_ticks=config.link_latency, drop_probability=config.link_drop,
                rng_seed=derive_seed(config.seed, "link"))

    routes = {w.id: route_to(track, w.id) for w in track.wards}
    returns = {wid: reverse_route(track, route) for wid, route in routes.items()}
    carts: list[_Cart] = []
    for i in range(config.carts):
        ward = config.wards[i]
        role = Role.SOLO if config.carts == 1 else (Role.LEADER if i == 0 else Role.FOLLOWER)
        pause = pause_distance(track, ward) if role is Role.FOLLOWER else None
        mcfg = MissionConfig(role=role, cart_id=i, routes=routes, returns=returns,
                             lost_line_ticks=max(1, round(1.0 / config.dt)),
                             pause_distance=pause)
        rng = np.random.default_rng(derive_seed(config.seed, f"noise/cart{i}"))
        carts.append(_Cart(i, mcfg, _start_pose(track, ward), rng))

    events: list[TraceEvent] = []
    samples: list[PoseSample] = []
    ticks_run = 0

    def log(tick: int, cart: int, text: str) -> None:
        events.append(TraceEvent(tick, cart, text))

    for tick in range(config.max_ticks):
        ticks_run = tick + 1
        inbox_all = link.poll(tick)
        outbox_queue: list[Message] = []

        for cart in carts:
            inbox = [m for m in inbox_all if m.sender != cart.idx]
            phase_before = cart.mission.phase

            _apply_schedule(cart, carts, tick, config, log)

            cart.pending_inbox.extend(inbox)
            if cart.mission.phase in (MissionPhase.DONE, MissionPhase.FAULT):
                sensors = _empty_sensors(cart)
            else:
                sensors = _sense(cart, track, config, cart.pending_inbox)

            if cart.turn is None:
                intent, outbox, cart.mission = mission_step(
                    cart.mission, cart.mission_cfg, sensors, cart.pending_inbox, tick)
                cart.pending_inbox = []
                outbox_queue.extend(outbox)
            else:
                intent = Intent.HALT  # engine owns the cart while a turn is latched;
                # inbox messages wait in pending_inbox until it resumes

            left, right = _drive_command(cart, intent, sensors, gains, tick, log)
            prev_pose = cart.vehicle.pose
            cart.vehicle = apply_motor(cart.vehicle, left, right, config.dt)
            cart.odometry += math.hypot(cart.vehicle.pose[0] - prev_pose[0],
                                        cart.vehicle.pose[1] - prev_pose[1])
            _advance_turn(cart)

            phase = cart.mission.phase
            red, yellow = _leds(phase)
            if phase is not phase_before:
                if phase is MissionPhase.FAULT:
                    log(tick, cart.idx, f"phase={phase.value}:{cart.mission.fault_reason}")
                else:
                    log(tick, cart.idx, f"phase={phase.value}")
                if phase_before is MissionPhase.AWAIT_TARGET and cart.mission.target:
                    log(tick, cart.idx, f"target={cart.mission.target}")
                red_before, yellow_before = _leds(phase_before)
                if red != red_before:
                    log(tick, cart.idx, f"led_red={'on' if red else 'off'}")
                if yellow != yellow_before:
                    log(tick, cart.idx, f"led_yellow={'on' if yellow else 'off'}")

            x, y, heading = cart.vehicle.pose
            samples.append(PoseSample(tick, cart.idx, x, y, heading, phase, red, yellow))

        for msg in outbox_queue:
            ok = link.send(msg, tick)
            log(tick, msg.sender, f"tx={msg.kind.value}:{msg.seq}:"
                                  f"{'delivered' if ok else 'dropped'}")

        if all(c.mission.phase in (MissionPhase.DONE, MissionPhase.FAULT) for c in carts):
            break

    px, py = track.node_pos(track.pharmacy)
    outcomes = []
    reasons = []
    for cart in carts:
        m = cart.mission
        x, y, _ = cart.vehicle.pose
        home = math.hypot(x - px, y - py) <= PHARMACY_RADIUS
        if m.phase is MissionPhase.FAULT:
            outcomes.append(CartOutcome.FAULT)
        elif m.phase is MissionPhase.DONE and m.delivered and home:
            outcomes.append(CartOutcome.DELIVERED_AND_RETURNED)
        elif m.delivered:
            outcomes.append(CartOutcome.DELIVERED)
        else:
            outcomes.append(CartOutcome.INCOMPLETE)
        reasons.append(m.fault_reason)

    report = TraceReport(
        outcomes=tuple(outcomes),
        fault_reasons=tuple(reasons),
        recognized=tuple(c.mission.target for c in carts),
        events=tuple(events),
        samples=tuple(samples),
        completion_ticks=ticks_run,
        line_deviations=tuple(_deviation_of(track, samples, i) for i in range(config.carts)),
        header=_header(config),
    )
    return report


def _apply_schedule(cart: _Cart, carts: list[_Cart], tick: int, config: SimConfig,
                    log) -> None:
    """Scenario choreography: card display, payload on, payload off.

    The mission leaves AwaitLoad and AwaitUnload in the tick the payload
    changes, and never returns to AwaitTarget, so each happens once.
    """
    m = cart.mission
    if m.phase is MissionPhase.AWAIT_TARGET:
        # the trailing cart starts once the lead cart has delivered
        if cart.card is None and (cart.mission_cfg.role is not Role.FOLLOWER
                                  or carts[0].mission.delivered):
            ward = config.wards[cart.idx]
            cart.card = _make_card(ward, cart.start)
            log(tick, cart.idx, f"card_shown={ward}")
    elif cart.card is not None:
        cart.card = None
        log(tick, cart.idx, "card_removed")

    if m.phase is MissionPhase.AWAIT_LOAD:
        if cart.load_tick is None:
            cart.load_tick = tick + LOAD_DELAY_TICKS
        if tick >= cart.load_tick:
            cart.vehicle = set_payload(cart.vehicle, PAYLOAD_GRAMS)
            log(tick, cart.idx, "payload=on")

    if m.phase is MissionPhase.AWAIT_UNLOAD:
        if cart.await_unload_since is None:
            cart.await_unload_since = tick
        if cart.unload_tick is None:
            if cart.mission_cfg.role is Role.LEADER:
                follower_phase = carts[1].mission.phase  # a leader always has a follower
                if follower_phase is MissionPhase.PAUSED_AT_POINT:
                    cart.unload_tick = tick + LEADER_DWELL_AFTER_PAUSE
                elif follower_phase in (MissionPhase.FAULT, MissionPhase.DONE):
                    cart.unload_tick = tick + UNLOAD_DWELL_TICKS
                elif tick - cart.await_unload_since >= LEADER_MAX_DWELL:
                    cart.unload_tick = tick
            else:
                cart.unload_tick = tick + UNLOAD_DWELL_TICKS
        if cart.unload_tick is not None and tick >= cart.unload_tick:
            cart.vehicle = set_payload(cart.vehicle, 0.0)
            log(tick, cart.idx, "payload=off")


def _sense(cart: _Cart, track: TrackMap, config: SimConfig,
           inbox: list[Message]) -> SensorBundle:
    """The sensors of a tick whose mission step reads inbox: only what that
    step reads, plus the line fix that the tracking gate carries on."""
    if cart.turn is not None or cart.mission.phase in WARD_PHASES:
        # nothing reads this frame: a turn tick steps no mission, and a step
        # at the ward reads neither line nor placards and leaves only through
        # the AROUND turn, which re-seeds the tracking gate when it ends. The
        # frame's draw keeps the noise in step
        skip_noise(config.noise, cart.rng)
        return _empty_sensors(cart)
    pose = cart.vehicle.pose
    cards = (cart.card,) if cart.card is not None else ()
    # the mission reads only the placards nearer than its reading range
    reach = reading_range(cart.mission, cart.mission_cfg, cart.vehicle.loaded, inbox)
    window = None
    if cart.gate_x is not None:
        window = (int(cart.gate_x) - GATE_HALF_PX, int(cart.gate_x) + GATE_HALF_PX + 1)
    # a pose that is not finite is looked up nowhere: NaN equals nothing
    if config.noise.sigma == 0 and all(map(math.isfinite, pose)):
        line, detections = _table(track, pose, cards, config.noise, reach, window)
    else:
        line, detections = _reading(track, pose, cards, config.noise, reach, window, cart.rng)
    cart.gate_x = line[0] if line is not None else None
    return SensorBundle(line=line, detections=detections, loaded=cart.vehicle.loaded,
                        odometry_distance=cart.odometry)


def _reading(track: TrackMap, pose: tuple[float, float, float], cards: tuple[PlacardEntry, ...],
             noise: NoiseParams, reach: float | None, window: tuple[int, int] | None,
             rng: np.random.Generator | None
             ) -> tuple[tuple[float, float] | None, tuple[DigitDetection, ...]]:
    """The line fix in the gate window and the placards nearer than reach
    (none when reach is None) of the frame seen from pose."""
    # the one place the frame's precision is set: render samples the ground
    # in its pose's precision (NEP 50), and every engine frame is float64
    pose = (np.float64(pose[0]), np.float64(pose[1]), pose[2])
    if noise.sigma == 0:
        # a tick that reads no placards needs only the control band
        bits = clean_bits(track, pose, noise.brightness, noise.k1, cards,
                          None if reach is not None else CONTROL_ROI)
    else:
        bits = adaptive_binarize(render(track, pose, CameraModel(noise.k1), noise, rng=rng,
                                        cards=cards))
    binary = undistort_bits(bits, noise.k1)
    line = line_centroid(binary, CONTROL_ROI, col_window=window)
    if reach is None:
        return line, ()
    return line, detect_in_binary(binary, reach)


@lru_cache(maxsize=1024)
def _table(track: TrackMap, pose: tuple[float, float, float], cards: tuple[PlacardEntry, ...],
           noise: NoiseParams, reach: float | None, window: tuple[int, int] | None):
    """_reading of a noise-free frame, for the last 1,024 keys."""
    return _reading(track, pose, cards, noise, reach, window, None)


def _drive_command(cart: _Cart, intent: Intent, sensors: SensorBundle, gains: PidGains,
                   tick: int, log) -> tuple[float, float]:
    if cart.turn is not None:
        return _turn_command(cart.turn)

    if intent is Intent.HALT:
        return 0.0, 0.0

    if intent is Intent.FOLLOW:
        if sensors.line is None:
            return BASE_DUTY, BASE_DUTY
        half = WIDTH / 2.0
        error = (sensors.line[0] - half) / half
        u, cart.pid = pid_step(cart.pid, gains, error)
        return steer(u, BASE_DUTY)

    cart.turn = _Turn(direction=intent,
                      target=math.pi if intent is Intent.AROUND else math.pi / 2,
                      prev_heading=cart.vehicle.pose[2])
    cart.pid = PidState()
    log(tick, cart.idx, f"turn={intent.value}")
    return _turn_command(cart.turn)


def _turn_command(turn: _Turn) -> tuple[float, float]:
    if turn.braking:
        return 0.0, 0.0
    if turn.direction is Intent.RIGHT:
        return TURN_DUTY, -TURN_DUTY
    return -TURN_DUTY, TURN_DUTY  # LEFT and AROUND rotate counterclockwise


def _advance_turn(cart: _Cart) -> None:
    if cart.turn is None:
        return
    turn = cart.turn
    v_l, v_r = cart.vehicle.wheel_speed
    if turn.braking:
        if max(abs(v_l), abs(v_r)) < 0.01:
            turn.braking = False
            turn.prev_heading = cart.vehicle.pose[2]
        return
    heading = cart.vehicle.pose[2]
    turn.progress += abs(_wrap_angle(heading - turn.prev_heading))
    turn.prev_heading = heading
    omega = abs(v_r - v_l) / TRACK_WIDTH
    coast = omega * MOTOR_TIME_CONSTANT
    if turn.progress + coast >= turn.target:
        cart.turn = None  # free-spin decay finishes the angle; PID takes over
        # the turn happened on the junction point, so the new line starts
        # (nearly) centered: seed the gate there instead of a full-width fix
        cart.gate_x = WIDTH / 2.0


def _deviation_of(track: TrackMap, samples: list[PoseSample], cart: int) -> float:
    """Max distance from one cart's Outbound/Returning samples to the guide line.

    One (samples x segments) pass of arena.project_offsets only screens the
    samples. np.hypot can differ from math.hypot in the last bit, so the
    value is the max of nearest_centerline_distance over the samples within
    a relative 1e-12 of the screen's largest distance.
    """
    points = [(s.x, s.y) for s in samples
              if s.cart == cart and s.phase in (MissionPhase.OUTBOUND, MissionPhase.RETURNING)]
    if not points:
        return 0.0
    p = np.array(points, dtype=np.float64)
    dx, dy = project_offsets(*segments(track).T, p[:, :1], p[:, 1:])
    nearest = np.hypot(dx, dy).min(axis=1, initial=np.inf)
    rows = np.flatnonzero(nearest >= nearest.max() * (1.0 - 1e-12))
    return max(nearest_centerline_distance(track, points[i]) for i in rows)


def _header(config: SimConfig) -> tuple[tuple[str, str], ...]:
    """Each key under its own name, but both wards as ``wards=1,2``, then
    the fixed Proceed resend period and controller."""
    items = [("generator", GENERATOR_IDS)]
    for key, name in CONFIG_KEYS:
        if key != "ward2":
            value = _field(config, name)
            entries = value if isinstance(value, tuple) else (value,)
            items.append((name if key == "ward" else key, ",".join(map(repr, entries))))
    fixed = (("link.retry_interval", PROCEED_RETRY_TICKS), ("pid.kp", GAINS.kp),
             ("pid.ki", GAINS.ki), ("pid.kd", GAINS.kd), ("base_duty", BASE_DUTY))
    return tuple(items + [(key, repr(value)) for key, value in fixed])


def trace_to_csv(report: TraceReport) -> str:
    """Trace file: ``# key=value`` header then tick,cart,x,y,heading,phase,event."""
    lines = [f"# {k}={v}" for k, v in report.header]
    for i, outcome in enumerate(report.outcomes):
        lines.append(f"# outcome.cart{i}={outcome.value}")
    lines.append(f"# completion_ticks={report.completion_ticks}")
    events_at: dict[tuple[int, int], list[str]] = {}
    for ev in report.events:
        events_at.setdefault((ev.tick, ev.cart), []).append(ev.text)
    lines.append("tick,cart,x,y,heading,phase,event")
    for s in report.samples:
        evs = ";".join(events_at.get((s.tick, s.cart), []))
        lines.append(f"{s.tick},{s.cart},{s.x:.6f},{s.y:.6f},{s.heading:.6f},"
                     f"{s.phase.value},{evs}")
    return "\n".join(lines) + "\n"


def render_svg(track: TrackMap, report: TraceReport | None = None) -> str:
    """Map plus (optionally) cart trajectories as a standalone SVG."""
    xs = [p[0] for _, p in track.nodes]
    ys = [p[1] for _, p in track.nodes]
    pad = 0.4
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    scale = 200.0

    def xy(x: float, y: float) -> tuple[str, str]:
        return f"{(x - x0) * scale:.1f}", f"{(y1 - y) * scale:.1f}"

    w = (x1 - x0) * scale
    h = (y1 - y0) * scale
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
             f'height="{h:.0f}" viewBox="0 0 {w:.0f} {h:.0f}">',
             f'<rect width="{w:.0f}" height="{h:.0f}" fill="#f8f8f4"/>']
    for e in track.edges:
        (sx1, sy1), (sx2, sy2) = (xy(*end) for end in e.polyline)
        parts.append(f'<line x1="{sx1}" y1="{sy1}" x2="{sx2}" y2="{sy2}" '
                     f'stroke="#b33" stroke-width="4"/>')
    for nid, (nx, ny) in track.nodes:
        cx, cy = xy(nx, ny)
        fill = "#26c" if nid == track.pharmacy else "#333"
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="5" fill="{fill}"/>')
    for ward in track.wards:
        cx, cy = xy(*track.node_pos(ward.node))
        parts.append(f'<text x="{cx}" y="{cy}" dx="8" dy="-8" '
                     f'font-size="16" fill="#222">{ward.id}</text>')
    if report is not None:
        colors = ["#2a7", "#a2c"]
        by_cart: dict[int, list[str]] = {}
        for s in report.samples:
            by_cart.setdefault(s.cart, []).append(",".join(xy(s.x, s.y)))
        for cart, pts in sorted(by_cart.items()):
            parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                         f'stroke="{colors[cart % 2]}" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
