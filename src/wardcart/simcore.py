"""Deterministic fixed-timestep engine wiring vision, control and missions.

Per tick and per cart, in a fixed order: deliver due link messages, apply
the scenario schedule (digit card, payload on/off), render and run the
recognition pipeline, step the mission, drive (PID line following, latched
junction turns, or halt), integrate the vehicle, update LEDs, record the
trace. Cart 1 always steps before cart 2 and messages sent in a tick are
deliverable from the next tick on, so a (map, config) pair fully determines
the byte-level trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .arena import (PlacardEntry, TrackMap, nearest_centerline_distance,
                    resolve_pause_point, route_to)
from .comms import Link, Message
from .controller import PidGains, PidState, pid_step, steer
from .mission import (DETECTION_PHASES, HALT, IntentKind, MissionConfig,
                      MissionPhase, MissionState, Role, SensorBundle,
                      TurnDirection, mission_step)
from .prng import GENERATOR_IDS, derive_seed
from .vehicle import (MotorCommand, VehicleParams, VehicleState, apply_motor,
                      set_leds, set_payload)
from .vision.camera import CameraModel
from .vision.glyphs import default_templates
from .vision.pipeline import adaptive_binarize, detect_in_binary, line_centroid, undistort_bits
from .vision.render import NoiseParams, render

PAYLOAD_GRAMS = 200.0
REFERENCE_DT = 0.02  # tick length the default gains are quoted at
CARD_AHEAD = 0.22    # digit card shown this far in front of the cart
CARD_LEFT = 0.10     # and this far to its left, off the guide line
GATE_HALF_PX = 12    # tracking gate: centroid columns around the last fix


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
    retry_interval: int = 20
    kp: float = 0.5
    ki: float = 0.01
    kd: float = 14.0
    integral_limit: float = 0.3
    output_limit: float = 0.9
    base_duty: float = 0.8
    turn_duty: float = 0.45
    control_roi: tuple[int, int] = (78, 120)
    pharmacy_radius: float = 0.20
    load_delay_ticks: int = 25
    unload_dwell_ticks: int = 50
    leader_dwell_after_pause: int = 50
    leader_max_dwell: int = 1500
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    camera: CameraModel = field(default_factory=CameraModel)

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.max_ticks < 0:
            raise ValueError("max_ticks must be nonnegative")
        if self.carts not in (1, 2):
            raise ValueError("carts must be 1 or 2")
        if len(self.wards) != self.carts:
            raise ValueError("one target ward per cart required")
        for w in self.wards:
            if not 1 <= w <= 8:
                raise ValueError(f"ward {w} out of range 1..8")

    def gains(self) -> PidGains:
        """Controller gains at the configured tick length.

        kp/ki/kd are quoted at the reference period (0.02 s); the integral
        and derivative gains rescale with dt exactly as the classical
        kp*(T/Ti) and kp*(Td/T) terms do, so changing dt keeps the same
        continuous-time behavior.
        """
        scale = self.dt / REFERENCE_DT
        return PidGains(kp=self.kp, ki=self.ki * scale, kd=self.kd / scale,
                        sample_period=self.dt,
                        integral_limit=self.integral_limit,
                        output_limit=self.output_limit)


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
    direction: TurnDirection
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
        self.card_allowed = cfg.role is not Role.FOLLOWER
        self.gate_x: float | None = None
        self.turn: _Turn | None = None
        self.pending_inbox: list[Message] = []
        self.load_tick: int | None = None
        self.unload_tick: int | None = None
        self.load_done = False
        self.unload_done = False
        self.await_unload_since: int | None = None


def _wrap_angle(a: float) -> float:
    while a > math.pi:
        a -= 2 * math.pi
    while a < -math.pi:
        a += 2 * math.pi
    return a


def _make_card(digit: int, start: tuple[float, float, float]) -> PlacardEntry:
    x, y, heading = start
    fx, fy = math.cos(heading), math.sin(heading)
    lx, ly = -fy, fx
    return PlacardEntry(digit, x + fx * CARD_AHEAD + lx * CARD_LEFT,
                        y + fy * CARD_AHEAD + ly * CARD_LEFT, heading)


def _start_pose(track: TrackMap, ward: int) -> tuple[float, float, float]:
    px, py = track.node_pos(track.pharmacy)
    plan = route_to(track, ward)
    first = next((s for s in plan.steps if s.edge_id is not None), None)
    if first is None:
        return (px, py, math.pi / 2)
    edge = track.edge(first.edge_id)
    other = edge.b if edge.a == track.pharmacy else edge.a
    ox, oy = track.node_pos(other)
    return (px, py, math.atan2(oy - py, ox - px))


def _empty_sensors(cart: _Cart) -> SensorBundle:
    return SensorBundle(line=None, detections=[], loaded=cart.vehicle.loaded,
                        odometry_distance=cart.odometry)


def run_scenario(track: TrackMap, config: SimConfig) -> TraceReport:
    """Run one scenario to completion (all carts Done/Fault) or max_ticks."""
    templates = default_templates()
    cam = replace(config.camera, distortion_k1=config.noise.k1)
    gains = config.gains()
    link = Link(latency_ticks=config.link_latency, drop_probability=config.link_drop,
                rng_seed=derive_seed(config.seed, "link"))

    routes = {w.id: route_to(track, w.id) for w in track.wards}
    returns = {wid: plan.reversed(track) for wid, plan in routes.items()}
    carts: list[_Cart] = []
    for i in range(config.carts):
        ward = config.wards[i]
        role = Role.SOLO if config.carts == 1 else (Role.LEADER if i == 0 else Role.FOLLOWER)
        pause = resolve_pause_point(track, ward) if role is Role.FOLLOWER else None
        mcfg = MissionConfig(role=role, cart_id=i, routes=routes, returns=returns,
                             frame_width=cam.width, retry_interval=config.retry_interval,
                             lost_line_ticks=max(1, round(1.0 / config.dt)),
                             pause_point=pause)
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
            red_before = cart.vehicle.led_red
            yellow_before = cart.vehicle.led_yellow

            _apply_schedule(cart, carts, tick, config, log)

            if cart.mission.phase in (MissionPhase.DONE, MissionPhase.FAULT):
                sensors = _empty_sensors(cart)
            else:
                sensors = _sense(cart, track, cam, config, templates)

            cart.pending_inbox.extend(inbox)
            if cart.turn is None:
                intent, outbox, cart.mission = mission_step(
                    cart.mission, cart.mission_cfg, sensors, cart.pending_inbox, tick)
                cart.pending_inbox = []
                outbox_queue.extend(outbox)
            else:
                intent = HALT  # engine owns the cart while a turn is latched;
                # inbox messages wait in pending_inbox until it resumes

            cmd = _drive_command(cart, intent, sensors, gains, config, tick, log)
            prev_pose = cart.vehicle.pose
            cart.vehicle = apply_motor(cart.vehicle, cmd, config.vehicle, config.dt)
            cart.odometry += math.hypot(cart.vehicle.pose[0] - prev_pose[0],
                                        cart.vehicle.pose[1] - prev_pose[1])
            _advance_turn(cart, config)

            phase = cart.mission.phase
            red = phase in (MissionPhase.AT_WARD, MissionPhase.AWAIT_UNLOAD)
            yellow = phase is MissionPhase.PAUSED_AT_POINT
            cart.vehicle = set_leds(cart.vehicle, red, yellow)

            if phase is not phase_before:
                if phase is MissionPhase.FAULT:
                    log(tick, cart.idx, f"phase={phase.value}:{cart.mission.fault_reason}")
                else:
                    log(tick, cart.idx, f"phase={phase.value}")
                if phase_before is MissionPhase.AWAIT_TARGET and cart.mission.target:
                    log(tick, cart.idx, f"target={cart.mission.target}")
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
        home = math.hypot(x - px, y - py) <= config.pharmacy_radius
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
    """Scenario choreography: card display, payload on, payload off."""
    m = cart.mission
    if m.phase is MissionPhase.AWAIT_TARGET:
        if not cart.card_allowed and cart.mission_cfg.role is Role.FOLLOWER:
            leader = carts[0]
            if leader.mission.delivered:
                cart.card_allowed = True  # trailing cart starts once the lead arrived
        if cart.card_allowed and cart.card is None:
            ward = config.wards[cart.idx]
            cart.card = _make_card(ward, cart.start)
            log(tick, cart.idx, f"card_shown={ward}")
    elif cart.card is not None:
        cart.card = None
        log(tick, cart.idx, "card_removed")

    if m.phase is MissionPhase.AWAIT_LOAD and cart.load_tick is None:
        cart.load_tick = tick + config.load_delay_ticks
    if cart.load_tick is not None and tick >= cart.load_tick and not cart.load_done:
        cart.load_done = True
        cart.vehicle = set_payload(cart.vehicle, PAYLOAD_GRAMS,
                                   config.vehicle.switch_threshold)
        log(tick, cart.idx, "payload=on")

    if m.phase is MissionPhase.AWAIT_UNLOAD:
        if cart.await_unload_since is None:
            cart.await_unload_since = tick
        if cart.unload_tick is None:
            if cart.mission_cfg.role is Role.LEADER:
                follower = carts[1] if len(carts) > 1 else None
                if follower is not None and follower.mission.phase is MissionPhase.PAUSED_AT_POINT:
                    cart.unload_tick = tick + config.leader_dwell_after_pause
                elif follower is not None and follower.mission.phase in (
                        MissionPhase.FAULT, MissionPhase.DONE):
                    cart.unload_tick = tick + config.unload_dwell_ticks
                elif tick - cart.await_unload_since >= config.leader_max_dwell:
                    cart.unload_tick = tick
            else:
                cart.unload_tick = tick + config.unload_dwell_ticks
        if cart.unload_tick is not None and tick >= cart.unload_tick and not cart.unload_done:
            cart.unload_done = True
            cart.vehicle = set_payload(cart.vehicle, 0.0, config.vehicle.switch_threshold)
            log(tick, cart.idx, "payload=off")


def _sense(cart: _Cart, track: TrackMap, cam: CameraModel, config: SimConfig,
           templates) -> SensorBundle:
    cards = (cart.card,) if cart.card is not None else ()
    frame = render(track, cart.vehicle.pose, cam, config.noise, rng=cart.rng,
                   cards=cards)
    binary = undistort_bits(adaptive_binarize(frame), config.noise.k1)
    if cart.turn is not None:
        cart.gate_x = None  # view sweeps during a turn; no tracking gate
        window = None
    elif cart.gate_x is not None:
        window = (int(cart.gate_x) - GATE_HALF_PX, int(cart.gate_x) + GATE_HALF_PX + 1)
    else:
        window = None
    line = line_centroid(binary, config.control_roi, col_window=window)
    if cart.turn is None:
        cart.gate_x = line[0] if line is not None else None
    # the mission is not stepped during a latched turn and reads placards
    # only in a few phases; rendering and the line fix above run every tick
    # because the noise stream and the tracking gate depend on them
    if cart.turn is None and cart.mission.phase in DETECTION_PHASES:
        detections = detect_in_binary(binary, cam, templates)
    else:
        detections = []
    return SensorBundle(line=line, detections=detections,
                        loaded=cart.vehicle.loaded,
                        odometry_distance=cart.odometry)


def _drive_command(cart: _Cart, intent, sensors: SensorBundle, gains: PidGains,
                   config: SimConfig, tick: int, log) -> MotorCommand:
    if cart.turn is not None:
        return _turn_command(cart.turn, config)

    if intent.kind is IntentKind.TURN:
        cart.turn = _Turn(direction=intent.turn,
                          target=math.pi if intent.turn is TurnDirection.AROUND else math.pi / 2,
                          prev_heading=cart.vehicle.pose[2])
        cart.pid = PidState()
        cart.gate_x = None
        log(tick, cart.idx, f"turn={intent.turn.value}")
        return _turn_command(cart.turn, config)

    if intent.kind is IntentKind.FOLLOW:
        if sensors.line is None:
            return MotorCommand(config.base_duty, config.base_duty)
        half = config.camera.width / 2.0
        error = (sensors.line[0] - half) / half
        u, cart.pid = pid_step(cart.pid, gains, error)
        return steer(u, config.base_duty)

    return MotorCommand(0.0, 0.0)


def _turn_command(turn: _Turn, config: SimConfig) -> MotorCommand:
    if turn.braking:
        return MotorCommand(0.0, 0.0)
    d = config.turn_duty
    if turn.direction is TurnDirection.RIGHT:
        return MotorCommand(d, -d)
    return MotorCommand(-d, d)  # LEFT and AROUND rotate counterclockwise


def _advance_turn(cart: _Cart, config: SimConfig) -> None:
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
    omega = abs(v_r - v_l) / config.vehicle.track_width
    coast = omega * config.vehicle.motor_time_constant
    if turn.progress + coast >= turn.target:
        cart.turn = None  # free-spin decay finishes the angle; PID takes over
        # the turn happened on the junction point, so the new line starts
        # (nearly) centered: seed the gate there instead of a full-width fix
        cart.gate_x = config.camera.width / 2.0


def _deviation_of(track: TrackMap, samples: list[PoseSample], cart: int) -> float:
    """Max distance from one cart's Outbound/Returning samples to the guide line."""
    worst = 0.0
    for s in samples:
        if s.cart == cart and s.phase in (MissionPhase.OUTBOUND, MissionPhase.RETURNING):
            worst = max(worst, nearest_centerline_distance(track, (s.x, s.y)))
    return worst


def _header(config: SimConfig) -> tuple[tuple[str, str], ...]:
    items = [
        ("generator", GENERATOR_IDS),
        ("dt", f"{config.dt!r}"),
        ("max_ticks", str(config.max_ticks)),
        ("seed", str(config.seed)),
        ("carts", str(config.carts)),
        ("wards", ",".join(str(w) for w in config.wards)),
        ("noise.brightness", f"{config.noise.brightness!r}"),
        ("noise.sigma", f"{config.noise.sigma!r}"),
        ("noise.k1", f"{config.noise.k1!r}"),
        ("link.latency", str(config.link_latency)),
        ("link.drop", f"{config.link_drop!r}"),
        ("link.retry_interval", str(config.retry_interval)),
        ("pid.kp", f"{config.kp!r}"),
        ("pid.ki", f"{config.ki!r}"),
        ("pid.kd", f"{config.kd!r}"),
        ("base_duty", f"{config.base_duty!r}"),
    ]
    return tuple(items)


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

    def pt(x: float, y: float) -> str:
        return f"{(x - x0) * scale:.1f},{(y1 - y) * scale:.1f}"

    w = (x1 - x0) * scale
    h = (y1 - y0) * scale
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
             f'height="{h:.0f}" viewBox="0 0 {w:.0f} {h:.0f}">',
             f'<rect width="{w:.0f}" height="{h:.0f}" fill="#f8f8f4"/>']
    for e in track.edges:
        (ax, ay), (bx, by) = e.polyline[0], e.polyline[-1]
        parts.append(f'<line x1="{pt(ax, ay).split(",")[0]}" y1="{pt(ax, ay).split(",")[1]}" '
                     f'x2="{pt(bx, by).split(",")[0]}" y2="{pt(bx, by).split(",")[1]}" '
                     f'stroke="#b33" stroke-width="4"/>')
    for nid, (nx, ny) in track.nodes:
        cx, cy = pt(nx, ny).split(",")
        fill = "#26c" if nid == track.pharmacy else "#333"
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="5" fill="{fill}"/>')
    for ward in track.wards:
        nx, ny = track.node_pos(ward.node)
        cx, cy = pt(nx, ny).split(",")
        parts.append(f'<text x="{cx}" y="{cy}" dx="8" dy="-8" '
                     f'font-size="16" fill="#222">{ward.id}</text>')
    if report is not None:
        colors = ["#2a7", "#a2c"]
        by_cart: dict[int, list[str]] = {}
        for s in report.samples:
            by_cart.setdefault(s.cart, []).append(pt(s.x, s.y))
        for cart, pts in sorted(by_cart.items()):
            parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                         f'stroke="{colors[cart % 2]}" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
