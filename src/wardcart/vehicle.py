"""Differential-drive cart: PWM-style motor model, pose flow, payload switch.

Wheel speeds relax toward ``duty * V_MAX`` with a first-order lag. The pose
is advanced by integrating the true continuous-time unicycle flow of those
relaxing speeds: heading has a closed form (it is the wheel displacement
difference over the track width), and position is integrated with composite
Gauss-Legendre quadrature tight enough that stepping dt twice matches one
step of 2*dt to well below 1e-9. Euler integration would not compose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

TRACK_WIDTH = 0.16          # meters between the wheels
V_MAX = 0.5                 # m/s, wheel speed at full duty
MOTOR_TIME_CONSTANT = 0.1   # s, first-order lag of a wheel's speed
SWITCH_THRESHOLD = 200.0    # grams, matches the 200 g test weight

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


@dataclass(frozen=True)
class VehicleState:
    pose: tuple[float, float, float] = (0.0, 0.0, 0.0)  # x m, y m, heading rad
    wheel_speed: tuple[float, float] = (0.0, 0.0)       # left, right m/s
    loaded: bool = False  # the contact switch under the payload


@lru_cache(maxsize=16)
def _quadrature(dt: float) -> tuple[tuple[float, float, float, float], ...]:
    """(t, w, exp(-t/tau), 1 - exp(-t/tau)) at each node of the composite
    Gauss-Legendre rule over [0, dt], with enough panels to resolve the
    motor lag tau."""
    tau = MOTOR_TIME_CONSTANT
    panels = int(min(64, max(1, math.ceil(dt / tau))))
    h = dt / panels
    nodes = []
    for p in range(panels):
        a = p * h
        ts = a + (_GL_NODES + 1.0) * (h / 2.0)
        ws = _GL_WEIGHTS * (h / 2.0)
        for t, w in zip(ts.tolist(), ws.tolist()):
            e = math.exp(-t / tau)
            nodes.append((t, w, e, 1.0 - e))
    return tuple(nodes)


def apply_motor(state: VehicleState, duty_left: float, duty_right: float,
                dt: float) -> VehicleState:
    """Advance the cart by dt under wheel duties, each clamped to [-1, 1].

    Exact in the wheel-speed and heading components; position is integrated
    with composite quadrature of the time-varying twist. The wheel
    displacement over [0, t] is ``target * t + dev * tau * (1 - exp(-t/tau))``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    tau = MOTOR_TIME_CONSTANT
    vt_l = min(1.0, max(-1.0, duty_left)) * V_MAX
    vt_r = min(1.0, max(-1.0, duty_right)) * V_MAX
    v0_l, v0_r = state.wheel_speed
    dev_l = v0_l - vt_l
    dev_r = v0_r - vt_r

    decay = math.exp(-dt / tau)
    v1_l = vt_l + dev_l * decay
    v1_r = vt_r + dev_r * decay

    x0, y0, th0 = state.pose
    track = TRACK_WIDTH
    gain = 1.0 - decay
    th1 = th0 + ((vt_r * dt + dev_r * tau * gain) - (vt_l * dt + dev_l * tau * gain)) / track

    x, y, th_start = float(x0), float(y0), float(th0)
    for t, w, e, g in _quadrature(dt):
        v = 0.5 * ((vt_l + dev_l * e) + (vt_r + dev_r * e))
        th = th_start + ((vt_r * t + dev_r * tau * g) - (vt_l * t + dev_l * tau * g)) / track
        x += w * v * math.cos(th)
        y += w * v * math.sin(th)

    # built by the constructor: dataclasses.replace costs several µs a tick
    return VehicleState((x, y, th1), (v1_l, v1_r), state.loaded)


def set_payload(state: VehicleState, grams: float) -> VehicleState:
    """Place or remove mass on the cart; the contact switch trips at
    SWITCH_THRESHOLD."""
    if grams < 0:
        raise ValueError("payload mass cannot be negative")
    return replace(state, loaded=grams >= SWITCH_THRESHOLD)
