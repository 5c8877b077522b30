"""Positional PID on the normalized line-centroid error.

The controller computes an absolute output from the full error history:

    u_K = kp * e_K + ki * sum(e_0..e_K) + kd * (e_K - e_{K-1})

which is the same control law as the classical sampled form
kp * (e_K + T/Ti * sum(e) + Td * (e_K - e_{K-1}) / T) under the gain
conversion in ``gains_from_classical``. Errors are normalized centroid
offsets in [-1, 1] so gains do not depend on camera resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PidGains:
    kp: float
    ki: float
    kd: float
    integral_limit: float = math.inf
    output_limit: float = math.inf

    def __post_init__(self):
        if not all(math.isfinite(g) for g in (self.kp, self.ki, self.kd)):
            raise ValueError("kp, ki and kd must be finite")
        if not (self.integral_limit > 0 and self.output_limit > 0):  # NaN fails too
            raise ValueError("limits must be positive")


@dataclass(frozen=True)
class PidState:
    error_sum: float = 0.0
    prev_error: float = 0.0
    initialized: bool = False


def gains_from_classical(kp: float, Ti: float, Td: float, T: float) -> PidGains:
    """Convert (kp, Ti, Td) at sample period T: ki = kp*T/Ti, kd = kp*Td/T."""
    if Ti <= 0:
        raise ValueError("Ti must be positive (use ki=0 directly for P or PD control)")
    if T <= 0:
        raise ValueError("T must be positive")
    return PidGains(kp=kp, ki=kp * T / Ti, kd=kp * Td / T)


def pid_step(state: PidState, gains: PidGains, error: float) -> tuple[float, PidState]:
    """One controller update; returns (output, new state).

    The integral term is clamped to +-integral_limit before it enters the
    output (anti-windup), the output to +-output_limit. The derivative is
    suppressed on the first call to avoid a startup kick.
    """
    error_sum = state.error_sum + error
    integral = gains.ki * error_sum
    if integral > gains.integral_limit:
        integral = gains.integral_limit
        if gains.ki > 0:
            error_sum = gains.integral_limit / gains.ki
    elif integral < -gains.integral_limit:
        integral = -gains.integral_limit
        if gains.ki > 0:
            error_sum = -gains.integral_limit / gains.ki

    prev = error if not state.initialized else state.prev_error
    u = gains.kp * error + integral + gains.kd * (error - prev)
    u = min(gains.output_limit, max(-gains.output_limit, u))
    return u, PidState(error_sum=error_sum, prev_error=error, initialized=True)


def steer(u: float, base_duty: float) -> tuple[float, float]:
    """Mix a steering output into (left, right) wheel duties.

    Positive u means the line is right of center, so the left wheel speeds
    up and the cart turns right. ``vehicle.apply_motor`` clamps the duties
    to [-1, 1].
    """
    return base_duty + u, base_duty - u
