import itertools
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wardcart import vehicle
from wardcart.vehicle import (MOTOR_TIME_CONSTANT, TRACK_WIDTH, V_MAX, VehicleState,
                              apply_motor, set_payload)


def rk4_oracle(state, duties, dt, steps=4000):
    """Independent fine-step integrator for the same continuous model."""
    x, y, th = state.pose
    v_l, v_r = state.wheel_speed
    tau = MOTOR_TIME_CONSTANT
    vt_l, vt_r = (max(-1.0, min(1.0, d)) * V_MAX for d in duties)
    h = dt / steps

    def deriv(s):
        x_, y_, th_, vl_, vr_ = s
        v = 0.5 * (vl_ + vr_)
        w = (vr_ - vl_) / TRACK_WIDTH
        return np.array([v * math.cos(th_), v * math.sin(th_), w,
                         (vt_l - vl_) / tau, (vt_r - vr_) / tau])

    s = np.array([x, y, th, v_l, v_r])
    for _ in range(steps):
        k1 = deriv(s)
        k2 = deriv(s + h / 2 * k1)
        k3 = deriv(s + h / 2 * k2)
        k4 = deriv(s + h * k3)
        s = s + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return s


def quadrature_reference(state, duties, dt):
    """apply_motor's quadrature evaluated node by node over NumPy-scalar
    nodes; the table-driven apply_motor must match it in value, and in type
    with x and y as the plain floats apply_motor returns."""
    def displacement(target, dev, tau, t):
        return target * t + dev * tau * (1.0 - math.exp(-t / tau))

    tau = MOTOR_TIME_CONSTANT
    vt_l, vt_r = (d * V_MAX for d in duties)
    v0_l, v0_r = state.wheel_speed
    dev_l = v0_l - vt_l
    dev_r = v0_r - vt_r
    decay = math.exp(-dt / tau)
    x0, y0, th0 = state.pose
    track = TRACK_WIDTH

    def heading(t):
        return th0 + (displacement(vt_r, dev_r, tau, t)
                      - displacement(vt_l, dev_l, tau, t)) / track

    nodes, weights = np.polynomial.legendre.leggauss(10)
    panels = int(min(64, max(1, math.ceil(dt / tau))))
    h = dt / panels
    x, y = x0, y0
    for p in range(panels):
        ts = p * h + (nodes + 1.0) * (h / 2.0)
        for t, w in zip(ts, weights * (h / 2.0)):
            e = math.exp(-t / tau)
            v = 0.5 * ((vt_l + dev_l * e) + (vt_r + dev_r * e))
            th = heading(t)
            x += w * v * math.cos(th)
            y += w * v * math.sin(th)
    return (float(x), float(y), heading(dt)), (vt_l + dev_l * decay, vt_r + dev_r * decay)


@pytest.mark.parametrize("dt", [0.02, 0.3])
def test_pose_is_plain_floats(dt):
    # the engine sets the frame's precision itself (simcore._reading), so the
    # pose carries no NumPy scalar, from a NumPy pose too
    state = VehicleState(pose=(np.float64(0.5), np.float64(-0.25), 1.0))
    for duties in ((0.8, 0.6), (0.0, 0.0)):
        state = apply_motor(state, *duties, dt)
        assert list(map(type, state.pose)) == [float, float, float]


@pytest.mark.parametrize("dt", [0.02, 0.05, 0.3])
def test_states_equal_the_per_node_reference_loop(dt):
    rng = np.random.default_rng(round(dt * 1000))
    state = VehicleState(pose=(0.3, -0.2, 0.9))
    for i in range(3000):
        if i % 500 == 0:  # also start from a NumPy-scalar x and y now and then
            x, y, th = state.pose
            state = VehicleState(pose=(np.float64(x), np.float64(y), th),
                                 wheel_speed=state.wheel_speed)
        duties = (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        pose, wheels = quadrature_reference(state, duties, dt)
        state = apply_motor(state, *duties, dt)
        for got, want in zip(state.pose + state.wheel_speed, pose + wheels):
            assert got == want and type(got) is type(want)


def test_node_tables_are_per_dt():
    a = vehicle._quadrature(0.02)
    assert vehicle._quadrature(0.02) is a
    assert len(a) == 10 and len(vehicle._quadrature(0.3)) == 30
    assert sum(w for _, w, _, _ in a) == pytest.approx(0.02, abs=1e-15)


def test_equal_duties_drive_straight():
    state = apply_motor(VehicleState(), 0.5, 0.5, dt=1.0)
    x, y, th = state.pose
    # closed form: each wheel covers target * t - target * tau * (1 - exp(-t/tau))
    target = 0.5 * V_MAX
    tau = MOTOR_TIME_CONSTANT
    assert x == pytest.approx(target * (1.0 - tau * (1.0 - math.exp(-1.0 / tau))), abs=1e-12)
    assert y == pytest.approx(0.0, abs=1e-9)
    assert th == pytest.approx(0.0, abs=1e-9)


def test_opposite_duties_rotate_in_place():
    state = apply_motor(VehicleState(), -0.5, 0.5, dt=0.8)
    x, y, th = state.pose
    assert x == pytest.approx(0.0, abs=1e-12)
    assert y == pytest.approx(0.0, abs=1e-12)
    # right wheel forward spins the cart counterclockwise, by the wheel
    # displacement difference over the track width
    tau = MOTOR_TIME_CONSTANT
    wheel = 0.5 * V_MAX * (0.8 - tau * (1.0 - math.exp(-0.8 / tau)))
    assert th == pytest.approx(2 * wheel / TRACK_WIDTH, abs=1e-12)


def test_single_wheel_arcs_about_the_stopped_wheel():
    duties = (0.0, 1.0)
    start = VehicleState(wheel_speed=(0.0, V_MAX))  # already at commanded speed
    state = apply_motor(start, *duties, dt=0.7)
    x, y, th = state.pose
    # closed form: circle of radius track/2 about the left wheel at (0, track/2)
    r = TRACK_WIDTH / 2
    w = V_MAX / TRACK_WIDTH
    assert th == pytest.approx(w * 0.7, abs=1e-10)
    assert x == pytest.approx(r * math.sin(w * 0.7), abs=1e-9)
    assert y == pytest.approx(r * (1 - math.cos(w * 0.7)), abs=1e-9)
    # and the independent integrator agrees
    ox, oy, oth, ovl, ovr = rk4_oracle(start, duties, 0.7)
    assert x == pytest.approx(ox, abs=1e-6)
    assert y == pytest.approx(oy, abs=1e-6)


def test_flow_matches_rk4_with_motor_lag():
    state = VehicleState(pose=(0.3, -0.2, 0.9), wheel_speed=(0.1, -0.2))
    duties = (0.7, -0.4)
    got = apply_motor(state, *duties, dt=0.5)
    ox, oy, oth, ovl, ovr = rk4_oracle(state, duties, 0.5, steps=20000)
    assert got.pose[0] == pytest.approx(ox, abs=1e-8)
    assert got.pose[1] == pytest.approx(oy, abs=1e-8)
    assert got.pose[2] == pytest.approx(oth, abs=1e-10)
    assert got.wheel_speed[0] == pytest.approx(ovl, abs=1e-9)
    assert got.wheel_speed[1] == pytest.approx(ovr, abs=1e-9)


def test_semigroup_property_over_random_commands():
    rng = np.random.default_rng(7)
    for _ in range(200):
        state = VehicleState(
            pose=(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-3, 3)),
            wheel_speed=(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
        duties = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        dt = rng.uniform(0.005, 0.4)
        once = apply_motor(state, *duties, 2 * dt)
        twice = apply_motor(apply_motor(state, *duties, dt), *duties, dt)
        for a, b in zip(once.pose, twice.pose):
            assert a == pytest.approx(b, abs=1e-9)
        for a, b in zip(once.wheel_speed, twice.wheel_speed):
            assert a == pytest.approx(b, abs=1e-12)


@given(dt=st.floats(min_value=1e-3, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_zero_duty_from_rest_stays_put(dt):
    state = apply_motor(VehicleState(), 0.0, 0.0, dt)
    assert state.pose == (0.0, 0.0, 0.0)
    assert state.wheel_speed == (0.0, 0.0)


def test_swapped_duties_mirror_the_trajectory():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dl, dr = rng.uniform(-1, 1), rng.uniform(-1, 1)
        dt = rng.uniform(0.01, 0.5)
        a = apply_motor(VehicleState(), dl, dr, dt)
        b = apply_motor(VehicleState(), dr, dl, dt)
        assert a.pose[0] == pytest.approx(b.pose[0], abs=1e-9)
        assert a.pose[1] == pytest.approx(-b.pose[1], abs=1e-9)
        assert a.pose[2] == pytest.approx(-b.pose[2], abs=1e-9)


def test_wheel_speeds_never_exceed_v_max():
    rng = np.random.default_rng(11)
    state = VehicleState()
    for _ in range(300):
        duties = (rng.uniform(-2, 2), rng.uniform(-2, 2))  # clamped
        state = apply_motor(state, *duties, rng.uniform(0.005, 0.2))
        assert abs(state.wheel_speed[0]) <= V_MAX + 1e-12
        assert abs(state.wheel_speed[1]) <= V_MAX + 1e-12


@given(left=st.floats(-1e9, 1e9), right=st.floats(-1e9, 1e9),
       dt=st.floats(min_value=1e-3, max_value=1.0))
@settings(max_examples=60, deadline=None)
@example(left=3.0, right=-2.5, dt=0.02)
def test_duty_clamping(left, right, dt):
    # out-of-range duties move the cart exactly as the clamped duties do
    state = VehicleState(pose=(0.3, -0.2, 0.9), wheel_speed=(0.1, -0.2))
    clamped = (min(1.0, max(-1.0, left)), min(1.0, max(-1.0, right)))
    assert apply_motor(state, left, right, dt) == apply_motor(state, *clamped, dt)


def test_dt_must_be_positive():
    with pytest.raises(ValueError):
        apply_motor(VehicleState(), 0, 0, 0.0)


def test_payload_switch_thresholds():
    s = VehicleState()
    assert set_payload(s, 200.0).loaded is True
    assert set_payload(s, 0.0).loaded is False
    assert set_payload(s, 150.0).loaded is False


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        set_payload(VehicleState(), -1.0)


def test_state_updates_carry_every_field_they_do_not_set():
    def others(state, *changed):
        return {f.name: getattr(state, f.name) for f in fields(VehicleState)
                if f.name not in changed}

    for loaded, grams in itertools.product((False, True), (0.0, 150.0, 250.0)):
        s = VehicleState(pose=(0.1, -0.2, 0.3), wheel_speed=(0.2, -0.1), loaded=loaded)
        moved = apply_motor(s, 0.5, 0.4, 0.02)
        assert others(moved, "pose", "wheel_speed") == others(s, "pose", "wheel_speed")
        assert others(set_payload(s, grams), "loaded") == others(s, "loaded")


def test_vehicle_state_holds_only_what_the_engine_reads():
    # the LEDs follow from the mission phase, and only the switch reads the payload
    assert [f.name for f in fields(VehicleState)] == ["pose", "wheel_speed", "loaded"]
