import math

import numpy as np
import pytest

from wardcart.controller import PidGains, PidState, gains_from_classical, pid_step, steer


def run_sequence(gains, errors):
    state = PidState()
    outputs = []
    for e in errors:
        u, state = pid_step(state, gains, e)
        outputs.append(u)
    return outputs, state


def classical_form_oracle(kp, Ti, Td, T, errors):
    """Direct evaluation of kp*(e_K + T/Ti * sum(e) + Td*(e_K - e_{K-1})/T)."""
    outs = []
    acc = 0.0
    prev = None
    for e in errors:
        acc += e
        diff = 0.0 if prev is None else (e - prev)
        outs.append(kp * (e + (T / Ti) * acc + Td * diff / T))
        prev = e
    return outs


def test_gains_from_classical_conversion():
    g = gains_from_classical(kp=2.0, Ti=4.0, Td=1.0, T=1.0)
    assert g.ki == pytest.approx(0.5)
    assert g.kd == pytest.approx(2.0)
    g = gains_from_classical(kp=1.0, Ti=1.0, Td=0.0, T=1.0)
    assert g.ki == pytest.approx(1.0)
    assert g.kd == 0.0


def test_gains_from_classical_rejects_bad_periods():
    with pytest.raises(ValueError):
        gains_from_classical(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gains_from_classical(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        PidGains(kp=1.0, ki=0.0, kd=0.0, output_limit=0.0)


def test_pure_proportional():
    g = PidGains(kp=1.0, ki=0.0, kd=0.0)
    u, _ = pid_step(PidState(), g, 5.0)
    assert u == pytest.approx(5.0)


def test_two_step_sum_form_value():
    # kp=2, ki=0.5, kd=1, errors 1 then 3:
    # u_1 = 2*3 + 0.5*(1+3) + 1*(3-1) = 10
    g = PidGains(kp=2.0, ki=0.5, kd=1.0)
    outs, _ = run_sequence(g, [1.0, 3.0])
    assert outs[1] == pytest.approx(10.0, abs=1e-12)


def test_zero_error_is_a_fixed_point():
    g = PidGains(kp=1.5, ki=0.3, kd=0.7)
    outs, state = run_sequence(g, [0.0] * 20)
    assert all(u == 0.0 for u in outs)
    assert state.error_sum == 0.0
    assert state.prev_error == 0.0


def test_first_step_has_no_derivative_kick():
    g = PidGains(kp=1.0, ki=0.0, kd=100.0)
    u, _ = pid_step(PidState(), g, 0.8)
    assert u == pytest.approx(0.8)  # kd term suppressed on the first call


def test_form_equivalence_on_random_sequences():
    rng = np.random.default_rng(42)
    for _ in range(200):
        kp = rng.uniform(0.1, 2.0)
        Ti = rng.uniform(0.1, 20.0)
        Td = rng.uniform(0.0, 1.0)
        T = rng.uniform(0.02, 1.0)
        errors = rng.uniform(-1, 1, size=100)
        gains = gains_from_classical(kp, Ti, Td, T)
        got, _ = run_sequence(gains, errors)
        want = classical_form_oracle(kp, Ti, Td, T, errors)
        for a, b in zip(got, want):
            assert a == pytest.approx(b, abs=1e-12)


def test_positional_increment_identity():
    rng = np.random.default_rng(9)
    g = PidGains(kp=1.3, ki=0.21, kd=0.8)
    errors = rng.uniform(-1, 1, size=60)
    outs, _ = run_sequence(g, errors)
    for k in range(2, len(errors)):
        predicted = (g.kp * (errors[k] - errors[k - 1])
                     + g.ki * errors[k]
                     + g.kd * (errors[k] - 2 * errors[k - 1] + errors[k - 2]))
        assert outs[k] - outs[k - 1] == pytest.approx(predicted, abs=1e-12)


def test_anti_windup_bounds_output_under_constant_error():
    g = PidGains(kp=0.5, ki=0.2, kd=0.0, integral_limit=0.6, output_limit=1.0)
    state = PidState()
    for _ in range(500):
        u, state = pid_step(state, g, 1.0)
        assert abs(u) <= 1.0
        assert abs(state.error_sum * g.ki) <= 0.6 + 1e-12
    # integral stops accumulating at its clamp rather than growing unbounded
    assert state.error_sum == pytest.approx(0.6 / 0.2)


def test_steer_examples():
    assert steer(0.0, 0.5) == (0.5, 0.5)
    assert steer(0.2, 0.5) == (pytest.approx(0.7), pytest.approx(0.3))
    assert steer(2.0, 0.5) == (2.5, -1.5)  # vehicle.apply_motor clamps the duties


def test_steer_direction_sign_matches_u():
    for u in (-0.3, -0.05, 0.05, 0.3):
        left, right = steer(u, 0.6)
        assert math.copysign(1, left - right) == math.copysign(1, u)


def test_closed_loop_p_only_converges_monotonically():
    # plant x' = -g*u(x), discretized with step T; stable when kp*g*T < 1
    g_plant, T = 2.0, 0.1
    gains = PidGains(kp=1.0, ki=0.0, kd=0.0)
    for x0 in (-1.0, -0.25, 0.4, 1.0):
        x = x0
        state = PidState()
        prev = abs(x)
        for _ in range(200):
            u, state = pid_step(state, gains, x)
            x = x - g_plant * u * T
            assert abs(x) <= prev + 1e-12
            prev = abs(x)
        assert abs(x) < 1e-6
