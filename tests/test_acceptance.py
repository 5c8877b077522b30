"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. These are intentionally end-to-end and take a few minutes.
"""

import math
import time

import numpy as np

from wardcart.arena import default_map, pause_distance, route_progress, route_to
from wardcart.cli import run_corpus
from wardcart.controller import PidState, gains_from_classical, pid_step
from wardcart.mission import MissionPhase
from wardcart.simcore import CartOutcome, SimConfig, run_scenario, trace_to_csv
from wardcart.vehicle import VehicleState, apply_motor
from wardcart.vision.camera import CameraModel
from wardcart.vision.pipeline import adaptive_binarize, line_centroid
from wardcart.vision.render import NoiseParams, render

TRACK = default_map()

# Bottom rows looking (almost) straight down. Perspective shifts the line's
# apparent center by ~d*tan(heading error); in this band d is small enough
# that the centroid stays within a pixel of truth for headings up to 5 deg.
# Controllers that want lookahead use a taller band and accept the skew.
NADIR_ROI = (118, 120)
NADIR_MIN_PIXELS = 8


def ok_line(num, name, detail=""):
    print(f"ACCEPTANCE {num} ({name}): PASS {detail}".rstrip())


def test_criterion_1_ward_coverage_under_time_budget():
    t0 = time.perf_counter()
    outcomes = {}
    for ward in range(1, 9):
        report = run_scenario(TRACK, SimConfig(wards=(ward,), max_ticks=9000, seed=0))
        outcomes[ward] = report.outcomes[0]
    elapsed = time.perf_counter() - t0
    assert all(o is CartOutcome.DELIVERED_AND_RETURNED for o in outcomes.values()), outcomes
    assert elapsed < 10.0, f"suite took {elapsed:.1f}s"
    ok_line(1, "ward coverage", f"8/8 delivered+returned in {elapsed:.1f}s")


def test_criterion_2_robust_delivery_under_noise():
    seeds_passed = 0
    for seed in range(1, 21):
        brightness = 30.0 if seed % 2 == 0 else -30.0
        noise = NoiseParams(brightness=brightness, sigma=8.0, k1=0.05)
        good = True
        for ward in (1, 4, 7):
            cfg = SimConfig(wards=(ward,), max_ticks=9000, seed=seed, noise=noise)
            report = run_scenario(TRACK, cfg)
            good &= report.outcomes[0] is CartOutcome.DELIVERED_AND_RETURNED
        seeds_passed += good
    assert seeds_passed >= 18, f"only {seeds_passed}/20 noisy seeds passed"
    ok_line(2, "robust delivery", f"{seeds_passed}/20 seeds (need >= 18)")


def test_criterion_3_pid_form_equivalence():
    rng = np.random.default_rng(2024)
    worst_form = 0.0
    worst_incr = 0.0
    # gain ranges span realistic line-following controllers; the 1e-12
    # absolute tolerance is meaningful when outputs stay O(100)
    for _ in range(1000):
        kp = rng.uniform(0.1, 2.0)
        Ti = rng.uniform(0.1, 20.0)
        Td = rng.uniform(0.0, 1.0)
        T = rng.uniform(0.02, 0.5)
        errors = rng.uniform(-1.0, 1.0, size=100)
        gains = gains_from_classical(kp, Ti, Td, T)

        state = PidState()
        outs = []
        for e in errors:
            u, state = pid_step(state, gains, e)
            outs.append(u)

        acc = 0.0
        prev = None
        for k, e in enumerate(errors):
            acc += e
            diff = 0.0 if prev is None else e - prev
            classic = kp * (e + (T / Ti) * acc + Td * diff / T)
            worst_form = max(worst_form, abs(outs[k] - classic))
            prev = e
        for k in range(2, len(errors)):
            pred = (gains.kp * (errors[k] - errors[k - 1]) + gains.ki * errors[k]
                    + gains.kd * (errors[k] - 2 * errors[k - 1] + errors[k - 2]))
            worst_incr = max(worst_incr, abs((outs[k] - outs[k - 1]) - pred))
    assert worst_form < 1e-12, worst_form
    assert worst_incr < 1e-12, worst_incr
    ok_line(3, "pid form equivalence",
            f"max form err {worst_form:.2e}, max increment err {worst_incr:.2e}")


def test_criterion_4_vision_accuracy():
    total, correct, clean_total, clean_correct, _, _ = run_corpus(
        k1s=[0.0, 0.05, 0.1], brightnesses=[-30.0, 0.0, 30.0], sigmas=[0.0, 8.0],
        seed=0)
    assert total >= 1000
    accuracy = correct / total
    assert accuracy >= 0.95, f"accuracy {accuracy:.4f}"
    assert clean_correct == clean_total, "clean subset must be perfect"
    ok_line(4, "vision accuracy",
            f"{accuracy:.4f} over {total} samples, clean {clean_correct}/{clean_total}")


def test_criterion_5_line_centroid_precision():
    cam = CameraModel()
    worst = 0.0
    for y0 in (0.3, 0.5, 1.5, 2.5):
        for deg in np.linspace(-5.0, 5.0, 41):
            pose = (0.0, y0, math.pi / 2 + math.radians(deg))
            frame = render(TRACK, pose, cam, NoiseParams())
            got = line_centroid(adaptive_binarize(frame), NADIR_ROI,
                                min_pixels=NADIR_MIN_PIXELS)
            assert got is not None
            worst = max(worst, abs(got[0] - frame.shape[1] / 2.0))
    assert worst <= 1.0, f"worst centroid error {worst:.2f} px"
    ok_line(5, "line centroid precision", f"worst {worst:.2f} px over +-5 deg")


def test_criterion_6_two_cart_coordination():
    lossless = run_scenario(TRACK, SimConfig(wards=(4,), max_ticks=9000, seed=0))
    budget = 3 * lossless.completion_ticks
    pause_dist = pause_distance(TRACK, 4)
    route = route_to(TRACK, 4)

    for seed in range(1, 21):
        cfg = SimConfig(carts=2, wards=(4, 4), max_ticks=9000, seed=seed,
                        link_drop=0.5)
        report = run_scenario(TRACK, cfg)
        assert all(o is CartOutcome.DELIVERED_AND_RETURNED for o in report.outcomes), \
            (seed, report.outcomes, report.fault_reasons)
        # (c) both carts home within 3x the single-cart lossless time
        assert report.completion_ticks <= budget, (seed, report.completion_ticks)

        # (a) the follower holds short of its pause point until the leader
        # turns for home
        returning_tick = min(ev.tick for ev in report.events
                             if ev.cart == 0 and ev.text == "phase=returning")
        for s in report.samples:
            if s.cart == 1 and s.tick < returning_tick:
                progress = route_progress(TRACK, route, (s.x, s.y))
                assert progress <= pause_dist + 1e-6, (seed, s.tick, progress)

        # (b) the yellow lamp is lit exactly while paused, and the pause
        # actually happens in this choreography
        paused_ticks = {s.tick for s in report.samples
                        if s.cart == 1 and s.phase is MissionPhase.PAUSED_AT_POINT}
        yellow_ticks = {s.tick for s in report.samples if s.cart == 1 and s.led_yellow}
        assert paused_ticks == yellow_ticks
        assert paused_ticks, f"seed {seed}: follower never paused"
    ok_line(6, "two-cart coordination", "20/20 seeds at drop=0.5")


def test_criterion_7_trace_determinism():
    cfg = SimConfig(carts=2, wards=(4, 4), max_ticks=9000, seed=13,
                    link_drop=0.4, noise=NoiseParams(brightness=-20, sigma=6.0, k1=0.05))
    a = trace_to_csv(run_scenario(TRACK, cfg))
    b = trace_to_csv(run_scenario(TRACK, cfg))
    assert a.encode("utf-8") == b.encode("utf-8")
    ok_line(7, "determinism", f"{len(a)} byte traces identical")


def test_criterion_8_kinematics():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        state = VehicleState(
            pose=(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi)),
            wheel_speed=(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
        duties = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        dt = rng.uniform(0.005, 0.3)
        once = apply_motor(state, *duties, 2 * dt)
        twice = apply_motor(apply_motor(state, *duties, dt), *duties, dt)
        for a, b in zip(once.pose, twice.pose):
            worst = max(worst, abs(a - b))
    assert worst < 1e-9, worst

    # opposite equal duties from rest: rotation with zero translation
    for _ in range(1000):
        duty = rng.uniform(0.05, 1.0)
        side = 1.0 if rng.uniform() < 0.5 else -1.0
        dt = rng.uniform(0.01, 1.0)
        state = apply_motor(VehicleState(), -side * duty, side * duty, dt)
        assert state.pose[0] == 0.0 and state.pose[1] == 0.0
        assert abs(state.pose[2]) > 0.0
    ok_line(8, "kinematics", f"semigroup worst {worst:.2e}, rotation stays in place")
