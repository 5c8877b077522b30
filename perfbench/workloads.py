"""The benchmark's workloads: inputs derived from a base seed, one round of
program calls, and the checks on every output.

A round is a fixed batch of operations (a scenario run, or one corpus
frame), each started after the one before it has finished. Every round of a
run repeats the same operations, so rounds are interchangeable and their
trace digests must agree. A round also records the host time of each timed
piece of its operations in call order, so that the same piece can be
compared across rounds.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import random
from array import array
from dataclasses import dataclass, field

import numpy as np

from wardcart import simcore
from wardcart.arena import PlacardEntry, default_map, load_map
from wardcart.simcore import SimConfig
from wardcart.vision import pipeline
from wardcart.vision.camera import CameraModel
from wardcart.vision.glyphs import default_templates
from wardcart.vision.render import NoiseParams

import checks
import hostspeed

# `from wardcart.vision import render` yields the function of that name, not
# the module, so the module is imported by its full name.
render_mod = importlib.import_module("wardcart.vision.render")

DEFAULT_SEED = 1
WORKLOADS = ("ward_sweep", "noisy_far", "twocart_lossy", "vision_corpus")
PHASES = ("await_target", "await_load", "outbound", "paused_at_point", "at_ward",
          "await_unload", "returning", "done", "fault")
READ_PHASES = ("await_target", "outbound")  # phases whose mission step reads detections

CORPUS_MAP_TEXT = "node p 0 0\npharmacy p\nwidth 0.30\n"  # as `wardcart vision-corpus`
CORPUS_K1 = (0.0, 0.05, 0.1)
CORPUS_BRIGHTNESS = (-30.0, 0.0, 30.0)
CORPUS_SIGMA = (0.0, 8.0)
CORPUS_SHIFT_X = (-2, -1, 0, 1, 2)
CORPUS_SHIFT_Y = (-1, 0, 1)
CARD_AHEAD_M = 0.26  # corpus card sits straight ahead of the camera


def derive(base_seed: int, label: str) -> int:
    """A 32-bit seed for one input, from the base seed and the input's label."""
    digest = hashlib.sha256(f"{base_seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass
class RoundResult:
    wall_s: float = 0.0                 # host time inside the program's calls
    frames: int = 0                     # camera-frame periods
    # per operation, the start and the host time of each timed piece in call
    # order; the pieces sum to the operation's time, and FRAME_PIECES of
    # them are camera-frame periods
    pieces: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # of failed operations
    aggregate_problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    ticks: int = 0                      # engine ticks
    sim_time_s: float = 0.0
    line_dev_m: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)  # per-round counts
    tick_s: array = field(default_factory=lambda: array("d"))
    reference_s: list[float] = field(default_factory=list)  # hostspeed samples


# --------------------------------------------------------------------------
# engine workloads

def ward_sweep(base_seed: int) -> list[tuple[str, SimConfig]]:
    """One cart to each ward 1..8, no noise."""
    return [(f"ward{w}", SimConfig(wards=(w,), seed=derive(base_seed, f"ward_sweep/{w}")))
            for w in range(1, 9)]


def noisy_far(base_seed: int) -> list[tuple[str, SimConfig]]:
    """Near, mid and far wards at sigma 8, k1 0.05; far at both brightnesses."""
    runs = [(1, -30.0), (4, 30.0), (7, -30.0), (7, 30.0)]
    return [(f"ward{w}_b{b:+.0f}",
             SimConfig(wards=(w,), seed=derive(base_seed, f"noisy_far/{i}"),
                       noise=NoiseParams(brightness=b, sigma=8.0, k1=0.05)))
            for i, (w, b) in enumerate(runs)]


def twocart_lossy(base_seed: int) -> list[tuple[str, SimConfig]]:
    """Leader and follower over a link that drops half the messages.

    Two pairs: both carts to the mid junction, and a near leader with a far
    follower. The seed picks the side of each ward (left and right wards
    lie at mirrored, equal distances) and the link's loss pattern.
    """
    rng = random.Random(derive(base_seed, "twocart_lossy/sides"))
    pairs = [(rng.choice((3, 4)), rng.choice((3, 4))),
             (rng.choice((1, 2)), rng.choice((7, 8)))]
    return [(f"lead{a}_follow{b}",
             SimConfig(carts=2, wards=(a, b), seed=derive(base_seed, f"twocart_lossy/{i}"),
                       link_drop=0.5))
            for i, (a, b) in enumerate(pairs)]


ENGINE_SCENARIOS = {"ward_sweep": ward_sweep, "noisy_far": noisy_far,
                    "twocart_lossy": twocart_lossy}


def _warm_frame(track, templates, k1: float, noise: NoiseParams, pose) -> None:
    """Render and read one card frame, as the first tick of a mission does,
    so map rasters, camera grids and template tables are built."""
    cam = CameraModel(distortion_k1=k1)
    x, y, heading = pose
    card = PlacardEntry(1, x + CARD_AHEAD_M * math.cos(heading),
                        y + CARD_AHEAD_M * math.sin(heading), heading)
    frame = render_mod.render(track, pose, cam, noise,
                              rng=np.random.default_rng(0), cards=(card,))
    pipeline.detect_placards(frame, cam, templates)


class EngineBench:
    # an operation's pieces: scenario start to the first cart step, one
    # piece per cart step, the last step to the end of trace_to_csv
    FRAME_PIECES = slice(1, -1)

    def __init__(self, name: str, base_seed: int, hooks, gauge: hostspeed.Gauge):
        self.track = default_map()
        self.templates = default_templates()
        self.scenarios = ENGINE_SCENARIOS[name](base_seed)
        self.ops_per_round = len(self.scenarios)
        self.segs = checks.segments(self.track)
        px, py = self.track.node_pos(self.track.pharmacy)
        for noise in {cfg.noise for _, cfg in self.scenarios}:
            _warm_frame(self.track, self.templates, noise.k1, noise, (px, py, math.pi / 2))
        # one timestamp per cart step: the engine integrates each cart's
        # motion once per tick, whatever phase the cart is in
        self.steps: list[float] = []
        hooks.stamp("wardcart.simcore", "apply_motor", self.steps, gauge.piece)
        self.polls: list[float] = []
        self.hooks = hooks
        self.gauge = gauge

    def trace_ticks(self) -> None:
        """Also stamp every engine tick (its Link.poll call)."""
        self.hooks.stamp("wardcart.comms", "Link.poll", self.polls, self.gauge)

    def round(self) -> RoundResult:
        res = RoundResult()
        counts = dict.fromkeys([f"ticks.{p}" for p in PHASES] + ["calls_read"], 0)
        clock = self.gauge
        sampled = clock.new_round()
        for label, cfg in self.scenarios:
            self.steps.clear()
            self.polls.clear()
            t0 = clock()
            report = simcore.run_scenario(self.track, cfg)
            text = simcore.trace_to_csv(report)
            t1 = clock()
            res.wall_s += t1 - t0
            times = np.array([t0, *self.steps, t1])
            res.pieces[label] = times[:-1], np.diff(times)
            res.tick_s.extend(np.diff(np.array(self.polls)))
            res.ticks += report.completion_ticks
            res.frames += report.completion_ticks * cfg.carts
            res.digests[label] = hashlib.sha256(text.encode("utf-8")).hexdigest()
            res.sim_time_s += report.completion_ticks * cfg.dt
            problems, dev = checks.check_scenario(self.track, self.segs, cfg, report)
            res.line_dev_m = max(res.line_dev_m, dev)
            if problems:
                res.failed += 1
                res.problems += [f"{label}: {p}" for p in problems]
            _count_phases(report, cfg.carts, counts)
        res.counts = counts
        res.reference_s = clock.samples[sampled:]
        return res


def _count_phases(report, carts: int, counts: dict) -> None:
    """Ticks per mission phase, and detection calls whose result the mission
    reads: the phase at the start of a tick is the one recorded the tick before."""
    before = ["await_target"] * carts
    for s in report.samples:
        phase = s.phase.value
        counts[f"ticks.{phase}"] = counts.get(f"ticks.{phase}", 0) + 1
        if before[s.cart] in READ_PHASES:
            counts["calls_read"] += 1
        before[s.cart] = phase


# --------------------------------------------------------------------------
# corpus workload

@dataclass(frozen=True)
class CorpusFrame:
    digit: int
    cam: CameraModel
    noise: NoiseParams
    card: PlacardEntry
    seed: int

    @property
    def clean(self) -> bool:
        return self.noise == NoiseParams()


class CorpusBench:
    """Digit cards over the k1 x brightness x sigma x shift grid, each frame
    rendered and read; no engine, mission or vehicle."""

    POSE = (0.0, 0.0, math.pi / 2)
    FRAME_PIECES = slice(None)  # one piece per frame, each a frame period

    def __init__(self, base_seed: int, gauge: hostspeed.Gauge):
        self.gauge = gauge
        self.track = load_map(CORPUS_MAP_TEXT)
        self.templates = default_templates()
        base = CameraModel()
        u0, v0 = base.pixels_from_ground(np.array([CARD_AHEAD_M]), np.array([0.0]))
        sample_seed = derive(base_seed, "vision_corpus")
        self.frames: list[CorpusFrame] = []
        for digit in range(1, 9):
            for sx in CORPUS_SHIFT_X:
                for sy in CORPUS_SHIFT_Y:
                    for k1 in CORPUS_K1:
                        cam = CameraModel(distortion_k1=k1)
                        gx, gy = cam.ground_from_pixels(u0 + sx, v0 + sy)
                        card = PlacardEntry(digit, float(-gy[0]), float(gx[0]), math.pi / 2)
                        for b in CORPUS_BRIGHTNESS:
                            for sigma in CORPUS_SIGMA:
                                seed = derive(sample_seed, str(len(self.frames)))
                                self.frames.append(CorpusFrame(
                                    digit, cam, NoiseParams(b, sigma, k1), card, seed))
        self.ops_per_round = len(self.frames)
        for k1 in CORPUS_K1:
            _warm_frame(self.track, self.templates, k1, NoiseParams(k1=k1), self.POSE)

    def trace_ticks(self) -> None:
        """No engine, so no ticks to stamp."""

    def round(self) -> RoundResult:
        res = RoundResult()
        clock = self.gauge
        sampled = clock.new_round()
        lines = []
        frame_start = np.empty(len(self.frames))
        frame_s = np.empty(len(self.frames))
        unread = correct = clean = clean_correct = 0
        for i, f in enumerate(self.frames):
            rng = np.random.default_rng(f.seed)
            t0 = clock()
            frame = render_mod.render(self.track, self.POSE, f.cam, f.noise, rng=rng,
                                      cards=(f.card,))
            dets = pipeline.detect_placards(frame, f.cam, self.templates)
            spent = clock.piece() - t0
            res.wall_s += spent
            frame_start[i] = t0
            frame_s[i] = spent
            best = max(dets, key=lambda d: d.score) if dets else None
            wrong = sorted({d.digit for d in dets if d.digit != f.digit})
            if wrong:
                res.failed += 1
                res.problems.append(f"frame {i}: card {f.digit} read as {wrong}")
            elif best is None:
                unread += 1
            else:
                correct += 1
            if f.clean:
                clean += 1
                clean_correct += best is not None and not wrong
            lines.append(f"{f.digit},{best.digit if best else 'none'},"
                         f"{best.score if best else 0.0:.4f},"
                         f"{f.noise.k1},{f.noise.brightness},{f.noise.sigma}")
        res.frames = len(self.frames)
        res.pieces["corpus"] = frame_start, frame_s
        accuracy = correct / len(self.frames)
        if accuracy < checks.CORPUS_MIN_ACCURACY:
            res.aggregate_problems.append(f"accuracy {accuracy:.4f} < "
                                          f"{checks.CORPUS_MIN_ACCURACY}")
        if clean_correct != clean:
            res.aggregate_problems.append(f"clean subset {clean_correct}/{clean} read")
        res.digests["corpus"] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        res.counts = {"unread": unread, "accuracy": accuracy}
        res.reference_s = clock.samples[sampled:]
        return res


def prepare(name: str, base_seed: int, hooks, gauge: hostspeed.Gauge):
    """Everything the first operation needs: imports are done by now; this
    builds the maps, templates, rasters and the workload's inputs. ``gauge``
    is the clock that times the program's calls."""
    if name == "vision_corpus":
        return CorpusBench(base_seed, gauge)
    return EngineBench(name, base_seed, hooks, gauge)
