"""Command line front end: run scenarios, suites, corpus sweeps, map renders.

Exit codes are a stable contract: 0 success, 1 an expectation failed
(scenario outcome or suite row), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .arena import MapError, PlacardEntry, TrackMap, classify_ward, default_map, iter_records, load_map
from .prng import derive_seed
from .simcore import CartOutcome, SimConfig, TraceReport, render_svg, run_scenario, trace_to_csv
from .vision.camera import CameraModel
from .vision.glyphs import default_templates
from .vision.pipeline import detect_placards
from .vision.render import NoiseParams, render

CORPUS_MAP_TEXT = "node p 0 0\npharmacy p\nwidth 0.30\n"


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    name: str
    track: TrackMap
    config: SimConfig
    expected: CartOutcome | None


_OUTCOME_NAMES = {o.value: o for o in CartOutcome}


def _parse_kv(text: str, path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, toks in iter_records(text):
        line = " ".join(toks)
        if "=" not in line:
            raise ScenarioError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not key or not val:
            raise ScenarioError(f"{path}:{lineno}: expected 'key = value'")
        values[key] = val
    return values


def load_scenario(path: Path) -> Scenario:
    """Parse a scenario file (``key = value`` lines, ``#`` comments)."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"scenario not found: {path}") from exc
    kv = _parse_kv(text, str(path))

    def take(key: str, default: str | None = None) -> str | None:
        return kv.pop(key, default)

    map_ref = take("map", "builtin:default")
    if map_ref == "builtin:default":
        track = default_map()
    else:
        map_path = (path.parent / map_ref).resolve()
        try:
            track = load_map(map_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ScenarioError(f"map not found: {map_path}") from exc
        except MapError as exc:
            raise ScenarioError(f"bad map {map_path}: {exc}") from exc

    def num(key: str, default: float) -> float:
        raw = take(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ScenarioError(f"{path}: bad number for {key}: {raw!r}") from None

    carts = int(num("carts", 1))
    ward = int(num("ward", 2))
    wards = (ward,) if carts == 1 else (ward, int(num("ward2", ward)))
    noise = dict(brightness=num("noise.brightness", 0.0),
                 sigma=num("noise.sigma", 0.0),
                 k1=num("noise.k1", 0.0))
    base = SimConfig()
    settings = dict(
        dt=num("dt", base.dt),
        max_ticks=int(num("max_ticks", base.max_ticks)),
        seed=int(num("seed", base.seed)),
        carts=carts,
        wards=wards,
        link_latency=int(num("link.latency", base.link_latency)),
        link_drop=num("link.drop", base.link_drop),
        retry_interval=int(num("link.retry_interval", base.retry_interval)),
        kp=num("pid.kp", base.kp),
        ki=num("pid.ki", base.ki),
        kd=num("pid.kd", base.kd),
        integral_limit=num("pid.integral_limit", base.integral_limit),
        output_limit=num("pid.output_limit", base.output_limit),
        base_duty=num("drive.base_duty", base.base_duty),
    )
    try:
        config = SimConfig(noise=NoiseParams(**noise), **settings)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None

    expected = None
    raw_expected = take("expected")
    if raw_expected is not None:
        if raw_expected not in _OUTCOME_NAMES:
            raise ScenarioError(
                f"{path}: unknown expected outcome {raw_expected!r} "
                f"(one of {sorted(_OUTCOME_NAMES)})")
        expected = _OUTCOME_NAMES[raw_expected]

    if kv:
        raise ScenarioError(f"{path}: unknown keys {sorted(kv)}")
    return Scenario(name=path.stem, track=track, config=config, expected=expected)


def _apply_overrides(scn: Scenario, args: argparse.Namespace) -> Scenario:
    cfg = scn.config
    noise = {}
    if args.noise is not None:
        noise["sigma"] = args.noise
    if args.k1 is not None:
        noise["k1"] = args.k1
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.dt is not None:
        updates["dt"] = args.dt
    if args.max_ticks is not None:
        updates["max_ticks"] = args.max_ticks
    if args.drop is not None:
        updates["link_drop"] = args.drop
    if args.latency is not None:
        updates["link_latency"] = args.latency
    try:
        return replace(scn, config=replace(cfg, noise=replace(cfg.noise, **noise), **updates))
    except ValueError as exc:
        raise ScenarioError(f"bad override: {exc}") from None


def _report_summary(report: TraceReport) -> str:
    bits = []
    for i, outcome in enumerate(report.outcomes):
        reason = f" ({report.fault_reasons[i]})" if report.fault_reasons[i] else ""
        bits.append(f"cart{i}: {outcome.value}{reason}")
    bits.append(f"ticks={report.completion_ticks}")
    bits.append(f"max_line_deviation={report.max_line_deviation:.3f}m")
    return "  ".join(bits)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        scn = _apply_overrides(load_scenario(Path(args.scenario)), args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_scenario(scn.track, scn.config)
    if args.trace:
        Path(args.trace).write_text(trace_to_csv(report), encoding="utf-8")
    if args.svg:
        Path(args.svg).write_text(render_svg(scn.track, report), encoding="utf-8")
    print(_report_summary(report))
    if scn.expected is not None:
        ok = all(o is scn.expected for o in report.outcomes)
        print(f"expected {scn.expected.value}: {'ok' if ok else 'MISMATCH'}")
        return 0 if ok else 1
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    root = Path(args.directory)
    if not root.is_dir():
        print(f"error: not a directory: {root}", file=sys.stderr)
        return 2
    paths = sorted(root.glob("*.scn"))
    rows = []
    failures = 0
    for path in paths:
        try:
            scn = load_scenario(path)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = run_scenario(scn.track, scn.config)
        recognized = all(r is not None for r in report.recognized)
        delivered = all(o in (CartOutcome.DELIVERED_AND_RETURNED, CartOutcome.DELIVERED)
                        for o in report.outcomes)
        expected = scn.expected or CartOutcome.DELIVERED_AND_RETURNED
        ok = all(o is expected for o in report.outcomes)
        failures += 0 if ok else 1
        tiers = {classify_ward(w).value for w in scn.config.wards}
        rows.append((scn.name, "/".join(str(w) for w in scn.config.wards),
                     ",".join(sorted(tiers)), recognized, delivered,
                     report.outcomes[0].value if len(report.outcomes) == 1
                     else ";".join(o.value for o in report.outcomes), ok))
    name_w = max([len(r[0]) for r in rows], default=8)
    print(f"{'scenario':<{name_w}}  ward  tier      recognized  delivered  outcome")
    for name, wards, tier, recognized, delivered, outcome, ok in rows:
        print(f"{name:<{name_w}}  {wards:<4}  {tier:<8}  "
              f"{'yes' if recognized else 'no':<10}  "
              f"{'yes' if delivered else 'no':<9}  {outcome}"
              f"{'' if ok else '  [FAIL]'}")
    print(f"{len(rows) - failures}/{len(rows)} scenarios passed")
    return 1 if failures else 0


def _parse_list(raw: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise ScenarioError(f"bad {what} list: {raw!r}") from None


def corpus_grid(k1s: list[float], brightnesses: list[float], sigmas: list[float],
                shifts_x: list[int] = (-2, -1, 0, 1, 2),
                shifts_y: list[int] = (-1, 0, 1)):
    """All (digit, shift_x, shift_y, k1, brightness, sigma) combinations."""
    for digit in range(1, 9):
        for sx in shifts_x:
            for sy in shifts_y:
                for k1 in k1s:
                    for brightness in brightnesses:
                        for sigma in sigmas:
                            yield digit, sx, sy, k1, brightness, sigma


def run_corpus(k1s, brightnesses, sigmas, seed: int = 0,
               out_lines: list[str] | None = None):
    """Render digit cards over the sweep grid and score the classifier.

    Returns (total, correct, clean_total, clean_correct). Labels come from
    the renderer; a sample counts as correct only when exactly the right
    digit is reported.
    """
    track = load_map(CORPUS_MAP_TEXT)
    templates = default_templates()
    pose = (0.0, 0.0, math.pi / 2)
    card_gx, card_gy = 0.26, 0.0  # straight ahead, cart frame
    base_cam = CameraModel()
    u0, v0 = base_cam.pixels_from_ground(np.array([card_gx]), np.array([card_gy]))

    total = correct = clean_total = clean_correct = 0
    idx = 0
    for digit, sx, sy, k1, brightness, sigma in corpus_grid(k1s, brightnesses, sigmas):
        cam = CameraModel(distortion_k1=k1)
        gx, gy = cam.ground_from_pixels(u0 + sx, v0 + sy)
        card = PlacardEntry(digit, float(-gy[0]), float(gx[0]), math.pi / 2)
        rng = np.random.default_rng(derive_seed(seed, f"corpus/{idx}"))
        frame = render(track, pose, cam, NoiseParams(brightness, sigma, k1),
                       rng=rng, cards=(card,))
        dets = detect_placards(frame, cam, templates)
        predicted = max(dets, key=lambda d: d.score).digit if dets else None
        score = max((d.score for d in dets), default=0.0)
        hit = predicted == digit
        total += 1
        correct += hit
        if k1 == 0 and brightness == 0 and sigma == 0:
            clean_total += 1
            clean_correct += hit
        if out_lines is not None:
            out_lines.append(f"{digit},{predicted if predicted is not None else 'none'},"
                             f"{score:.4f},{k1},{brightness},{sigma}")
        idx += 1
    return total, correct, clean_total, clean_correct


def cmd_vision_corpus(args: argparse.Namespace) -> int:
    try:
        k1s = _parse_list(args.k1_list, "k1")
        brightnesses = _parse_list(args.brightness, "brightness")
        sigmas = _parse_list(args.noise_list, "noise")
        if not k1s or not brightnesses or not sigmas:
            raise ScenarioError("corpus grid is empty (every list needs a value)")
        for k1 in k1s:
            for sigma in sigmas:
                NoiseParams(sigma=sigma, k1=k1)  # raises ValueError on a bad value
    except ValueError as exc:  # ScenarioError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines: list[str] = []
    total, correct, clean_total, clean_correct = run_corpus(
        k1s, brightnesses, sigmas, seed=args.seed or 0, out_lines=lines)
    out = Path(args.output)
    out.write_text("label,predicted,score,k1,brightness,noise\n"
                   + "\n".join(lines) + "\n", encoding="utf-8")
    accuracy = correct / total
    print(f"samples={total} accuracy={accuracy:.4f}")
    if clean_total:
        print(f"clean subset: samples={clean_total} accuracy={clean_correct / clean_total:.4f}")
    print(f"wrote {out}")
    return 0


def cmd_render_map(args: argparse.Namespace) -> int:
    if args.map == "builtin:default":
        track = default_map()
    else:
        try:
            track = load_map(Path(args.map).read_text(encoding="utf-8"))
        except OSError:
            print(f"error: map not found: {args.map}", file=sys.stderr)
            return 2
        except MapError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    Path(args.output).write_text(render_svg(track), encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wardcart",
                                     description="ward delivery cart simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--trace", help="write the trace CSV here")
    p_run.add_argument("--svg", help="write map + trajectory SVG here")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--dt", type=float)
    p_run.add_argument("--max-ticks", type=int)
    p_run.add_argument("--noise", type=float, help="pixel noise sigma override")
    p_run.add_argument("--k1", type=float, help="radial distortion override")
    p_run.add_argument("--drop", type=float, help="link drop probability override")
    p_run.add_argument("--latency", type=int, help="link latency override (ticks)")
    p_run.set_defaults(func=cmd_run)

    p_suite = sub.add_parser("suite", help="run every *.scn in a directory")
    p_suite.add_argument("directory")
    p_suite.set_defaults(func=cmd_suite)

    p_corpus = sub.add_parser("vision-corpus", help="classifier accuracy sweep")
    p_corpus.add_argument("output", help="per-sample CSV output path")
    p_corpus.add_argument("--k1", dest="k1_list", default="0,0.05,0.1",
                          help="comma list of distortion values")
    p_corpus.add_argument("--brightness", default="-30,0,30",
                          help="comma list of brightness offsets")
    p_corpus.add_argument("--noise", dest="noise_list", default="0,8",
                          help="comma list of pixel noise sigmas")
    p_corpus.add_argument("--seed", type=int, default=0)
    p_corpus.set_defaults(func=cmd_vision_corpus)

    p_map = sub.add_parser("render-map", help="write a map as SVG")
    p_map.add_argument("--map", default="builtin:default")
    p_map.add_argument("output")
    p_map.set_defaults(func=cmd_render_map)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
