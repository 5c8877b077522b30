"""Command line front end: run scenarios, suites, corpus sweeps, map renders.

Exit codes are a stable contract: 0 success, 1 an expectation failed
(scenario outcome or suite row), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import ExitStack
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path
from typing import NamedTuple, TextIO

import numpy as np

from .arena import (MapError, PlacardEntry, TrackMap, default_map, iter_records,
                    load_map, pause_distance, route_to)
from .prng import derive_seed
from .simcore import (CONFIG_KEYS, CartOutcome, SimConfig, TraceReport, config_from_keys,
                      render_svg, run_scenario, trace_to_csv)
from .vision.camera import CameraModel
from .vision.glyphs import default_templates
from .vision.pipeline import detect_placards
from .vision.render import NoiseParams, render

CORPUS_MAP_TEXT = "node p 0 0\npharmacy p\nwidth 0.30\n"
CORPUS_SHIFTS_X = (-2, -1, 0, 1, 2)  # card offsets in pixels
CORPUS_SHIFTS_Y = (-1, 0, 1)


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
        key, sep, val = " ".join(toks).partition("=")
        key, val = key.strip(), val.strip()
        if not (sep and key and val):
            raise ScenarioError(f"{path}:{lineno}: expected 'key = value'")
        if key in values:
            raise ScenarioError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val
    return values


def _load_map(ref: str, directory: Path) -> TrackMap:
    """``builtin:default``, or a map file path taken relative to directory."""
    if ref == "builtin:default":
        return default_map()
    path = directory / ref
    try:
        return load_map(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"map not found: {path}") from exc
    except (MapError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"bad map {path}: {exc}") from exc


def load_scenario(path: Path) -> Scenario:
    """Parse a scenario file (``key = value`` lines, ``#`` comments)."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"scenario not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"bad scenario {path}: {exc}") from exc
    kv = _parse_kv(text, str(path))
    track = _load_map(kv.pop("map", "builtin:default"), path.parent.resolve())

    raw_expected = kv.pop("expected", None)
    if raw_expected is not None and raw_expected not in _OUTCOME_NAMES:
        raise ScenarioError(f"{path}: unknown expected outcome {raw_expected!r} "
                            f"(one of {sorted(_OUTCOME_NAMES)})")
    expected = _OUTCOME_NAMES.get(raw_expected)

    try:
        config = config_from_keys(kv)
        route_to(track, config.wards[0])
        if config.carts == 2:  # routes the follower's ward too
            pause_distance(track, config.wards[1])
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    return Scenario(name=path.stem, track=track, config=config, expected=expected)


def _apply_overrides(scn: Scenario, args: argparse.Namespace) -> Scenario:
    keys = {key for key, _ in CONFIG_KEYS}
    values = {k: v for k, v in vars(args).items() if k in keys and v is not None}
    try:
        return replace(scn, config=config_from_keys(values, scn.config))
    except ValueError as exc:
        raise ScenarioError(f"bad override: {exc}") from None


def _report_summary(report: TraceReport) -> str:
    bits = []
    for i, outcome in enumerate(report.outcomes):
        reason = f" ({report.fault_reasons[i]})" if report.fault_reasons[i] else ""
        bits.append(f"cart{i}: {outcome.value}{reason}")
    bits.append(f"ticks={report.completion_ticks}")
    deviation = report.max_line_deviation
    # a cart that leaves the map can stray by any distance, up to 1e308 m
    bits.append(f"max_line_deviation={deviation:{'.3f' if deviation < 1e6 else '.3e'}}m")
    return "  ".join(bits)


def _open_output(path: str) -> TextIO:
    """Open an output file for writing before the work that fills it, so an
    unwritable path fails at once."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write(out: TextIO, text: str) -> None:
    try:
        out.write(text)
        # a path opened twice (--trace and --svg alike) holds the last text
        # written to it, not that text over the tail of a longer one
        out.truncate()
        out.flush()
    except OSError as exc:
        raise ScenarioError(f"cannot write {out.name}: {exc.strerror or exc}") from None


def cmd_run(args: argparse.Namespace) -> int:
    scn = _apply_overrides(load_scenario(Path(args.scenario)), args)
    with ExitStack() as stack:
        trace = stack.enter_context(_open_output(args.trace)) if args.trace else None
        svg = stack.enter_context(_open_output(args.svg)) if args.svg else None
        report = run_scenario(scn.track, scn.config)
        if trace is not None:
            _write(trace, trace_to_csv(report))
        if svg is not None:
            _write(svg, render_svg(scn.track, report))
    print(_report_summary(report))
    if scn.expected is not None:
        ok = all(o is scn.expected for o in report.outcomes)
        print(f"expected {scn.expected.value}: {'ok' if ok else 'MISMATCH'}")
        return 0 if ok else 1
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    root = Path(args.directory)
    if not root.is_dir():
        raise ScenarioError(f"not a directory: {root}")
    paths = sorted(root.glob("*.scn"))
    rows = []
    failures = 0
    for path in paths:
        scn = load_scenario(path)
        report = run_scenario(scn.track, scn.config)
        recognized = all(r is not None for r in report.recognized)
        delivered = all(o in (CartOutcome.DELIVERED_AND_RETURNED, CartOutcome.DELIVERED)
                        for o in report.outcomes)
        expected = scn.expected or CartOutcome.DELIVERED_AND_RETURNED
        ok = all(o is expected for o in report.outcomes)
        failures += 0 if ok else 1
        rows.append((scn.name, "/".join(str(w) for w in scn.config.wards),
                     recognized, delivered,
                     report.outcomes[0].value if len(report.outcomes) == 1
                     else ";".join(o.value for o in report.outcomes), ok))
    name_w = max([len(r[0]) for r in rows], default=8)
    print(f"{'scenario':<{name_w}}  ward  recognized  delivered  outcome")
    for name, wards, recognized, delivered, outcome, ok in rows:
        print(f"{name:<{name_w}}  {wards:<4}  "
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


class CorpusTally(NamedTuple):
    total: int
    correct: int
    clean_total: int
    clean_correct: int
    unread: int   # frames with no detection
    misread: int  # frames with any detection of another digit


def run_corpus(k1s, brightnesses, sigmas, seed: int = 0,
               out_lines: list[str] | None = None) -> CorpusTally:
    """Render digit cards over the sweep grid and score the classifier.

    Labels come from the renderer; a sample counts as correct only when the
    best-scoring detection is the right digit.
    """
    track = load_map(CORPUS_MAP_TEXT)
    pose = (0.0, 0.0, math.pi / 2)
    card_gx, card_gy = 0.26, 0.0  # straight ahead, cart frame
    u0, v0 = CameraModel.pixels_from_ground(np.array([card_gx]), np.array([card_gy]))

    total = correct = clean_total = clean_correct = unread = misread = 0
    idx = 0
    # a card is placed once per digit and shift, then seen through every
    # lens and noise setting; idx counts the frames in that order
    for digit, sx, sy in product(range(1, 9), CORPUS_SHIFTS_X, CORPUS_SHIFTS_Y):
        gx, gy = CameraModel.ground_from_pixels(u0 + sx, v0 + sy)
        card = PlacardEntry(digit, float(-gy[0]), float(gx[0]), math.pi / 2)
        for k1, brightness, sigma in product(k1s, brightnesses, sigmas):
            cam = CameraModel(distortion_k1=k1)
            rng = np.random.default_rng(derive_seed(seed, f"corpus/{idx}"))
            frame = render(track, pose, cam, NoiseParams(brightness, sigma, k1),
                           rng=rng, cards=(card,))
            dets = detect_placards(frame, cam, default_templates())
            predicted = max(dets, key=lambda d: d.score).digit if dets else None
            score = max((d.score for d in dets), default=0.0)
            hit = predicted == digit
            total += 1
            correct += hit
            unread += not dets
            misread += any(d.digit != digit for d in dets)
            if k1 == 0 and brightness == 0 and sigma == 0:
                clean_total += 1
                clean_correct += hit
            if out_lines is not None:
                out_lines.append(f"{digit},{predicted if predicted is not None else 'none'},"
                                 f"{score:.4f},{k1},{brightness},{sigma}")
            idx += 1
    return CorpusTally(total, correct, clean_total, clean_correct, unread, misread)


def cmd_vision_corpus(args: argparse.Namespace) -> int:
    k1s = _parse_list(args.k1_list, "k1")
    brightnesses = _parse_list(args.brightness, "brightness")
    sigmas = _parse_list(args.noise_list, "noise")
    if not k1s or not brightnesses or not sigmas:
        raise ScenarioError("corpus grid is empty (every list needs a value)")
    try:
        for k1, brightness, sigma in product(k1s, brightnesses, sigmas):
            NoiseParams(brightness, sigma, k1)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    if not 0 <= args.seed < 2 ** 64:  # derive_seed keeps 64 bits of it
        raise ScenarioError("seed must be in [0, 2**64)")
    lines: list[str] = []
    with _open_output(args.output) as out:
        tally = run_corpus(k1s, brightnesses, sigmas, seed=args.seed, out_lines=lines)
        _write(out, "label,predicted,score,k1,brightness,noise\n" + "\n".join(lines) + "\n")
    print(f"samples={tally.total} accuracy={tally.correct / tally.total:.4f} "
          f"unread={tally.unread} misread={tally.misread}")
    if tally.clean_total:
        print(f"clean subset: samples={tally.clean_total} "
              f"accuracy={tally.clean_correct / tally.clean_total:.4f}")
    print(f"wrote {args.output}")
    return 0


def cmd_render_map(args: argparse.Namespace) -> int:
    track = _load_map(args.map, Path())
    with _open_output(args.output) as out:
        _write(out, render_svg(track))
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
    # each override's dest is its scenario key; the value is parsed as in a file
    p_run.add_argument("--seed")
    p_run.add_argument("--dt")
    p_run.add_argument("--max-ticks", dest="max_ticks")
    p_run.add_argument("--noise", dest="noise.sigma", help="pixel noise sigma override")
    p_run.add_argument("--k1", dest="noise.k1", help="radial distortion override")
    p_run.add_argument("--drop", dest="link.drop", help="link drop probability override")
    p_run.add_argument("--latency", dest="link.latency", help="link latency override (ticks)")
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
    try:
        return args.func(args)
    except ScenarioError as exc:  # bad input or an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
