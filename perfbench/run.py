"""wardcart benchmark: one workload per process, a closed batch of rounds.

    python3 perfbench/run.py --workload ward_sweep --seed 1 --seconds 25 --trace 0

Runs whole rounds of the workload for about ``--seconds`` of host time
(at least two), checks every output, compares trace digests with
``perfbench/digests.json`` and prints, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` runs one untraced round, then traced
rounds, and gives the per-layer metrics. A full report is also written to
``perfbench/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# setup_s probes before and after the timed rounds, so that one slow spell
# of the host does not take in all of them
SETUP_PROBES = (6, 5)
MIN_ROUNDS = 2


def _use_checkout_source() -> None:
    """Import wardcart from this checkout's src/, never from elsewhere."""
    if not (SRC / "wardcart" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/wardcart not found; run from a wardcart checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import wardcart
    if Path(wardcart.__file__).resolve().parent != SRC / "wardcart":
        sys.exit(f"error: wardcart imported from {wardcart.__file__}, not {SRC}")


def parse_args(argv, workloads) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED, help="base seed")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="host seconds to keep starting rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # child of the setup_s measurement
    return p.parse_args(argv)


def measure_setup(args, probes: int) -> list[float]:
    """Seconds from process start until the workload's first operation is
    ready, each in a fresh interpreter; imports, map, templates, rasters.
    These are raw host times: set-up is mostly process start, imports and
    page faults, whose time did not follow the reference load's."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter() - t0
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line.strip() != "ready":
                sys.exit(f"error: setup probe failed: {line!r}")
        samples.append(ready)
    return samples


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty sequence."""
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))])


def per_layer(hooks, rounds, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """The traced run's per-layer metrics. Counts are per round; a layer
    the workload does not call reads 0."""
    import workloads

    n = len(rounds)
    st = hooks.stats

    def us(name):
        s = st[name]
        return (s.seconds / s.calls * 1e6 if s.calls else 0.0), "us"

    def per_round(value):
        return value / n, "count"

    counts = rounds[0].counts
    runs = st["label_runs"]
    sim = st["run_scenario"]
    ticks = sum(r.ticks for r in rounds)
    tick_us = [t * 1e6 for r in rounds for t in r.tick_s]
    traced_wall = statistics.median(r.wall_s for r in rounds)
    m = {
        "vision.render.us_per_call": us("render"),
        "vision.render.ink_sample.us_per_call": us("ink_sample"),
        "vision.render.world_ink.us_per_call": us("world_ink"),
        "vision.camera.ground_grid.us_per_call": us("ground_grid"),
        "vision.pipeline.detect_placards.us_per_call": us("detect_placards"),
        "vision.pipeline.detect_in_binary.us_per_call": us("detect_in_binary"),
        "vision.pipeline.detect_in_binary.calls": per_round(st["detect_in_binary"].calls),
        "vision.pipeline.detect_in_binary.calls_read": (counts.get("calls_read", 0), "count"),
        "vision.pipeline.label_runs.us_per_call": us("label_runs"),
        "vision.pipeline.label_runs.runs_per_frame":
            (runs.counted / runs.calls if runs.calls else 0.0, "runs"),
        "vision.pipeline.rectify.us_per_call": us("rectify"),
        "vision.pipeline.rectify.calls": per_round(st["rectify"].calls),
        "vision.pipeline.match_digit.us_per_call": us("match_digit"),
        "vision.pipeline.match_digit.calls": per_round(st["match_digit"].calls),
        "vision.pipeline.match_digit.accepted": per_round(st["match_digit"].counted),
        "vision.pipeline.adaptive_binarize.us_per_call": us("adaptive_binarize"),
        "vision.pipeline.line_centroid.us_per_call": us("line_centroid"),
        "vision.pipeline.undistort_bits.us_per_call": us("undistort_bits"),
        "vision.corpus.unread": (counts.get("unread", 0), "count"),
        "vehicle.apply_motor.us_per_call": us("apply_motor"),
        "controller.pid_step.us_per_call": us("pid_step"),
        "mission.mission_step.us_per_call": us("mission_step"),
    }
    for p in workloads.PHASES:
        m[f"mission.ticks.{p}"] = (counts.get(f"ticks.{p}", 0), "ticks")
    m.update({
        "mission.sim_time_s": (rounds[0].sim_time_s, "sim_s"),
        "arena.line_dev_mm": (rounds[0].line_dev_m * 1000.0, "mm"),
        "comms.link.send.calls": per_round(st["link_send"].calls),
        "comms.link.dropped": per_round(st["link_send"].counted),
        "comms.link.poll.us_per_call": us("link_poll"),
        "arena.nearest_centerline_distance.us_per_call": us("centerline"),
        "arena.nearest_centerline_distance.calls": per_round(st["centerline"].calls),
        "simcore.trace_to_csv.us_per_call": us("trace_to_csv"),
        "simcore.self_us_per_tick":
            ((sim.seconds - sim.child_seconds) / ticks * 1e6 if ticks else 0.0, "us"),
        "simcore.tick_us_p50": (quantile(tick_us, 0.50) if tick_us else 0.0, "us"),
        "simcore.tick_us_p99": (quantile(tick_us, 0.99) if tick_us else 0.0, "us"),
        "trace.overhead_pct": ((traced_wall / untraced_wall - 1.0) * 100.0, "%"),
    })
    return m


def end_to_end(gauge, setup: list[float], rounds,
               frame_pieces) -> dict[str, tuple[float, str]]:
    """Host-time metrics of the untraced run, every timed piece scaled to
    the reference speed by the samples taken around it.

    Every round makes the same calls, so a frame period is the same work in
    each. The frame percentiles take each period at the lesser of its times
    in two consecutive rounds (0 and 1, 2 and 3, ...), which leaves out an
    interruption that hits one round only."""
    scaled = [[gauge.scaled(starts, spent) for starts, spent in r.pieces.values()]
              for r in rounds]
    wall = statistics.median(sum(float(p.sum()) for p in s) for s in scaled)
    lesser = []
    for first, second in zip(scaled[0::2], scaled[1::2]):
        for a, b in zip(first, second):
            if a.shape != b.shape:
                sys.exit("error: two rounds made different numbers of calls")
            lesser.append(np.minimum(a, b)[frame_pieces])
    frame_ms = np.concatenate(lesser) * 1e3
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "frames_per_s": (rounds[0].frames / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "frame_ms_p50": (quantile(frame_ms, 0.50), "ms"),
        "frame_ms_p99": (quantile(frame_ms, 0.99), "ms"),
    }


def main(argv=None) -> int:
    _use_checkout_source()
    import digests
    import workloads
    from tracing import Hooks, install_layer_probes

    args = parse_args(argv, workloads)

    hooks = Hooks()
    if args.setup_probe:
        workloads.prepare(args.workload, args.seed, hooks, hostspeed.Gauge(every=0))
        print("ready", flush=True)
        return 0

    # the traced run reports raw host times, so it takes no reference samples
    gauge = hostspeed.Gauge(every=0 if args.trace else hostspeed.EVERY)
    bench = workloads.prepare(args.workload, args.seed, hooks, gauge)
    setup = [] if args.trace else measure_setup(args, SETUP_PROBES[0])

    start = time.perf_counter()
    baseline = None
    if args.trace:
        baseline = bench.round()
        bench.trace_ticks()
        install_layer_probes(hooks)
    # start another round only while it is expected to end within --seconds
    rounds = []
    while True:
        begun = time.perf_counter()
        rounds.append(bench.round())
        now = time.perf_counter()
        if len(rounds) >= MIN_ROUNDS and now - start + (now - begun) > args.seconds:
            break
    hooks.restore()
    if not args.trace:
        setup += measure_setup(args, SETUP_PROBES[1])

    every = rounds + ([baseline] if baseline else [])
    problems = [p for r in every for p in r.problems]
    aggregate = sorted({p for r in every for p in r.aggregate_problems})
    first = every[0].digests
    if any(r.digests != first for r in every):
        aggregate.append("rounds disagree on trace digests"
                         + (" (traced vs untraced)" if baseline else ""))
    failed = sum(r.failed for r in every)
    attempted = bench.ops_per_round * len(every)

    out = sys.stdout
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} timed round(s) of {bench.ops_per_round} operations", file=out)
    lines, tally = digests.compare(digests.load(), args.workload, args.seed, first)
    for line in lines:
        print(line, file=out)
    print("digests: " + ", ".join(f"{v} {k}" for k, v in tally.items()), file=out)
    if args.workload != "vision_corpus":
        print(f"sim_time_s {rounds[0].sim_time_s!r} (simulated s per round)", file=out)
        print(f"line_dev_mm {rounds[0].line_dev_m * 1000.0!r}", file=out)
    else:
        print(f"unread {rounds[0].counts['unread']} of {bench.ops_per_round}, "
              f"accuracy {rounds[0].counts['accuracy']:.4f}", file=out)
    for p in problems[:20] + aggregate:
        print(f"CHECK FAILED: {p}", file=out)
    if hooks.missing:
        print("not traced (no such attribute): " + ", ".join(hooks.missing), file=out)

    if not args.trace:
        speed = [x for r in rounds for x in r.reference_s]
        print(f"host: {len(speed)} reference samples, median "
              f"{statistics.median(speed) * 1e3:.3f} ms against {hostspeed.REFERENCE_S * 1e3} ms; "
              f"unscaled wall_s {statistics.median(r.wall_s for r in rounds)!r}", file=out)
    if args.trace:
        metrics = per_layer(hooks, rounds, baseline.wall_s)
    else:
        metrics = end_to_end(gauge, setup, rounds, bench.FRAME_PIECES)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}", file=out)

    result = {"correct": not aggregate, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    report = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=len(rounds), round_wall_s=[r.wall_s for r in rounds],
                  setup_s_samples=setup, digests=first, problems=problems + aggregate,
                  untraced_wall_s=baseline.wall_s if baseline else None,
                  reference_s=[r.reference_s for r in rounds],
                  cpu_count=os.cpu_count(), loadavg=os.getloadavg())
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
