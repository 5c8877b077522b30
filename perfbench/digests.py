"""Reference sha256 digests of the program's outputs.

Each engine scenario's digest is the sha256 of its ``trace_to_csv`` text;
the corpus digest covers its per-frame result lines. A digest that differs
from the reference is reported, not failed: a change that corrects
behaviour on purpose changes digests, and says so in CHANGES.md.

    python3 perfbench/digests.py --check   # fast self-check, about 5 s
    python3 perfbench/digests.py --write   # rewrite the reference
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "digests.json"


def load() -> dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {"seeds": {}, "self_check": {}}


def compare(reference: dict, workload: str, seed: int,
            digests: dict[str, str]) -> tuple[list[str], dict[str, int]]:
    """One line per output, and how many match, differ or have no reference."""
    ref = reference.get("seeds", {}).get(str(seed), {}).get(workload, {})
    tally = {"match": 0, "differ": 0, "unreferenced": 0}
    lines = []
    for label, digest in digests.items():
        want = ref.get(label)
        verdict = "unreferenced" if want is None else ("match" if want == digest else "differ")
        tally[verdict] += 1
        lines.append(f"digest {label} {digest} {verdict}")
    return lines, tally


def self_check_scenarios():
    from wardcart.simcore import SimConfig
    from wardcart.vision.render import NoiseParams
    return [
        ("clean_ward1", SimConfig(wards=(1,), seed=0)),
        ("noisy_ward2", SimConfig(wards=(2,), seed=3,
                                  noise=NoiseParams(brightness=-30.0, sigma=8.0, k1=0.05))),
        ("twocart_1_2", SimConfig(carts=2, wards=(1, 2), seed=5, link_drop=0.5)),
    ]


def self_check_digests() -> dict[str, str]:
    from wardcart.arena import default_map
    from wardcart.simcore import run_scenario, trace_to_csv
    track = default_map()
    return {label: hashlib.sha256(trace_to_csv(run_scenario(track, cfg)).encode()).hexdigest()
            for label, cfg in self_check_scenarios()}


def write() -> None:
    """Record the self-check and every workload at the default base seed."""
    import workloads
    from hostspeed import Gauge
    from tracing import Hooks

    seed = workloads.DEFAULT_SEED
    per: dict[str, dict[str, str]] = {}
    reference = {"seeds": {str(seed): per}, "self_check": self_check_digests()}
    for name in workloads.WORKLOADS:
        hooks = Hooks()
        per[name] = workloads.prepare(name, seed, hooks, Gauge(every=0)).round().digests
        hooks.restore()
        print(f"seed {seed} {name}: {len(per[name])} digests", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {REFERENCE}")


def check() -> int:
    want = load().get("self_check", {})
    bad = 0
    for label, digest in self_check_digests().items():
        ok = want.get(label) == digest
        bad += not ok
        print(f"{label} {digest} {'match' if ok else 'DIFFERS from ' + str(want.get(label))}")
    return 1 if bad else 0


def main(argv=None) -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    p = argparse.ArgumentParser(description="trace digest reference and self-check")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="self-check 3 short scenarios")
    mode.add_argument("--write", action="store_true", help="rewrite digests.json")
    args = p.parse_args(argv)
    if args.write:
        write()
        return 0
    return check()


if __name__ == "__main__":
    sys.exit(main())
