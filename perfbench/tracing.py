"""Timers and counters wrapped around the program's layers from outside.

A hook rebinds one module or class attribute -- the name the caller looks
up at call time -- to a wrapper; ``Hooks.restore`` puts every original back.
No file of the program is edited. A name that a later version of the
program no longer has is skipped and listed in ``Hooks.missing``, so the
benchmark keeps running and reports zero calls for that layer.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass


@dataclass
class Stat:
    calls: int = 0
    seconds: float = 0.0        # inside the call, wrapped children included
    child_seconds: float = 0.0  # inside wrapped calls made from this one
    counted: float = 0.0        # sum of a count taken from each result


class Hooks:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._open: list[float] = []  # child seconds of each open timed call

    def _lookup(self, module: str, attr: str):
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name, getattr(owner, name)

    def _install(self, module: str, attr: str, make):
        try:
            owner, name, original = self._lookup(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def stamp(self, module: str, attr: str, sink: list, clock=time.perf_counter) -> None:
        """Append ``clock()`` to ``sink`` on entry to every call."""
        def make(original):
            def stamped(*args, **kwargs):
                sink.append(clock())
                return original(*args, **kwargs)
            return stamped
        self._install(module, attr, make)

    def measure(self, stat_name: str, module: str, attr: str, count=None) -> None:
        """Time every call under ``stat_name``; ``count(result)`` adds to
        the stat's ``counted`` total. Several attributes may share a name."""
        stat = self.stats.setdefault(stat_name, Stat())
        open_calls = self._open
        clock = time.perf_counter

        def make(original):
            def timed(*args, **kwargs):
                open_calls.append(0.0)
                t0 = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    spent = clock() - t0
                    stat.calls += 1
                    stat.seconds += spent
                    stat.child_seconds += open_calls.pop()
                    if open_calls:
                        open_calls[-1] += spent
                if count is not None:
                    stat.counted += count(result)
                return result
            return timed
        self._install(module, attr, make)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


# (stat name, module, attribute the caller looks up, count taken from results)
LAYER_PROBES = [
    ("run_scenario", "wardcart.simcore", "run_scenario", None),
    ("trace_to_csv", "wardcart.simcore", "trace_to_csv", None),
    ("render", "wardcart.simcore", "render", None),
    ("render", "wardcart.vision.render", "render", None),
    ("world_ink", "wardcart.vision.render", "world_ink", None),
    ("ink_sample", "wardcart.vision.render", "_WorldInk.sample", None),
    ("ground_grid", "wardcart.vision.render", "ground_grid", None),
    ("detect_placards", "wardcart.vision.pipeline", "detect_placards", None),
    ("adaptive_binarize", "wardcart.simcore", "adaptive_binarize", None),
    ("adaptive_binarize", "wardcart.vision.pipeline", "adaptive_binarize", None),
    ("undistort_bits", "wardcart.simcore", "undistort_bits", None),
    ("undistort_bits", "wardcart.vision.pipeline", "undistort_bits", None),
    ("line_centroid", "wardcart.simcore", "line_centroid", None),
    ("detect_in_binary", "wardcart.simcore", "detect_in_binary", None),
    ("detect_in_binary", "wardcart.vision.pipeline", "detect_in_binary", None),
    ("label_runs", "wardcart.vision.pipeline", "_label_runs", lambda r: len(r[0])),
    ("rectify", "wardcart.vision.pipeline", "_rectify_on_ground", None),
    ("match_digit", "wardcart.vision.pipeline", "match_digit",
     lambda r: r is not None),
    ("mission_step", "wardcart.simcore", "mission_step", None),
    ("pid_step", "wardcart.simcore", "pid_step", None),
    ("apply_motor", "wardcart.simcore", "apply_motor", None),
    ("link_send", "wardcart.comms", "Link.send", lambda ok: not ok),
    ("link_poll", "wardcart.comms", "Link.poll", None),
    ("centerline", "wardcart.simcore", "nearest_centerline_distance", None),
]


def install_layer_probes(hooks: Hooks) -> None:
    for stat_name, module, attr, count in LAYER_PROBES:
        hooks.measure(stat_name, module, attr, count)
