#!/usr/bin/env python3
"""In-process interleaved A/B of step time between two safeswarm checkouts.

Usage:
    python scripts/ab_steps.py A_CHECKOUT B_CHECKOUT [--source SOURCE] [--rounds N]
                               [--repeats R]

SOURCE is ``paper-suite`` (the default: circle6, rect4, headon2 and this
checkout's scenarios/crossing_lanes.json, each under every mode), or one
preset name, scenario file or ``lanes_tiles``, run under its own mode.
``lanes_tiles`` is the 27-agent 3x3 grid of crossing_lanes tiles of this
checkout's ``tests/conftest.py::lanes_tiles``, under
decentralized_C_estimated, the shape of perfbench's lanes-local workload.

Separate benchmark processes on a shared machine drift apart by a fifth or
more, so both trees run in one process here. Each checkout's
``src/safeswarm`` is copied into a temporary directory under its own
package name (``safeswarm_a``, ``safeswarm_b``) and imported side by side.
Every round runs each job R times on each side, interleaved one run at a
time (A, B, A, B, ..., with the side that goes first alternating from job
to job) so that a burst of load on the machine lands on both sides, and
keeps each side's best time spent inside ``sim.step_once``. It prints each
job's best-of-R steps/s per side and their ratio B/A, and each round's
steps/s over all jobs, each side over its own steps, and its ratio; a
ratio above 1 means B steps faster. A job whose sides' outputs differ (the
bytes of every record's p, v, u_applied, u_nominal and brake) is marked,
and the last line counts such jobs; the script exits 1 if there is one. A
change that keeps every output byte has none.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITE = ("circle6", "rect4", "headon2", str(ROOT / "scenarios" / "crossing_lanes.json"))
OUTPUTS = ("p", "v", "u_applied", "u_nominal", "brake")  # the record fields compared


def outputs_digest(log) -> str:
    """SHA-256 of the raw bytes of every record's ``OUTPUTS``, in order."""
    h = hashlib.sha256()
    for rec in log.records:
        for key in OUTPUTS:
            h.update(getattr(rec, key).tobytes())
    return h.hexdigest()


class Side:
    """One checkout's package, imported under its own name, with its
    ``sim.step_once`` timed."""

    def __init__(self, checkout: Path, name: str, into: Path):
        shutil.copytree(checkout / "src" / "safeswarm", into / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        self.sim = importlib.import_module(f"{name}.sim")
        self.cli = importlib.import_module(f"{name}.cli")
        self.presets = importlib.import_module(f"{name}.presets")
        self.step_ns = 0
        inner, clock = self.sim.step_once, time.perf_counter_ns

        def timed_step(ctx):
            start = clock()
            rec = inner(ctx)
            self.step_ns += clock() - start
            return rec

        self.sim.step_once = timed_step  # sim.run looks it up per step

    def scenario(self, source: str, mode: str | None):
        if source in self.presets.PRESETS:
            scn = self.presets.PRESETS[source]()
        elif source == "lanes_tiles":
            if str(ROOT / "tests") not in sys.path:  # conftest imports this checkout's safeswarm
                sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
            from conftest import lanes_tiles
            scn = lanes_tiles(load=self.cli.scenario_from_dict)
        else:
            scn = self.cli.parse_scenario(source)
        scn.mode = mode or scn.mode
        return scn

    def once(self, source: str, mode: str | None) -> tuple[int, int, str]:
        """Summed step time in ns of one run, its step count and the
        ``outputs_digest`` of its log."""
        scn = self.scenario(source, mode)
        self.step_ns = 0
        log, _ = self.sim.run(scn)
        return self.step_ns, len(log.records), outputs_digest(log)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", type=Path, help="checkout A (the reference)")
    parser.add_argument("b", type=Path, help="checkout B")
    parser.add_argument("--source", default="paper-suite")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=5, help="runs per job and side")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.repeats < 1:
        parser.error("--rounds and --repeats must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = (Side(args.a.resolve(), "safeswarm_a", Path(tmp)),
                 Side(args.b.resolve(), "safeswarm_b", Path(tmp)))
        jobs = ([(s, m) for s in SUITE for m in sides[0].sim.MODES]
                if args.source == "paper-suite" else [(args.source, None)])
        ratios, uneven = [], 0
        for rnd in range(1, args.rounds + 1):
            total_steps, total_ns = [0, 0], [0, 0]
            print(f"round {rnd}: {'job':45s} {'A steps/s':>10s} {'B steps/s':>10s} {'B/A':>6s}")
            for k, (source, mode) in enumerate(jobs):
                order = (0, 1) if (k + rnd) % 2 == 0 else (1, 0)
                times, steps, digests = ([], []), [0, 0], [None, None]
                for _ in range(args.repeats):
                    for s in order:
                        t, steps[s], digests[s] = sides[s].once(source, mode)
                        times[s].append(t)
                ns = [min(t) for t in times]
                total_steps = [t + x for t, x in zip(total_steps, steps)]
                total_ns = [t + x for t, x in zip(total_ns, ns)]
                rate = [n / (x / 1e9) for n, x in zip(steps, ns)]
                name = Path(source).stem + (f"-{mode}" if mode else "")
                mark = ("" if digests[0] == digests[1]
                        else f"  outputs differ (steps A {steps[0]}, B {steps[1]})")
                uneven += bool(mark)
                print(f"         {name:45s} {rate[0]:10.0f} {rate[1]:10.0f} "
                      f"{rate[1] / rate[0]:6.3f}{mark}")
            rate = [n / (x / 1e9) for n, x in zip(total_steps, total_ns)]
            ratios.append(rate[1] / rate[0])
            print(f"round {rnd}: {'all jobs':45s} {rate[0]:10.0f} {rate[1]:10.0f} "
                  f"{ratios[-1]:6.3f}")
        print("ratios B/A by round: " + " ".join(f"{r:.3f}" for r in ratios))
        print(f"jobs with unequal outputs: {uneven}")
    return 1 if uneven else 0


if __name__ == "__main__":
    sys.exit(main())
