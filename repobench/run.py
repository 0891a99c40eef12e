#!/usr/bin/env python3
"""The repo benchmark: one workload, one seed, one measured run.

    python3 repobench/run.py --workload {paper,service,check} --seed N \\
        --seconds S --trace {0,1} [--perturb-pin]

Run it from the repository root.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(each ``{"value", "unit"}``).  ``--trace 0`` reports every end-to-end
metric of ``BENCHMARK.json``, measured untraced; ``--trace 1`` reports
every per-layer metric and writes ``.repobench/<workload>-layers.txt``
and a Chrome trace ``.repobench/<workload>-trace.json``.  ``--perturb-pin``
corrupts every correctness pin the run checks: the run must then report
``correct: false`` and exit 1.  See ``repobench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Calibrator
from common import Result, peak_rss_mb
from tracing import write_artifacts

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".repobench"
WORKLOADS = ("paper", "service", "check")
#: set-up probes per run, spread over it (see SetupProbes)
PROBES = 5
LAYER_HEADER = ("name", "spans", "busy_s", "self_s", "cpu_share", "wait",
                "useful/attempts")


def probe_setup(workload: str, seed: int) -> float:
    """CPU seconds a fresh interpreter (and for ``service`` the daemon
    it starts) spends from its start until it is ready for its first
    timed operation.  CPU time, not wall time: set-up is CPU-bound, and
    CPU time leaves out what the host's hypervisor steals."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True)
    assert proc.stdout is not None
    try:
        word, _, cpu = proc.stdout.readline().partition(" ")
        proc.stdout.read()
    finally:
        proc.wait(timeout=120)
    if word != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{workload} set-up probe failed "
                           f"(exit {proc.returncode})")
    return float(cpu)


class SetupProbes:
    """Set-up probes spread over one run, so that their median does not
    hang on a single phase of the host's speed: one before the timed
    window, the middle ones at even points inside it, taken between two
    timed operations and kept off the clock, and the last after the
    run's checks.  Each probe is paired with a calibration sample taken
    just before it and reported at the reference speed."""

    def __init__(self, workload: str, seed: int,
                 calibrator: Calibrator) -> None:
        self.workload, self.seed = workload, seed
        self.calibrator = calibrator
        self.times: list[float] = []
        self.due: list[float] = []

    def _take(self) -> float:
        t0 = time.perf_counter()
        speed = self.calibrator.sample()
        self.times.append(self.calibrator.reference(
            probe_setup(self.workload, self.seed), speed))
        return time.perf_counter() - t0

    def start(self, seconds: float) -> None:
        """The first probe; schedules the middle ones in the window of
        ``seconds`` that follows."""
        self._take()
        t0 = time.perf_counter()
        self.due = [t0 + seconds * i / (PROBES - 1)
                    for i in range(1, PROBES - 1)]

    def between(self) -> float:
        """Takes a probe if one is due; returns the seconds it took."""
        if not self.due or time.perf_counter() < self.due[0]:
            return 0.0
        self.due.pop(0)
        return self._take()

    def finish(self) -> float:
        """The probes still owed; the median of all."""
        while len(self.times) < PROBES:
            self._take()
        return statistics.median(self.times)


def manifest_units(trace: int) -> dict[str, str]:
    """Name → unit of every metric a run must report, from the
    manifest at the repository root."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb-pin", action="store_true")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(args.workload)

    work = OUT_DIR / f"work-{os.getpid()}"
    if args.setup_probe:
        module.setup_probe(module.prepare(args.seed), work)
        return 0

    res = Result()
    calibrator = Calibrator()
    try:
        if args.trace:
            plan = module.prepare(args.seed, args.perturb_pin)
            art = module.run_traced(plan, args.seconds, res, work,
                                    calibrator)
            res.metrics.update(art["metrics"])
            write_artifacts(OUT_DIR, args.workload, art["spans"],
                            art["rows"], LAYER_HEADER, art["note"])
        else:
            # set-up is timed in fresh interpreters
            probes = SetupProbes(args.workload, args.seed, calibrator)
            plan = module.prepare(args.seed, args.perturb_pin)
            probes.start(args.seconds)
            module.run(plan, args.seconds, res, work, calibrator,
                       probes.between)
            res.metrics["setup_s"] = (probes.finish(), "s")
            res.metrics.setdefault("peak_rss_mb", (peak_rss_mb(), "MB"))
    finally:
        calibrator.close()
        shutil.rmtree(work, ignore_errors=True)
    for err in res.errors:
        print(f"run.py: {err}", file=sys.stderr)
    want = manifest_units(args.trace)
    got = {name: unit for name, (_, unit) in res.metrics.items()}
    if got != want:
        print(f"run.py: the {args.workload} workload reported {got}, "
              f"BENCHMARK.json asks for {want}", file=sys.stderr)
        return 2
    res.metrics = {name: res.metrics[name] for name in want}
    print(json.dumps(res.doc()), flush=True)
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
