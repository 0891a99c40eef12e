"""Pieces every workload shares: the timed round-robin loop, order
statistics, pin files and the run result."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Hashable, Sequence

from calibrate import Calibrator

BENCH_DIR = Path(__file__).resolve().parent
PIN_DIR = BENCH_DIR / "pins"


@dataclass
class Result:
    """What one run reports: operations attempted and failed, whether
    every pin held, and metrics as ``name → (value, unit)``."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def doc(self) -> dict[str, Any]:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in self.metrics.items()}}


def rng_for(seed: int, what: str) -> random.Random:
    """A generator for one input family, fixed by the run's seed."""
    return random.Random(f"{what}:{seed}")


#: called between timed operations; returns the seconds it took, which
#: the caller keeps off the clock (see ``run.py``'s set-up probes)
Between = Callable[[], float]


def timed_rounds(units: Sequence[Hashable], seconds: float,
                 run: Callable[[Any], Any],
                 check: Callable[[Any, Any], None],
                 calibrator: Calibrator,
                 between: Between | None = None) -> dict[Any, list[float]]:
    """Run ``units`` round-robin until ``seconds`` have passed, always
    finishing the first round so every unit has a time.  Only ``run``
    is timed, in CPU seconds of this process: a unit is serial and
    CPU-bound, so that is its wall time less the time the host's
    hypervisor ran other guests on our CPU (steal).  Each time is paired
    with a calibration sample taken just before it and recorded at the
    reference speed (see ``calibrate.py``).  ``check`` (the pins) runs
    after each timed call.  The heap is collected before each call so
    no unit pays for its predecessor's garbage.  A unit that raises gets
    no time; ``check`` receives the exception in place of the output and
    counts the failure.  The deadline moves out by whatever ``between``
    takes."""
    times: dict[Any, list[float]] = {u: [] for u in units}
    deadline = time.perf_counter() + seconds
    first = True
    while True:
        for unit in units:
            if not first and time.perf_counter() >= deadline:
                return times
            gc.collect()
            speed = calibrator.sample()
            t0 = time.process_time()
            try:
                out = run(unit)
            except Exception as exc:  # counted by check, run goes on
                out = exc
            else:
                times[unit].append(calibrator.reference(
                    time.process_time() - t0, speed))
            check(unit, out)
            if between is not None:
                deadline += between()
        first = False


def cpu_seconds(pid: int | None = None) -> float:
    """CPU seconds (user + system) used so far by this process, or by
    process ``pid`` (from ``/proc``, in clock ticks)."""
    if pid is None:
        return time.process_time()
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def ready(cpu: float) -> None:
    """A set-up probe's answer: ready, after ``cpu`` CPU seconds."""
    print(f"ready {cpu!r}", flush=True)


def median_sum(times: dict[Any, list[float]],
               units: Sequence[Any] | None = None) -> float:
    """One pass's host seconds: each unit's median repeat, summed."""
    keys = times if units is None else units
    return sum(statistics.median(times[u]) for u in keys if times[u])


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``inf`` entries stay in the ranking)."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(obj: Any) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_pins(workload: str, config: dict[str, Any]) -> dict[str, Any]:
    """The committed pins of one workload; refuses a file generated
    under other settings than the workload now uses."""
    path = PIN_DIR / f"{workload}.json"
    doc = json.loads(path.read_text())
    if doc["config"] != config:
        raise SystemExit(f"{path} was generated for {doc['config']}, "
                         f"the workload now uses {config}; regenerate "
                         f"it with repobench/pins.py")
    return doc["pins"]


def write_pins(workload: str, config: dict[str, Any],
               pins: dict[str, Any]) -> Path:
    PIN_DIR.mkdir(exist_ok=True)
    path = PIN_DIR / f"{workload}.json"
    path.write_text(json.dumps({"config": config, "pins": pins},
                               indent=1, sort_keys=True) + "\n")
    return path
