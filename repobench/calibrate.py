"""The host's speed, measured next to the work it scales.

The host the bounds were set on (2 vCPUs of a shared x86_64 machine)
changes speed with its neighbours' load, by up to half again within
minutes, and in CPU time too, not only by steal.  A run cannot average
that away.  So every CPU-bound unit is paired with a sample of a fixed
loop taken just before it, and reported at the reference speed:
``unit_cpu_s * CAL_REF_S / loop_cpu_s``.  The loop reads a 300 k-entry
dict in a scattered order, so it waits on memory the way the engine and
the analysis do.  It runs in a helper process of its own, so its table
stays out of the benchmark's peak RSS and its timing does not depend on
the state of the benchmark's heap.  Over eight seeds of ``paper`` in one
window, pass CPU time spread 10 % (quartiles over median); paired with
this loop, 3.2 %.

    python3 repobench/calibrate.py

reads one line per sample on standard input and answers each with the
loop's CPU seconds.
"""

from __future__ import annotations

import subprocess
import sys
import time

#: CPU seconds the loop takes at the reference speed: about its median
#: on the host the bounds were set on, so that reported seconds stay
#: close to that host's CPU seconds
CAL_REF_S = 0.018
TABLE = 300_000
STEPS = 30_000


def _serve() -> None:
    table = {i: (i * 2654435761) % 1000003 for i in range(TABLE)}
    for _ in sys.stdin:
        t0 = time.process_time()
        key = total = 0
        for i in range(STEPS):
            key = table[(key * 31 + i) % TABLE]
            total += key & 7
        print(time.process_time() - t0, flush=True)


class Calibrator:
    """The helper process, sampled on demand; close it when done."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def sample(self) -> float:
        """The loop's CPU seconds, now."""
        assert self._proc.stdin and self._proc.stdout
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration helper exited "
                               f"({self._proc.poll()})")
        return float(line)

    def reference(self, cpu_s: float, sample: float) -> float:
        """``cpu_s`` measured next to ``sample``, at the reference speed."""
        return cpu_s * CAL_REF_S / sample

    def close(self) -> None:
        if self._proc.stdin:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        if self._proc.stdout:
            self._proc.stdout.close()


if __name__ == "__main__":
    _serve()
