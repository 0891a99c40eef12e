#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise how steady each
end-to-end metric is.

    python3 repobench/steadiness.py --held-out N [--out repobench/STEADINESS.md]

Each workload of ``BENCHMARK.json`` runs on seeds 1 to 10.  For each
end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``), min, max and the quartile
spread as a share of the median, next to the metric's bound.  On the
held-out seed it then checks the pins untraced and traced, that
``--perturb-pin`` makes the run fail, and lists the traced run's
per-layer metrics.  Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10
SEEDS = list(range(1, RUNS + 1))


def invoke(workload: str, seed: int, seconds: int, *flags: str
           ) -> tuple[int, dict | None, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if lines else None
    return proc.returncode, doc, elapsed


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    code, doc, elapsed = invoke(workload, seed, seconds, "--trace", "0")
    if code != 0 or doc is None or not doc["correct"]:
        raise SystemExit(f"{workload} seed {seed}: exit {code}, {doc}")
    return doc, elapsed


def held_out(workload: str, seed: int, seconds: int
             ) -> tuple[str, dict[str, dict]]:
    """Pins on an unseen seed, untraced and traced, and the self-check:
    perturbed pins must fail the run.  Returns the verdicts and the
    traced run's per-layer metrics."""
    verdicts = []
    layers: dict[str, dict] = {}
    for flags in (("--trace", "0"), ("--trace", "1"),
                  ("--trace", "0", "--perturb-pin")):
        perturbed = "--perturb-pin" in flags
        code, doc, _ = invoke(workload, seed, 5 if perturbed else seconds,
                              *flags)
        ok = doc is not None and doc["correct"] and code == 0
        if perturbed:
            ok = doc is not None and not doc["correct"] and code == 1
        verdicts.append(f"`{' '.join(flags)}`: exit {code}, "
                        f"{doc['attempted'] if doc else '-'} attempted, "
                        f"{doc['failed'] if doc else '-'} failed — "
                        f"{'as expected' if ok else 'UNEXPECTED'}")
        if not ok:
            raise SystemExit(f"held-out {workload}: {verdicts[-1]}")
        if flags == ("--trace", "1"):
            layers = doc["metrics"]
    return "; ".join(verdicts), layers


def summarise(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--held-out", type=int, required=True,
                    help="seed not used while tuning, for the pin checks")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    lines = [f"# Steadiness: {RUNS} runs per workload",
             "",
             f"Seeds {SEEDS[0]}–{SEEDS[-1]}, `--seconds "
             f"{spec['run_seconds']} --trace 0`, Python "
             f"{platform.python_version()}, {platform.machine()}, "
             f"host with 2 cores.  Spread = (q3 − q1) / median.",
             ""]
    raw: dict[str, list] = {}
    for workload in names:
        docs, walls = [], []
        for seed in SEEDS:
            doc, wall = one_run(workload, seed, spec["run_seconds"])
            docs.append(doc)
            walls.append(wall)
            print(workload, seed, f"{wall:.1f}s",
                  {k: round(v["value"], 4)
                   for k, v in doc["metrics"].items()}, flush=True)
        raw[workload] = [{"seed": s, "run_s": w, "metrics": {
            k: v["value"] for k, v in d["metrics"].items()}}
            for s, w, d in zip(SEEDS, walls, docs)]
        lines += [f"## {workload}", "",
                  f"Whole run (set-up, measuring, checks): median "
                  f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s; "
                  f"{sum(d['attempted'] for d in docs)} operations, "
                  f"{sum(d['failed'] for d in docs)} failed.",
                  "",
                  "| metric | unit | median | q1 | q3 | min | max | spread "
                  "| bound |",
                  "|---|---|---|---|---|---|---|---|---|"]
        for name, meta in docs[0]["metrics"].items():
            s = summarise([d["metrics"][name]["value"] for d in docs])
            lines.append(
                f"| {name} | {meta['unit']} | {s['median']:.6g} | "
                f"{s['q1']:.6g} | {s['q3']:.6g} | {s['min']:.6g} | "
                f"{s['max']:.6g} | {s['spread']:.2%} | "
                f"{bounds.get(name, 0):.0%} |")
        verdicts, layers = held_out(workload, args.held_out,
                                    spec["run_seconds"])
        lines += ["", f"Held-out seed {args.held_out}: {verdicts}", "",
                  "Its traced run's per-layer metrics: "
                  + ", ".join(f"`{k}` {v['value']:.4g} {v['unit']}"
                              for k, v in layers.items()) + ".", ""]
    lines += ["## Raw values", "", "```json",
              json.dumps(raw, indent=1), "```", ""]
    text = "\n".join(lines)
    if args.out:
        args.out.write_text(text)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
