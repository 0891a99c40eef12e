"""Host-time tracing for the benchmark: spans around public calls, and a
CPU-time stack sampler for the step-loop layers.

Everything stays in memory while a run measures and is written out when
it ends.  Nothing here touches the simulated-time tracer in
``repro.obs``: records, profiles and ``.rlog``s do not change when
tracing is on (the correctness pins check this on every traced run).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

REPRO_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
BENCH_ROOT = Path(__file__).resolve().parent

#: package → layer, where a package is charged to another layer
LAYER_ALIASES = {"dslib": "htmbench"}


class Tracer:
    """Span recorder.  A span has a name, start, end (``perf_counter``
    seconds, which is CLOCK_MONOTONIC and so comparable across the
    processes of one host), the span that caused it and a group id
    shared by one cell, program or submission."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._mu = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> dict[str, Any] | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, group: Any = None) -> Iterator[dict]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if group is None and parent is not None:
            group = parent["group"]
        rec = {"id": next(self._ids), "name": name,
               "parent": parent["id"] if parent else None,
               "group": group, "pid": os.getpid(),
               "tid": threading.get_ident(),
               "start": time.perf_counter(), "end": None}
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._mu:
                self.spans.append(rec)

    def add(self, name: str, start: float, end: float,
            group: Any = None) -> None:
        """Record an interval measured elsewhere (e.g. a queue wait)."""
        with self._mu:
            self.spans.append({"id": next(self._ids), "name": name,
                               "parent": None, "group": group,
                               "pid": os.getpid(),
                               "tid": threading.get_ident(),
                               "start": start, "end": end})

    def count(self, name: str, n: float = 1) -> None:
        with self._mu:
            self.counts[name] += n

    def wrap(self, owner: Any, attr: str, name: str,
             group: Callable[..., Any] | None = None) -> None:
        """Replace ``owner.attr`` with a version that records a span
        around every call (undone by :meth:`unwrap`).  ``group(*args)``
        names the span's group."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, group(*args) if group else None):
                return fn(*args, **kwargs)

        self.replace(owner, attr, traced)

    def replace(self, owner: Any, attr: str, fn: Any) -> None:
        """Set ``owner.attr`` to ``fn`` until :meth:`unwrap`."""
        self._patched.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, fn)

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def merge(self, spans: list[dict[str, Any]]) -> None:
        """Adopt spans recorded by another process (ids re-numbered)."""
        remap = {s["id"]: next(self._ids) for s in spans}
        for s in spans:
            s = dict(s, id=remap[s["id"]])
            if s["parent"] is not None:
                s["parent"] = remap.get(s["parent"])
            self.spans.append(s)


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Span id → duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"],
                                                         s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, cursor), min(b, s["end"])
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def by_name(spans: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Per span name: count, busy seconds, self seconds, durations."""
    selfs = self_times(spans)
    table: dict[str, dict[str, Any]] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"spans": 0, "busy_s": 0.0,
                                           "self_s": 0.0, "durations": []})
        d = s["end"] - s["start"]
        row["spans"] += 1
        row["busy_s"] += d
        row["self_s"] += selfs[s["id"]]
        row["durations"].append(d)
    return table


def chrome_trace(spans: list[dict[str, Any]]) -> dict[str, Any]:
    """The spans as Chrome-trace complete events (microseconds)."""
    t0 = min((s["start"] for s in spans), default=0.0)
    return {"traceEvents": [
        {"name": s["name"], "ph": "X", "pid": s["pid"], "tid": s["tid"],
         "ts": (s["start"] - t0) * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
         "args": {"group": s["group"], "id": s["id"],
                  "parent": s["parent"]}}
        for s in sorted(spans, key=lambda s: s["start"])]}


def layer_of(filename: str) -> str | None:
    """The repo layer (``repro`` subpackage) a source file belongs to;
    ``bench`` for the benchmark's own files; None for anything else
    (stdlib, site-packages), whose time goes to its caller."""
    path = Path(filename)
    try:
        rel = path.relative_to(REPRO_ROOT)
    except ValueError:
        try:
            path.relative_to(BENCH_ROOT)
        except ValueError:
            return None
        return "bench"
    top = rel.parts[0]
    if top.endswith(".py"):
        top = top[:-3]
    return LAYER_ALIASES.get(top, top)


class StackSampler:
    """CPU-time sampler for one thread at a time: every ``interval``
    seconds a helper thread reads the followed thread's CPU clock and
    charges the CPU time it used since the last look to the innermost
    frame of its stack that belongs to a repo layer (stdlib time goes
    to its caller).  The helper needs the GIL to look, so in practice it
    looks once per switch interval; each look is weighted by CPU time,
    so the shares stay right.

    :meth:`follow` picks the thread (``threading.get_ident()``) or None
    to pause, so a daemon can follow whichever runner thread is running
    a campaign.
    """

    def __init__(self, interval: float = 0.001) -> None:
        self.interval = interval
        self.cpu: Counter[str] = Counter()
        self.looks = 0
        self._layers: dict[str, str | None] = {}
        self._target: int | None = None
        self._last: dict[int, float] = {}
        self._halt = threading.Event()
        self._thread: threading.Thread | None = None

    def follow(self, ident: int | None) -> None:
        """Sample thread ``ident`` from now on (None: sample nothing)."""
        if ident is not None:
            self._last.pop(ident, None)
        self._target = ident

    def _layer(self, frame: Any) -> str:
        cache = self._layers
        f = frame
        while f is not None:
            fn = f.f_code.co_filename
            layer = cache.get(fn, "?")
            if layer == "?":
                layer = cache[fn] = layer_of(fn)
            if layer is not None:
                return layer
            f = f.f_back
        return "other"

    def _look(self) -> None:
        ident = self._target
        if ident is None:
            return
        try:
            cpu = time.clock_gettime(time.pthread_getcpuclockid(ident))
        except OSError:  # the thread has ended
            return
        prev = self._last.get(ident)
        self._last[ident] = cpu
        frame = sys._current_frames().get(ident)
        if prev is None or frame is None or self._target != ident:
            return
        self.cpu[self._layer(frame)] += cpu - prev
        self.looks += 1

    def _loop(self) -> None:
        while not self._halt.wait(self.interval):
            self._look()

    def start(self, ident: int | None = None) -> None:
        self.follow(ident)
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="repobench-sampler")
        self._thread.start()

    def stop(self) -> None:
        self._halt.set()
        if self._thread is not None:
            self._thread.join()
        self._look()

    def cpu_seconds(self) -> dict[str, float]:
        return dict(self.cpu)


def install_probes(tracer: Tracer) -> None:
    """Spans and counts around the engine's and the analysis package's
    public functions, the same in every process that runs them:

    * ``Simulator.run`` (span ``sim.run``), counting steps and host
      seconds per mode (profiled when a profiler is attached), HTM
      begins and commits, and PMU samples delivered;
    * ``TxSampler.profile`` (``core.profile``) and every workload's
      ``build`` (``htmbench.build``);
    * the stages ``analyze_workload`` calls (``analysis.<stage>``),
      counting the model checker's DPOR executions.

    Steps are counted by a wrapper around the simulator's step function,
    so the count costs a call per step, inside traced runs only."""
    from repro.analysis import dataflow, lint, mc, predict, races
    from repro.core.profiler import TxSampler
    from repro.htmbench.base import WORKLOADS
    from repro.sim.engine import Simulator

    run = Simulator.run

    def counted_run(sim: Simulator, *args: Any, **kwargs: Any) -> Any:
        mode = "native" if sim.profiler is None else "profiled"
        step = sim._step
        steps = 0

        def counted_step(thread: Any) -> None:
            nonlocal steps
            steps += 1
            step(thread)

        sim._step = counted_step  # type: ignore[method-assign]
        with tracer.span("sim.run") as rec:
            out = run(sim, *args, **kwargs)
        tracer.count(f"sim.{mode}_insts", steps)
        tracer.count(f"sim.{mode}_s", rec["end"] - rec["start"])
        tracer.count("htm.begins", out.begins)
        tracer.count("htm.commits", out.commits)
        tracer.count("pmu.samples", out.samples_delivered)
        return out

    tracer.replace(Simulator, "run", counted_run)
    tracer.wrap(TxSampler, "profile", "core.profile")
    owners = {next(k for k in cls.__mro__ if "build" in k.__dict__)
              for cls in WORKLOADS.values()}
    for owner in sorted(owners, key=lambda k: k.__qualname__):
        tracer.wrap(owner, "build", "htmbench.build")
    modules = {"lint": lint, "races": races, "dataflow": dataflow, "mc": mc,
               "predict": predict}
    for module, attr, stage in ANALYSIS_STAGES:
        tracer.wrap(modules[module], attr, f"analysis.{stage}")

    analyze_mc = mc.analyze_mc

    def counted_mc(*args: Any, **kwargs: Any) -> Any:
        out = analyze_mc(*args, **kwargs)
        tracer.count("analysis.mc_executions",
                     sum(s.dpor_executions for s in out.scenarios))
        return out

    tracer.replace(mc, "analyze_mc", counted_mc)


#: (module, public function, stage) of each step ``analyze_workload``
#: takes
ANALYSIS_STAGES = (
    ("lint", "extract_workload", "extract"),
    ("lint", "summarize", "summarize"),
    ("races", "analyze_races", "races"),
    ("dataflow", "analyze_dataflow", "dataflow"), ("mc", "analyze_mc", "mc"),
    ("predict", "predict_workload", "predict"),
)

#: the layers whose self time the sampler reports
SAMPLED_LAYERS = ("sim", "htm", "pmu", "rtm", "htmbench", "core", "cct",
                  "shadow")


def _median_ms(table: dict[str, dict[str, Any]], *names: str) -> float:
    durations = sorted(d for n in names
                       for d in table.get(n, {}).get("durations", []))
    return durations[len(durations) // 2] * 1000 if durations else 0.0


def layer_metrics(spans: list[dict[str, Any]], counts: dict[str, float],
                  cpu: dict[str, float], passes: float, overhead: float,
                  loop: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, computed the same way on every workload
    from the traced window's spans, counts and sampled CPU seconds.
    Times and counts are per pass of the workload; a layer the workload
    never calls reads 0.  ``loop`` holds the figures of the service's
    closed loop (empty where there is none)."""
    table = by_name(spans)

    def per_pass(x: float) -> float:
        return x / passes if passes else 0.0

    def busy(name: str) -> float:
        return per_pass(table.get(name, {}).get("busy_s", 0.0))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    accepted = table.get("serve.accept", {}).get("spans", 0)
    m: dict[str, tuple[float, str]] = {"trace.overhead": (overhead, "ratio")}
    for layer in SAMPLED_LAYERS:
        m[f"{layer}.self_s"] = (per_pass(cpu.get(layer, 0.0)), "s")
    for mode in ("native", "profiled"):
        m[f"sim.{mode}_insts_per_s"] = (
            ratio(counts.get(f"sim.{mode}_insts", 0),
                  counts.get(f"sim.{mode}_s", 0.0)), "insts/s")
    m["sim.insts"] = (per_pass(counts.get("sim.native_insts", 0)
                               + counts.get("sim.profiled_insts", 0)),
                      "count")
    m["pmu.samples"] = (per_pass(counts.get("pmu.samples", 0)), "count")
    m["htm.commit_ratio"] = (ratio(counts.get("htm.commits", 0),
                                   counts.get("htm.begins", 0)), "ratio")
    m["core.profile_s"] = (busy("core.profile"), "s")
    m["htmbench.build_s"] = (busy("htmbench.build"), "s")
    for name in ("submit", "stream", "result", "rlog", "queue_wait"):
        m[f"serve.{name}_ms"] = (_median_ms(table, f"serve.{name}"), "ms")
    for name, unit in (("rtt_p50_ms", "ms"), ("rtt_p90_ms", "ms"),
                       ("subs_per_s", "1/s"), ("new_done_p10_ms", "ms"),
                       ("new_done_p90_ms", "ms")):
        m[f"serve.{name}"] = (loop.get(name, 0.0), unit)
    m["campaign.run_ms"] = (_median_ms(table, "campaign.run"), "ms")
    m["campaign.hit_ratio"] = (ratio(counts.get("campaign.hits", 0),
                                     counts.get("campaign.jobs", 0)), "ratio")
    m["campaign.store.get_ms"] = (_median_ms(
        table, "campaign.store.get", "campaign.store.fetch"), "ms")
    m["campaign.store.put_ms"] = (_median_ms(
        table, "campaign.store.put", "campaign.store.put_batch"), "ms")
    m["campaign.store.fsyncs"] = (
        ratio(counts.get("campaign.store.fsyncs", 0), accepted), "count")
    m["serve.journal.append_ms"] = (
        _median_ms(table, "serve.journal.append"), "ms")
    m["serve.journal.fsyncs"] = (
        ratio(counts.get("serve.journal.fsyncs", 0), accepted), "count")
    m["serve.refused"] = (loop.get("refused", 0), "count")
    m["serve.failed"] = (loop.get("failed", 0), "count")
    for _, _, stage in ANALYSIS_STAGES:
        m[f"analysis.{stage}_s"] = (busy(f"analysis.{stage}"), "s")
    executions = counts.get("analysis.mc_executions", 0)
    m["analysis.mc_executions"] = (per_pass(executions), "count")
    m["analysis.mc_executions_per_s"] = (ratio(
        executions, table.get("analysis.mc", {}).get("busy_s", 0.0)), "1/s")
    return m


def layer_rows(spans: list[dict[str, Any]], cpu: dict[str, float],
               passes: float) -> list[tuple[str, ...]]:
    """Rows of the per-layer table: sampled layers (CPU seconds per pass
    and share), then span names (count, busy and self seconds per pass,
    mean wait for queue waits)."""
    total = sum(cpu.values()) or 1.0
    rows = [(f"layer:{layer}", "-", "-", f"{cpu[layer] / passes:.4f}",
             f"{cpu[layer] / total:.1%}", "-", "-")
            for layer in sorted(cpu, key=cpu.__getitem__, reverse=True)]
    for name, row in sorted(by_name(spans).items()):
        wait = (f"{row['busy_s'] * 1000 / row['spans']:.2f}ms/span"
                if name.endswith("wait") else "-")
        rows.append((f"span:{name}", str(row["spans"]),
                     f"{row['busy_s'] / passes:.4f}",
                     f"{row['self_s'] / passes:.4f}", "-", wait, "-"))
    return rows


def traced_in_process(timed: Callable[[float, Tracer | None],
                                      dict[Any, list[float]]],
                      seconds: float, units: int) -> dict[str, Any]:
    """A traced run of a workload that runs in this process: half of
    ``seconds`` untraced, then half with every probe installed and the
    sampler following this thread.  ``timed(seconds, tracer)`` runs the
    workload's units round-robin and returns their times."""
    from common import median_sum

    plain = timed(seconds / 2, None)
    tracer = Tracer()
    install_probes(tracer)
    sampler = StackSampler()
    sampler.start(threading.get_ident())
    try:
        traced = timed(seconds / 2, tracer)
    finally:
        sampler.stop()
        tracer.unwrap()
    passes = sum(len(v) for v in traced.values()) / units
    cpu = sampler.cpu_seconds()
    overhead = median_sum(traced) / median_sum(plain) - 1
    useful = (f"{tracer.counts['htm.commits']:.0f}/"
              f"{tracer.counts['htm.begins']:.0f} commits/begins")
    return {"spans": tracer.spans,
            "metrics": layer_metrics(tracer.spans, tracer.counts, cpu,
                                     passes, overhead, {}),
            "rows": [*layer_rows(tracer.spans, cpu, passes),
                     ("htm", "-", "-", "-", "-", "-", useful)],
            "note": f"{passes:.2f} traced passes, seconds per pass; the "
                    f"sampler looked {sampler.looks} times over "
                    f"{sum(cpu.values()):.2f} CPU s"}


def write_artifacts(out_dir: Path, workload: str,
                    spans: list[dict[str, Any]],
                    rows: list[tuple[str, ...]],
                    header: tuple[str, ...], note: str) -> None:
    """The per-layer table (text, ending in ``note``) and the
    Chrome-trace JSON."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload}-trace.json").write_text(
        json.dumps(chrome_trace(spans)))
    widths = [max(len(str(r[i])) for r in [header, *rows])
              for i in range(len(header))]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(r, widths))
             for r in [header, *rows]]
    (out_dir / f"{workload}-layers.txt").write_text(
        "\n".join([*lines, "", note]) + "\n")
