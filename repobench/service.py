"""``service``: a closed loop of one client against ``repro serve``.

The daemon runs in its own process (``serve_launcher.py``) on a fresh
store.  One round trip is what ``repro submit --stream`` does: POST the
submission, follow the event stream until the campaign is done, GET the
result records and, for figure8, GET one ``.rlog``.  Submissions are
small figure8/overhead campaigns over one or two micros.  Three in four
resubmit a campaign the store already holds (the read path); every
fourth is new and simulates, so records, ``.rlog`` sidecars and fsyncs
run too (the write path).  A new one simulates for less than the
stream's poll interval, so it ends on the same poll as a cached one.  A
pass is ``NEW_EVERY`` round trips in that mix; ``pass_s`` sums the
median cached round trip for each cached one and the median new one.

Most of a cached round trip is the stream's ``EVENT_POLL_S`` sleep in
the server.  It is timed anyway, so removing it shows as a gain.

Correctness: every served record and ``.rlog`` must be byte-identical
to a serial in-process run of the same submission, computed after the
timed window.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import shutil
import signal
import statistics
import socket
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from calibrate import Calibrator
from common import BENCH_DIR, Between, Result, cpu_seconds, percentile, \
    peak_rss_mb, ready, rng_for
from repro.campaign.scheduler import CampaignRunner
from repro.campaign.store import ResultStore
from repro.campaign.suites import build_campaign, submission_kwargs
from repro.serve.client import ServeClient, ServeError
from tracing import Tracer, layer_metrics, layer_rows

THREADS = 2
SCALE = 0.25
#: one submission in NEW_EVERY is new; the rest resubmit a cached one
NEW_EVERY = 4
CACHED = (
    {"suite": "figure8", "workloads": ["micro_low_abort"]},
    {"suite": "figure8", "workloads": ["micro_read_only", "micro_sync"]},
    {"suite": "figure8", "workloads": ["micro_lock_line"]},
    {"suite": "overhead", "workloads": ["micro_moderate_abort"],
     "runs": 3, "drop": 0},
)
#: sized so a new campaign completes well before the stream's first
#: poll, 50 ms after it opens (~15 ms of simulation on a 2-core host):
#: the host's speed swings by half again, and a campaign that ends near
#: a poll then moves its round trip by a whole 50 ms poll step; the
#: traced run reports where new campaigns land
NEW = (
    {"suite": "figure8", "workloads": ["micro_low_abort"]},
)
READY_TIMEOUT_S = 60.0
ROUND_TRIP_TIMEOUT_S = 60.0
REFUSED = (429, 503)


def doc_id(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def record_hashes(records: dict[str, dict]) -> dict[str, str]:
    return {k: sha(json.dumps(r, sort_keys=True).encode())
            for k, r in records.items()}


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return int(s.getsockname()[1])


class Daemon:
    """One ``repro serve`` process on a fresh store under ``work``."""

    def __init__(self, work: Path, name: str, trace: bool = False) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.store = work / f"{name}-store"
        self.report = work / f"{name}-report.json"
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        with open(work / f"{name}.log", "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
                 "--store", str(self.store), "--port", str(self.port),
                 "--report", str(self.report)]
                + (["--trace"] if trace else []),
                stdout=log, stderr=subprocess.STDOUT)
        try:
            self._wait_healthy()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=1.0)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        raise RuntimeError("daemon never answered /healthz")

    def stop(self) -> dict[str, Any]:
        """SIGTERM (graceful drain), wait, and read the launcher's report."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        try:
            return json.loads(self.report.read_text())
        except (OSError, ValueError):
            return {}


@dataclass
class Observed:
    """Round trips of one window: latencies (``inf`` for a refused or
    failed one) and what each submission served."""

    rtts: list[float] = field(default_factory=list)
    #: per round trip: was the submission new (not cached)
    is_new: list[bool] = field(default_factory=list)
    completed: int = 0
    #: ids of the completed new (not cached) submissions
    new: list[str] = field(default_factory=list)
    refused: int = 0
    failed: int = 0
    elapsed: float = 0.0
    served: dict[str, set[tuple]] = field(default_factory=dict)


class Plan:
    def __init__(self, seed: int, perturb: bool) -> None:
        self.rng = rng_for(seed, "service")
        base = {"n_threads": THREADS, "scale": SCALE}
        self.cached = [dict(t, **base, seed=self.rng.randrange(1000))
                       for t in CACHED]
        #: new submissions get seeds no cached one uses, one apart
        self.next_new_seed = 1000 + self.rng.randrange(1_000_000) * 1000
        self.n_new = 0
        self.submitted: dict[str, dict] = {doc_id(d): d for d in self.cached}
        self.perturb = perturb

    def next_doc(self, i: int) -> dict:
        if i % NEW_EVERY != NEW_EVERY - 1:
            return self.rng.choice(self.cached)
        template = NEW[self.n_new % len(NEW)]
        doc = dict(template, n_threads=THREADS, scale=SCALE,
                   seed=self.next_new_seed + self.n_new)
        self.n_new += 1
        self.submitted[doc_id(doc)] = doc
        return doc


def prepare(seed: int, perturb: bool = False) -> Plan:
    return Plan(seed, perturb)


def round_trip(client: ServeClient, doc: dict, res: Result,
               seen: Observed, tracer: Tracer | None) -> str | None:
    """One ``repro submit --stream`` round trip plus the result GETs;
    returns the submission's id, or None if it failed."""
    span = tracer.span if tracer is not None else (
        lambda *a, **k: nullcontext({}))
    res.attempted += 1
    t0 = time.perf_counter()
    try:
        with span("serve.rtt") as top:
            with span("serve.submit") as sub:
                cid = client.submit(doc)["id"]
            sub["group"] = top["group"] = cid
            with span("serve.stream"):
                for _ in client.stream_events(cid):
                    pass
            with span("serve.result"):
                records = client.result(cid)
            rlog = None
            if doc["suite"] == "figure8":
                key = sorted(records)[0]
                with span("serve.rlog"):
                    rlog = (key, sha(client.rlog(key)))
    except ServeError as exc:
        seen.rtts.append(float("inf"))
        if exc.status in REFUSED:
            seen.refused += 1
            res.fail(f"refused ({exc.status}): {exc}")
        else:
            seen.failed += 1
            res.fail(f"submission failed: {exc}")
        return None
    except Exception as exc:  # counted, the run goes on
        seen.rtts.append(float("inf"))
        seen.failed += 1
        res.fail(f"round trip failed: {type(exc).__name__}: {exc}")
        return None
    seen.rtts.append(time.perf_counter() - t0)
    seen.completed += 1
    served = (tuple(sorted(record_hashes(records).items())), rlog)
    seen.served.setdefault(doc_id(doc), set()).add(served)
    return cid


def closed_loop(plan: Plan, daemon: Daemon, seconds: float, res: Result,
                tracer: Tracer | None = None,
                between: Between | None = None) -> Observed:
    """Warm the cached submissions (untimed), then run round trips back
    to back for ``seconds``.  Time spent in ``between`` is kept off the
    clock."""
    client = ServeClient(daemon.url, timeout=ROUND_TRIP_TIMEOUT_S)
    warm = Observed()
    for doc in plan.cached:
        round_trip(client, doc, res, warm, None)
    seen = Observed(served=warm.served)
    t0 = time.perf_counter()
    deadline = t0 + seconds
    i = 0
    paused = 0.0
    while time.perf_counter() < deadline:
        doc = plan.next_doc(i)
        is_new = doc not in plan.cached
        cid = round_trip(client, doc, res, seen, tracer)
        seen.is_new.append(is_new)
        if cid is not None and is_new:
            seen.new.append(cid)
        i += 1
        if between is not None:
            pause = between()
            paused += pause
            deadline += pause
    seen.elapsed = time.perf_counter() - t0 - paused
    return seen


def serial_reference(plan: Plan, root: Path) -> dict[str, tuple]:
    """Every submitted campaign run serially in-process on its own store:
    the records and ``.rlog`` bytes the daemon must have served."""
    store = ResultStore(root)
    out = {}
    try:
        for key, doc in plan.submitted.items():
            suite, kwargs = submission_kwargs(doc)
            records = CampaignRunner(store=store, jobs=1).run(
                build_campaign(suite, **kwargs))
            rlog = None
            if suite == "figure8":
                k = sorted(records)[0]
                rlog = (k, sha((root / ResultStore.REPLAY_DIR
                                / f"{k}.rlog").read_bytes()))
            out[key] = (tuple(sorted(record_hashes(records).items())), rlog)
    finally:
        store.close()
    return out


def verify(plan: Plan, windows: list[Observed], work: Path,
           res: Result) -> None:
    reference = serial_reference(plan, work / "serial-store")
    if plan.perturb:
        reference = {k: (v[0][1:], v[1]) for k, v in reference.items()}
    for seen in windows:
        for key, variants in seen.served.items():
            for served in variants:
                res.attempted += 1
                if served != reference[key]:
                    res.fail(f"served bytes differ from the serial run for "
                             f"{key}")


def pass_seconds(seen: Observed) -> float:
    """One pass of the mix: ``NEW_EVERY - 1`` cached round trips and one
    new, each at its kind's median (a failed one counts as infinite)."""
    cached = [r for r, new in zip(seen.rtts, seen.is_new) if not new]
    new = [r for r, new in zip(seen.rtts, seen.is_new) if new]
    return ((NEW_EVERY - 1) * statistics.median(cached)
            + statistics.median(new))


def run(plan: Plan, seconds: float, res: Result, work: Path,
        calibrator: Calibrator, between: Between | None = None) -> None:
    """Round trips are timed in wall seconds: they mostly wait, so
    neither CPU time nor the calibration applies."""
    daemon = Daemon(work, "daemon")
    try:
        seen = closed_loop(plan, daemon, seconds, res, between=between)
    finally:
        report = daemon.stop()
    # before verify(), whose serial reference runs in this process
    client_rss = peak_rss_mb()
    verify(plan, [seen], work, res)
    res.metrics["pass_s"] = (pass_seconds(seen), "s")
    res.metrics["peak_rss_mb"] = (
        client_rss + report.get("peak_rss_kb", 0) / 1024.0, "MB")


def setup_probe(plan: Plan, work: Path) -> None:
    """What a run does before its first round trip: start a daemon on a
    fresh store and wait for its first healthy answer."""
    daemon = Daemon(work, "probe")
    ready(cpu_seconds() + cpu_seconds(daemon.proc.pid))
    daemon.stop()
    shutil.rmtree(work, ignore_errors=True)


def run_traced(plan: Plan, seconds: float, res: Result, work: Path,
               calibrator: Calibrator) -> dict[str, Any]:
    """Half the time against an untraced daemon, half against a traced
    one, each on a fresh store.  The closed loop's own figures (round
    trip percentiles, throughput) come from the untraced half."""
    windows = []
    plain_daemon = Daemon(work, "plain")
    try:
        windows.append(closed_loop(plan, plain_daemon, seconds / 2, res))
    finally:
        plain_daemon.stop()
    tracer = Tracer()
    traced_daemon = Daemon(work, "traced", trace=True)
    try:
        windows.append(closed_loop(plan, traced_daemon, seconds / 2, res,
                                   tracer))
    finally:
        report = traced_daemon.stop()
    verify(plan, windows, work, res)
    plain, traced = windows
    tracer.merge(report.get("spans", []))
    counts = report.get("counts", {})
    cpu = report.get("cpu", {})
    passes = len(traced.rtts) / NEW_EVERY

    # where a new campaign finishes relative to the stream's 50 ms polls
    opened = {s["group"]: s["start"] for s in tracer.spans
              if s["name"] == "serve.stream"}
    finished = {s["group"]: s["end"] for s in tracer.spans
                if s["name"] == "serve.finish"}
    done = [(finished[c] - opened[c]) * 1000 for c in traced.new
            if c in finished and c in opened]
    ms = [r * 1000 for r in plain.rtts]
    loop = {"rtt_p50_ms": percentile(ms, 0.5),
            "rtt_p90_ms": percentile(ms, 0.9),
            "subs_per_s": plain.completed / plain.elapsed,
            "refused": plain.refused + traced.refused,
            "failed": plain.failed + traced.failed}
    for q in (10, 90):
        loop[f"new_done_p{q}_ms"] = percentile(done, q / 100) if done else 0.0

    def mean(xs: list[float]) -> float:
        return sum(xs) / len(xs)

    rows = layer_rows(tracer.spans, cpu, passes)
    rows.append(("campaign", "-", "-", "-", "-", "-",
                 f"{counts.get('campaign.hits', 0)}/"
                 f"{counts.get('campaign.jobs', 0)} jobs cached"))
    rows.append(("serve", "-", "-", "-", "-", "-",
                 f"{traced.completed}/{len(traced.rtts)} round trips done"))
    for name in sorted(counts):
        if name.endswith("fsyncs"):
            rows.append((f"count:{name}", str(counts[name]), "-", "-", "-",
                         "-", "-"))
    return {"spans": tracer.spans,
            "metrics": layer_metrics(
                tracer.spans, counts, cpu, passes,
                mean(traced.rtts) / mean(plain.rtts) - 1, loop),
            "rows": rows,
            "note": f"traced window: {len(traced.rtts)} round trips "
                    f"({passes:.1f} passes of {NEW_EVERY}); figures are "
                    f"per pass; the sampler followed the daemon's runner "
                    f"threads; the {len(done)} new campaigns finished "
                    f"{min(done, default=0):.0f}-{max(done, default=0):.0f} "
                    f"ms after their stream opened (polls every 50 ms)"}
