"""Launch ``repro serve`` for the service workload, in its own process.

    python3 repobench/serve_launcher.py --store DIR --port N --report FILE [--trace]

The daemon is started through ``repro.cli.main(["serve", ...])``, the
path ``repro serve`` takes.  With ``--trace`` the launcher first wraps
the daemon's public functions (admission, lease, publish, the campaign
runner, the result store and the task journal) in spans, counts
``os.fsync`` calls by the span they happen in, installs the engine and
analysis probes every workload uses (``tracing.install_probes``) and
starts the CPU-time sampler, which follows whichever runner thread is
inside ``CampaignRunner.run``.  On SIGTERM the daemon drains as usual;
the launcher then writes FILE: its peak RSS and, when traced, the
spans, counts and sampled CPU seconds per layer.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import StackSampler, Tracer, install_probes  # noqa: E402


def install(tracer: Tracer, sampler: StackSampler) -> None:
    from repro.campaign.scheduler import CampaignRunner
    from repro.campaign.store import ResultStore
    from repro.serve.journal import TaskJournal
    from repro.serve.supervise import Supervisor

    local = threading.local()
    accepted: dict[str, float] = {}

    def task_group(_self: object, task: object, *_: object) -> str:
        return getattr(task, "id")

    def runner_group(*_: object) -> str | None:
        return getattr(local, "group", None)

    tracer.wrap(Supervisor, "accept", "serve.accept", task_group)
    tracer.wrap(Supervisor, "publishing", "serve.publish", task_group)
    tracer.wrap(Supervisor, "finish", "serve.finish", task_group)
    tracer.wrap(Supervisor, "fail", "serve.fail", task_group)
    tracer.wrap(CampaignRunner, "run", "campaign.run", runner_group)
    for attr in ("get", "fetch", "probe", "put", "put_batch"):
        tracer.wrap(ResultStore, attr, f"campaign.store.{attr}",
                    runner_group)
    tracer.wrap(TaskJournal, "append", "serve.journal.append")

    accept = Supervisor.accept

    def accept_and_stamp(self: Supervisor, task, *args, **kwargs):
        out = accept(self, task, *args, **kwargs)
        accepted[task.id] = time.perf_counter()
        return out

    Supervisor.accept = accept_and_stamp  # type: ignore[method-assign]
    lease = Supervisor.lease

    def traced_lease(self: Supervisor, task, registry):
        now = time.perf_counter()
        local.group = task.id
        start = accepted.pop(task.id, None)
        if start is not None:
            tracer.add("serve.queue_wait", start, now, group=task.id)
        with tracer.span("serve.lease", group=task.id):
            return lease(self, task, registry)

    Supervisor.lease = traced_lease  # type: ignore[method-assign]

    run = CampaignRunner.run

    def run_and_count(self: CampaignRunner, campaign):
        sampler.follow(threading.get_ident())
        try:
            out = run(self, campaign)
        finally:
            sampler.follow(None)
        summary = self.summary()
        tracer.count("campaign.jobs", summary["jobs"])
        tracer.count("campaign.hits", summary["hits"])
        return out

    CampaignRunner.run = run_and_count  # type: ignore[method-assign]
    fsync = os.fsync

    def counted_fsync(fd: int) -> None:
        span = tracer.current()
        name = span["name"] if span else ""
        if name == "serve.journal.append":
            tracer.count("serve.journal.fsyncs")
        elif name.startswith("campaign.store."):
            tracer.count("campaign.store.fsyncs")
        else:
            tracer.count("other.fsyncs")
        fsync(fd)

    os.fsync = counted_fsync  # type: ignore[assignment]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--store", required=True)
    ap.add_argument("--port", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    tracer = Tracer()
    sampler = StackSampler()
    if args.trace:
        install(tracer, sampler)
        install_probes(tracer)
        sampler.start()
    from repro.cli import main as cli_main

    try:
        rc = cli_main(["serve", "--port", args.port,
                       "--cache-dir", args.store])
    finally:
        if args.trace:
            sampler.stop()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        Path(args.report).write_text(json.dumps({
            "peak_rss_kb": peak_kb, "spans": tracer.spans,
            "counts": dict(tracer.counts), "cpu": sampler.cpu_seconds()}))
    return rc


if __name__ == "__main__":
    sys.exit(main())
