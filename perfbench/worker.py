"""One repetition of a workload, in a fresh interpreter.

run.py starts this script once per repetition (``--mode rep``) and once per
run for the workload's shared set-up (``--mode shared``). A repetition
makes its inputs, runs its CLI calls through ``entrolab.cli.main`` with
stdout captured, checks what they printed, and writes one JSON object to
its own stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

from speed import SpeedSampler
from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _run_ops(cli, ops, tracer, clock) -> None:
    """The timed phase: every call in turn, each waiting for the last."""
    for op in ops:
        if tracer is not None:
            tracer.tag = op.tag
        buf = io.StringIO()
        op.start = clock()
        try:
            with contextlib.redirect_stdout(buf):
                op.code = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects the command line
            op.code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # counted as a failed operation
            op.code = -1
            print(f"{op.argv}: {exc!r}", file=sys.stderr)
        op.end = clock()
        op.out = buf.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("shared", "rep"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-check", type=int, choices=(0, 1), default=1)
    parser.add_argument("--rep-dir", type=Path)
    parser.add_argument("--shared-dir", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="the parent's perf_counter() just before it started this process")
    args = parser.parse_args()

    # the cache variable overrides --cache-path and would make a cold run warm
    os.environ.pop("ENTROLAB_CACHE", None)
    sys.path.insert(0, str(ROOT / "src"))
    from entrolab import cli

    workload = WORKLOADS[args.workload]
    sampler = SpeedSampler()
    sampler.start()
    if args.mode == "shared":
        workload.shared_setup(args.shared_dir)
        done = sampler.clock()
        sampler.stop()
        setup_s = done - args.spawned
        print(json.dumps({"setup_s": setup_s, "scaled_setup_s": sampler.scaled(args.spawned, done)}))
        return 0

    args.rep_dir.mkdir(parents=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    ops = workload.prepare(rng, args.rep_dir, args.shared_dir)
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child,
    # so set-up includes interpreter start and imports
    ready = sampler.clock()
    tracer = None
    if args.trace:
        tracer = Tracer(sampler.clock)
        tracer.install()
    _run_ops(cli, ops, tracer, sampler.clock)
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.remove()  # the checks below are not part of the trace
    verdict = workload.check(ops, bool(args.full_check))
    digest = hashlib.sha256("".join(op.out for op in ops).encode()).hexdigest()
    latencies = [op.end - op.start for op in ops]
    scaled = [sampler.scaled(op.start, op.end) for op in ops]
    layers = None
    if tracer is not None:
        factor = sum(scaled) / sum(latencies)
        seconds = {name for name, unit, _ in PER_LAYER if unit == "s"}
        layers = {
            name: value * factor if name in seconds else value
            for name, value in tracer.metrics().items()
        }
    print(json.dumps({
        "setup_s": ready - args.spawned,
        "scaled_setup_s": sampler.scaled(args.spawned, ready),
        "wall_s": sum(latencies),
        "scaled_wall_s": sum(scaled),
        "scaled_latencies_s": scaled,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": sorted(verdict.failed_ops),
        "unfinished": sorted(verdict.unfinished),
        "problems": verdict.problems[:20],
        "widths": verdict.widths,
        "gaps": verdict.gaps,
        "stdout_sha256": digest,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
