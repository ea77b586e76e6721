"""entrolab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each repetition runs in a fresh interpreter
(worker.py), one client with no threads: a closed loop in which every CLI
call waits for the one before. Repetitions start while less than ``--seconds``
have passed since the first one started, and at least two run. With
``--trace 1`` untraced and traced repetitions alternate.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
is a report with sample counts, the SHA-256 of the captured CLI output and
the interpreter, commit and CPU count it ran on.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER, UNCOVERED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# (name, unit): every workload reports all of them; lower is better
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("width_mean", "bit"),
)

# a run must end well inside the 180 s a caller allows it
HARD_LIMIT_S = 150.0
# so that a percentile never rests on one repetition's calls; with --trace 1
# the two are one untraced and one traced
MIN_REPETITIONS = 2


def _child(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run worker.py; return its JSON result and the wall time it took."""
    spawned = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args, "--spawned", repr(spawned)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(timeout, 1.0),
    )
    elapsed = time.perf_counter() - spawned
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    started = time.perf_counter()
    shared = work / "shared"
    shared.mkdir()
    common = ["--workload", name, "--seed", str(seed), "--shared-dir", str(shared)]
    shared_result, _ = _child([*common, "--mode", "shared"], HARD_LIMIT_S)

    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    t0 = time.perf_counter()
    while True:
        with_trace = trace and len(traced) < len(plain)
        k = len(plain) + len(traced)
        remaining = HARD_LIMIT_S - (time.perf_counter() - started)
        result, duration = _child(
            [*common, "--mode", "rep", "--rep-dir", str(work / f"rep{k}"),
             "--trace", str(int(with_trace)), "--full-check", str(int(k == 0))],
            remaining,
        )
        (traced if with_trace else plain).append(result)
        durations.append(duration)
        if len(durations) < MIN_REPETITIONS:
            continue
        over = time.perf_counter() - t0 >= seconds
        if over or time.perf_counter() - started + statistics.median(durations) > HARD_LIMIT_S:
            break
    return {"shared": shared_result, "plain": plain, "traced": traced}


def _summarize(name: str, seed: int, trace: bool, runs: dict) -> tuple[dict, dict]:
    reps = runs["plain"] + runs["traced"]
    plain = runs["plain"]
    shared = runs["shared"]
    problems = [p for rep in reps for p in rep["problems"]]
    digests = sorted({rep["stdout_sha256"] for rep in reps})
    if len(digests) > 1:
        problems.append("CLI output differs between repetitions of the same inputs")
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(len(rep["failed"]) for rep in reps)
    not_ok = sum(len(set(rep["failed"]) | set(rep["unfinished"])) for rep in reps)
    latencies = [s for rep in plain for s in rep["scaled_latencies_s"]]
    first = reps[0]
    gaps = first["gaps"]
    bound_gap_mean = sum(gaps) / len(gaps) if gaps else 0.0
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        metrics = {
            metric: statistics.median(rep["layers"][metric] for rep in runs["traced"])
            for metric in runs["traced"][0]["layers"]
        }
        metrics["horseshoe.bound_gap_mean"] = bound_gap_mean
        metrics["cli.failed_frac"] = not_ok / attempted
        metrics["tracing_overhead_frac"] = (
            statistics.fmean(rep["scaled_wall_s"] for rep in runs["traced"])
            / statistics.fmean(rep["scaled_wall_s"] for rep in plain) - 1
        )
        units = {metric: unit for metric, unit, _ in PER_LAYER}
    else:
        metrics = {
            "setup_s": shared["scaled_setup_s"] + statistics.median([rep["scaled_setup_s"] for rep in plain]),
            "wall_s": statistics.fmean(rep["scaled_wall_s"] for rep in plain),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[-1],
            "peak_rss_mb": statistics.median([rep["peak_rss_mb"] for rep in plain]),
            "width_mean": sum(first["widths"]) / len(first["widths"]),
        }
        units = dict(END_TO_END)
    result["metrics"] = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
    report = {
        "workload": name,
        "seed": seed,
        "repetitions": len(plain),
        "traced_repetitions": len(runs["traced"]),
        "latency_samples": len(latencies),
        "shared_setup_s": shared["scaled_setup_s"],
        "unscaled": {
            "setup_s": shared["setup_s"] + statistics.median([rep["setup_s"] for rep in plain]),
            "wall_s": statistics.fmean(rep["wall_s"] for rep in plain),
        },
        "failed_frac": not_ok / attempted,
        "budget_exhausted": sum(len(rep["unfinished"]) for rep in reps),
        "bound_gap_mean": bound_gap_mean,
        "stdout_sha256": digests,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "not_covered": list(UNCOVERED),
        "problems": problems[:20],
    }
    return report, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "entrolab" / "cli.py").is_file():
        print(f"error: no entrolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        runs = _measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no other run is using it
    report, result = _summarize(args.workload, args.seed, bool(args.trace), runs)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
