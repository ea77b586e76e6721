"""Outside-in per-layer timing of entrolab.

The package source is not edited. Instead the public functions at each
module boundary are replaced, for the length of a traced repetition, by
wrappers that time them. A function is wrapped under the name its caller
looks up: modules import each other with ``from ... import``, so
``logistic.root_isolate`` and ``numkit.root_isolate`` are separate bindings
of one function, and only the first is the one the center scan calls.

Spans are aggregated by name as they close (calls, total time, self time),
because the innermost ones (``sign_at``, ``evaluate``) run 10^5 times per
repetition. Self time is a span's duration minus the time of the wrapped
spans it opened.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

# the highest period whose root_isolate time is reported on its own
MAX_PERIOD = 9

# (module, class or None, attribute, metric key) -- one row per binding
_TARGETS = (
    ("cli", None, "logistic_entropy", "logistic.logistic_entropy"),
    ("cli", None, "enumerate_centers", "logistic.enumerate_centers"),
    ("cli", None, "sft_entropy", "symbolic.sft_entropy"),
    ("logistic", None, "enumerate_centers", "logistic.enumerate_centers"),
    ("logistic", None, "collect_brackets", "logistic.collect_brackets"),
    ("logistic", None, "sft_entropy", "symbolic.sft_entropy"),
    ("logistic", None, "root_isolate", "numkit.root_isolate"),
    ("logistic", None, "refine_root", "numkit.refine_root"),
    ("numkit", None, "refine_root", "numkit.refine_root"),
    ("logistic", "CenterCache", "_load", "logistic.CenterCache.load"),
    ("logistic", "CenterCache", "add_center", "logistic.CenterCache.add_center"),
    ("numkit", "IterMapExpr", "evaluate", "numkit.evaluate"),
    ("numkit", "IterMapExpr", "derivative_enclosure", "numkit.derivative_enclosure"),
    ("numkit", "IterMapExpr", "sign_at", "numkit.sign_at"),
    ("symbolic", None, "log2_enclosure", "numkit.log2_enclosure"),
    ("horseshoe", None, "log2_enclosure", "numkit.log2_enclosure"),
    ("interval_maps", None, "log2_enclosure", "numkit.log2_enclosure"),
    ("horseshoe", None, "check_certificate", "horseshoe.check_certificate"),
    ("horseshoe", None, "compose", "interval_maps.compose"),
    ("interval_maps", None, "compose", "interval_maps.compose"),
    ("horseshoe", None, "compose_iterate", "interval_maps.compose_iterate"),
)

# the quadratic candidate path is not driven by any workload
UNCOVERED = ("horseshoe._quad_candidates",)


def _timed(key: str) -> list[tuple[str, str, str]]:
    return [(f"{key}.calls", "count", "lower"), (f"{key}.s", "s", "lower")]


# every per-layer metric, in report order: (name, unit, better)
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("numkit.root_isolate.s", "s", "lower"),
    ("numkit.root_isolate.self_s", "s", "lower"),
    *[(f"numkit.root_isolate.p{k}.s", "s", "lower") for k in range(1, MAX_PERIOD + 1)],
    *_timed("numkit.evaluate"),
    *_timed("numkit.derivative_enclosure"),
    *_timed("numkit.sign_at"),
    *_timed("numkit.refine_root"),
    *_timed("numkit.log2_enclosure"),
    ("logistic.enumerate_centers.self_s", "s", "lower"),
    *_timed("logistic.CenterCache.load"),
    *_timed("logistic.CenterCache.add_center"),
    *_timed("logistic.collect_brackets"),
    ("logistic.logistic_entropy.self_s", "s", "lower"),
    ("logistic.period_reached.max", "period", "lower"),
    ("logistic.period_reached.mean", "period", "lower"),
    ("logistic.centers.count", "count", "higher"),
    *_timed("symbolic.sft_entropy"),
    ("symbolic.sft_entropy.self_s", "s", "lower"),
    ("symbolic.sft_entropy.chord.s", "s", "lower"),
    ("symbolic.sft_entropy.dense.s", "s", "lower"),
    *_timed("interval_maps.compose"),
    ("interval_maps.compose.nodes_out", "count", "lower"),
    *_timed("interval_maps.compose_iterate"),
    ("horseshoe.search_lower_bounds.self_s", "s", "lower"),
    *_timed("horseshoe.check_certificate"),
    ("horseshoe.check_certificate.passed", "count", "higher"),
    ("horseshoe.verify_yield", "ratio", "higher"),
    ("horseshoe.records", "count", "higher"),
    ("horseshoe.bound_gap_mean", "bit", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.failed_frac", "ratio", "lower"),
    ("tracing_overhead_frac", "ratio", "lower"),
)

# measured by the workload or the runner rather than by the wrappers
NOT_TRACED = ("horseshoe.bound_gap_mean", "cli.failed_frac", "tracing_overhead_frac")


class Tracer:
    """Wrappers around entrolab's module boundaries plus their aggregates."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.tag: Optional[str] = None  # input class of the current CLI call
        self.periods_reached: list[int] = []
        self._period = 0
        self._open: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _close(self, key: str, start: float) -> float:
        duration = self.clock() - start
        child = self._open.pop()
        self.total[key] += duration
        self.self_time[key] += duration - child
        if self._open:
            self._open[-1] += duration
        return duration

    def _wrap(self, key: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            tracer._open.append(0.0)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close(key, start)
            if after is not None:
                after(args, result, duration)
            return result

        return wrapper

    def _wrap_generator(self, key: str, fn: Callable) -> Callable:
        """Time a generator over its consumption: one span per resumption."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    tracer._open.append(0.0)
                    start = tracer.clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(key, start)
                    tracer.counts["horseshoe.records"] += 1
                    yield item
            finally:
                gen.close()

        return wrapper

    # -- per-function extras ------------------------------------------------

    def _after_root_isolate(self, args, result, duration) -> None:
        self.total[f"numkit.root_isolate.p{args[0].iterations}"] += duration

    def _after_enumerate(self, args, result, duration) -> None:
        self._period = max(self._period, args[0])
        count = self.counts["logistic.centers.count"]
        self.counts["logistic.centers.count"] = max(count, len(result.centers))

    def _after_compose(self, args, result, duration) -> None:
        self.counts["interval_maps.compose.nodes_out"] += len(result.nodes)

    def _after_check(self, args, result, duration) -> None:
        self.counts["horseshoe.check_certificate.passed"] += bool(result)

    def _after_sft_entropy(self, args, result, duration) -> None:
        if self.tag is not None:
            self.total[f"symbolic.sft_entropy.{self.tag}"] += duration

    def _after_main(self, args, result, duration) -> None:
        # the period a call reached is the largest p_max it enumerated to,
        # not the cap it asked for
        if self._period:
            self.periods_reached.append(self._period)
        self._period = 0

    # -- install / remove ---------------------------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        extras = {
            "numkit.root_isolate": self._after_root_isolate,
            "logistic.enumerate_centers": self._after_enumerate,
            "interval_maps.compose": self._after_compose,
            "horseshoe.check_certificate": self._after_check,
            "symbolic.sft_entropy": self._after_sft_entropy,
        }
        for module_name, class_name, attr, key in _TARGETS:
            owner = importlib.import_module(f"entrolab.{module_name}")
            if class_name is not None:
                owner = getattr(owner, class_name)
            self._patch(owner, attr, self._wrap(key, getattr(owner, attr), extras.get(key)))
        cli = importlib.import_module("entrolab.cli")
        search = self._wrap_generator("horseshoe.search_lower_bounds", cli.search_lower_bounds)
        self._patch(cli, "search_lower_bounds", search)
        self._patch(cli, "main", self._wrap("cli.main", cli.main, self._after_main))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- report ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric the wrappers measure; 0 where unused."""
        out: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            if name in NOT_TRACED:
                continue
            key, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls.get(key, 0)
            elif field == "s":
                out[name] = self.total.get(key, 0.0)
            elif field == "self_s":
                out[name] = self.self_time.get(key, 0.0)
            else:
                out[name] = self.counts.get(name, 0)
        checks = self.calls.get("horseshoe.check_certificate", 0)
        passed = self.counts.get("horseshoe.check_certificate.passed", 0)
        out["horseshoe.verify_yield"] = passed / checks if checks else 0.0
        reached = self.periods_reached
        out["logistic.period_reached.max"] = max(reached, default=0)
        out["logistic.period_reached.mean"] = sum(reached) / len(reached) if reached else 0.0
        return out
