"""The benchmark's per-layer tracer patches entrolab bindings by name, so a
renamed or removed binding must fail here and not only in a traced run."""

import json
import sys
from fractions import Fraction as F
from pathlib import Path

import entrolab.cli as cli
import entrolab.logistic as logistic
import entrolab.numkit as numkit
from entrolab.numkit import RatInterval, critical_orbit_expr

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import Tracer  # noqa: E402


def test_tracer_install_and_remove():
    originals = (logistic.root_isolate, numkit.IterMapExpr.evaluate)
    tracer = Tracer()
    tracer.install()
    try:
        assert logistic.root_isolate is not originals[0]
        assert numkit.IterMapExpr.evaluate is not originals[1]
        logistic.root_isolate(critical_orbit_expr(2), RatInterval(3, 4), F(1, 64))
    finally:
        tracer.remove()
    assert (logistic.root_isolate, numkit.IterMapExpr.evaluate) == originals
    metrics = tracer.metrics()
    assert tracer.calls["numkit.root_isolate"] == 1
    assert metrics["numkit.root_isolate.p2.s"] > 0
    assert metrics["numkit.evaluate.calls"] > 0
    assert metrics["numkit.derivative_enclosure.calls"] > 0
    assert metrics["numkit.sign_at.calls"] > 0


def test_tracer_rows_of_one_sandwich(tmp_path):
    # the sandwich's own rows stay live: it loads the cache, collects
    # brackets each period and refines the stored entropies it reads
    path = tmp_path / "c.jsonl"
    logistic.enumerate_centers(4, eps=F(1, 1000), cache=logistic.CenterCache(path))
    tracer = Tracer()
    tracer.install()
    try:
        logistic.logistic_entropy(
            F(37, 10), F(1, 32), logistic.SandwichBudget(max_period=4),
            cache=str(path),
        )
    except logistic.BudgetExceeded:
        pass
    finally:
        tracer.remove()
    metrics = tracer.metrics()
    for row in ("logistic.collect_brackets.calls", "symbolic.sft_entropy.calls",
                "logistic.CenterCache.load.calls"):
        assert metrics[row] > 0, row


def test_tracer_rows_of_one_horseshoe_stream(tmp_path, capsys):
    # the stream's rows stay live: it composes each iterate once, checks
    # each candidate, and the records are counted as the CLI draws them
    path = tmp_path / "tent.json"
    path.write_text(json.dumps({"nodes": [["0", "0"], ["1/2", "1"], ["1", "0"]]}))
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(["entropy", "pwl", "--file", str(path), "--method", "horseshoe",
                         "--max-n", "4"])
    finally:
        tracer.remove()
    assert code == 0 and capsys.readouterr().out.count("\n") > 1
    metrics = tracer.metrics()
    for row in ("interval_maps.compose.calls", "interval_maps.compose.nodes_out",
                "horseshoe.check_certificate.calls", "horseshoe.records"):
        assert metrics[row] > 0, row
