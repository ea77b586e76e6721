"""The benchmark's per-layer tracer patches entrolab bindings by name, so a
renamed or removed binding must fail here and not only in a traced run."""

import sys
from fractions import Fraction as F
from pathlib import Path

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
