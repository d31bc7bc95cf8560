"""A traced `rank` op and a traced `region` op, as the benchmark runs them
with --trace 1: the tracer's wrappers must reach the row build, the exact
rank and the region table, and the ops must still check."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from tracing import Tracer  # noqa: E402
from workloads import Rank, Region  # noqa: E402


@pytest.mark.parametrize(
    "op, counters",
    [
        (Rank(1).warmup_op(), {"graded.rows", "linalg.rank"}),
        (Region(1).warmup_op(), {"classifier.pairs"}),
    ],
    ids=["rank", "region"],
)
def test_traced_op_records_its_layers(op, counters):
    tracer = Tracer()
    tracer.op_id = 0
    with tracer.installed():
        with tracer.span(op.span):
            out = op.call()
    tracer.finish_op()
    op.check(out)
    assert counters <= set(tracer.counters[0])
    assert all(tracer.counters[0][name] > 0 for name in counters)
