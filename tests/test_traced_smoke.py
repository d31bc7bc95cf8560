"""A traced `rank`, `region` and `series` op, as the benchmark runs them
with --trace 1: the tracer's wrappers must reach the row build, the exact
rank, the region table and Buchberger, its replay of the final Groebner
check must find every S-polynomial reducing to zero, and the ops must
still check."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from tracing import Tracer  # noqa: E402
from workloads import Rank, Region, Series  # noqa: E402


@pytest.mark.parametrize(
    "op, counters, zeros",
    [
        (Rank(1).warmup_op(), {"graded.rows", "linalg.rank"}, set()),
        (Region(1).warmup_op(), {"classifier.pairs"}, set()),
        (
            Series(1).warmup_op(),
            {"groebner.basis_size", "groebner.initial_gens", "groebner.max_coeff_bits"},
            {"groebner.replay_nonzero"},
        ),
    ],
    ids=["rank", "region", "series"],
)
def test_traced_op_records_its_layers(op, counters, zeros):
    tracer = Tracer()
    tracer.op_id = 0
    with tracer.installed():
        with tracer.span(op.span):
            out = op.call()
    tracer.finish_op()
    op.check(out)
    assert counters | zeros <= set(tracer.counters[0])
    assert all(tracer.counters[0][name] > 0 for name in counters)
    assert all(tracer.counters[0][name] == 0 for name in zeros)
