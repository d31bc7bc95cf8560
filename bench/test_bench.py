"""Tests of the benchmark itself: seeded generation, the closed-form
checkers, the tail-percentile rule, the host-speed scaling and the
sizing of a run.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
import sys

import pytest

from workloads import (
    SRC,
    Cli,
    Rank,
    Region,
    Series,
    WrongAnswer,
    ci_curve_genus,
    koszul_hilbert,
    koszul_polynomial,
    region_rows,
    rnc_text,
)

sys.path.insert(0, str(SRC))

import run  # noqa: E402
from run import Runner, percentile, tail_percentile, timed_phase  # noqa: E402
from workloads import Op  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("cls", [Series, Rank, Region, Cli])
def test_generation_is_deterministic_per_seed(cls):
    first = [op.input for op in cls(7).round_ops(3)]
    assert first == [op.input for op in cls(7).round_ops(3)]
    assert first != [op.input for op in cls(8).round_ops(3)]


def test_rounds_differ_within_a_seed():
    assert [op.input for op in Series(7).round_ops(0)] != [op.input for op in Series(7).round_ops(1)]


def test_closed_forms():
    # two quadrics in P^3: 1, 4, 8, 12, 16, ... (degree 4, genus 1)
    assert [koszul_hilbert((2, 2), m) for m in range(5)] == [1, 4, 8, 12, 16]
    assert all(koszul_polynomial((2, 2), m) == 4 * m for m in range(5))
    assert ci_curve_genus(2, 2) == 1 and ci_curve_genus(3, 3) == 10
    assert all(koszul_polynomial((2, 2, 3), m) == 12 for m in range(6))
    assert koszul_hilbert((2, 2, 3), 10) == 12
    assert region_rows(3) == 1 + 1 + 2


def test_series_checker_rejects_perturbed_answers():
    op = Series(1).op(("rnc", 4), rnc_text(4))
    data, inv = op.call()
    op.check((data, inv))
    coeffs = list(data.polynomial.coeffs)
    coeffs[0] += 1
    wrong_p = dataclasses.replace(data, polynomial=type(data.polynomial)(tuple(coeffs)))
    with pytest.raises(WrongAnswer):
        op.check((wrong_p, inv))
    with pytest.raises(WrongAnswer):
        op.check((data, dataclasses.replace(inv, genus=inv.genus + 1)))


def test_series_checker_accepts_complete_intersections():
    for op in Series(2).round_ops(0):
        if op.family in ("ci(2,3)", "ci(2,2,2)"):
            op.check(op.call())


def test_rank_checker_rejects_perturbed_answers():
    op = next(o for o in Rank(1).round_ops(0) if o.family == "rnc(5)->5")
    table = op.call()
    op.check(table)
    values = dict(table.values)
    values[3] += 1
    with pytest.raises(WrongAnswer):
        op.check(dataclasses.replace(table, values=values))


def test_region_checker_rejects_perturbed_answers():
    for fmt, extra in (("csv", "13,0,false,false,false,false,nonexistent\n"),
                       ("svg", '<circle cx="0" cy="0" r="6"/>\n')):
        op = Region(1).op(fmt, 12)
        out = op.call()
        op.check(out)
        with pytest.raises(WrongAnswer):
            op.check(out + extra)


def _cli_check(command, *args):
    line = next(l for l in Cli(1).script if l[0] == command and l[1][: len(args)] == list(args))
    return line[2]


def test_cli_checker_validates_json_against_schema():
    check = _cli_check("invariants", "--ideal", "fixtures/twisted_cubic.ideal")
    good = {"schema_version": 1, "ideal": "C", "hilbert_polynomial": "3*m + 1",
            "stabilization_from": 0, "dimension": 1, "degree": 3, "genus": 0}
    check(json.dumps(good))
    with pytest.raises(WrongAnswer):
        check(json.dumps({**good, "degree": "3"}))  # violates the schema
    with pytest.raises(WrongAnswer):
        check(json.dumps({**good, "genus": 1}))  # valid JSON, wrong genus


def test_cli_checker_rejects_perturbed_hilbert_csv():
    check = _cli_check("hilbert", "--ideal", "fixtures/twisted_cubic.ideal")
    rows = [f"{m},{3 * m + 1}" for m in range(7)]
    check("m,hilbert_function\n" + "\n".join(rows) + "\n")
    rows[4] = "4,14"
    with pytest.raises(WrongAnswer):
        check("m,hilbert_function\n" + "\n".join(rows) + "\n")


@pytest.mark.parametrize("n, p", [
    (1, "50"), (19, "50"), (20, "50"), (39, "50"), (40, "75"), (99, "75"),
    (100, "90"), (199, "90"), (200, "95"), (999, "95"), (1000, "99"),
    (9999, "99"), (10000, "99.9"),
])
def test_tail_percentile_rule(n, p):
    assert tail_percentile(n) == p


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, "50") == 50
    assert percentile(values, "90") == 90
    assert percentile(values, "99.9") == 100
    assert percentile([5.0], "75") == 5.0


def _noop(family="noop") -> Op:
    return Op(family, lambda: None, lambda out: None, lambda out: b"", "noop")


def test_op_time_is_scaled_to_reference_speed(monkeypatch):
    # the probe takes twice its reference time: the host runs at half speed,
    # so an operation's wall time is halved to give its reference-speed time
    monkeypatch.setattr(run, "probe", lambda: 2 * run.PROBE_REFERENCE_S)
    runner = Runner()
    seconds = runner.execute(_noop(), "timed")
    record = runner.records[0]
    assert record["speed"] == 0.5
    assert seconds == record["seconds"] == record["raw_seconds"] / 2


def test_a_run_does_a_fixed_number_of_rounds(monkeypatch):
    monkeypatch.setattr(run, "probe", lambda: run.PROBE_REFERENCE_S)

    class Fake:
        ROUND_S = 2.0

        def round_ops(self, k):
            return [_noop(), _noop()]

    runner = Runner()
    phase = timed_phase(Fake(), 7.0, runner, traced=False)
    assert phase["rounds"] == phase["planned_rounds"] == 4  # round(7 / 2)
    assert len(runner.of("timed")) == 8
    phase = timed_phase(Fake(), 0.5, Runner(), traced=False)
    assert phase["rounds"] == 1


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.op_id = 0
    tracer.spans = [["outer", 0.0, 10.0, None, 0], ["inner", 1.0, 4.0, 0, 0], ["inner", 5.0, 6.0, 0, 0]]
    times = tracer.times()[0]
    assert times["outer"] == [10.0, 6.0]
    assert times["inner"] == [4.0, 4.0]


def test_traced_series_op_records_every_groebner_layer():
    tracer = Tracer()
    op = Series(1).op(("rnc", 4), rnc_text(4))
    tracer.op_id = 0
    with tracer.installed():
        with tracer.span(op.span):
            out = op.call()
    tracer.finish_op()
    op.check(out)
    names = set(tracer.times()[0])
    assert {"parsing.parse", "groebner.hilbert_polynomial", "groebner.buchberger",
            "groebner.initial_ideal", "groebner.series_numerator",
            "groebner.verify_replay", "invariants.invariants_of"} <= names
    assert tracer.counters[0]["groebner.replay_nonzero"] == 0
    assert tracer.counters[0]["groebner.basis_size"] >= 6
    assert len(tracer.bases[0]) == 1


def test_metric_names_and_units_match_benchmark_json():
    import run
    from workloads import ROOT

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = [*run.LAYER_TIMES, "cli.interpreter_ms", "cli.import_ms", *run.COUNTERS,
                   "linalg.pivot_ratio", "bench.trace_overhead_pct"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in layer_names
    }
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
