"""Benchmark for halphen: four workloads, six end-to-end metrics each, and a
traced run that times every layer from outside the program.

    python3 bench/run.py --workload series --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24

One client runs operations back to back (a closed loop) in whole seeded
rounds; a run does as many rounds as took --seconds at reference host
speed on the commit that defined the benchmark.  Every answer is checked
against a closed form (see workloads.py); a wrong answer, an
exception, a non-zero exit or an operation over the limit counts as a
failure.  The last line of stdout is a JSON object with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).  Details (run
metadata, per-family breakdowns, an output sha256 per operation, and in a
traced run every span) go to bench/results/.

Times are reported at a reference host speed.  On a shared machine the
CPU's speed swings by up to 1.6x within a second, as other tenants load
the same cores, so the process is pinned to one CPU (children inherit the
pin) and every operation is bracketed by a fixed piece of pure-Python work,
the probe.  An operation's reported time is its wall time scaled by
PROBE_REFERENCE_S / (mean probe time just before and just after it); its
raw wall time and this factor are kept in the results file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from math import ceil

from tracing import Tracer
from workloads import OP_LIMIT_S, ROOT, SRC, WORKLOADS, Cli, Op, run_child

RESULTS = ROOT / "bench" / "results"
SETUP_ROUNDS = 7
CALIBRATION_RUNS = 5
TAIL_LADDER = ("50", "75", "90", "95", "99", "99.9", "99.99")
# The probe's loop length and its median time on a 2-vCPU x86-64 shared host
# with CPython 3; times are reported as if every probe had taken this long.
PROBE_STEPS = 2500
PROBE_REFERENCE_S = 0.006
# the timed phase ends early after this many times --seconds of wall time
WALL_CAP = 2.0

END_TO_END_UNITS = {
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "throughput_ops": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# per-layer time metric -> spans whose times are summed per operation, as
# (span name, 0 for inclusive time or 1 for self time)
LAYER_TIMES = {
    "parsing.parse_ms": [("parsing.parse", 0)],
    "groebner.buchberger_ms": [("groebner.buchberger", 0)],
    "groebner.initial_ideal_ms": [("groebner.initial_ideal", 0)],
    "groebner.series_numerator_ms": [("groebner.series_numerator", 0)],
    "groebner.extract_ms": [("groebner.hilbert_polynomial", 1)],
    "groebner.verify_replay_ms": [("groebner.verify_replay", 0)],
    "invariants.invariants_of_ms": [("invariants.invariants_of", 0)],
    "graded.table_ms": [("graded.table", 0)],
    "graded.self_ms": [("graded.table", 1), ("graded.piece", 1)],
    "linalg.exact_rank_ms": [("linalg.exact_rank", 0)],
    "classifier.region_table_ms": [("classifier.region_table", 0)],
    "classifier.render_csv_ms": [("classifier.render_csv", 1)],
    "classifier.render_svg_ms": [("classifier.render_svg", 1)],
    **{
        f"cli.{sub}_ms": [(f"cli.{sub}", 0)]
        for sub in ("hilbert", "invariants", "smooth-at", "tangent", "classify", "region")
    },
}
# counter -> how values of several operations combine
COUNTERS = {
    "groebner.basis_size": sum,
    "groebner.max_coeff_bits": max,
    "groebner.initial_gens": sum,
    "groebner.stabilization_degree": max,
    "graded.rows": sum,
    "graded.cols": sum,
    "linalg.rank": sum,
    "linalg.input_max_bits": max,
    "classifier.pairs": sum,
    "classifier.output_bytes": sum,
}


def tail_percentile(n: int) -> str:
    """The highest percentile of the ladder with at least 10 of n samples
    beyond it (nearest rank); p50 when n < 20."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - ceil(Fraction(p) * n / 100) >= 10:
            best = p
    return best


def percentile(values, p: str) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(Fraction(p) * len(ordered) / 100) - 1)]


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work: dict, tuple, int
    and Fraction arithmetic, like the program's polynomial code.  The cyclic
    collector is paused so that its pauses do not land here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table, x = {}, Fraction(1, 3)
        for i in range(PROBE_STEPS):
            key = (i % 17, i % 13, i % 7)
            table[key] = table.get(key, 0) + i * i
            if i % 8 == 0:
                x = (x * Fraction(i + 3, i + 2) + Fraction(1, 7)) % 5
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed(before: float, after: float) -> float:
    """Factor from wall time to reference-speed time for work done between
    two probes that took `before` and `after` seconds."""
    return PROBE_REFERENCE_S / ((before + after) / 2)


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every child it starts, to one CPU, so that the
    probe measures the CPU the work runs on."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Executes operations, checks them, and keeps one record per operation."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.records: list[dict] = []

    def execute(self, op, phase: str, traced: bool = False) -> float:
        tracer = self.tracer if traced else None
        op_id = len(self.records)
        if tracer:
            tracer.op_id = op_id
        out, error = None, None
        before = probe()
        start = time.perf_counter()
        try:
            if tracer:
                with tracer.span(op.span):
                    out = op.call()
            else:
                out = op.call()
        except Exception as exc:  # any failure of the program is a failed op
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        scale = speed(before, probe())
        if tracer:
            tracer.finish_op()
            if tracer.counters[op_id].get("groebner.replay_nonzero"):
                error = "an S-polynomial of the returned basis does not reduce to zero"
        digest = None
        if error is None:
            try:
                digest = hashlib.sha256(op.digest(out)).hexdigest()
                op.check(out)
            except Exception as exc:  # a wrong answer, or output the checker cannot read
                error = f"{type(exc).__name__}: {exc}"
        if error is None and seconds > OP_LIMIT_S:
            error = f"took {seconds:.1f} s, over the {OP_LIMIT_S} s limit"
        self.records.append({
            "id": op_id,
            "phase": phase,
            "family": op.family,
            "input": op.input if len(op.input) <= 80
            else "sha256:" + hashlib.sha256(op.input.encode()).hexdigest(),
            "seconds": seconds * scale,
            "raw_seconds": seconds,
            "speed": scale,
            "error": error,
            "sha256": digest,
        })
        return seconds * scale

    def of(self, *phases) -> list[dict]:
        return [r for r in self.records if r["phase"] in phases]


def calibrate() -> list[float]:
    """Wall time of a bare interpreter start, as a host-noise reference."""
    out = []
    for _ in range(CALIBRATION_RUNS):
        start = time.perf_counter()
        run_child(["-c", "pass"])
        out.append(time.perf_counter() - start)
    return out


def setup(workload_cls, seed: int, runner: Runner):
    """Set up SETUP_ROUNDS times: a fresh interpreter imports halphen.cli, the
    workload builds its first round of inputs, and one warm-up op runs.
    Returns the workload, the set-up times at reference speed and the import
    times."""
    import halphen  # noqa: F401  the parent's own import, paid once

    setup_s, import_s = [], []
    for _ in range(SETUP_ROUNDS):
        before = probe()
        start = time.perf_counter()
        import_op = Op("import", lambda: run_child(["-c", "import halphen.cli"]),
                       lambda proc: proc.check_returncode(), lambda proc: proc.stdout,
                       "import halphen.cli")
        import_s.append(runner.execute(import_op, "setup"))
        workload = workload_cls(seed)
        workload.round_ops(0)
        runner.execute(workload.warmup_op(), "setup")
        seconds = time.perf_counter() - start
        setup_s.append(seconds * speed(before, probe()))
    return workload, setup_s, import_s


def timed_phase(workload, seconds: float, runner: Runner, traced: bool) -> dict:
    """round(seconds / ROUND_S) whole rounds, ending early only after WALL_CAP
    times `seconds` of wall time.  In a traced run each round runs twice,
    untraced and then traced, on the same inputs, so the two can be compared
    op by op, and half as many rounds run."""
    planned = max(1, round(seconds / workload.ROUND_S))
    if traced:
        planned = max(1, planned // 2)
    busy, rounds, first_traced = 0.0, 0, []
    start = time.perf_counter()
    while rounds < planned and (rounds == 0 or time.perf_counter() - start < WALL_CAP * seconds):
        ops = workload.round_ops(rounds)
        for op in ops:
            busy += runner.execute(op, "timed")
        if traced:
            with runner.tracer.installed():
                for op in ops:
                    if rounds == 0:
                        first_traced.append(len(runner.records))
                    busy += runner.execute(op, "traced", traced=True)
        rounds += 1
    return {"rounds": rounds, "planned_rounds": planned, "busy_s": busy,
            "wall_s": time.perf_counter() - start, "first_traced": first_traced}


def end_to_end(workload, runner: Runner, phase: dict, setup_s: list[float]) -> tuple[dict, dict]:
    timed = runner.of("timed")
    ms = [r["seconds"] * 1000 for r in timed]
    tail = tail_percentile(len(ms))
    ok = sum(r["error"] is None for r in timed)
    every = runner.records
    failed = sum(r["error"] is not None for r in every)
    who = resource.RUSAGE_CHILDREN if isinstance(workload, Cli) else resource.RUSAGE_SELF
    values = {
        "latency_ms_p50": percentile(ms, "50"),
        "latency_ms_tail": percentile(ms, tail),
        "throughput_ops": ok / phase["busy_s"],
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "success_rate": 1 - failed / len(every),
    }
    info = {
        "tail_percentile": tail,
        "samples": len(ms),
        "error_rate": failed / len(every),
        "per_family_p50_ms": {},
    }
    for r in timed:
        info["per_family_p50_ms"].setdefault(r["family"], []).append(r["seconds"] * 1000)
    for fam, v in info["per_family_p50_ms"].items():
        info["per_family_p50_ms"][fam] = statistics.median(v)
    return values, info


def per_layer(runner: Runner, tracer: Tracer, phase: dict, coverage: list[int],
              import_s, interpreter_s) -> tuple[dict, dict]:
    times = tracer.times()
    traced = runner.of("traced", "coverage")
    values, info = {}, {"per_family": {}}
    for metric, parts in LAYER_TIMES.items():
        per_op = [
            1000 * r["speed"] * sum(times[r["id"]][name][kind] for name, kind in parts
                                    if name in times[r["id"]])
            for r in traced
            if any(name in times[r["id"]] for name, _ in parts)
        ]
        values[metric] = statistics.median(per_op)
    values["cli.interpreter_ms"] = 1000 * statistics.median(interpreter_s)
    values["cli.import_ms"] = 1000 * statistics.median(import_s)

    fixed = phase["first_traced"] + coverage
    for name, combine in COUNTERS.items():
        values[name] = combine(tracer.counters[i][name] for i in fixed if name in tracer.counters[i])
    values["linalg.pivot_ratio"] = values["linalg.rank"] / values["graded.rows"]

    # the untraced and traced passes ran the same operations in the same order
    untraced = sum(r["seconds"] for r in runner.of("timed"))
    values["bench.trace_overhead_pct"] = 100 * (sum(r["seconds"] for r in runner.of("traced")) / untraced - 1)

    for r in traced:
        fam = info["per_family"].setdefault(r["family"], {"ops": 0, "self_ms": defaultdict(list)})
        fam["ops"] += 1
        for name, (_incl, own) in times[r["id"]].items():
            fam["self_ms"][name].append(1000 * r["speed"] * own)
    for fam in info["per_family"].values():
        fam["self_ms"] = {k: statistics.median(v) for k, v in sorted(fam["self_ms"].items())}
    info["counters_by_op"] = {
        f"{runner.records[i]['family']}#{i}": tracer.counters[i] for i in fixed if tracer.counters[i]
    }
    info["basis_sha256"] = {
        f"{runner.records[i]['family']}#{i}": tracer.bases[i] for i in sorted(tracer.bases)
    }
    return values, info


def run_one(args) -> int:
    workload_cls = WORKLOADS[args.workload]
    cpu = pin_to_one_cpu()
    load_before = os.getloadavg()
    interpreter_s = calibrate()
    tracer = Tracer() if args.trace else None
    runner = Runner(tracer)
    workload, setup_s, import_s = setup(workload_cls, args.seed, runner)
    phase = timed_phase(workload, args.seconds, runner, traced=bool(args.trace))

    coverage = []
    if args.trace:
        # layers this workload does not reach are measured on a few small
        # operations of the other workloads, so every layer has a figure;
        # they are built before the wrappers go in, so no input parsing is traced
        cover = [op for other in WORKLOADS.values() if other is not workload_cls
                 for op in other(args.seed).coverage_ops()]
        with tracer.installed():
            for op in cover:
                coverage.append(len(runner.records))
                runner.execute(op, "coverage", traced=True)
        metrics, info = per_layer(runner, tracer, phase, coverage, import_s, interpreter_s)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, info = end_to_end(workload, runner, phase, setup_s)
        units = END_TO_END_UNITS

    failed = sum(r["error"] is not None for r in runner.records)
    result = {
        "correct": failed == 0,
        "attempted": len(runner.records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "git_commit": git_commit(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "cli.interpreter_ms": [1000 * s for s in interpreter_s],
        "setup_s": setup_s,
        "rounds": phase["rounds"],
        "planned_rounds": phase["planned_rounds"],
        "busy_s": phase["busy_s"],
        "wall_s": phase["wall_s"],
        "probe_reference_s": PROBE_REFERENCE_S,
        "speed_median": statistics.median(r["speed"] for r in runner.records),
        "raw_p50_ms": 1000 * statistics.median(r["raw_seconds"] for r in runner.of("timed")),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    details = {"meta": meta, "result": result, "info": info, "ops": runner.records}
    (RESULTS / f"{stem}.json").write_text(json.dumps(details, indent=1, default=str))
    if tracer:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}))

    for r in runner.records:
        if r["error"]:
            print(f"FAILED {r['phase']} {r['family']}: {r['error']}")
    if args.trace:
        print(f"{'family':<14} ops  self ms by span")
        for fam, d in sorted(info["per_family"].items()):
            spans = "  ".join(f"{k}={v:.2f}" for k, v in d["self_ms"].items())
            print(f"{fam:<14} {d['ops']:>3}  {spans}")
    else:
        print(f"tail = p{info['tail_percentile']} of {info['samples']} samples; "
              f"error_rate = {info['error_rate']:.4f}")
    for k, v in metrics.items():
        print(f"{args.workload:<7} {k:<30} {v:>14.4f} {units[k]}")
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    results, info = {}, {}
    for name in WORKLOADS:
        argv = [__file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = run_child(argv, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode())
            return proc.returncode
        results[name] = json.loads(proc.stdout.decode().splitlines()[-1])
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        info[name] = json.loads((RESULTS / f"{stem}.json").read_text())["info"]
    first = next(iter(results.values()))["metrics"]
    print(f"{'metric':<30}" + "".join(f"{w:>14}" for w in results) + "  unit")
    for m, v in first.items():
        row = "".join(f"{results[w]['metrics'][m]['value']:>14.4f}" for w in results)
        print(f"{m:<30}{row}  {v['unit']}")
    if not args.trace:
        for key in ("tail_percentile", "samples", "error_rate"):
            print(f"{key:<30}" + "".join(f"{info[w][key]:>14}" for w in results))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "halphen" / "__init__.py", ROOT / "fixtures", ROOT / "schemas")
               if not p.exists()]
    if missing:
        print(f"bench: not a halphen checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # every user gets the default serial table unless they opt in
    os.environ.pop("HALPHEN_THREADS", None)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
