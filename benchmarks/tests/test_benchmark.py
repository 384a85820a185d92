"""Tests of the benchmark itself: job generation, tracing, self-time arithmetic.

Run with ``python -m pytest benchmarks/tests``.
"""

from __future__ import annotations

import contextlib
import json
import random
import signal
import sys
import time
from fractions import Fraction

import pytest

import expected as ex
import jobs as joblist
import run
import spans
import speed


def _snapshot(paths):
    return {p.name: p.read_bytes() for p in sorted(paths)}


@pytest.mark.parametrize("workload", joblist.WORKLOADS)
def test_same_seed_same_jobs_other_seed_other_jobs(workload, tmp_path):
    first = joblist.build(workload, 3, tmp_path)
    files = _snapshot(tmp_path.iterdir())
    again = joblist.build(workload, 3, tmp_path)
    assert [j.argv for j in again] == [j.argv for j in first]
    assert [j.answer for j in again] == [j.answer for j in first]
    assert _snapshot(tmp_path.iterdir()) == files
    other = joblist.build(workload, 4, tmp_path)
    assert sorted(j.argv for j in other) != sorted(j.argv for j in first)
    assert len(other) == len(first)
    assert [j.command for j in first].count("verify-structure") == (
        [j.command for j in other].count("verify-structure"))


def _points(names, rng, n=6):
    return [{v: Fraction(rng.randint(-40, 40), 8) for v in names} for _ in range(n)]


def test_kfunctions_fall_in_their_family(tmp_path):
    """Linear-form ones have alpha-independent momentum partials; perturbed ones not."""
    from kontact.expr import differentiate, evaluate, free_variables, parse_expr

    rng = random.Random(0)
    jobs = [j for j in joblist.build("identities", 5, tmp_path) if j.command == "legendrian"]
    n_linear = sum(count for _, count in joblist.LINEAR_BLOCKS)
    assert len(jobs) == n_linear + joblist.PERTURBED_JOBS
    for job in jobs:
        kf = json.loads(open(job.argv[1], encoding="utf-8").read())
        F = [parse_expr(f) for f in kf["F"]]
        names = sorted(set().union(*(free_variables(f) for f in F)))
        pts = _points(names, rng)
        agree = True
        for i in kf["I"]:
            partials = [differentiate(F[a], f"p_{a + 1}_{i}") for a in range(kf["k"])]
            agree &= all(evaluate(d - partials[0], p) == 0 for d in partials for p in pts)
        if job.answer.exit_code == 0:
            assert agree
            for a, f in enumerate(F):
                for i in kf["I"]:
                    second = differentiate(differentiate(f, f"p_{a + 1}_{i}"), f"p_{a + 1}_{i}")
                    assert all(evaluate(second, p) == 0 for p in pts)
        else:
            assert job.answer == ex.legendrian_perturbed()
            assert not agree


def test_sections_fall_in_their_family(tmp_path):
    """Constant sections have no t; linear-xi ones vary only xi, affinely, with a slope."""
    from kontact.expr import differentiate, evaluate, free_variables, parse_expr

    jobs = [j for j in joblist.build("flows", 5, tmp_path) if "--section" in j.argv]
    assert {j.answer.exit_code for j in jobs} == {0, 1}
    for job in jobs:
        path = job.argv[job.argv.index("--section") + 1]
        comps = json.loads(open(path, encoding="utf-8").read())["components"]
        exprs = {name: parse_expr(text) for name, text in comps.items()}
        assert all(not free_variables(e) for name, e in exprs.items() if name != "xi")
        xi = exprs["xi"]
        if job.answer.exit_code == 0:
            assert not free_variables(xi)
        else:
            slopes = [differentiate(xi, f"t_{m}") for m in range(2)]
            assert all(not free_variables(s) for s in slopes)
            assert evaluate(slopes[0], {}) != 0


def test_self_times_on_a_synthetic_span_tree():
    # root [0,10] > a [1,4] > c [2,3];  root > b [5,9] > d [8,12] (clipped to 9)
    parent = [-1, 0, 1, 0, 3]
    start = [0.0, 1.0, 2.0, 5.0, 8.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    assert list(spans.self_times(parent, start, end)) == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_tail_has_ten_values_beyond_it():
    value, pct = run.tail([float(i) for i in range(30, 0, -1)])
    assert (value, round(pct, 1)) == (20.0, 66.7)


def test_timed_run_gives_heavy_and_light_jobs_equal_time(tmp_path, monkeypatch):
    job_list = joblist.build("flows", 2, tmp_path)
    heavy = {j.argv for j in job_list if j.heavy}
    clock, ran = [0.0], []

    def main(argv):  # a heavy job takes 3 s, a light one 1 s; writes no report
        ran.append((clock[0], tuple(argv) in heavy))
        clock[0] += 3.0 if ran[-1][1] else 1.0
        return 0

    class SteadyMachine:  # the fixed speed throughout, sampled for no time
        took, spent = (), 0.0

        @contextlib.contextmanager
        def running(self):
            yield self

        def factor(self, start, end):
            return 1.0

    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    metrics, failures, runs, meta = run.timed_run(main, job_list, 200.0, SteadyMachine())
    assert runs == len(ran) == len(failures)  # no report, so every run failed
    assert min(n for _, _, n in meta["job_s"]) >= 2
    # no heavy job of the first round starts later than an even spread
    starts = [t for t, is_heavy in ran if is_heavy][:len(heavy)]
    assert all(t <= 200.0 * (k + 0.5) / len(heavy) + 3.0 for k, t in enumerate(starts))
    heavy_runs = sum(is_heavy for _, is_heavy in ran)
    assert abs(3 * heavy_runs - (len(ran) - heavy_runs)) <= 4
    assert 200.0 <= clock[0] <= 203.0
    assert metrics == {"wall_s": 3.0 * len(heavy) + len(job_list) - len(heavy),
                       "job_s.p50": 1.0, "job_s.tail": 1.0}


def test_speedometer_scales_to_the_fixed_speed():
    meter = speed.Speedometer()
    # reference() took twice the fixed time at 0 s, the fixed time at 10 s
    meter.at = [0.0, 0.1, 10.0, 10.1]
    meter.took = [2 * speed.REFERENCE_S] * 2 + [speed.REFERENCE_S] * 2
    assert meter.factor(0.5, 1.5) == pytest.approx(0.5)
    assert meter.factor(9.5, 10.5) == pytest.approx(1.0)
    # all four samples: their lower quartile is the fixed time
    assert meter.factor(0.1, 10.0) == pytest.approx(1.0)
    assert meter.factor(4.0, 5.0) == pytest.approx(0.5)  # none near: the last before


def test_speedometer_samples_inside_a_job_and_counts_the_time():
    meter = speed.Speedometer()
    with meter.running():
        start = time.perf_counter()
        while time.perf_counter() - start < 10 * speed.EVERY_S:
            pass
    assert len(meter.took) >= 5
    assert meter.spent >= sum(meter.took)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tree_sizes_count_repeats_and_distinct_nodes():
    from kontact.expr import Var

    x, y = Var("x"), Var("y")
    shared = x * y + 3
    # Product(Sum(3, Product(x, y)), same Sum): the repeat counts twice, once distinct
    assert spans.tree_sizes(shared * shared) == (11, 6)
    assert spans.tree_sizes(x) == (1, 1)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One untraced and two traced passes over one job per subcommand."""
    cli = run.import_kontact()
    job_list = []
    for workload in joblist.WORKLOADS:
        built = joblist.build(workload, 7, tmp_path_factory.mktemp(workload))
        job_list += [j for j in built if j.rerun]
        job_list += [j for j in built if j.answer.exit_code == 1][:1]
        job_list += [j for j in built if j.answer.flow is not None][:1]

    def reports():
        return [run.report_path(j).read_bytes() for j in job_list]

    _, _, failures = run.run_pass(cli.main, job_list)
    untraced = (reports(), failures)
    before = {name: dict(vars(m)) for name, m in sys.modules.items()
              if name.startswith("kontact")}
    traced = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            _, _, failures = run.run_pass(tracer.wrap("cli.main", cli.main), job_list)
        finally:
            tracer.restore()
        traced.append((reports(), failures, tracer.layer_metrics()))
    after = {name: dict(vars(m)) for name, m in sys.modules.items()
             if name.startswith("kontact")}
    return job_list, untraced, traced, before == after


def test_traced_run_gives_same_verdicts_and_report_bytes(passes):
    job_list, (reports, failures), traced, restored = passes
    assert {j.command for j in job_list} == {"verify-structure", "reeb", "bjorken",
                                             "legendrian", "hddw", "ideal-gas"}
    assert failures == []
    for traced_reports, traced_failures, _ in traced:
        assert traced_failures == []
        assert traced_reports == reports
    assert restored


def test_counts_repeat_exactly_for_the_same_seed(passes):
    _, _, traced, _ = passes
    (_, _, first), (_, _, second) = traced
    counts = [name for name in first if not name.endswith("_s")]
    assert first["cli.main.calls"] == len(passes[0])
    assert first["zerotest.points_evaluated"] > 0 and first["zerotest.tree_nodes"] > 0
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert set(first) | {"trace_overhead_ratio"} == set(spans.metric_names())


def test_benchmark_json_lists_every_metric_and_workload():
    doc = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(joblist.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in doc["per_layer"]] == spans.metric_names()
    assert all(m["unit"] == spans.unit(m["name"]) for m in doc["per_layer"])
