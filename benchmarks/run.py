"""The kontact benchmark: run one workload's jobs and print its metrics.

    python3 benchmarks/run.py --workload structure --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1   # every workload in turn

Closed loop, one process, one job at a time: each job is one in-process call
to ``kontact.cli.main(argv)`` and is scored against the hand-derived answer
in expected.py.  With ``--trace 0`` the run repeats the workload's fixed jobs
until ``--seconds`` is used up (see timed_run) and reports end-to-end
metrics, its times scaled to a fixed machine speed (see speed.py); with ``--trace 1`` it makes one untraced and one traced pass over
the job list and reports per-layer metrics (see spans.py).  Human-readable lines come first;
the last line of standard output is one JSON object.  Run metadata and the
spans go to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread: the closed loop runs one job at a time in one thread
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import expected  # noqa: E402
import jobs as joblist  # noqa: E402
import spans  # noqa: E402
from speed import Speedometer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # job_s.tail has at least this many slower jobs beyond it
END_TO_END = {"wall_s": "s", "job_s.p50": "s", "job_s.tail": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def import_kontact():
    """Import kontact afresh from this checkout's src/ and return kontact.cli."""
    for name in [m for m in sys.modules if m == "kontact" or m.startswith("kontact.")]:
        del sys.modules[name]
    cli = importlib.import_module("kontact.cli")
    if Path(cli.__file__).resolve().parent != SRC / "kontact":
        raise ImportError(f"kontact came from {cli.__file__}, not {SRC}")
    return cli


def run_job(main, job) -> tuple[float, int | None, str]:
    """(seconds from main entry to return, exit code or None, error)."""
    start = time.perf_counter()
    try:
        rc, error = main(list(job.argv)), ""
    except Exception as err:  # a raising job is a failed job, not a failed run
        rc, error = None, f"raised {type(err).__name__}: {err}"
    return time.perf_counter() - start, rc, error


def report_path(job) -> Path:
    return Path(job.argv[job.argv.index("--json") + 1])


def score(job, rc, error) -> list[str]:
    if error:
        return [error]
    try:
        report = json.loads(report_path(job).read_bytes())
    except (OSError, ValueError):
        report = None
    return expected.mismatches(job.answer, rc, report)


def run_pass(main, job_list) -> tuple[float, list[float], list[str]]:
    """One pass over the job list: (wall seconds, per-job seconds, failures).

    There is one failure line per failed job.
    """
    for job in job_list:
        report_path(job).unlink(missing_ok=True)
    gc.collect()
    sink = io.StringIO()
    outcomes = []
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        first = time.perf_counter()
        for job in job_list:
            outcomes.append(run_job(main, job))
        wall = time.perf_counter() - first
    failures = [f"{' '.join(job.argv[:3])}: {'; '.join(problems)}"
                for job, (_, rc, error) in zip(job_list, outcomes)
                for problems in [score(job, rc, error)] if problems]
    return wall, [o[0] for o in outcomes], failures


def rerun_check(main, job_list) -> tuple[int, list[str]]:
    """Re-run one job per subcommand; its report must be byte-identical.

    Returns the number of reruns and one failure line per failed rerun.
    """
    reruns = [job for job in job_list if job.rerun]
    failures = []
    for job in reruns:
        before = report_path(job).read_bytes() if report_path(job).exists() else b""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            _, rc, error = run_job(main, job)
        problems = score(job, rc, error)
        if report_path(job).exists() and report_path(job).read_bytes() != before:
            problems.append("rerun report is not byte-identical")
        if problems:
            failures.append(f"rerun {' '.join(job.argv[:3])}: {'; '.join(problems)}")
    return len(reruns), failures


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment(args, n_jobs: int) -> dict:
    import numpy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"), "jobs": n_jobs}


def summary(job_s: list[float]) -> tuple[dict, float]:
    """wall_s, job_s.p50 and job_s.tail of the per-job seconds, and the tail's percentile."""
    tail_s, tail_pct = tail(job_s)
    return {"wall_s": sum(job_s), "job_s.p50": statistics.median(job_s),
            "job_s.tail": tail_s}, tail_pct


def timed_run(main, job_list, seconds: float, speed):
    """End-to-end metrics of the jobs run in turns until ``seconds`` is used up.

    Machine speed drifts over seconds, so every timing should average over
    the whole run.  A pass over the job list would leave the light jobs, which
    set job_s.p50 and job_s.tail, a few short stretches between the heavy
    ones.  Instead light jobs run over and over in list order, and the next
    heavy job (also in list order, round and round) runs whenever the heavy
    jobs have so far taken no longer than the light ones and this one, going
    by its last run, ends within ``seconds``; and when the first round of
    them falls behind an even spread over ``seconds``.  The
    run ends once ``seconds`` have passed and every job has run.  ``speed``
    (a speed.Speedometer) samples the machine's speed throughout, and every
    job run's seconds, less the sampling inside it, are scaled to its fixed
    speed.  Each job's seconds are the median of its scaled runs; jobs run
    back to back, so a pass over the list takes the sum of its jobs'
    seconds, which is wall_s.
    """
    heavy = [i for i, job in enumerate(job_list) if job.heavy]
    light = [i for i, job in enumerate(job_list) if not job.heavy]
    times = [[] for _ in job_list]
    job_runs = []
    failures = []
    heavy_s, light_s, n_heavy, n_light = 0.0, 0.0, 0, 0
    for job in job_list:
        report_path(job).unlink(missing_ok=True)
    gc.collect()
    sink = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), speed.running():
        while True:
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and n_heavy >= len(heavy) and n_light >= len(light):
                break
            nxt = heavy[n_heavy % len(heavy)]
            last = times[nxt][-1] if times[nxt] else 0.0
            behind = n_heavy < len(heavy) and elapsed >= seconds * (n_heavy + 0.5) / len(heavy)
            if behind or (heavy_s <= light_s and elapsed + last <= seconds):
                i, n_heavy = nxt, n_heavy + 1
            else:
                i, n_light = light[n_light % len(light)], n_light + 1
            job = job_list[i]
            spent, start = speed.spent, time.perf_counter()
            seconds_taken, rc, error = run_job(main, job)
            seconds_taken -= speed.spent - spent
            job_runs.append((i, start, time.perf_counter(), seconds_taken))
            if job.heavy:
                heavy_s += seconds_taken
            else:
                light_s += seconds_taken
            times[i].append(seconds_taken)
            problems = score(job, rc, error)
            if problems:
                failures.append(f"{' '.join(job.argv[:3])}: {'; '.join(problems)}")
    scaled = [[] for _ in job_list]
    for i, start, end, seconds_taken in job_runs:
        scaled[i].append(seconds_taken * speed.factor(start, end))
    job_s = [statistics.median(ts) for ts in scaled]
    metrics, tail_pct = summary(job_s)
    raw, _ = summary([statistics.median(ts) for ts in times])
    runs = [len(ts) for ts in times]
    meta = {"run_s": time.perf_counter() - started, "heavy_jobs": len(heavy),
            "heavy_s": heavy_s, "runs_per_job": [min(runs), max(runs)],
            "job_s_tail_percentile": tail_pct, "job_s_tail_jobs": len(job_s),
            "unscaled": raw, "reference_samples": len(speed.took),
            "job_s": [[" ".join(j.argv), t, n] for j, t, n in zip(job_list, job_s, runs)]}
    return metrics, failures, len(job_runs), meta


def traced_passes(main, job_list, spans_path: Path):
    """Per-layer metrics of one traced pass, after one untraced pass."""
    wall, _, failures = run_pass(main, job_list)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_wall, _, bad = run_pass(tracer.wrap("cli.main", main), job_list)
    finally:
        tracer.restore()
    metrics = tracer.layer_metrics()
    metrics["trace_overhead_ratio"] = traced_wall / wall
    tracer.write(spans_path)
    meta = {"spans": len(tracer.start), "untraced_wall_s": wall, "traced_wall_s": traced_wall}
    return metrics, failures + bad, 2 * len(job_list), meta


def run(args) -> int:
    if not (SRC / "kontact" / "__init__.py").is_file():
        print(f"error: no kontact sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # numpy is imported by now (speed.py uses it): set-up times kontact, not numpy
    speed = Speedometer()
    setups = []  # (start, end, seconds less the speed sampling)
    with speed.running():
        for _ in range(SETUP_REPEATS):
            spent, start = speed.spent, time.perf_counter()
            cli = import_kontact()
            job_list = joblist.build(args.workload, args.seed, OUT / args.workload)
            end = time.perf_counter()
            setups.append((start, end, end - start - (speed.spent - spent)))

    if args.trace:
        metrics, failures, runs, meta = traced_passes(
            cli.main, job_list, OUT / f"{args.workload}.trace.npz")
        units = {name: spans.unit(name) for name in metrics}
    else:
        metrics, failures, runs, meta = timed_run(cli.main, job_list, args.seconds, speed)
        metrics["setup_s"] = statistics.median(s * speed.factor(start, end)
                                               for start, end, s in setups)
        meta["unscaled"]["setup_s"] = statistics.median(s for _, _, s in setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
    n_reruns, bad = rerun_check(cli.main, job_list)
    failures += bad
    attempted = runs + n_reruns
    failed = len(failures)
    meta.update(environment(args, len(job_list)), setup_s=[s for _, _, s in setups], runs=runs,
                attempted=attempted, failed=failed, failed_ratio=failed / attempted,
                failures=failures, metrics=metrics)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(meta, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload}: seed {args.seed}, {len(job_list)} jobs, {runs} job runs, "
          f"python {meta['python']}, numpy {meta['numpy']}, nproc {meta['nproc']}, "
          f"OPENBLAS_NUM_THREADS={meta['OPENBLAS_NUM_THREADS']}")
    if not args.trace:
        print(f"# job_s.tail is p{meta['job_s_tail_percentile']:.1f} of {len(job_list)} "
              f"per-job medians")
        print("# unscaled (at the machine's own speed): " + ", ".join(
            f"{name} {value:.6g} s" for name, value in meta["unscaled"].items()))
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    print(f"failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    codes = []
    for workload in joblist.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, check=False).returncode)
    return max(codes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=joblist.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    OUT.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
