"""Probabilistic zero-testing of expressions by seeded sampling.

Points are drawn from a forms.Chart: each variable within its chart range
([-2, 2] by default), every chart constraint > 0; no chart means the box
[-2, 2] with no constraints.  sample_points is the one draw of the engine:
(variables, chart, n, seed) fixes it, so a chart draws a zero test's points
once and keeps them for every later zero test in the same variables, and
every pointwise check (k-contact ranks, polarization, HdDW solves) reads
its points from the same function.  zero_tests is the one zero test, of
a list of expressions; zero_test is zero_tests of one.  Each expression is
compiled once into a program with one instruction per distinct subtree
(expr.compile_expr).  Points are exact rationals, so a purely rational
expression is checked exactly at each point, and any nonzero value rejects
it: Program.run_exact carries integer numerator/denominator pairs, reduced
only past a bit bound, and builds one Fraction per root and point.  Every
exact expression runs in one program per free-variable set: the program of
all the list's exact expressions in that set (expr.compile_exprs; an
expression alone in its set runs its own), run once per point of their
shared draw, with each expression's own program run only at a point where
the joint one is undefined.  Any other expression is run in float64
over all sample points at once, and is accepted as (probably) zero when
|value| stays within atol + rtol*scale at every evaluated point, where scale
is the magnitude of the largest top-level summand (a cancellation proxy);
when it does not, but stays below INCONCLUSIVE_MARGIN, the test is
inconclusive.  Points where the expression is undefined (a singularity the
chart constraints did not exclude) or its value is not finite are skipped
and counted; with none left the test raises SampleDomainEmpty, and a pass
from fewer than MIN_EVALUATED_FRACTION of the drawn points is inconclusive.

Every verdict of the engine, from these zero tests up to the CLI report, is
a Check: pass, fail or inconclusive, with its largest residual and details.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import DomainError, SampleDomainEmpty, ZeroTestInconclusive
from .expr import (Program, Rational, ScalarExpr, compile_expr, compile_exprs, evaluate,
                   free_variables)
from .forms import Chart

__all__ = [
    "PASS", "FAIL", "INCONCLUSIVE", "Check", "combine", "zero_check", "zero_tests",
    "ZeroTestResult", "zero_test", "is_probably_zero", "sample_points",
    "INCONCLUSIVE_MARGIN", "MIN_EVALUATED_FRACTION", "MAX_SAMPLE_RETRIES",
]

INCONCLUSIVE_MARGIN = 1e-6
"""A float zero test whose residuals exceed its tolerance somewhere but stay
below this everywhere is inconclusive: neither verdict is safe."""
MIN_EVALUATED_FRACTION = 0.5
"""A zero test that would pass but evaluated fewer than this fraction of its
drawn points (the rest were singular or not finite) is inconclusive: too
few points speak for the pass.  A fail stays a fail."""
MAX_SAMPLE_RETRIES = 400
"""sample_points raises SampleDomainEmpty once it has made more than
n + MAX_SAMPLE_RETRIES draws without finding n points."""

_DEFAULT_RANGE = (Fraction(-2), Fraction(2))
_FLOAT_MAX = Fraction(sys.float_info.max)
_DENOM = 64  # sample coordinates are multiples of 1/64


PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"


@dataclass
class Check:
    """One named verdict (PASS, FAIL or INCONCLUSIVE) with its evidence."""

    name: str
    verdict: str
    max_residual: float | None = None
    detail: dict | None = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "verdict": self.verdict,
               "max_residual": self.max_residual}
        if self.detail is not None:
            out["detail"] = self.detail
        return out


def combine(verdicts: Iterable[str]) -> str:
    """Any fail fails; otherwise any inconclusive is inconclusive; else pass."""
    seen = set(verdicts)
    return FAIL if FAIL in seen else INCONCLUSIVE if INCONCLUSIVE in seen else PASS


@dataclass(frozen=True)
class ZeroTestResult:
    is_zero: bool
    max_abs: float
    n_points: int
    exact: bool
    # every sample was tiny yet above tolerance: neither verdict is safe
    inconclusive: bool = False
    # points drawn minus points evaluated (singular or non-finite there)
    n_skipped: int = 0

    @property
    def verdict(self) -> str:
        return PASS if self.is_zero else INCONCLUSIVE if self.inconclusive else FAIL


def sample_points(
    variables: Iterable[str],
    chart: Chart | None,
    n: int,
    seed: int,
) -> list[dict]:
    """Draw n rational points of the chart (None: the box [-2, 2]) from a
    fresh random.Random(seed), so (variables, chart, n, seed) fixes the
    draw; n < 1 raises SampleDomainEmpty: no verdict is read from no points."""
    if n < 1:
        raise SampleDomainEmpty(f"no sample points: {n} requested")
    rng = random.Random(seed)
    ranges, constraints = (chart.ranges, chart.constraints) if chart else ({}, ())
    names = sorted(set(variables))
    for c in constraints:
        names = sorted(set(names) | free_variables(c))
    # coordinate = lo + r/_DENOM with r drawn from 0..steps (lo itself when
    # steps <= 0), written as one fraction over lo.denominator * _DENOM
    grid = []
    for name in names:
        lo, hi = ranges.get(name, _DEFAULT_RANGE)
        grid.append((name, lo, int((hi - lo) * _DENOM), lo.numerator * _DENOM,
                     lo.denominator, lo.denominator * _DENOM))
    points = []
    attempts = 0
    while len(points) < n:
        if attempts > MAX_SAMPLE_RETRIES + n:
            raise SampleDomainEmpty(
                f"could not find {n} valid sample points after {attempts} attempts")
        attempts += 1
        p = {name: Fraction(num + rng.randint(0, steps) * den, scale) if steps > 0 else lo
             for name, lo, steps, num, den, scale in grid}
        try:
            if not any(evaluate(c, p) <= 0 for c in constraints):
                points.append(p)
        except DomainError:
            pass  # a constraint undefined at p: outside the domain
    return points


def zero_test(
    e: ScalarExpr,
    chart: Chart | None = None,
    config: RunConfig = DEFAULT_CONFIG,
) -> ZeroTestResult:
    """Sample e over the chart and decide whether it is identically zero:
    zero_tests of e alone."""
    return zero_tests([e], chart, config)[0]


def _result(e: ScalarExpr, program: Program, within: bool, magnitudes: list[float],
            n_drawn: int) -> ZeroTestResult:
    """The verdict of e's zero test from the magnitudes at its evaluated
    points, of n_drawn, and whether every one was within tolerance; raises
    when no point was evaluated."""
    if not magnitudes:
        if not program.free_vars:
            raise DomainError(f"constant expression {e} is undefined or not finite")
        if not program.rational and program.beyond_float():
            raise SampleDomainEmpty("a constant lies beyond float range, so no sampled "
                                    "point has a finite value")
        raise SampleDomainEmpty(
            "every sampled point hit a singularity or a non-finite value; "
            "tighten the domain constraints")
    max_abs = max(magnitudes)
    if within and len(magnitudes) < MIN_EVALUATED_FRACTION * n_drawn:
        within, inconclusive = False, True  # too few points speak for the pass
    else:
        inconclusive = not program.rational and not within and max_abs < INCONCLUSIVE_MARGIN
    return ZeroTestResult(within, max_abs, len(magnitudes), program.rational,
                          inconclusive=inconclusive, n_skipped=n_drawn - len(magnitudes))


def _zero_test_points(names: frozenset, chart: Chart | None, config: RunConfig) -> list[dict]:
    """sample_points for a zero test in names, kept on the chart by
    (names, n_sample_points, seed), which fix the draw; the one empty point
    when names is empty."""
    if not names:
        return [{}]
    if chart is None:
        return sample_points(names, None, config.n_sample_points, config.seed)
    key = (names, config.n_sample_points, config.seed)
    if key not in chart._samples:
        chart._samples[key] = sample_points(names, chart, config.n_sample_points, config.seed)
    return chart._samples[key]


def _magnitudes(values: list[Fraction]) -> list[float]:
    """|v| of exact values as floats, one beyond float range as the largest
    float (a lower bound of it); one try for the whole list."""
    try:
        return [abs(float(v)) for v in values]
    except OverflowError:
        return [float(min(abs(v), _FLOAT_MAX)) for v in values]


def is_probably_zero(
    e: ScalarExpr,
    chart: Chart | None = None,
    config: RunConfig = DEFAULT_CONFIG,
) -> bool:
    """The zero test as a bool; raises ZeroTestInconclusive when it cannot decide.
    Only for decisions that cannot be a check (pivots, preconditions)."""
    if isinstance(e, Rational):
        return e.value == 0
    res = zero_test(e, chart, config)
    if res.inconclusive:
        raise ZeroTestInconclusive(
            f"expression neither clearly zero nor nonzero (max |value| {res.max_abs:.2e} "
            f"at {res.n_points} of {res.n_points + res.n_skipped} points)")
    return res.is_zero


def zero_tests(
    exprs: Sequence[ScalarExpr],
    chart: Chart | None = None,
    config: RunConfig = DEFAULT_CONFIG,
) -> list[ZeroTestResult]:
    """Sample each expression over the chart and decide whether it is
    identically zero; an error is raised at the first expression, in list
    order, whose zero test raises it.

    The chart draws the points for a set of free variables on its first zero
    test in them and keeps them; with no chart they are drawn once per call
    and set.  The exact expressions in the same free variables run as one
    program over their shared draw (_exact_values); every other expression
    runs its own program in float64 over all its points at once.  An
    expression object listed more than once is tested once."""
    keys = [id(e) for e in exprs]
    unique = dict(zip(keys, exprs))  # first-listed order
    slot = {key: i for i, key in enumerate(unique)}
    exprs = list(unique.values())
    programs = [compile_expr(e) for e in exprs]
    groups: dict[frozenset, list[int]] = {}
    for i, program in enumerate(programs):
        if program.rational:
            groups.setdefault(program.free_vars, []).append(i)
    # an exact expression's values, and the number of points drawn
    values: dict[int, tuple[list[Fraction], int]] = {}
    results = []
    for i, (e, program) in enumerate(zip(exprs, programs)):
        if program.rational:
            group = groups[program.free_vars]
            if i == group[0]:
                points = _zero_test_points(program.free_vars, chart, config)
                columns = _exact_values([exprs[j] for j in group],
                                        [programs[j] for j in group], points)
                values.update((j, (column, len(points))) for j, column in zip(group, columns))
            column, n_drawn = values.pop(i)
            within, magnitudes = all(v == 0 for v in column), _magnitudes(column)
        else:
            points = _zero_test_points(program.free_vars, chart, config)
            columns = {name: np.array([float(p[name]) for p in points])
                       for name in program.free_vars}
            value, scale, skip = program.run_float(columns, len(points))
            keep = ~skip
            residuals = np.abs(value[keep])
            within = bool(np.all(residuals <= config.atol + config.rtol * scale[keep]))
            magnitudes, n_drawn = residuals.tolist(), len(points)
        results.append(_result(e, program, within, magnitudes, n_drawn))
    return [results[slot[key]] for key in keys]


def _exact_values(exprs: list[ScalarExpr], programs: list[Program],
                  points: list[dict]) -> list[list[Fraction]]:
    """Each exact expression's values at the points where it is defined, from
    one program of them all (of one expression, its own program) run once
    per point; where that program is undefined, each expression's own
    program runs the point, so it is skipped only where that one is."""
    joint = programs[0] if len(programs) == 1 else compile_exprs(exprs)
    values = [[] for _ in exprs]
    for p in points:
        try:
            row = joint.run_exact(p)
        except DomainError:
            row = []
            for program in programs:
                try:
                    row.append(None if program is joint else program.run_exact(p)[0])
                except DomainError:
                    row.append(None)
        for column, v in zip(values, row):
            if v is not None:
                column.append(v)
    return values


def zero_check(
    name: str,
    exprs: Sequence[ScalarExpr],
    chart: Chart | None = None,
    config: RunConfig = DEFAULT_CONFIG,
    detail: dict | None = None,
) -> Check:
    """Zero-test every expression (zero_tests) into one check: the verdicts
    combined, and the largest residual over all of them (0.0 for no
    expressions)."""
    results = zero_tests(exprs, chart, config)
    return Check(name, combine(r.verdict for r in results),
                 max((r.max_abs for r in results), default=0.0), detail)
