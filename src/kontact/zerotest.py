"""Probabilistic zero-testing of expressions by seeded sampling.

Each expression is compiled once into a program with one instruction per
distinct subtree (expr.compile_expr).  Points are exact rationals, so a
purely rational expression is checked exactly at each point, and any nonzero
value rejects it: Program.run_exact carries integer numerator/denominator
pairs, reduced only past a bit bound, and builds one Fraction per point.
Any other expression is run in float64 over all sample points at once, and
is accepted as (probably) zero when |value| stays within atol + rtol*scale
at every evaluated point, where scale is the magnitude of the largest
top-level summand (a cancellation proxy); when it does not, but stays below
INCONCLUSIVE_MARGIN, the test is inconclusive.  Points where the expression is undefined (a singularity the
domain constraints did not exclude) or its value is not finite are skipped
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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import DomainError, SampleDomainEmpty, ZeroTestInconclusive
from .expr import Rational, ScalarExpr, compile_expr, evaluate, free_variables

__all__ = [
    "PASS", "FAIL", "INCONCLUSIVE", "Check", "combine", "zero_check",
    "SampleDomain", "ZeroTestResult", "zero_test", "is_probably_zero", "sample_points",
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


@dataclass(frozen=True)
class SampleDomain:
    """Per-variable sampling ranges plus constraint expressions required > 0."""

    ranges: Mapping[str, tuple[Fraction, Fraction]] = None
    constraints: tuple[ScalarExpr, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ranges", dict(self.ranges or {}))
        object.__setattr__(self, "constraints", tuple(self.constraints))

    def range_of(self, name: str) -> tuple[Fraction, Fraction]:
        return self.ranges.get(name, _DEFAULT_RANGE)


ANYWHERE = SampleDomain()

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
    domain: SampleDomain,
    n: int,
    rng: random.Random,
) -> list[dict]:
    """Draw n rational points satisfying every domain constraint (> 0)."""
    names = sorted(set(variables))
    for c in domain.constraints:
        names = sorted(set(names) | free_variables(c))
    # coordinate = lo + r/_DENOM with r drawn from 0..steps (lo itself when
    # steps <= 0), written as one fraction over lo.denominator * _DENOM
    grid = []
    for name in names:
        lo, hi = domain.range_of(name)
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
        ok = True
        for c in domain.constraints:
            try:
                if evaluate(c, p) <= 0:
                    ok = False
                    break
            except DomainError:
                ok = False
                break
        if ok:
            points.append(p)
    return points


def zero_test(
    e: ScalarExpr,
    domain: SampleDomain = ANYWHERE,
    config: RunConfig = DEFAULT_CONFIG,
) -> ZeroTestResult:
    """Sample e over the domain and decide whether it is identically zero."""
    if isinstance(e, Rational):  # folded at construction: nothing to compile
        return ZeroTestResult(e.value == 0, _magnitudes([e.value])[0], 1, True)
    program = compile_expr(e)
    if program.free_vars:
        rng = random.Random(config.seed)
        points = sample_points(program.free_vars, domain, config.n_sample_points, rng)
    else:
        points = [{}]
    if program.rational:
        values = []
        for p in points:
            try:
                values.append(program.run_exact(p))
            except DomainError:
                # constraint predicates did not exclude this singular point; skip it
                continue
        within = all(v == 0 for v in values)
        magnitudes = _magnitudes(values)
    else:
        columns = {name: np.array([float(p[name]) for p in points])
                   for name in program.free_vars}
        value, scale, skip = program.run_float(columns, len(points))
        keep = ~skip
        residuals = np.abs(value[keep])
        within = bool(np.all(residuals <= config.atol + config.rtol * scale[keep]))
        magnitudes = residuals.tolist()
    n_skipped = len(points) - len(magnitudes)
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
    if within and len(magnitudes) < MIN_EVALUATED_FRACTION * len(points):
        within, inconclusive = False, True  # too few points speak for the pass
    else:
        inconclusive = not program.rational and not within and max_abs < INCONCLUSIVE_MARGIN
    return ZeroTestResult(within, max_abs, len(magnitudes), program.rational,
                          inconclusive=inconclusive, n_skipped=n_skipped)


def _magnitudes(values: list[Fraction]) -> list[float]:
    """|v| of exact values as floats, one beyond float range as the largest
    float (a lower bound of it); one try for the whole list."""
    try:
        return [abs(float(v)) for v in values]
    except OverflowError:
        return [float(min(abs(v), _FLOAT_MAX)) for v in values]


def is_probably_zero(
    e: ScalarExpr,
    domain: SampleDomain = ANYWHERE,
    config: RunConfig = DEFAULT_CONFIG,
) -> bool:
    """The zero test as a bool; raises ZeroTestInconclusive when it cannot decide.
    Only for decisions that cannot be a check (pivots, preconditions)."""
    if isinstance(e, Rational):
        return e.value == 0
    res = zero_test(e, domain, config)
    if res.inconclusive:
        raise ZeroTestInconclusive(
            f"expression neither clearly zero nor nonzero (max |value| {res.max_abs:.2e} "
            f"at {res.n_points} of {res.n_points + res.n_skipped} points)")
    return res.is_zero


def zero_check(
    name: str,
    exprs: Sequence[ScalarExpr],
    domain: SampleDomain = ANYWHERE,
    config: RunConfig = DEFAULT_CONFIG,
    detail: dict | None = None,
) -> Check:
    """Zero-test every expression into one check: the verdicts combined, and
    the largest residual over all of them (0.0 for no expressions)."""
    results = [zero_test(e, domain, config) for e in exprs]
    return Check(name, combine(r.verdict for r in results),
                 max((r.max_abs for r in results), default=0.0), detail)
