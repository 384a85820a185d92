"""Probabilistic zero-testing of expressions by seeded sampling.

An expression is accepted as (probably) zero when |value| stays within
atol + rtol*scale at every sampled point of its domain, where scale is the
magnitude of the largest top-level summand (a cancellation proxy).  Points
are exact rationals, so purely rational expressions are checked with exact
arithmetic rather than tolerances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .config import DEFAULT_CONFIG, RunConfig
from .errors import DomainError, SampleDomainEmpty
from .expr import ScalarExpr, Sum, evaluate, free_variables, is_rational_expr

__all__ = ["SampleDomain", "ZeroTestResult", "zero_test", "is_probably_zero", "sample_points"]

_DEFAULT_RANGE = (Fraction(-2), Fraction(2))
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


@dataclass(frozen=True)
class ZeroTestResult:
    is_zero: bool
    max_abs: float
    n_points: int
    exact: bool
    # every sample was tiny yet above tolerance: neither verdict is safe
    inconclusive: bool = False

    def __bool__(self) -> bool:
        return self.is_zero


def _draw_value(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    steps = int((hi - lo) * _DENOM)
    if steps <= 0:
        return lo
    return lo + Fraction(rng.randint(0, steps), _DENOM)


def sample_points(
    variables: Iterable[str],
    domain: SampleDomain,
    n: int,
    rng: random.Random,
    max_retries: int = 400,
) -> list[dict]:
    """Draw n rational points satisfying every domain constraint (> 0)."""
    names = sorted(set(variables))
    for c in domain.constraints:
        names = sorted(set(names) | free_variables(c))
    points = []
    attempts = 0
    while len(points) < n:
        if attempts > max_retries + n:
            raise SampleDomainEmpty(
                f"could not find {n} valid sample points after {attempts} attempts")
        attempts += 1
        p = {name: _draw_value(rng, *domain.range_of(name)) for name in names}
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


def _value_and_scale(e: ScalarExpr, point: Mapping) -> tuple[float, float]:
    """Evaluate e, returning (value, magnitude of largest top-level summand)."""
    if isinstance(e, Sum):
        total = Fraction(0)
        scale = 0.0
        for term in e.terms:
            v = evaluate(term, point)
            scale = max(scale, abs(float(v)))
            total = total + v
        return total, scale
    v = evaluate(e, point)
    return v, abs(float(v))


def zero_test(
    e: ScalarExpr,
    domain: SampleDomain = ANYWHERE,
    config: RunConfig = DEFAULT_CONFIG,
) -> ZeroTestResult:
    """Sample e over the domain and decide whether it is identically zero."""
    names = free_variables(e)
    exact = is_rational_expr(e)
    if not names:
        v, scale = _value_and_scale(e, {})
        tol = config.atol + config.rtol * scale
        va = abs(float(v))
        if exact:
            return ZeroTestResult(v == 0, va, 1, True)
        is_zero = va <= tol
        return ZeroTestResult(is_zero, va, 1, False,
                              inconclusive=not is_zero and va < config.inconclusive_margin)

    rng = random.Random(config.seed)
    n = config.n_sample_points
    points = sample_points(names, domain, n, rng, config.max_sample_retries)
    max_abs = 0.0
    all_within = True
    n_evaluated = 0
    for p in points:
        try:
            v, scale = _value_and_scale(e, p)
        except DomainError:
            # constraint predicates did not exclude this singular point; skip it
            continue
        n_evaluated += 1
        va = abs(float(v))
        max_abs = max(max_abs, va)
        if exact:
            if v != 0:
                all_within = False
        else:
            if va > config.atol + config.rtol * scale:
                all_within = False
    if n_evaluated == 0:
        raise SampleDomainEmpty(
            "every sampled point hit a singularity; tighten the domain constraints")
    if exact:
        return ZeroTestResult(all_within, max_abs, n_evaluated, True)
    return ZeroTestResult(all_within, max_abs, n_evaluated, False,
                          inconclusive=not all_within and max_abs < config.inconclusive_margin)


def is_probably_zero(
    e: ScalarExpr,
    domain: SampleDomain = ANYWHERE,
    config: RunConfig = DEFAULT_CONFIG,
) -> bool:
    return zero_test(e, domain, config).is_zero
