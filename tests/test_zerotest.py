"""The zero test against a per-point reference loop over the recursive evaluate."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kontact.config import DEFAULT_CONFIG, RunConfig
from kontact.errors import DomainError, SampleDomainEmpty
from kontact.expr import Pow, Product, Rational, Sum, Var, evaluate, free_variables, parse_expr
from kontact.zerotest import ANYWHERE, SampleDomain, ZeroTestResult, sample_points, zero_test

from conftest import rand_expr, with_singular_tops

NAMES = ["x", "y", "z"]


# ---------------------------------------------------------------------------
# the zero test as a walk of the expression tree at each point


def _is_rational(e) -> bool:
    if isinstance(e, (Rational, Var)):
        return True
    if isinstance(e, Sum):
        return all(_is_rational(t) for t in e.terms)
    if isinstance(e, Product):
        return all(_is_rational(f) for f in e.factors)
    if isinstance(e, Pow):
        return e.exponent.denominator == 1 and _is_rational(e.base)
    return False


def _value_and_scale(e, point):
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


def reference_zero_test(e, domain=ANYWHERE, config=DEFAULT_CONFIG) -> ZeroTestResult:
    names = free_variables(e)
    exact = _is_rational(e)
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
        raise SampleDomainEmpty("every sampled point hit a singularity")
    if exact:
        return ZeroTestResult(all_within, max_abs, n_evaluated, True)
    return ZeroTestResult(all_within, max_abs, n_evaluated, False,
                          inconclusive=not all_within and max_abs < config.inconclusive_margin)


# ---------------------------------------------------------------------------


def outcome(test, e, domain, config):
    try:
        return test(e, domain, config)
    except (DomainError, SampleDomainEmpty) as err:
        return type(err)


def assert_agrees(e, domain=ANYWHERE, config=DEFAULT_CONFIG) -> ZeroTestResult:
    new = outcome(zero_test, e, domain, config)
    ref = outcome(reference_zero_test, e, domain, config)
    if isinstance(ref, type):
        assert new is ref
        return new
    fields = ("is_zero", "exact", "n_points", "inconclusive")
    assert [getattr(new, f) for f in fields] == [getattr(ref, f) for f in fields]
    # on the float path the loop keeps rational subtrees exact where the
    # program rounds them, so a cancellation residual can move with the size
    # of the summands; only the exact path must give the same residual
    if new.exact:
        assert new.max_abs == ref.max_abs
    if free_variables(e):
        assert new.n_points + new.n_skipped == config.n_sample_points
    return new


def families(seed: int, transcendental: bool):
    """A random tree with singular tops, and two identities built from two trees."""
    rng = random.Random(seed)
    f = rand_expr(rng, NAMES, depth=3, transcendental=transcendental)
    g = rand_expr(rng, NAMES, depth=2, transcendental=transcendental)
    identity = (f + g) ** 2 - f ** 2 - 2 * f * g - g ** 2
    return with_singular_tops(f, -1, take_log=True) + [identity, f * g - g * f]


CONFIG = RunConfig(n_sample_points=24)


class TestAgainstReference:
    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_polynomial_families(self, seed):
        for e in families(seed, transcendental=False):
            assert_agrees(e, config=CONFIG)

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_transcendental_families(self, seed):
        for e in families(seed, transcendental=True):
            assert_agrees(e, config=CONFIG)

    @pytest.mark.parametrize("text, ranges", [
        # log of a sign-changing argument
        ("log(x)", {}),
        ("log(x - y) - log(x - y)", {}),
        ("log(x*y + 1/4) + x", {}),
        # negative powers of zero-crossing polynomials, exact and float
        ("(x - 1/16)^(-1)", {"x": (Fraction(0), Fraction(1, 8))}),
        ("x*y*(x*y)^(-1) - 1", {"x": (Fraction(-1, 16), Fraction(1, 16))}),
        ("(x^2 - 1/64)^(-1/2) * (x^2 - 1/64)^(1/2) - 1", {}),
        ("(x - y)^(-3/2)", {"x": (Fraction(0), Fraction(1, 16)),
                            "y": (Fraction(0), Fraction(1, 16))}),
    ])
    def test_singular_domains(self, text, ranges):
        res = assert_agrees(parse_expr(text), SampleDomain(ranges), DEFAULT_CONFIG)
        assert res.n_skipped > 0
        assert res.n_points + res.n_skipped == DEFAULT_CONFIG.n_sample_points
