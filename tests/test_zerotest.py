"""The zero test against a per-point reference loop over the recursive evaluate."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kontact.config import DEFAULT_CONFIG, RunConfig
from kontact.errors import DomainError, SampleDomainEmpty, ZeroTestInconclusive
from kontact.expr import (
    Pow, Product, Rational, Sum, Var, evaluate, free_variables, parse_expr, sqrt,
)
from kontact.zerotest import (
    ANYWHERE,
    FAIL,
    INCONCLUSIVE,
    INCONCLUSIVE_MARGIN,
    MIN_EVALUATED_FRACTION,
    PASS,
    SampleDomain,
    ZeroTestResult,
    combine,
    is_probably_zero,
    sample_points,
    zero_check,
    zero_test,
)

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
                              inconclusive=not is_zero and va < INCONCLUSIVE_MARGIN)

    rng = random.Random(config.seed)
    n = config.n_sample_points
    points = sample_points(names, domain, n, rng)
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
    if all_within and n_evaluated < MIN_EVALUATED_FRACTION * len(points):
        return ZeroTestResult(False, max_abs, n_evaluated, exact, inconclusive=True)
    if exact:
        return ZeroTestResult(all_within, max_abs, n_evaluated, True)
    return ZeroTestResult(all_within, max_abs, n_evaluated, False,
                          inconclusive=not all_within and max_abs < INCONCLUSIVE_MARGIN)


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

    @pytest.mark.parametrize("text, ranges, verdict", [
        # 2 of 64 points lie right of the branch point: too few for a pass
        ("sqrt(x - 31/16)*y - y*sqrt(x - 31/16)", {}, INCONCLUSIVE),
        # a fail from as few points stays a fail
        ("sqrt(x - 31/16)*y - 2*y*sqrt(x - 31/16)", {}, FAIL),
        # exact path: x = 0 and x = 1/64 are singular, only x = 1/32 is not
        ("x*(x*(x - 1/64))^(-1) - (x - 1/64)^(-1)", {"x": (Fraction(0), Fraction(1, 32))},
         INCONCLUSIVE),
    ])
    def test_too_few_evaluated_points_never_pass(self, text, ranges, verdict):
        res = assert_agrees(parse_expr(text), SampleDomain(ranges), DEFAULT_CONFIG)
        assert res.n_points < MIN_EVALUATED_FRACTION * DEFAULT_CONFIG.n_sample_points
        assert res.verdict == verdict
        if verdict == INCONCLUSIVE:
            with pytest.raises(ZeroTestInconclusive, match=f"at {res.n_points} of 64 points"):
                is_probably_zero(parse_expr(text), SampleDomain(ranges))


# ---------------------------------------------------------------------------
# sample drawing: the same points as one lo + Fraction(randint, 64) per draw


def reference_sample_points(names, domain, n, rng):
    points = []
    while len(points) < n:
        p = {}
        for name in sorted(set(names)):
            lo, hi = domain.range_of(name)
            steps = int((hi - lo) * 64)
            p[name] = lo if steps <= 0 else lo + Fraction(rng.randint(0, steps), 64)
        if all(evaluate(c, p) > 0 for c in domain.constraints):
            points.append(p)
    return points


class TestSamplePoints:
    @pytest.mark.parametrize("ranges", [
        {},
        {"x": (Fraction(1, 3), Fraction(7, 5)), "y": (Fraction(-5, 4), Fraction(-1, 8))},
        # empty and degenerate ranges draw nothing and give lo
        {"x": (Fraction(1, 2), Fraction(1, 2)), "y": (Fraction(3), Fraction(1))},
        {"x": (1, 2)},
    ])
    def test_same_points_as_reference(self, ranges):
        x, y = Var("x"), Var("y")
        for constraints in [(), (x + y + 3,)]:
            domain = SampleDomain(ranges, constraints)
            got = sample_points(["y", "x", "z"], domain, 40, random.Random(5))
            want = reference_sample_points(["y", "x", "z"], domain, 40, random.Random(5))
            assert got == want
            assert all(type(v) is type(w) for p, q in zip(got, want)
                       for v, w in zip(p.values(), q.values()))


# ---------------------------------------------------------------------------
# three-valued verdicts: combine, zero_check and the bool predicate

TINY = Rational(Fraction(1, 10**8)) * sqrt(Var("x") * Var("x") + 1)


class TestVerdicts:
    def test_combine(self):
        assert combine([]) == PASS
        assert combine([PASS, PASS]) == PASS
        assert combine([PASS, INCONCLUSIVE]) == INCONCLUSIVE
        assert combine([INCONCLUSIVE, FAIL, PASS]) == FAIL
        assert combine([FAIL, INCONCLUSIVE]) == FAIL

    def test_result_verdict(self):
        x = Var("x")
        assert zero_test(x - x).verdict == PASS
        assert zero_test(x).verdict == FAIL
        assert zero_test(TINY).verdict == INCONCLUSIVE

    def test_zero_check_fail_beats_inconclusive(self):
        x = Var("x")
        check = zero_check("mixed", [x - x, TINY, x], config=CONFIG, detail={"n": 3})
        assert check.name == "mixed" and check.verdict == FAIL
        assert check.detail == {"n": 3}
        assert zero_check("tiny", [x - x, TINY], config=CONFIG).verdict == INCONCLUSIVE
        assert zero_check("zero", [x - x, Rational(Fraction(0))]).verdict == PASS

    def test_zero_check_max_residual_is_max_over_expressions(self):
        x = Var("x")
        exprs = [x - x, TINY, x * x, Rational(Fraction(-5)), x]
        check = zero_check("all", exprs, config=CONFIG)
        assert check.max_residual == max(zero_test(e, config=CONFIG).max_abs for e in exprs)
        assert check.max_residual == 5.0  # |x*x| and |x| stay below 5 on [-2, 2]
        assert zero_check("none", []).max_residual == 0.0

    def test_is_probably_zero_raises_when_inconclusive(self):
        with pytest.raises(ZeroTestInconclusive):
            is_probably_zero(TINY)

    def test_is_probably_zero_answers_rationals_exactly(self):
        assert is_probably_zero(Rational(Fraction(0)))
        assert not is_probably_zero(Rational(Fraction(1, 10**12)))

    @pytest.mark.parametrize("e", [Rational(Fraction(-10**400)), Var("x") * 10**400 + 1],
                                   ids=["constant", "polynomial"])
    def test_exact_value_beyond_float_range_fails(self, e):
        # nonzero at any magnitude: the largest float stands for its residual
        res = zero_test(e, config=CONFIG)
        assert res.exact and res.verdict == FAIL
        assert res.max_abs == sys.float_info.max
        check = zero_check("huge", [Var("x") - Var("x"), e], config=CONFIG)
        assert check.verdict == FAIL and check.max_residual == sys.float_info.max
