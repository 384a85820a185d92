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
from kontact import zerotest
from kontact.forms import Chart
from kontact.zerotest import (
    FAIL,
    INCONCLUSIVE,
    INCONCLUSIVE_MARGIN,
    MIN_EVALUATED_FRACTION,
    PASS,
    ZeroTestResult,
    combine,
    is_probably_zero,
    sample_points,
    zero_check,
    zero_test,
    zero_tests,
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


def reference_zero_test(e, chart=None, config=DEFAULT_CONFIG) -> ZeroTestResult:
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

    points = sample_points(names, chart, config.n_sample_points, config.seed)
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


def outcome(test, e, chart, config):
    try:
        return test(e, chart, config)
    except (DomainError, SampleDomainEmpty) as err:
        return type(err)


def assert_agrees(e, chart=None, config=DEFAULT_CONFIG) -> ZeroTestResult:
    new = outcome(zero_test, e, chart, config)
    ref = outcome(reference_zero_test, e, chart, config)
    if isinstance(ref, type):
        assert new is ref
        return new
    assert_same(new, ref, e, config)
    return new


def assert_same(new: ZeroTestResult, ref: ZeroTestResult, e, config) -> None:
    fields = ("is_zero", "exact", "n_points", "inconclusive")
    assert [getattr(new, f) for f in fields] == [getattr(ref, f) for f in fields]
    # on the float path the loop keeps rational subtrees exact where the
    # program rounds them, so a cancellation residual can move with the size
    # of the summands; only the exact path must give the same residual
    if new.exact:
        assert new.max_abs == ref.max_abs
    if free_variables(e):
        assert new.n_points + new.n_skipped == config.n_sample_points


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
        res = assert_agrees(parse_expr(text), Chart(NAMES, ranges=ranges), DEFAULT_CONFIG)
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
        res = assert_agrees(parse_expr(text), Chart(NAMES, ranges=ranges), DEFAULT_CONFIG)
        assert res.n_points < MIN_EVALUATED_FRACTION * DEFAULT_CONFIG.n_sample_points
        assert res.verdict == verdict
        if verdict == INCONCLUSIVE:
            with pytest.raises(ZeroTestInconclusive, match=f"at {res.n_points} of 64 points"):
                is_probably_zero(parse_expr(text), Chart(NAMES, ranges=ranges))


# ---------------------------------------------------------------------------
# sample drawing: the same points as one lo + Fraction(randint, 64) per draw


def reference_sample_points(names, chart, n, rng):
    points = []
    while len(points) < n:
        p = {}
        for name in sorted(set(names)):
            lo, hi = chart.ranges.get(name, (Fraction(-2), Fraction(2)))
            steps = int((hi - lo) * 64)
            p[name] = lo if steps <= 0 else lo + Fraction(rng.randint(0, steps), 64)
        if all(evaluate(c, p) > 0 for c in chart.constraints):
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
            chart = Chart(NAMES, constraints, ranges)
            got = sample_points(["y", "x", "z"], chart, 40, 5)
            want = reference_sample_points(["y", "x", "z"], chart, 40, random.Random(5))
            assert got == want
            assert all(type(v) is type(w) for p, q in zip(got, want)
                       for v, w in zip(p.values(), q.values()))


    @pytest.mark.parametrize("n", [0, -1])
    def test_no_points_is_refused(self, n):
        with pytest.raises(SampleDomainEmpty, match="no sample points"):
            sample_points(["x"], Chart(NAMES), n, 5)


class TestOneDrawPerChart:
    """A chart keeps the points of its zero tests, drawn once per (free
    variables, n_sample_points, seed); no chart draws on every call."""

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []

        def counting(names, chart, n, seed):
            calls.append((frozenset(names), n))
            return sample_points(names, chart, n, seed)

        monkeypatch.setattr(zerotest, "sample_points", counting)
        return calls

    def test_same_variables_draw_once(self, draws):
        chart = Chart(NAMES)
        for text in ["x + y", "x*y - 1", "(x - y)^2 + y"]:
            zero_test(parse_expr(text), chart, CONFIG)
        assert draws == [(frozenset("xy"), CONFIG.n_sample_points)]
        zero_test(parse_expr("x + z"), chart, CONFIG)
        assert len(draws) == 2

    def test_kept_points_are_a_fresh_draw(self):
        chart = Chart(NAMES, [Var("x") + Var("y")], {"y": (Fraction(1, 2), Fraction(3, 2))})
        zero_test(parse_expr("x - y"), chart, CONFIG)
        (points,) = chart._samples.values()
        assert points == sample_points(["x", "y"], chart, CONFIG.n_sample_points, CONFIG.seed)

    def test_other_seed_or_count_draws_again(self, draws):
        chart = Chart(NAMES)
        configs = [CONFIG, RunConfig(n_sample_points=24, seed=7), RunConfig(n_sample_points=16)]
        for config in configs + configs:
            zero_test(parse_expr("x + y"), chart, config)
        assert len(draws) == 3

    def test_equal_chart_draws_again(self, draws):
        for chart in [Chart(NAMES), Chart(NAMES)]:
            zero_test(parse_expr("x + y"), chart, CONFIG)
        assert len(draws) == 2

    def test_no_chart_draws_every_call(self, draws):
        for _ in range(3):
            zero_test(parse_expr("x + y"), None, CONFIG)
        assert len(draws) == 3


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


# ---------------------------------------------------------------------------
# zero_tests: a check's exact expressions in one program per free-variable set

# x on a narrow grid, so that a pole at x = 1/16 meets several sample points
NARROW = {"x": (Fraction(0), Fraction(1, 8))}
VARIABLE_SETS = [["x"], ["x", "y"], ["y", "z"], NAMES]


def _first_error(fn):
    try:
        fn()
    except (DomainError, SampleDomainEmpty) as err:
        return type(err), str(err)
    return None


def _zero_test_each(exprs, chart, config):
    return [zero_test(e, chart, config) for e in exprs]


def _check_expressions(rng: random.Random) -> list:
    """Exact and float expressions on interleaved variable sets: identities,
    nonzero polynomials, poles at x = 1/16 and constants."""
    x = Var("x")
    exprs = []
    for _ in range(rng.randint(2, 9)):
        names = rng.choice(VARIABLE_SETS)
        e = rand_expr(rng, names, depth=3)
        roll = rng.random()
        if roll < 0.3:
            f = rand_expr(rng, names, depth=2)
            e = e * f - f * e  # an identity
        elif roll < 0.5:
            e = e + (x - Fraction(1, 16)) ** -rng.randint(1, 2)
        elif roll < 0.6:
            e = sqrt(e * e + 1) - sqrt(1 + e * e)  # float path
        exprs.append(e)
    return exprs


class TestZeroTests:
    @given(st.integers(0, 10**9))
    @settings(max_examples=80, deadline=None)
    def test_equals_a_zero_test_per_expression(self, seed):
        exprs = _check_expressions(random.Random(seed))
        # two equal charts: each keeps its own draws, which are the same
        got = _first_error(lambda: zero_tests(exprs, Chart(NAMES, ranges=NARROW), CONFIG))
        want = _first_error(lambda: _zero_test_each(exprs, Chart(NAMES, ranges=NARROW), CONFIG))
        assert got == want
        if want is None:
            assert (zero_tests(exprs, Chart(NAMES, ranges=NARROW), CONFIG)
                    == _zero_test_each(exprs, Chart(NAMES, ranges=NARROW), CONFIG))

    @given(st.integers(0, 10**9))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_the_reference_loop(self, seed):
        exprs = _check_expressions(random.Random(seed))
        chart = Chart(NAMES, ranges=NARROW)
        got = _first_error(lambda: zero_tests(exprs, chart, CONFIG))
        want = _first_error(lambda: [reference_zero_test(e, chart, CONFIG) for e in exprs])
        assert (got and got[0]) == (want and want[0])
        if want is None:
            for new, e in zip(zero_tests(exprs, chart, CONFIG), exprs):
                assert_same(new, reference_zero_test(e, chart, CONFIG), e, CONFIG)

    def test_one_program_per_variable_set(self, monkeypatch):
        x, y = Var("x"), Var("y")
        joint = []
        real = zerotest.compile_exprs
        monkeypatch.setattr(zerotest, "compile_exprs",
                            lambda exprs: joint.append(len(exprs)) or real(exprs))
        exprs = [x * x - x * x, x * y - y * x, Rational(Fraction(0)), x + 1, TINY,
                 (x + y) ** 2 - x * x - 2 * x * y - y * y, x ** 3 - x * x * x, x * y * y]
        results = zero_tests(exprs, Chart(NAMES), CONFIG)
        # {x}: three exact expressions, {x, y}: three; TINY is on the float path
        assert joint == [3, 3]
        assert results == _zero_test_each(exprs, Chart(NAMES), CONFIG)
        assert zero_check("c", exprs, Chart(NAMES), CONFIG).verdict == FAIL

    def test_an_expression_listed_again_is_tested_once(self, monkeypatch):
        x, y = Var("x"), Var("y")
        compiled = []
        real = zerotest.compile_expr
        monkeypatch.setattr(zerotest, "compile_expr", lambda e: compiled.append(e) or real(e))
        a, b = x * y - y * x, x + 1
        exprs = [a, b, a, a, Rational(Fraction(0)), b]
        results = zero_tests(exprs, Chart(NAMES), CONFIG)
        assert compiled == [a, b, exprs[4]]
        monkeypatch.setattr(zerotest, "compile_expr", real)
        assert results == _zero_test_each(exprs, Chart(NAMES), CONFIG)

    def test_a_pole_skips_only_its_own_expression(self):
        x, y = Var("x"), Var("y")
        pole = (x - Fraction(1, 16)) ** -1
        exprs = [x * y - y * x, pole * (x - Fraction(1, 16)) * y - y, x + y]
        results = zero_tests(exprs, Chart(NAMES, ranges=NARROW), CONFIG)
        assert results == _zero_test_each(exprs, Chart(NAMES, ranges=NARROW), CONFIG)
        assert results[1].n_skipped > 0 and results[1].verdict == PASS
        assert results[0].n_skipped == results[2].n_skipped == 0

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0)])
    def test_raises_at_the_first_expression_in_order(self, order):
        x, y = Var("x"), Var("y")
        candidates = [
            # exact, in x and y with y - y: no point is evaluable
            x * (y - y) ** -1,
            # float, a constant beyond float range: no finite point
            parse_expr("10^400 * sqrt(x^2 + y^2 + 1)"),
            # exact, in x and y, fine everywhere
            x * y - y * x,
        ]
        exprs = [candidates[i] for i in order] + [x + y - y - x]
        got = _first_error(lambda: zero_tests(exprs, Chart(NAMES), CONFIG))
        want = _first_error(lambda: _zero_test_each(exprs, Chart(NAMES), CONFIG))
        assert got == want and got is not None
        assert ("singularity" in got[1]) == (order.index(0) < order.index(1))
