"""Expression engine: differentiation, evaluation, substitution, zero tests, parsing."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kontact import expr as expr_module
from kontact.errors import DomainError, ParseError, SampleDomainEmpty, UnboundVariable
from kontact.expr import (
    Exp,
    Log,
    Pow,
    Product,
    Rational,
    Sum,
    Var,
    compile_expr,
    compile_exprs,
    const,
    differentiate,
    evaluate,
    exp,
    free_variables,
    log,
    parse_expr,
    sqrt,
    substitute,
    var,
)
from kontact.runner import float_runner
from kontact.forms import Chart
from kontact.zerotest import is_probably_zero, zero_test

from conftest import rand_expr, rand_rational, with_singular_tops


def finite_difference(e, v: str, point: dict, step: float = 1e-5) -> float:
    """Independent derivative oracle: central difference."""
    up = dict(point)
    dn = dict(point)
    up[v] = point[v] + step
    dn[v] = point[v] - step
    return (float(evaluate(e, up)) - float(evaluate(e, dn))) / (2 * step)


def _mentions(e, v) -> bool:
    if isinstance(e, Var):
        return e.name == v
    if isinstance(e, Sum):
        return any(_mentions(t, v) for t in e.terms)
    if isinstance(e, Product):
        return any(_mentions(f, v) for f in e.factors)
    if isinstance(e, Pow):
        return _mentions(e.base, v)
    if isinstance(e, (Exp, Log)):
        return _mentions(e.arg, v)
    return False


def reference_differentiate(e, v):
    """The plain recursive rules, walking each subtree again to see whether it
    mentions v: what differentiate must equal, tree for tree."""
    if isinstance(e, (Rational, Var)) or not _mentions(e, v):
        return const(1) if (isinstance(e, Var) and e.name == v) else const(0)
    if isinstance(e, Sum):
        return Sum.make(tuple(reference_differentiate(t, v) for t in e.terms))
    if isinstance(e, Product):
        factors = e.factors
        return Sum.make([Product.make((reference_differentiate(f, v),)
                                      + factors[:i] + factors[i + 1:])
                         for i, f in enumerate(factors) if _mentions(f, v)])
    if isinstance(e, Pow):
        return Product.make((Rational(e.exponent), Pow.make(e.base, e.exponent - 1),
                             reference_differentiate(e.base, v)))
    if isinstance(e, Exp):
        return Product.make((e, reference_differentiate(e.arg, v)))
    return Product.make((reference_differentiate(e.arg, v), Pow.make(e.arg, Fraction(-1))))


class TestDifferentiate:
    @given(st.integers(0, 10**9), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_equals_recursive_reference(self, seed, transcendental):
        rng = random.Random(seed)
        a = rand_expr(rng, ["x", "y", "z"], depth=3, transcendental=transcendental)
        b = rand_expr(rng, ["x", "y"], depth=2, transcendental=transcendental)
        x = var("x")
        # shared subtrees; a factor that mentions x but differentiates to 0;
        # a constant under a fractional power and inside exp and log
        for e in (a, a * b + b * b - a, (x - x) * a * b,
                  sqrt(a * a + 1) * exp(b) * log(b * b + 1) + sqrt(const(0)) * a,
                  sqrt(const(2)) * exp(const(1)) * log(const(3)) * b):
            for v in ("x", "y", "w"):
                assert differentiate(e, v) == reference_differentiate(e, v)

    def test_log_rule(self):
        V = var("V")
        d = differentiate(log(V), "V")
        for x in (0.5, 1.0, 3.0, 7.25):
            assert evaluate(d, {"V": x}) == pytest.approx(1.0 / x, abs=1e-12)

    def test_constant_rule(self):
        assert differentiate(Rational(Fraction(5, 3)), "V") == Rational(Fraction(0))

    def test_absent_variable_gives_zero(self):
        e = parse_expr("x^2 + exp(y)")
        assert differentiate(e, "zz") == Rational(Fraction(0))

    def test_proper_time_derivative_against_finite_differences(self):
        # oracle first: 20 random points inside the forward cone, step 1e-5
        e = parse_expr("(t^2 - z^2)^(1/2)")
        d = differentiate(e, "t")
        rng = random.Random(7)
        for _ in range(20):
            t = rng.uniform(1.0, 3.0)
            z = rng.uniform(-0.5, 0.5)
            fd = finite_difference(e, "t", {"t": t, "z": z})
            sym = float(evaluate(d, {"t": t, "z": z}))
            assert abs(sym - fd) < 1e-6

    def test_product_and_chain_rule_random(self):
        rng = random.Random(21)
        for _ in range(25):
            e = rand_expr(rng, ["x", "y"], depth=3, transcendental=True)
            d = differentiate(e, "x")
            for _ in range(3):
                p = {"x": rng.uniform(0.2, 1.5), "y": rng.uniform(0.2, 1.5)}
                try:
                    fd = finite_difference(e, "x", p)
                    sym = float(evaluate(d, p))
                except DomainError:
                    continue
                assert abs(sym - fd) < 1e-4 * max(1.0, abs(fd))

    def test_linearity(self, fast_config):
        rng = random.Random(3)
        for _ in range(10):
            a, b = rand_rational(rng), rand_rational(rng)
            e1 = rand_expr(rng, ["x", "y"], depth=2)
            e2 = rand_expr(rng, ["x", "y"], depth=2)
            lhs = differentiate(Rational(a) * e1 + Rational(b) * e2, "x")
            rhs = Rational(a) * differentiate(e1, "x") + Rational(b) * differentiate(e2, "x")
            assert is_probably_zero(lhs - rhs, config=fast_config)

    def test_clairaut(self, fast_config):
        rng = random.Random(5)
        for _ in range(10):
            e = rand_expr(rng, ["u", "v"], depth=3)
            duv = differentiate(differentiate(e, "u"), "v")
            dvu = differentiate(differentiate(e, "v"), "u")
            assert is_probably_zero(duv - dvu, config=fast_config)


class TestEvaluate:
    def test_exact_rational_sum(self):
        e = parse_expr("1/2 + 1/3")
        v = evaluate(e, {})
        assert v == Fraction(5, 6)
        assert isinstance(v, Fraction)

    def test_proper_time_on_axis(self):
        e = parse_expr("(t^2 - z^2)^(1/2)")
        assert evaluate(e, {"t": 2, "z": 0}) == pytest.approx(2.0)

    def test_exp_log_inverse(self):
        e = exp(log(var("x")))
        assert evaluate(e, {"x": 7}) == pytest.approx(7.0, abs=1e-12)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            evaluate(var("x") + var("y"), {"x": 1})

    def test_log_domain(self):
        with pytest.raises(DomainError):
            evaluate(log(var("x")), {"x": -1})

    def test_division_by_zero(self):
        e = 1 / var("x")
        with pytest.raises(DomainError):
            evaluate(e, {"x": 0})

    @pytest.mark.parametrize("text", ["10^400 * x", "(10^400 * y)^(1/2)", "exp(10^400 * y)",
                                      "log(10^400 * y)", "10^400 + x"])
    def test_beyond_float_range_is_a_domain_error(self, text):
        # an exact rational beyond float range meets a float (x is one) or
        # becomes one under a fractional power, exp or log
        with pytest.raises(DomainError, match="beyond float range"):
            evaluate(parse_expr(text), {"x": 1.5, "y": Fraction(3, 2)})

    def test_exactness_of_rational_trees(self):
        # rationals, +, *, integer powers: no rounding at rational points
        rng = random.Random(11)
        for _ in range(30):
            e = rand_expr(rng, ["x", "y", "z"], depth=3)
            p = {n: rand_rational(rng) for n in ("x", "y", "z")}
            v = evaluate(e, p)
            assert isinstance(v, Fraction)


class TestSubstitute:
    def test_simultaneous_swap(self):
        x, y = var("x"), var("y")
        out = substitute(x + y, {"x": y, "y": x})
        assert out == y + x

    def test_binding_momentum(self):
        p, q = var("p"), var("q")
        dF = parse_expr("2*q")
        out = substitute(p * q, {"q": dF})
        assert is_probably_zero(out - p * parse_expr("2*q"))

    def test_compose_then_evaluate(self):
        tau = var("tau")
        out = substitute(tau, {"tau": parse_expr("(t^2 - z^2)^(1/2)")})
        assert evaluate(out, {"t": 2, "z": 0}) == pytest.approx(2.0)

    def test_evaluation_substitution_commute(self):
        rng = random.Random(13)
        for _ in range(15):
            e = rand_expr(rng, ["x", "y"], depth=2)
            b = {"x": rand_expr(rng, ["u"], depth=2), "y": rand_expr(rng, ["u"], depth=2)}
            u = rand_rational(rng)
            via_subs = evaluate(substitute(e, b), {"u": u})
            composed = {k: evaluate(v, {"u": u}) for k, v in b.items()}
            direct = evaluate(e, composed)
            assert abs(float(via_subs) - float(direct)) < 1e-12


class TestIsProbablyZero:
    def test_trivial_zero(self):
        x = var("x")
        assert is_probably_zero(x - x)

    def test_expansion_scalar_identity(self):
        # theta = 1/tau for the longitudinal flow; domain excludes the cone
        e = parse_expr(
            "(t^2-z^2)^(-1/2) - t*t*(t^2-z^2)^(-3/2)"
            " + (t^2-z^2)^(-1/2) + z*z*(t^2-z^2)^(-3/2)"
            " - (t^2-z^2)^(-1/2)")
        t, z = var("t"), var("z")
        dom = Chart(["t", "z"], constraints=(t * t - z * z,),
                    ranges={"t": (Fraction(1), Fraction(2)), "z": (Fraction(-1, 2), Fraction(1, 2))})
        assert is_probably_zero(e, dom)

    def test_generic_nonzero(self):
        x, y = var("x"), var("y")
        assert not is_probably_zero(x * y - 1)

    def test_exact_path_rejects_tiny_nonzero(self):
        # rational expressions are checked exactly, so even 1e-30 is nonzero
        e = Rational(Fraction(1, 10**30)) + var("x") - var("x")
        assert not is_probably_zero(e)

    def test_inconclusive_flag(self):
        # non-rational tree with a tiny constant: neither verdict is safe
        e = Rational(Fraction(1, 10**8)) * sqrt(var("x") * var("x") + 1)
        res = zero_test(e)
        assert not res.is_zero
        assert res.inconclusive

    def test_seeded_determinism(self):
        e = parse_expr("x*y - 1/3")
        r1 = zero_test(e)
        r2 = zero_test(e)
        assert r1 == r2


class TestParser:
    def test_whitespace_insensitive(self):
        assert parse_expr("1/2+x*y") == parse_expr(" 1/2 + x * y ")

    def test_indexed_identifiers(self):
        e = parse_expr("T_0_1 * beta_3")
        assert free_variables(e) == {"T_0_1", "beta_3"}

    def test_precedence_and_unary(self):
        assert evaluate(parse_expr("-2^2"), {}) == Fraction(-4)
        assert evaluate(parse_expr("2*3 + 4/8"), {}) == Fraction(13, 2)
        assert evaluate(parse_expr("2^-1"), {}) == Fraction(1, 2)

    def test_sqrt_is_half_power(self):
        assert parse_expr("sqrt(x)") == parse_expr("x^(1/2)")

    def test_functions(self):
        assert evaluate(parse_expr("exp(log(5))"), {}) == pytest.approx(5.0)

    def test_rational_literals(self):
        assert evaluate(parse_expr("7/4"), {}) == Fraction(7, 4)
        assert evaluate(parse_expr("0.25"), {}) == Fraction(1, 4)

    @pytest.mark.parametrize("bad", ["x +", "(x", "x ^ y", "foo(x)", "2 ** 3", "x @ y"])
    def test_errors(self, bad):
        with pytest.raises(ParseError):
            parse_expr(bad)

    @given(st.integers(-50, 50), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_rational_roundtrip(self, p, q):
        e = parse_expr(f"{p}/{q}")
        assert evaluate(e, {}) == Fraction(p, q)


class TestImmutability:
    def test_nodes_are_frozen(self):
        x = var("x")
        with pytest.raises(Exception):
            x.name = "y"

    def test_structural_equality_and_hash(self):
        a = parse_expr("x + 2*y")
        b = parse_expr("x + 2*y")
        assert a == b
        assert hash(a) == hash(b)


NAMES = ["x", "y", "z"]


def _children(e):
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Product):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Exp, Log)):
        return (e.arg,)
    return ()


def distinct_subtrees(*roots) -> int:
    """Structurally distinct subtrees of the roots, counted by dataclass equality."""
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(_children(node))
    return len(seen)


def tree_nodes(e) -> int:
    return 1 + sum(tree_nodes(c) for c in _children(e))


class GcdSpy:
    """The math module, with gcd recording the bit length of each
    denominator it reduces."""

    def __init__(self):
        self.bits = []

    def __getattr__(self, name):
        return getattr(math, name)

    def gcd(self, n, d):
        self.bits.append(d.bit_length())
        return math.gcd(n, d)


def reference_values(e, points):
    """evaluate per point; None where it raises DomainError or is not finite."""
    out = []
    for p in points:
        try:
            v = evaluate(e, p)
        except DomainError:
            v = None
        out.append(v if v is not None and math.isfinite(v) else None)
    return out


class TestCompile:
    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_exact_program_equals_evaluate(self, seed):
        rng = random.Random(seed)
        poly = rand_expr(rng, NAMES, depth=4)
        points = [{n: rand_rational(rng, denom=2) for n in NAMES} for _ in range(8)]
        for e in with_singular_tops(poly, -1, -2):
            program = compile_expr(e)
            assert program.rational
            assert program.free_vars == free_variables(e)
            for p, ref in zip(points, reference_values(e, points)):
                if ref is None:
                    with pytest.raises(DomainError):
                        program.run_exact(p)
                else:
                    assert program.run_exact(p) == ref

    @pytest.mark.parametrize("bits", [expr_module._PAIR_BITS, 1], ids=["bound", "every_pair"])
    @given(seed=st.integers(0, 10**9), n_factors=st.integers(50, 70),
           k=st.integers(1, 40), negative=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_pair_runner_equals_evaluate(self, bits, seed, n_factors, k, negative):
        # deep products, integer powers up to +-40 and sums over unequal
        # denominators; with a 1-bit bound every pair is reduced
        rng = random.Random(seed)
        x, y = var("x"), var("y")
        exponent = Fraction(-k if negative else k)
        deep = Product.make(tuple(
            rand_expr(rng, NAMES, depth=2) + var(rng.choice(NAMES))
            + Rational(Fraction(1, rng.randint(1, 9))) for _ in range(n_factors)))
        mixed = Sum.make(tuple(
            Rational(Fraction(rng.randint(1, 9), d)) * var(rng.choice(NAMES)) ** rng.randint(1, 3)
            for d in (2, 3, 5, 7, 64)))
        c = rand_rational(rng, denom=64)
        roots = [deep, Pow.make(deep, exponent), mixed,
                 Pow.make(mixed, exponent) + deep,
                 Pow.make((x - c) * y, exponent) + mixed]
        points = [{n: Fraction(rng.randint(-128, 128), rng.choice([1, 3, 7, 64])) for n in NAMES}
                  for _ in range(3)]
        # x - c is zero here: a negative power of it raises DomainError
        points.append({"x": c, "y": Fraction(1, 3), "z": Fraction(-5, 64)})
        with patch.object(expr_module, "_PAIR_BITS", bits):
            for e in roots:
                program = compile_expr(e)
                assert program.rational
                for p in points:
                    try:
                        want = evaluate(e, p)
                    except DomainError:
                        with pytest.raises(DomainError, match="division by zero"):
                            program.run_exact(p)
                        continue
                    got = program.run_exact(p)
                    assert got == want and type(got) is Fraction

    def test_pair_runner_reduces_pairs_past_the_bound(self):
        # x*y at x = 2/3, y = 3/2 is the pair (6, 6), and its 1600th power
        # has 1600*log2(6), about 4136, denominator bits: past the bound, so
        # the guard reduces it to (1, 1) before the product with z
        x, y, z = var("x"), var("y"), var("z")
        e = Pow.make(x * y, Fraction(1600)) * z + x
        p = {"x": Fraction(2, 3), "y": Fraction(3, 2), "z": Fraction(5, 7)}
        spy = GcdSpy()
        with patch.object(expr_module, "math", spy):
            value = compile_expr(e).run_exact(p)
        assert value == evaluate(e, p) == Fraction(5, 7) + Fraction(2, 3)
        assert spy.bits and min(spy.bits) > expr_module._PAIR_BITS

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_float_program_matches_evaluate(self, seed):
        rng = random.Random(seed)
        base = rand_expr(rng, NAMES, depth=3, transcendental=True)
        points = [{n: rng.uniform(-2, 2) for n in NAMES} for _ in range(16)]
        columns = {n: np.array([p[n] for p in points]) for n in NAMES}
        for e in with_singular_tops(base, -1, Fraction(-1, 2), take_log=True):
            program = compile_expr(e)
            assert program.free_vars == free_variables(e)
            value, _, skip = program.run_float(columns, len(points))
            for i, ref in enumerate(reference_values(e, points)):
                assert skip[i] == (ref is None)
                if ref is not None:
                    assert math.isclose(value[i], ref, rel_tol=1e-12, abs_tol=1e-12)

    def test_scale_is_largest_top_level_summand(self):
        program = compile_expr(parse_expr("3*x - 5*y + 1/2"))
        _, scale, _ = program.run_float({"x": np.array([1.0, -2.0]), "y": np.array([0.5, 0.0])}, 2)
        assert scale.tolist() == [3.0, 6.0]

    def test_equal_subtrees_built_separately_share_one_instruction(self):
        x, y = var("x"), var("y")
        a = exp(x + 1) * y
        b = exp(x + 1) * y
        assert a is not b and a == b
        program = compile_expr(a * log(b + 2) - b)
        # x, 1, x + 1, exp(x + 1), y, the product, 2, the sum, log, -1,
        # -(product), the product with log, the root
        assert len(program.code) == distinct_subtrees(a * log(b + 2) - b) == 13

    def test_bjorken_residual_compiles_to_its_distinct_subtrees(self):
        from kontact.bjorken import (
            BjorkenFlow,
            DissipativeDecomposition,
            PGTSuperpotential,
            apply_pgt,
            entropy_production,
        )

        flow = BjorkenFlow()
        before = DissipativeDecomposition.perfect_fluid(flow)
        after = apply_pgt(before, PGTSuperpotential("gamma", "T^3"), flow)
        e = entropy_production(after, flow)
        program = compile_expr(e)
        assert len(program.code) == distinct_subtrees(e)
        assert 10 * len(program.code) < tree_nodes(e)
        assert not program.rational
        assert program.free_vars == free_variables(e)


def bits(values) -> bytes:
    """The float64 bit patterns, so that 0.0 and -0.0 differ."""
    return np.array(values, dtype=float).tobytes()


def assert_runner_matches_evaluate(run, roots, p):
    """run(p) is (float(evaluate(e, p)) for e in roots), or raises its DomainError."""
    try:
        want = tuple(float(evaluate(e, p)) for e in roots)
    except DomainError as err:
        with pytest.raises(DomainError) as got:
            run(p)
        assert str(got.value) == str(err)
    else:
        got = run(p)
        assert got == want
        assert bits(got) == bits(want)


class TestRunFloat:
    def test_constant_beyond_float_range_skips_every_point(self):
        # evaluate raises DomainError at every point, so no point is evaluated
        program = compile_expr(parse_expr("(10^400 * x)^(1/2) - 1"))
        _, _, skip = program.run_float({"x": np.array([0.5, 1.0, 2.0])}, 3)
        assert skip.tolist() == [True, True, True]

    def test_zero_test_refuses_to_pass_it(self):
        e = parse_expr("(10^400 * x)^(1/2) - (10^400 * x)^(1/2)")
        with pytest.raises(SampleDomainEmpty):
            zero_test(e)


class TestFloatRunner:
    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_runner_equals_evaluate_at_float_points(self, seed):
        rng = random.Random(seed)
        base = rand_expr(rng, NAMES, depth=3, transcendental=True)
        poly = rand_expr(rng, NAMES, depth=3)
        roots = (with_singular_tops(base, -1, Fraction(-1, 2), take_log=True)
                 + with_singular_tops(poly, -2, Fraction(1, 2), Fraction(-3, 2)))
        # half-integer floats make the singular tops' bases exactly zero often
        points = ([{n: rng.uniform(-2, 2) for n in NAMES} for _ in range(8)]
                  + [{n: float(rand_rational(rng, denom=2)) for n in NAMES}
                     for _ in range(8)])
        runners = [(float_runner([e]), [e]) for e in roots]
        runners.append((float_runner(roots), roots))
        for p in points:
            for run, exprs in runners:
                assert_runner_matches_evaluate(run, exprs, p)

    def test_constants_fold_as_evaluate_keeps_them(self):
        x, y = var("x"), var("y")
        tenth, fifth = Rational(Fraction(1, 10)), Rational(Fraction(1, 5))
        # built without make, so constants stay unfolded and out of first place;
        # 0.1 + 0.2 and 0.1 * 3.0 round differently from 3/10
        roots = [
            Sum((tenth, fifth, x)),
            Sum((x, tenth, fifth)),
            Product((tenth, Rational(Fraction(3)), x)),
            Product((x, tenth, Rational(Fraction(3)))),
            Sum((x, y)),
            Pow(Sum((tenth, Rational(Fraction(-1, 10)))), Fraction(-1)),
            Pow(Rational(Fraction(2)), Fraction(1, 2)) * x,
            Pow(tenth, Fraction(2)) * x,
            Sum((tenth, fifth)),
        ]
        for p in [{"x": 0.1, "y": -2.5}, {"x": -0.0, "y": -0.0}, {"x": -0.0, "y": 3.0}]:
            for e in roots:
                assert_runner_matches_evaluate(float_runner([e]), [e], p)

    def test_long_sums_and_products_compile(self):
        # one chained expression of this many terms overflows the compiler
        rng = random.Random(5)
        names = [f"x{i}" for i in range(5000)]
        y = var("y")
        roots = [Sum.make([var(n) * y for n in names]), Sum.make([var(n) for n in names]),
                 Product.make([var(n) for n in names[:300]])]
        p = {n: rng.uniform(0.5, 1.5) for n in names} | {"y": -1.25}
        assert_runner_matches_evaluate(float_runner(roots), roots, p)

    @pytest.mark.parametrize("text", ["10^400", "10^400 * x"])
    def test_value_beyond_float_range_is_a_domain_error(self, text):
        with pytest.raises(DomainError, match="beyond float range"):
            float_runner([parse_expr(text), var("x")])({"x": 1.0})

    def test_missing_variable_is_unbound(self):
        with pytest.raises(UnboundVariable):
            float_runner([parse_expr("x + y")])({"x": 1.0})

    def test_roots_share_one_table(self):
        x, y = var("x"), var("y")
        shared = exp(x + 1) * y
        roots = [shared + 1, log(shared * shared + 2), shared * x, shared]
        program = compile_exprs(roots)
        assert len(program.code) == distinct_subtrees(*roots)
        assert len(program.code) < sum(distinct_subtrees(e) for e in roots)
        assert float_runner(roots)({"x": 0.5, "y": 2.0}) == tuple(
            float(evaluate(e, {"x": 0.5, "y": 2.0})) for e in roots)

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_random_roots_compile_to_their_distinct_subtrees(self, seed):
        rng = random.Random(seed)
        a = rand_expr(rng, NAMES, depth=3, transcendental=True)
        b = rand_expr(rng, NAMES, depth=2)
        roots = [a, a * b, b + a, b]
        program = compile_exprs(roots)
        assert len(program.code) == distinct_subtrees(*roots)
        assert program.free_vars == free_variables(a) | free_variables(b)
