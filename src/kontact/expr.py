"""Exact-arithmetic symbolic scalar expressions.

Expression trees over arbitrary-precision rationals with sums, products,
rational powers, exp and log.  Trees are immutable; construction applies only
light structural simplification (flatten nested sums/products, fold rational
constants, drop zero terms, x^0 -> 1, x^1 -> x) so that derivatives stay
bounded in size without a rewrite engine.  Equality of *values* is decided
elsewhere by sampling (see zerotest), never by canonicalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational as _RationalABC
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import DomainError, ParseError, UnboundVariable

Numeric = Union[Fraction, float]
ExprLike = Union["ScalarExpr", int, Fraction, str]

__all__ = [
    "ScalarExpr", "Rational", "Var", "Sum", "Product", "Pow", "Exp", "Log",
    "as_expr", "exp", "log", "sqrt",
    "differentiate", "evaluate", "substitute", "free_variables", "parse_expr",
    "Program", "compile_expr", "compile_exprs", "ZERO", "ONE",
]


class ScalarExpr:
    """Base class for all expression nodes. Immutable; supports arithmetic operators."""

    __slots__ = ()

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Sum.make((self, other))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Sum.make((self, -other))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Sum.make((other, -self))

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Product.make((self, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Product.make((self, Pow.make(other, Fraction(-1))))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Product.make((other, Pow.make(self, Fraction(-1))))

    def __neg__(self):
        return Product.make((_MINUS_ONE, self))

    def __pow__(self, exponent):
        return Pow.make(self, _as_fraction_exponent(exponent))

    def __str__(self) -> str:
        return _render(self, 0)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


@dataclass(frozen=True, slots=True)
class Rational(ScalarExpr):
    """An exact rational constant, always in lowest terms with positive denominator."""

    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True, slots=True)
class Var(ScalarExpr):
    name: str


@dataclass(frozen=True, slots=True)
class Sum(ScalarExpr):
    terms: tuple

    @staticmethod
    def make(terms) -> ScalarExpr:
        flat: list[ScalarExpr] = []
        const_part = Fraction(0)
        for t in terms:
            if isinstance(t, Sum):
                for s in t.terms:
                    if isinstance(s, Rational):
                        const_part += s.value
                    else:
                        flat.append(s)
            elif isinstance(t, Rational):
                const_part += t.value
            else:
                flat.append(t)
        if const_part != 0:
            flat.insert(0, Rational(const_part))
        if not flat:
            return ZERO
        if len(flat) == 1:
            return flat[0]
        return Sum(tuple(flat))


@dataclass(frozen=True, slots=True)
class Product(ScalarExpr):
    factors: tuple

    @staticmethod
    def make(factors) -> ScalarExpr:
        flat: list[ScalarExpr] = []
        const_part = Fraction(1)
        for f in factors:
            if isinstance(f, Product):
                for g in f.factors:
                    if isinstance(g, Rational):
                        const_part *= g.value
                    else:
                        flat.append(g)
            elif isinstance(f, Rational):
                const_part *= f.value
            else:
                flat.append(f)
        if const_part == 0:
            return ZERO
        if const_part != 1:
            flat.insert(0, Rational(const_part))
        if not flat:
            return ONE
        if len(flat) == 1:
            return flat[0]
        return Product(tuple(flat))


@dataclass(frozen=True, slots=True)
class Pow(ScalarExpr):
    """base raised to an exact rational exponent (sqrt is exponent 1/2)."""

    base: ScalarExpr
    exponent: Fraction

    @staticmethod
    def make(base: ScalarExpr, exponent: Fraction) -> ScalarExpr:
        if exponent == 0:
            return ONE
        if exponent == 1:
            return base
        if isinstance(base, Rational) and exponent.denominator == 1:
            if base.value == 0 and exponent < 0:
                raise DomainError("0 raised to a negative power")
            return Rational(base.value ** int(exponent))
        if isinstance(base, Pow):
            inner = base.exponent
            # (x^even)^fractional is |x|-valued; every other combination merges
            even_inner = inner.denominator == 1 and inner.numerator % 2 == 0
            if not (even_inner and exponent.denominator != 1):
                return Pow.make(base.base, inner * exponent)
        return Pow(base, exponent)


@dataclass(frozen=True, slots=True)
class Exp(ScalarExpr):
    arg: ScalarExpr

    @staticmethod
    def make(arg: ScalarExpr) -> ScalarExpr:
        if isinstance(arg, Rational) and arg.value == 0:
            return ONE
        return Exp(arg)


@dataclass(frozen=True, slots=True)
class Log(ScalarExpr):
    arg: ScalarExpr

    @staticmethod
    def make(arg: ScalarExpr) -> ScalarExpr:
        if isinstance(arg, Rational):
            if arg.value <= 0:
                raise DomainError(f"log of non-positive constant {arg.value}")
            if arg.value == 1:
                return ZERO
        return Log(arg)


ZERO = Rational(Fraction(0))
ONE = Rational(Fraction(1))
_MINUS_ONE = Rational(Fraction(-1))


def _coerce(x):
    """as_expr for operator dunders: None (not an exception) when x is foreign."""
    if isinstance(x, ScalarExpr):
        return x
    if isinstance(x, (int, Fraction, float)) and not isinstance(x, bool):
        return as_expr(x)
    return None


def as_expr(x: ExprLike) -> ScalarExpr:
    """Coerce ints, Fractions, and expression strings into ScalarExpr."""
    if isinstance(x, ScalarExpr):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar expression")
    if isinstance(x, (int, Fraction)):
        return Rational(Fraction(x))
    if isinstance(x, float):
        # floats enter exactly, as their binary rational value
        return Rational(Fraction(x))
    if isinstance(x, str):
        return parse_expr(x)
    raise TypeError(f"cannot interpret {x!r} as a scalar expression")


def exp(x: ExprLike) -> ScalarExpr:
    return Exp.make(as_expr(x))


def log(x: ExprLike) -> ScalarExpr:
    return Log.make(as_expr(x))


def sqrt(x: ExprLike) -> ScalarExpr:
    return Pow.make(as_expr(x), Fraction(1, 2))


def _as_fraction_exponent(exponent) -> Fraction:
    if isinstance(exponent, Rational):
        return exponent.value
    if isinstance(exponent, _RationalABC):
        return Fraction(exponent)
    raise TypeError(f"exponent must be an exact rational, got {exponent!r}")


# ---------------------------------------------------------------------------
# free variables

def free_variables(e: ScalarExpr) -> frozenset:
    out: set[str] = set()
    _collect_vars(e, out)
    return frozenset(out)


def _collect_vars(e: ScalarExpr, out: set):
    if isinstance(e, Var):
        out.add(e.name)
    elif isinstance(e, Sum):
        for t in e.terms:
            _collect_vars(t, out)
    elif isinstance(e, Product):
        for f in e.factors:
            _collect_vars(f, out)
    elif isinstance(e, Pow):
        _collect_vars(e.base, out)
    elif isinstance(e, (Exp, Log)):
        _collect_vars(e.arg, out)


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e: ScalarExpr, v: str) -> ScalarExpr:
    """Partial derivative of e with respect to the variable named v.

    Each distinct subtree (by identity) is differentiated once per call.  A
    term or factor whose derivative is the constant 0 contributes nothing,
    so the derivative with respect to a variable absent from e is zero.
    """
    return _derivative(e, v, {})


def _derivative(e: ScalarExpr, v: str, memo: dict) -> ScalarExpr:
    """differentiate with memo mapping id(subtree) to its derivative; passed
    down rather than closed over, so a call leaves no reference cycle."""
    if isinstance(e, Var):
        return ONE if e.name == v else ZERO
    if isinstance(e, Rational):
        return ZERO
    out = memo.get(id(e))
    if out is not None:
        return out
    if isinstance(e, Sum):
        terms = [dt for dt in (_derivative(t, v, memo) for t in e.terms) if not _is_zero(dt)]
        out = Sum.make(terms) if terms else ZERO
    elif isinstance(e, Product):
        factors = e.factors
        pieces = []
        for i, f in enumerate(factors):
            df = _derivative(f, v, memo)
            if not _is_zero(df):
                pieces.append(Product.make((df,) + factors[:i] + factors[i + 1:]))
        out = Sum.make(pieces) if pieces else ZERO
    elif isinstance(e, Pow):
        db = _derivative(e.base, v, memo)
        out = ZERO if _is_zero(db) else Product.make(
            (Rational(e.exponent), Pow.make(e.base, e.exponent - 1), db))
    elif isinstance(e, Exp):
        da = _derivative(e.arg, v, memo)
        out = ZERO if _is_zero(da) else Product.make((e, da))
    elif isinstance(e, Log):
        da = _derivative(e.arg, v, memo)
        out = ZERO if _is_zero(da) else Product.make((da, Pow.make(e.arg, Fraction(-1))))
    else:
        raise TypeError(f"unknown node {e!r}")
    memo[id(e)] = out
    return out


def _is_zero(e: ScalarExpr) -> bool:
    return isinstance(e, Rational) and e.value == 0


# ---------------------------------------------------------------------------
# evaluation

def evaluate(e: ScalarExpr, point: Mapping[str, Numeric]) -> Numeric:
    """Evaluate e at a point; exact Fraction when e and the point are rational.

    Raises UnboundVariable for missing assignments and DomainError where the
    expression leaves its domain (log of non-positive, division by zero,
    negative base under a fractional power) or a value leaves float range
    (an exact rational beyond it meeting a float, an overflowing power or exp).
    """
    try:
        return _evaluate(e, point)
    except OverflowError as err:
        raise DomainError(f"value beyond float range ({err})") from None


def _evaluate(e: ScalarExpr, point: Mapping[str, Numeric]) -> Numeric:
    if isinstance(e, Rational):
        return e.value
    if isinstance(e, Var):
        try:
            return point[e.name]
        except KeyError:
            raise UnboundVariable(f"no value assigned to variable {e.name!r}") from None
    if isinstance(e, Sum):
        total: Numeric = Fraction(0)
        for t in e.terms:
            total = total + _evaluate(t, point)
        return total
    if isinstance(e, Product):
        prod: Numeric = Fraction(1)
        for f in e.factors:
            prod = prod * _evaluate(f, point)
        return prod
    if isinstance(e, Pow):
        base = _evaluate(e.base, point)
        ex = e.exponent
        if ex.denominator == 1:
            n = int(ex)
            if base == 0 and n < 0:
                raise DomainError("division by zero")
            if isinstance(base, Fraction):
                return base ** n
            return float(base) ** n
        b = float(base)
        if b < 0:
            raise DomainError(f"negative base {b} under fractional power {ex}")
        if b == 0 and ex < 0:
            raise DomainError("division by zero")
        return b ** float(ex)
    if isinstance(e, Exp):
        return math.exp(float(_evaluate(e.arg, point)))
    if isinstance(e, Log):
        v = float(_evaluate(e.arg, point))
        if v <= 0:
            raise DomainError(f"log of non-positive value {v}")
        return math.log(v)
    raise TypeError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# compilation to a shared-node program

_CONST, _VAR, _SUM, _PRODUCT, _POW, _EXP, _LOG = range(7)

_PAIR_BITS = 4096
"""run_exact reduces a pair past this many denominator bits: that stops runaway
growth in deep products and high powers, yet typical pairs never pay a gcd
(over the points' shared denominators, the benchmark's polynomial legendrian
programs peak at 137 bits on seeds 1 and 7 and at 139 on seed 42)."""


class Program(NamedTuple):
    """Expressions as one straight-line program with one instruction per distinct subtree.

    Instruction i is (op, payload, args); args index earlier instructions.
    roots are the expressions' instructions; run_exact computes every root
    over all the points at once, and run_float the last root, whose top-level
    summands are summands (the root alone when it is not a sum).  rational is
    True when only rationals, +, * and integer powers occur.
    """

    code: tuple
    roots: tuple
    summands: tuple
    free_vars: frozenset
    rational: bool

    def run_exact(self, points: Sequence[Mapping[str, Numeric]]) -> tuple[tuple, np.ndarray]:
        """Every root's value at rational points, each instruction run once over all of them.

        Each instruction's value is a pair (numerators, denominator): an
        object array of Python ints, one per point, over a denominator that
        is one int shared by all points (a variable's is the lcm of its
        denominators at the points) until a negative power makes it an array
        too.  Pairs are not reduced to lowest terms and not sign-normalised:
        a product multiplies the parts, a sum adds numerators over an equal
        shared denominator and cross-multiplies otherwise, and an integer
        power raises both parts (swapped first for a negative exponent).  A
        pair is divided by its gcd only once its denominator passes
        _PAIR_BITS bits.  Returns the roots' pairs and the mask of points
        where a zero base meets a negative power anywhere in the program;
        the pairs mean nothing there.
        """
        size = len(points)
        undefined = np.zeros(size, dtype=bool)
        vals = []
        for op, payload, args in self.code:
            if op == _PRODUCT:
                n, d = vals[args[0]]
                for a in args[1:]:
                    an, ad = vals[a]
                    n, d = n * an, d * ad
            elif op == _SUM:
                n, d = vals[args[0]]
                for a in args[1:]:
                    an, ad = vals[a]
                    if isinstance(d, int) and isinstance(ad, int) and ad == d:
                        n = n + an
                    else:
                        n, d = n * ad + an * d, d * ad
            elif op == _VAR:
                column = [p[payload] for p in points]
                d = math.lcm(*[v.denominator for v in column])
                n = np.array([v.numerator * (d // v.denominator) for v in column], dtype=object)
            elif op == _CONST:
                n, d = np.full(size, payload.numerator, dtype=object), payload.denominator
            elif op == _POW and payload.denominator == 1:
                n, d = vals[args[0]]
                k = payload.numerator
                if k < 0:
                    zero = n == 0
                    undefined |= zero
                    swapped = np.full(size, d, dtype=object) if isinstance(d, int) else d
                    n, d, k = swapped, np.where(zero, 1, n), -k
                n, d = n ** k, d ** k
            else:
                raise TypeError("run_exact needs a rational program")
            if isinstance(d, int):
                if d.bit_length() > _PAIR_BITS:
                    g = math.gcd(d, *n)
                    n, d = n // g, d // g
            elif any(b.bit_length() > _PAIR_BITS for b in d):
                g = np.gcd(n, d)
                n, d = n // g, d // g
            vals.append((n, d))
        return tuple([vals[r] for r in self.roots]), undefined

    def beyond_float(self) -> bool:
        """Whether a constant lies beyond float range, so run_float skips every point."""
        try:
            for op, payload, _ in self.code:
                if op == _CONST:
                    float(payload)
        except OverflowError:
            return True
        return False

    def run_float(self, columns: Mapping[str, np.ndarray], n: int):
        """(value, scale, skip) at n points at once, in float64.

        columns holds each free variable's values at the points.  scale is the
        magnitude of the largest top-level summand.  skip marks the points
        where evaluate raises DomainError (a negative base under a fractional
        power, a zero base under a negative power, log of a non-positive
        value, overflow of a power or exp) or the value is not finite; a
        constant beyond float range is not finite, so it marks every point.
        """
        skip = np.zeros(n, dtype=bool)
        vals = []
        with np.errstate(all="ignore"):
            for op, payload, args in self.code:
                if op == _PRODUCT:
                    v = vals[args[0]]
                    for a in args[1:]:
                        v = v * vals[a]
                elif op == _SUM:
                    v = vals[args[0]]
                    for a in args[1:]:
                        v = v + vals[a]
                elif op == _VAR:
                    v = columns[payload]
                elif op == _CONST:
                    try:
                        v = np.full(n, float(payload))
                    except OverflowError:
                        v = np.full(n, np.nan)
                        skip[:] = True
                elif op == _POW:
                    base = vals[args[0]]
                    if payload.denominator != 1:
                        skip |= base < 0
                    if payload < 0:
                        skip |= base == 0
                    v = np.power(base, float(payload))
                    skip |= np.isinf(v) & np.isfinite(base)
                elif op == _EXP:
                    arg = vals[args[0]]
                    v = np.exp(arg)
                    skip |= np.isinf(v) & np.isfinite(arg)
                else:
                    arg = vals[args[0]]
                    skip |= arg <= 0
                    v = np.log(arg)
                vals.append(v)
            value = vals[self.roots[-1]]
            scale = np.abs(vals[self.summands[0]])
            for s in self.summands[1:]:
                scale = np.maximum(scale, np.abs(vals[s]))
        skip |= ~np.isfinite(value)
        return value, scale, skip


def compile_expr(e: ScalarExpr) -> Program:
    """Compile e in one pass, giving equal subtrees one shared instruction."""
    return compile_exprs([e])


def compile_exprs(exprs: Sequence[ScalarExpr]) -> Program:
    """Compile several expressions into one program over one shared table.

    A node's structural key is its op, its payload and the instruction
    indices of its children, so equal subtrees built separately, within one
    root or across roots, meet in one key.  The tables live only for this
    call.
    """
    code: list[tuple] = []
    index, seen = {}, {}
    roots = tuple(_emit(e, code, index, seen) for e in exprs)
    names = frozenset(payload for op, payload, _ in code if op == _VAR)
    rational = all(op in (_CONST, _VAR, _SUM, _PRODUCT)
                   or (op == _POW and payload.denominator == 1)
                   for op, payload, _ in code)
    summands = code[roots[-1]][2] if exprs and isinstance(exprs[-1], Sum) else roots[-1:]
    return Program(tuple(code), roots, summands, names, rational)


def _emit(node: ScalarExpr, code: list, index: dict, seen: dict) -> int:
    """The instruction computing node, appending it and its children to code.

    index maps structural keys to instructions; seen maps id(node) to its
    instruction, so a node object shared within the tree is keyed once.
    """
    i = seen.get(id(node))
    if i is not None:
        return i
    if isinstance(node, Product):
        key = (_PRODUCT, None, tuple([_emit(f, code, index, seen) for f in node.factors]))
    elif isinstance(node, Sum):
        key = (_SUM, None, tuple([_emit(t, code, index, seen) for t in node.terms]))
    elif isinstance(node, Var):
        key = (_VAR, node.name, ())
    elif isinstance(node, Rational):
        key = (_CONST, node.value, ())
    elif isinstance(node, Pow):
        key = (_POW, node.exponent, (_emit(node.base, code, index, seen),))
    elif isinstance(node, Exp):
        key = (_EXP, None, (_emit(node.arg, code, index, seen),))
    elif isinstance(node, Log):
        key = (_LOG, None, (_emit(node.arg, code, index, seen),))
    else:
        raise TypeError(f"unknown node {node!r}")
    i = index.get(key)
    if i is None:
        i = index[key] = len(code)
        code.append(key)
    seen[id(node)] = i
    return i


# ---------------------------------------------------------------------------
# substitution

def substitute(e: ScalarExpr, bindings: Mapping[str, ExprLike]) -> ScalarExpr:
    """Simultaneous substitution of expressions for variables.

    All replacements refer to the original expression: substitute(x+y, {x: y,
    y: x}) swaps the two variables rather than chaining.
    """
    if not bindings:
        return e
    exprs = {name: as_expr(val) for name, val in bindings.items()}
    return _subs(e, exprs)


def _subs(e: ScalarExpr, bindings: Mapping[str, ScalarExpr]) -> ScalarExpr:
    if isinstance(e, Rational):
        return e
    if isinstance(e, Var):
        return bindings.get(e.name, e)
    if isinstance(e, Sum):
        return Sum.make(tuple(_subs(t, bindings) for t in e.terms))
    if isinstance(e, Product):
        return Product.make(tuple(_subs(f, bindings) for f in e.factors))
    if isinstance(e, Pow):
        return Pow.make(_subs(e.base, bindings), e.exponent)
    if isinstance(e, Exp):
        return Exp.make(_subs(e.arg, bindings))
    if isinstance(e, Log):
        return Log.make(_subs(e.arg, bindings))
    return e


# ---------------------------------------------------------------------------
# parsing

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_FUNCTIONS = {"exp": exp, "log": log, "sqrt": sqrt}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if c in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", text, i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def build(self, at: int, make, *args) -> ScalarExpr:
        """make(*args) for the operator or function at column at; a constant
        it cannot build (1/0, log(0)) is a ParseError there, not a
        DomainError left for the run."""
        try:
            return make(*args)
        except DomainError as err:
            raise ParseError(str(err), self.text, at) from None

    def expect_op(self, op: str):
        kind, val, at = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}", self.text, at)
        return self.advance()

    def parse(self) -> ScalarExpr:
        e = self.parse_sum()
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {val!r}", self.text, at)
        return e

    def parse_sum(self) -> ScalarExpr:
        terms = [self.parse_term()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                t = self.parse_term()
                terms.append(t if val == "+" else -t)
            else:
                return Sum.make(tuple(terms))

    def parse_term(self) -> ScalarExpr:
        factors = [self.parse_unary()]
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                f = self.parse_unary()
                factors.append(f if val == "*" else self.build(at, Pow.make, f, Fraction(-1)))
            else:
                return Product.make(tuple(factors))

    def parse_unary(self) -> ScalarExpr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return -self.parse_unary()
        if kind == "op" and val == "+":
            self.advance()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> ScalarExpr:
        base = self.parse_atom()
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            exponent = self.parse_unary()
            if not isinstance(exponent, Rational):
                raise ParseError("exponent must reduce to an exact rational", self.text, at)
            return self.build(at, Pow.make, base, exponent.value)
        return base

    def parse_atom(self) -> ScalarExpr:
        kind, val, at = self.advance()
        if kind == "num":
            if "." in val:
                return Rational(Fraction(val))
            return Rational(Fraction(int(val)))
        if kind == "ident":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "(":
                if val not in _FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", self.text, at)
                self.advance()
                arg = self.parse_sum()
                self.expect_op(")")
                return self.build(at, _FUNCTIONS[val], arg)
            return Var(val)
        if kind == "op" and val == "(":
            e = self.parse_sum()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected {val or 'end of input'!r}", self.text, at)


def parse_expr(text: str) -> ScalarExpr:
    """Parse infix expression text: + - * / ^, exp(), log(), sqrt(), rationals p/q."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# rendering

_PREC_SUM, _PREC_PROD, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _render(e: ScalarExpr, parent_prec: int) -> str:
    if isinstance(e, Rational):
        v = e.value
        s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        prec = _PREC_ATOM if (v.denominator == 1 and v.numerator >= 0) else _PREC_PROD
        return f"({s})" if prec < parent_prec else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Sum):
        parts = [_render(e.terms[0], _PREC_SUM)]
        for t in e.terms[1:]:
            neg = _negated(t)
            if neg is not None:
                parts.append(f" - {_render(neg, _PREC_PROD)}")
            else:
                parts.append(f" + {_render(t, _PREC_SUM)}")
        s = "".join(parts)
        return f"({s})" if _PREC_SUM < parent_prec else s
    if isinstance(e, Product):
        factors = e.factors
        prefix = ""
        if isinstance(factors[0], Rational) and factors[0].value == -1 and len(factors) > 1:
            prefix = "-"
            factors = factors[1:]
        s = prefix + "*".join(_render(f, _PREC_POW) for f in factors)
        wrap = _PREC_PROD < parent_prec or (prefix and parent_prec > _PREC_SUM)
        return f"({s})" if wrap else s
    if isinstance(e, Pow):
        ex = e.exponent
        es = str(ex.numerator) if ex.denominator == 1 else f"({ex.numerator}/{ex.denominator})"
        s = f"{_render(e.base, _PREC_ATOM)}^{es}"
        return f"({s})" if _PREC_POW < parent_prec else s
    if isinstance(e, Exp):
        return f"exp({_render(e.arg, 0)})"
    if isinstance(e, Log):
        return f"log({_render(e.arg, 0)})"
    raise TypeError(f"unknown node {e!r}")


def _negated(t: ScalarExpr):
    """If t is (-1)*rest or a negative constant, return its negation, else None."""
    if isinstance(t, Rational) and t.value < 0:
        return Rational(-t.value)
    if isinstance(t, Product) and isinstance(t.factors[0], Rational) and t.factors[0].value < 0:
        first = Rational(-t.factors[0].value)
        return Product.make((first,) + t.factors[1:])
    return None
