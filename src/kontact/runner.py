"""Generated float evaluators for expressions evaluated at many points.

float_runner writes an expr.Program out as straight-line Python source and
exec's it once, in the manner of sympy's lambdify; filler scatters a
runner's values into a flat array.  The owner of the expressions builds these on
first use and keeps them (a structure, a Hamiltonian system) or uses them
for one call; nothing is built at import time or cached beyond its owner.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DomainError
from .expr import (_CONST, _EXP, _POW, _PRODUCT, _SUM, _VAR, Program, ScalarExpr,
                   compile_exprs, evaluate)

__all__ = ["float_runner", "filler"]

_CHAIN = 100  # most terms or factors joined in one generated expression


def float_runner(exprs: Sequence[ScalarExpr]) -> Callable[[Mapping], tuple]:
    """A function point -> (float(evaluate(e, point)) for e in exprs).

    compile_exprs(exprs) is written out as straight-line Python source, one
    assignment per distinct subtree, and exec'd once.  Point values are cast
    to float.  Constant subtrees are folded as exactly as evaluate keeps them
    (a run of rational terms or factors is one Fraction until a float meets
    it), so at float points the values equal evaluate's bit for bit.  Where
    the source raises ValueError, ZeroDivisionError, OverflowError or
    KeyError, the point is re-run through evaluate, which returns its values
    or raises its own DomainError; an exact value beyond float range raises
    DomainError too.
    """
    exprs = tuple(exprs)

    def fallback(point):
        values = [evaluate(e, point) for e in exprs]
        try:
            return tuple(float(v) for v in values)
        except OverflowError:
            raise DomainError("value beyond float range") from None

    try:
        source = _runner_source(compile_exprs(exprs))
    except OverflowError:  # a constant beyond float range; evaluate raises there
        return fallback
    namespace = {"_exp": math.exp, "_log": math.log, "_fallback": fallback}
    exec(source, namespace)
    # popped, so that namespace and _run (whose globals it is) form no cycle
    # and are freed with their owner, not at the next full collection
    return namespace.pop("_run")


def _runner_source(program: Program) -> str:
    """The source of _run(p) for program; names enter it only through repr."""
    exact: dict[int, Fraction] = {}  # instructions whose value evaluate keeps exact

    def ref(i: int) -> str:
        return f"({float(exact[i])!r})" if i in exact else f"_{i}"

    lines = []
    for i, (op, payload, args) in enumerate(program.code):
        if op == _CONST:
            exact[i] = payload
            continue
        if op == _VAR:
            lines.append(f"_{i} = float(p[{payload!r}])")
        elif op in (_SUM, _PRODUCT):
            acc = Fraction(0) if op == _SUM else Fraction(1)
            j = 0
            while j < len(args) and args[j] in exact:
                acc = acc + exact[args[j]] if op == _SUM else acc * exact[args[j]]
                j += 1
            if j == len(args):
                exact[i] = acc
                continue
            # evaluate starts from Fraction(0) or Fraction(1): the sum keeps the
            # 0.0, which turns -0.0 into 0.0; x * 1.0 is x, so the product drops it
            terms = [ref(a) for a in args[j:]]
            if op == _SUM or acc != 1:
                terms.insert(0, f"({float(acc)!r})")
            # left to right as evaluate folds, a line of at most _CHAIN terms
            # at a time: one long chain overflows the compiler's recursion
            sep = " + " if op == _SUM else " * "
            lines.append(f"_{i} = " + sep.join(terms[:_CHAIN]))
            lines.extend(f"_{i} = _{i}{sep}" + sep.join(terms[k:k + _CHAIN])
                         for k in range(_CHAIN, len(terms), _CHAIN))
        elif op == _POW and payload.denominator == 1:
            base = args[0]
            if base in exact and (exact[base] != 0 or payload > 0):
                exact[i] = exact[base] ** int(payload)
                continue
            lines.append(f"_{i} = {ref(base)} ** {int(payload)}")
        elif op == _POW:
            lines.append(f"if {ref(args[0])} < 0.0: raise ValueError")
            lines.append(f"_{i} = {ref(args[0])} ** {float(payload)!r}")
        else:
            lines.append(f"_{i} = {'_exp' if op == _EXP else '_log'}({ref(args[0])})")
    lines.append(f"return ({''.join(ref(r) + ', ' for r in program.roots)})")
    body = "".join(f"        {line}\n" for line in lines)
    return ("def _run(p):\n    try:\n" + body
            + "    except (ValueError, ZeroDivisionError, OverflowError, KeyError):\n"
            + "        return _fallback(p)\n")


def filler(size: int, entries: Sequence[tuple]) -> Callable[[Mapping], np.ndarray]:
    """A function point -> a new flat array of the given size that holds, at
    each (position, expression) entry's position, the expression's value
    plus 0.0 (which turns -0.0 into 0.0), and zero elsewhere; one float
    runner evaluates every expression."""
    at, exprs = zip(*entries) if entries else ((), ())
    at = np.array(at, dtype=np.intp)
    run = float_runner(exprs)

    def fill(point):
        values = np.array(run(point))
        values += 0.0
        out = np.zeros(size)
        out[at] = values
        return out

    return fill
