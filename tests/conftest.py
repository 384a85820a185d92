"""Shared fixtures and random generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from kontact.bjorken import expansion_scalar
from kontact.config import RunConfig
from kontact.errors import DomainError
from kontact.expr import ZERO, Rational, ScalarExpr, Var, differentiate, evaluate, log, sqrt
from kontact.forms import (Chart, DifferentialForm, VectorField, exterior_derivative,
                           interior_product)
from kontact.hydro import spatial_projector
from kontact.kcontact import KContactStructure


@pytest.fixture
def config():
    return RunConfig()


@pytest.fixture
def fast_config():
    """Fewer sample points for structural identities that hold exactly."""
    return RunConfig(n_sample_points=16)


def rand_rational(rng: random.Random, lo=-3, hi=3, denom=4) -> Fraction:
    return Fraction(rng.randint(lo * denom, hi * denom), denom)


def rand_expr(rng: random.Random, names, depth: int = 2,
              transcendental: bool = False) -> ScalarExpr:
    """A random expression; polynomial by default, everywhere defined."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Rational(rand_rational(rng))
        return Var(rng.choice(names))
    roll = rng.random()
    if roll < 0.35:
        return (rand_expr(rng, names, depth - 1, transcendental)
                + rand_expr(rng, names, depth - 1, transcendental))
    if roll < 0.7:
        return (rand_expr(rng, names, depth - 1, transcendental)
                * rand_expr(rng, names, depth - 1, transcendental))
    if roll < 0.85:
        return rand_expr(rng, names, depth - 1, transcendental) ** rng.randint(2, 3)
    if transcendental:
        inner = rand_expr(rng, names, depth - 1, False)
        if roll < 0.93:
            from kontact.expr import exp

            return exp(Rational(Fraction(1, 4)) * Var(rng.choice(names)))
        from kontact.expr import log

        return log(inner * inner + 1)
    return (rand_expr(rng, names, depth - 1)
            - rand_expr(rng, names, depth - 1))


def with_singular_tops(e, *exponents, take_log=False):
    """e, then e raised to each exponent, then log(e), where these can be built."""
    builds = [lambda b, q=q: b ** q for q in exponents] + ([log] if take_log else [])
    out = [e]
    for build in builds:
        try:
            out.append(build(e))
        except DomainError:  # folded to a constant outside the domain
            pass
    return out


def rand_chart(rng: random.Random, dim: int) -> Chart:
    return Chart([f"x_{i}" for i in range(dim)])


def rand_form(rng: random.Random, chart: Chart, degree: int,
              n_terms: int = 2, depth: int = 2) -> DifferentialForm:
    names = list(chart.coords)
    coeffs = {}
    for _ in range(n_terms):
        key = tuple(sorted(rng.sample(range(chart.dim), degree)))
        coeffs[key] = rand_expr(rng, names, depth)
    return DifferentialForm(chart, degree, coeffs)


def lie_derivative(X: VectorField, a: DifferentialForm) -> DifferentialForm:
    """L_X a by Cartan's formula, iota_X da + d(iota_X a); X(f) on a 0-form f."""
    da_part = interior_product(X, exterior_derivative(a))
    if a.degree == 0:
        return da_part
    return da_part + exterior_derivative(interior_product(X, a))


def expression_pivot_structure() -> KContactStructure:
    """eta = x ds - dy with x > 0: the Reeb elimination divides by x."""
    ch = Chart(["s", "x", "y"], constraints=[Var("x")],
               ranges={"x": (Fraction(1, 2), Fraction(2))})
    return KContactStructure([DifferentialForm(ch, 1, {(0,): "x", (2,): -1})])


def dense_structure_matrices(s: KContactStructure, point) -> np.ndarray:
    """The HdDW matrix [deta^T; eta] (-0.0 turned into 0.0) from every entry
    of the eta and stacked d-eta matrices evaluated as a tree: the oracle of
    kcontact.matrix_entries' layout."""
    dim = s.dim
    eta = [[f.coeffs.get((i,), ZERO) for i in range(dim)] for f in s.eta]
    deta = []
    for d in s.d_eta:
        B = [[ZERO] * dim for _ in range(dim)]
        for (i, j), c in d.coeffs.items():
            B[i][j] = c
            B[j][i] = -c
        deta.extend(B)

    def ev(rows):
        return np.array([[float(evaluate(e, point)) for e in row] for row in rows])

    return np.vstack([ev(deta).T, ev(eta).reshape(1, -1)]) + 0.0


class SlabFlow:
    """A non-boost-invariant shear flow u = (sqrt(1+x^2), x, 0, 0) on (t, x).

    Only the duck-typed surface the shear machinery needs: u, delta, theta,
    d(), chart.  axes maps each spacetime index mu the flow depends on to
    its chart coordinate.
    """

    axes = {0: "t", 1: "x"}

    def __init__(self):
        self.chart = Chart(["t", "x"], ranges={"x": (Fraction(1, 4), Fraction(1))})
        x = Var("x")
        self.set_velocity((sqrt(1 + x * x), x, ZERO, ZERO))

    def set_velocity(self, u):
        self.u = u
        self.delta = spatial_projector(u)
        self.theta = expansion_scalar(self)

    def d(self, e, mu):
        return differentiate(e, self.axes[mu]) if mu in self.axes else ZERO


class PlaneFlow(SlabFlow):
    """u = (sqrt(1+x^2+y^2), x, y, 0): two independent expansion directions."""

    axes = {1: "x", 2: "y"}

    def __init__(self):
        q = (Fraction(1, 4), Fraction(1))
        self.chart = Chart(["x", "y"], ranges={"x": q, "y": q})
        x, y = Var("x"), Var("y")
        self.set_velocity((sqrt(1 + x * x + y * y), x, y, ZERO))
