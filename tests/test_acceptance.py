"""Acceptance suite: ten end-to-end criteria, one test and one printed verdict each.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

from kontact.cli import main
from kontact.config import RunConfig
from kontact.expr import ONE, Rational, Var, ZERO, parse_expr
from kontact.forms import (
    Chart,
    SmoothMap,
    exterior_derivative,
    parameter_chart,
    pullback,
    wedge,
)
from kontact.hddw import (
    KContactHamiltonianSystem,
    check_constrained_solution,
    expected_nullspace_dim,
    solve_hddw_at_point,
)
from kontact.hydro import (
    equilibrium_conditions_residual,
    equilibrium_legendrian,
    hydro_chart,
    hydro_kcontact_form,
    hydro_polarization,
    hydro_system,
)
from kontact.idealgas import ideal_gas_energy, run_isentropic
from kontact.kcontact import (
    canonical_structure,
    check_polarization,
    compute_reeb,
    lie_bracket,
    verify_kcontact,
)
from kontact.legendrian import (
    ParametrizingKFunction,
    build_parametrization,
    thermo_parametrization,
    thermo_structure,
)
from kontact.bjorken import full_pgt_demo
from kontact.zerotest import PASS, zero_check, zero_test

from conftest import rand_chart, rand_form

CONFIG = RunConfig(seed=42, n_sample_points=16)


def report(number: int, description: str, ok: bool, extra: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{extra}]" if extra else ""
    print(f"ACCEPTANCE {number:2d}: {verdict} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}"


def max_residual_of(form, domain, config=CONFIG) -> tuple[bool, float]:
    check = zero_check("coefficients", list(form.coeffs.values()), domain, config)
    return check.verdict == PASS, check.max_residual


def test_criterion_01_exterior_calculus_laws():
    started = time.perf_counter()
    rng = random.Random(42)
    worst = 0.0
    n_forms = 0
    ok = True

    for i in range(80):  # d^2 = 0
        ch = rand_chart(rng, rng.randint(2, 8))
        a = rand_form(rng, ch, rng.randint(0, 2), depth=2)
        n_forms += 1
        good, res = max_residual_of(exterior_derivative(exterior_derivative(a)),
                                    ch)
        ok, worst = ok and good, max(worst, res)

    for i in range(70):  # graded Leibniz
        ch = rand_chart(rng, rng.randint(2, 8))
        p = rng.randint(0, 2)
        a = rand_form(rng, ch, p, depth=2)
        b = rand_form(rng, ch, rng.randint(0, 2), depth=2)
        n_forms += 2
        lhs = exterior_derivative(wedge(a, b))
        rhs = wedge(exterior_derivative(a), b)
        rhs = rhs + wedge(a, exterior_derivative(b)) if p % 2 == 0 \
            else rhs - wedge(a, exterior_derivative(b))
        good, res = max_residual_of(lhs - rhs, ch)
        ok, worst = ok and good, max(worst, res)

    for i in range(55):  # pullback naturality
        src = rand_chart(rng, rng.randint(2, 4))
        dst = Chart([f"y_{j}" for j in range(rng.randint(2, 5))])
        from conftest import rand_expr

        phi = SmoothMap(src, dst, [rand_expr(rng, list(src.coords), depth=2)
                                   for _ in range(dst.dim)])
        a = rand_form(rng, dst, rng.randint(0, 2), depth=2)
        n_forms += 1
        diff = pullback(phi, exterior_derivative(a)) \
            - exterior_derivative(pullback(phi, a))
        good, res = max_residual_of(diff, src)
        ok, worst = ok and good, max(worst, res)

    elapsed = time.perf_counter() - started
    report(1, "d^2=0, graded Leibniz, pullback naturality on randomized forms",
           ok and worst < 1e-10 and n_forms >= 200 and elapsed < 30.0,
           f"{n_forms} forms, max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_reeb_reproduction():
    started = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            s = canonical_structure(n, k)
            frame = compute_reeb(s, CONFIG)
            for a in range(k):
                for i, c in enumerate(frame[a].components):
                    want = ONE if i == a else ZERO
                    ok = ok and (c == want)
            for a in range(k):
                for b in range(a + 1, k):
                    br = lie_bracket(frame[a], frame[b])
                    ok = ok and all(c == ZERO for c in br.components)
    elapsed = time.perf_counter() - started
    report(2, "canonical Reeb frames are exactly the coordinate frame and commute",
           ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_03_hydro_structure():
    started = time.perf_counter()
    s = hydro_kcontact_form(4)
    ok = all(c.verdict == PASS for c in verify_kcontact(s, n_points=100, config=CONFIG))
    frame = compute_reeb(s, CONFIG)
    for m in range(4):
        comps = frame[m].components
        ok = ok and comps[s.chart.index(f"S_{m}")] == ONE
        ok = ok and sum(1 for c in comps if c != ZERO) == 1
    fields = hydro_polarization(4)
    ok = ok and len(fields) == 24
    ok = ok and check_polarization(s, fields, n_points=10, config=CONFIG).verdict == PASS
    elapsed = time.perf_counter() - started
    report(3, "hydro k=4 passes all defining conditions at 100 points; "
              "Reeb frame d/dS; polarization rank 24",
           ok and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_04_nullspace_dimensions():
    started = time.perf_counter()
    rng = random.Random(42)
    ok = True
    observed = {}
    cases = [
        ("canonical(1,1)", KContactHamiltonianSystem(canonical_structure(1, 1), 0), 0),
        ("canonical(1,2)", KContactHamiltonianSystem(canonical_structure(1, 2), 0), 6),
        ("hydro4", hydro_system(4), 105),
    ]
    for name, sys_, frozen in cases:
        s = sys_.structure
        formula = expected_nullspace_dim(s.k, s.dim)
        assert formula == frozen  # the oracle and the frozen integer agree
        dims = set()
        for _ in range(20):
            p = {c: rng.uniform(0.4, 1.6) for c in s.chart.coords}
            sol = solve_hddw_at_point(sys_, p)
            dims.add(sol.nullspace_dim)
        observed[name] = sorted(dims)
        ok = ok and dims == {frozen}
    elapsed = time.perf_counter() - started
    report(4, "pointwise nullspace dimensions match (k-1)(dim-k) + k^2 - 1 exactly",
           ok and elapsed < 60.0,
           f"{observed}, {elapsed:.1f}s")


def test_criterion_05_legendrian_isotropy_and_gibbs():
    worst = 0.0
    ok = True

    # ideal-gas generating function: pullback of the first-law form vanishes
    phi = thermo_parametrization(ideal_gas_energy(Fraction(3, 2)))
    ts = thermo_structure()
    for w in list(ts.eta) + list(ts.d_eta):
        good, res = max_residual_of(pullback(phi, w), phi.source)
        ok, worst = ok and good, max(worst, res)

    # a compatible k=4 family F^alpha = p^alpha_1 f(q_2)
    kf = ParametrizingKFunction(2, 4, [1],
                                [f"p_{a}_1 * (q_2^2 + 1)" for a in (1, 2, 3, 4)])
    s4 = canonical_structure(2, 4)
    L = build_parametrization(kf, s4)
    dom = L.source
    for w in list(s4.eta) + list(s4.d_eta):
        good, res = max_residual_of(pullback(L, w), dom)
        ok, worst = ok and good, max(worst, res)

    # Gibbs equality for a degree-1 homogeneous generating function
    f = parse_expr("3/2 * S^(1/3) * V^(1/3) * N^(1/3)")
    gibbs_phi = thermo_parametrization(f)
    comp = gibbs_phi.bindings()
    gibbs = (comp["E"] + comp["P"] * comp["V"]
             - comp["T"] * comp["S"] - comp["mu"] * comp["N"])
    res = zero_test(gibbs, gibbs_phi.source, CONFIG)
    ok = ok and res.is_zero
    worst = max(worst, res.max_abs)

    report(5, "isotropy pullbacks and Gibbs equality within 1e-9",
           ok and worst < 1e-9, f"max residual {worst:.2e}")


def test_criterion_06_ideal_gas_flow():
    traj = run_isentropic(cv=Fraction(3, 2), t_end=1.0, dt=1e-3)
    S, N, V = traj.column("S"), traj.column("N"), traj.column("V")
    s_drift = max(abs(v - S[0]) for v in S) / abs(S[0])
    n_drift = max(abs(v - N[0]) for v in N) / abs(N[0])
    v_err = max(abs(v - V[0] * math.exp(t)) / (V[0] * math.exp(t))
                for v, t in zip(V, traj.times))
    ok = s_drift <= 1e-6 and n_drift <= 1e-6 and v_err <= 1e-6

    def closed_form_error(dt):
        t = run_isentropic(cv=Fraction(3, 2), t_end=1.0, dt=dt)
        return max(abs(v - math.exp(tt)) for v, tt in zip(t.column("V"), t.times))

    ratio = closed_form_error(0.1) / closed_form_error(0.05)
    ok = ok and 8.0 <= ratio <= 32.0
    report(6, "isentropic flow: S, N constant, V = V0 e^t to 1e-6; 4th-order band",
           ok, f"S drift {s_drift:.1e}, V err {v_err:.1e}, halving ratio {ratio:.1f}")


def test_criterion_07_equilibrium_conditions():
    k = 4
    ch = hydro_chart(k)
    src = parameter_chart(k)
    constant = SmoothMap(src, ch, [Rational(Fraction(i + 1, 5))
                                   for i in range(ch.dim)])
    rep = equilibrium_conditions_residual(constant, k, CONFIG)
    ok = rep.verdict == PASS and rep.detail["agrees_with_hddw"]
    ok = ok and all(f["max_abs"] == 0.0 for f in rep.detail["families"].values())

    comps = {c: Rational(Fraction(1)) for c in ch.coords}
    comps["xi"] = Var("t_0")
    perturbed = SmoothMap(src, ch, [comps[c] for c in ch.coords])
    rep2 = equilibrium_conditions_residual(perturbed, k, CONFIG).detail
    failing = [name for name, f in rep2["families"].items() if not f["pass"]]
    ok = ok and failing == ["d_xi"] and rep2["agrees_with_hddw"]
    report(7, "constant hydro sections are exact equilibria; linear xi flagged "
              "in exactly the d_xi family", ok)


def test_criterion_08_bjorken_identities():
    started = time.perf_counter()
    main_run = full_pgt_demo(gamma="gamma", I="T^3",
                             config=RunConfig(seed=42, n_sample_points=64))[-1]
    ok = main_run.verdict == PASS and main_run.max_residual < 1e-10
    worst = main_run.max_residual
    for I in ("exp(T)", "5/4"):
        rep = full_pgt_demo(gamma="gamma", I=I, config=CONFIG)[-1]
        ok = ok and rep.verdict == PASS and rep.max_residual < 1e-10
        worst = max(worst, rep.max_residual)
    elapsed = time.perf_counter() - started
    report(8, "boost-invariant identities and entropy-production invariance "
              "for symbolic gamma and I in {T^3, exp(T), const}",
           ok and elapsed < 60.0, f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_09_constrained_solution_counting():
    sys_ = hydro_system(4, 0, config=CONFIG)
    L = equilibrium_legendrian(4)
    assert L.source.dim == 6
    rep = check_constrained_solution(sys_, L, n_points=5)
    ok = (rep.verdict == PASS and rep.detail["H_vanishes_on_L"] and rep.detail["feasible"]
          and rep.detail["constrained_nullspace_dim"] == 0
          and rep.detail["expected_pseudo_gauge_dof"] == 0)
    report(9, "hydro equilibrium family: H vanishes, tangent solution exists "
              "and is unique (0 remaining gauge freedom)", ok)


def test_criterion_10_determinism(tmp_path):
    commands = [
        ["verify-structure", "--builtin", "canonical:2,2", "--points", "5"],
        ["verify-structure", "--builtin", "hydro4", "--points", "5"],
        ["hddw", "--builtin", "canonical:1,2"],
        ["hddw", "--builtin", "hydro4"],
        ["legendrian", None],  # patched below with a file
        ["ideal-gas", "--t-end", "0.05", "--dt", "0.01"],
        ["bjorken", "--gamma", "gamma", "--I", "T^3"],
    ]
    kf_path = tmp_path / "kf.json"
    kf_path.write_text(json.dumps(
        {"n": 2, "k": 2, "I": [1], "F": ["p_1_1 * q_2", "p_2_1 * q_2"]}))
    commands[4] = ["legendrian", str(kf_path)]

    ok = True
    for idx, argv in enumerate(commands):
        a = tmp_path / f"{idx}_a.json"
        b = tmp_path / f"{idx}_b.json"
        common = ["--seed", "42", "--samples", "16", "--no-timestamp"]
        code_a = main(argv + common + ["--json", str(a)])
        code_b = main(argv + common + ["--json", str(b)])
        ok = ok and code_a == 0 and code_b == 0 and a.read_bytes() == b.read_bytes()
    report(10, "seed-42 reruns produce byte-identical JSON reports", ok)
