"""Seeded job lists for the three benchmark workloads.

A job is one ``kontact`` command line plus the answer the mathematics gives
for it (see expected.py).  The workload seed fixes every generated value:
sampling seeds, rational parameters, polynomials and initial states.  The
kind, size and order of the jobs are fixed per workload, so run time depends
on the code under test rather than on the seed; in particular the first job
of each kind, which pays the process's warm-up, is the same for every seed.

Nothing here imports kontact: the program sees only the generated argv and
definition files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import expected as ex

WORKLOADS = ("structure", "identities", "flows")


@dataclass(frozen=True)
class Job:
    argv: tuple
    answer: ex.Answer
    # one job per subcommand is re-run to check byte-identical reports
    rerun: bool = False
    # one of the few longest jobs of its workload, which the runner times in
    # turns with the rest (see run.timed_run)
    heavy: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]


class _Gen:
    """Draws job parameters and writes definition files into ``workdir``."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = workdir
        self.n_reports = 0

    def seed(self) -> str:
        return str(self.rng.randrange(1, 10**6))

    def rational(self, lo: int, hi: int, denom: int = 8, nonzero: bool = False) -> Fraction:
        while True:
            r = Fraction(self.rng.randint(lo * denom, hi * denom), denom)
            if r or not nonzero:
                return r

    def grid(self, lo: Fraction, hi: Fraction, denom: int = 64) -> float:
        """A point of [lo, hi] on the 1/denom grid, exact as a float."""
        steps = int((hi - lo) * denom)
        return float(lo + Fraction(self.rng.randint(0, steps), denom))

    def write(self, name: str, data: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return str(path)

    def job(self, argv: list, answer: ex.Answer, rerun: bool = False,
            seed: str | None = None, heavy: bool = False) -> Job:
        """Every job writes a byte-stable JSON report the runner scores."""
        self.n_reports += 1
        report = str(self.workdir / f"report-{self.n_reports:03d}.json")
        return Job(tuple(argv) + ("--seed", seed or self.seed(), "--json", report,
                                  "--no-timestamp"), answer, rerun, heavy)


def _rat(r: Fraction) -> str:
    return str(r) if r >= 0 else f"({r})"


# ---------------------------------------------------------------------------
# structure: forms, symbolic construction, the symbolic Reeb solve

def canonical_structure_file(n: int, k: int, repeat_first_row: bool) -> dict:
    """eta^a = ds^a - sum_i p^a_i dq^i; optionally eta^k := eta^1."""
    coords = [f"s_{a}" for a in range(1, k + 1)] + [f"q_{i}" for i in range(1, n + 1)]
    coords += [f"p_{a}_{i}" for a in range(1, k + 1) for i in range(1, n + 1)]
    forms = {}
    for a in range(1, k + 1):
        row = 1 if repeat_first_row and a == k else a
        coeffs = {str(coords.index(f"s_{row}")): "1"}
        for i in range(1, n + 1):
            coeffs[str(coords.index(f"q_{i}"))] = f"-p_{row}_{i}"
        forms[f"eta{a}"] = {"degree": 1, "coeffs": coeffs}
    return {"chart": {"coords": coords}, "forms": forms,
            "eta": [f"eta{a}" for a in range(1, k + 1)]}


# Blocks of same-shape file jobs hold the job_s.p50 and job_s.tail ranks, so
# that neither falls in a gap between job sizes (see flows): (n, k, --points,
# number of jobs).  About as many jobs cost less than the median block as
# cost more, which centres it on the median.
MEDIAN_BLOCK = (3, 3, 20, 10)
TAIL_BLOCK = (4, 4, 40, 10)


# verify-structure on a chart of this dimension or more takes over half a
# second: hydro3, hydro4 and canonical:4,4, 3,4 and 4,3
HEAVY_DIM = 19


def _verify_and_reeb(g: _Gen, builtins) -> list[Job]:
    jobs = []
    for name, k, dim, polarized in builtins:
        jobs.append(g.job(["verify-structure", "--builtin", name], ex.kcontact(k, dim, polarized),
                          heavy=dim >= HEAVY_DIM))
        jobs.append(g.job(["reeb", "--builtin", name], ex.reeb()))
    return jobs


def _structure(g: _Gen) -> list[list[Job]]:
    named = _verify_and_reeb(g, [(f"hydro{k}", k, ex.hydro_dim(k), True) for k in (2, 3, 4)]
                             + [("thermo", 1, ex.THERMO_DIM, False)])
    canonical = _verify_and_reeb(g, [(f"canonical:{n},{k}", k, ex.canonical_dim(n, k), True)
                                     for n in range(1, 5) for k in range(1, 5)])
    files = []
    n, k = g.rng.randint(1, 3), g.rng.randint(1, 3)
    path = g.write("canonical.json", canonical_structure_file(n, k, False))
    files.append(g.job(["verify-structure", path],
                       ex.kcontact(k, ex.canonical_dim(n, k), False), rerun=True))
    files.append(g.job(["reeb", path], ex.reeb(), rerun=True))
    for d in range(2):
        n, k = g.rng.randint(1, 3), g.rng.randint(2, 3)
        path = g.write(f"degenerate-{d}.json", canonical_structure_file(n, k, True))
        files.append(g.job(["verify-structure", path], ex.degenerate(k, ex.canonical_dim(n, k))))
        files.append(g.job(["reeb", path], ex.reeb_degenerate()))
    blocks = []
    for n, k, points, count in (MEDIAN_BLOCK, TAIL_BLOCK):
        path = g.write(f"canonical-{n}-{k}.json", canonical_structure_file(n, k, False))
        blocks.append([g.job(["verify-structure", path, "--points", str(points)],
                             ex.kcontact(k, ex.canonical_dim(n, k), False))
                       for _ in range(count)])
    return [named, canonical, files] + blocks


# ---------------------------------------------------------------------------
# identities: the zero test on large shared trees, float and exact paths

# (I(T), rational gamma?, T-profile, samples) per bjorken job: the ROADMAP
# baseline at the default 64 samples, then 16-sample jobs.  Exact-rational
# evaluation cost moves by up to 30% with the sample points, and these jobs
# dominate the workload, so they sample with a fixed seed; the workload seed
# draws the rational gammas.
BJORKEN_SLOTS = (("T^3", False, "tau^(-1/3)", None), ("T^2", True, "tau^(-1/2)", 16),
                 ("exp(T)", False, "tau^(-1/2)", 16), ("5/4", True, "tau^(-1/3)", 16))
BJORKEN_SAMPLING_SEED = "42"

# (n, k, |I|) of the legendrian jobs.  The perturbed ones fail fast; the two
# blocks of same-shape linear-form ones, each spread over the whole pass, are
# centred on the job_s.p50 and job_s.tail ranks (see flows): with 4 bjorken
# jobs, 17 perturbed and 13 + 13 linear, N = 47, the median is rank 23 of
# the sorted job times and the tail rank 36.
LINEAR_BLOCKS = (((2, 2, 1), 13), ((3, 3, 2), 13))
PERTURBED_SHAPES = ((2, 2, 1), (3, 2, 2), (3, 3, 1), (3, 3, 2), (4, 2, 2))
PERTURBED_JOBS = 17


def _polynomial(g: _Gen, names: list) -> str:
    """c1 x^1 y^2 .. + c2 x^2 y^1 ..: a fixed shape with seeded rational coefficients."""
    terms = []
    for t in range(2):
        factors = [f"{v}^{1 + (t + i) % 2}" for i, v in enumerate(names)]
        terms.append("*".join([_rat(g.rational(-3, 3, 4, nonzero=True))] + factors))
    return " + ".join(terms)


def kfunction(g: _Gen, n: int, k: int, n_I: int, perturb: bool) -> dict:
    """F^a = sum_{i in I} p^a_i f^i(q_J) + g^a(q_J), plus c (p^a_i)^2 if perturbed."""
    I = sorted(g.rng.sample(range(1, n + 1), n_I))
    q = [f"q_{j}" for j in range(1, n + 1) if j not in I]
    f = {i: _polynomial(g, q) for i in I}
    F = []
    for a in range(1, k + 1):
        parts = [f"p_{a}_{i}*({f[i]})" for i in I] + [_polynomial(g, q)]
        F.append(" + ".join(parts))
    if perturb:
        a, i = g.rng.randint(1, k), g.rng.choice(I)
        F[a - 1] += f" + {_rat(g.rational(-3, 3, 4, nonzero=True))}*p_{a}_{i}^2"
    return {"n": n, "k": k, "I": I, "F": F}


def _identities(g: _Gen) -> list[list[Job]]:
    bjorken = []
    for I, rational_gamma, profile, samples in BJORKEN_SLOTS:
        gamma = g.rational(-3, 3, 7, nonzero=True) if rational_gamma else "gamma"
        argv = ["bjorken", "--I", I, f"--gamma={gamma}", "--T-profile", profile]
        argv += ["--samples", str(samples)] if samples else []
        bjorken.append(g.job(argv, ex.bjorken(), rerun=I == "5/4", seed=BJORKEN_SAMPLING_SEED,
                             heavy=True))

    def legendrian(name: str, n: int, k: int, n_I: int, perturb: bool, rerun: bool) -> Job:
        path = g.write(f"{name}.json", kfunction(g, n, k, n_I, perturb))
        answer = ex.legendrian_perturbed() if perturb else ex.legendrian_linear(n, k, n_I)
        return g.job(["legendrian", path], answer, rerun=rerun)

    linear = [[legendrian(f"linear-{b}-{i:02d}", *shape, False, b == i == 0)
               for i in range(count)] for b, (shape, count) in enumerate(LINEAR_BLOCKS)]
    perturbed = [legendrian(f"perturbed-{i:02d}", *PERTURBED_SHAPES[i % len(PERTURBED_SHAPES)],
                            True, False) for i in range(PERTURBED_JOBS)]
    return [bjorken, *linear, perturbed]


# ---------------------------------------------------------------------------
# flows: thousands of pointwise numeric solves over tiny coefficient trees

CVS = (Fraction(1), Fraction(3, 2), Fraction(5, 2), Fraction(7, 2))
IDEAL_GAS_STEPS = (500, 700, 850, 1000)
SYSTEM_STEPS = (600, 600)
CANONICAL_SHAPES = ((1, 1), (2, 2), (3, 3), (4, 4), (2, 3), (4, 1))
# Group sizes put the job_s.tail rank inside the hydro4 nullspace jobs and the
# job_s.p50 rank inside the section jobs, so that neither falls in a gap
# between job sizes, where it would jump with noise.
HYDRO4_NULLSPACE_JOBS = 8
SECTION_JOBS = 32


def hydro2_section(g: _Gen, linear_xi: bool) -> dict:
    """Constant components on hydro2; xi affine in t_0, t_1 if linear_xi."""
    names = ["S_0", "S_1", "P_0", "P_1", "N_0", "N_1", "beta_0", "beta_1",
             "T_0_0", "T_0_1", "T_1_0", "T_1_1"]
    comps = {name: str(g.rational(-2, 2)) for name in g.rng.sample(names, 6)}
    comps["V"] = str(g.rational(1, 2, 8))
    xi = str(g.rational(-2, 2))
    if linear_xi:
        slopes = [g.rational(-2, 2, 8, nonzero=True), g.rational(-2, 2, 8)]
        xi += "".join(f" + {_rat(c)}*t_{m}" for m, c in enumerate(slopes))
    comps["xi"] = xi
    return {"components": comps}


def system_file(cv: Fraction) -> dict:
    """The isentropic Hamiltonian -(P + dU/dV) V with U = V^(-1/cv) exp(S/(cv N))."""
    return {"structure": "thermo",
            "H": f"-(P - 1/({cv}) * V^(-1 - 1/({cv})) * exp(S / (({cv}) * N))) * V"}


def _flows(g: _Gen) -> list[list[Job]]:
    half, two = Fraction(1, 2), Fraction(2)
    ideal = []
    for steps, cv in zip(IDEAL_GAS_STEPS, g.rng.sample(CVS, len(CVS))):
        dt = g.rng.choice((1e-3, 2e-3))
        S0, V0, N0 = (g.grid(half, two) for _ in range(3))
        ideal.append(g.job(["ideal-gas", "--cv", str(cv), "--t-end", repr(steps * dt),
                            "--dt", repr(dt), "--s0", repr(S0), "--v0", repr(V0),
                            "--n0", repr(N0)], ex.ideal_gas(), rerun=steps == 500,
                           heavy=True))
    systems = []
    for idx, steps in enumerate(SYSTEM_STEPS):
        cv = g.rng.choice(CVS)
        dt = g.rng.choice((1e-3, 2e-3))
        S0, V0, N0 = (g.grid(half, two) for _ in range(3))
        system = g.write(f"system-{idx}.json", system_file(cv))
        x0 = json.dumps(ex.equilibrium_state(cv, S0, V0, N0))
        csv_path = str(g.workdir / f"flow-{idx}.csv")
        systems.append(g.job(["hddw", "--system", system, "--x0", x0, "--t-end",
                              repr(steps * dt), "--dt", repr(dt), "--csv", csv_path],
                             ex.system_flow(ex.Flow(csv_path, S0, V0, N0, dt)), heavy=True))

    def nullspace(name, k, dim, points):
        return g.job(["hddw", "--builtin", name, "--n-points", str(points)],
                     ex.nullspace(k, dim))

    hydro4 = [nullspace("hydro4", 4, ex.hydro_dim(4), 50) for _ in range(HYDRO4_NULLSPACE_JOBS)]
    spaces = [(f"hydro{k}", k, ex.hydro_dim(k)) for k in (2, 3) for _ in range(2)]
    spaces += [(f"canonical:{n},{k}", k, ex.canonical_dim(n, k)) for n, k in CANONICAL_SHAPES]
    others = [nullspace(name, k, dim, 20) for name, k, dim in spaces]
    sections = []
    for idx in range(SECTION_JOBS):
        linear = idx % 2 == 1
        path = g.write(f"section-{idx:02d}.json", hydro2_section(g, linear))
        sections.append(g.job(["hddw", "--builtin", "hydro2", "--section", path],
                              ex.section(2, ex.hydro_dim(2), linear), rerun=idx == 1))
    return [ideal, systems, hydro4, others, sections]


def _interleave(groups: list[list[Job]]) -> list[Job]:
    """Spread each group evenly over the job list, in an order fixed by the sizes.

    Machine speed drifts over seconds; spreading every kind of job over the
    whole pass lets the per-job statistics average over that drift.
    """
    keyed = [((i + 0.5) / len(group), gi, job)
             for gi, group in enumerate(groups) for i, job in enumerate(group)]
    return [job for _, _, job in sorted(keyed, key=lambda item: item[:2])]


_GENERATORS = {"structure": _structure, "identities": _identities, "flows": _flows}


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The workload's job list for this seed; writes its definition files."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _interleave(_GENERATORS[workload](_Gen(workload, seed, workdir)))
