"""Expected answers for benchmark jobs, derived by hand from the mathematics.

Nothing here is recorded from a run of the code under test. Each function
returns the answer for one family of inputs, with the reason it holds:

* ``hydroK``, ``canonical:n,k`` and ``thermo`` are k-contact: all three
  defining conditions hold at every point, the Reeb frame exists and
  commutes, and the listed polarizations are polarizations.
* A structure whose last eta row repeats the first is not k-contact: eta has
  rank k-1, the d-eta kernel contains every s^k and p^k_i direction
  (dimension k + n > k), d/ds^k lies in both kernels, and the Reeb equations
  eta^1(R_k) = 0, eta^k(R_k) = 1 contradict each other.
* The pointwise HdDW solution space has nullspace dimension
  (k-1)(dim-k) + k^2 - 1.
* Every Bjorken identity holds for any smooth I(T) and any profile T(tau).
* A linear-form k-function F^a = sum_i p^a_i f^i(q) + g^a(q) is compatible
  and generates an isotropic Legendrian of dimension n + (k-1)|I|.  Adding a
  nonzero multiple of (p^a_i)^2 to one component makes its momentum partial
  differ from the others, so compatibility fails.
* On hydro2, a constant section solves both field equations and every
  equilibrium family; a section whose only non-constant component is an
  affine xi with nonzero slope fails the field equations and only the
  ``d_xi`` family.
* The isentropic ideal-gas flow keeps S and N constant and has V = V0 e^t.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

PASS, FAIL = "pass", "fail"

STRUCTURE_CHECKS = ("corank_condition", "reeb_rank_condition", "trivial_intersection",
                    "reeb_frame", "reeb_commutation")
BJORKEN_CHECKS = ("theta_identity", "sigma_orthogonal", "sigma_traceless", "sigma_identity",
                  "superpotential_antisymmetry", "divergence_free_shift",
                  "entropy_production_before", "entropy_production_after",
                  "all_identities")
EQUILIBRIUM_FAMILIES = ("d_xi", "div_N", "div_P", "d_V", "d_beta", "div_T", "div_S")


@dataclass(frozen=True)
class Flow:
    """A trajectory CSV that must follow the isentropic closed form."""

    csv_path: str
    S0: float
    V0: float
    N0: float
    dt: float
    tol: float = 1e-6


@dataclass(frozen=True)
class Answer:
    """What a job must report.

    ``checks`` maps check names to verdicts; each must appear with that
    verdict (a report may carry further checks, whose failure would show in
    the exit code).  ``details`` maps check names to nested values that must
    appear in that check's detail object.
    """

    exit_code: int
    checks: dict
    details: dict = field(default_factory=dict)
    flow: Flow | None = None


def hydro_dim(k: int) -> int:
    """S^mu, P^mu, N^mu, beta_mu (4k), V and xi (2), T^{lambda mu} (k^2)."""
    return k * k + 4 * k + 2


def canonical_dim(n: int, k: int) -> int:
    """s^a (k), q^i (n), p^a_i (nk)."""
    return k + n + n * k


THERMO_DIM = 7  # E, S, V, N, T, P, mu


def nullspace_dim(k: int, dim: int) -> int:
    return (k - 1) * (dim - k) + k * k - 1


def kcontact(k: int, dim: int, polarization: bool) -> Answer:
    """verify-structure on a k-contact structure."""
    checks = dict.fromkeys(STRUCTURE_CHECKS, PASS)
    if polarization:
        checks["polarization"] = PASS
    return Answer(0, checks, {"corank_condition": {"k": k, "dim": dim}})


def degenerate(k: int, dim: int) -> Answer:
    """verify-structure on a structure whose last eta row repeats the first."""
    checks = {name: FAIL for name in STRUCTURE_CHECKS[:4]}
    return Answer(1, checks, {"corank_condition": {"k": k, "dim": dim}})


def reeb() -> Answer:
    return Answer(0, {"reeb_frame": PASS, "reeb_commutation": PASS})


def reeb_degenerate() -> Answer:
    return Answer(1, {"reeb_frame": FAIL})


def bjorken() -> Answer:
    return Answer(0, dict.fromkeys(BJORKEN_CHECKS, PASS))


def legendrian_linear(n: int, k: int, n_I: int) -> Answer:
    return Answer(0, {"compatibility": PASS, "dimension": PASS, "isotropy": PASS},
                  {"dimension": {"dim_L": n + (k - 1) * n_I}})


def legendrian_perturbed() -> Answer:
    return Answer(1, {"compatibility": FAIL})


def nullspace(k: int, dim: int) -> Answer:
    d = nullspace_dim(k, dim)
    return Answer(0, {"nullspace_dimension": PASS},
                  {"nullspace_dimension": {"expected": d, "observed": [d]}})


def section(k: int, dim: int, linear_xi: bool) -> Answer:
    base = nullspace(k, dim)
    verdict = FAIL if linear_xi else PASS
    families = {name: {"pass": not (linear_xi and name == "d_xi")}
                for name in EQUILIBRIUM_FAMILIES}
    return Answer(
        1 if linear_xi else 0,
        {**base.checks, "section_residual": verdict, "equilibrium_families": verdict},
        {**base.details, "equilibrium_families": {"families": families,
                                                  "agrees_with_hddw": True}})


def ideal_gas() -> Answer:
    return Answer(0, {"entropy_constant": PASS, "particle_number_constant": PASS,
                      "volume_exponential": PASS})


def system_flow(flow: Flow) -> Answer:
    return Answer(0, {"flow_integrated": PASS}, flow=flow)


def equilibrium_state(cv, S: float, V: float, N: float) -> dict:
    """The ideal-gas point over (S, V, N), from U = V^(-1/cv) exp(S/(cv N)).

    T = dU/dS = U/(cv N), P = -dU/dV = U/(cv V), mu = dU/dN = -S U/(cv N^2).
    """
    c = float(cv)
    U = V ** (-1.0 / c) * math.exp(S / (c * N))
    return {"E": U, "S": S, "V": V, "N": N,
            "T": U / (c * N), "P": U / (c * V), "mu": -S * U / (c * N * N)}


def _contains(actual, wanted) -> bool:
    if isinstance(wanted, dict):
        return isinstance(actual, dict) and all(
            k in actual and _contains(actual[k], v) for k, v in wanted.items())
    return actual == wanted


def _flow_errors(flow: Flow) -> list[str]:
    try:
        with open(flow.csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as err:
        return [f"trajectory: {err}"]
    if len(rows) < 2:
        return ["trajectory: fewer than two states"]
    worst = 0.0
    for i, row in enumerate(rows):
        v_exact = flow.V0 * math.exp(i * flow.dt)
        worst = max(worst,
                    abs(float(row["S"]) - flow.S0) / max(1.0, flow.S0),
                    abs(float(row["N"]) - flow.N0) / max(1.0, flow.N0),
                    abs(float(row["V"]) - v_exact) / v_exact)
    if worst > flow.tol:
        return [f"trajectory leaves the closed form: relative error {worst:.3e}"]
    return []


def mismatches(answer: Answer, exit_code: int, report: dict | None) -> list[str]:
    """Every way a job's exit code and JSON report disagree with its answer."""
    errors = []
    if exit_code != answer.exit_code:
        errors.append(f"exit code {exit_code}, expected {answer.exit_code}")
    if report is None:
        return errors + ["no JSON report"]
    by_name = {c["name"]: c for c in report.get("checks", [])}
    for name, verdict in answer.checks.items():
        got = by_name.get(name, {}).get("verdict")
        if got != verdict:
            errors.append(f"{name}: {got}, expected {verdict}")
    for name, wanted in answer.details.items():
        if not _contains(by_name.get(name, {}).get("detail"), wanted):
            errors.append(f"{name}: detail does not contain {wanted}")
    if answer.flow is not None:
        errors += _flow_errors(answer.flow)
    return errors
