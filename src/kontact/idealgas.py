"""Isentropic ideal-gas processes as k=1 contact Hamiltonian flows.

The equation of state S = N c_V log(U) + N log(V) + const (gas constant and
reference scales set to 1) inverts to the generating function
U = V^(-1/c_V) exp(S/(c_V N)).  The process Hamiltonian -(P + dU/dV) V
vanishes on the equilibrium states, keeps S and N constant along the flow,
and expands the volume exponentially: V(t) = V(0) e^t.
"""

from __future__ import annotations

from fractions import Fraction

from .config import DEFAULT_CONFIG, RunConfig
from .expr import Pow, ScalarExpr, Var, differentiate, evaluate, exp
from .hddw import KContactHamiltonianSystem, Trajectory, integrate_contact_flow
from .legendrian import thermo_parametrization, thermo_structure

__all__ = [
    "ideal_gas_energy", "isentropic_hamiltonian", "ideal_gas_system",
    "equilibrium_state", "run_isentropic",
]


def ideal_gas_energy(cv: Fraction | int | str = Fraction(3, 2)) -> ScalarExpr:
    """U(S, V, N) = V^(-1/c_V) exp(S / (c_V N))."""
    cv = Fraction(cv)
    if cv <= 0:
        raise ValueError("specific heat must be positive")
    V, S, N = Var("V"), Var("S"), Var("N")
    return Pow.make(V, -1 / cv) * exp(S / (cv * N))


def isentropic_hamiltonian(cv: Fraction | int | str = Fraction(3, 2)) -> ScalarExpr:
    """H = -(P + dU/dV) V; vanishes exactly on the U-generated equilibrium states."""
    f = ideal_gas_energy(cv)
    return -(Var("P") + differentiate(f, "V")) * Var("V")


def ideal_gas_system(
    cv: Fraction | int | str = Fraction(3, 2),
    config: RunConfig = DEFAULT_CONFIG,
) -> KContactHamiltonianSystem:
    """The isentropic Hamiltonian on thermo; config drives its zero tests."""
    return KContactHamiltonianSystem(thermo_structure(), isentropic_hamiltonian(cv),
                                     config=config)


def equilibrium_state(
    cv: Fraction | int | str = Fraction(3, 2),
    S0: float = 1.0,
    V0: float = 1.0,
    N0: float = 1.0,
) -> dict:
    """The chart point on the equilibrium family over (S0, V0, N0)."""
    phi = thermo_parametrization(ideal_gas_energy(cv))
    params = {"S": float(S0), "V": float(V0), "N": float(N0)}
    return {
        name: float(evaluate(c, params))
        for name, c in zip(phi.target.coords, phi.components)
    }


def run_isentropic(
    cv: Fraction | int | str = Fraction(3, 2),
    S0: float = 1.0,
    V0: float = 1.0,
    N0: float = 1.0,
    t_end: float = 1.0,
    dt: float = 1e-3,
    config: RunConfig = DEFAULT_CONFIG,
) -> Trajectory:
    """Integrate the isentropic flow from the equilibrium state over (S0, V0, N0)."""
    sys = ideal_gas_system(cv, config)
    x0 = equilibrium_state(cv, S0, V0, N0)
    return integrate_contact_flow(sys, x0, t_end, dt)
