"""Command-line front end: parse definition files, dispatch verifications and
demos, and emit deterministic JSON/CSV reports.

Subcommands: verify-structure, reeb, legendrian, hddw, ideal-gas, bjorken.
Each subcommand returns a list of Check records, most of them as the library
returns them, and main emits them as the run's report: one line per check on
stdout and, for --json only, the report's text, sorted-key, 2-space-indented
JSON.  Each call builds only the parser it reads: the invoked subcommand's.
Exit codes: 0 all checks pass, 1 any check fails, 2 usage/parse error,
3 a check is inconclusive (and nothing failed outright).  A run that ends
in an error instead (exit 2, or exit 1 for a library error) writes no report;
a --json or --csv path that cannot be written is a usage error, found before
the run or, when the write itself fails (a full disk), at the write.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig, default_seed
from .errors import KontactError, ParseError, StructureDegenerateAtPoint
from .expr import ZERO, free_variables
from .fileio import (
    load_kfunction_file,
    load_section_file,
    load_structure_file,
    load_system_file,
    parse_hamiltonian,
    resolve_structure,
)
from .hddw import (
    KContactHamiltonianSystem,
    expected_nullspace_dim,
    flow_steps,
    integrate_contact_flow,
    section_residual,
    solve_hddw_at_point,
)
from .hydro import equilibrium_conditions_residual
from .idealgas import run_isentropic
from .kcontact import (KContactStructure, canonical_structure, check_polarization,
                       check_reeb, reeb_frame_check, verify_kcontact)
from .legendrian import (build_parametrization, check_compatibility, legendrian_dimension,
                         verify_isotropic)
from .linalg import RANK_THRESHOLD
from .zerotest import FAIL, INCONCLUSIVE, PASS, Check, combine, sample_points, zero_check
from .bjorken import DEFAULT_T_PROFILE, full_pgt_demo


def _usage(fn, *args, **kwargs):
    """fn(*args, **kwargs), whose ValueError, an invalid setting, is a usage error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as err:
        raise ParseError(str(err)) from None


def _config_from_args(args) -> RunConfig:
    """The run's RunConfig; an invalid setting or KONTACT_SEED is a usage error."""
    seed = args.seed if args.seed is not None else _usage(default_seed)
    return _usage(RunConfig, seed=seed, n_sample_points=args.samples,
                  atol=args.atol, rtol=args.rtol)


def _check_output_paths(args):
    """A --json or --csv path that cannot be opened for writing is a usage
    error, raised before the run rather than after it."""
    for option, path in (("--json", args.json_path), ("--csv", getattr(args, "csv", None))):
        if not path:
            continue
        parent = os.path.dirname(path) or "."
        target = path if os.path.exists(path) else parent
        if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(target, os.W_OK):
            raise ParseError(f"{option} path cannot be opened for writing: {path!r}")


def _write_output(option: str, path: str, write) -> None:
    """write(fh) into the --json or --csv file at path; a write that fails
    during the run (a full disk, say) is a usage error naming the path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as err:
        raise ParseError(f"{option} path cannot be written: {path!r} ({err.strerror})") from None


def _point_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"need at least one point, got {n}")
    return n


def _positive_rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"need a positive value, got {text}")
    return value


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--json", dest="json_path", metavar="PATH",
                   help="write the report as JSON")
    p.add_argument("--seed", type=int, default=None,
                   help=f"sampling seed (default: KONTACT_SEED or {DEFAULT_CONFIG.seed})")
    p.add_argument("--samples", type=int, default=DEFAULT_CONFIG.n_sample_points,
                   help="sample points per zero test")
    p.add_argument("--atol", type=float, default=DEFAULT_CONFIG.atol)
    p.add_argument("--rtol", type=float, default=DEFAULT_CONFIG.rtol)
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit wall time from the report (byte-stable output)")


def _json_text(value) -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte, from a
    writer of its own: with indent set, json falls back to its pure-Python
    encoder, about three times slower on a report.  A value of a type json
    would not write, or a key that is not a str, is a TypeError."""
    out: list[str] = []
    _write_json(value, out, "\n")
    return "".join(out)


def _write_json(value, out: list[str], indent: str) -> None:
    """Append value's text to out; indent is the newline and the spaces
    before a line at value's depth."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        # as json spells them; float.__repr__ also drops np.float64's wrapper
        out.append("NaN" if value != value else "Infinity" if value == math.inf
                   else "-Infinity" if value == -math.inf else float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner, sep = indent + "  ", "["
        for item in value:
            out.append(sep + inner)
            _write_json(item, out, inner)
            sep = ","
        out.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner, sep = indent + "  ", "{"
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out.append(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _write_json(value[key], out, inner)
            sep = ","
        out.append(indent + "}")
    else:
        raise TypeError(f"a report cannot hold a {type(value).__name__}")


def _emit(command: str, config: RunConfig, checks: list[Check], args,
          started: float) -> str:
    """Write the report (stdout, and --json if given); returns its verdict."""
    report = {
        "command": command,
        "config": {
            "seed": config.seed,
            "n_sample_points": config.n_sample_points,
            "atol": config.atol,
            "rtol": config.rtol,
            "rank_threshold": RANK_THRESHOLD,
        },
        "checks": [c.to_dict() for c in checks],
        "verdict": combine(c.verdict for c in checks),
    }
    if not args.no_timestamp:
        report["wall_time_s"] = round(time.perf_counter() - started, 3)
    if args.json_path:
        text = _json_text(report)
        _write_output("--json", args.json_path, lambda fh: fh.write(text + "\n"))
    for c in checks:
        line = f"{c.name}: {c.verdict}"
        if c.max_residual is not None:
            line += f" (max residual {c.max_residual:.3e})"
        print(line)
    print(f"verdict: {report['verdict']}")
    return report["verdict"]


def _resolve(builtin: str | None, path: str | None) -> tuple[KContactStructure, list | None]:
    """(structure, polarization or None) of a builtin or a structure file,
    which carries no polarization; giving both is a usage error."""
    if builtin:
        _refuse_with("--builtin", "which names the structure",
                     {f"structure path {path!r}": path})
        return resolve_structure(builtin)
    if path:
        return load_structure_file(path), None
    raise ParseError("give a definition file path or --builtin NAME")


def _coordinate_values(option: str, text: str, coords) -> dict[str, float]:
    """The JSON object of coordinate values given as --x0 or --point, which
    must give every one of the chart's coords and no other name, each a
    finite JSON number (not a string or a boolean)."""
    try:
        raw = json.loads(text)
        if not all(type(v) in (int, float) for v in raw.values()):
            raise TypeError
        values = {name: float(v) for name, v in raw.items()}
    except (ValueError, TypeError, AttributeError, OverflowError):
        raise ParseError(f"{option} needs a JSON object of numbers, got {text!r}") from None
    missing = set(coords) - set(values)
    if missing:
        raise ParseError(f"{option} misses coordinates {sorted(missing)}")
    unknown = set(values) - set(coords)
    if unknown:
        raise ParseError(f"{option} names unknown coordinates {sorted(unknown)}")
    non_finite = [name for name, v in values.items() if not math.isfinite(v)]
    if non_finite:
        raise ParseError(f"{option} gives non-finite values for coordinates {sorted(non_finite)}")
    return values


def _refuse_with(option: str, why: str, options: dict) -> None:
    """A usage error naming every given option (its value not None) of
    options, which do not mix with option."""
    given = [name for name, value in options.items() if value is not None]
    if given:
        raise ParseError(f"{', '.join(given)} cannot be combined with {option}, {why}")


def _verdict(ok: bool) -> str:
    return PASS if ok else FAIL


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify_structure(args, config: RunConfig) -> list[Check]:
    s, polarization = _resolve(args.builtin, args.path)
    checks = verify_kcontact(s, n_points=args.points, config=config)
    checks += check_reeb(s, config)
    if polarization is not None:
        checks.append(check_polarization(s, polarization,
                                         n_points=min(args.points, 10), config=config))
    return checks


def cmd_reeb(args, config: RunConfig) -> list[Check]:
    return check_reeb(_resolve(args.builtin, args.path)[0], config)


def cmd_legendrian(args, config: RunConfig) -> list[Check]:
    kf = load_kfunction_file(args.path)
    checks = [check_compatibility(kf, config)]
    if checks[0].verdict != PASS:
        return checks
    s = canonical_structure(kf.n, kf.k)
    L = build_parametrization(kf, s)
    admissible = sorted({legendrian_dimension(kf.n, kf.k, n1) for n1 in range(kf.n + 1)})
    dim_L = L.source.dim
    checks.append(Check("dimension", _verdict(dim_L in admissible),
                        detail={"dim_L": dim_L, "admissible": admissible}))
    checks.append(verify_isotropic(L, s, config))
    return checks


def cmd_hddw(args, config: RunConfig) -> list[Check]:
    if args.system:
        _refuse_with("--system", "which names the structure", {
            "--builtin": args.builtin, f"structure path {args.path!r}": args.path})
        builtin, s, H = load_system_file(args.system, args.H)
    else:
        builtin, s = args.builtin, _resolve(args.builtin, args.path)[0]
        H = parse_hamiltonian(args.H, s.chart)
    if args.t_end is not None:
        _refuse_with("--t-end", "which integrates a flow", {
            "--section": args.section, "--point": args.point, "--n-points": args.n_points})
        if s.k != 1:
            raise ParseError("flow integration applies to k = 1 systems only")
        dt = 1e-3 if args.dt is None else args.dt
        _usage(flow_steps, args.t_end, dt)
        if args.x0 is None:
            raise ParseError("flow integration needs --x0 with coordinate values")
        x0 = _coordinate_values("--x0", args.x0, s.chart.coords)
    elif args.x0 is not None or args.csv:
        raise ParseError("--x0 and --csv apply to flow integration: give --t-end")
    elif args.dt is not None:
        raise ParseError("--dt applies to flow integration: give --t-end")
    elif args.point in (None, "random"):
        n_points = 1 if args.n_points is None else args.n_points
        points = sample_points(s.chart.coords, s.chart, n_points, config.seed)
    else:
        _refuse_with("--point JSON", "which gives the one point", {"--n-points": args.n_points})
        points = [_coordinate_values("--point", args.point, s.chart.coords)]

    reeb = None
    if free_variables(H):
        # the field equations transport dH along the Reeb frame: without a
        # frame, its reeb_frame check is the run's report
        reeb, reeb_check = reeb_frame_check(s, config)
        if reeb is None:
            return [reeb_check]
    sys_ = KContactHamiltonianSystem(s, H, reeb=reeb, config=config)
    try:
        if args.t_end is not None:
            traj = integrate_contact_flow(sys_, x0, args.t_end, dt)
        else:
            dims, max_res = set(), 0.0
            for p in points:
                sol = solve_hddw_at_point(sys_, p)
                dims.add(sol.nullspace_dim)
                max_res = max(max_res, sol.residual_norm)
    except StructureDegenerateAtPoint as err:
        # the field equations need the defining conditions: the first point
        # where they fail is the run's one check
        return [Check("defining_conditions", FAIL, detail={"failed_at": err.point})]

    if args.t_end is not None:
        if args.csv:
            _write_output("--csv", args.csv, traj.to_csv)
        return [Check("flow_integrated", PASS,
                      detail={"steps": len(traj.states) - 1, "dt": dt})]

    expected = expected_nullspace_dim(s.k, s.dim)
    checks = [Check("nullspace_dimension", _verdict(dims == {expected}),
                    max_residual=max_res,
                    detail={"observed": sorted(dims), "expected": expected,
                            "formula": "(k-1)(dim-k) + k^2 - 1",
                            "k": s.k, "dim": s.dim,
                            "n_points": len(points)})]
    if args.section:
        sect = load_section_file(args.section, s.chart, s.k)
        eq1, eq2 = section_residual(sys_, sect)
        raw = zero_check("section_residual", eq1 + [eq2], sect.source, config)
        checks.append(raw)
        if builtin and builtin.startswith("hydro"):
            # its cross-check is the H = 0 system's residual: the one above when H is 0
            checks.append(equilibrium_conditions_residual(sect, s.k, config,
                                                          raw if H == ZERO else None))
    return checks


def cmd_ideal_gas(args, config: RunConfig) -> list[Check]:
    _usage(flow_steps, args.t_end, args.dt)
    for option, value in (("--v0", args.v0), ("--n0", args.n0)):
        if not 0 < value < math.inf:  # NaN fails too
            raise ParseError(f"{option} must be positive and finite, got {value}")
    if not math.isfinite(args.s0):
        raise ParseError(f"--s0 must be finite, got {args.s0}")
    if not 0 < args.tol < math.inf:
        raise ParseError(f"--tol must be positive and finite, got {args.tol}")
    traj = run_isentropic(cv=args.cv, S0=args.s0, V0=args.v0, N0=args.n0,
                          t_end=args.t_end, dt=args.dt, config=config)
    S = traj.column("S")
    N = traj.column("N")
    V = traj.column("V")
    times = traj.times
    s_drift = max(abs(v - S[0]) for v in S) / max(1.0, abs(S[0]))
    n_drift = max(abs(v - N[0]) for v in N) / max(1.0, abs(N[0]))
    v_err = max(abs(v - V[0] * np.exp(t)) / (V[0] * np.exp(t))
                for v, t in zip(V, times))
    checks = [
        Check("entropy_constant", _verdict(s_drift <= args.tol), max_residual=s_drift),
        Check("particle_number_constant", _verdict(n_drift <= args.tol),
              max_residual=n_drift),
        Check("volume_exponential", _verdict(v_err <= args.tol), max_residual=v_err,
              detail={"closed_form": "V(t) = V0 exp(t)"}),
    ]
    if args.csv:
        _write_output("--csv", args.csv, traj.to_csv)
    return checks


def cmd_bjorken(args, config: RunConfig) -> list[Check]:
    return _usage(full_pgt_demo, gamma=args.gamma, I=args.I,
                  temperature_profile=args.T_profile, config=config)


# ---------------------------------------------------------------------------

def _add_verify_structure(sub):
    p = sub.add_parser("verify-structure", help="check the defining conditions")
    p.add_argument("path", nargs="?", help="structure definition file")
    p.add_argument("--builtin", help="canonical:n,k | hydroK | thermo")
    p.add_argument("--points", type=_point_count, default=20,
                   help="number of verification points")
    _add_common(p)
    p.set_defaults(fn=cmd_verify_structure)


def _add_reeb(sub):
    p = sub.add_parser("reeb", help="solve for the Reeb frame")
    p.add_argument("path", nargs="?")
    p.add_argument("--builtin")
    _add_common(p)
    p.set_defaults(fn=cmd_reeb)


def _add_legendrian(sub):
    p = sub.add_parser("legendrian", help="build and verify a parametrization")
    p.add_argument("path", help="k-function definition file")
    _add_common(p)
    p.set_defaults(fn=cmd_legendrian)


def _add_hddw(sub):
    p = sub.add_parser("hddw", help="solve the field equations at points")
    p.add_argument("path", nargs="?", help="structure definition file")
    p.add_argument("--builtin")
    p.add_argument("--system", help="system file: {structure reference, H}")
    p.add_argument("--H", default="0", help="Hamiltonian expression")
    # None marks an option not given: with --t-end, a given one is an error
    p.add_argument("--point", help="'random' (the default) or a JSON object of "
                                   "coordinate values")
    p.add_argument("--n-points", type=_point_count, help="random points (default 1)")
    p.add_argument("--section", help="section file to test for the PDE residual")
    p.add_argument("--t-end", type=float, default=None,
                   help="integrate the k=1 flow up to this time")
    p.add_argument("--dt", type=float, help="flow step (default 1e-3)")
    p.add_argument("--x0", help="initial point as a JSON object")
    p.add_argument("--csv", help="write the trajectory as CSV")
    _add_common(p)
    p.set_defaults(fn=cmd_hddw)


def _add_ideal_gas(sub):
    p = sub.add_parser("ideal-gas", help="integrate an isentropic process")
    p.add_argument("--cv", type=_positive_rational, default="3/2",
                   help="specific heat (positive rational)")
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--s0", type=float, default=1.0)
    p.add_argument("--v0", type=float, default=1.0)
    p.add_argument("--n0", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--csv", help="write the trajectory as CSV")
    _add_common(p)
    p.set_defaults(fn=cmd_ideal_gas)


def _add_bjorken(sub):
    p = sub.add_parser("bjorken", help="boost-invariant expansion identities")
    p.add_argument("--gamma", default="gamma",
                   help="transformation constant (symbolic by default)")
    p.add_argument("--I", default="T^3", help="temperature scalar I(T)")
    p.add_argument("--T-profile", dest="T_profile", default=DEFAULT_T_PROFILE,
                   help="temperature profile in tau")
    _add_common(p)
    p.set_defaults(fn=cmd_bjorken)


_SUBCOMMANDS = {"verify-structure": _add_verify_structure, "reeb": _add_reeb,
                "legendrian": _add_legendrian, "hddw": _add_hddw,
                "ideal-gas": _add_ideal_gas, "bjorken": _add_bjorken}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The kontact parser for argv.  When argv starts with a subcommand, only
    that subparser is built, and the usage line still names all six; any
    other argv (none, --help, an unknown command) gets all six subparsers,
    so its help and error text are argparse's own."""
    top = argparse.ArgumentParser(
        prog="kontact",
        description="Verification engine for k-contact structures, Legendrian "
                    "submanifolds, field-equation solution spaces, and the "
                    "hydrodynamic/boost-invariant examples.")
    if argv and argv[0] in _SUBCOMMANDS:
        sub = top.add_subparsers(dest="command", required=True,
                                 metavar="{" + ",".join(_SUBCOMMANDS) + "}")
        _SUBCOMMANDS[argv[0]](sub)
    else:
        sub = top.add_subparsers(dest="command", required=True)
        for add in _SUBCOMMANDS.values():
            add(sub)
    return top


_EXIT_CODES = {PASS: 0, FAIL: 1, INCONCLUSIVE: 3}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    started = time.perf_counter()
    try:
        _check_output_paths(args)
        config = _config_from_args(args)
        checks = args.fn(args, config)
        verdict = _emit(args.command, config, checks, args, started)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except KontactError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return _EXIT_CODES[verdict]


if __name__ == "__main__":
    raise SystemExit(main())
