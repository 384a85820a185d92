"""JSON definition files: charts, forms, structures, k-functions, sections.

One schema per surface, each "expr" a JSON string, each int a JSON integer
(a float, a bool or a string is refused, not truncated), each name a JSON
string, each list a JSON list and each object a JSON object (a string is
not read character by character); a value of the wrong JSON type is a
ParseError naming the file and the field:
  structure file: {"chart": {"coords": [names], "constraints": ["expr", ...],
                             "ranges": {name: [bound, bound]}},
                   "forms": {name: {"degree": int (default 1), "coeffs": {"0,2": "expr"}}},
                   "eta": [form names in order]}
  k-function file: {"n": int, "k": int, "I": [int, ...], "F": ["expr", ...]}
  section file:    {"components": {coord name: "expr in t variables"}}
                   ("components" is required; unlisted coordinates are
                   constant zero)
Index tuples are comma-joined zero-based indices; a range is a JSON list of
two bounds, lower first, each a JSON number or a rational string such as
"1/2"; ranges and constraints name only chart coordinates.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from .errors import ParseError
from .expr import as_expr, free_variables, parse_expr
from .forms import Chart, DifferentialForm, SmoothMap, VectorField, parameter_chart
from .hydro import hydro_kcontact_form, hydro_polarization
from .kcontact import KContactStructure, canonical_structure
from .legendrian import ParametrizingKFunction, thermo_structure

__all__ = [
    "load_json", "chart_from_dict", "load_structure_file", "load_kfunction_file",
    "load_section_file", "resolve_structure",
]


def load_json(path: str | Path) -> dict:
    """The JSON object a definition file holds."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: invalid JSON at line {err.lineno}, column {err.colno}") from None
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None
    except OSError as err:
        raise ParseError(f"{path}: {err.strerror}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    return raw


@contextmanager
def _content_of(path: str | Path):
    """A malformed value met while building from the file's content (bad
    expression text, a wrong type, a missing key, a value the constructors
    refuse) is a ParseError naming the file."""
    try:
        yield
    except ParseError as err:
        raise ParseError(f"{path}: {err}") from None
    except KeyError as err:
        raise ParseError(f"{path}: missing key {err.args[0]!r}") from None
    except (ValueError, TypeError, AttributeError) as err:
        raise ParseError(f"{path}: {err}") from None


def _integer(value, key: str) -> int:
    """A JSON integer field: a float, a bool or a string is refused, not truncated."""
    if type(value) is not int:
        raise ParseError(f"{key} must be a JSON integer, got {json.dumps(value)}")
    return value


_JSON_TYPES = {list: "list", dict: "object", str: "string"}


def _of_type(value, kind: type, field: str):
    """A list, object or name field, which must hold that JSON type."""
    if not isinstance(value, kind):
        raise ParseError(f"{field} must be a JSON {_JSON_TYPES[kind]}, got {json.dumps(value)}")
    return value


def _expression(text, field: str):
    """An expression field, which must hold a JSON string."""
    if not isinstance(text, str):
        raise ParseError(f"{field} needs an expression string, got {json.dumps(text)}")
    return parse_expr(text)


def _known_names(exprs, coords, field: str) -> None:
    """Expressions that name only chart coordinates."""
    unknown = set().union(*map(free_variables, exprs)) - set(coords)
    if unknown:
        raise ParseError(f"{field} names unknown variables {sorted(unknown)}")


def _fraction(value) -> Fraction:
    if type(value) in (str, int, float):
        try:
            return Fraction(value)
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    raise ParseError(f"cannot read {json.dumps(value)} as a rational bound")


def _range(name: str, bounds, coords: list[str]) -> tuple[Fraction, Fraction]:
    """A chart coordinate's sampling range: a JSON list [lo, hi] with lo <= hi."""
    field = f'ranges "{name}"'
    if name not in coords:
        raise ParseError(f"{field} names no chart coordinate")
    if not isinstance(bounds, list) or len(bounds) != 2:
        raise ParseError(f"{field} must be a JSON list of two bounds, got {json.dumps(bounds)}")
    lo, hi = map(_fraction, bounds)
    if lo > hi:
        raise ParseError(f"{field} has lower bound {lo} above upper bound {hi}")
    return lo, hi


def chart_from_dict(spec: dict) -> Chart:
    """A chart whose constraints name only its coordinates and whose ranges
    are [lo, hi] pairs of its coordinates; anything else is a ParseError."""
    try:
        coords = [_of_type(c, str, f"coords[{j}]")
                  for j, c in enumerate(_of_type(spec["coords"], list, "coords"))]
    except KeyError:
        raise ParseError("chart definition needs a 'coords' list") from None
    constraints = [_expression(c, f"constraints[{j}]") for j, c
                   in enumerate(_of_type(spec.get("constraints", []), list, "constraints"))]
    for j, c in enumerate(constraints):
        _known_names([c], coords, f"constraints[{j}]")
    ranges = {name: _range(name, bounds, coords)
              for name, bounds in _of_type(spec.get("ranges", {}), dict, "ranges").items()}
    return Chart(coords, constraints, ranges)


def _form_from_dict(chart: Chart, name: str, spec: dict) -> DifferentialForm:
    degree = _integer(spec.get("degree", 1), f"form {name!r} degree")
    coeffs = {}
    for key, text in _of_type(spec.get("coeffs", {}), dict, f"form {name!r} coeffs").items():
        try:
            idx = tuple(int(p) for p in key.split(",")) if key else ()
        except ValueError:
            raise ParseError(f"bad index tuple {key!r}; use comma-joined integers") from None
        coeffs[idx] = _expression(text, f'form {name!r} coeffs "{key}"')
    return DifferentialForm(chart, degree, coeffs)


def load_structure_file(path: str | Path) -> KContactStructure:
    """Read a structure definition.  A form whose coefficients name a
    variable that is not a chart coordinate is a ParseError."""
    raw = load_json(path)
    with _content_of(path):
        chart = chart_from_dict(_of_type(raw.get("chart", {}), dict, "chart"))
        forms = {name: _form_from_dict(chart, name, _of_type(spec, dict, f"form {name!r}"))
                 for name, spec in _of_type(raw.get("forms", {}), dict, "forms").items()}
        for name, f in forms.items():
            _known_names(f.coeffs.values(), chart.coords, f"form {name!r}")
        eta_names = _of_type(raw.get("eta", []), list, "eta")
        if not eta_names:
            eta_names = [name for name, f in forms.items() if f.degree == 1]
        try:
            eta = [forms[_of_type(name, str, f"eta[{j}]")] for j, name in enumerate(eta_names)]
        except KeyError as err:
            raise ParseError(f"eta refers to undefined form {err.args[0]!r}") from None
        return KContactStructure(eta)


def load_kfunction_file(path: str | Path) -> ParametrizingKFunction:
    raw = load_json(path)
    with _content_of(path):
        n, k = _integer(raw["n"], "n"), _integer(raw["k"], "k")
        I = [_integer(i, f"I[{j}]") for j, i in enumerate(_of_type(raw["I"], list, "I"))]
        F = [_expression(f, f"F[{j}]") for j, f in enumerate(_of_type(raw["F"], list, "F"))]
        return ParametrizingKFunction(n, k, I, F)


def load_section_file(path: str | Path, target: Chart, k: int) -> SmoothMap:
    raw = load_json(path)
    with _content_of(path):
        comps = raw.get("components")
        if not isinstance(comps, dict):
            raise ParseError("section file needs a 'components' object")
        unknown = set(comps) - set(target.coords)
        if unknown:
            raise ParseError(f"section names unknown coordinates {sorted(unknown)}")
        source = parameter_chart(k)
        exprs = [_expression(comps[c], f'components "{c}"') if c in comps else as_expr(0)
                 for c in target.coords]
        return SmoothMap(source, target, exprs)


_CANONICAL_RE = re.compile(r"^canonical:(\d+),(\d+)$")
_HYDRO_RE = re.compile(r"^hydro(\d+)$")


def resolve_structure(name: str) -> tuple[KContactStructure, list[VectorField] | None]:
    """(structure, polarization or None) of a builtin: canonical:n,k (n, k
    >= 1) and hydroK (k >= 2) with their polarizations; thermo with none.
    An unknown name, or sizes the constructors refuse, is a ParseError."""
    canonical, hydro = _CANONICAL_RE.match(name), _HYDRO_RE.match(name)
    try:
        if canonical:
            n, k = int(canonical.group(1)), int(canonical.group(2))
            s = canonical_structure(n, k)
            pol = [VectorField.coordinate(s.chart, f"p_{a}_{i}")
                   for a in range(1, k + 1) for i in range(1, n + 1)]
            return s, pol
        if hydro:
            k = int(hydro.group(1))
            return hydro_kcontact_form(k), hydro_polarization(k)
    except ValueError as err:
        raise ParseError(f"builtin {name!r}: {err}") from None
    if name == "thermo":
        return thermo_structure(), None
    raise ParseError(
        f"unknown builtin {name!r}; use canonical:n,k | hydroK | thermo")
