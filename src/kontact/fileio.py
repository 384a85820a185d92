"""JSON definition files: charts, forms, structures, k-functions, sections.

One schema per surface, each "expr" a JSON string and each int a JSON
integer (a float, a bool or a string is refused, not truncated); a value of
the wrong JSON type is a ParseError naming the file and the field:
  structure file: {"chart": {"coords": [names], "constraints": ["expr", ...],
                             "ranges": {name: [bound, bound]}},
                   "forms": {name: {"degree": int (default 1), "coeffs": {"0,2": "expr"}}},
                   "eta": [form names in order]}
  k-function file: {"n": int, "k": int, "I": [int, ...], "F": ["expr", ...]}
  section file:    {"components": {coord name: "expr in t variables"}}
                   ("components" is required; unlisted coordinates are
                   constant zero)
Index tuples are comma-joined zero-based indices; a range bound is a JSON
number or a rational string such as "1/2".
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from .errors import ParseError
from .expr import as_expr, free_variables, parse_expr
from .forms import (Chart, DifferentialForm, RkValuedOneForm, SmoothMap, VectorField,
                    parameter_chart)
from .hydro import hydro_kcontact_form, hydro_polarization
from .kcontact import KContactStructure, canonical_structure
from .legendrian import ParametrizingKFunction, thermo_structure

__all__ = [
    "load_json", "chart_from_dict", "load_structure_file", "load_kfunction_file",
    "load_section_file", "resolve_structure", "BuiltinStructure",
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


def _expression(text, field: str):
    """An expression field, which must hold a JSON string."""
    if not isinstance(text, str):
        raise ParseError(f"{field} needs an expression string, got {json.dumps(text)}")
    return parse_expr(text)


def _fraction(value) -> Fraction:
    if type(value) in (str, int, float):
        return Fraction(value)
    raise ParseError(f"cannot read {json.dumps(value)} as a rational bound")


def chart_from_dict(spec: dict) -> Chart:
    try:
        coords = list(spec["coords"])
    except KeyError:
        raise ParseError("chart definition needs a 'coords' list") from None
    constraints = [_expression(c, f"constraints[{j}]")
                   for j, c in enumerate(spec.get("constraints", []))]
    ranges = {
        name: (_fraction(lo), _fraction(hi))
        for name, (lo, hi) in spec.get("ranges", {}).items()
    }
    return Chart(coords, constraints, ranges)


def _form_from_dict(chart: Chart, name: str, spec: dict) -> DifferentialForm:
    degree = _integer(spec.get("degree", 1), f"form {name!r} degree")
    coeffs = {}
    for key, text in spec.get("coeffs", {}).items():
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
        chart = chart_from_dict(raw.get("chart", {}))
        forms = {name: _form_from_dict(chart, name, spec)
                 for name, spec in raw.get("forms", {}).items()}
        for name, f in forms.items():
            unknown = set().union(*map(free_variables, f.coeffs.values())) - set(chart.coords)
            if unknown:
                raise ParseError(f"form {name!r} names unknown variables {sorted(unknown)}")
        eta_names = raw.get("eta")
        if not eta_names:
            eta_names = [name for name, f in forms.items() if f.degree == 1]
        try:
            eta = RkValuedOneForm([forms[name] for name in eta_names])
        except KeyError as err:
            raise ParseError(f"eta refers to undefined form {err.args[0]!r}") from None
        return KContactStructure(eta)


def load_kfunction_file(path: str | Path) -> ParametrizingKFunction:
    raw = load_json(path)
    with _content_of(path):
        n, k = _integer(raw["n"], "n"), _integer(raw["k"], "k")
        I = [_integer(i, f"I[{j}]") for j, i in enumerate(raw["I"])]
        F = [_expression(f, f"F[{j}]") for j, f in enumerate(raw["F"])]
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


class BuiltinStructure:
    """A named structure plus whatever extra data its family carries."""

    def __init__(self, name, structure, polarization=None):
        self.name = name
        self.structure = structure
        self.polarization = polarization


_CANONICAL_RE = re.compile(r"^canonical:(\d+),(\d+)$")
_HYDRO_RE = re.compile(r"^hydro(\d+)$")


def resolve_structure(name: str) -> BuiltinStructure:
    """Builtins: canonical:n,k (n, k >= 1); hydroK (k >= 2); thermo.  An
    unknown name, or sizes the constructors refuse, is a ParseError."""
    canonical, hydro = _CANONICAL_RE.match(name), _HYDRO_RE.match(name)
    try:
        if canonical:
            n, k = int(canonical.group(1)), int(canonical.group(2))
            s = canonical_structure(n, k)
            pol = [VectorField.coordinate(s.chart, f"p_{a}_{i}")
                   for a in range(1, k + 1) for i in range(1, n + 1)]
            return BuiltinStructure(name, s, polarization=pol)
        if hydro:
            k = int(hydro.group(1))
            return BuiltinStructure(name, hydro_kcontact_form(k),
                                    polarization=hydro_polarization(k))
    except ValueError as err:
        raise ParseError(f"builtin {name!r}: {err}") from None
    if name == "thermo":
        return BuiltinStructure(name, thermo_structure())
    raise ParseError(
        f"unknown builtin {name!r}; use canonical:n,k | hydroK | thermo")
