"""JSON definition files: charts, forms, structures, k-functions, sections.

One schema per surface:
  structure file: {"chart": {"coords": [...], "constraints": [...], "ranges": {...}},
                   "forms": {name: {"degree": p, "coeffs": {"0,2": "expr"}}},
                   "eta": [form names in order],
                   "maps": {name: {"source_coords": [...], "components": [...]}}}
  k-function file: {"n": int, "k": int, "I": [indices], "F": ["expr", ...]}
  section file:    {"components": {coord name: "expr in t variables"}}
                   (unlisted coordinates are constant zero)
Index tuples are comma-joined zero-based indices.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from .errors import ParseError
from .expr import as_expr, parse_expr
from .forms import (Chart, DifferentialForm, RkValuedOneForm, SmoothMap, VectorField,
                    parameter_chart)
from .hydro import hydro_kcontact_form, hydro_polarization, hydro_reeb_frame
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


def _fraction(value) -> Fraction:
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (int, float)):
        return Fraction(value)
    raise ParseError(f"cannot read {value!r} as a rational bound")


def chart_from_dict(spec: dict) -> Chart:
    try:
        coords = list(spec["coords"])
    except KeyError:
        raise ParseError("chart definition needs a 'coords' list") from None
    constraints = [parse_expr(c) for c in spec.get("constraints", [])]
    ranges = {
        name: (_fraction(lo), _fraction(hi))
        for name, (lo, hi) in spec.get("ranges", {}).items()
    }
    return Chart(coords, constraints, ranges)


def _form_from_dict(chart: Chart, spec: dict) -> DifferentialForm:
    degree = int(spec.get("degree", 1))
    coeffs = {}
    for key, text in spec.get("coeffs", {}).items():
        try:
            idx = tuple(int(p) for p in key.split(",")) if key else ()
        except ValueError:
            raise ParseError(f"bad index tuple {key!r}; use comma-joined integers") from None
        coeffs[idx] = parse_expr(text)
    return DifferentialForm(chart, degree, coeffs)


def load_structure_file(path: str | Path) -> tuple[KContactStructure, dict]:
    """Read a structure definition; returns the structure and the raw forms/maps."""
    raw = load_json(path)
    with _content_of(path):
        chart = chart_from_dict(raw.get("chart", {}))
        forms = {name: _form_from_dict(chart, spec)
                 for name, spec in raw.get("forms", {}).items()}
        eta_names = raw.get("eta")
        if not eta_names:
            eta_names = [name for name, f in forms.items() if f.degree == 1]
        try:
            eta = RkValuedOneForm([forms[name] for name in eta_names])
        except KeyError as err:
            raise ParseError(f"eta refers to undefined form {err.args[0]!r}") from None
        maps = {}
        for name, spec in raw.get("maps", {}).items():
            source = Chart(spec["source_coords"])
            comps = [parse_expr(c) for c in spec["components"]]
            maps[name] = SmoothMap(source, chart, comps)
        return KContactStructure(eta), {"forms": forms, "maps": maps, "chart": chart}


def load_kfunction_file(path: str | Path) -> ParametrizingKFunction:
    raw = load_json(path)
    with _content_of(path):
        return ParametrizingKFunction(int(raw["n"]), int(raw["k"]),
                                      [int(i) for i in raw["I"]],
                                      [parse_expr(f) for f in raw["F"]])


def load_section_file(path: str | Path, target: Chart, k: int) -> SmoothMap:
    raw = load_json(path)
    with _content_of(path):
        comps = raw.get("components", raw.get("fields", {}))
        unknown = set(comps) - set(target.coords)
        if unknown:
            raise ParseError(f"section names unknown coordinates {sorted(unknown)}")
        source = parameter_chart(k)
        exprs = [parse_expr(comps[c]) if c in comps else as_expr(0) for c in target.coords]
        return SmoothMap(source, target, exprs)


class BuiltinStructure:
    """A named structure plus whatever extra data its family carries."""

    def __init__(self, name, structure, polarization=None, reeb=None):
        self.name = name
        self.structure = structure
        self.polarization = polarization
        self.reeb = reeb


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
            s = hydro_kcontact_form(k)
            return BuiltinStructure(name, s, polarization=hydro_polarization(k),
                                    reeb=hydro_reeb_frame(s))
    except ValueError as err:
        raise ParseError(f"builtin {name!r}: {err}") from None
    if name == "thermo":
        return BuiltinStructure(name, thermo_structure())
    raise ParseError(
        f"unknown builtin {name!r}; use canonical:n,k | hydroK | thermo")
