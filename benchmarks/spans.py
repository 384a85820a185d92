"""Outside-in span tracing of kontact's layers, from the benchmark's side.

The tracer replaces a layer function by a timing wrapper under every name
that another kontact module imported it as.  Calls a module makes to its own
functions are not wrapped for the recursive tree walkers of ``expr``, so a
recursion counts as one span; for every other listed function the defining
module's name is wrapped too, which makes its internal callers visible
(``is_probably_zero`` -> ``zero_test``, ``integrate_contact_flow`` ->
``solve_hddw_at_point``).  ``Tracer.restore`` puts every original back.

Spans live in flat arrays (name, parent, start, end) and are written out
once, when the run ends.  Self time is a span's duration minus the part of
its interval that its child spans cover.  kontact runs one thread and has no
queue, so no layer ever waits and no wait time is reported.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from pathlib import Path

# (module, function) pairs covered by the trace, in report order
LAYERS = {
    "expr": ("evaluate", "differentiate", "substitute", "parse_expr", "free_variables"),
    "zerotest": ("zero_test", "is_probably_zero", "sample_points"),
    "forms": ("lie_bracket", "exterior_derivative", "interior_product", "pullback",
              "form_on_vectors"),
    "kcontact": ("verify_kcontact", "compute_reeb", "check_reeb_commutation",
                 "check_polarization", "structure_matrices_at"),
    "linalg": ("numeric_rank", "nullspace_basis", "least_norm_solution", "solve_symbolic"),
    "legendrian": ("check_compatibility", "build_parametrization", "verify_isotropic"),
    "hddw": ("solve_hddw_at_point", "section_residual", "integrate_contact_flow"),
    "hydro": ("hydro_kcontact_form", "hydro_polarization", "equilibrium_conditions_residual"),
    "bjorken": ("full_pgt_demo",),
    "idealgas": ("run_isentropic",),
    "fileio": ("resolve_structure", "load_structure_file", "load_kfunction_file",
               "load_section_file"),
}
# modules whose own calls are recursive tree walks: wrap only where imported
RECURSIVE_MODULES = ("expr",)
ZEROTEST_COUNTS = ("exact_share", "points_evaluated", "points_skipped", "inconclusive",
                   "tree_nodes", "distinct_nodes")


def span_name(module: str, function: str) -> str:
    return "fileio.load" if function.startswith("load_") else f"{module}.{function}"


def span_names() -> list[str]:
    names = ["cli.main"]
    for module, functions in LAYERS.items():
        for function in functions:
            if span_name(module, function) not in names:
                names.append(span_name(module, function))
    return names


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in order."""
    out = [f"{name}.{kind}" for name in span_names() for kind in ("calls", "self_s")]
    out += [f"zerotest.{c}" for c in ZEROTEST_COUNTS]
    return out + ["linalg.matrix_entries", "trace_overhead_ratio"]


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith(("_ratio", "_share")) else "count"


def self_times(parent, start, end):
    """Duration of each span minus the part of it that its children cover.

    Spans come from one thread, so siblings never overlap and the covered
    part is the sum of the children's durations, each clipped to the parent.
    """
    import numpy as np

    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    child = parent >= 0
    p = parent[child]
    clipped = np.minimum(end[child], end[p]) - np.maximum(start[child], start[p])
    covered = np.bincount(p, weights=np.clip(clipped, 0.0, None), minlength=len(start))
    return (end - start) - covered


def _split(node):
    """(sub-expressions, other field values) of an expression node."""
    from kontact.expr import ScalarExpr

    kids, own = [], []
    for cls in type(node).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            value = getattr(node, slot, None)
            if isinstance(value, ScalarExpr):
                kids.append(value)
            elif isinstance(value, tuple) and value and isinstance(value[0], ScalarExpr):
                kids.extend(value)
            else:
                own.append(value)
    return kids, tuple(own)


def tree_sizes(root) -> tuple[int, int]:
    """(nodes counted with repetition, distinct subexpressions) of a tree."""
    sizes: dict[int, int] = {}   # id(node) -> subtree size with repetition
    key_of: dict[int, tuple] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in sizes:
            continue
        kids, own = _split(node)
        if not expanded:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in sizes)
            continue
        sizes[id(node)] = 1 + sum(sizes[id(k)] for k in kids)
        key_of[id(node)] = (type(node).__name__, own, tuple(key_of[id(k)] for k in kids))
    return sizes[id(root)], len(set(key_of.values()))


class Tracer:
    """Collects spans around kontact's layer functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple] = []
        self._zero_tests: list[tuple] = []
        self._zero_test_sig = None
        self.matrix_entries = 0

    def wrap(self, name: str, fn, after=None):
        """fn timed as a span called name; after(args, kwargs, result) follows it."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every listed function under each name kontact's modules use."""
        hooks = {"zero_test": self._after_zero_test}
        for fn_name in ("numeric_rank", "nullspace_basis", "least_norm_solution"):
            hooks[fn_name] = self._after_matrix
        hooks["solve_symbolic"] = self._after_symbolic
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("kontact.") and m is not None]
        self._zero_test_sig = inspect.signature(sys.modules["kontact.zerotest"].zero_test)
        for module, functions in LAYERS.items():
            home = sys.modules[f"kontact.{module}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self.wrap(span_name(module, fn_name), original, hooks.get(fn_name))
                for m in modules:
                    if m is home and module in RECURSIVE_MODULES:
                        continue
                    if m.__dict__.get(fn_name) is original:
                        self._patched.append((m, fn_name, original))
                        setattr(m, fn_name, wrapper)

    def restore(self):
        for m, fn_name, original in reversed(self._patched):
            setattr(m, fn_name, original)
        self._patched.clear()

    def _after_zero_test(self, args, kwargs, result):
        # counted after the run, so the tree walks stay out of the spans
        self._zero_tests.append((args, kwargs, result))

    def _after_matrix(self, args, kwargs, result):
        self.matrix_entries += int((args[0] if args else kwargs["M"]).size)

    def _after_symbolic(self, args, kwargs, result):
        rows = args[0] if args else kwargs["rows"]
        self.matrix_entries += len(rows) * len(rows[0]) if rows else 0

    def zero_test_counts(self) -> dict:
        from kontact.expr import free_variables

        counts = dict.fromkeys(ZEROTEST_COUNTS, 0)
        for args, kwargs, result in self._zero_tests:
            bound = self._zero_test_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            expr, config = bound.arguments["e"], bound.arguments["config"]
            counts["exact_share"] += bool(result.exact)
            counts["points_evaluated"] += result.n_points
            if free_variables(expr):
                counts["points_skipped"] += config.n_sample_points - result.n_points
            counts["inconclusive"] += bool(result.inconclusive)
            nodes, distinct = tree_sizes(expr)
            counts["tree_nodes"] += nodes
            counts["distinct_nodes"] += distinct
        if self._zero_tests:
            counts["exact_share"] /= len(self._zero_tests)
        return counts

    def layer_metrics(self) -> dict:
        """calls and self seconds per span name, plus the zero-test counts."""
        import numpy as np

        ids = np.frombuffer(self.name_id, dtype=np.int32)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=self_times(self.parent, self.start, self.end),
                             minlength=len(self.names))
        out = {}
        for name in span_names():
            nid = self.names.index(name) if name in self.names else None
            out[f"{name}.calls"] = int(calls[nid]) if nid is not None else 0
            out[f"{name}.self_s"] = float(self_s[nid]) if nid is not None else 0.0
        out.update({f"zerotest.{k}": v for k, v in self.zero_test_counts().items()})
        out["linalg.matrix_entries"] = self.matrix_entries
        return out

    def write(self, path: Path):
        """All spans as one .npz: names, then name_id/parent/start/end per span."""
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
