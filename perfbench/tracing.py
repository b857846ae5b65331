"""Per-layer tracing of cellsheaf from the outside.

`Tracer.install()` replaces the names each cellsheaf module looks up from
the package (its own functions and those it imported from other modules)
with timing wrappers, and wraps a few methods on the classes. Calls inside
one module go through its globals too, so they are counted as well. Nothing
under `src/` changes; the untraced run installs nothing.

Each wrapped call is a span (name, start, end, parent), kept in compact
arrays and written out by `write()`. A layer's self time is the time during
which its span is the innermost one open, which is its span time minus the
time of the child spans of other layers inside it.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from array import array
from time import perf_counter_ns

LAYERS = ("cli", "document", "order", "topology", "sheaf", "morphism", "linalg")

# Methods that do a layer's work when another layer calls them. Hot
# accessors (PreOrder.leq, CellularSheaf.dim, ...) stay unwrapped: their
# time counts toward the span that calls them.
METHODS = {
    "linalg": {
        "Matrix": ("__matmul__", "__add__", "__sub__", "__neg__", "scale", "mul_vec",
                   "transpose", "is_zero", "rank", "rref", "is_injective",
                   "is_surjective", "is_invertible", "inverse"),
        "SubspaceBasis": ("reduce", "contains", "coordinates", "linear_combination"),
    },
    "sheaf": {
        "Section": ("__init__",),
        "SectionSpace": ("basis_sections", "coordinates_of"),
    },
}

ELIMINATIONS = {
    "linalg.kernel_basis": lambda a: a[0].rows * a[0].cols,
    "linalg.subspace_from_rows": lambda a: len(a[2]) * a[1],
    "linalg._rref": lambda a: len(a[1]) * a[2],
    "linalg.Matrix.rank": lambda a: a[0].rows * a[0].cols,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.span_name = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.stack: list[int] = []        # open span indices
        self.self_ns = [0] * len(LAYERS)
        self.last = 0
        self.counts = dict.fromkeys((
            "linalg.eliminations", "linalg.elimination_cells_max",
            "linalg.elimination_cells_total", "linalg.matmul_calls",
            "sheaf.covers_checked", "sheaf.sections_over_calls", "sheaf.section_solves",
            "sheaf.restriction_matrix_calls", "sheaf.restriction_solves",
            "sheaf.stalk_neighbourhoods", "topology.opens_enumerated",
            "order.hasse_edges_calls"), 0)
        self.elimination_depth = 0
        self.solving: list[list[bool]] = []    # open sections_over calls
        self.restricting: list[list[bool]] = []  # open restriction_matrix calls
        self.undo: list = []

    # -- spans ------------------------------------------------------------

    def enter(self, name_id: int) -> int:
        now = perf_counter_ns()
        if self.stack:
            self.self_ns[self.layer_of[self.span_name[self.stack[-1]]]] += now - self.last
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_start.append(now)
        self.span_end.append(0)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.stack.append(index)
        self.last = now
        return index

    def exit(self, index: int) -> None:
        now = perf_counter_ns()
        self.self_ns[self.layer_of[self.span_name[index]]] += now - self.last
        self.span_end[index] = now
        self.stack.pop()
        self.last = now

    # -- counters ---------------------------------------------------------

    def before(self, name, args):
        counts = self.counts
        if name in ELIMINATIONS:
            if self.elimination_depth == 0:
                cells = ELIMINATIONS[name](args)
                counts["linalg.eliminations"] += 1
                counts["linalg.elimination_cells_total"] += cells
                counts["linalg.elimination_cells_max"] = max(
                    counts["linalg.elimination_cells_max"], cells)
            self.elimination_depth += 1
            if self.solving:
                self.solving[-1][0] = True
        elif name == "linalg.Matrix.__matmul__":
            counts["linalg.matmul_calls"] += 1
        elif name == "sheaf.sections_over":
            counts["sheaf.sections_over_calls"] += 1
            if self.restricting:
                self.restricting[-1][0] = True
            self.solving.append([False])
        elif name == "sheaf.restriction_matrix":
            counts["sheaf.restriction_matrix_calls"] += 1
            self.restricting.append([False])
        elif name == "order.hasse_edges":
            counts["order.hasse_edges_calls"] += 1

    def after(self, name, result):
        counts = self.counts
        if name in ELIMINATIONS:
            self.elimination_depth -= 1
        elif name == "sheaf.sections_over":
            counts["sheaf.section_solves"] += self.solving.pop()[0]
        elif name == "sheaf.restriction_matrix":
            counts["sheaf.restriction_solves"] += self.restricting.pop()[0]
        elif result is None:  # the call raised
            return
        elif name in ("sheaf.verify_base_sheaf_axioms", "sheaf.verify_sheaf_axioms_extended"):
            counts["sheaf.covers_checked"] += len(result.checks)
        elif name == "sheaf.stalk_direct_limit":
            counts["sheaf.stalk_neighbourhoods"] += len(result.neighbourhoods)
        elif name == "topology.enumerate_opens":
            counts["topology.opens_enumerated"] += len(result)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, layer: str, qualname: str):
        name = f"{layer}.{qualname}"
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        tracer = self
        materialize = name == "linalg.subspace_from_rows"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if materialize and not isinstance(args[2], (list, tuple)):
                args = (args[0], args[1], list(args[2]))
            index = tracer.enter(name_id)
            tracer.before(name, args)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.after(name, result)
                tracer.exit(index)

        return traced

    def install(self, modules: dict) -> None:
        """Wrap in place; `modules` maps each layer name to its module."""
        wrapped = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value):
                    continue
                home = value.__module__.rsplit(".", 1)[-1]
                if not value.__module__.startswith("cellsheaf.") or home not in LAYERS:
                    continue
                if value not in wrapped:
                    wrapped[value] = self.wrap(value, home, value.__name__)
                self.undo.append((module, attr, value))
                setattr(module, attr, wrapped[value])
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    self.undo.append((cls, method, original))
                    setattr(cls, method, self.wrap(original, layer, f"{cls_name}.{method}"))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for layer, ns in zip(LAYERS, self.self_ns):
            out[f"{layer}.self_s"] = (ns / 1e9, "s")
        c = self.counts
        for key, value in c.items():
            if key != "sheaf.restriction_solves":
                out[key] = (value, "count")
        calls = c["sheaf.sections_over_calls"]
        out["sheaf.section_cache_hit_ratio"] = (
            1 - c["sheaf.section_solves"] / calls if calls else 0.0, "ratio")
        calls = c["sheaf.restriction_matrix_calls"]
        out["sheaf.restriction_cache_hit_ratio"] = (
            1 - c["sheaf.restriction_solves"] / calls if calls else 0.0, "ratio")
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON: a name table and one [name, start_ns,
        end_ns, parent] row per span, parent -1 at an operation's root."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump({"names": self.names, "layers": [LAYERS[i] for i in self.layer_of],
                       "spans": [list(row) for row in zip(
                           self.span_name, self.span_start, self.span_end,
                           self.span_parent)]}, fh)
