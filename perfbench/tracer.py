"""Span tracing of the ohopf layers from outside the package.

A Tracer replaces the public functions of each module in ``src/ohopf`` (and a
few hot class methods) with wrappers that record one span per call: its name,
its duration and the time its child spans covered.  Nothing under ``src/``
changes; the wrappers are installed on every namespace that holds a traced
function (the defining module, every module that did ``from .x import y``,
class dicts including aliases such as ``Polynomial.__radd__``) and
``uninstall`` puts the originals back.

Spans are folded into per-name totals as they close, which keeps memory flat
at the ~10^5 calls a pass makes; the totals stay in memory until the caller
writes them out.  The self time of a span is its duration minus the time
covered by its child spans, so the self times of all spans of a pass add up
to the traced time of the pass with no overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "ohopf"
# The modules of src/ohopf, each one layer.
LAYERS = (
    "polyring",
    "algebra",
    "exactsolve",
    "leaves",
    "groupoid",
    "algebroid",
    "lie3",
    "foliation",
    "report",
    "cli",
)

# Class methods traced besides the module-level public functions.
METHODS = {
    "polyring": {"Polynomial": ("__mul__", "__add__", "__sub__", "__neg__")},
    "algebra": {"AlgebraElement": ("__mul__",)},
    "report": {"VerificationReport": ("to_json", "to_text")},
}

ALGEBRA_MUL = "algebra.AlgebraElement.__mul__"
# Arrows counted for groupoid.arrows_per_s: draws made inside verify_structure.
ARROW_SCOPE = ("groupoid.verify_structure", "groupoid.random_arrow")


def _backend(element, other) -> str:
    """Scalar backend of an AlgebraElement product: poly, float or exact."""
    seen_float = False
    for coeffs in (element.coeffs, getattr(other, "coeffs", (other,))):
        for c in coeffs:
            if isinstance(c, (int, bool)) or c is None:
                continue
            if isinstance(c, float) or type(c).__module__ == "numpy":
                seen_float = True
            elif type(c).__name__ == "Polynomial":
                return "poly"
    return "float" if seen_float else "exact"


class SpanStats:
    """Running totals of the closed spans of one name."""

    __slots__ = ("calls", "self_s", "inclusive_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.inclusive_s = 0.0  # outermost spans only, so recursion is not double counted
        self.depth = 0

    def as_dict(self):
        return {"calls": self.calls, "self_s": self.self_s, "inclusive_s": self.inclusive_s}


class Tracer:
    """Installs span wrappers on the ohopf layers and folds spans into totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.peak_terms = 0
        self.scoped_calls = 0
        self._stack: list[list] = []  # open spans: [child_s]
        self._installed: list[tuple] = []  # (namespace object, attribute, original)

    # -- spans --------------------------------------------------------------

    def reset(self):
        """Drop the totals (between passes); open spans are not allowed."""
        if self._stack:
            raise RuntimeError("reset with %d open spans" % len(self._stack))
        self.stats = {}
        self.peak_terms = 0
        self.scoped_calls = 0

    def _stat(self, name: str) -> SpanStats:
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = SpanStats()
        return s

    def wrap(self, name: str, fn, polynomial_result: bool = False):
        """Return fn wrapped in a span named ``name`` (layer = text before the first dot)."""
        clock, stack, tracer = self.clock, self._stack, self
        backend_named = name == ALGEBRA_MUL
        in_scope = name == ARROW_SCOPE[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if backend_named:
                span = "%s[%s]" % (name, _backend(args[0], args[1]))
            stat = tracer._stat(span)
            if in_scope:
                outer = tracer.stats.get(ARROW_SCOPE[0])
                if outer is not None and outer.depth:
                    tracer.scoped_calls += 1
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat.depth -= 1
                if stack:
                    stack[-1][0] += duration
                stat.calls += 1
                stat.self_s += duration - frame[0]
                if not stat.depth:
                    stat.inclusive_s += duration
            if polynomial_result:
                terms = getattr(result, "terms", None)
                if terms is not None and len(terms) > tracer.peak_terms:
                    tracer.peak_terms = len(terms)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def targets(self):
        """(span name, original function) for every traced function."""
        out = []
        for layer in LAYERS:
            module = importlib.import_module("%s.%s" % (PACKAGE, layer))
            for attr, obj in sorted(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    out.append(("%s.%s" % (layer, attr), obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    out.append(("%s.%s.%s" % (layer, cls_name, meth), vars(cls)[meth]))
        return out

    def _namespaces(self):
        """Every module and class namespace of the package that may hold a target."""
        prefix = PACKAGE + "."
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(prefix))
        ]
        spaces = list(modules)
        for m in modules:
            for obj in vars(m).values():
                if inspect.isclass(obj) and obj.__module__.startswith(prefix) and obj not in spaces:
                    spaces.append(obj)
        return spaces

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, fn in self.targets():
            polynomial_result = name.startswith("polyring.")
            wrappers[id(fn)] = (fn, self.wrap(name, fn, polynomial_result))
        for space in self._namespaces():
            for attr, obj in list(vars(space).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._installed.append((space, attr, obj))
                    setattr(space, attr, hit[1])

    def uninstall(self):
        """Put every original back and check that no wrapper is left anywhere."""
        while self._installed:
            space, attr, original = self._installed.pop()
            setattr(space, attr, original)
        leftovers = self.leftover_wrappers()
        if leftovers:
            raise RuntimeError("wrappers left after uninstall: %s" % ", ".join(leftovers))

    def leftover_wrappers(self):
        return [
            "%s.%s" % (getattr(space, "__name__", space), attr)
            for space in self._namespaces()
            for attr, obj in vars(space).items()
            if hasattr(obj, "__perfbench_original__")
        ]

    @property
    def installed(self):
        return list(self._installed)


def layer_metrics(tracer: Tracer, pass_s: float) -> dict:
    """Per-layer numbers of one traced pass, from the tracer's span totals."""
    stats = tracer.stats

    def get(name, field):
        s = stats.get(name)
        return getattr(s, field) if s is not None else 0

    def layer_total(layer, field):
        return sum(getattr(s, field) for n, s in stats.items() if n.split(".", 1)[0] == layer)

    m = {}
    m["polyring.mul.calls"] = get("polyring.Polynomial.__mul__", "calls")
    m["polyring.mul.self_s"] = get("polyring.Polynomial.__mul__", "self_s")
    addsub = ["polyring.Polynomial.__%s__" % op for op in ("add", "sub", "neg")]
    m["polyring.addsub.calls"] = sum(get(n, "calls") for n in addsub)
    m["polyring.addsub.self_s"] = sum(get(n, "self_s") for n in addsub)
    m["polyring.peak_terms"] = tracer.peak_terms
    for backend in ("float", "poly", "exact"):
        name = "%s[%s]" % (ALGEBRA_MUL, backend)
        m["algebra.mul.%s.calls" % backend] = get(name, "calls")
        m["algebra.mul.%s.self_s" % backend] = get(name, "self_s")
    m["groupoid.target.calls"] = get("groupoid.target", "calls")
    structure_s = get(ARROW_SCOPE[0], "inclusive_s")
    m["groupoid.arrows_per_s"] = tracer.scoped_calls / structure_s if structure_s else 0.0
    m["leaves.classify.calls"] = get("leaves.classify", "calls")
    m["foliation.sampled_oracle_s"] = get("foliation.sampled_nullspace_dimension", "inclusive_s")
    m["foliation.linear_nullspace_s"] = get("foliation.linear_nullspace", "inclusive_s")
    m["lie3.generic_ranks_s"] = get("lie3.generic_ranks", "inclusive_s")
    m["report.render_s"] = sum(
        get("report.VerificationReport.%s" % r, "inclusive_s") for r in ("to_json", "to_text")
    )
    for layer in LAYERS:
        m["%s.calls" % layer] = layer_total(layer, "calls")
        m["%s.self_s" % layer] = layer_total(layer, "self_s")
        m["%s.share" % layer] = m["%s.self_s" % layer] / pass_s if pass_s else 0.0
    m["trace.pass_s"] = pass_s
    m["trace.covered_s"] = sum(s.self_s for s in stats.values())
    return m
