"""Static guards over src/ohopf: every function and method has a caller in
the package or the demos, only report.py constructs a Check, and the
symbolic proofs of algebroid, lie3 and foliation share one ring of sections."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# definitions that need no caller in src/ohopf or demos/, each with its reason
EXEMPT = {
    "main": "the console entry point, run through [project.scripts] and python -m ohopf.cli",
}


def _sources(folder):
    return [path.read_text(encoding="utf-8") for path in sorted((ROOT / folder).glob("*.py"))]


def _references(tree) -> Counter:
    """Uses of each name: ("name", n) for a bare name or an import of n,
    ("call", n) for obj.n(...) and ("attr", n) for any other obj.n."""
    calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out["name", node.id] += 1
        elif isinstance(node, ast.alias):
            out["name", node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Attribute):
            out["call" if id(node) in calls else "attr", node.attr] += 1
    return out


def _definitions(tree):
    """(def node, is a method) for every function, method and nested function."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            for child in node.body:
                if isinstance(child, ast.FunctionDef):
                    yield child, isinstance(node, ast.ClassDef)


def unreferenced(package_sources, other_sources=()) -> set:
    """Names defined in package_sources that nothing uses outside their own body.

    A function is used through its bare name or any attribute of that name.
    A method is used only through a call obj.name(...), or through obj.name
    when it is a property, so an attribute that shares its name (such as
    PolyRing.variables) does not keep it alive.  Dunders are called by
    Python itself and are skipped.
    """
    trees = [ast.parse(text) for text in package_sources]
    uses = Counter()
    for tree in trees + [ast.parse(text) for text in other_sources]:
        uses += _references(tree)
    dead = set()
    for tree in trees:
        for node, method in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            prop = any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)
            kinds = ("call", "attr") if prop else ("call",) if method else ("name", "call", "attr")
            own = _references(node)
            if not any(uses[kind, name] > own[kind, name] for kind in kinds):
                dead.add(name)
    return dead


def test_every_definition_has_a_caller():
    dead = unreferenced(_sources("src/ohopf"), _sources("demos")) - set(EXEMPT)
    assert not dead, "no caller in src/ohopf or demos/: %s" % ", ".join(sorted(dead))


def test_exemptions_name_definitions():
    defined = {node.name for text in _sources("src/ohopf") for node, _ in _definitions(ast.parse(text))}
    assert set(EXEMPT) <= defined


def test_the_guard_finds_dead_definitions():
    source = """
class Ring:
    def __init__(self):
        self.variables = ()

    def variables(self):
        return self.variables

    def used(self):
        return 1

    @property
    def size(self):
        return 0


def recursive(n):
    return recursive(n - 1)


def caller(ring):
    return ring.used() + ring.size
"""
    assert unreferenced([source]) == {"variables", "recursive", "caller"}
    assert unreferenced([source], ["caller(None)"]) == {"variables", "recursive"}


def check_constructions(source) -> list:
    """Line numbers of the calls Check(...) and obj.Check(...) in source."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "Check" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_only_report_constructs_checks():
    # the suites record every check through VerificationReport.add, cite and law
    found = {
        path.name: check_constructions(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src/ohopf").glob("*.py"))
        if path.name != "report.py"
    }
    assert not {name: lines for name, lines in found.items() if lines}


def test_the_guard_finds_check_constructions():
    source = """
from .report import Check
from . import report

a = Check("a", "law", True)
b = report.Check("b", "law", True)
report.add("c", "law", True)
"""
    assert check_constructions(source) == [5, 6]


def section_rings(source) -> list:
    """(enclosing function, line) of each PolyRing(...) call in source that is
    given section variables: more than the base dimension."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Call)
                and "PolyRing" in (getattr(child.func, "id", None), getattr(child.func, "attr", None))
                and (len(child.args) > 1 or child.keywords)
            ):
                found.append((owner, child.lineno))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else owner)

    visit(ast.parse(source), None)
    return found


# the one ring of symbolic sections, and the linear ansatz, whose unknowns
# are no section's
SECTION_RINGS = {("algebroid.py", "_sym_sections"), ("foliation.py", "_ansatz_rows")}


def test_symbolic_sections_come_from_one_ring():
    found = {
        (name, owner)
        for name in ("algebroid.py", "lie3.py", "foliation.py")
        for owner, _ in section_rings((ROOT / "src/ohopf" / name).read_text(encoding="utf-8"))
    }
    assert found == SECTION_RINGS


def test_the_guard_finds_section_rings():
    source = """
from .polyring import PolyRing
from . import polyring

def base():
    return PolyRing(8)

def sections(dim):
    ring = PolyRing(dim, ["u0"])
    def inner():
        return polyring.PolyRing(dim, sections=["v0"])
    return ring, inner
"""
    assert section_rings(source) == [("sections", 9), ("inner", 11)]
