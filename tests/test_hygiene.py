"""Source checks that need no import of the package: every name a module of
the package or of the test suite imports at its top level is used somewhere
in that module, every module-level function and class of the package and
every non-dunder method of its classes is referenced from the package, the
tests or the benchmark, every ``__all__`` entry names something its module
binds, every definition that only the tests read is listed with its reason,
no module of the package reads the environment or runs text as Python, and
no nested function of the package calls itself, directly or through a
sibling."""
import ast
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "regkit"
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")))
REFERRING = (sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
             + sorted((TESTS.parent / "perfbench").glob("*.py")))
# what runs: the package, without the re-exports of its __init__, and the
# benchmark
PROGRAM = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted((TESTS.parent / "perfbench").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_detector_flags_unused_name():
    source = "import os\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def _names(node) -> list[str]:
    """Every name a subtree reads: bare names, attributes and imports."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.extend(alias.name for alias in sub.names)
    return out


def reads(sources: list[str]) -> Counter:
    """How often each name is read across ``sources``."""
    return Counter(name for text in sources
                   for name in _names(ast.parse(text)))


def unreferenced(source: str, counts: Counter) -> list[str]:
    """Module-level functions and classes of ``source`` whose name is read
    (``counts``, by name) nowhere outside their own definition."""
    return [f"{node.name} (line {node.lineno})"
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and counts[node.name] <= _names(node).count(node.name)]


def orphan_methods(source: str, counts: Counter) -> list[str]:
    """Non-dunder methods of the classes of ``source`` whose name is read
    (``counts``, by name) nowhere outside their own definition."""
    return [f"{cls.name}.{node.name} (line {node.lineno})"
            for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and counts[node.name] <= _names(node).count(node.name)]


def unbound_exports(source: str) -> list[str]:
    """``__all__`` entries that the module does not bind at its top level."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                exported = [e.value for e in node.value.elts]
    return [name for name in exported if name not in bound]


def test_detector_flags_orphans():
    module = "def used():\n    pass\n\ndef alone(n):\n    return alone(n)\n"
    caller = "from m import used\nused()\n"
    assert unreferenced(module, reads([module, caller])) == [
        "alone (line 4)"]
    assert unbound_exports("__all__ = ['f', 'g']\ndef f():\n    pass\n") \
        == ["g"]
    klass = ("class C:\n    def __len__(self):\n        return 0\n\n"
             "    def used(self):\n        return self.used\n\n"
             "    def alone(self):\n        return self.alone()\n")
    assert orphan_methods(klass, reads([klass, "C().used()\n"])) == [
        "C.alone (line 8)"]


@cache
def _referring_reads() -> Counter:
    return reads([p.read_text() for p in REFERRING])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_definition_is_referenced(path):
    assert unreferenced(path.read_text(), _referring_reads()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_method_is_referenced(path):
    assert orphan_methods(path.read_text(), _referring_reads()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text()) == []


# Definitions of the package that only the tests read, each with what keeps
# it: an acceptance test, a reference that another path is checked against,
# or the ROADMAP item that will call it.  Anything else that only a test
# reads serves nothing and goes.
TEST_ONLY = {
    "frozen_gaussian": "reference: the Z kernel, heat_convolve and the "
                       "kernel mass are checked against it (test_07)",
    "apply_operator": "test_07; ROADMAP item 7 reads the remainder R with it",
    "LambdaTerm.evaluate": "reference: the certificate terms of the Z jets "
                           "are checked against the jets by value",
    "taylor_decompose_Z": "test_08 checks the Taylor reassembly of Z and E; "
                          "ROADMAP item 11",
    "EDecomposition.remainders": "test_08 checks the Taylor reassembly of E; "
                                 "ROADMAP item 11",
    "decompose_green_adjoint": "reference for "
                               "TestGreenAdjoint::test_routes_agree",
    "delta_tilde_coloured": "reference: test_03 checks the jet coproduct "
                            "against it",
    "d_map": "its term order is pinned in coproduct_order_pins.json",
    "CutoffFamily.telescope_defect": "property checker: the dyadic cutoffs "
                                     "telescope exactly",
    "holder_norm_estimate": "ROADMAP items 1(c) and 9: the continuity test "
                            "measures the field with it",
    "aniso_taylor": "test_09",
    "GridField.derivative": "reference: the recentred model's grid "
                            "derivatives vanish at the base point",
    "monomial_field": "reference for the model on X^k Xi; ROADMAP item 2 "
                      "centres it",
    "ModelInstance.pi_times": "reference: the twist of the preparation map "
                              "is checked against the plain product",
    "model_difference": "ROADMAP items 1(c) and 9: the continuity test "
                        "measures the models with it",
    "precedes": "the order of _order_key as a predicate, which the tests "
                "check to be lexicographic",
    "PreparationMap.check_triangular": "property checker: a preparation map "
                                       "is triangular",
    "Rule.strongly_conforms": "oracle of the tests of generate",
    "DecoratedTree.from_dict": "the hypothesis strategies and the "
                               "brute-force generate build trees with it",
    "paint": "test_03 colours its trees with it",
}


def only_tested(source: str, program: Counter, tests: Counter) -> list[str]:
    """Module-level functions and classes of ``source``, and non-dunder
    methods of its classes, whose name the program (``program``, by name)
    reads nowhere outside their own definition, and the tests (``tests``)
    do."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                      if isinstance(sub, ast.FunctionDef)
                      and not (sub.name.startswith("__")
                               and sub.name.endswith("__"))]
    return [label for label, node in found
            if program[node.name] <= _names(node).count(node.name)
            and tests[node.name]]


def test_detector_flags_test_only_api():
    module = ("def used():\n    pass\n\ndef probe(n):\n    return probe(n)\n"
              "\ndef alone():\n    pass\n\nclass C:\n"
              "    def run(self):\n        pass\n\n"
              "    def check(self):\n        return self.check()\n")
    program = reads([module, "from m import used, C\nused()\nC().run()\n"])
    tests = reads(["from m import probe, C\nprobe(1)\nC().check()\n"])
    assert only_tested(module, program, tests) == ["probe", "C.check"]


@cache
def _test_only_found() -> set[str]:
    program = reads([p.read_text() for p in PROGRAM])
    tests = reads([p.read_text() for p in sorted(TESTS.glob("*.py"))])
    return {label for path in sorted(SRC.glob("*.py"))
            for label in only_tested(path.read_text(), program, tests)}


def test_every_test_only_definition_is_listed():
    assert sorted(_test_only_found() - set(TEST_ONLY)) == []


def test_every_listed_definition_is_test_only():
    # a listed name that the package or the benchmark now reads (or that is
    # gone) leaves the table
    assert sorted(set(TEST_ONLY) - _test_only_found()) == []


def environment_reads(source: str) -> list[str]:
    """Reads of ``os.environ`` or ``os.getenv``, also when imported by
    name: a report must not depend on a setting it does not record."""
    out = []
    for sub in ast.walk(ast.parse(source)):
        if isinstance(sub, ast.ImportFrom):
            names = [alias.name for alias in sub.names]
        else:
            names = [getattr(sub, "attr", getattr(sub, "id", None))]
        out += [f"{name} (line {sub.lineno})" for name in names
                if name in ("environ", "getenv")]
    return out


def test_detector_flags_environment_reads():
    source = ("import os\nfrom os import getenv\n"
              "n = os.environ.get('N', '1')\n")
    assert environment_reads(source) == ["getenv (line 2)",
                                         "environ (line 3)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(path.read_text()) == []


def dynamic_code(source: str) -> list[str]:
    """Calls of ``sympify``, ``parse_expr``, ``eval`` or ``exec``, also by
    attribute or when imported by name: each runs text as Python, so
    untrusted text must be read node by node instead."""
    out = []
    for sub in ast.walk(ast.parse(source)):
        if isinstance(sub, ast.ImportFrom):
            names = [alias.name for alias in sub.names]
        elif isinstance(sub, ast.Call):
            names = [getattr(sub.func, "attr", getattr(sub.func, "id", None))]
        else:
            continue
        out += [f"{name} (line {sub.lineno})" for name in names
                if name in ("sympify", "parse_expr", "eval", "exec")]
    return out


def test_detector_flags_dynamic_code():
    source = ("import sympy as sp\nfrom sympy import sympify\n"
              "sp.sympify('x')\neval('1')\nexec('y = 1')\nsp.S.evalf()\n"
              "parse_expr(text)\n")
    assert dynamic_code(source) == ["sympify (line 2)", "sympify (line 3)",
                                    "eval (line 4)", "exec (line 5)",
                                    "parse_expr (line 7)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_dynamic_code(path):
    assert dynamic_code(path.read_text()) == []


def readers(source: str) -> list[str]:
    """Every mention of ``srepr`` and every call of ``ast.parse``, also
    when imported by name: a second reader of untrusted text, or a second
    grammar."""
    out = []
    for sub in ast.walk(ast.parse(source)):
        if isinstance(sub, ast.ImportFrom):
            names = [alias.name for alias in sub.names]
        else:
            names = [getattr(sub, "attr", getattr(sub, "id", None))]
        out += [(sub.lineno, "srepr") for name in names if name == "srepr"]
        func = getattr(sub, "func", None)
        if isinstance(sub, ast.Call) and (
                getattr(func, "id", None) == "parse" or (
                    getattr(func, "attr", None) == "parse"
                    and getattr(func.value, "id", None) == "ast")):
            out.append((sub.lineno, "ast.parse"))
    return [f"{name} (line {line})" for line, name in sorted(out)]


def test_detector_flags_readers():
    source = ("import ast\nimport sympy as sp\nfrom sympy import srepr\n"
              "from ast import parse\nsp.srepr(1)\nast.parse('1')\n"
              "parse('2')\nparser.parse('3')\n")
    assert readers(source) == ["srepr (line 3)", "srepr (line 5)",
                               "ast.parse (line 6)", "ast.parse (line 7)"]


def test_one_reader_of_untrusted_text():
    """No module of the package mentions srepr, and ``ast.parse`` is called
    once, in ``heatkernel._read``: the one reader of every grammar of
    untrusted text."""
    found = [(path.name, hit) for path in sorted(SRC.glob("*.py"))
             for hit in readers(path.read_text())]
    assert [(name, hit.split()[0]) for name, hit in found] == [
        ("heatkernel.py", "ast.parse")]


def _nested_functions(fn) -> list:
    """The functions defined in the body of ``fn``, also inside its control
    flow, but not those inside them."""
    out, todo = [], list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(node)
        elif not isinstance(node, (ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return sorted(out, key=lambda node: node.lineno)


def closure_cycles(source: str) -> list[str]:
    """Nested functions that name themselves, or a sibling that names them
    back (through any chain of siblings): each call of such a function is a
    reference cycle through its closure cell, which keeps what it captured
    alive until the cycle collector runs."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inner = _nested_functions(fn)
        names = {f.name for f in inner}
        calls = {f.name: names.intersection(
            sub.id for sub in ast.walk(f) if isinstance(sub, ast.Name))
            for f in inner}
        for f in inner:
            seen, todo = set(), list(calls[f.name])
            while todo:
                name = todo.pop()
                if name not in seen:
                    seen.add(name)
                    todo.extend(calls[name])
            if f.name in seen:
                out.append(f"{fn.name}.{f.name} (line {f.lineno})")
    return out


def test_detector_flags_closure_cycles():
    source = ("def walk(t):\n    def rec(v):\n        return [rec(c) for c in v]\n"
              "    return rec(t)\n\n"
              "def pair(t):\n    def even(v):\n        return v and odd(v - 1)\n"
              "    def odd(v):\n        if v:\n            return even(v - 1)\n"
              "    return even(t)\n\n"
              "def chain(t):\n    def remainder(v):\n        return power(v)\n"
              "    def power(v):\n        return v * v\n"
              "    return remainder(t)\n\n"
              "def top(t):\n    return top(t - 1) if t else 0\n")
    assert closure_cycles(source) == ["walk.rec (line 2)", "pair.even (line 7)",
                                      "pair.odd (line 9)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_closure_cycles(path):
    assert closure_cycles(path.read_text()) == []
