"""Static checks on the package source (no linter is a dependency)."""

import ast
from pathlib import Path

import klr


def unused_imports(source):
    """Names a module imports but never reads, except those in __all__."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_detected():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re as regex\n"
              "from x import a, b\n__all__ = ['b']\nprint(a)\n")
    assert unused_imports(source) == ["os", "regex"]


def test_no_unused_imports_in_package():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(Path(klr.__file__).parent.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def dead_names(sources, exported):
    """Module-level functions and classes, and private methods of classes,
    that no module reads.

    ``sources`` maps module names to source text.  A name counts as read
    wherever it is loaded as a bare name or an attribute, in any module,
    its own included; names in ``exported`` are public API and never dead.
    A private method is one named ``_name``; dunders are called by Python.
    """
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}", item.name)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and item.name.startswith("_")
                            and not item.name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in read and name not in exported)


def test_dead_names_detected():
    sources = {"a": "def used():\n    pass\n\n\nclass Gone:\n    pass\n",
               "b": ("from a import used\nimport a\n\n\n"
                     "def public():\n    return used()\n\n\n"
                     "def helper():\n    return a.used\n\n\n"
                     "def dead():\n    helper()\n")}
    assert dead_names(sources, {"public"}) == ["a.Gone", "b.dead"]


def test_dead_private_methods_detected():
    sources = {"a": ("class Ring:\n"
                     "    def __init__(self):\n        self._step()\n\n"
                     "    def _step(self):\n        return self._loop()\n\n"
                     "    def _loop(self):\n        return self._loop()\n\n"
                     "    def _orphan(self):\n        return 0\n\n"
                     "    def public(self):\n        return 1\n"),
               "b": "from a import Ring\n\n\nRing()._helper\n",
               "c": "class Other:\n    def _helper(self):\n        pass\n"}
    assert dead_names(sources, {"Ring", "Other"}) == ["a.Ring._orphan"]


def test_no_dead_names_in_package():
    sources = {path.stem: path.read_text()
               for path in sorted(Path(klr.__file__).parent.glob("*.py"))}
    assert dead_names(sources, set(klr.__all__)) == []


def local_imports(source):
    """Imports inside a function body, as "function:line"."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.add(f"{node.name}:{inner.lineno}")
    return sorted(found)


def test_local_imports_detected():
    source = ("import os\n\n\ndef f():\n    from x import y\n    return y\n"
              "\n\nclass C:\n    def g(self):\n        import re\n"
              "        return re\n")
    assert local_imports(source) == ["f:5", "g:11"]


def test_no_function_local_imports():
    found = {path.name: local_imports(path.read_text())
             for path in sorted(Path(klr.__file__).parent.glob("*.py"))}
    assert {name: where for name, where in found.items() if where} == {}


def attribute_readers(source, attr):
    """The functions that read the attribute ``attr``, by name, sorted;
    "<module>" stands for code outside every function."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == attr
                    and isinstance(child.ctx, ast.Load)):
                found.add(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_attribute_readers_detected():
    source = ("def f(g):\n    return g.edges\n\n\n"
              "def h(g):\n    def inner():\n        return g.edges\n"
              "    g.edges = 1\n    return inner, g.vertices\n\n\n"
              "X = G.edges\n")
    assert attribute_readers(source, "edges") == ["<module>", "f", "inner"]


def test_edge_set_read_only_where_allowed():
    """The graph answers graph questions (equality, membership, pairing)
    itself, so outside cartan.py the edge set is read only to orient the
    edges for the polynomial representation and to list the edges that
    the idempotents suite checks."""
    found = {(path.stem, name)
             for path in sorted(Path(klr.__file__).parent.glob("*.py"))
             if path.stem != "cartan"
             for name in attribute_readers(path.read_text(), "edges")}
    assert found <= {("polyrep", "default_orientation"),
                     ("polyrep", "reversed_orientation"),
                     ("verify", "_idempotents")}


def test_raw_constructors_called_only_where_allowed():
    """``LaurentPoly._of`` and ``GradedDim._of`` skip the constructor
    checks, so only the arithmetic (laurent, gdim) and the form layer
    (characters, elements) build with them; the CLI, the JSON readers and
    the quotient engine go through the checked constructors."""
    found = {path.stem
             for path in sorted(Path(klr.__file__).parent.glob("*.py"))
             if attribute_readers(path.read_text(), "_of")}
    assert found <= {"laurent", "gdim", "characters", "elements"}


def _is_cartan_call(node):
    """A call of a function or method named ``cartan``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr == "cartan"
            or isinstance(func, ast.Name) and func.id == "cartan")


def _is_int_literal(node):
    """An int literal, signed or not: -1 parses as a unary minus."""
    if (isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def cartan_literal_sites(source):
    """Lines where a ``cartan(...)`` call is compared with an int literal
    or tested for truth (if, while, a conditional expression, assert, not,
    and/or, a comprehension filter)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(map(_is_cartan_call, operands))
                    and any(map(_is_int_literal, operands))):
                found.add(node.lineno)
            continue
        if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
            tests = [node.test]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            tests = [node.operand]
        elif isinstance(node, ast.BoolOp):
            tests = node.values
        elif isinstance(node, ast.comprehension):
            tests = node.ifs
        else:
            continue
        found.update(t.lineno for t in tests if _is_cartan_call(t))
    return sorted(found)


def test_cartan_literals_detected():
    source = ("def f(g, cartan, a, b):\n"
              "    if g.cartan(a, b) == -1:\n"
              "        pass\n"
              "    x = 0 != cartan(a, b)\n"
              "    if not g.cartan(a, b):\n"
              "        pass\n"
              "    y = 1 if cartan(a, b) else 2\n"
              "    z = [a for a in b if g.cartan(a, b)]\n"
              "    ok = a and g.cartan(a, b)\n"
              "    n = 1 - g.cartan(a, b)\n"
              "    same = g.cartan(a, b) != h.cartan(a, b)\n"
              "    m = g.cartan(a, b) * 2\n"
              "    while g.cartan(a, b):\n"
              "        pass\n")
    assert cartan_literal_sites(source) == [2, 4, 5, 7, 8, 9, 13]


def test_no_cartan_literal_outside_cartan():
    """The graph owns KL I's crossing relations (``double_crossing``,
    ``braid_correction``), so outside cartan.py no module decides a
    relation by comparing a pairing with its simply-laced values: the
    pairing is read only as a number."""
    found = {path.stem: cartan_literal_sites(path.read_text())
             for path in sorted(Path(klr.__file__).parent.glob("*.py"))
             if path.stem != "cartan"}
    assert {name: lines for name, lines in found.items() if lines} == {}
