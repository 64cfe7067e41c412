"""Source hygiene checks that need no linter.

Every name a fedre module imports must be used in that module, or be
re-exported through its ``__all__``. Every public function and class of
``src/fedre`` must have a caller outside the tests: in ``src/``,
``scripts/`` or perfbench's non-test files, in perfbench's ``TRACED`` list,
or in ``fedre.__all__``. Every defaulted parameter of a public function
must be passed by some call in that same live code.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fedre"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree):
    """{bound name: line} for every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return used


def test_every_module_is_checked():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = {
        name: line
        for name, line in imported_names(tree).items()
        if name not in used_names(tree)
    }
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_finds_an_unused_import():
    tree = ast.parse("import os\nfrom x import y, z as w\n__all__ = ['y']\n")
    names = imported_names(tree)
    assert set(names) - used_names(tree) == {"os", "w"}


# ------------------------------------------------- public names nothing uses

ROOT = SRC.parent.parent
CALLERS = (
    sorted((ROOT / "scripts").glob("*.py"))
    + [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
)


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def referenced(node):
    """Names a node refers to, as a bare name or an attribute; strings and
    docstrings are not references."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def assigned_strings(tree, target):
    """The strings of a module-level `target = (...)` literal."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == target for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_public_names(package, callers, roots=()):
    """Public top-level functions and classes of the package that no live
    code references, sorted.

    Live code is every caller tree, the package's module-level statements
    outside function and class definitions, and, transitively, every
    definition that live code names; roots are names live from elsewhere.
    A definition only dead code names is dead too.
    """
    bodies, live = {}, set(roots)
    for tree in package:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(node)
            else:
                live |= referenced(node)
    for tree in callers:
        live |= referenced(tree)
    todo = list(live)
    while todo:
        for node in bodies.get(todo.pop(), ()):
            todo += referenced(node) - live
            live |= referenced(node)
    return sorted(name for name in bodies if not name.startswith("_") and name not in live)


def test_every_public_name_has_a_caller_outside_the_tests():
    tracing = parse(ROOT / "perfbench" / "tracing.py")
    roots = {dotted.split(".")[-1] for dotted in assigned_strings(tracing, "TRACED")}
    roots |= assigned_strings(parse(SRC / "__init__.py"), "__all__")
    unused = unused_public_names(
        [parse(p) for p in MODULES], [parse(p) for p in CALLERS], roots
    )
    assert not unused, f"public names only the tests call: {unused}"


def test_the_check_finds_an_unused_public_name():
    package = [
        ast.parse(
            "import m\n"
            "def used(): return helper()\n"
            "def helper(): '''calls dead()'''; return m.attr\n"
            "def dead(): return only_dead_calls_me()\n"
            "def only_dead_calls_me(): pass\n"
            "def traced(): pass\n"
            "class Unused: pass\n"
            "def _private(): pass\n"
            "TABLE = (used,)\n"
        )
    ]
    callers = [ast.parse("import pkg\npkg.m.attr\n")]
    assert unused_public_names(package, callers, roots={"traced"}) == [
        "Unused", "dead", "only_dead_calls_me"
    ]


# ------------------------------------------- parameters only the tests set

# (function, parameter) pairs set from outside the code: the console entry
# point calls cli.main() with no arguments
EXEMPT_PARAMETERS = {("main", "argv")}


def defaulted_parameters(package):
    """{public top-level function: (its positional parameter names, its
    defaulted parameter names)}."""
    found = {}
    for tree in package:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                if defaulted:
                    found[node.name] = (positional, defaulted)
    return found


def parameters_never_passed(package, callers, exempt=()):
    """The "function(parameter)" pairs of defaulted parameters that no call
    in the package or the callers passes, by position or by keyword, sorted.
    A call with *args or **kwargs counts as passing every parameter."""
    params = defaulted_parameters(package)
    passed = {name: set() for name in params}
    for tree in list(package) + list(callers):
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in params:
                continue
            positional, defaulted = params[name]
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                kw.arg is None for kw in call.keywords
            ):
                passed[name] |= set(defaulted)
                continue
            passed[name] |= set(positional[: len(call.args)])
            passed[name] |= {kw.arg for kw in call.keywords}
    return sorted(
        f"{name}({p})"
        for name, (_, defaulted) in params.items()
        for p in defaulted
        if p not in passed[name] and (name, p) not in exempt
    )


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    never = parameters_never_passed(
        [parse(p) for p in MODULES], [parse(p) for p in CALLERS], EXEMPT_PARAMETERS
    )
    assert not never, f"parameters only the tests set: {never}"


def test_the_check_finds_a_parameter_only_tests_set():
    package = [
        ast.parse(
            "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
            "def g(x=0): pass\n"
            "def h(y=0): pass\n"
            "def main(argv=None): pass\n"
            "def _private(z=0): pass\n"
            "f(0, 5, d=6)\n"
        )
    ]
    callers = [ast.parse("import pkg\npkg.g(*[1])\n")]
    assert parameters_never_passed(package, callers, exempt={("main", "argv")}) == [
        "f(c)", "f(e)", "h(y)"
    ]
