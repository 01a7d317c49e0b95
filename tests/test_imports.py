"""Every module-level or local import in the package and the tests is used,
and every top-level function, class and assigned name of the package is
referenced.

Parsed with `ast`, so it needs no linter.  Package `__init__.py` files are
skipped by the import check (their imports are re-exports), and so is
`from __future__`.  A definition counts as referenced when its name is read
as a name, or appears as an attribute, a string constant or a
`from ... import` name, anywhere in the package, the tests or perfbench/
(strings cover the tracer's (module, attribute) tables and `__all__`).

No file under `tests/` imports a `test_*` module, at any depth: test
modules share helpers only through `tests/conftest.py`.

No package module names `SystemExit` or calls `sys.exit` outside its
`if __name__ == "__main__"` guard: errors travel as exceptions, and only
`cli.main` turns them into an exit code.

No package module has an `assert` statement: `python -O` strips them, so
an invariant that fails there would pass silently.  A package invariant
raises `AssertionError` explicitly.

A package statement marked `# unreachable` raises: a branch that no input
should reach must stop the run if one does, not return a quiet verdict.

Every parameter of a package function or lambda is read before its body
rebinds it, apart from a method's `self` or `cls` and the few kept on
purpose (`KEPT_PARAMETERS`).

Every field of a package dataclass is read as an attribute, or named in a
string constant, somewhere in the package, the tests or perfbench/.

Every defaulted parameter of a package function is set, by position or by
keyword, by some call in the package, apart from the few kept on purpose
(`KEPT_DEFAULTS`): a default that no package caller overrides is a
constant, or an option only a test turns.  Every pattern of both
exemption lists still matches a finding, so an exemption goes with the
parameter it names.

Every package function under `functools.cache` or `lru_cache` takes only
`int`-annotated parameters: a cache keyed by a dimension holds one table
per n, while one keyed by a truth table keeps inputs alive and serves a
repeated input from memory.
"""

import ast
import fnmatch
import io
import math
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for p in [*ROOT.glob("src/bentforge/*.py"), *ROOT.glob("tests/*.py")]
    if p.name != "__init__.py"
)
PACKAGE = sorted(ROOT.glob("src/bentforge/*.py"))
SCANNED = [*PACKAGE, *sorted(ROOT.glob("tests/*.py")), *sorted(ROOT.glob("perfbench/*.py"))]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    source = "import os\nimport random as rnd\nfrom x import y, z\nprint(os, z)\n"
    assert unused_imports(source) == ["line 2: rnd", "line 3: y"]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def is_test_module(name: str) -> bool:
    return any(part.startswith("test_") for part in name.split("."))


def imports_of_test_modules(source: str) -> list[str]:
    """The `test_*` modules imported at any depth, one entry per module.  A
    `test_*` name that `from ... import` takes counts as one, since
    `from tests import test_x` imports the module `tests.test_x`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = [module] if is_test_module(module) else [
                f"{module.rstrip('.')}.{alias.name}" for alias in node.names
            ]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names if is_test_module(name)]
    return found


def test_checker_flags_an_import_of_a_test_module():
    source = (
        "import test_a\nimport tests.test_b as b, os\nfrom conftest import rng, test_ids\n"
        "from tests import test_c, util\n\ndef test_d():\n    from .test_e import f, g\n"
    )
    assert imports_of_test_modules(source) == [
        "line 1: test_a",
        "line 2: tests.test_b",
        "line 3: conftest.test_ids",
        "line 4: tests.test_c",
        "line 7: .test_e",
    ]


def test_tests_share_helpers_only_through_conftest():
    found = [
        f"{path.relative_to(ROOT)} {hit}"
        for path in sorted(ROOT.glob("tests/*.py"))
        for hit in imports_of_test_modules(path.read_text())
    ]
    assert found == []


def referenced_names(sources) -> set[str]:
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):  # binding a name is no use of it
                    names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def defined_names(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a def, a class or the plain
    names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [
        t.id
        for target in targets
        for t in ast.walk(target)
        if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
    ]


def unreferenced_definitions(source: str, referenced: set[str]) -> list[str]:
    return [
        f"line {node.lineno}: {name}"
        for node in ast.parse(source).body
        for name in defined_names(node)
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    ]


def test_checker_flags_an_unreferenced_definition():
    source = (
        "__all__ = []\nLIMIT = 3\nWIDTH: int = 4\ndead_a, dead_b = 1, 2\n\n"
        "def used():\n    return LIMIT\n\ndef dead():\n    used()\n\n"
        "class Named:\n    pass\n\nNamed.size = LIMIT\n"
    )
    referenced = referenced_names([source, "x = getattr(m, 'Named')\n"])
    assert unreferenced_definitions(source, referenced) == [
        "line 3: WIDTH",
        "line 4: dead_a",
        "line 4: dead_b",
        "line 9: dead",
    ]


REFERENCED = referenced_names(p.read_text() for p in SCANNED)


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_unreferenced_definitions(path):
    assert unreferenced_definitions(path.read_text(), REFERENCED) == []


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def read_fields(sources) -> set[str]:
    """Names read as an attribute or named in a string constant."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def unread_fields(source: str, read: set[str]) -> list[str]:
    """Fields of a dataclass whose name is never read.  Fields are matched
    by name alone, not by class, so a field that shares its name with an
    attribute read elsewhere (such as `n`) passes unchecked."""
    return [
        f"line {field.lineno}: {node.name}.{field.target.id}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and is_dataclass(node)
        for field in node.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and field.target.id not in read
    ]


def test_checker_flags_an_unread_dataclass_field():
    source = (
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass Pair:\n    left: int\n    right: int\n    tag: str\n\n"
        "@dataclass\nclass Box:\n    size: int\n    unused: int = 0\n\n"
        "class Plain:\n    hidden: int\n\n"
        "def use(p, b):\n    b.unused = p.left\n    return getattr(p, 'tag'), b.size\n"
    )
    assert unread_fields(source, read_fields([source])) == [
        "line 6: Pair.right",
        "line 12: Box.unused",
    ]


FIELDS_READ = read_fields(p.read_text() for p in SCANNED)


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_every_dataclass_field_is_read(path):
    assert unread_fields(path.read_text(), FIELDS_READ) == []


def private_imports(source: str) -> list[str]:
    """`_`-prefixed names taken from other modules by an import."""
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if any(part.startswith("_") for part in alias.name.split("."))
    ]


def test_checker_flags_a_private_import():
    source = "from __future__ import annotations\nfrom .a import _b, c\nimport d._e\n"
    assert private_imports(source) == ["line 2: _b", "line 3: d._e"]


def test_verify_imports_no_private_name():
    # verify-paper re-derives the paper's results through the public API;
    # test oracles, which reach for private helpers, live in tests/
    assert private_imports((ROOT / "src/bentforge/verify.py").read_text()) == []


def exit_paths(source: str) -> list[str]:
    """`SystemExit` names and `sys.exit` calls outside the
    `if __name__ == "__main__"` guard."""
    tree = ast.parse(source)
    guarded = {
        id(inner)
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Name) and node.id == "SystemExit":
            found.append((node.lineno, "SystemExit"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "exit"
            and isinstance(node.value, ast.Name)
            and node.value.id == "sys"
        ):
            found.append((node.lineno, "sys.exit"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_checker_flags_an_exit_outside_the_main_guard():
    source = (
        "import sys\n\ndef load():\n    raise SystemExit('need input')\n\n"
        "def stop():\n    try:\n        sys.exit(1)\n    except SystemExit:\n        pass\n\n"
        "if __name__ == '__main__':\n    sys.exit(stop())\n"
    )
    assert exit_paths(source) == ["line 4: SystemExit", "line 8: sys.exit", "line 9: SystemExit"]


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_package_has_one_error_channel(path):
    assert exit_paths(path.read_text()) == []


def assert_statements(source: str) -> list[str]:
    return [
        f"line {node.lineno}: {ast.unparse(node.test)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
    ]


def test_checker_flags_an_assert_statement():
    source = (
        "def f(x):\n    assert x > 0\n    if x % 2:\n        raise AssertionError(x)\n"
        "    assert_ok = x\n    for y in range(x):\n        assert y != 3, 'three'\n"
    )
    assert assert_statements(source) == ["line 2: x > 0", "line 7: y != 3"]


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_package_has_no_assert_statement(path):
    assert assert_statements(path.read_text()) == []


def raises_only(node: ast.stmt) -> bool:
    if isinstance(node, ast.If):
        return all(isinstance(inner, ast.Raise) for inner in node.body)
    return isinstance(node, ast.Raise)


def unreachable_branches(source: str) -> list[str]:
    """Statements marked `# unreachable` that are neither a `raise` nor an
    `if` whose body only raises.  A trailing comment marks the innermost
    statement on its line, a comment on a line of its own the statement
    after it."""
    statements = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)]
    found = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type != tokenize.COMMENT or not tok.string.lstrip("# ").startswith("unreachable"):
            continue
        line = tok.start[0]
        if tok.line[: tok.start[1]].strip():
            spans = [node for node in statements if node.lineno <= line <= node.end_lineno]
            node = min(spans, key=lambda node: node.end_lineno - node.lineno)
        else:
            node = min((node for node in statements if node.lineno > line), key=lambda node: node.lineno)
        if not raises_only(node):
            found.append(f"line {line}: {type(node).__name__}")
    return found


def test_checker_flags_an_unreachable_branch_that_does_not_raise():
    source = (
        "def f(x):\n"
        "    if x < 0:  # unreachable given the caller's check\n"
        "        return None\n"
        "    if x > 9:  # unreachable\n"
        "        raise AssertionError(x)\n"
        "    # unreachable below 0\n"
        "    y = x\n"
        "    if y:\n"
        "        raise ValueError(\n"
        "            y)  # unreachable\n"
        "    return y  # reachable\n"
    )
    assert unreachable_branches(source) == ["line 2: If", "line 6: Assign"]


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_unreachable_branches_raise(path):
    assert unreachable_branches(path.read_text()) == []


def read_before_rebound(body: list[ast.stmt], name: str) -> bool:
    """Whether `name` is read, nested functions included, before an
    assignment that is a statement of `body` itself (not inside a branch or
    loop) rebinds it."""
    for statement in body:
        names = [n for n in ast.walk(statement) if isinstance(n, ast.Name) and n.id == name]
        if any(isinstance(n.ctx, ast.Load) for n in names):
            return True
        if names and isinstance(statement, (ast.Assign, ast.AnnAssign)):
            return False
    return False


def unread_parameters(source: str) -> list[str]:
    """Parameters whose value their function's or lambda's body never
    reads; `self` and `cls` are skipped."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        body = node.body if isinstance(node.body, list) else [ast.Expr(node.body)]
        name = getattr(node, "name", "<lambda>")
        found += [
            (node.lineno, f"{name}({p.arg})")
            for p in params
            if p is not None
            and p.arg not in ("self", "cls")
            and not read_before_rebound(body, p.arg)
        ]
    return [f"line {line}: {where}" for line, where in sorted(found)]


def test_checker_flags_an_unread_parameter():
    source = (
        "class A:\n    @classmethod\n    def make(cls, x, y):\n        return x\n\n"
        "def outer(a, *rest, key=None, **extra):\n    def inner(b):\n        return a\n"
        "    a = key\n    return inner, rest\n\nf = lambda u, v: u\n\n"
        "def cut(rows, batch, n):\n    if n:\n        rows = rows[1:]\n"
        "    n = n + 1\n    batch = rows[:n]\n    return batch\n"
    )
    assert unread_parameters(source) == [
        "line 3: make(y)",
        "line 6: outer(extra)",
        "line 7: inner(b)",
        "line 12: <lambda>(v)",
        "line 14: cut(batch)",
    ]


def matches(finding: str, pattern: str) -> bool:
    """Whether an exemption pattern names a finding's function(parameter)."""
    return fnmatch.fnmatchcase(finding.split(": ")[1], pattern)


# unread parameters kept on purpose, as fnmatch patterns of function(parameter)
KEPT_PARAMETERS = [
    # argparse dispatches every subcommand handler as fn(args)
    "_cmd_*(args)",
    # accepted and ignored for the call shape of perfbench/tracer.py until
    # the benchmark change of ROADMAP item 5a
    "is_in_ps_sharp(jobs)",
    "is_in_ps_sharp(resume)",
]


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_every_parameter_is_read(path):
    found = unread_parameters(path.read_text())
    kept = [x for x in found if any(matches(x, k) for k in KEPT_PARAMETERS)]
    assert found == kept


def calls_made(sources) -> dict[str, tuple[float, set[str]]]:
    """Per called name, the most positional arguments one call passes
    (infinite with `*args`) and the keywords calls pass (`**` for
    `**kwargs`); `f(...)` and `x.f(...)` both call `f`."""
    calls: dict[str, tuple[float, set[str]]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            most, keywords = calls.get(name, (0, set()))
            calls[name] = (
                max(most, math.inf if starred else len(node.args)),
                keywords | {k.arg or "**" for k in node.keywords},
            )
    return calls


def unset_defaults(source: str, calls: dict[str, tuple[float, set[str]]]) -> list[str]:
    """Defaulted parameters that no call in `calls` sets.  A function is
    called by its name, `__init__` by its class's name, and a method's
    positions skip `self` or `cls`; keyword-only parameters are set by
    keyword alone."""
    tree = ast.parse(source)
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = [*args.posonlyargs, *args.args][id(node) in owner :]
        called = owner[id(node)] if node.name == "__init__" and id(node) in owner else node.name
        most, keywords = calls.get(called, (0, set()))
        first = len(positional) - len(args.defaults)
        defaulted = [(p, i) for i, p in enumerate(positional) if i >= first]
        defaulted += [(p, math.inf) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        found += [
            (node.lineno, f"{node.name}({p.arg})")
            for p, i in defaulted
            if not (most > i or p.arg in keywords or "**" in keywords)
        ]
    return [f"line {line}: {where}" for line, where in sorted(found)]


def test_checker_flags_a_default_no_call_sets():
    source = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return a, b, c, d, e\n\n"
        "class K:\n    def __init__(self, x, y=0, z=0):\n        self.v = x, y, z\n\n"
        "    def m(self, w=1):\n        return w\n\n"
        "def g(p=0, *, q=0):\n    return p, q\n\ndef h(r=0):\n    return r\n\n"
        "f(0, 5, e=1)\nK(1, 2).m()\ng(*rest)\nh(**extra)\n"
    )
    assert unset_defaults(source, calls_made([source])) == [
        "line 1: f(c)",
        "line 1: f(d)",
        "line 5: __init__(z)",
        "line 8: m(w)",
        "line 11: g(q)",
    ]


# defaulted parameters no package call sets, kept on purpose, as fnmatch
# patterns of function(parameter)
KEPT_DEFAULTS = [
    # set by perfbench/tracer.py and the tests; jobs and resume go with the
    # benchmark change of ROADMAP item 5a
    "is_in_ps_sharp(jobs)",
    "is_in_ps_sharp(resume)",
    "is_in_ps_sharp(progress)",
    # the console entry point, called without arguments
    "main(argv)",
]

PACKAGE_CALLS = calls_made(p.read_text() for p in PACKAGE)


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_every_default_is_set_by_a_package_call(path):
    found = unset_defaults(path.read_text(), PACKAGE_CALLS)
    kept = [x for x in found if any(matches(x, k) for k in KEPT_DEFAULTS)]
    assert found == kept


def stale_patterns(patterns: list[str], found: list[str]) -> list[str]:
    """The exemption patterns that match none of the findings."""
    return [k for k in patterns if not any(matches(x, k) for x in found)]


def test_checker_flags_a_stale_exemption():
    found = ["line 3: _cmd_run(args)", "line 9: solve(jobs)"]
    assert stale_patterns(["_cmd_*(args)", "solve(jobs)", "solve(resume)"], found) == ["solve(resume)"]


@pytest.mark.parametrize(
    "patterns, check",
    [
        pytest.param(KEPT_PARAMETERS, unread_parameters, id="KEPT_PARAMETERS"),
        pytest.param(KEPT_DEFAULTS, lambda source: unset_defaults(source, PACKAGE_CALLS), id="KEPT_DEFAULTS"),
    ],
)
def test_every_exemption_still_matches_a_finding(patterns, check):
    # an exemption outlives its reason once the parameter it names is gone
    assert stale_patterns(patterns, [x for p in PACKAGE for x in check(p.read_text())]) == []


def is_cache_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in ("cache", "lru_cache")


def non_int_cache_keys(source: str) -> list[str]:
    """Parameters of `cache` or `lru_cache` functions not annotated `int`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not any(is_cache_decorator(d) for d in node.decorator_list):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        found += [
            f"line {node.lineno}: {node.name}({p.arg})"
            for p in params
            if p is not None and not (isinstance(p.annotation, ast.Name) and p.annotation.id == "int")
        ]
    return found


def test_checker_flags_a_cache_keyed_by_a_non_int():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n\n"
        "@functools.cache\ndef rows(n: int) -> list:\n    return []\n\n"
        "@lru_cache(maxsize=1)\ndef graph(f: BooleanFunction) -> list:\n    return []\n\n"
        "@functools.lru_cache\ndef pair(n: int, table, *, k: int = 0):\n    return n\n\n"
        "@cache\ndef cells(m: 'int', *rest: int):\n    return m\n\n"
        "class Box:\n    @functools.cached_property\n    def size(self) -> int:\n        return 0\n\n"
        "def plain(f: BooleanFunction):\n    return f\n"
    )
    assert non_int_cache_keys(source) == [
        "line 9: graph(f)",
        "line 13: pair(table)",
        "line 17: cells(m)",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_caches_are_keyed_by_dimensions(path):
    assert non_int_cache_keys(path.read_text()) == []
