"""Every definition in ``src/repro``, down to class members, has a
non-test caller.

A name-level reachability scan over the source with :mod:`ast`.  The
roots are everything that runs outside the test suite:

- every module-level statement in ``src/repro`` other than imports,
  ``def``/``class`` statements and ``__all__`` (so the CLI's
  ``if __name__ == "__main__"`` block counts, as does a module-level
  ``for`` loop that registers a backend or a registry table built at
  import time);
- every file under ``benchmarks/`` and ``examples/``.

A top-level function is reached when a reached scope names it, as a
name or an attribute; its whole body (decorators and defaults too) is
then reached in turn.  A top-level class reached the same way brings in
only its bases, decorators and class-level statements (class attribute
values, field defaults), not its method bodies.  Each member of a
reached class -- method, property, class attribute, dataclass field or
nested class -- is reached on its own when

- a reached scope names it as an attribute, a name, a keyword (so a
  dataclass field set by keyword counts) or a string that is an
  identifier (``getattr(method, "audit_census", None)``);
- it is a dunder, which the interpreter calls; or
- it overrides a member of a base outside ``src/`` (found in the
  class's imported method resolution order), which that base's code
  calls: the base defines it (``log_message``), or the base builds
  the name it calls from a string prefix (``'do_' + self.command``
  calls ``do_GET``).

A reached method's whole body is reached, a reached nested class's
class-level parts likewise.  Names are matched without their module or
class, so the scan can miss dead code that shares a name with live code
(one reached ``clear`` keeps every ``clear``); what it cannot see is a
call through a computed name (``getattr(builder, mnemonic + "_")``).

Whatever stays unreached is code that only ``tests/`` calls, or that
nothing calls.  Either bench it (give it a non-test caller) or delete it
with its tests.  The few that stay on purpose, as oracles, test fixtures
or names only a computed call reaches, are listed in ``ALLOWED`` with
the reason.  A member of an unreached class is not listed apart from
its class.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import pathlib
import sys
import textwrap
from dataclasses import dataclass, field

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: ``module:name`` or ``module:Class.member`` -> why it stays without a
#: non-test caller.
ALLOWED = {
    "repro.branch.counters:apply_history":
        "forward oracle for the counter inference table's tests",
    "repro.store.serialization:reset_warnings":
        "test fixture: re-arms the once-per-process format warning",
    "repro.isa.builder:ProgramBuilder.or_":
        "one emitter per opcode; the assembler calls it by the computed "
        "name 'or' + '_'",
    "repro.livepoints.library:LivePointLibrary.store_in":
        "the live-point store round trip that core sweeps by live-point "
        "replay are to use (planned; the library's tests run it now)",
    "repro.livepoints.library:LivePointLibrary.from_store":
        "the live-point store round trip that core sweeps by live-point "
        "replay are to use (planned; the library's tests run it now)",
}


def _module_name(path: pathlib.Path, src: pathlib.Path) -> str:
    parts = path.relative_to(src.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _names(node: ast.AST) -> set[str]:
    """Every identifier `node` mentions, as a name, an attribute, a
    keyword argument or a string (``getattr(x, "name")``, a table of
    mnemonics)."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.keyword) and child.arg:
            found.add(child.arg)
        elif (isinstance(child, ast.Constant) and isinstance(child.value, str)
              and child.value.isidentifier()):
            found.add(child.value)
    return found


def _targets(statement: ast.stmt) -> list[ast.expr]:
    if isinstance(statement, ast.Assign):
        return statement.targets
    if isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        return [statement.target]
    return []


def _statement_names(statement: ast.stmt) -> set[str]:
    """What `statement` names, leaving out the plain names it binds."""
    bound = {id(target) for target in _targets(statement)
             if isinstance(target, ast.Name)}
    found = set()
    for child in ast.iter_child_nodes(statement):
        if id(child) not in bound:
            found |= _names(child)
    return found


def _bound_names(statement: ast.stmt) -> list[str]:
    names = []
    for target in _targets(statement):
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                names.append(node.id)
    return names


def _is_all(statement: ast.stmt) -> bool:
    return "__all__" in _bound_names(statement)


_SKIPPED = (ast.Import, ast.ImportFrom)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTIONS, ast.ClassDef)


@dataclass
class _Definition:
    name: str
    #: The key of the class that owns this member; None at top level.
    owner: str | None
    #: What reaching this definition reaches in turn.
    reaches: set[str] = field(default_factory=set)
    #: Reached with its owner, whatever names it: a dunder, or an
    #: override of a base outside ``src/``.
    always: bool = False


@functools.cache
def _called_prefixes(base: type) -> tuple[str, ...]:
    """The string prefixes `base`'s own code builds the names it calls
    from, such as ``'do_'`` in ``getattr(self, 'do_' + self.command)``."""
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(base)))
    except (OSError, TypeError):  # no Python source: a builtin
        return ()
    return tuple(sorted({
        node.left.value for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        and isinstance(node.left, ast.Constant)
        and isinstance(node.left.value, str)
        and node.left.value.isidentifier()}))


def _always_reached(name: str, bases: list[type]) -> bool:
    """Is a member called `name` reached whatever names it: a dunder, or
    an override of one of `bases` (its class's bases outside ``src/``)?"""
    if name.startswith("__") and name.endswith("__"):
        return True
    return any(hasattr(base, name) or name.startswith(_called_prefixes(base))
               for base in bases)


def _external_bases(module: str, qualname: str) -> list[type]:
    """The bases outside the scanned package of the class `qualname` in
    `module`, from its imported method resolution order."""
    cls = importlib.import_module(module)
    for part in qualname.split("."):
        cls = getattr(cls, part)
    package = module.split(".")[0]
    return [base for base in cls.__mro__[1:-1]
            if base.__module__.split(".")[0] != package]


def _class_level(cls: ast.ClassDef) -> set[str]:
    found = set()
    for part in [*cls.bases, *cls.keywords, *cls.decorator_list]:
        found |= _names(part)
    for statement in cls.body:
        if not isinstance(statement, _DEFS):
            found |= _statement_names(statement)
    return found


def _reaches(node: ast.AST) -> set[str]:
    """What reaching `node` (a def, a class or a class attribute
    statement) reaches in turn."""
    if isinstance(node, _FUNCTIONS):
        return _names(node)
    if isinstance(node, ast.ClassDef):
        return _class_level(node)
    return set()  # an attribute's value is reached with its class


def scan(root: pathlib.Path = ROOT,
         package: str = "repro") -> tuple[list[str], list[str]]:
    """Every definition and class member under ``root/src/<package>``
    as ``module:name`` or ``module:Class.member``, and the unreached
    ones.  The package must be importable: a class's bases come from
    its imported method resolution order."""
    src = root / "src" / package
    parsed = {path: ast.parse(path.read_text(encoding="utf-8"))
              for path in sorted(src.rglob("*.py"))}

    definitions: dict[str, _Definition] = {}
    reached: set[str] = set()

    def define(key: str, name: str, node: ast.AST, owner: str | None = None,
               always: bool = False) -> None:
        # A property's getter and setter share one key.
        entry = definitions.setdefault(key, _Definition(name, owner,
                                                        always=always))
        entry.reaches |= _reaches(node)
        if isinstance(node, ast.ClassDef):
            bases = _external_bases(*key.split(":"))
            for statement in node.body:
                for member in ([statement.name]
                               if isinstance(statement, _DEFS)
                               else _bound_names(statement)):
                    define(f"{key}.{member}", member, statement, key,
                           _always_reached(member, bases))

    for path, tree in parsed.items():
        module_name = _module_name(path, src)
        for statement in tree.body:
            if isinstance(statement, _DEFS):
                define(f"{module_name}:{statement.name}", statement.name,
                       statement)
            elif not isinstance(statement, _SKIPPED) and not _is_all(
                    statement):
                reached |= _statement_names(statement)
    for directory in ("benchmarks", "examples"):
        for path in sorted((root / directory).rglob("*.py")):
            reached |= _names(ast.parse(path.read_text(encoding="utf-8")))

    pending = dict(definitions)
    while True:
        newly = [key for key, entry in pending.items()
                 if entry.owner not in pending  # top level, or owner reached
                 and (entry.always or entry.name in reached)]
        if not newly:
            break
        for key in newly:
            reached |= pending.pop(key).reaches
    unreached = [key for key, entry in pending.items()
                 if entry.owner not in pending]
    return sorted(definitions), sorted(unreached)


def test_every_definition_has_a_non_test_caller():
    _, unreached = scan()
    dead = [key for key in unreached if key not in ALLOWED]
    assert not dead, (
        "definitions or class members in src/repro that no CLI command, "
        "module-level statement, bench or example reaches (only tests, "
        "or nothing, call them); bench them or delete them with their "
        "tests:\n  " + "\n  ".join(dead))


def test_allowlist_entries_exist_and_are_unreached():
    definitions, unreached = scan()
    missing = sorted(set(ALLOWED) - set(definitions))
    assert not missing, f"allowlisted names no longer defined: {missing}"
    stale = sorted(set(ALLOWED) - set(unreached))
    assert not stale, (
        f"allowlisted names now have a non-test caller; drop them from "
        f"ALLOWED: {stale}")


_SYNTHETIC = {
    "src/reachability_toy/__init__.py": "",
    "src/reachability_toy/__main__.py": """
        from reachability_toy.mod import Thing, serve

        def main():
            serve()
            return Thing(size=1).used()

        if __name__ == "__main__":
            main()
        """,
    "src/reachability_toy/mod.py": """
        from dataclasses import dataclass
        from http.server import BaseHTTPRequestHandler

        @dataclass
        class Thing:
            size: int
            spare: int = 0

            def __repr__(self):
                return "Thing"

            def used(self):
                return self.size

            def test_only(self):
                return self.chained()

            def chained(self):
                return 2

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                self.helper()

            def helper(self):
                pass

        class Derived(Handler):
            def log_message(self, *args):
                pass

        def serve():
            return Handler, Derived
        """,
    "tests/test_mod.py": """
        from reachability_toy.mod import Thing

        def test_thing():
            assert Thing(1).test_only() == 2
        """,
}


def test_scan_reaches_down_to_class_members(tmp_path, monkeypatch):
    for name, text in _SYNTHETIC.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    try:
        definitions, unreached = scan(tmp_path, "reachability_toy")
    finally:
        for module in [name for name in sys.modules
                       if name.split(".")[0] == "reachability_toy"]:
            del sys.modules[module]
    toy = "reachability_toy.mod"
    assert f"{toy}:Thing.size" in definitions
    assert unreached == [f"{toy}:Thing.chained", f"{toy}:Thing.spare",
                         f"{toy}:Thing.test_only"]
