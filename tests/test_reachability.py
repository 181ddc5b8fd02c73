"""Every top-level function and class in ``src/repro`` has a non-test caller.

A name-level reachability scan over the source with :mod:`ast`.  The
roots are everything that runs outside the test suite:

- ``repro/__main__.py`` (the CLI), whole;
- every module-level statement in ``src/repro`` other than imports,
  ``def``/``class`` statements and ``__all__`` (so a module-level
  ``for`` loop that registers a backend counts, as does a registry
  table built at import time);
- every file under ``benchmarks/`` and ``examples/``.

A top-level ``def`` or ``class`` is reached when a reached scope names
it, as a bare name or as an attribute; its whole body (methods,
decorators, bases, defaults) is then reached in turn.  Names are matched
without their module, so the scan can miss dead code that shares a name
with live code, but it never reports live code as dead.

Whatever stays unreached is code that only ``tests/`` calls, or that
nothing calls.  Either bench it (give it a non-test caller) or delete it
with its tests.  The few that stay on purpose, as oracles or test
fixtures, are listed in ``ALLOWED`` with the reason.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: ``module:name`` -> why it stays without a non-test caller.
ALLOWED = {
    "repro.branch.counters:apply_history":
        "forward oracle for the counter inference table's tests",
    "repro.store.serialization:reset_warnings":
        "test fixture: re-arms the once-per-process format warning",
    "repro.telemetry.spanexport:check_lane_nesting":
        "CI's span-smoke job validates the Chrome trace export with it",
    "repro.warmup.registry:register_method":
        "the extension point for third-party warm-up methods (docs/api.md)",
    "repro.warmup.registry:unregister_method":
        "test fixture: undoes register_method; public API beside it",
}


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _names(node: ast.AST) -> set[str]:
    """Every identifier `node` mentions, as a name or an attribute."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


def _is_all(statement: ast.stmt) -> bool:
    targets = (statement.targets if isinstance(statement, ast.Assign)
               else [getattr(statement, "target", None)])
    return any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets)


_SKIPPED = (ast.Import, ast.ImportFrom)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def scan() -> tuple[list[str], list[str]]:
    """Every top-level definition as ``module:name``, and the unreached
    ones."""
    definitions: dict[str, ast.AST] = {}
    reached: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = _module_name(path)
        for statement in tree.body:
            if isinstance(statement, _DEFS):
                definitions[f"{module}:{statement.name}"] = statement
                if path.name == "__main__.py":
                    reached |= _names(statement)
            elif not isinstance(statement, _SKIPPED) and not _is_all(
                    statement):
                reached |= _names(statement)
    for path in [*sorted((ROOT / "benchmarks").rglob("*.py")),
                 *sorted((ROOT / "examples").glob("*.py"))]:
        reached |= _names(ast.parse(path.read_text(encoding="utf-8")))

    pending = dict(definitions)
    while True:
        newly = [key for key in pending
                 if key.rsplit(":", 1)[1] in reached]
        if not newly:
            return sorted(definitions), sorted(pending)
        for key in newly:
            reached |= _names(pending.pop(key))


def test_every_definition_has_a_non_test_caller():
    _, unreached = scan()
    dead = [key for key in unreached if key not in ALLOWED]
    assert not dead, (
        "top-level definitions in src/repro that no CLI command, "
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
