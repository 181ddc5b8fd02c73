"""Name-based warm-up method lookup.

Every entry point that accepts a method *name* — the CLI, the harness,
:mod:`repro.api` — resolves it here, against the paper's sixteen Table 2
configurations from the suite catalogue.  Canonical names are the
Table 2 labels (``"R$BP (100%)"``, ``"S$BP"``, ...).  Lookups are
case-insensitive; ``"rsr"`` and ``"smarts"`` point at the headline
configurations so the stable facade can say
``simulate(workload, method="rsr")``.  A method outside the suite has no
name here: pass the instance itself to :func:`repro.api.simulate`.
"""

from __future__ import annotations

import functools
from typing import Callable

from .base import WarmupMethod
from .suite import _catalogue

#: Headline aliases for the stable facade: lowercase alias -> canonical.
_ALIASES = {"rsr": "R$BP (100%)", "smarts": "S$BP"}


@functools.cache
def _registry() -> dict[str, Callable[[], WarmupMethod]]:
    """The Table 2 suite, canonical name -> zero-argument factory,
    built on first use."""
    return {prototype.name: factory for prototype, factory in _catalogue()}


def _canonical(name: str) -> str:
    registry = _registry()
    key = name.strip().lower()
    key = _ALIASES.get(key, key).lower()
    for canonical in registry:
        if canonical.lower() == key:
            return canonical
    known = ", ".join(sorted(registry))
    raise ValueError(f"unknown method {name!r}; known: {known}")


def method_factory(name: str) -> Callable[[], WarmupMethod]:
    """The factory behind `name` (canonical or alias).

    Raises a readable ValueError for unknown names — the CLI maps it to
    exit status 2.
    """
    return _registry()[_canonical(name)]


def resolve_method(name: str) -> WarmupMethod:
    """Build a fresh warm-up method from a Table 2 name or alias."""
    return method_factory(name)()


def registered_method_names() -> list[str]:
    """The canonical Table 2 names, sorted."""
    return sorted(_registry())
